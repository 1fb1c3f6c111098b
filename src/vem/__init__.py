"""Variation-evolution solver for optimal control problems.

Controls (and, in the coupled formulation, states) are discretized on a
time grid and driven toward the optimum along a virtual evolution time;
the resulting initial-value problem is integrated with an embedded
Runge-Kutta pair.  Optimality is verified through costate-free residuals
rather than adjoint boundary-value conditions.
"""

from .driver import (
    EvolutionHistory,
    EvolutionSystem,
    SolveReport,
    StateLayout,
    assemble_ivp,
    evolve,
    solve_benchmark,
    summarize,
)
from .numerics import SplineCoeffs, solve_dense, spline_build
from .ocp import DiscrepancyReport, GainSet, OcpProblem, ValidationReport, check_derivatives, validate_problem
from .problems import (
    Benchmark,
    Reference,
    benchmark_names,
    brachistochrone,
    double_integrator,
    get_benchmark,
    register_benchmark,
)
from .rk45 import IntegratorOptions, SolutionPath, rk45_fixed, rk45_integrate
from .third import Residuals
from .trajectory import (
    ControlTrajectory,
    StateTrajectory,
    TimeGrid,
    TransitionStack,
    fused_sweep,
    propagate_states,
    transition_stack,
)

__version__ = "0.1.0"

__all__ = [
    "Benchmark",
    "ControlTrajectory",
    "DiscrepancyReport",
    "EvolutionHistory",
    "EvolutionSystem",
    "GainSet",
    "IntegratorOptions",
    "OcpProblem",
    "Reference",
    "Residuals",
    "SolutionPath",
    "SolveReport",
    "SplineCoeffs",
    "StateLayout",
    "StateTrajectory",
    "TimeGrid",
    "TransitionStack",
    "ValidationReport",
    "assemble_ivp",
    "benchmark_names",
    "brachistochrone",
    "check_derivatives",
    "double_integrator",
    "evolve",
    "fused_sweep",
    "get_benchmark",
    "propagate_states",
    "register_benchmark",
    "rk45_fixed",
    "rk45_integrate",
    "solve_benchmark",
    "solve_dense",
    "spline_build",
    "summarize",
    "transition_stack",
    "validate_problem",
]
