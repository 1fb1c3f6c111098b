"""State-and-control evolution: the comparison baseline formulation.

Here the node states are carried in the evolving vector next to the node
controls, so every right-hand-side evaluation works on a snapshot of
(states, controls, tf) rather than re-propagating the dynamics.  The
control rate, gradient, multiplier system and terminal-time rate are the
control-only formulas of ``vem.third`` on the snapshot's node record
(``third.NodeInputs``); this module adds the node-state rate and the
variant's terms:

  feasible        trajectory satisfies dynamics, initial and terminal
                  conditions; multiplier system without constraint pull.
  quasi_feasible  dynamics and initial condition hold (e.g. the snapshot
                  was produced by integration); the multiplier right-hand
                  side gains the -K_g g attraction term.  Default.
  modified        arbitrary snapshots; initial-condition and dynamics
                  defects are fed back with unit gain and the terminal
                  rate uses the snapshot's time derivative in place of
                  the dynamics.

On a defect-free snapshot the modified form reduces exactly to the
quasi-feasible one, which in turn matches the control-only formulation.
The modified-mode dynamics defect (``SecondEqSnapshot.defect``) and the
end-node terms (``third.MultiplierTerms``: the constraint projection and,
on a free horizon, the terminal bracket) are formed once per snapshot by
the caller and passed to each formula that reads them; the modified-mode
corrections read the projection Q = Psi g_x^T.  A snapshot builds one
spline over [states | controls] and reads its node derivatives once.

The node-state rate is the discrete variational equation: the trapezoid
recurrence of w' = f_x w + f_u udot along the transition stack's
interval maps g_i, one forward banded solve over the blocks whose
backward solve gave Psi and lam, against the band that solve built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import SplineCoeffs, spline_build
from .ocp import GainSet, OcpProblem
from .third import (MultiplierTerms, NodeInputs, multiplier_system,
                    solve_multipliers, tf_rhs, weighted_rows)
# Not called here; perfbench/tracing.py patches these names in this module.
from .rk45 import rk45_integrate  # noqa: F401
from .third import (control_gradient, control_rhs, multiplier_matrix,  # noqa: F401
                    multiplier_rhs)
from .trajectory import (ControlTrajectory, StateTrajectory, TimeGrid, TransitionStack,
                         _bidiagonal_solve)

MODES = ("feasible", "quasi_feasible", "modified")


@dataclass
class SecondEqSnapshot:
    """One (states, controls, tf) snapshot of the coupled evolution.

    One spline over [states | controls] serves both trajectories, whose
    splines are views of its coefficients and which carry it as their
    ``joint``, so a stencil round reads it once for both
    (``trajectory.path_rows``).  One derivative read at the
    nodes gives ``du_dt``, the control spline's time derivative, and
    ``xdot``, the discrete time derivative of the states, which is how the
    dynamics defect is discretized.  Tests may inject exact ``xdot``.
    """

    grid: TimeGrid
    states: np.ndarray          # (N, n)
    controls: np.ndarray        # (N, m)
    xdot: np.ndarray            # (N, n)
    du_dt: np.ndarray           # (N, m)
    state_traj: StateTrajectory
    ctrl_traj: ControlTrajectory

    @classmethod
    def create(cls, grid: TimeGrid, states, controls,
               xdot: Optional[np.ndarray] = None) -> "SecondEqSnapshot":
        states = np.asarray(states, dtype=float)
        controls = np.asarray(controls, dtype=float)
        n = states.shape[1]
        # The slope solve treats each channel alone, so the joint spline's
        # columns are bit for bit those of separate builds.
        joint = spline_build(grid.times, np.concatenate([states, controls], axis=1))
        state_spline = SplineCoeffs(joint.breakpoints, joint.coeffs[:, :, :n])
        slopes = joint.derivative(grid.times)
        if xdot is None:
            xdot = slopes[:, :n]
        return cls(grid, states, controls, np.asarray(xdot, dtype=float),
                   slopes[:, n:],
                   StateTrajectory(grid, states, lambda: state_spline, joint=joint),
                   ControlTrajectory(grid, controls, SplineCoeffs(
                       joint.breakpoints, joint.coeffs[:, :, n:]), joint=joint))

    def defect(self, problem: OcpProblem) -> np.ndarray:
        """Dynamics defect xdot - f at the nodes, shape (N, n)."""
        return self.xdot - np.asarray(problem.dynamics_rows(
            self.states, self.controls, self.grid.times), dtype=float)


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")


def multiplier_system_second(problem: OcpProblem, nodes: NodeInputs,
                             terms: MultiplierTerms, gu: np.ndarray,
                             gains: GainSet, mode: str = "quasi_feasible", *,
                             defect: Optional[np.ndarray]):
    """(M, r) of ``third.multiplier_system`` on the snapshot's node record
    for the requested variant.

    In modified mode the caller forms the terms' terminal bracket with the
    snapshot's end-node time derivative in place of the dynamics, and the
    variant appends the initial-condition and dynamics-defect corrections
    to r through the projection Q = Psi g_x^T; ``defect`` is the
    snapshot's dynamics defect (``SecondEqSnapshot.defect``), read in
    modified mode only.
    """
    _check_mode(mode)
    mat, r = multiplier_system(
        problem, nodes, terms, gu, gains,
        "feasible" if mode == "feasible" else "quasi_feasible")
    if mode != "modified":
        return mat, r
    q = terms.psi_gx
    # Initial-condition feedback through the full-horizon transition
    # matrix: g_x Phi(tf, t0) = Q_0^T.
    r = r + q[0].T @ (nodes.xs[0] - problem.x0)
    # Dynamics-defect feedback, transported to the terminal time: the
    # trapezoid sum of Q_i^T defect_i.
    return mat, r + weighted_rows(nodes, q).T @ defect.ravel()


def multiplier_second(problem: OcpProblem, nodes: NodeInputs,
                      terms: MultiplierTerms, gu: np.ndarray, gains: GainSet,
                      mode: str = "quasi_feasible", *,
                      defect: Optional[np.ndarray]) -> np.ndarray:
    return solve_multipliers(*multiplier_system_second(
        problem, nodes, terms, gu, gains, mode, defect=defect))


def state_rhs_second(problem: OcpProblem, nodes: NodeInputs,
                     stack: TransitionStack, udot_nodes: np.ndarray,
                     mode: str = "quasi_feasible", *,
                     defect: Optional[np.ndarray]) -> np.ndarray:
    """Evolution rate of the node states, shape (N, n).

    The variational equation w' = f_x w + F, w(t0) = w0, with forcing
    F = f_u udot -- and in modified mode the defect feedback -defect
    (``defect``, read in that mode only) and w0 = -(x_0 - x0) -- by
    the grid-trapezoid rule of the multiplier system along the stack's
    interval maps g_i = Phi(t_i+1, t_i):

        w_0 = w0,  w_i+1 = g_i (w_i + h_i/2 F_i) + h_i/2 F_i+1.

    Sharing the rule makes the designed constraint decay exact at the
    discrete level, and the node controls see the same quadrature error
    as the multipliers.  The recurrence is the forward solve of the banded
    system whose backward solve gave Psi and lam (``_bidiagonal_solve``),
    against the band that solve built (``TransitionStack.band``).
    The equivalent variational problem is an oracle in ``vem.checks``
    (``variational_state_rate``).
    """
    _check_mode(mode)
    udot_nodes = np.atleast_2d(np.asarray(udot_nodes, dtype=float))
    forcing = (nodes.fu @ udot_nodes[:, :, None])[:, :, 0]
    rhs = np.zeros_like(forcing)
    if mode == "modified":
        rhs[0] = -(nodes.xs[0] - problem.x0)
        forcing -= defect
    g = stack.blocks
    half = 0.5 * nodes.grid.widths[:, None]
    rhs[1:] = half * ((g @ forcing[:-1, :, None])[:, :, 0] + forcing[1:])
    return _bidiagonal_solve(stack.band, rhs.reshape(-1, 1), "N").reshape(forcing.shape)


def tf_rhs_second(bracket, pi: Optional[np.ndarray], gains: GainSet) -> float:
    """``third.tf_rhs`` for the coupled method, whose ``bracket`` the
    caller forms with the snapshot's end-node time derivative in place of
    the dynamics in modified mode."""
    return tf_rhs(bracket, pi, gains)
