"""Time grids, state propagation, and transition-matrix stacks.

The solver works on a fixed normalized grid sigma in [0, 1]; physical
node times are an affine image of sigma, so a moving terminal time only
stretches the grid and never resamples node values.

The stack of matrices Psi(t_i) -- the transposed state transition matrix
from t_i to the terminal time -- is obtained from one backward matrix
initial-value problem, d(Psi)/dt = -f_x(t)^T Psi with Psi(tf) = I, which
is equivalent to integrating the forward variational equation per node
but costs a single n-by-n integration.  A running adjoint vector is
integrated alongside (same backward sweep, same Jacobian evaluations):
lam' = -f_x^T lam - L_x with lam(tf) set to the terminal-cost gradient.
That vector is exactly the cost-gradient kernel the evolution equations
consume.

Inner sweeps are driven by trajectories that do not depend on the swept
values: the control, and for the backward sweep the states.  Their fields
are ``DrivenField``s, which take those inputs as one row per time and
use the integrator's ``prepare`` hook to look up all six stage times of a
step attempt in one vectorised call.  The backward sweep's rows are
[f_x(t) flattened, L_x(t)], from one ``jac_fx_rows`` and one
``grad_lx_rows`` call on the looked-up x(t) and u(t), so its field does
only the two matrix products.  A time that was not prepared (t0, the
starting-step probe, or every call when the hook is hidden behind a plain
``(t, y)`` wrapper) falls back to a one-row lookup.  The rows are
bit-equal to scalar queries: spline rows use the same elementwise Horner
arithmetic, and dense-output rows use the row contraction
``einsum("sdj,sj->sd")``, whose one-row case is the scalar query, rather
than the node-value contraction ``"sdj,js->sd"``, which may differ from it
in the last bit.  A driven sweep therefore reproduces the one-time-at-a-
time sweep exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NonFiniteDynamics, NonFiniteField
from .numerics import SplineCoeffs, spline_build
from .ocp import OcpProblem
from .rk45 import IntegratorOptions, SolutionPath, rk45_integrate


@dataclass(frozen=True)
class TimeGrid:
    """Uniform normalized grid with its physical image on [t0, tf]."""

    n_nodes: int
    t0: float
    tf: float
    sigma: np.ndarray = field(repr=False, default=None)
    times: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.n_nodes < 4:
            raise ValueError("need at least 4 grid nodes")
        if self.tf <= self.t0:
            raise ValueError("tf must exceed t0")
        sigma = np.linspace(0.0, 1.0, self.n_nodes)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "times", self.t0 + sigma * (self.tf - self.t0))

    def with_tf(self, tf: float) -> "TimeGrid":
        """Same sigma nodes, rescaled physical times."""
        return TimeGrid(self.n_nodes, self.t0, float(tf))


@dataclass
class ControlTrajectory:
    """Node controls on a grid plus their spline interpolant."""

    grid: TimeGrid
    values: np.ndarray          # (N, m)
    spline: SplineCoeffs

    @classmethod
    def from_values(cls, grid: TimeGrid, values) -> "ControlTrajectory":
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if values.shape[0] != grid.n_nodes:
            values = values.T
        if values.shape[0] != grid.n_nodes:
            raise ValueError("control values do not match the grid")
        return cls(grid, values, spline_build(grid.times, values))

    def eval(self, t):
        return self.spline.eval(t)


@dataclass
class StateTrajectory:
    """Node states plus a dense evaluator for off-node queries.

    ``_rows`` maps an array of times to (T, n) rows, each bit-equal to the
    scalar query at its time; a scalar ``eval`` is its one-row case.
    """

    grid: TimeGrid
    values: np.ndarray          # (N, n)
    _rows: object = None        # callable ts -> (T, n)

    @classmethod
    def from_path(cls, grid: TimeGrid, values, path: SolutionPath) -> "StateTrajectory":
        return cls(grid, np.asarray(values, dtype=float), path.rows)

    @classmethod
    def from_nodes(cls, grid: TimeGrid, values) -> "StateTrajectory":
        values = np.asarray(values, dtype=float)
        spline = spline_build(grid.times, values)
        return cls(grid, values, spline.eval)

    def rows(self, ts) -> np.ndarray:
        return self._rows(ts)

    def eval(self, t):
        if np.ndim(t) == 0:
            return self._rows([t])[0]
        return self._rows(t)


class DrivenField:
    """Inner-sweep field ``fn(t, y, row)`` fed by time-only rows.

    ``lookup(ts)`` returns one row per time, (T, k).  ``prepare`` looks up
    a step attempt's stage times at once; a call at any other time falls
    back to ``lookup(np.array([t]))[0]``.
    """

    def __init__(self, fn, lookup):
        self.fn = fn
        self.lookup = lookup
        self._rows = {}

    def prepare(self, ts) -> None:
        self._rows = dict(zip(ts.tolist(), self.lookup(ts)))

    def __call__(self, t, y):
        row = self._rows.get(t)
        if row is None:
            row = self.lookup(np.array([t], dtype=float))[0]
        return self.fn(t, y, row)


def state_control_rows(states: StateTrajectory, ctrl: ControlTrajectory):
    """Lookup of [x(t), u(t)] rows for a ``DrivenField``."""
    def lookup(ts):
        return np.concatenate([states.rows(ts), ctrl.eval(ts)], axis=1)
    return lookup


def propagate_states(problem: OcpProblem, ctrl: ControlTrajectory,
                     grid: TimeGrid, opts: Optional[IntegratorOptions] = None
                     ) -> StateTrajectory:
    """Integrate the dynamics under the spline-interpolated control.

    Runs from (t0, x0) to tf; node states are read from the dense output
    and the initial node is pinned to x0 exactly.
    """
    def field_fn(t, x, u):
        return problem.dynamics(x, u, t)

    try:
        path = rk45_integrate(DrivenField(field_fn, ctrl.eval), problem.x0,
                              (grid.t0, grid.tf), opts)
    except NonFiniteField as exc:
        raise NonFiniteDynamics(str(exc)) from exc
    values = path.eval(grid.times)
    values[0] = problem.x0
    return StateTrajectory.from_path(grid, values, path)


@dataclass
class TransitionStack:
    """Per-node Psi(t_i) = transposed transition matrix to the final time.

    ``psi[-1]`` is the identity exactly.  ``adjoint`` holds the backward
    cost-gradient vector integrated on the same sweep.  The originating
    trajectory data is kept so forward transition matrices can be built
    lazily.  They serve only the oracles - the quadrature gradient
    form and the backward-vs-forward consistency check; the solver
    itself, the coupled state rate included, reads ``psi``.
    """

    grid: TimeGrid
    psi: np.ndarray             # (N, n, n)
    adjoint: np.ndarray         # (N, n)
    problem: OcpProblem = field(repr=False, default=None)
    states: StateTrajectory = field(repr=False, default=None)
    ctrl: ControlTrajectory = field(repr=False, default=None)
    opts: IntegratorOptions = field(repr=False, default=None)
    _forward: Optional[np.ndarray] = field(repr=False, default=None)

    def forward_matrices(self) -> np.ndarray:
        """Transition matrices from t0 to every node, cached."""
        if self._forward is None:
            self._forward = _forward_stack(self.problem, self.states,
                                           self.ctrl, self.grid, self.opts)
        return self._forward


def transition_stack(problem: OcpProblem, states: StateTrajectory,
                     ctrl: ControlTrajectory,
                     opts: Optional[IntegratorOptions] = None) -> TransitionStack:
    """One backward sweep producing Psi at every node plus the adjoint.

    Each step attempt makes one ``jac_fx_rows`` and one ``grad_lx_rows``
    call for its six stage times; f_x is stored as given and transposed
    inside the field.
    """
    grid = states.grid
    n = problem.n
    nn = n * n
    x_end = states.values[-1]
    lam_end = np.asarray(problem.grad_phix(x_end, grid.tf), dtype=float)

    def lookup(ts):
        """Rows of [f_x(t) flattened, L_x(t)]: two row-form calls."""
        xs, us = states.rows(ts), ctrl.eval(ts)
        a = np.asarray(problem.jac_fx_rows(xs, us, ts), dtype=float)
        lx = np.asarray(problem.grad_lx_rows(xs, us, ts), dtype=float)
        return np.concatenate([a.reshape(len(ts), nn), lx], axis=1)

    def field_fn(t, z, row):
        at = row[:nn].reshape(n, n).T
        dpsi = -at @ z[:nn].reshape(n, n)
        dlam = -at @ z[nn:] - row[nn:]
        return np.concatenate([dpsi.ravel(), dlam])

    z0 = np.concatenate([np.eye(n).ravel(), lam_end])
    path = rk45_integrate(DrivenField(field_fn, lookup), z0,
                          (grid.tf, grid.t0), opts)
    z_nodes = path.eval(grid.times)
    psi = z_nodes[:, :nn].reshape(grid.n_nodes, n, n)
    adjoint = z_nodes[:, nn:]
    psi[-1] = np.eye(n)
    adjoint[-1] = lam_end
    return TransitionStack(grid, psi, adjoint, problem=problem, states=states,
                           ctrl=ctrl, opts=opts)


def _forward_stack(problem, states, ctrl, grid, opts) -> np.ndarray:
    n = problem.n

    def field_fn(t, z):
        phi = z.reshape(n, n)
        x = states.eval(t)
        u = ctrl.eval(t)
        a = np.asarray(problem.jac_fx(x, u, t), dtype=float)
        return (a @ phi).ravel()

    path = rk45_integrate(field_fn, np.eye(n).ravel(), (grid.t0, grid.tf), opts)
    mats = path.eval(grid.times).reshape(grid.n_nodes, n, n)
    mats[0] = np.eye(n)
    return mats
