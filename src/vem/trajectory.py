"""Time grids, state propagation, and transition-matrix stacks.

The solver works on a fixed normalized grid sigma in [0, 1]; physical
node times are an affine image of sigma, so a moving terminal time only
stretches the grid and never resamples node values.

Both evolution equations read the stack of matrices Psi(t_i) -- the
transposed state transition matrix from t_i to the terminal time -- and
the cost-gradient kernel lam, the adjoint of lam' = -f_x^T lam - L_x with
lam(tf) set to the terminal-cost gradient.  There are two routes to them.

``fused_sweep`` (control-only method) integrates the states alone, by
the same driven sweep as ``propagate_states``, and takes the forward
transition matrix Phi(t, t0) and C(t) = integral of Phi(s, t0)^T L_x
from the tangent of that run's accepted steps: one ``jac_fx_rows`` and
one ``grad_lx_rows`` call over the 6S+1 distinct points of its stage
record, then ``SolutionPath.linear_flow``.  Dormand-Prince applied to
[x, Phi, C] on the same steps gives the same Phi and C.  The running
cost is the b-weighted stage sum, formed only when asked for.  Psi and
lam follow algebraically at the nodes from one stacked inverse:

    Psi_i = Phi_i^{-T} Phi_N^T,    lam_i = Phi_i^{-T} (Phi_N^T lam_end + C_N - C_i).

The same inverse gives the 1-norm condition estimate of every Phi_i; a
sweep whose worst estimate exceeds ``COND_LIMIT`` (saddle-type dynamics,
whose forward transition matrices grow like exp(2|a|T)) raises
SingularSystem.

``transition_stack`` (coupled method, whose states are given node values,
and the oracles) works along given state and control trajectories.  Psi
and lam solve a linear ODE there, so no sequential sweep is needed: on
every grid interval at once, classic RK4 takes the augmented backward
system Y' = B(t) Y, B = [[-f_x^T, -L_x], [0, 0]], across the interval
from Y = I, and the running products of these propagators from the end
(``cumulative_products``, log-depth) give [[Psi_i, lam_i], [0, 1]] at
every node.  ``interval_stencil`` chooses the substep count by step
doubling under the ``IntegratorOptions`` tolerances; each round makes
one ``jac_fx_rows`` and one ``grad_lx_rows`` call over the sample times
it adds.  Intervals end at nodes, where the state and control splines
are joined, so RK4 keeps its order on every interval.  The coupled
snapshot's cost (``driver.path_cost``) is composite Simpson on the same
stencil.

The forward sweep is driven by a trajectory that does not depend on the
swept values: the control.  Its field is a ``DrivenField``, which takes
it as one row per time and uses the integrator's ``prepare`` hook to look
up all six stage times of a step attempt in one vectorised call.  A time
that was not prepared (t0, the starting-step probe, or every call when
the hook is hidden behind a plain ``(t, y)`` wrapper) falls back to a
one-row lookup.  The rows are bit-equal to scalar queries, since spline
rows use the same elementwise Horner arithmetic, so a driven sweep
reproduces the one-time-at-a-time sweep exactly.  The tangent pass looks
up the controls at all stage times in one ``ctrl.eval`` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NonFiniteDynamics, NonFiniteField, SingularSystem, StepFailure
from .numerics import COND_LIMIT, SplineCoeffs, cumulative_products, spline_build
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
    path: Optional[SolutionPath] = None     # the integration run, if any

    @classmethod
    def from_path(cls, grid: TimeGrid, values, path: SolutionPath) -> "StateTrajectory":
        return cls(grid, np.asarray(values, dtype=float), path.rows, path)

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


def propagate_states(problem: OcpProblem, ctrl: ControlTrajectory,
                     grid: TimeGrid, opts: Optional[IntegratorOptions] = None
                     ) -> StateTrajectory:
    """Integrate the dynamics under the spline-interpolated control.

    Runs from (t0, x0) to tf; node states are read from the dense output
    and the initial node is pinned to x0 exactly.  The returned
    trajectory keeps the run's path.
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


def fused_sweep(problem: OcpProblem, ctrl: ControlTrajectory, grid: TimeGrid,
                opts: Optional[IntegratorOptions] = None):
    """States, transition stack and performance index from one forward sweep.

    Integrates x alone (``propagate_states``), then takes Phi(t_i, t0) and
    C_i from the tangent of that run over its recorded stages, and Psi
    and the adjoint algebraically at the nodes (module docstring).
    Returns (StateTrajectory, TransitionStack, cost), where ``cost()``
    gives J including the terminal term; the running cost needs one point
    ``running_cost`` call per stage, so it is summed only when asked for.
    Raises NonFiniteDynamics on a non-finite field or f_x/L_x stage row
    and SingularSystem when a node's Phi is singular or its 1-norm
    condition estimate exceeds COND_LIMIT.
    """
    n = problem.n
    states = propagate_states(problem, ctrl, grid, opts)
    path = states.path
    ts, rows = path.stage_times(), path.stage_rows()
    us = ctrl.eval(ts)
    # Z = [[Phi, 0], [C^T, 1]] solves Z' = [[f_x, 0], [L_x^T, 0]] Z.
    mats = np.zeros((ts.size, n + 1, n + 1))
    mats[:, :n, :n] = problem.jac_fx_rows(rows, us, ts)
    mats[:, n, :n] = problem.grad_lx_rows(rows, us, ts)
    if not np.all(np.isfinite(mats)):
        raise NonFiniteDynamics("non-finite f_x or L_x rows at the sweep's stages")
    z = path.linear_flow(mats, grid.times)
    phi = z[:, :n, :n]
    c = z[:, n, :n]
    x_end = states.values[-1]
    try:
        inv = np.linalg.inv(phi)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("singular forward transition matrix") from exc
    cond = float(np.max(np.abs(phi).sum(axis=1).max(axis=1)
                        * np.abs(inv).sum(axis=1).max(axis=1)))
    if not cond <= COND_LIMIT:
        raise SingularSystem(f"forward transition matrix condition estimate "
                             f"{cond:.3e} exceeds {COND_LIMIT:.0e}")
    inv_t = np.swapaxes(inv, 1, 2)
    lam_end = np.asarray(problem.grad_phix(x_end, grid.tf), dtype=float)
    psi = inv_t @ phi[-1].T
    adjoint = (inv_t @ (phi[-1].T @ lam_end + c[-1] - c)[:, :, None])[:, :, 0]
    psi[-1] = np.eye(n)
    adjoint[-1] = lam_end
    stack = TransitionStack(grid, psi, adjoint, problem=problem, states=states,
                            ctrl=ctrl, opts=opts, _forward=phi)

    def cost() -> float:
        running = np.array([float(problem.running_cost(x, u, t))
                            for x, u, t in zip(rows, us, ts)])
        if not np.all(np.isfinite(running)):
            raise NonFiniteDynamics("non-finite running cost at the sweep's stages")
        return (float(problem.terminal_cost(x_end, grid.tf))
                + path.stage_integral(running))

    return states, stack, cost


@dataclass
class TransitionStack:
    """Per-node Psi(t_i) = transposed transition matrix to the final time.

    ``psi[-1]`` is the identity and ``adjoint[-1]`` the terminal-cost
    gradient, both exactly; ``adjoint`` holds lam at every node.  Forward
    transition matrices Phi(t_i, t0) serve only the oracles - the
    quadrature gradient form and the backward-vs-forward consistency
    check.  A fused sweep stores the ones its tangent pass formed; a
    backward stack keeps its trajectory data and builds them lazily by a
    separate sweep.
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
    """Psi at every node plus the adjoint, from per-interval RK4
    propagators of Y' = B Y and their running products from the end
    (module docstring).

    Psi_N = I and lam_N = lam_end hold exactly: the product starts from
    [[I, lam_end], [0, 1]].
    """
    grid = states.grid
    n = problem.n
    x_end = states.values[-1]
    lam_end = np.asarray(problem.grad_phix(x_end, grid.tf), dtype=float)

    def sample(ts):
        """B(t) at the given times: two row-form calls."""
        xs, us = states.rows(ts), ctrl.eval(ts)
        a = np.asarray(problem.jac_fx_rows(xs, us, ts), dtype=float)
        lx = np.asarray(problem.grad_lx_rows(xs, us, ts), dtype=float)
        b = np.zeros((len(ts), n + 1, n + 1))
        b[:, :n, :n] = -np.swapaxes(a, 1, 2)
        b[:, :n, n] = -lx
        return b

    def propagators(b, dt):
        """RK4 from each interval's right end to its left end, applied to
        the identity; ``b`` holds the stencil rows (N-1, 2s+1, n+1, n+1)."""
        s = (b.shape[1] - 1) // 2
        h = (-dt / s)[:, None, None]
        y = np.broadcast_to(np.eye(n + 1), b[:, 0].shape)
        for j in range(2 * s, 0, -2):
            b0, bm, b1 = b[:, j], b[:, j - 1], b[:, j - 2]
            k1 = b0 @ y
            k2 = bm @ (y + 0.5 * h * k1)
            k3 = bm @ (y + 0.5 * h * k2)
            k4 = b1 @ (y + h * k3)
            y = y + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        return y

    steps = interval_stencil(grid.times, sample, propagators, opts)
    end = np.eye(n + 1)
    end[:n, n] = lam_end
    # z_i = steps_i @ ... @ steps_{N-2} @ end: running products of the
    # reversed stack, read back in node order.
    z = cumulative_products(np.concatenate([end[None], steps[::-1]]))[::-1]
    return TransitionStack(grid, z[:, :n, :n], z[:, :n, n], problem=problem,
                           states=states, ctrl=ctrl, opts=opts)


def interval_stencil(times, sample, estimate,
                     opts: Optional[IntegratorOptions] = None) -> np.ndarray:
    """Per-interval results of a fourth-order rule, refined by step doubling.

    Every interval [t_i, t_i+1] is split into s equal substeps whose ends
    and midpoints are the sample times (ends exactly at the nodes).
    ``sample(ts)`` maps an array of times to one row each; ``estimate(rows,
    dt)`` maps the (N-1, 2s+1, ...) rows of the s-substep stencil and the
    interval widths to one result per interval.  Starting at s = 1, s
    doubles until |E_2s - E_s| / 15 <= atol + rtol |E_2s| holds for every
    entry (the Richardson estimate of a fourth-order rule), and E_2s is
    returned.  Each round samples only the times the finer stencil adds.

    Raises StepFailure when a stencil would need more than
    ``opts.max_steps`` substeps and NonFiniteField on non-finite rows.
    """
    opts = opts or IntegratorOptions()
    times = np.asarray(times, dtype=float)
    n_int = times.size - 1
    dt = np.diff(times)
    rows = None
    last = None
    s = 1
    while True:
        if s * n_int > opts.max_steps:
            raise StepFailure(f"interval stencil needs more than "
                              f"max_steps={opts.max_steps} substeps")
        # The finer stencil's even points are the coarser stencil's
        # points, so only its odd points are new.
        frac = np.arange(1, 2 * s, 2) / (2 * s)
        new = (times[:-1, None] + dt[:, None] * frac).ravel()
        if rows is None:
            new = np.append(np.column_stack([times[:-1], new]).ravel(),
                            times[-1])
        fresh = sample(new)
        if not np.all(np.isfinite(fresh)):
            raise NonFiniteField("non-finite rows on the interval stencil")
        if rows is None:
            rows = fresh
        else:
            merged = np.empty((2 * len(rows) - 1,) + rows.shape[1:])
            merged[0::2], merged[1::2] = rows, fresh
            rows = merged
        index = 2 * s * np.arange(n_int)[:, None] + np.arange(2 * s + 1)
        result = estimate(rows[index], dt)
        if last is not None:
            err = np.abs(result - last) / 15.0
            if np.all(err <= opts.atol + opts.rtol * np.abs(result)):
                return result
        last = result
        s *= 2


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
