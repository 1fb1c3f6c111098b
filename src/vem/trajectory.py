"""Time grids, state propagation, and transition-matrix stacks.

The solver works on a fixed normalized grid sigma in [0, 1]; physical
node times are an affine image of sigma, so a moving terminal time only
stretches the grid and never resamples node values.

Both evolution equations read the stack of matrices Psi(t_i) -- the
transposed state transition matrix from t_i to the terminal time -- and
the cost-gradient kernel lam, the adjoint of lam' = -f_x^T lam - L_x with
lam(tf) set to the terminal-cost gradient.  Both are the discrete adjoint
of per-interval maps: given each interval's step S_i, the one backward
product (``_backward``, log-depth ``cumulative_products``)

    [[Psi_i, lam_i], [0, 1]] = S_i S_i+1 ... S_N-2 [[I, lam_end], [0, 1]]

gives them at every node.  The two routes differ in where the steps come
from.

``shooting_nodes`` solves for the node states by multiple shooting: the
control-only method's states and the coupled method's starting states.
Each grid interval gets a classic-RK4 map F_i of s substeps, sampled at
the interval's stencil of ends and midpoints, and the node states solve
X_0 = x0, X_i+1 = F_i(X_i).  Newton on all intervals at once needs, per
pass, one batched RK4 sweep over every interval -- one ``dynamics_rows``
call per stage and one ``jac_fx_rows``/``grad_lx_rows`` call per substep
-- and its correction delta_i+1 = G_i delta_i + r_i is a linear
recurrence, read off log-depth running products.  Dynamics affine in x
converge after one correction.  The tangent of the maps in [x, running
cost] is the propagator T_i = [[G_i, 0], [c_i^T, 1]] of
Z' = [[f_x, 0], [L_x^T, 0]] Z.  ``fused_sweep`` (control-only method)
takes S_i = T_i^T = [[G_i^T, c_i], [0, 1]].  Psi_0 = Phi(tf, t0)^T, so
its 1-norm condition number guards the solve: past ``COND_LIMIT``
(saddle-type dynamics, whose transition matrices grow like exp(2|a|T))
it raises SingularSystem.  Off-node state rows are the cubic Hermite
interpolant of the node states and rates.

``transition_stack`` (coupled method, whose states are given node values,
and the oracles) works along given state and control trajectories.  Psi
and lam solve a linear ODE there, so no sequential sweep is needed: on
every grid interval at once, classic RK4 takes the augmented backward
system Y' = B(t) Y, B = [[-f_x^T, -L_x], [0, 0]], across the interval
from Y = I, and these propagators are the steps S_i.
``interval_stencil`` chooses the substep count by step doubling under
the ``IntegratorOptions`` tolerances; each round makes one
``jac_fx_rows`` and one ``grad_lx_rows`` call over the sample times it
adds.  Intervals end at nodes, where the state and control splines are
joined, so RK4 keeps its order on every interval.  A snapshot's cost
(``driver.path_cost``, either method) is composite Simpson on the same
stencil.

``propagate_states`` and ``_forward_stack`` (the forward transition
matrices Phi(t_i, t0)) are oracles: adaptive Dormand-Prince sweeps, which
the checks and tests hold the shooting solve and both stacks against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NonFiniteDynamics, NonFiniteField, SingularSystem, StepFailure
from .numerics import (COND_LIMIT, SplineCoeffs, cumulative_products,
                       hermite_build, spline_build)
from .ocp import OcpProblem
from .rk45 import IntegratorOptions, rk45_integrate

# Newton passes of the shooting solve before it falls back to composing
# the interval maps in sequence, and the residual, relative to the largest
# end-row entry (at least 1), at which it stops: rounding level, so the
# nodes it returns are the sequential composition's to rounding.  Affine
# dynamics reach about 4e-16 after one correction.
NEWTON_PASSES = 8
NEWTON_TOL = 1e-13

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

    def rows(self, ts) -> np.ndarray:
        return self._rows(ts)

    def eval(self, t):
        if np.ndim(t) == 0:
            return self._rows([t])[0]
        return self._rows(t)


def propagate_states(problem: OcpProblem, ctrl: ControlTrajectory,
                     grid: TimeGrid, opts: Optional[IntegratorOptions] = None
                     ) -> StateTrajectory:
    """Integrate the dynamics under the spline-interpolated control.

    Runs from (t0, x0) to tf; node states are read from the dense output
    and the initial node is pinned to x0 exactly.
    """
    def field_fn(t, x):
        return problem.dynamics(x, ctrl.eval(t), t)

    try:
        path = rk45_integrate(field_fn, problem.x0, (grid.t0, grid.tf), opts)
    except NonFiniteField as exc:
        raise NonFiniteDynamics(str(exc)) from exc
    values = path.eval(grid.times)
    values[0] = problem.x0
    return StateTrajectory(grid, values, path.rows)


def shooting_nodes(problem: OcpProblem, ctrl: ControlTrajectory,
                   grid: TimeGrid, opts: Optional[IntegratorOptions] = None):
    """Node states of the multiple-shooting solve and the tangents of its
    maps.

    The node states solve X_0 = x0, X_i+1 = F_i(X_i) for the classic-RK4
    maps F_i of s substeps across each grid interval (``_shoot``); X_0 is
    x0 exactly.  Starting at s = 1, s doubles until one plain 2s-substep
    pass from the solved nodes passes ``_refined`` against the s-substep
    maps.  Returns the nodes (N, n) and the tangents (N-1, n+1, n+1) of
    the maps in [x, running cost] at them.

    Raises StepFailure when the check pass would need more than
    ``opts.max_steps`` substeps and NonFiniteDynamics on non-finite
    dynamics or f_x/L_x rows.
    """
    opts = opts or IntegratorOptions()
    n_int = grid.n_nodes - 1
    nodes = np.tile(problem.x0, (grid.n_nodes, 1))
    s = 1
    while True:
        _check_budget(2 * s * n_int, opts)
        # The s-substep stencil is every other point of the 2s one.
        ts, us = _stencil(grid, ctrl, 2 * s)
        nodes, ends, tangents = _shoot(problem, ts[:, ::2], us[:, ::2], nodes)
        check, _ = _rk4_maps(problem, nodes[:-1], ts, us)
        if _refined(check, ends, opts):
            return nodes, tangents
        s *= 2


def fused_sweep(problem: OcpProblem, ctrl: ControlTrajectory, grid: TimeGrid,
                opts: Optional[IntegratorOptions] = None):
    """States and transition stack from one multiple-shooting solve.

    The node states and the maps' tangents come from ``shooting_nodes``;
    Psi and the adjoint are the backward running products of the
    transposed tangents (``_backward``).  Off-node state rows are the
    cubic Hermite interpolant of the node states and rates.  Returns
    (StateTrajectory, TransitionStack).

    Raises what ``shooting_nodes`` raises, and SingularSystem when
    Psi_0 = Phi(tf, t0)^T is singular or its 1-norm condition number
    exceeds COND_LIMIT.
    """
    nodes, tangents = shooting_nodes(problem, ctrl, grid, opts)
    lam_end = np.asarray(problem.grad_phix(nodes[-1], grid.tf), dtype=float)
    # T_i^T = [[G_i^T, c_i], [0, 1]].
    psi, adjoint = _backward(np.swapaxes(tangents, 1, 2), lam_end)
    cond = float(np.linalg.cond(psi[0], 1))
    if cond == np.inf:
        raise SingularSystem("singular forward transition matrix")
    if not cond <= COND_LIMIT:
        raise SingularSystem(f"forward transition matrix condition estimate "
                             f"{cond:.3e} exceeds {COND_LIMIT:.0e}")
    states = StateTrajectory(grid, nodes, _hermite_rows(problem, ctrl, grid, nodes))
    return states, TransitionStack(grid, psi, adjoint)


def _backward(steps, lam_end):
    """(psi, adjoint) at every node from the interval steps (N-1, n+1, n+1)
    taken from the end: [[Psi_i, lam_i], [0, 1]] = steps_i ... steps_N-2
    [[I, lam_end], [0, 1]], so Psi_N = I and lam_N = lam_end exactly."""
    n = len(lam_end)
    end = np.eye(n + 1)
    end[:n, n] = lam_end
    # Running products of the reversed stack, read back in node order.
    z = cumulative_products(np.concatenate([end[None], steps[::-1]]))[::-1]
    return z[:, :n, :n], z[:, :n, n]


def _check_budget(substeps: int, opts: IntegratorOptions) -> None:
    """The substep budget of a stencil pass: StepFailure past
    ``opts.max_steps``."""
    if substeps > opts.max_steps:
        raise StepFailure(f"interval stencil needs more than "
                          f"max_steps={opts.max_steps} substeps")


def _refined(fine, coarse, opts: IntegratorOptions) -> bool:
    """The step-doubling test of a fourth-order rule: the Richardson
    estimate |E_2s - E_s| / 15 <= atol + rtol |E_2s| in every entry."""
    return bool(np.all(np.abs(fine - coarse) / 15.0
                       <= opts.atol + opts.rtol * np.abs(fine)))


def _stencil(grid: TimeGrid, ctrl: ControlTrajectory, s: int):
    """Sample times (N-1, 2s+1) of s RK4 substeps per interval -- their
    ends and midpoints, with the ends exactly at the nodes -- and the
    controls there, (N-1, 2s+1, m), from one ``ctrl.eval``."""
    times = grid.times
    frac = np.arange(2 * s + 1) / (2 * s)
    ts = times[:-1, None] + np.diff(times)[:, None] * frac
    ts[:, -1] = times[1:]
    return ts, ctrl.eval(ts.ravel()).reshape(ts.shape + (-1,))


def _rk4_maps(problem: OcpProblem, starts, ts, us, tangent: bool = False):
    """Classic RK4 with s substeps across every interval at once, from the
    rows ``starts`` (K, n) on the stencil ``ts`` (K, 2s+1) and ``us``.

    Each stage is one ``dynamics_rows`` call over all K intervals.  Returns
    the end rows (K, n) and, with ``tangent``, each interval's propagator
    of Z' = [[f_x, 0], [L_x^T, 0]] Z, (K, n+1, n+1): the derivative of the
    RK4 map applied to [x, running cost], from one ``jac_fx_rows`` and one
    ``grad_lx_rows`` call per substep over its four stage inputs.
    """
    n = problem.n
    h = ((ts[:, -1] - ts[:, 0]) / ((ts.shape[1] - 1) // 2))[:, None]
    eye = np.eye(n + 1)
    x, g = starts, None

    def rate(xs, j):
        return np.asarray(problem.dynamics_rows(xs, us[:, j], ts[:, j]), dtype=float)

    for j in range(0, ts.shape[1] - 1, 2):
        k1 = rate(x, j)
        x2 = x + 0.5 * h * k1
        k2 = rate(x2, j + 1)
        x3 = x + 0.5 * h * k2
        k3 = rate(x3, j + 1)
        x4 = x + h * k3
        k4 = rate(x4, j + 2)
        if tangent:
            cols = [j, j + 1, j + 1, j + 2]
            xs = np.concatenate([x, x2, x3, x4])
            u_rows = us[:, cols].swapaxes(0, 1).reshape(len(xs), -1)
            t_rows = ts[:, cols].T.ravel()
            b = np.zeros((len(xs), n + 1, n + 1))
            b[:, :n, :n] = problem.jac_fx_rows(xs, u_rows, t_rows)
            b[:, n, :n] = problem.grad_lx_rows(xs, u_rows, t_rows)
            b = b.reshape(4, len(x), n + 1, n + 1)
            hh = h[:, :, None]
            m1 = b[0]
            m2 = b[1] @ (eye + 0.5 * hh * m1)
            m3 = b[2] @ (eye + 0.5 * hh * m2)
            m4 = b[3] @ (eye + hh * m3)
            step = eye + hh / 6.0 * (m1 + 2.0 * (m2 + m3) + m4)
            g = step if g is None else step @ g
        x = x + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
    return x, g


def _shoot(problem: OcpProblem, ts, us, nodes):
    """Node states X with X_0 = x0 and X_i+1 = F_i(X_i) for the RK4 maps
    on the stencil, with the maps' end rows F_i(X_i) and tangents from a
    last pass at X.

    Newton from ``nodes`` on r_i = F_i(X_i) - X_i+1 over all intervals at
    once: the correction solves delta_i+1 = G_i delta_i + r_i from
    delta_0 = 0, read off the running products of [[G_i, r_i], [0, 1]].
    It stops when max |r_i| is at rounding level.  Non-finite rows, or no
    convergence within NEWTON_PASSES passes, fall back to composing the
    same maps one interval at a time from x0, the solution Newton
    converges to.
    """
    n = problem.n
    nodes = nodes.copy()
    for _ in range(NEWTON_PASSES):
        ends, tangents = _rk4_maps(problem, nodes[:-1], ts, us, tangent=True)
        if not (np.all(np.isfinite(ends)) and np.all(np.isfinite(tangents))):
            break
        residual = ends - nodes[1:]
        if np.max(np.abs(residual)) <= NEWTON_TOL * max(1.0, np.max(np.abs(ends))):
            return nodes, ends, tangents
        steps = tangents.copy()
        steps[:, n, :n] = 0.0
        steps[:, :n, n] = residual
        nodes[1:] += cumulative_products(steps)[:, :n, n]
    for i in range(len(ts)):
        end, _ = _rk4_maps(problem, nodes[i:i + 1], ts[i:i + 1], us[i:i + 1])
        if not np.all(np.isfinite(end)):
            raise NonFiniteDynamics(f"field returned non-finite values near "
                                    f"t={ts[i, 0]}")
        nodes[i + 1] = end[0]
    ends, tangents = _rk4_maps(problem, nodes[:-1], ts, us, tangent=True)
    if not np.all(np.isfinite(tangents)):
        raise NonFiniteDynamics("non-finite f_x or L_x rows on the shooting stencil")
    return nodes, ends, tangents


def _hermite_rows(problem: OcpProblem, ctrl: ControlTrajectory, grid: TimeGrid,
                  nodes):
    """Rows of the cubic Hermite interpolant through the node states and
    the node rates f(x_i, u_i, t_i); the rates cost one ``dynamics_rows``
    call, made at the first query."""
    built = []

    def rows(ts):
        if not built:
            rates = problem.dynamics_rows(nodes, ctrl.values, grid.times)
            built.append(hermite_build(grid.times, nodes, rates))
        return built[0].eval(ts)

    return rows


@dataclass
class TransitionStack:
    """Per-node Psi(t_i) = transposed transition matrix to the final time,
    and the cost-gradient kernel lam at every node.

    ``psi[-1]`` is the identity and ``adjoint[-1]`` the terminal-cost
    gradient, both exactly.
    """

    grid: TimeGrid
    psi: np.ndarray             # (N, n, n)
    adjoint: np.ndarray         # (N, n)


def transition_stack(problem: OcpProblem, states: StateTrajectory,
                     ctrl: ControlTrajectory,
                     opts: Optional[IntegratorOptions] = None) -> TransitionStack:
    """Psi at every node plus the adjoint: per-interval RK4 propagators
    of Y' = B Y, taken from the end by ``_backward`` (module docstring)."""
    grid = states.grid
    n = problem.n
    lam_end = np.asarray(problem.grad_phix(states.values[-1], grid.tf), dtype=float)

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
    return TransitionStack(grid, *_backward(steps, lam_end))


def interval_stencil(times, sample, estimate,
                     opts: Optional[IntegratorOptions] = None) -> np.ndarray:
    """Per-interval results of a fourth-order rule, refined by step doubling.

    Every interval [t_i, t_i+1] is split into s equal substeps whose ends
    and midpoints are the sample times (ends exactly at the nodes).
    ``sample(ts)`` maps an array of times to one row each; ``estimate(rows,
    dt)`` maps the (N-1, 2s+1, ...) rows of the s-substep stencil and the
    interval widths to one result per interval.  Starting at s = 1, s
    doubles until E_2s passes ``_refined`` against E_s, and E_2s is
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
        _check_budget(s * n_int, opts)
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
        if last is not None and _refined(result, last, opts):
            return result
        last = result
        s *= 2


def _forward_stack(problem, states, ctrl, grid, opts) -> np.ndarray:
    """Oracle: Phi(t_i, t0) at every node, (N, n, n), from one adaptive
    Dormand-Prince run of Phi' = f_x Phi along the given trajectories."""
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
