"""Time grids, state propagation, and transition-matrix stacks.

The solver works on a fixed normalized grid sigma in [0, 1]; physical
node times are an affine image of sigma, so a moving terminal time only
stretches the grid and never resamples node values.

Both evolution equations read the stack of matrices Psi(t_i) -- the
transposed state transition matrix from t_i to the terminal time -- and
the cost-gradient kernel lam, the adjoint of lam' = -f_x^T lam - L_x with
lam(tf) set to the terminal-cost gradient.  Both are the discrete adjoint
of per-interval maps: given each interval's blocks g_i (n, n) and c_i,
the backward recurrence (``_backward``)

    Psi_i = g_i^T Psi_i+1,  lam_i = g_i^T lam_i+1 + c_i,
    Psi_N-1 = I,  lam_N-1 = lam_end

gives them at every node.  It is a unit block-bidiagonal triangular
system -- the condensing structure of multiple shooting -- so one LAPACK
banded triangular solve (``dtbtrs``, bandwidth 2n-1, in
``_bidiagonal_solve``) takes all n+1 columns [Psi | lam] at once, and
pins Psi_N-1 and lam_N-1 exactly.  The same banded system, solved
forward (z_0 = r_0, z_i+1 = g_i z_i + r_i+1), is the shooting solve's
Newton correction and the coupled method's node-state rate
(``second.state_rhs_second``), so ``TransitionStack`` keeps the blocks
g_i = Phi(t_i+1, t_i) next to Psi and lam.  The two routes differ in
where the blocks come from.

``shooting_nodes`` solves for the node states by multiple shooting: the
control-only method's states and the coupled method's starting states.
Each grid interval gets a classic-RK4 map F_i of s substeps, sampled at
the interval's stencil of ends and midpoints (whose controls are the
control spline's interval polynomials), and the node states solve
X_0 = x0, X_i+1 = F_i(X_i).  Newton on all intervals at once needs, per
pass, one batched RK4 sweep over every interval -- one ``dynamics_rows``
call per stage and one ``jac_fx_rows``/``grad_lx_rows`` call over all
4s stage inputs of every interval -- and its correction
delta_i+1 = G_i delta_i + r_i is the forward recurrence of the same
banded system, one more ``dtbtrs`` call.  Dynamics affine in x converge
after one correction.  The tangent of the maps in [x, running cost] is
the propagator T_i = [[G_i, 0], [c_i^T, 1]] of
Z' = [[f_x, 0], [L_x^T, 0]] Z; the tangents of a round are reused while
its width and f_x/L_x stage rows stay bit-equal, so dynamics whose
Jacobians do not depend on x assemble them once per solve.  The
step-doubling check of the s-substep maps against 2s-substep ones rides
along: each pass after a correction runs the first s of the 2s substeps
in the same stage calls, and the last s run once a pass confirms
convergence, so an affine problem at s = 1 makes 12 stage calls.
``fused_sweep`` (control-only method) takes g_i = G_i and c_i from T_i,
and the band of the G_i, built with them, serves its Newton corrections
and the backward solve.  Psi_0 = Phi(tf, t0)^T,
so its 1-norm condition number guards the solve: past ``COND_LIMIT``
(saddle-type dynamics, whose transition matrices grow like exp(2|a|T))
it raises SingularSystem.  Off-node state rows are the cubic Hermite interpolant of
the node states and rates.

``transition_stack`` (coupled method, whose states are given node values,
and the oracles) works along given state and control trajectories.  Psi
and lam solve a linear ODE there, so no sequential sweep is needed: on
every grid interval at once, classic RK4 takes the augmented backward
system Y' = B(t) Y, B = [[-f_x^T, -L_x], [0, 0]], across the interval
from Y = I, and each propagator [[g_i^T, c_i], [0, 1]] gives the blocks.
``interval_stencil`` chooses the substep count by step doubling under
the ``IntegratorOptions`` tolerances.  The first test always compares two
substeps with one, so the first round samples all five points per
interval of the 2-substep stencil in one call and the 1-substep estimate
reads their even points; each later round adds the odd points of the
next finer stencil.  Each round makes one ``jac_fx_rows`` and one
``grad_lx_rows`` call over the times it adds.  Both RK4 propagators --
these and the shooting tangents -- take their steps by one
``_rk4_linear_step``, and a first substep from Y = I has B as its first
stage, without a product.  Intervals end at nodes, where the state and
control splines are joined, so RK4 keeps its order on every interval.  A
snapshot's cost (``driver.path_cost``, either method) is composite
Simpson on the same stencil.

Every stencil -- the shooting solve's and each ``interval_stencil``
round -- is laid out per interval, (N-1, K) for the fractions (K,) of
every interval it samples: ``stencil_times`` forms the times from the
grid's widths (``TimeGrid.widths``), with the right ends pinned to the
nodes, so a node shared by two intervals is sampled for each.  The
control splines are read at the same points -- the shooting stencil's
too -- with ``SplineCoeffs.at_fractions`` (Horner on each interval's
coefficients, no interval search), bit for bit what a query at those
times returns.  ``path_rows`` flattens a round's rows to (T, .) for the
row callbacks, and a sampler hands its rows back as (N-1, K, ...)
blocks.  A coupled snapshot's state and control splines are column views
of one joint spline, which both trajectories carry, so ``path_rows``
reads it once per round for both; other states (the shooting solve's
Hermite interpolant, the oracles' dense output), read only at snapshots
and in the oracles, answer a query at the flat times.  A grid also
carries its trapezoid weights (``TimeGrid.weights``, the unit grid's,
kept per node count, times the width), which the multiplier sums read.

What a solve keeps for the next is one store, ``KeptBlocks``, one per
evolution system (a direct call of ``fused_sweep``, ``shooting_nodes`` or
``transition_stack`` keeps nothing past the call): ``get(slot, key,
build)`` returns the value kept under a slot while every array of its key
has the bits it was built from, and otherwise keeps ``build()``'s once it
returns.  Its slots hold each shooting round's tangents with their band
(keyed on the substep width and the f_x/L_x rows); each stencil round's
propagators (on the grid widths and the round's rows); the last stack
with its band (on the array its blocks were read from and lam_end -- in
``fused_sweep`` kept only once Psi_0 passed its condition guard); and
the driver's last evaluation (on the tau-vector).  Every kept value is
a pure function of its key, so output is the same as with fresh builds,
and a problem whose f_x/L_x rows never move on a fixed horizon (the
double integrator) builds each once for a whole tau run.  A moving
horizon changes the widths and rebuilds the rounds; the stack is rebuilt
too unless its blocks come out bit for bit the same, as on a horizon
where f_x = L_x = 0 and every tangent is the identity at any width.

``propagate_states`` and ``_forward_stack`` (the forward transition
matrices Phi(t_i, t0)) are oracles: adaptive Dormand-Prince sweeps, which
the checks and tests hold the shooting solve and both stacks against.
The banded recurrences are held against log-depth running matrix
products (``checks.cumulative_products``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, lru_cache, reduce
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dtbtrs

from .errors import NonFiniteDynamics, NonFiniteField, SingularSystem, StepFailure
from .numerics import (COND_LIMIT, SplineCoeffs, _one_norm_cond, hermite_build,
                       spline_build)
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
    """Uniform normalized grid with its physical image on [t0, tf], the
    physical interval widths (read-only, ``np.diff(times)`` bit for bit)
    and the composite-trapezoid weights of the physical nodes."""

    n_nodes: int
    t0: float
    tf: float
    # Derived from the three fields above, so equality and hashing read
    # those alone.
    sigma: np.ndarray = field(init=False, repr=False, compare=False)
    times: np.ndarray = field(init=False, repr=False, compare=False)
    widths: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_nodes < 4:
            raise ValueError("need at least 4 grid nodes")
        if self.tf <= self.t0:
            raise ValueError("tf must exceed t0")
        sigma, unit_weights = _unit_grid(self.n_nodes)
        width = self.tf - self.t0
        times = self.t0 + sigma * width
        # np.diff's arithmetic.
        widths = times[1:] - times[:-1]
        widths.flags.writeable = False
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "weights", width * unit_weights)


@lru_cache(maxsize=8)
def _unit_grid(n_nodes: int):
    """The normalized nodes on [0, 1] and their trapezoid weights;
    read-only."""
    sigma = np.linspace(0.0, 1.0, n_nodes)
    half = 0.5 * np.diff(sigma)
    weights = np.zeros(n_nodes)
    weights[:-1] += half
    weights[1:] += half
    for arr in (sigma, weights):
        arr.flags.writeable = False
    return sigma, weights


@dataclass
class ControlTrajectory:
    """Node controls on a grid plus their spline interpolant; ``joint`` is
    the spline over [states | controls] whose last m columns are
    ``spline``, when the controls belong to a coupled snapshot."""

    grid: TimeGrid
    values: np.ndarray          # (N, m)
    spline: SplineCoeffs
    joint: Optional[SplineCoeffs] = None

    @classmethod
    def from_values(cls, grid: TimeGrid, values) -> "ControlTrajectory":
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] != grid.n_nodes:
            raise ValueError(f"control values must have shape ({grid.n_nodes}, m), "
                             f"got {values.shape}")
        return cls(grid, values, spline_build(grid.times, values))

    def eval(self, t):
        return self.spline.eval(t)


@dataclass
class StateTrajectory:
    """Node states plus a dense evaluator for off-node queries.

    ``_spline`` returns the dense reader of the states: a spline through
    the node states (the coupled snapshot's cubic, or the shooting solve's
    Hermite interpolant, built at the first query), or the oracles'
    ``SolutionPath``.  ``eval`` hands a scalar time or an array of times
    to that reader's ``eval``, whose row at a time is bit-equal to its
    scalar query there.  A coupled snapshot's states also carry its
    ``joint`` spline, whose first n columns ``_spline`` returns.
    """

    grid: TimeGrid
    values: np.ndarray          # (N, n)
    _spline: object = None      # callable () -> SplineCoeffs or SolutionPath
    joint: Optional[SplineCoeffs] = None

    def eval(self, t):
        return self._spline().eval(t)


def stencil_times(grid: TimeGrid, frac) -> np.ndarray:
    """The times (N-1, K) at the fractions ``frac`` (K,) of every grid
    interval, t_i + (t_i+1 - t_i) frac_k from ``grid.widths``; a last
    fraction of exactly 1 is pinned to the next node.  These are bit for
    bit the times ``SplineCoeffs.at_fractions`` reads a spline on the
    grid's nodes at."""
    ts = grid.times[:-1, None] + grid.widths[:, None] * frac
    if frac[-1] == 1.0:
        ts[:, -1] = grid.times[1:]
    return ts


def path_rows(states: StateTrajectory, ctrl: ControlTrajectory, ts, frac):
    """The row-callback arguments (xs, us, ts) -- (T, n), (T, m), (T,) --
    at the stencil times ``ts`` (N-1, K) of fractions ``frac``, flattened
    interval by interval.  Trajectories that are column views of one joint
    spline (a coupled snapshot's) take one ``at_fractions`` read of it;
    otherwise the controls read their spline's and the states ``eval``
    at the flat times."""
    flat = ts.ravel()
    joint = ctrl.joint
    if joint is not None and states.joint is joint:
        rows = joint.at_fractions(frac).reshape(flat.size, -1)
        n = states.values.shape[1]
        return rows[:, :n], rows[:, n:], flat
    return states.eval(flat), ctrl.spline.at_fractions(frac).reshape(flat.size, -1), flat


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
    return StateTrajectory(grid, values, lambda: path)


def shooting_nodes(problem: OcpProblem, ctrl: ControlTrajectory,
                   grid: TimeGrid, opts: Optional[IntegratorOptions] = None,
                   kept: Optional[KeptBlocks] = None):
    """Node states of the multiple-shooting solve and the tangents of its
    maps.

    The node states solve X_0 = x0, X_i+1 = F_i(X_i) for the classic-RK4
    maps F_i of s substeps across each grid interval (``_shoot``); X_0 is
    x0 exactly.  Starting at s = 1, s doubles until the 2s-substep maps
    from the solved nodes pass ``_refined`` against the s-substep maps.
    Returns the nodes (N, n), the tangents (N-1, n+1, n+1, read-only) of
    the maps in [x, running cost] at them and the ``_band`` of their
    blocks G_i; the tangents are ``kept``'s, fresh ones without it.

    Raises StepFailure when the check would need more than
    ``opts.max_steps`` substeps and NonFiniteDynamics on non-finite
    dynamics or f_x/L_x rows.
    """
    opts = opts or IntegratorOptions()
    kept = kept or KeptBlocks()
    n_int = grid.n_nodes - 1
    nodes = problem.x0[None].repeat(grid.n_nodes, axis=0)
    s = 1
    while True:
        _check_budget(2 * s * n_int, opts)
        # The 2s-substep stencil: ends and midpoints, ends at the nodes.
        frac = np.arange(4 * s + 1) / (4 * s)
        nodes, ends, chain, band, check = _shoot(
            problem, stencil_times(grid, frac), ctrl.spline.at_fractions(frac),
            nodes, kept)
        if _refined(check, ends, opts):
            return nodes, chain, band
        s *= 2


def fused_sweep(problem: OcpProblem, ctrl: ControlTrajectory, grid: TimeGrid,
                opts: Optional[IntegratorOptions] = None,
                kept: Optional[KeptBlocks] = None):
    """States and transition stack from one multiple-shooting solve.

    The node states and the maps' tangents come from ``shooting_nodes``;
    Psi and the adjoint are the backward recurrence of the tangents
    (``_backward``).  Off-node state rows are the cubic Hermite
    interpolant of the node states and rates.  Returns
    (StateTrajectory, TransitionStack).  With ``kept`` the tangents
    and the stack are ``kept``'s while their keys repeat; without it all
    are built afresh.

    Raises what ``shooting_nodes`` raises, and SingularSystem when
    Psi_0 = Phi(tf, t0)^T is singular or its 1-norm condition number
    exceeds COND_LIMIT.
    """
    kept = kept or KeptBlocks()
    nodes, tangents, band = shooting_nodes(problem, ctrl, grid, opts, kept)
    lam_end = np.asarray(problem.grad_phix(nodes[-1], grid.tf), dtype=float)

    def guarded():
        n = problem.n
        # T_i = [[G_i, 0], [c_i^T, 1]], whose G_i's band the shooting solve
        # built along with them.
        stack = _backward(tangents[:, :n, :n], tangents[:, n, :n], lam_end, band)
        cond = float(_one_norm_cond(stack.psi[0]))
        if cond == np.inf:
            raise SingularSystem("singular forward transition matrix")
        if not cond <= COND_LIMIT:
            raise SingularSystem(f"forward transition matrix condition estimate "
                                 f"{cond:.3e} exceeds {COND_LIMIT:.0e}")
        return stack

    # A stack is kept only once it passed the guard, so a kept one needs
    # none.
    stack = kept.get("stack", (tangents, lam_end), guarded)
    states = StateTrajectory(grid, nodes, _hermite_spline(problem, ctrl, grid, nodes))
    return states, stack


@lru_cache(maxsize=8)
def _band_index(blocks: int, n: int) -> np.ndarray:
    """Flat positions of the entries of the sub-diagonal blocks of
    ``_bidiagonal_solve``'s matrix in its band array; read-only."""
    i = np.arange(blocks - 1)[:, None, None]
    a = np.arange(n)[:, None]
    b = np.arange(n)
    # Block row i+1, block column i: entry (a, b) is matrix entry
    # ((i+1) n + a, i n + b), band row n + a - b of column i n + b.
    index = (i * n + b) * (2 * n) + n + a - b
    index.flags.writeable = False
    return index


def _band(g) -> np.ndarray:
    """The band storage (2n, N n) of ``_bidiagonal_solve``'s matrix for the
    blocks g (N-1, n, n), read-only: the unit diagonal is not stored."""
    blocks, n = len(g) + 1, g.shape[1]
    band = np.zeros(blocks * n * 2 * n)
    band[_band_index(blocks, n)] = -g
    # The row-major (N n, 2n) array is the column-major band storage
    # (2n, N n) LAPACK reads.
    band = band.reshape(blocks * n, 2 * n).T
    band.flags.writeable = False
    return band


def _bidiagonal_solve(band, rhs, trans: str):
    """Solve L z = rhs (``trans`` "N") or L^T z = rhs ("T") for the unit
    block lower bidiagonal L with blocks -g_i (N-1, n, n) below the
    diagonal, given as their ``_band``; rhs is (N n, k).  L z = r is the
    forward recurrence z_0 = r_0, z_i+1 = g_i z_i + r_i+1, and L^T z = r
    the backward one z_N-1 = r_N-1, z_i = g_i^T z_i+1 + r_i.  One LAPACK
    banded triangular solve (``dtbtrs``, bandwidth 2n-1), whose
    substitution makes the first (forward) or last (backward) block
    exactly its right-hand side."""
    z, info = dtbtrs(band, rhs, uplo="L", trans=trans, diag="U")
    if info:
        raise ValueError(f"dtbtrs rejected argument {-info}")
    return z


def _backward(g, c, lam_end, band) -> TransitionStack:
    """The stack of Psi and the adjoint at every node from the interval
    blocks g (N-1, n, n), their ``band`` and c (N-1, n), taken from the
    end: Psi_i = g_i^T Psi_i+1 and lam_i = g_i^T lam_i+1 + c_i, with
    Psi_N = I and lam_N = lam_end exactly; one banded solve for all n+1
    columns [Psi | lam].  The stack keeps the blocks g and their band, and
    its arrays are read-only."""
    blocks, n = len(g) + 1, len(lam_end)
    rhs = np.zeros((blocks, n, n + 1))
    rhs[:-1, :, n] = c
    rhs[-1, :, :n] = np.eye(n)
    rhs[-1, :, n] = lam_end
    z = _bidiagonal_solve(band, rhs.reshape(blocks * n, n + 1), "T")
    z = z.reshape(blocks, n, n + 1)
    z.flags.writeable = False
    return TransitionStack(z[:, :, :n], z[:, :, n], g, band)


def _check_budget(substeps: int, opts: IntegratorOptions) -> None:
    """The substep budget of a stencil pass: StepFailure past
    ``opts.max_steps``."""
    if substeps > opts.max_steps:
        raise StepFailure(f"interval stencil needs more than "
                          f"max_steps={opts.max_steps} substeps")


def _refined(fine, coarse, opts: IntegratorOptions) -> bool:
    """The step-doubling test of a fourth-order rule: the Richardson
    estimate |E_2s - E_s| / 15 <= atol + rtol |E_2s| in every entry."""
    return bool((np.abs(fine - coarse) / 15.0
                 <= opts.atol + opts.rtol * np.abs(fine)).all())


def _rk4_maps(problem: OcpProblem, starts, ts, us, h):
    """Classic RK4 with s substeps of width ``h`` ((K, 1) or (K, n))
    across every row's interval at once, from the rows ``starts`` (K, n)
    on the stencil ``ts`` (K, 2s+1) and ``us``.

    Each stage is one ``dynamics_rows`` call over all K rows.  Returns the
    end rows (K, n) and, per substep, its four stage inputs.  The half and
    sixth step factors are formed once per call, and stages 2 and 3 read
    one slice of the substep's midpoint column.
    """
    x, stages = starts, []
    half, sixth = 0.5 * h, h / 6.0
    rows = problem.dynamics_rows

    def rate(xs, u, t):
        return np.asarray(rows(xs, u, t), dtype=float)

    for j in range(0, ts.shape[1] - 1, 2):
        um, tm = us[:, j + 1], ts[:, j + 1]
        k1 = rate(x, us[:, j], ts[:, j])
        x2 = x + half * k1
        k2 = rate(x2, um, tm)
        x3 = x + half * k2
        k3 = rate(x3, um, tm)
        x4 = x + h * k3
        k4 = rate(x4, us[:, j + 2], ts[:, j + 2])
        stages.append((x, x2, x3, x4))
        x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
    return x, stages


def _tangent_chain(fx, lx, h):
    """The s-substep RK4 propagators of Z' = [[f_x, 0], [L_x^T, 0]] Z
    across every interval, (K, n+1, n+1) read-only, and the ``_band`` of
    their blocks G_i, from the f_x (4sK, n, n) and L_x (4sK, n) rows at
    the substeps' stage inputs, ordered by stage, substep, interval; all s
    substep propagators are one batched ``_rk4_linear_step``."""
    k, n = len(h), fx.shape[1]
    b = np.zeros((len(fx), n + 1, n + 1))
    b[:, :n, :n] = fx
    b[:, n, :n] = lx
    # From Z = I a substep's first stage is B itself.
    steps = _rk4_linear_step(np.eye(n + 1), *b.reshape(4, -1, k, n + 1, n + 1),
                             h[:, :, None])
    chain = reduce(lambda chain, step: step @ chain, steps)
    chain.flags.writeable = False
    return chain, _band(chain[:, :n, :n])


def _same(a, b) -> bool:
    """Whether float arrays a and b hold the same bits, so -0.0 differs
    from 0.0 and a NaN matches its own bits: same shape and the same
    bytes."""
    return a is b or (a.shape == b.shape and a.tobytes() == b.tobytes())


def _tangents(problem: OcpProblem, rows, h, stages, kept: KeptBlocks):
    """The tangents (K, n+1, n+1), read-only, of the s-substep RK4 maps
    with substep width ``h`` (K, 1), and the ``_band`` of their blocks
    G_i: each tangent is the interval's propagator of
    Z' = [[f_x, 0], [L_x^T, 0]] Z, the derivative of its map applied to
    [x, running cost], from the per-substep stage inputs ``stages`` of
    ``_rk4_maps`` (only the first K rows of each are read) and their
    controls and times ``rows`` (4sK, m) and (4sK,), ordered by stage,
    substep, interval.

    One ``jac_fx_rows`` and one ``grad_lx_rows`` call over all 4sK stage
    inputs.  The tangents (``_tangent_chain``) are ``kept``'s under
    ``("tangents", s)`` while the width and the rows repeat, so dynamics
    whose f_x and L_x do not depend on x assemble them once per solve, and
    once for all solves on one horizon when they do not depend on u either.
    """
    k, s = len(h), len(stages)
    xs = np.concatenate([stage[i][:k] for i in range(4) for stage in stages])
    fx = np.asarray(problem.jac_fx_rows(xs, *rows), dtype=float)
    lx = np.asarray(problem.grad_lx_rows(xs, *rows), dtype=float)
    return kept.get(("tangents", s), (h, fx, lx), lambda: _tangent_chain(fx, lx, h))


def _shoot(problem: OcpProblem, ts, us, nodes, kept: KeptBlocks):
    """Node states X with X_0 = x0 and X_i+1 = F_i(X_i) for the s-substep
    RK4 maps on every other point of the 2s-substep stencil ``ts``,
    ``us``.  Returns X, the maps' end rows F_i(X_i), tangents and their
    band (``_tangents``) from a last pass at X, and the end rows of the
    2s-substep maps from X, which ``shooting_nodes`` checks F_i against.

    Newton from ``nodes`` on r_i = F_i(X_i) - X_i+1 over all intervals at
    once: the correction solves delta_i+1 = G_i delta_i + r_i from
    delta_0 = 0 by one banded solve (``_bidiagonal_solve``) against the
    tangents' band.  It stops
    when max |r_i| is at rounding level.  Each pass after a correction
    runs the first s substeps of the 2s-substep maps in the same stage
    calls, and the last s run once a pass confirms convergence.
    Non-finite rows, or no convergence within NEWTON_PASSES passes, fall
    back to composing the same maps one interval at a time from x0, the
    solution Newton converges to.
    """
    n, k = problem.n, len(ts)
    s = (ts.shape[1] - 1) // 4
    dt = (ts[:, -1] - ts[:, 0])[:, None]
    # The maps take their substep widths spread over the n state columns,
    # so each RK4 product runs over contiguous rows; the tangents take
    # them as (K, 1).
    wide = dt.repeat(n, axis=1)
    coarse = (ts[:, ::2], us[:, ::2], wide / s)
    # The 2s-substep maps' first and last s substeps.
    first = (ts[:, :2 * s + 1], us[:, :2 * s + 1], wide / (2 * s))
    last = (ts[:, 2 * s:], us[:, 2 * s:], first[2])
    stacked = tuple(np.concatenate(pair) for pair in zip(coarse, first))
    # The stage inputs' controls and times for the Jacobian rows, the same
    # every pass: stage i of substep j reads coarse column 2j + (0, 1, 1, 2)[i].
    cols = (2 * np.arange(s) + np.array([[0], [1], [1], [2]])).ravel()
    h = dt / s
    rows = (coarse[1][:, cols].swapaxes(0, 1).reshape(cols.size * k, -1),
            coarse[0][:, cols].T.ravel())
    nodes = nodes.copy()
    # The correction's right-hand side [0, r_0, ..., r_N-2]: the residual
    # rows are written into it in place, below a zero first block.
    rhs = np.zeros(((k + 1) * n, 1))
    residual = rhs[n:].reshape(k, n)

    def sweep(with_check: bool):
        """(ends, midpoint rows of the 2s-substep maps or None, tangents,
        band) at the current nodes."""
        if not with_check:
            ends, stages = _rk4_maps(problem, nodes[:-1], *coarse)
            return ends, None, *_tangents(problem, rows, h, stages, kept)
        both, stages = _rk4_maps(problem, np.concatenate([nodes[:-1]] * 2),
                                 *stacked)
        return both[:k], both[k:], *_tangents(problem, rows, h, stages, kept)

    def solved(ends, mid, tangents, band):
        if mid is None:
            mid, _ = _rk4_maps(problem, nodes[:-1], *first)
        return nodes, ends, tangents, band, _rk4_maps(problem, mid, *last)[0]

    for p in range(NEWTON_PASSES):
        ends, mid, tangents, band = sweep(p > 0)
        # max |F_i| is finite exactly when every end row is.
        top = np.abs(ends).max()
        if not (np.isfinite(top) and np.isfinite(tangents).all()):
            break
        np.subtract(ends, nodes[1:], out=residual)
        if np.abs(residual).max() <= NEWTON_TOL * max(1.0, top):
            return solved(ends, mid, tangents, band)
        nodes[1:] += _bidiagonal_solve(band, rhs, "N").reshape(-1, n)[1:]
    for i in range(k):
        end, _ = _rk4_maps(problem, nodes[i:i + 1], *(a[i:i + 1] for a in coarse))
        if not np.isfinite(end).all():
            raise NonFiniteDynamics(f"field returned non-finite values near "
                                    f"t={ts[i, 0]}")
        nodes[i + 1] = end[0]
    ends, mid, tangents, band = sweep(True)
    if not np.isfinite(tangents).all():
        raise NonFiniteDynamics("non-finite f_x or L_x rows on the shooting stencil")
    return solved(ends, mid, tangents, band)


def _hermite_spline(problem: OcpProblem, ctrl: ControlTrajectory,
                    grid: TimeGrid, nodes):
    """The cubic Hermite interpolant through the node states and the node
    rates f(x_i, u_i, t_i), as a callable that builds it at its first call;
    the rates cost one ``dynamics_rows`` call."""
    @cache
    def spline():
        rates = problem.dynamics_rows(nodes, ctrl.values, grid.times)
        return hermite_build(grid.times, nodes, rates)

    return spline


@dataclass
class TransitionStack:
    """Per-node Psi(t_i) = transposed transition matrix to the final time,
    the cost-gradient kernel lam at every node, and the interval blocks
    g_i = Phi(t_i+1, t_i) of the recurrence that gave them.

    ``psi[-1]`` is the identity and ``adjoint[-1]`` the terminal-cost
    gradient, both exactly.
    """

    psi: np.ndarray             # (N, n, n)
    adjoint: np.ndarray         # (N, n)
    blocks: np.ndarray          # (N-1, n, n)
    band: np.ndarray            # the blocks' ``_band``


class KeptBlocks:
    """What one evolution system keeps from one evaluation for the next:
    per slot, the last value built and the key it was built from.  The
    slots are

    - ``("tangents", s)``: the shooting solve's s-substep tangents and
      the ``_band`` of their blocks G_i, keyed on the substep width h and
      the f_x/L_x rows;
    - ``("round", s)``: the ``interval_stencil`` estimates on the
      s-substep stencil, keyed on the grid widths and the stencil's rows;
    - ``"stack"``: the ``TransitionStack``, keyed on the array its blocks
      were read from and lam_end, kept by ``fused_sweep`` only once its
      condition guard passed;
    - ``"evaluation"``: the driver's pipeline, keyed on the tau-vector.

    Every kept value is a pure function of its key, so an evaluation gives
    the same bits with these as with fresh ones.  A system runs one
    method, so the ``"stack"`` slot sees one kind of source.  A slot keeps
    its value until it is rebuilt, so what a system holds is bounded by
    the finest shooting and stencil rounds any of its evaluations reached,
    not by its last evaluation's.
    """

    def __init__(self):
        self._slots = {}

    def get(self, slot, key, build):
        """The value kept under ``slot`` while every array of ``key`` has
        the bits it was built from (``_same``); else ``build()``'s, kept
        once it returns, so a ``build`` that raises keeps nothing.  The
        key's arrays are held, not copied: the caller does not change
        them."""
        kept = self._slots.get(slot)
        if not (kept and len(key) == len(kept[0])
                and all(map(_same, key, kept[0]))):
            kept = self._slots[slot] = (key, build())
        return kept[1]


def transition_stack(problem: OcpProblem, states: StateTrajectory,
                     ctrl: ControlTrajectory,
                     opts: Optional[IntegratorOptions] = None,
                     kept: Optional[KeptBlocks] = None) -> TransitionStack:
    """Psi at every node plus the adjoint: per-interval RK4 propagators
    of Y' = B Y (``_propagators``), taken from the end by ``_backward``
    (module docstring).  With ``kept`` the propagators and the stack are
    ``kept``'s while their keys repeat; without it both are built
    afresh."""
    kept = kept or KeptBlocks()
    grid = states.grid
    lam_end = np.asarray(problem.grad_phix(states.values[-1], grid.tf), dtype=float)
    steps = interval_stencil(grid, _backward_field(problem, states, ctrl),
                             _propagators, opts, kept)
    n = problem.n
    g = np.swapaxes(steps[:, :n, :n], 1, 2)
    # S_i = [[g_i^T, c_i], [0, 1]].
    return kept.get("stack", (steps, lam_end), lambda: _backward(
        g, steps[:, :n, n], lam_end, _band(g)))


def _backward_field(problem: OcpProblem, states: StateTrajectory,
                    ctrl: ControlTrajectory):
    """The sampler of B(t) = [[-f_x^T, -L_x], [0, 0]] along the given
    trajectories for ``interval_stencil``: one ``path_rows`` read and two
    row-form calls per round."""
    n = problem.n

    def sample(ts, frac):
        rows = path_rows(states, ctrl, ts, frac)
        a = np.asarray(problem.jac_fx_rows(*rows), dtype=float)
        lx = np.asarray(problem.grad_lx_rows(*rows), dtype=float)
        b = np.zeros((ts.size, n + 1, n + 1))
        b[:, :n, :n] = -np.swapaxes(a, 1, 2)
        b[:, :n, n] = -lx
        return b.reshape(ts.shape + b.shape[1:])

    return sample


def _propagators(b, dt):
    """RK4 from each interval's right end to its left end, applied to the
    identity; ``b`` holds the stencil rows (N-1, 2s+1, n+1, n+1).  The
    first substep starts from Y = I, where k1 is B at the right end."""
    s = (b.shape[1] - 1) // 2
    h = (-dt / s)[:, None, None]
    y = _rk4_linear_step(np.eye(b.shape[2]), b[:, -1], b[:, -2], b[:, -2], b[:, -3], h)
    for j in range(2 * s - 2, 0, -2):
        y = _rk4_linear_step(y, b[:, j] @ y, b[:, j - 1], b[:, j - 1], b[:, j - 2], h)
    return y


def _rk4_linear_step(y, k1, b2, b3, b4, h):
    """One classic-RK4 step of Y' = B Y from Y, given its first stage
    k1 = B Y and the matrices B of stages 2, 3 and 4 (at a midpoint, the
    midpoint again and the step's end, for a fixed linear field)."""
    k2 = b2 @ (y + 0.5 * h * k1)
    k3 = b3 @ (y + 0.5 * h * k2)
    k4 = b4 @ (y + h * k3)
    return y + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)


def interval_stencil(grid: TimeGrid, sample, estimate,
                     opts: Optional[IntegratorOptions] = None,
                     kept: Optional[KeptBlocks] = None) -> np.ndarray:
    """Per-interval results of a fourth-order rule, refined by step doubling.

    Every interval [t_i, t_i+1] is split into s equal substeps whose ends
    and midpoints are the sample times (ends exactly at the nodes).  Each
    round samples the points at the fractions ``frac`` of every interval:
    ``sample(ts, frac)`` maps their times (N-1, K) (``stencil_times``) to
    rows (N-1, K, ...), so a spline's rows there are its ``at_fractions``
    reader, and a coupled snapshot's state and control rows are one read
    of its joint spline (``path_rows``).  ``estimate(rows, dt)`` maps the
    (N-1, 2s+1, ...) rows of the s-substep stencil and the interval widths
    (``grid.widths``) to one result per interval.  The first test always
    compares E_2 with E_1, so the first round samples every point of the
    2-substep stencil, fractions 0, 1/4, 1/2, 3/4 and 1, in one call, and
    reads E_1 from its even points and E_2 from all of them; each later
    round samples only the odd points of the next finer stencil, and
    merges them between the rows it has.  s doubles until E_2s passes
    ``_refined`` against E_s, and E_2s is returned, read-only.  A round's
    estimates are ``kept``'s while the widths and the stencil's rows
    repeat (one store per ``estimate``); without it all are computed.

    Raises StepFailure when a stencil would need more than
    ``opts.max_steps`` substeps and NonFiniteField on non-finite rows.
    """
    opts = opts or IntegratorOptions()
    kept = kept or KeptBlocks()
    dt = grid.widths

    def take(frac, s):
        """Rows at the points ``frac`` of the s-substep stencil."""
        _check_budget(s * dt.size, opts)
        rows = sample(stencil_times(grid, frac), frac)
        if not np.isfinite(rows).all():
            raise NonFiniteField("non-finite rows on the interval stencil")
        return rows

    def estimates(s, *stencils):
        """The estimates on ``stencils``, kept under round s while the
        widths and the s-substep stencil's rows, the last of them, repeat;
        read-only."""
        def build():
            out = tuple(estimate(stencil, dt) for stencil in stencils)
            for values in out:
                values.flags.writeable = False
            return out

        return kept.get(("round", s), (dt, stencils[-1]), build)

    s = 2
    rows = take(np.arange(5) / 4.0, s)
    last, result = estimates(s, rows[:, ::2], rows)
    while not _refined(result, last, opts):
        s *= 2
        # The finer stencil's even points are the coarser stencil's
        # points, so only its odd points are new.
        fresh = take(np.arange(1, 2 * s, 2) / (2 * s), s)
        merged = np.empty((dt.size, 2 * s + 1) + rows.shape[2:])
        merged[:, 0::2], merged[:, 1::2] = rows, fresh
        rows = merged
        last = result
        (result,) = estimates(s, rows)
    return result


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
