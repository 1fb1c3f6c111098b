"""Time grids, state propagation, and transition-matrix stacks.

The solver works on a fixed normalized grid sigma in [0, 1]; physical
node times are an affine image of sigma, so a moving terminal time only
stretches the grid and never resamples node values.

Both evolution equations read the stack of matrices Psi(t_i) -- the
transposed state transition matrix from t_i to the terminal time -- and
the cost-gradient kernel lam, the adjoint of lam' = -f_x^T lam - L_x with
lam(tf) set to the terminal-cost gradient.  Both methods build them by
one route.  Each interval's classic-RK4 tangent, the propagator
T_i = [[G_i, 0], [c_i^T, 1]] of Z' = [[f_x, 0], [L_x^T, 0]] Z from the
f_x/L_x rows at its substeps' stage inputs (``_tangent_chain``), gives
the blocks G_i and c_i.  The backward recurrence of the transposed
tangents (``_backward``)

    Psi_i = G_i^T Psi_i+1,  lam_i = G_i^T lam_i+1 + c_i,
    Psi_N-1 = I,  lam_N-1 = lam_end

gives Psi and lam at every node: the discrete adjoint of the RK4 maps
(Hager 2000, Numer. Math. 87), so no backward integration is needed.
The last column of every T_i is e_n+1, so a tangent is stored as its
first n columns (N-1, n+1, n) = [G_i; c_i^T], and substeps compose with
that unit corner added explicitly.  The recurrence is a unit
block-bidiagonal triangular system -- the condensing structure of
multiple shooting -- so one LAPACK banded triangular solve (``dtbtrs``,
bandwidth 2n-1, in ``_bidiagonal_solve``) takes all n+1 columns
[Psi | lam] at once, and pins Psi_N-1 and lam_N-1 exactly.  The same
banded system, solved forward (z_0 = r_0, z_i+1 = G_i z_i + r_i+1), is
the shooting solve's Newton correction and the coupled method's
node-state rate (``second.state_rhs_second``), so ``TransitionStack``
keeps the blocks G_i = Phi(t_i+1, t_i) next to Psi and lam.  The two
methods differ only in where the stage inputs come from.

``shooting_nodes`` solves for the node states by multiple shooting: the
control-only method's states and the coupled method's starting states.
Each grid interval gets a classic-RK4 map F_i of s substeps, sampled at
the interval's stencil of ends and midpoints (whose controls are the
control spline's interval polynomials), and the node states solve
X_0 = x0, X_i+1 = F_i(X_i).  Newton on all intervals at once needs, per
pass, one batched RK4 sweep over every interval -- one ``dynamics_rows``
call per stage and one ``jac_fx_rows``/``grad_lx_rows`` call over all
4s stage inputs of every interval, ordered by stage
(``_stage_columns``) -- and its correction delta_i+1 = G_i delta_i + r_i
is the forward recurrence of the banded system, one more ``dtbtrs``
call.  Dynamics affine in x converge after one correction.  The maps'
tangents in [x, running cost] are the T_i; the tangents of a round are
reused while its width and f_x/L_x stage rows stay bit-equal, so
dynamics whose Jacobians do not depend on x assemble them once per
solve.  The check of s reads the stages it already has: each substep's
embedded third-order estimate e = (h/6)(k4 - f(x_end)), whose end rate
is the next substep's or the next interval's first stage, and at tf one
one-row call, so an affine problem at s = 1 makes 9 stage calls.  s
doubles until e is within atol + rtol |x_end| in every entry.
``fused_sweep`` (control-only method) ends in ``_backward`` of the
tangents at the solved nodes, and the band of the G_i, built with them,
serves its Newton corrections and the backward solve.
Psi_0 = Phi(tf, t0)^T, so its 2-norm condition number guards the solve
by the multiplier solve's rule (``numerics.condition_number``): past
``COND_LIMIT`` (saddle-type dynamics, whose transition matrices grow like
exp(2|a|T)) it raises SingularSystem.  Off-node state rows are the cubic
Hermite interpolant of the node states and rates.

``transition_stack`` (coupled method, whose states are given node values,
and the oracles) works along given state and control trajectories, so
the stage inputs are the trajectories' rows and no Newton solve is
needed.  On every grid interval at once it samples the rows
[f_x; L_x^T] (``_jacobian_field``) on the interval's stencil, orders
them by stage with the same ``_stage_columns`` and takes each round's
tangents with the same ``_tangent_chain`` (``_stencil_tangents``); like
``fused_sweep`` it ends in ``_backward`` of the tangents.
``interval_stencil`` chooses the substep count by step doubling under
the ``IntegratorOptions`` tolerances.  The first test always compares two
substeps with one, so the first round samples all five points per
interval of the 2-substep stencil in one call and the 1-substep estimate
reads their even points; each later round adds the odd points of the
next finer stencil.  Each round makes one ``jac_fx_rows`` and one
``grad_lx_rows`` call over the times it adds.  Intervals end at nodes,
where the state and control splines are joined, so RK4 keeps its order
on every interval.  A snapshot's cost (``driver.path_cost``, either
method) is composite Simpson on the same stencil.

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
returns.  Its four slots, ``("tangents", s)``, ``("round", s)``,
``"stack"`` and ``"evaluation"``, are described with their keys on the
class.  A problem whose f_x/L_x rows never move on a fixed horizon (the
double integrator) builds each once for a whole tau run.  A moving
horizon changes the widths and rebuilds the rounds; the stack is rebuilt
too unless its blocks come out bit for bit the same, as on a horizon
where f_x = L_x = 0 and every tangent is the identity at any width.

``propagate_states`` and ``_forward_stack`` (the forward transition
matrices Phi(t_i, t0)) are oracles: adaptive Dormand-Prince sweeps, which
the checks and tests hold the shooting solve and the shared tangent
kernel against.  The banded recurrences are held against log-depth
running matrix products (``checks.cumulative_products``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, lru_cache
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dtbtrs

from .errors import NonFiniteDynamics, NonFiniteField, StepFailure
from .numerics import SplineCoeffs, condition_number, hermite_build, spline_build
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
        if not (np.isfinite(self.t0) and np.isfinite(self.tf)):
            raise ValueError("initial and terminal times must be finite")
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
    x0 exactly.  Starting at s = 1, s doubles until every substep's
    embedded third-order estimate at the solved nodes is within
    atol + rtol |x| of its end state x in every entry.  Returns the nodes
    (N, n), the tangents (N-1, n+1, n, read-only) of the maps in
    [x, running cost] at them and the ``_band`` of their blocks G_i; the
    tangents are ``kept``'s, fresh ones without it.

    Raises StepFailure when a round would need more than
    ``opts.max_steps`` substeps and NonFiniteDynamics on non-finite
    dynamics or f_x/L_x rows.
    """
    opts = opts or IntegratorOptions()
    kept = kept or KeptBlocks()
    n_int = grid.n_nodes - 1
    nodes = problem.x0[None].repeat(grid.n_nodes, axis=0)
    s = 1
    while True:
        _check_budget(s * n_int, opts, "shooting")
        # The s-substep stencil: ends and midpoints, ends at the nodes.
        frac = np.arange(2 * s + 1) / (2 * s)
        nodes, chain, band, error, ends = _shoot(
            problem, stencil_times(grid, frac), ctrl.spline.at_fractions(frac),
            nodes, kept)
        if (np.abs(error) <= opts.atol + opts.rtol * np.abs(ends)).all():
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
    Psi_0 = Phi(tf, t0)^T fails ``numerics.condition_number``: its 2-norm
    condition number, the multiplier solve's, exceeds COND_LIMIT.
    """
    kept = kept or KeptBlocks()
    nodes, tangents, band = shooting_nodes(problem, ctrl, grid, opts, kept)
    lam_end = np.asarray(problem.grad_phix(nodes[-1], grid.tf), dtype=float)

    def guarded():
        # T_i = [[G_i, 0], [c_i^T, 1]], whose G_i's band the shooting solve
        # built along with them.
        stack = _backward(tangents[:, :-1], tangents[:, -1], lam_end, band)
        condition_number(stack.psi[0], "forward transition matrix ")
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


def _check_budget(substeps: int, opts: IntegratorOptions, stencil="interval"):
    """The substep budget of a round of the named stencil: StepFailure
    past ``opts.max_steps``."""
    if substeps > opts.max_steps:
        raise StepFailure(f"{stencil} stencil needs more than "
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
    end rows (K, n) and, per substep, its four stage inputs and its first
    and last stage rates (k1, k4).  The half and sixth step factors are
    formed once per call, and stages 2 and 3 read one slice of the
    substep's midpoint column.
    """
    x, stages, rates = starts, [], []
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
        rates.append((k1, k4))
        x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
    return x, stages, rates


def _stage_columns(s: int) -> np.ndarray:
    """The columns of the (2s+1)-point stencil of s RK4 substeps that their
    stage inputs read, ordered by stage, then substep: stage i of substep
    j reads column 2j + (0, 1, 1, 2)[i]."""
    return (2 * np.arange(s) + np.array([[0], [1], [1], [2]])).ravel()


def _tangent_chain(b, h):
    """The s-substep RK4 propagators T = [[G, 0], [c^T, 1]] of
    Z' = [[f_x, 0], [L_x^T, 0]] Z across every interval, as their first n
    columns (K, n+1, n), read-only (the last column is e_n+1), from the
    rows b = [f_x; L_x^T] (4sK, n+1, n) at the substeps' stage inputs,
    ordered by stage, substep, interval (``_stage_columns``), and the
    substep widths h (K, 1).  All s substep propagators are one batched
    RK4 step from Z = I, whose first stage is B itself; B's zero last
    column makes B Z read only Z's first n rows.  Substeps compose as
    T_2 T_1 = [G_2 G_1; c_2^T G_1 + c_1^T] with the unit corner added
    explicitly."""
    k, (rows, n) = len(h), b.shape[1:]
    shape = (k, rows, n)
    # Widths and identity spread to full block shape, so each elementwise
    # operation runs one loop over every entry.
    h = np.broadcast_to(h[:, :, None], shape).copy()
    eye = np.broadcast_to(np.eye(rows, n), shape).copy()
    half, sixth = 0.5 * h, h / 6.0
    b1, b2, b3, b4 = b.reshape((4, -1) + shape)
    k2 = b2 @ (eye + half * b1)[..., :n, :]
    k3 = b3 @ (eye + half * k2)[..., :n, :]
    k4 = b4 @ (eye + h * k3)[..., :n, :]
    steps = eye + sixth * (b1 + 2.0 * (k2 + k3) + k4)
    chain = steps[0]
    for step in steps[1:]:
        chain, corner = step @ chain[:, :n], chain[:, n]
        chain[:, n] += corner
    chain.flags.writeable = False
    return chain


def _tangents(problem: OcpProblem, rows, h, stages, kept: KeptBlocks):
    """The tangents (K, n+1, n), read-only, of the s-substep RK4 maps
    with substep width ``h`` (K, 1), and the ``_band`` of their blocks
    G_i: each tangent is the interval's propagator of
    Z' = [[f_x, 0], [L_x^T, 0]] Z, the derivative of its map applied to
    [x, running cost], from the per-substep stage inputs ``stages`` of
    ``_rk4_maps`` and their controls and times ``rows`` (4sK, m) and
    (4sK,), ordered by stage, substep, interval.

    One ``jac_fx_rows`` and one ``grad_lx_rows`` call over all 4sK stage
    inputs.  The tangents (``_tangent_chain``) are ``kept``'s under
    ``("tangents", s)`` while the width and the rows repeat, so dynamics
    whose f_x and L_x depend on neither x nor u assemble them once per
    solve on a fixed horizon; a moving horizon rebuilds them at every
    evaluation.  Nothing is kept from one solve to the next.
    """
    s = len(stages)
    xs = np.concatenate([stage[i] for i in range(4) for stage in stages])
    fx = np.asarray(problem.jac_fx_rows(xs, *rows), dtype=float)
    lx = np.asarray(problem.grad_lx_rows(xs, *rows), dtype=float)

    def build():
        tangents = _tangent_chain(np.concatenate([fx, lx[:, None]], axis=1), h)
        return tangents, _band(tangents[:, :-1])

    return kept.get(("tangents", s), (h, fx, lx), build)


def _shoot(problem: OcpProblem, ts, us, nodes, kept: KeptBlocks):
    """Node states X with X_0 = x0 and X_i+1 = F_i(X_i) for the s-substep
    RK4 maps on the stencil ``ts``, ``us`` of every interval's substep
    ends and midpoints.  Returns X, the tangents and their band
    (``_tangents``) from a last pass at X, and per substep of every map
    (s, N-1, n) its embedded third-order error estimate and its end state.

    Newton from ``nodes`` on r_i = F_i(X_i) - X_i+1 over all intervals at
    once: the correction solves delta_i+1 = G_i delta_i + r_i from
    delta_0 = 0 by one banded solve (``_bidiagonal_solve``) against the
    tangents' band.  It stops when max |r_i| is at rounding level.
    Non-finite rows, or no convergence within NEWTON_PASSES passes, fall
    back to composing the same maps one interval at a time from x0, the
    solution Newton converges to.

    The estimate is RK4 less its embedded third-order rule, which weighs
    the rate at the substep's end by h/6 in place of k4:
    e = (h/6)(k4 - f(x_end)).  f(x_end) is the next substep's first
    stage, at a map's end the next interval's first stage from the last
    pass (at X_i+1, which the map's end matches to rounding), and at tf
    one one-row ``dynamics_rows`` call.
    """
    n, k = problem.n, len(ts)
    s = (ts.shape[1] - 1) // 2
    dt = (ts[:, -1] - ts[:, 0])[:, None]
    # The maps take their substep widths spread over the n state columns,
    # so each RK4 product runs over contiguous rows; the tangents take
    # them as (K, 1).
    maps = (ts, us, dt.repeat(n, axis=1) / s)
    # The stage inputs' controls and times for the Jacobian rows, the same
    # every pass.
    cols = _stage_columns(s)
    h = dt / s
    rows = (us[:, cols].swapaxes(0, 1).reshape(cols.size * k, -1),
            ts[:, cols].T.ravel())
    nodes = nodes.copy()
    # The correction's right-hand side [0, r_0, ..., r_N-2]: the residual
    # rows are written into it in place, below a zero first block.
    rhs = np.zeros(((k + 1) * n, 1))
    residual = rhs[n:].reshape(k, n)

    def sweep():
        """(ends, stage inputs, (k1, k4) rates, tangents, band) at the
        current nodes."""
        ends, stages, rates = _rk4_maps(problem, nodes[:-1], *maps)
        return ends, stages, rates, *_tangents(problem, rows, h, stages, kept)

    def solved(ends, stages, rates, tangents, band):
        k1, k4 = (np.stack(rate) for rate in zip(*rates))
        at_tf = np.asarray(problem.dynamics_rows(
            ends[-1:], us[-1:, -1], ts[-1:, -1]), dtype=float)
        if not np.isfinite(at_tf).all():
            raise NonFiniteDynamics(f"field returned non-finite values near t={ts[-1, -1]}")
        f_end = np.concatenate([k1[1:], np.concatenate([k1[0, 1:], at_tf])[None]])
        x_end = np.stack([stage[0] for stage in stages[1:]] + [ends])
        return nodes, tangents, band, maps[2] / 6.0 * (k4 - f_end), x_end

    for _ in range(NEWTON_PASSES):
        ends, stages, rates, tangents, band = sweep()
        # max |F_i| is finite exactly when every end row is.
        top = np.abs(ends).max()
        if not (np.isfinite(top) and np.isfinite(tangents).all()):
            break
        np.subtract(ends, nodes[1:], out=residual)
        if np.abs(residual).max() <= NEWTON_TOL * max(1.0, top):
            return solved(ends, stages, rates, tangents, band)
        nodes[1:] += _bidiagonal_solve(band, rhs, "N").reshape(-1, n)[1:]
    for i in range(k):
        end, _, _ = _rk4_maps(problem, nodes[i:i + 1], *(a[i:i + 1] for a in maps))
        if not np.isfinite(end).all():
            raise NonFiniteDynamics(f"field returned non-finite values near "
                                    f"t={ts[i, 0]}")
        nodes[i + 1] = end[0]
    ends, stages, rates, tangents, band = sweep()
    if not np.isfinite(tangents).all():
        raise NonFiniteDynamics("non-finite f_x or L_x rows on the shooting stencil")
    return solved(ends, stages, rates, tangents, band)


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

    - ``("tangents", s)``: the shooting solve's s-substep tangents, an
      (N-1, n+1, n) array, and the ``_band`` of their blocks G_i, keyed
      on the substep width h and the f_x/L_x rows;
    - ``("round", s)``: ``transition_stack``'s s-substep stencil
      tangents, of the same shape and kernel, keyed on the grid widths
      and the stencil's rows; the first doubling test's E_1 and E_2 are
      rounds s = 1 (the even points of the five it samples) and s = 2;
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
        the shape and bytes it was built from, so -0.0 differs from 0.0
        and a NaN matches its own bits; else ``build()``'s, kept once it
        returns, so a ``build`` that raises keeps nothing.  The slot keeps
        a copy of the key's bits, not its arrays, so a caller may refill
        an array it passed."""
        bits = [(a.shape, a.tobytes()) for a in key]
        kept = self._slots.get(slot)
        if kept is None or kept[0] != bits:
            kept = self._slots[slot] = (bits, build())
        return kept[1]


def transition_stack(problem: OcpProblem, states: StateTrajectory,
                     ctrl: ControlTrajectory,
                     opts: Optional[IntegratorOptions] = None,
                     kept: Optional[KeptBlocks] = None) -> TransitionStack:
    """Psi at every node plus the adjoint along the given trajectories:
    the RK4 tangents of every interval (``_stencil_tangents`` of the
    ``_jacobian_field`` rows, refined by ``interval_stencil``), taken from
    the end by ``_backward`` (module docstring).  With ``kept`` the
    tangents and the stack are ``kept``'s while their keys repeat; without
    it both are built afresh."""
    kept = kept or KeptBlocks()
    grid = states.grid
    lam_end = np.asarray(problem.grad_phix(states.values[-1], grid.tf), dtype=float)

    def estimate(rows, dt):
        # Each round's tangents, kept while the widths and its rows repeat.
        return kept.get(("round", (rows.shape[1] - 1) // 2), (dt, rows),
                        lambda: _stencil_tangents(rows, dt))

    tangents = interval_stencil(grid, _jacobian_field(problem, states, ctrl),
                                estimate, opts)
    g = tangents[:, :-1]
    return kept.get("stack", (tangents, lam_end), lambda: _backward(
        g, tangents[:, -1], lam_end, _band(g)))


def _jacobian_field(problem: OcpProblem, states: StateTrajectory,
                    ctrl: ControlTrajectory):
    """The sampler of the rows [f_x; L_x^T] (n+1, n) along the given
    trajectories for ``interval_stencil``: one ``path_rows`` read and two
    row-form calls per round."""
    n = problem.n

    def sample(ts, frac):
        rows = path_rows(states, ctrl, ts, frac)
        b = np.empty((ts.size, n + 1, n))
        b[:, :n] = problem.jac_fx_rows(*rows)
        b[:, n] = problem.grad_lx_rows(*rows)
        return b.reshape(ts.shape + b.shape[1:])

    return sample


def _stencil_tangents(rows, dt):
    """The s-substep RK4 tangents (``_tangent_chain``) of every interval
    from the rows (N-1, 2s+1, n+1, n) of its s-substep stencil and the
    interval widths ``dt``: the shooting solve's tangents along given
    trajectories."""
    s = (rows.shape[1] - 1) // 2
    b = rows[:, _stage_columns(s)].swapaxes(0, 1)
    return _tangent_chain(b.reshape((-1,) + rows.shape[2:]), (dt / s)[:, None])


def interval_stencil(grid: TimeGrid, sample, estimate,
                     opts: Optional[IntegratorOptions] = None) -> np.ndarray:
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
    ``_refined`` against E_s, and E_2s is returned.

    Raises StepFailure when a stencil would need more than
    ``opts.max_steps`` substeps and NonFiniteField on non-finite rows.
    """
    opts = opts or IntegratorOptions()
    dt = grid.widths

    def take(frac, s):
        """Rows at the points ``frac`` of the s-substep stencil."""
        _check_budget(s * dt.size, opts)
        rows = sample(stencil_times(grid, frac), frac)
        if not np.isfinite(rows).all():
            raise NonFiniteField("non-finite rows on the interval stencil")
        return rows

    s = 2
    rows = take(np.arange(5) / 4.0, s)
    last, result = estimate(rows[:, ::2], dt), estimate(rows, dt)
    while not _refined(result, last, opts):
        s *= 2
        # The finer stencil's even points are the coarser stencil's
        # points, so only its odd points are new.
        fresh = take(np.arange(1, 2 * s, 2) / (2 * s), s)
        merged = np.empty((dt.size, 2 * s + 1) + rows.shape[2:])
        merged[:, 0::2], merged[:, 1::2] = rows, fresh
        rows = merged
        last, result = result, estimate(rows, dt)
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
