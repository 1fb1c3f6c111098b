"""Assembly and integration of the evolution initial-value problem.

The physical-time axis is discretized once (N nodes on normalized time);
the resulting finite-dimensional system is integrated along the virtual
evolution time tau.  The evolving vector holds node controls (control-only
method) or node states and controls (coupled method), plus the terminal
time when it is free.  Multipliers, residuals, and the performance index
are algebraic functions of the snapshot and are never integrated.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from . import second as second_eq
from . import third as third_eq
from .errors import DegenerateGrid, TfCollapse, VemError
from .ocp import GainSet, OcpProblem
from .rk45 import IntegratorOptions, rk45_integrate, steppable_span
from .trajectory import (
    ControlTrajectory,
    KeptBlocks,
    StateTrajectory,
    TimeGrid,
    TransitionStack,
    fused_sweep,
    interval_stencil,
    path_rows,
    shooting_nodes,
    transition_stack,
)
# Not called here; perfbench/tracing.py patches this name in this module.
from .trajectory import propagate_states  # noqa: F401

METHODS = ("second", "third")
# The coupled method's variants (``vem.second``); the control-only method
# takes the quasi-feasible multiplier system in every mode.
MODES = ("feasible", "quasi_feasible", "modified")
DEFAULT_SNAPSHOTS = (0.0, 1.0, 5.0, 10.0, 30.0, 100.0, 300.0)

# Narrowest horizon a free terminal time may shrink to before the solve
# stops with TfCollapse.
TF_MIN_WIDTH = 1e-3

# Early-termination thresholds on the optimality residuals.
OPTIMALITY_RTOL = 1e-6
CONSTRAINT_TOL = 1e-6
TRANSVERSALITY_TOL = 1e-6


@dataclass(frozen=True)
class StateLayout:
    """Flat-vector layout of the evolving quantities."""

    method: str
    n_nodes: int
    n_states: int
    n_controls: int
    tf_free: bool

    @property
    def _sizes(self):
        """Lengths of the node-state, node-control and terminal-time parts,
        in vector order; a part the layout does not hold has length 0."""
        return (self.n_nodes * self.n_states if self.method == "second" else 0,
                self.n_nodes * self.n_controls, int(self.tf_free))

    @property
    def dimension(self) -> int:
        return sum(self._sizes)

    def pack(self, controls, states=None, tf=None) -> np.ndarray:
        sizes = self._sizes
        n_states, _, n_tf = sizes
        if n_states and states is None:
            raise ValueError("coupled layout requires node states")
        if n_tf and tf is None:
            raise ValueError("free-horizon layout requires tf")
        vec = np.concatenate([np.asarray(p, dtype=float).ravel()
                              for p, size in zip((states, controls, [tf]), sizes)
                              if size])
        if vec.size != sum(sizes):
            raise ValueError(f"packed size {vec.size} != layout dimension {sum(sizes)}")
        return vec

    def unpack(self, vec):
        vec = np.asarray(vec, dtype=float)
        if vec.size != self.dimension:
            raise ValueError(f"vector size {vec.size} != layout dimension {self.dimension}")
        n_states, n_controls, n_tf = self._sizes
        states = (vec[:n_states].reshape(self.n_nodes, self.n_states)
                  if n_states else None)
        controls = vec[n_states:n_states + n_controls].reshape(self.n_nodes,
                                                               self.n_controls)
        return controls, states, float(vec[-1]) if n_tf else None


@dataclass
class SnapshotRecord:
    """Full diagnostic record of the solution at one tau value."""

    tau: float
    times: np.ndarray           # (N,)
    controls: np.ndarray        # (N, m)
    states: np.ndarray          # (N, n)
    costates: np.ndarray        # (N, n)
    J: float
    pi: Optional[np.ndarray]
    tf: float
    residuals: third_eq.Residuals


@dataclass
class EvolutionHistory:
    """Snapshots along tau plus the termination reason."""

    snapshots: List[SnapshotRecord] = field(default_factory=list)
    termination_reason: str = "tau_end"

    @property
    def final(self) -> SnapshotRecord:
        return self.snapshots[-1]


@dataclass
class SolveReport:
    """Node errors against a reference plus run metadata."""

    problem: str
    method: str
    ivp_dimension: int
    J: float
    tf: float
    pi: Optional[np.ndarray]
    residuals: third_eq.Residuals
    termination_reason: str
    e_J: Optional[float] = None
    e_u: Optional[np.ndarray] = None
    e_x: Optional[np.ndarray] = None
    wall_seconds: Optional[float] = None


# No caller in vem; kept because perfbench/tracing.py patches this name.
def propagate_with_cost(problem: OcpProblem, ctrl: ControlTrajectory,
                        grid: TimeGrid, opts: Optional[IntegratorOptions] = None):
    """(StateTrajectory, J) from the fused sweep, with J the full
    performance index including the terminal term (``path_cost``)."""
    states, _ = fused_sweep(problem, ctrl, grid, opts)
    return states, path_cost(problem, states, ctrl, grid, opts)


def path_cost(problem: OcpProblem, states: StateTrajectory,
              ctrl: ControlTrajectory, grid: TimeGrid,
              opts: Optional[IntegratorOptions] = None) -> float:
    """Performance index along an existing state path (no re-propagation).

    The running cost is integrated by composite Simpson (``_simpson``) on
    the doubling interval stencil of ``transition_stack``.
    """
    parts = interval_stencil(grid, _running_cost_field(problem, states, ctrl),
                             _simpson, opts)
    return float(problem.terminal_cost(states.values[-1], grid.tf)) + float(parts.sum())


def _running_cost_field(problem: OcpProblem, states: StateTrajectory,
                        ctrl: ControlTrajectory):
    """The sampler of the running cost along the given trajectories for
    ``interval_stencil``: one ``path_rows`` read and one
    ``running_cost_rows`` call per round."""
    def sample(ts, frac):
        return np.asarray(problem.running_cost_rows(
            *path_rows(states, ctrl, ts, frac)), dtype=float).reshape(ts.shape)

    return sample


def _simpson(rows, dt):
    """Composite Simpson on the s-substep stencil's running-cost rows
    (N-1, 2s+1): one integral per interval."""
    weights = np.full(rows.shape[1], 2.0)
    weights[1::2] = 4.0
    weights[[0, -1]] = 1.0
    s = (rows.shape[1] - 1) // 2
    return dt / (6.0 * s) * (rows @ weights)


@dataclass
class Evaluation:
    """The snapshot pipeline run once at one evolving vector.

    ``nodes`` is the node record every formula reads, taken along
    ``states`` and ``ctrl``: for the coupled method the snapshot's own
    trajectories (``snap``), for the control-only method the shooting
    solve's states under the node controls.  ``terms`` holds the end-node
    terms every formula reads: g, g_x, its projections and, on a free
    horizon, the terminal bracket along the dynamics and along the
    end-node rate the tau-rate reads.  ``defects`` is the coupled modified
    mode's record (``SecondEqSnapshot.defects``), None in every other
    mode: it is how the modified variant reaches the formulas, through
    ``terms`` (the end-node rate and the corrections to r) and the
    node-state rate.  The residuals are algebra on these terms in every
    mode.
    """

    ctrl: ControlTrajectory
    states: StateTrajectory
    stack: TransitionStack
    nodes: third_eq.NodeInputs
    gu: np.ndarray
    terms: third_eq.MultiplierTerms
    pi: Optional[np.ndarray]
    snap: Optional[second_eq.SecondEqSnapshot] = None
    defects: Optional[third_eq.Defects] = None   # coupled modified mode only


class EvolutionSystem:
    """The assembled tau-IVP: layout, right-hand side, snapshot pipeline.

    ``rhs``, ``residuals``, ``gradient_norm`` and ``snapshot`` all read
    one ``Evaluation`` of the vector they are given.  A control-only
    evaluation is one fused sweep (the shooting solve for the states and
    its transition stack); a coupled one is one batched interval stencil
    along the snapshot's own trajectories.  A snapshot adds the path cost
    along the evaluation's states.

    What the system keeps between evaluations sits in one store
    (``trajectory.KeptBlocks``), each value reused while the arrays it was
    built from repeat bit for bit.  Its ``"evaluation"`` slot, keyed on the
    vector's bits, makes a vector seen twice in a row one
    evaluation: the integrator's last stage of an accepted step and the
    convergence check on that step, or the assembly probe at y0, the
    threshold scaling and the first field call.  A vector that differs in
    any bit, including one mutated in place after a call, is evaluated
    afresh.  Its other slots hold the Jacobian-derived blocks of the last
    evaluation, keyed on the f_x/L_x rows and widths they came from: on a
    fixed horizon with f_x and L_x free of x and u, such as the double
    integrator's, one build serves the whole solve.

    The mode is read here only, checked against ``MODES`` and turned into
    data: ``modified`` makes each coupled evaluation carry its snapshot's
    ``Defects``, and ``attract`` is False in the coupled feasible mode
    only, which drops -K_g g from the multiplier system.
    """

    def __init__(self, problem: OcpProblem, gains: GainSet, method: str,
                 n_nodes: int, opts: IntegratorOptions, y0: np.ndarray,
                 mode: str = "quasi_feasible"):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
        coupled = method == "second"
        self.problem = problem
        self.gains = gains
        self.method = method
        self.modified = coupled and mode == "modified"
        self.attract = not (coupled and mode == "feasible")
        self.opts = opts
        self.layout = StateLayout(method, n_nodes, problem.n, problem.m,
                                  problem.tf_free)
        self.y0 = y0
        self._kept = KeptBlocks()

    @property
    def dimension(self) -> int:
        return self.layout.dimension

    def _grid(self, tf: Optional[float]) -> TimeGrid:
        horizon = tf if tf is not None else self.problem.tf
        # A non-finite end (NaN or either infinity), which TimeGrid would
        # reject as a bad argument, is a solver failure of the run that
        # reached it, not a collapsed horizon.
        if not math.isfinite(horizon):
            raise DegenerateGrid(f"horizon end {horizon} is not finite")
        if horizon - self.problem.t0 < TF_MIN_WIDTH:
            raise TfCollapse(f"horizon width {horizon - self.problem.t0:.3e} "
                             f"below {TF_MIN_WIDTH:g}")
        return TimeGrid(self.layout.n_nodes, self.problem.t0, horizon)

    def evaluate(self, vec) -> Evaluation:
        """The pipeline at ``vec``, reused when the last call saw the same
        bits."""
        # The evaluation keeps views of the vector it unpacks, so it gets a
        # private copy.
        vec = np.array(vec, dtype=float)
        build = self._evaluate_third if self.method == "third" else self._evaluate_second
        return self._kept.get("evaluation", (vec,), lambda: build(vec))

    def _evaluate_third(self, vec) -> Evaluation:
        controls, _, tf = self.layout.unpack(vec)
        grid = self._grid(tf)
        ctrl = ControlTrajectory.from_values(grid, controls)
        states, stack = fused_sweep(self.problem, ctrl, grid, self.opts,
                                    kept=self._kept)
        return self._along(ctrl, states, stack)

    def _evaluate_second(self, vec) -> Evaluation:
        controls, states_nodes, tf = self.layout.unpack(vec)
        grid = self._grid(tf)
        snap = second_eq.SecondEqSnapshot.create(grid, states_nodes, controls)
        stack = transition_stack(self.problem, snap.state_traj, snap.ctrl_traj,
                                 self.opts, kept=self._kept)
        return self._along(snap.ctrl_traj, snap.state_traj, stack, snap)

    def _along(self, ctrl, states, stack, snap=None) -> Evaluation:
        """Node record, gradient, end-node terms and multipliers along
        given trajectories and their stack (``snap``'s for the coupled
        method).  The modified mode's defects and the end-node terms are
        formed once here."""
        problem = self.problem
        nodes = third_eq.node_inputs(problem, states, ctrl)
        gu = third_eq.control_gradient(nodes, stack)
        defects = snap.defects(problem) if self.modified else None
        terms = third_eq.multiplier_terms(problem, nodes, stack, defects)
        pi = None
        if problem.q > 0 and snap is not None:
            pi = second_eq.multiplier_second(terms, gu, self.gains, self.attract)
        elif problem.q > 0:
            # Control-only method: always the quasi-feasible multiplier
            # system (snapshots satisfy the dynamics by construction, the
            # terminal constraint only asymptotically).
            pi = third_eq.solve_multipliers(*third_eq.multiplier_system(
                terms, gu, self.gains))
        return Evaluation(ctrl, states, stack, nodes, gu, terms, pi, snap,
                          defects)

    def _rate(self, ev: Evaluation) -> np.ndarray:
        """The tau-rate at an evaluation: the control rate, the coupled
        method's node-state rate, and the terminal-time rate on a free
        horizon."""
        problem, snap, nodes = self.problem, ev.snap, ev.nodes
        udot = third_eq.control_rhs(ev.terms, ev.gu, ev.pi, self.gains)
        wdot = tf_dot = None
        if snap is not None:
            wdot = second_eq.state_rhs_second(nodes, ev.stack, udot, ev.defects)
        if problem.tf_free and snap is None:
            tf_dot = third_eq.tf_rhs(ev.terms.bracket, ev.pi, self.gains)
        elif problem.tf_free:
            tf_dot = second_eq.tf_rhs_second(ev.terms.bracket, ev.pi, self.gains)
            # Nodes sit on normalized time, so a moving horizon drags their
            # physical positions; the stored state and control functions
            # pick up the moving-grid advection rate on top of the
            # variational rates.  Without it the snapshot pair drifts off
            # the dynamics and the designed constraint decay never closes.
            stretch = nodes.grid.sigma[:, None] * tf_dot
            wdot = wdot + snap.xdot * stretch
            udot = udot + snap.du_dt * stretch
        return self.layout.pack(udot, states=wdot, tf=tf_dot)

    # -- public surface ----------------------------------------------------
    def rhs(self, tau, vec):
        return self._rate(self.evaluate(vec))

    def residuals(self, vec) -> third_eq.Residuals:
        ev = self.evaluate(vec)
        return third_eq.optimality_residuals(ev.terms, ev.gu, ev.pi)

    def gradient_norm(self, vec) -> float:
        """Sup-norm of the cost gradient at a snapshot (threshold scaling)."""
        return float(np.abs(self.evaluate(vec).gu).max())

    def snapshot(self, tau, vec) -> SnapshotRecord:
        ev = self.evaluate(vec)
        grid = ev.nodes.grid
        cost = path_cost(self.problem, ev.states, ev.ctrl, grid, self.opts)
        res = third_eq.optimality_residuals(ev.terms, ev.gu, ev.pi)
        costates = third_eq.reconstruct_costates(ev.stack, ev.terms, ev.pi)
        return SnapshotRecord(float(tau), grid.times.copy(),
                              ev.ctrl.values.copy(), ev.states.values.copy(),
                              costates, cost,
                              None if ev.pi is None else np.asarray(ev.pi, dtype=float),
                              grid.tf, res)


def assemble_ivp(problem: OcpProblem, method: str, n_nodes: int,
                 gains: GainSet, init_controls=None, init_tf=None,
                 opts: Optional[IntegratorOptions] = None,
                 mode: str = "quasi_feasible") -> EvolutionSystem:
    """Build the tau-IVP for a problem and probe its right-hand side once.

    ``init_controls`` defaults to all-zero node controls, and ``init_tf``,
    the starting horizon of a free-horizon problem, to ``problem.tf``;
    non-finite node controls, an ``init_tf`` on a fixed horizon, or a
    non-finite one, raise ValueError.  The coupled method starts from the
    node states of the control-only method's shooting solve under that
    control (``shooting_nodes``), so the starting snapshot satisfies the
    dynamics to the solve's tolerance and the initial condition exactly.
    Its feasible mode also needs a start that meets the terminal constraint,
    ||g(x(tf), tf)||_inf <= CONSTRAINT_TOL, and raises ValueError naming
    the miss otherwise.  An unknown ``mode`` raises ValueError for either
    method, from ``EvolutionSystem``.  The same integrator options drive
    both the inner (physical-time) and the outer (tau) integrations.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    _check_nodes(n_nodes)
    if problem.q > 0 and gains.K_g is None:
        raise ValueError("problems with terminal constraints need a K_g gain")
    opts = opts or IntegratorOptions()
    system = EvolutionSystem(problem, gains, method, n_nodes, opts, None, mode)

    if init_controls is None:
        init_controls = np.zeros((n_nodes, problem.m))
    init_controls = np.atleast_2d(np.asarray(init_controls, dtype=float))
    if init_controls.shape != (n_nodes, problem.m):
        raise ValueError(
            f"init_controls must have shape {(n_nodes, problem.m)}")
    if not np.all(np.isfinite(init_controls)):
        raise ValueError("init_controls must be finite")
    tf0 = problem.tf
    if init_tf is not None:
        if not problem.tf_free:
            raise ValueError("init_tf needs a free terminal time; this "
                             "problem's horizon is fixed")
        tf0 = float(init_tf)
        if not np.isfinite(tf0):
            raise ValueError("init_tf must be finite")

    grid = TimeGrid(n_nodes, problem.t0, tf0)
    states = None
    if method == "second":
        ctrl = ControlTrajectory.from_values(grid, init_controls)
        states, *_ = shooting_nodes(problem, ctrl, grid, opts)
        if not system.attract and problem.q > 0:
            miss = float(np.max(np.abs(problem.constraint(states[-1], tf0))))
            if not miss <= CONSTRAINT_TOL:
                raise ValueError(f"feasible mode needs a start that meets the "
                                 f"terminal constraint: max |g(x(tf), tf)| = "
                                 f"{miss:.3e} exceeds {CONSTRAINT_TOL:g}")
    system.y0 = system.layout.pack(init_controls, states=states, tf=tf0)
    system.rhs(0.0, system.y0)  # surfaces singular multipliers and shape errors now
    return system


def _select_snapshots(requested, tau_end) -> List[float]:
    kept = {float(tau) for tau in requested if 0.0 <= tau <= tau_end}
    return sorted({0.0, float(tau_end)} | kept)


def _check_tau_end(tau_end: float) -> None:
    if not 0.0 <= tau_end < np.inf:
        raise ValueError("tau_end must be finite and non-negative")
    # A positive span follows the tau-integrator's own span rule.
    if tau_end > 0.0 and not steppable_span(0.0, tau_end):
        raise ValueError(f"tau_end {tau_end:g} is too short to step; use 0 or >= 1e-13")


def _check_nodes(n_nodes: int) -> None:
    if n_nodes < 4:
        raise ValueError("need at least 4 discretization nodes")


def evolve(system: EvolutionSystem, tau_end: float,
           snapshot_taus: Optional[Sequence[float]] = None,
           opts: Optional[IntegratorOptions] = None,
           early_stop: bool = True) -> EvolutionHistory:
    """Integrate the tau-IVP and record snapshots.

    Terminates early once all optimality residuals fall below their
    thresholds unless ``early_stop`` is disabled (fixed-span runs are the
    reproducible setting for comparisons).

    Finished and failed runs share one history rule (``_history``): a
    snapshot at each requested tau before the end the run reached, read
    from its dense output, and one at that end, read from the state the
    integrator accepted there.  A failed run's history, less any snapshot
    that raised, is attached to the raised exception as ``exc.history``.
    """
    _check_tau_end(tau_end)
    opts = opts or system.opts
    requested = DEFAULT_SNAPSHOTS if snapshot_taus is None else snapshot_taus

    if tau_end == 0.0:
        return EvolutionHistory([system.snapshot(0.0, system.y0)], "tau_end")

    opt_floor = (OPTIMALITY_RTOL * (1.0 + system.gradient_norm(system.y0))
                 if early_stop else None)

    def converged(vec) -> bool:
        res = system.residuals(vec)
        if res.optimality_inf > opt_floor or res.constraint_inf > CONSTRAINT_TOL:
            return False
        return res.transversality is None or res.transversality <= TRANSVERSALITY_TOL

    def on_step(tau, vec):
        return early_stop and converged(vec)

    try:
        path = rk45_integrate(system.rhs, system.y0, (0.0, tau_end), opts,
                              on_step=on_step)
    except VemError as exc:
        exc.history = _history(system, exc.path, requested,
                               type(exc).__name__, skip=VemError)
        raise
    return _history(system, path, requested,
                    "converged" if path.stopped else "tau_end")


def _history(system, path, requested, reason, skip=()) -> EvolutionHistory:
    """Snapshots of a tau-run's record ``path``, in tau order: the dense
    output at each kept requested tau before the end the run reached, the
    accepted state at that end.  The end is taken first, while the system
    still holds the evaluation of that state.  A snapshot that raises one
    of the ``skip`` errors is left out."""
    history = EvolutionHistory(termination_reason=reason)
    *earlier, end = _select_snapshots(requested, path.t_end)
    for tau in [end] + earlier:
        vec = path.y_end if tau == end else path.eval(tau)
        try:
            history.snapshots.append(system.snapshot(tau, vec))
        except skip:
            continue
    history.snapshots.sort(key=lambda snap: snap.tau)
    return history


def summarize(system: EvolutionSystem, history: EvolutionHistory,
              reference=None, wall_seconds: Optional[float] = None) -> SolveReport:
    """Condense a run into the table-style report.

    Errors against the reference are sup-norms over the final snapshot's
    nodes, one entry per control channel and per state.
    """
    last = history.final
    report = SolveReport(
        problem=system.problem.name,
        method=system.method,
        ivp_dimension=system.dimension,
        J=last.J,
        tf=last.tf,
        pi=last.pi,
        residuals=last.residuals,
        termination_reason=history.termination_reason,
        wall_seconds=wall_seconds,
    )
    if reference is not None:
        report.e_J = abs(last.J - reference.cost)
        u_ref = np.stack([np.atleast_1d(reference.control(t)) for t in last.times])
        x_ref = np.stack([np.atleast_1d(reference.state(t)) for t in last.times])
        report.e_u = np.max(np.abs(last.controls - u_ref), axis=0)
        report.e_x = np.max(np.abs(last.states - x_ref), axis=0)
    return report


def solve_benchmark(benchmark, method: str, n_nodes: Optional[int] = None,
                    tau_end: Optional[float] = None, gains: Optional[GainSet] = None,
                    opts: Optional[IntegratorOptions] = None,
                    snapshot_taus: Optional[Sequence[float]] = None,
                    early_stop: bool = True, mode: str = "quasi_feasible",
                    init_controls=None, init_tf=None):
    """Assemble, evolve, and summarize one benchmark run; returns
    (history, report) with wall time recorded on the report, which is
    named after the benchmark.  ``tau_end`` is checked as ``evolve``
    checks it, before the IVP is assembled."""
    n_nodes = n_nodes if n_nodes is not None else benchmark.default_nodes
    tau_end = tau_end if tau_end is not None else benchmark.default_tau_end
    gains = gains or benchmark.gains
    _check_tau_end(tau_end)
    system = assemble_ivp(benchmark.problem, method, n_nodes, gains,
                          init_controls=init_controls, init_tf=init_tf,
                          opts=opts, mode=mode)
    start = time.perf_counter()
    history = evolve(system, tau_end, snapshot_taus=snapshot_taus,
                     opts=opts, early_stop=early_stop)
    wall = time.perf_counter() - start
    report = summarize(system, history, benchmark.reference, wall_seconds=wall)
    report.problem = benchmark.name
    return history, report
