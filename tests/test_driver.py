import dataclasses
import pickle

import numpy as np
import pytest

from conftest import (growing_horizon, saddle_benchmark, saddle_problem,
                      shrinking_horizon)
from vem import (
    ControlTrajectory,
    GainSet,
    IntegratorOptions,
    OcpProblem,
    StateLayout,
    TimeGrid,
    assemble_ivp,
    evolve,
    get_benchmark,
    summarize,
)
from vem import checks, driver, second, third, trajectory
from vem.driver import EvolutionSystem, path_cost, propagate_with_cost, solve_benchmark
from vem.errors import DegenerateGrid, SingularSystem, StepFailure, TfCollapse, VemError
from vem.ocp import ROW_FORMS
from vem.rk45 import rk45_integrate


class TestLayout:
    @pytest.mark.parametrize("method,tf_free", [
        ("third", False), ("third", True), ("second", False), ("second", True),
    ])
    def test_pack_unpack_roundtrip(self, method, tf_free):
        rng = np.random.default_rng(20)
        layout = StateLayout(method, 13, 3, 2, tf_free)
        vec = rng.standard_normal(layout.dimension)
        controls, states, tf = layout.unpack(vec)
        assert controls.shape == (13, 2)
        if method == "second":
            assert states.shape == (13, 3)
        assert np.array_equal(layout.pack(controls, states=states, tf=tf), vec)

    def test_size_mismatch_rejected(self):
        layout = StateLayout("third", 5, 2, 1, False)
        with pytest.raises(ValueError):
            layout.unpack(np.zeros(7))

    def test_dimensions(self, di, brach):
        assert StateLayout("third", 41, 2, 1, False).dimension == 41
        assert StateLayout("second", 41, 2, 1, False).dimension == 123
        assert StateLayout("third", 101, 3, 1, True).dimension == 102
        assert StateLayout("second", 101, 3, 1, True).dimension == 405
        assert assemble_ivp(di.problem, "third", 41, di.gains).dimension == 41
        assert assemble_ivp(di.problem, "second", 41, di.gains).dimension == 123
        assert assemble_ivp(brach.problem, "third", 101, brach.gains).dimension == 102
        assert assemble_ivp(brach.problem, "second", 101, brach.gains).dimension == 405


class TestAssembly:
    def test_unknown_method(self, di):
        with pytest.raises(ValueError):
            assemble_ivp(di.problem, "fourth", 41, di.gains)

    def test_too_few_nodes(self, di):
        with pytest.raises(ValueError):
            assemble_ivp(di.problem, "third", 3, di.gains)

    @pytest.mark.parametrize("method", ["third", "second"])
    def test_unknown_mode_rejected_for_both_methods(self, di, method):
        # The control-only method reads no mode, yet a misspelt one is
        # still a bad run option, caught before any evaluation: the system
        # checks it where it stores it, so no later call runs it as some
        # other variant.
        with pytest.raises(ValueError, match="unknown mode 'sloppy'"):
            EvolutionSystem(di.problem, di.gains, method, 11, IntegratorOptions(),
                            None, "sloppy")
        with pytest.raises(ValueError, match="unknown mode 'sloppy'"):
            assemble_ivp(di.problem, method, 41, di.gains, mode="sloppy")
        with pytest.raises(ValueError, match="unknown mode 'sloppy'"):
            solve_benchmark(di, method, tau_end=1.0, mode="sloppy")

    def test_constraint_gain_required(self, di):
        with pytest.raises(ValueError):
            assemble_ivp(di.problem, "third", 41, GainSet(K=np.array([[0.1]])))

    @pytest.mark.parametrize("name", ["di", "brach"])
    @pytest.mark.parametrize("gain", ["K", "K_g"])
    def test_gain_shapes_checked_at_assembly(self, name, gain, request):
        # A gain of another size is refused by name before the assembly
        # probe, where its product with the gradient or constraint failed.
        bench = request.getfixturevalue(name)
        k = bench.problem.m if gain == "K" else bench.problem.q
        gains = dataclasses.replace(bench.gains, **{gain: 0.1 * np.eye(k + 1)})
        with pytest.raises(ValueError, match=rf"^gain {gain} must have shape "
                                             rf"\({k}, {k}\), got \({k + 1}, {k + 1}\)$"):
            solve_benchmark(bench, "third", tau_end=1.0, gains=gains)

    def test_bad_initial_controls_shape(self, di):
        with pytest.raises(ValueError):
            assemble_ivp(di.problem, "third", 41, di.gains,
                         init_controls=np.zeros((40, 1)))

    def test_collapsed_initial_horizon(self, brach):
        with pytest.raises(TfCollapse):
            assemble_ivp(brach.problem, "third", 11, brach.gains, init_tf=5e-4)

    @pytest.mark.parametrize("method", ["third", "second"])
    def test_initial_horizon_on_a_fixed_horizon(self, di, method):
        # A fixed horizon's evolution grid is [t0, problem.tf], so a start
        # on any other horizon is refused, not built on it.
        with pytest.raises(ValueError, match="init_tf needs a free terminal time"):
            assemble_ivp(di.problem, method, 41, di.gains, init_tf=1.5)

    @pytest.mark.parametrize("method", ["third", "second"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_initial_horizon(self, brach, method, value):
        with pytest.raises(ValueError, match="init_tf must be finite"):
            assemble_ivp(brach.problem, method, 21, brach.gains, init_tf=value)

    @pytest.mark.parametrize("method", ["third", "second"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_initial_controls(self, brach, method, value):
        # A bad start is a bad option, not a solver failure at tau = 0.
        controls = np.zeros((21, 1))
        controls[5, 0] = value
        with pytest.raises(ValueError, match="init_controls must be finite"):
            assemble_ivp(brach.problem, method, 21, brach.gains,
                         init_controls=controls)

    @pytest.mark.parametrize("method", ["third", "second"])
    def test_initial_horizon_on_a_free_horizon(self, brach, method):
        # The coupled start is the shooting solve on [t0, init_tf].
        p = brach.problem
        system = assemble_ivp(p, method, 21, brach.gains, init_tf=1.2)
        _, states, tf = system.layout.unpack(system.y0)
        assert tf == 1.2
        if method == "second":
            grid = TimeGrid(21, p.t0, 1.2)
            ctrl = ControlTrajectory.from_values(grid, np.zeros((21, p.m)))
            assert np.array_equal(states, trajectory.shooting_nodes(p, ctrl, grid)[0])

    def test_coupled_method_starts_from_propagated_states(self, di):
        system = assemble_ivp(di.problem, "second", 41, di.gains)
        _, states, _ = system.layout.unpack(system.y0)
        expected = np.stack([1.0 + np.linspace(0, 2, 41), np.ones(41)], axis=1)
        assert np.max(np.abs(states - expected)) <= 1e-9

    @pytest.mark.parametrize("name", ["di", "brach"])
    def test_coupled_start_is_the_shooting_nodes(self, name, request):
        bench = request.getfixturevalue(name)
        p = bench.problem
        system = assemble_ivp(p, "second", 41, bench.gains)
        _, states, _ = system.layout.unpack(system.y0)
        grid = TimeGrid(41, p.t0, p.tf)
        ctrl = ControlTrajectory.from_values(grid, np.zeros((41, p.m)))
        nodes, *_ = trajectory.shooting_nodes(p, ctrl, grid)
        assert np.array_equal(states, nodes)
        assert np.array_equal(states[0], p.x0)

    @pytest.mark.parametrize("name", ["di", "brach"])
    def test_feasible_mode_rejects_an_infeasible_start(self, name, request):
        # From the zero controls both benchmarks miss their terminal
        # constraint by 3, a miss the feasible multiplier system never pulls
        # back.
        bench = request.getfixturevalue(name)
        with pytest.raises(ValueError, match=r"max \|g\(x\(tf\), tf\)\| = "
                                             r"3\.000e\+00 exceeds 1e-06"):
            assemble_ivp(bench.problem, "second", 41, bench.gains,
                         mode="feasible")

    def test_feasible_mode_takes_the_reference_start(self, di):
        grid = TimeGrid(41, di.problem.t0, di.problem.tf)
        controls = np.stack([di.reference.control(t) for t in grid.times])
        system = assemble_ivp(di.problem, "second", 41, di.gains,
                              init_controls=controls, mode="feasible")
        _, states, _ = system.layout.unpack(system.y0)
        assert np.max(np.abs(di.problem.constraint(states[-1], 2.0))) <= 1e-6

    def test_assembled_rhs_terminal_time_slot(self, brach):
        # The tf component of the assembled right-hand side must equal the
        # hand-evaluated rate -0.03 of the vertical-drop snapshot.
        system = assemble_ivp(brach.problem, "third", 101, brach.gains)
        rate = system.rhs(0.0, system.y0)
        assert rate[-1] == pytest.approx(-0.03, abs=1e-9)


class TestEvolve:
    def test_zero_span_records_initial_snapshot(self, di):
        system = assemble_ivp(di.problem, "third", 41, di.gains)
        history = evolve(system, 0.0)
        assert len(history.snapshots) == 1
        assert history.termination_reason == "tau_end"
        assert history.final.tau == 0.0
        assert history.final.J == 0.0

    def test_snapshot_selection(self, di):
        system = assemble_ivp(di.problem, "third", 41, di.gains)
        history = evolve(system, 2.0, early_stop=False)
        assert [s.tau for s in history.snapshots] == [0.0, 1.0, 2.0]

    def test_deterministic_reruns(self, di):
        system = assemble_ivp(di.problem, "third", 41, di.gains)
        h1 = evolve(system, 20.0, snapshot_taus=(0, 5, 20), early_stop=False)
        h2 = evolve(system, 20.0, snapshot_taus=(0, 5, 20), early_stop=False)
        for a, b in zip(h1.snapshots, h2.snapshots):
            assert np.array_equal(a.controls, b.controls)
            assert np.array_equal(a.states, b.states)
            assert a.J == b.J and a.tf == b.tf

    def test_early_stop_reports_convergence(self, di):
        # Tighter tau tolerances let the relaxation tail resolve deeply
        # enough to cross the residual thresholds before the final time.
        system = assemble_ivp(di.problem, "third", 41, di.gains)
        opts = IntegratorOptions(rtol=1e-6, atol=1e-9)
        history = evolve(system, 300.0, opts=opts, early_stop=True)
        assert history.termination_reason == "converged"
        assert history.final.tau < 300.0
        assert history.final.residuals.optimality_inf <= 1e-6
        assert history.final.residuals.constraint_inf <= 1e-6

    def test_failure_attaches_history(self, di):
        system = assemble_ivp(di.problem, "third", 41, di.gains)
        with pytest.raises(StepFailure) as info:
            evolve(system, 300.0, opts=IntegratorOptions(max_steps=3),
                   early_stop=False)
        history = info.value.history
        assert history.termination_reason == "StepFailure"
        assert len(history.snapshots) >= 1
        assert history.snapshots[0].tau == 0.0

    @staticmethod
    def _failing_run(monkeypatch, system, fail_at, poison=None, **kwargs):
        """``evolve`` with its tau-field failing at call ``fail_at``: by a
        raised SingularSystem, or by handing ``system.rhs`` the vector as
        ``poison`` changes it.  Returns the exception and the (tau, vector)
        pairs the integrator's ``on_step`` saw, the start first."""
        seen, calls = [(0.0, system.y0)], [0]

        def recording(field, y0, t_span, opts=None, on_step=None):
            def failing(tau, vec):
                calls[0] += 1
                if calls[0] != fail_at:
                    return field(tau, vec)
                if poison is None:
                    raise SingularSystem("injected")
                return field(tau, poison(vec.copy()))

            def watching(tau, vec):
                seen.append((tau, vec.copy()))
                return on_step(tau, vec)

            return rk45_integrate(failing, y0, t_span, opts, on_step=watching)

        monkeypatch.setattr(driver, "rk45_integrate", recording)
        with pytest.raises(VemError) as info:
            evolve(system, 300.0, early_stop=False, **kwargs)
        return info.value, seen

    @pytest.mark.parametrize("fail_at", [1, 2, 75])
    def test_failed_run_history_reads_its_accepted_steps(self, di, monkeypatch,
                                                         fail_at):
        # The failure carries exactly the steps on_step saw, and its
        # history reads that record by the finished run's rule: at each
        # requested tau up to the end reached, less a snapshot that raises,
        # the dense output there, and at the end the accepted state.
        system = assemble_ivp(di.problem, "third", 41, di.gains)
        snapshot = system.snapshot

        def flaky(tau, vec):
            if tau == 0.1:
                raise DegenerateGrid("injected")
            return snapshot(tau, vec)

        monkeypatch.setattr(system, "snapshot", flaky)
        requested = (0.0, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 300.0)
        exc, seen = self._failing_run(monkeypatch, system, fail_at,
                                      snapshot_taus=requested)
        assert isinstance(exc, SingularSystem)
        path = exc.path
        assert np.array_equal(path.ts, [tau for tau, _ in seen])
        assert np.array_equal(path.ys, [vec for _, vec in seen])
        history = exc.history
        assert history.termination_reason == "SingularSystem"
        expected = [tau for tau in driver._select_snapshots(requested, path.t_end)
                    if tau != 0.1]
        assert [s.tau for s in history.snapshots] == expected
        # At call 75 the run is past tau = 2, and the requested tau
        # between its steps are snapshotted where they were asked for.
        assert len(expected) == (1 if fail_at <= 2 else 7)
        if fail_at > 2:
            assert not set(expected[1:-1]) & set(path.ts)
        vecs = [system.layout.pack(snap.controls) for snap in history.snapshots]
        for tau, vec in zip(expected[:-1], vecs):
            assert np.array_equal(vec, path.eval(tau))
        assert history.final.tau == path.t_end
        assert np.array_equal(vecs[-1], path.y_end)

    def test_finished_run_ends_at_its_accepted_state(self, brach, monkeypatch):
        # The final snapshot of a finished run is the state the integrator
        # accepted at the end, bit for bit, not the dense output there,
        # which on this run differs from it in the last bits.
        paths = []

        def recording(*args, **kwargs):
            paths.append(rk45_integrate(*args, **kwargs))
            return paths[-1]

        monkeypatch.setattr(driver, "rk45_integrate", recording)
        system = assemble_ivp(brach.problem, "third", brach.default_nodes,
                              brach.gains)
        history = evolve(system, 30.0, early_stop=False)
        (path,) = paths
        final = history.final
        assert final.tau == path.t_end == 30.0
        assert np.array_equal(system.layout.pack(final.controls, tf=final.tf),
                              path.y_end)

    @pytest.mark.parametrize("end", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_horizon_is_a_solver_error(self, brach, monkeypatch, end):
        # A tau-run whose free horizon turns NaN or infinite ends with
        # DegenerateGrid from the horizon guard and its partial history,
        # not with TimeGrid's ValueError or, at -inf, a collapsed horizon.
        system = assemble_ivp(brach.problem, "third", 21, brach.gains)

        def poison(vec):
            vec[-1] = end
            return vec

        exc, seen = self._failing_run(monkeypatch, system, 40, poison)
        assert isinstance(exc, DegenerateGrid)
        assert "not finite" in str(exc)
        assert len(seen) > 1 and len(exc.history.snapshots) >= 2
        assert exc.history.termination_reason == "DegenerateGrid"


class TestEvaluationCache:
    def test_one_pipeline_per_distinct_vector(self, di, monkeypatch):
        # A control-only evaluation is one fused forward sweep.  With early
        # stop on, the convergence check after every accepted step, the
        # threshold scaling at y0 and the first field call reuse the
        # evaluation of the vector the last call saw, and a snapshot reads
        # that same cached evaluation instead of sweeping on its own.
        sweeps, others, seen, snapped = [], [], set(), []
        phase = ["other"]

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                if name == "fused_sweep":
                    sweeps.append(phase[0])
                else:
                    others.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("fused_sweep", "transition_stack", "propagate_states",
                     "propagate_with_cost", "path_cost"):
            monkeypatch.setattr(driver, name, counting(name, getattr(driver, name)))
        rhs, snapshot = EvolutionSystem.rhs, EvolutionSystem.snapshot
        evaluate, last = EvolutionSystem.evaluate, [None]

        def recording_evaluate(self, vec):
            evaluation = evaluate(self, vec)
            last[0] = np.asarray(vec, dtype=float).tobytes()
            return evaluation

        def recording_rhs(self, tau, vec):
            seen.add(np.asarray(vec, dtype=float).tobytes())
            phase[0] = "rhs"
            try:
                return rhs(self, tau, vec)
            finally:
                phase[0] = "other"

        def recording_snapshot(self, tau, vec):
            cached = np.asarray(vec, dtype=float).tobytes() == last[0]
            before = len(sweeps)
            phase[0] = "snapshot"
            try:
                record = snapshot(self, tau, vec)
            finally:
                phase[0] = "other"
            snapped.append((cached, len(sweeps) - before))
            return record

        monkeypatch.setattr(EvolutionSystem, "evaluate", recording_evaluate)
        monkeypatch.setattr(EvolutionSystem, "rhs", recording_rhs)
        monkeypatch.setattr(EvolutionSystem, "snapshot", recording_snapshot)
        system = assemble_ivp(di.problem, "third", 41, di.gains)
        history = evolve(system, 20.0, snapshot_taus=(0.0, 5.0, 20.0),
                         early_stop=True)
        assert len(history.snapshots) == 3
        # One sweep per distinct rhs vector; the convergence checks and the
        # threshold scaling add none.
        assert sweeps.count("rhs") == len(seen) > 0
        assert sweeps.count("other") == 0
        # A snapshot sweeps once when its vector is not the cached one and
        # not at all when it is.
        assert [added for _, added in snapped] == [
            0 if cached else 1 for cached, _ in snapped]
        # The run's end is snapshotted first, from the evaluation the last
        # step left; the earlier snapshots then evict it, so the same end
        # snapshotted again sweeps once and gives the same bits.
        assert snapped[0] == (True, 0)
        total = len(sweeps)
        final = system.snapshot(20.0, system.layout.pack(
            history.final.controls))
        assert snapped[-1] == (False, 1) and len(sweeps) == total + 1
        assert final.J == history.final.J
        # The control-only solve runs neither the propagation nor the
        # backward stack; each snapshot reads its cost along the states.
        assert others == ["path_cost"] * len(snapped)

    def test_coupled_solve_runs_no_forward_sweep(self, di, monkeypatch):
        # The coupled state rate takes its kernel from the backward stack,
        # so the forward transition matrices stay an oracle-only route.
        calls = []

        def counting_forward(*args, **kwargs):
            calls.append(None)
            return forward(*args, **kwargs)

        forward = trajectory._forward_stack
        monkeypatch.setattr(trajectory, "_forward_stack", counting_forward)
        _, report = solve_benchmark(di, "second", tau_end=5.0)
        assert report.ivp_dimension == 123
        assert calls == []

    def test_evaluation_does_not_depend_on_call_history(self, brach):
        # The shooting solve starts every evaluation from x0 at all nodes,
        # never from an earlier evaluation's states, so two systems that
        # saw different vectors before give the same bits for this one.
        seasoned = assemble_ivp(brach.problem, "third", 21, brach.gains)
        vec = seasoned.y0.copy()
        vec[:-1] = 0.3 * np.sin(np.arange(21.0))
        for bump in (0.1, -0.2):
            seasoned.rhs(0.0, vec + bump)
        fresh = assemble_ivp(brach.problem, "third", 21, brach.gains)
        assert np.array_equal(seasoned.rhs(0.0, vec), fresh.rhs(0.0, vec))
        a, b = seasoned.snapshot(0.0, vec), fresh.snapshot(0.0, vec)
        assert a.J == b.J
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.costates, b.costates)

    @pytest.mark.parametrize("method", ["third", "second"])
    def test_mutated_vector_misses_cache(self, brach, method):
        system = assemble_ivp(brach.problem, method, 21, brach.gains)
        vec = system.y0.copy()
        vec[-2] = 0.05             # the last node control; not the probed y0
        kept = vec.copy()
        before = system.residuals(vec)
        rate = system.rhs(0.0, vec)
        vec[-2] += 0.1             # changed in place
        # The old bytes still find the cached evaluation, which must not
        # see the change.
        assert system.residuals(kept) == before
        controls, _, _ = system.layout.unpack(kept)
        assert np.array_equal(system.snapshot(0.0, kept).controls, controls)
        # The changed vector misses the cache and is evaluated afresh.
        after = system.residuals(vec)
        fresh = assemble_ivp(brach.problem, method, 21, brach.gains)
        assert after == fresh.residuals(vec)
        assert after != before
        assert not np.array_equal(system.rhs(0.0, vec), rate)


def _oscillator():
    """x' = cos(3t) x + u on the fixed horizon [0, 20]: f_x rows that move
    with t alone, on intervals wide enough that the interval stencil
    refines past its first round."""
    bench = growing_horizon()
    return dataclasses.replace(bench, problem=dataclasses.replace(
        bench.problem, tf_mode="fixed", tf=20.0, name="oscillator"))


def _store_case(name, request):
    """(benchmark, start controls or None) for the store's bit test:
    "fixed" is the brachistochrone on the fixed horizon [0, 0.9], whose
    rows move while its widths stay (from u = 0.5, as the zero start's
    multiplier system is singular); "penalty" is the double integrator
    with a terminal penalty 5 |x(tf)|^2 in place of its constraint, whose
    lam_end moves while its blocks repeat."""
    if name == "oscillator":
        return _oscillator(), None
    if name == "fixed":
        brach = request.getfixturevalue("brach")
        problem = dataclasses.replace(brach.problem, tf_mode="fixed", tf=0.9)
        return (dataclasses.replace(brach, problem=problem),
                np.full((brach.default_nodes, 1), 0.5))
    if name == "penalty":
        di = request.getfixturevalue("di")
        problem = dataclasses.replace(
            di.problem, q=0, constraint=None, jac_gx=None, dg_dt=None,
            terminal_cost=lambda xf, tf: 5.0 * xf @ xf,
            grad_phix=lambda xf, tf: 10.0 * xf)
        return dataclasses.replace(di, problem=problem,
                                   gains=GainSet(K=np.array([[0.1]]))), None
    return request.getfixturevalue(name), None


class TestKeptBlocks:
    """A system keeps the Jacobian-derived blocks of its last evaluation
    (``trajectory.KeptBlocks``) and reuses them while the rows and widths
    they were built from repeat bit for bit."""

    @staticmethod
    def _builds(monkeypatch):
        """Calls of the two builders and of the two evaluations, by
        name."""
        counts = dict.fromkeys(("_tangent_chain", "_backward",
                                "fused_sweep", "transition_stack"), 0)

        def counting(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        for name in ("_tangent_chain", "_backward"):
            counting(trajectory, name)
        for name in ("fused_sweep", "transition_stack"):
            counting(driver, name)
        return counts

    @pytest.mark.parametrize("method", ["third", "second"])
    @pytest.mark.parametrize("name", ["di", "brach", "oscillator"])
    def test_reuse_changes_no_result(self, name, method, request):
        # One system evaluated at A, B and A again gives, at each, the
        # bits of a system that evaluates that vector first.
        bench = _oscillator() if name == "oscillator" else request.getfixturevalue(name)
        p, n_nodes = bench.problem, bench.default_nodes
        system = assemble_ivp(p, method, n_nodes, bench.gains)
        rng = np.random.default_rng(12)
        vecs = [system.y0 + 1e-2 * rng.standard_normal(system.dimension)
                for _ in range(2)]
        for vec in (vecs[0], vecs[1], vecs[0]):
            fresh = EvolutionSystem(p, bench.gains, method, n_nodes,
                                    IntegratorOptions(), system.y0)
            rate = system.rhs(0.0, vec)
            assert rate.tobytes() == fresh.rhs(0.0, vec).tobytes()
            assert system.residuals(vec) == fresh.residuals(vec)

    @pytest.mark.parametrize("method", ["third", "second"])
    @pytest.mark.parametrize("name", ["di", "brach", "oscillator", "fixed",
                                      "penalty"])
    def test_store_changes_no_bit(self, name, method, request, monkeypatch):
        # A solve whose store builds every value afresh, the evaluation's
        # included, records the same snapshots bit for bit.  The last two
        # cases move one key alone: the rows on a fixed horizon, and lam_end
        # under blocks that repeat.
        bench, start = _store_case(name, request)

        def recorded():
            history, _ = solve_benchmark(bench, method, tau_end=2.0,
                                         snapshot_taus=(0.0, 0.5, 2.0),
                                         early_stop=False, init_controls=start)
            return history.termination_reason, pickle.dumps(history.snapshots)

        kept = recorded()
        monkeypatch.setattr(trajectory.KeptBlocks, "get",
                            lambda self, slot, key, build: build())
        assert recorded() == kept

    def test_time_varying_rows_reuse_every_round(self, monkeypatch):
        # The oscillator's stencil takes more than one round, and rows that
        # move with t alone repeat at every evaluation on a fixed horizon:
        # every round is built once (past the start's shooting tangents).
        counts = self._builds(monkeypatch)
        bench = _oscillator()
        system = assemble_ivp(bench.problem, "second", bench.default_nodes,
                              bench.gains)
        built = counts["_tangent_chain"]
        assert built > 3
        system.rhs(0.0, system.y0 + 0.1)
        assert counts["_tangent_chain"] == built
        assert counts["_backward"] == 1

    @pytest.mark.parametrize("method", ["third", "second"])
    def test_double_integrator_builds_once_per_solve(self, di, method,
                                                     monkeypatch):
        # f_x and L_x do not move and the horizon is fixed: one set of
        # shooting tangents (the coupled start's), the tangents of stencil
        # rounds s = 1 and 2 (E_1 and E_2) on the coupled method,
        # and one backward solve, for the whole solve.
        counts = self._builds(monkeypatch)
        solve_benchmark(di, method, tau_end=5.0, early_stop=False)
        evaluations = counts["fused_sweep"] + counts["transition_stack"]
        assert evaluations > 10
        assert counts["_tangent_chain"] == (3 if method == "second" else 1)
        assert counts["_backward"] == 1

    @pytest.mark.parametrize("method", ["third", "second"])
    @pytest.mark.parametrize("make", ["brach", "shrinking"])
    def test_moving_rows_or_widths_rebuild_every_evaluation(
            self, make, method, request, monkeypatch):
        # The brachistochrone's f_x rows move with its controls; the
        # shrinking horizon's rows are zeros throughout, but its widths
        # move.  Either way each evaluation builds its own tangents: the
        # shooting solve's, or E_1, E_2 and any later stencil round's.  A
        # stack is solved again from tangents just rebuilt, so each
        # evaluation solves for its own stack, also on the shrinking
        # horizon, whose identity tangents give the same bits at any width.
        bench = (shrinking_horizon() if make == "shrinking"
                 else request.getfixturevalue(make))
        counts = self._builds(monkeypatch)
        solve_benchmark(bench, method, tau_end=0.5, early_stop=False)
        evaluations = counts["fused_sweep"] + counts["transition_stack"]
        assert evaluations > 10
        assert counts["_backward"] == evaluations
        if method == "third":
            assert counts["_tangent_chain"] == evaluations
        else:
            assert counts["_tangent_chain"] >= 2 * evaluations

    @pytest.mark.parametrize("method", ["third", "second"])
    @pytest.mark.parametrize("name", ["di", "brach", "shrinking", "penalty"])
    def test_stack_follows_its_tangents(self, name, method, request,
                                        monkeypatch):
        # The "stack" slot trusts the slot that produced its tangents (the
        # shooting solve's, or the coupled stencil's last round): tangents
        # just rebuilt always rebuild the stack, and kept tangents keep it
        # while lam_end repeats.  Over a short tau run the stack is built
        # once per evaluation where the rows or widths move (brachistochrone,
        # shrinking horizon) and once per solve on the double integrator;
        # the penalty's lam_end moves under tangents that repeat.
        bench = (shrinking_horizon() if name == "shrinking"
                 else _store_case(name, request)[0])
        producer = "tangents" if method == "third" else "round"
        log, get = [], trajectory.KeptBlocks.get

        def logging(self, slot, key, build):
            built = []

            def counted():
                built.append(slot)
                return build()

            value = get(self, slot, key, counted)
            log.append((slot if isinstance(slot, str) else slot[0], bool(built)))
            return value

        monkeypatch.setattr(trajectory.KeptBlocks, "get", logging)
        solve_benchmark(bench, method, tau_end=0.5, early_stop=False)
        stacks, fresh = [], None
        for slot, built in log:
            if slot == producer:
                fresh = built
            elif slot == "stack":
                stacks.append((fresh, built))
        evaluations = len(stacks)
        assert evaluations > 10
        assert all(built for fresh, built in stacks if fresh)
        rebuilt = sum(built for _, built in stacks)
        if name in ("brach", "shrinking"):
            assert rebuilt == evaluations
        elif name == "di":
            assert rebuilt == 1
        else:
            assert not any(fresh for fresh, _ in stacks[1:])
            assert 1 < rebuilt <= evaluations


def _recording(bench, calls, names):
    """The benchmark with the named problem callbacks appending
    (name, number of rows) to ``calls``; a point call counts one row."""
    problem = bench.problem

    def wrap(name):
        fn = getattr(problem, name)

        def wrapper(x, u, t):
            calls.append((name, len(t) if name.endswith("_rows") else 1))
            return fn(x, u, t)
        return wrapper

    return dataclasses.replace(bench, problem=dataclasses.replace(
        problem, **{name: wrap(name) for name in names}))


class TestRowCallbacks:
    @pytest.mark.parametrize("method,n_nodes", [("third", 321), ("second", 101)])
    def test_solver_calls_no_point_jacobians(self, brach, method, n_nodes):
        calls = []
        bench = _recording(brach, calls, ("jac_fx", "jac_fu"))
        solve_benchmark(bench, method, n_nodes=n_nodes, tau_end=2.0)
        assert calls == []

    def test_one_row_call_per_evaluation_and_step_attempt(self, brach,
                                                          monkeypatch):
        # f_u and L_u: one N-row call per evaluation.  A control-only
        # evaluation's shooting solve on the affine brachistochrone, with
        # one substep accepted: two Newton passes, each four (N-1)-row
        # dynamics calls and one 4(N-1)-row f_x and L_x call, and the
        # substep check's one-row rate at tf: nine dynamics calls.  The
        # stencil's controls come from the spline
        # coefficients, with no control lookup.  No other one-row call, no
        # Dormand-Prince run, and no running cost inside a sweep: snapshots
        # read it along the Hermite state rows, whose node rates are one
        # N-row dynamics call.  The shipped problems write row forms only,
        # so the end-node bracket of each evaluation is one one-row
        # dynamics call.
        calls, sweeps, lookups, phase = [], [], [], ["other"]

        def phased(name, fn):
            def wrapper(*args, **kwargs):
                outer, phase[0] = phase[0], name
                try:
                    return fn(*args, **kwargs)
                finally:
                    phase[0] = outer
            return wrapper

        def counting_sweep(*args, **kwargs):
            sweeps.append(None)
            return fused(*args, **kwargs)

        def sized_eval(self, ts):
            if phase[0] == "sweep":
                lookups.append(np.size(ts))
            return control_eval(self, ts)

        def no_inner_run(*args, **kwargs):
            raise AssertionError("inner Dormand-Prince run")

        fused, control_eval = driver.fused_sweep, trajectory.ControlTrajectory.eval
        monkeypatch.setattr(driver, "fused_sweep",
                            phased("sweep", counting_sweep))
        monkeypatch.setattr(trajectory, "rk45_integrate", no_inner_run)
        monkeypatch.setattr(trajectory.ControlTrajectory, "eval", sized_eval)
        monkeypatch.setattr(EvolutionSystem, "snapshot",
                            phased("snapshot", EvolutionSystem.snapshot))
        problem = brach.problem

        def recorded(name):
            fn = getattr(problem, name)

            def rows(xs, us, ts):
                calls.append((phase[0], name, len(ts)))
                return fn(xs, us, ts)
            return rows

        bench = dataclasses.replace(brach, problem=dataclasses.replace(
            problem, **{name + "_rows": recorded(name + "_rows")
                        for name in ROW_FORMS}))
        history = solve_benchmark(bench, "third", n_nodes=41, tau_end=2.0)[0]
        assert len(history.snapshots) > 0 and len(sweeps) > 0

        def sizes(name, *where):
            return [rows for tag, called, rows in calls
                    if called == name and (not where or tag in where)]

        in_sweeps = len(sweeps)
        assert sizes("dynamics_rows", "sweep") == \
            ([40] * 8 + [1]) * in_sweeps
        assert sizes("jac_fx_rows", "sweep") == [160] * 2 * in_sweeps
        assert sizes("grad_lx_rows", "sweep") == [160] * 2 * in_sweeps
        assert lookups == []
        assert sizes("jac_fu_rows") == sizes("grad_lu_rows") == [41] * in_sweeps
        assert sizes("running_cost_rows", "sweep") == []
        assert len(sizes("running_cost_rows", "snapshot")) >= len(history.snapshots)
        # The end snapshot, taken first, reads the evaluation the last step
        # left, so only the earlier ones evaluate.
        assert sizes("dynamics_rows", "snapshot") == \
            [41] + [1, 41] * (len(history.snapshots) - 1)
        assert sizes("dynamics_rows", "other") == \
            [1] * (in_sweeps - len(history.snapshots) + 1)


    @pytest.mark.parametrize("method", ["third", "second"])
    @pytest.mark.parametrize("name", ["double-integrator", "brachistochrone"])
    def test_read_only_row_arrays(self, name, method):
        # The solver never writes into an array a callback returns: with
        # every row form's output read-only (and so every one-row point
        # form's), both methods give the shipped problem's history bit for
        # bit.
        bench = get_benchmark(name)

        def frozen(fn):
            def rows(xs, us, ts):
                out = np.asarray(fn(xs, us, ts), dtype=float)
                out.flags.writeable = False
                return out
            return rows

        problem = dataclasses.replace(bench.problem, **{
            name + "_rows": frozen(getattr(bench.problem, name + "_rows"))
            for name in ROW_FORMS})
        shipped, read_only = (
            solve_benchmark(b, method, tau_end=5.0)[0]
            for b in (bench, dataclasses.replace(bench, problem=problem)))
        assert read_only.termination_reason == shipped.termination_reason
        assert len(read_only.snapshots) == len(shipped.snapshots)
        for a, b in zip(read_only.snapshots, shipped.snapshots):
            for field in ("times", "controls", "states", "costates", "pi"):
                assert np.asarray(getattr(a, field)).tobytes() == \
                    np.asarray(getattr(b, field)).tobytes()
            assert (a.tau, a.J, a.tf, a.residuals) == (b.tau, b.J, b.tf, b.residuals)


class TestModifiedMode:
    def test_one_defect_loop_per_rhs(self, brach, monkeypatch):
        # The defects are formed once per evaluation, as one record that
        # the multiplier system and the state rate share; terms, pi and
        # rate rebuilt from the evaluation's record give the same bits.
        calls = []
        defects = second.SecondEqSnapshot.defects

        def counting_defects(self, problem):
            calls.append(None)
            return defects(self, problem)

        monkeypatch.setattr(second.SecondEqSnapshot, "defects", counting_defects)
        system = assemble_ivp(brach.problem, "second", 21, brach.gains,
                              mode="modified")
        controls, states, tf = system.layout.unpack(system.y0)
        bumped = states + 1e-3 * np.sin(np.arange(states.size)).reshape(states.shape)
        vec = system.layout.pack(controls, states=bumped, tf=tf)
        calls.clear()
        rate = system.rhs(0.0, vec)
        assert len(calls) == 1

        ev = system.evaluate(vec)
        assert np.max(np.abs(ev.defects.dynamics)) > 1e-3
        terms = third.multiplier_terms(brach.problem, ev.nodes, ev.stack, ev.defects)
        pi = second.multiplier_second(terms, ev.gu, brach.gains, True)
        assert np.array_equal(pi, ev.pi)
        own = system._rate(dataclasses.replace(ev, terms=terms, pi=pi))
        assert np.array_equal(rate, own)


def _counted(bench, calls, names):
    """The benchmark with the named point callbacks appending their name
    to ``calls``."""
    problem = bench.problem

    def counted(name):
        fn = getattr(problem, name)

        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    return dataclasses.replace(bench, problem=dataclasses.replace(
        problem, **{name: counted(name) for name in names}))


class TestTerminalBracket:
    @pytest.mark.parametrize("method,mode", [("third", "quasi_feasible"),
                                             ("second", "quasi_feasible"),
                                             ("second", "modified")])
    def test_formed_once_per_evaluation(self, brach, method, mode):
        # One end-node read per tau-RHS in every mode: g, g_x, phi_x (the
        # adjoint's end value), and the dynamics, phi_t and g_t of the one
        # terminal bracket, whose terms along the dynamics the residual
        # reads and whose terms along the end-node rate (the snapshot's
        # derivative in modified mode) the multiplier system and the
        # terminal-time rate read.  The residuals are algebra on those
        # terms and call nothing.
        calls = []
        p = _counted(brach, calls, ("dynamics", "dphi_dt", "dg_dt", "constraint",
                                    "jac_gx", "grad_phix")).problem
        system = assemble_ivp(p, method, 21, brach.gains, mode=mode)
        vec = system.y0 * (1.0 + 1e-3)
        calls.clear()
        system.rhs(0.0, vec)
        assert sorted(calls) == ["constraint", "dg_dt", "dphi_dt", "dynamics",
                                 "grad_phix", "jac_gx"]
        calls.clear()
        system.residuals(vec)
        assert calls == []

    @pytest.mark.parametrize("method,mode", [("third", "quasi_feasible"),
                                             ("second", "quasi_feasible"),
                                             ("second", "modified")],
                             ids=["third", "second", "second-modified"])
    @pytest.mark.parametrize("name", ["double-integrator", "brachistochrone"])
    def test_whole_run_reads_g_with_g_x(self, name, method, mode):
        # One g read beside each g_x read: the residual checks of the
        # early stop and the snapshots read the evaluation's g.  On the
        # free horizon the end-node dynamics, phi_t and g_t are read with
        # them, once per evaluation, in every mode.
        names = ("constraint", "jac_gx", "dynamics", "dphi_dt", "dg_dt")
        calls = []
        solve_benchmark(_counted(get_benchmark(name), calls, names), method,
                        mode=mode)
        counts = [calls.count(callback) for callback in names]
        assert 0 < counts[0] == counts[1]
        if name == "brachistochrone":
            assert counts[2:] == [counts[0]] * 3

    @pytest.mark.parametrize("method", ["third", "second"])
    def test_one_element_running_cost(self, brach, method):
        # A running cost that returns a one-element array is a scalar at
        # the end node too, as in its row form: the brachistochrone given
        # L = zeros(1) (its L-gradient rows derived by central differences,
        # exact zeros) solves to the bits of the shipped problem, whose L
        # is the zero default, and the multiplier oracle reads it too.
        given = dataclasses.replace(brach, problem=dataclasses.replace(
            brach.problem, running_cost=lambda x, u, t: np.zeros(1)))
        system = assemble_ivp(given.problem, method, 21, brach.gains)
        ev = system.evaluate(system.y0)
        mat, r, *_ = checks.multiplier_assembly(given.problem, ev.nodes, ev.stack,
                                                ev.gu, brach.gains)
        assert np.isfinite(mat).all() and np.isfinite(r).all()

        def recorded(bench):
            history, _ = solve_benchmark(bench, method, n_nodes=21, tau_end=2.0,
                                         snapshot_taus=(0.0, 2.0),
                                         early_stop=False)
            return pickle.dumps(history.snapshots)

        assert recorded(given) == recorded(brach)


class TestConditioning:
    GAINS = GainSet(K=np.array([[0.1]]), K_g=np.array([[0.1]]))

    @pytest.mark.parametrize("a", [14.0, 20.0])
    def test_saddle_past_the_limit_raises(self, a):
        # cond(Phi_N) = e^(2a): e^28 lies just past the limit, e^40 far
        # past it; the adjoint cannot be trusted.
        estimate = r"1\.441e\+12" if a == 14.0 else r"\d\.\d+e\+\d+"
        with pytest.raises(SingularSystem,
                           match=rf"condition estimate {estimate} exceeds"):
            system = assemble_ivp(saddle_problem(a), "third", 41, self.GAINS)
            evolve(system, 5.0, early_stop=False)

    def test_coupled_saddle_past_the_limit_evolves(self):
        # The coupled method never forms the forward matrices, and its
        # starting states come from the shooting solve without the guard.
        system = assemble_ivp(saddle_problem(20.0), "second", 41, self.GAINS)
        history = evolve(system, 5.0, early_stop=False)
        assert history.termination_reason == "tau_end"
        assert history.final.tau == 5.0
        assert np.isfinite(history.final.J)
        assert np.all(np.isfinite(history.final.controls))

    @pytest.mark.parametrize("a", [10.0, 13.0])
    def test_saddle_below_the_limit_solves(self, a):
        # cond(Phi_N) = e^(2a): e^20 is about 5e8, e^26 about 2e11.
        system = assemble_ivp(saddle_problem(a), "third", 41, self.GAINS)
        history = evolve(system, 5.0, early_stop=False)
        assert history.termination_reason == "tau_end"
        assert np.isfinite(history.final.J)
        assert np.all(np.isfinite(history.final.controls))


class TestCostEvaluation:
    def test_propagated_cost_at_reference(self, di):
        grid = TimeGrid(41, 0.0, 2.0)
        ctrl = ControlTrajectory.from_values(
            grid, np.stack([di.reference.control(t) for t in grid.times]))
        states, cost = propagate_with_cost(di.problem, ctrl, grid)
        assert cost == pytest.approx(3.25, abs=1e-6)
        assert np.max(np.abs(states.values[-1])) <= 1e-6

    def test_path_cost_matches_propagated_cost(self, di):
        grid = TimeGrid(41, 0.0, 2.0)
        ctrl = ControlTrajectory.from_values(
            grid, np.stack([di.reference.control(t) for t in grid.times]))
        states, cost = propagate_with_cost(di.problem, ctrl, grid)
        along_path = path_cost(di.problem, states, ctrl, grid)
        assert along_path == pytest.approx(cost, abs=1e-6)


def test_coupled_brachistochrone_at_181_nodes(brach):
    # Unlike at N = 201 (below), the interval stencil stays inside its
    # substep budget for the whole run.
    history, _ = solve_benchmark(brach, "second", n_nodes=181, tau_end=300.0,
                                 early_stop=False)
    assert history.termination_reason == "tau_end"


@pytest.mark.xfail(strict=True, raises=StepFailure,
                   reason="the coupled brachistochrone's interval stencil "
                          "exceeds its substep budget near tau = 8.5 at "
                          "N = 201")
def test_coupled_brachistochrone_at_201_nodes(brach):
    # The pre-regression run reached tau = 300 with e_x 3.9e-2; today the
    # stencil fails near tau = 8.5.
    _, report = solve_benchmark(brach, "second", n_nodes=201, tau_end=300.0,
                                early_stop=False)
    assert float(np.max(report.e_x)) <= 3.9e-2


class TestSummarize:
    def test_self_comparison_hits_discretization_floor(self, di):
        system = assemble_ivp(
            di.problem, "third", 41, di.gains,
            init_controls=np.stack([di.reference.control(t)
                                    for t in np.linspace(0, 2, 41)]))
        history = evolve(system, 0.0)
        report = summarize(system, history, di.reference)
        assert report.e_J <= 1e-6
        assert np.max(report.e_u) <= 1e-12
        assert np.max(report.e_x) <= 1e-6

    def test_without_reference(self, di):
        system = assemble_ivp(di.problem, "third", 41, di.gains)
        history = evolve(system, 0.0)
        report = summarize(system, history)
        assert report.e_J is None and report.e_u is None and report.e_x is None
        assert report.ivp_dimension == 41

    @pytest.mark.parametrize("tau_end", [np.inf, -1.0, np.nan])
    def test_solve_benchmark_checks_tau_end_before_assembly(self, tau_end):
        # The saddle fails its conditioning guard while the IVP is
        # assembled, so only a check ahead of assembly names the option.
        with pytest.raises(ValueError,
                           match="^tau_end must be finite and non-negative$"):
            solve_benchmark(saddle_benchmark(), "third", tau_end=tau_end)

    @pytest.mark.parametrize("tau_end", [1e-20, 1e-14, 5e-14])
    def test_solve_benchmark_checks_short_tau_end_before_assembly(self, tau_end):
        # The integrator's span rule, not a threshold of its own: a span
        # whose default step cap is below the stepper's resolution.
        with pytest.raises(ValueError, match="^tau_end .* is too short to step"):
            solve_benchmark(saddle_benchmark(), "third", tau_end=tau_end)

    def test_shortest_steppable_tau_end_runs(self, di):
        history = evolve(assemble_ivp(di.problem, "third", 41, di.gains), 1e-13)
        assert history.termination_reason == "tau_end"
        # The last step reaches tau_end rather than leave one resolution
        # (1e-14) unstepped.
        assert history.final.tau == 1e-13

    def test_solve_benchmark_wrapper(self, di):
        history, report = solve_benchmark(di, "third", tau_end=1.0,
                                          snapshot_taus=(0.0, 1.0),
                                          early_stop=False)
        assert report.wall_seconds is not None and report.wall_seconds > 0.0
        assert report.problem == "double-integrator"
        assert report.method == "third"
        assert len(history.snapshots) == 2
