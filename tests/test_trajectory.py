import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import smooth_controls
from vem import (
    ControlTrajectory,
    IntegratorOptions,
    OcpProblem,
    TimeGrid,
    assemble_ivp,
    evolve,
    propagate_states,
    transition_stack,
)
from vem import checks, driver, second, trajectory
from vem.errors import NonFiniteDynamics, NonFiniteField, StepFailure
from vem.problems import brachistochrone, double_integrator, tracking_fixture
from vem.rk45 import rk45_integrate

TIGHT = IntegratorOptions(rtol=1e-10, atol=1e-12)


def _state_cost_problem(a_mat):
    """x' = A x + [0, u] with a state cost and a terminal cost: n = 2, a
    non-symmetric f_x and a nonzero L_x."""
    return OcpProblem(
        n=2, m=1, q=0, t0=0.0, x0=np.array([1.0, -0.5]), tf_mode="fixed",
        tf=1.5, dynamics=lambda x, u, t: a_mat @ x + np.array([0.0, u[0]]),
        jac_fx_rows=lambda xs, us, ts: np.repeat(a_mat[None], len(ts), axis=0),
        running_cost=lambda x, u, t: 0.5 * (x[0] ** 2 + 3.0 * x[1] ** 2 + u[0] ** 2),
        grad_lx_rows=lambda xs, us, ts: xs * np.array([1.0, 3.0]),
        terminal_cost=lambda xf, tf: xf[0] * xf[1],
        grad_phix=lambda xf, tf: xf[::-1].copy())


class TestTimeGrid:
    def test_normalized_endpoints(self):
        grid = TimeGrid(11, 1.0, 3.0)
        assert grid.sigma[0] == 0.0 and grid.sigma[-1] == 1.0
        assert grid.times[0] == 1.0 and grid.times[-1] == 3.0
        assert np.all(np.diff(grid.times) > 0.0)

    def test_rescaling_keeps_sigma(self):
        grid = TimeGrid(9, 0.0, 1.0)
        stretched = grid.with_tf(2.5)
        assert np.array_equal(grid.sigma, stretched.sigma)
        assert np.allclose(stretched.times, 2.5 * grid.sigma)

    def test_minimum_nodes(self):
        with pytest.raises(ValueError):
            TimeGrid(3, 0.0, 1.0)

    def test_degenerate_horizon(self):
        with pytest.raises(ValueError):
            TimeGrid(5, 1.0, 1.0)


class TestPropagation:
    def test_zero_control_double_integrator(self, di):
        grid = TimeGrid(41, 0.0, 2.0)
        ctrl = ControlTrajectory.from_values(grid, np.zeros((41, 1)))
        states = propagate_states(di.problem, ctrl, grid)
        expected = np.stack([1.0 + grid.times, np.ones(41)], axis=1)
        assert np.max(np.abs(states.values - expected)) <= 1e-9
        assert np.array_equal(states.values[0], di.problem.x0)

    def test_reference_control_hits_terminal_constraint(self, di):
        grid = TimeGrid(41, 0.0, 2.0)
        ctrl = ControlTrajectory.from_values(
            grid, np.stack([di.reference.control(t) for t in grid.times]))
        states = propagate_states(di.problem, ctrl, grid)
        assert np.max(np.abs(states.values[-1])) <= 1e-5
        x_ref = np.stack([di.reference.state(t) for t in grid.times])
        assert np.max(np.abs(states.values - x_ref)) <= 1e-6

    def test_zero_control_brachistochrone(self, brach):
        # u = 0 is a vertical drop: x = 0, y = -5 t^2, V = 10 t.
        grid = TimeGrid(101, 0.0, 1.0)
        ctrl = ControlTrajectory.from_values(grid, np.zeros((101, 1)))
        states = propagate_states(brach.problem, ctrl, grid)
        t = grid.times
        expected = np.stack([np.zeros_like(t), -5.0 * t**2, 10.0 * t], axis=1)
        assert np.max(np.abs(states.values - expected)) <= 1e-9


class TestTransitionStack:
    def test_double_integrator_closed_form(self, di):
        grid = TimeGrid(41, 0.0, 2.0)
        ctrl = ControlTrajectory.from_values(grid, np.zeros((41, 1)))
        states = propagate_states(di.problem, ctrl, grid)
        stack = transition_stack(di.problem, states, ctrl)
        assert np.array_equal(stack.psi[-1], np.eye(2))
        # Psi(t) is the transpose of exp(A (tf - t)).
        assert np.max(np.abs(stack.psi[0] - np.array([[1.0, 0.0], [2.0, 1.0]]))) <= 1e-9
        for i in (0, 10, 25, 40):
            expected = np.array([[1.0, 0.0], [2.0 - grid.times[i], 1.0]])
            assert np.max(np.abs(stack.psi[i] - expected)) <= 1e-9

    def test_identity_flow_for_state_independent_dynamics(self):
        from vem import OcpProblem

        p = OcpProblem(n=1, m=1, q=0, t0=0.0, x0=np.zeros(1), tf_mode="fixed",
                       tf=1.0, dynamics=lambda x, u, t: np.array([u[0]]),
                       jac_fx=lambda x, u, t: np.zeros((1, 1)),
                       jac_fu=lambda x, u, t: np.eye(1))
        grid = TimeGrid(11, 0.0, 1.0)
        ctrl = ControlTrajectory.from_values(grid, np.ones((11, 1)))
        states = propagate_states(p, ctrl, grid)
        stack = transition_stack(p, states, ctrl)
        assert np.max(np.abs(stack.psi - np.eye(1))) <= 1e-12

    @pytest.mark.parametrize("factory", [double_integrator, brachistochrone])
    def test_backward_matches_forward(self, factory):
        bench = factory()
        p = bench.problem
        rng = np.random.default_rng(11)
        grid = TimeGrid(21, p.t0, p.tf)
        ctrl = ControlTrajectory.from_values(grid, smooth_controls(grid, p.m, rng))
        states = propagate_states(p, ctrl, grid, TIGHT)
        stack = transition_stack(p, states, ctrl, TIGHT)
        fwd = stack.forward_matrices()
        worst = 0.0
        for i in range(grid.n_nodes):
            direct = np.linalg.solve(fwd[i].T, fwd[-1].T).T  # Phi(tf, t_i)
            worst = max(worst, float(np.max(np.abs(stack.psi[i] - direct.T))))
        assert worst <= 1e-8


class TestForwardMatrices:
    @pytest.fixture()
    def di_stack(self, di):
        grid = TimeGrid(21, 0.0, 2.0)
        ctrl = ControlTrajectory.from_values(grid, np.zeros((21, 1)))
        states = propagate_states(di.problem, ctrl, grid, TIGHT)
        return grid, transition_stack(di.problem, states, ctrl, TIGHT)

    def test_start_at_identity(self, di_stack):
        _, stack = di_stack
        assert np.array_equal(stack.forward_matrices()[0], np.eye(2))

    def test_closed_form(self, di_stack):
        grid, stack = di_stack
        fwd = stack.forward_matrices()
        for i in (0, 2, 13, 20):
            expected = np.array([[1.0, grid.times[i]], [0.0, 1.0]])
            assert np.max(np.abs(fwd[i] - expected)) <= 1e-9

    def test_consistent_with_psi(self, di_stack):
        _, stack = di_stack
        fwd = stack.forward_matrices()
        for i in (0, 9, 17):
            # Phi(tf, t_i) = Phi(tf, t0) Phi(t_i, t0)^{-1}
            full = np.linalg.solve(fwd[i].T, fwd[-1].T).T
            assert np.max(np.abs(full.T - stack.psi[i])) <= 1e-8


class TestFusedSweep:
    def test_matches_propagation_and_backward_sweep(self):
        # The fused-vs-backward invariant of ``vem check invariants``: x,
        # Psi, the adjoint and the cost against propagation, the backward
        # sweep and the path cost, at TIGHT on three problems.
        ok, detail = checks._check_fused_vs_backward(seed=0)
        assert ok, detail

    def test_state_cost_through_a_nonsymmetric_flow(self):
        # C' = Phi^T L_x needs a transpose that n = 1 and a zero L_x hide:
        # a double integrator with a state cost and a terminal cost.
        problem = _state_cost_problem(np.array([[0.0, 1.0], [0.0, -0.3]]))
        gap = checks._fused_gap(SimpleNamespace(problem=problem), 41,
                                np.random.default_rng(2))
        assert gap <= 1e-8

    @pytest.mark.parametrize("make", [double_integrator, brachistochrone,
                                      tracking_fixture])
    def test_pinned_end_values(self, make):
        p = make().problem
        grid = TimeGrid(21, p.t0, p.tf)
        ctrl = ControlTrajectory.from_values(
            grid, smooth_controls(grid, p.m, np.random.default_rng(9)))
        states, stack, cost = trajectory.fused_sweep(p, ctrl, grid)
        assert np.array_equal(states.values[0], p.x0)
        assert np.array_equal(stack.forward_matrices()[0], np.eye(p.n))
        assert np.array_equal(stack.psi[-1], np.eye(p.n))
        assert np.array_equal(stack.adjoint[-1],
                              p.grad_phix(states.values[-1], grid.tf))
        # Psi_i = Phi(tf, t_i)^T composed from the stored forward matrices.
        fwd = stack.forward_matrices()
        composed = np.linalg.solve(np.swapaxes(fwd, 1, 2), fwd[-1].T)
        assert np.max(np.abs(composed - stack.psi)) <= 1e-12
        assert np.isfinite(cost())

    def test_double_integrator_closed_form(self, di):
        # Psi_i = [[1, 0], [tf - t_i, 1]] and, without L_x or phi, the
        # adjoint is zero.
        grid = TimeGrid(21, 0.0, 2.0)
        ctrl = ControlTrajectory.from_values(grid, np.zeros((21, 1)))
        _, stack, _ = trajectory.fused_sweep(di.problem, ctrl, grid)
        for i, t in enumerate(grid.times):
            exact = np.array([[1.0, 0.0], [2.0 - t, 1.0]])
            assert np.max(np.abs(stack.psi[i] - exact)) <= 1e-12
        assert np.max(np.abs(stack.adjoint)) <= 1e-12


def _augmented_sweep(problem, ctrl, grid, opts):
    """Oracle for the tangent pass: z = [x, Phi, C, running cost]
    integrated as one system from [x0, I, 0, 0].  Returns the path, the
    node values of x, Phi and C, and J."""
    n = problem.n
    nn = n * n

    def field(t, z):
        x, phi = z[:n], z[n:n + nn].reshape(n, n)
        u = ctrl.eval(t)
        xs, us, ts = x[None], u[None], np.array([t])
        out = np.empty(z.size)
        out[:n] = problem.dynamics(x, u, t)
        out[n:n + nn] = (problem.jac_fx_rows(xs, us, ts)[0] @ phi).ravel()
        out[n + nn:-1] = problem.grad_lx_rows(xs, us, ts)[0] @ phi
        out[-1] = float(problem.running_cost(x, u, t))
        return out

    z0 = np.concatenate([problem.x0, np.eye(n).ravel(), np.zeros(n + 1)])
    path = rk45_integrate(field, z0, (grid.t0, grid.tf), opts)
    z = path.eval(grid.times)
    cost = float(problem.terminal_cost(z[-1, :n], grid.tf)) + float(path.y_end[-1])
    return (path, z[:, :n], z[:, n:n + nn].reshape(-1, n, n),
            z[:, n + nn:-1], cost)


class TestTangentPass:
    """The x-only sweep's tangent pass against the augmented field on the
    same steps: Dormand-Prince applied to [x, Phi, C, cost] gives the same
    Phi, C and cost as the tangent of the x steps."""

    PROBLEMS = {
        "double-integrator": lambda: double_integrator().problem,
        "brachistochrone": lambda: brachistochrone().problem,
        "tracking": lambda: tracking_fixture().problem,
        "state-cost": lambda: _state_cost_problem(
            np.array([[0.0, 1.0], [0.0, -0.3]])),
    }

    @staticmethod
    def _relative(a, b):
        return float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(b))))

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_matches_augmented_field_on_the_same_steps(self, name):
        p = self.PROBLEMS[name]()
        grid = TimeGrid(21, p.t0, p.tf)
        ctrl = ControlTrajectory.from_values(
            grid, smooth_controls(grid, p.m, np.random.default_rng(5)))
        # A fixed step small enough that neither run rejects one.
        h = (grid.tf - grid.t0) / 64
        opts = IntegratorOptions(initial_step=h, max_step=h)
        states, stack, cost = trajectory.fused_sweep(p, ctrl, grid, opts)
        path, x, phi, c, oracle_cost = _augmented_sweep(p, ctrl, grid, opts)
        assert len(states.path.hs) == len(path.hs) == 64
        assert np.array_equal(states.path.hs, path.hs)
        fwd = stack.forward_matrices()
        assert self._relative(states.values, x) <= 1e-12
        assert self._relative(fwd, phi) <= 1e-12
        # The oracle's adjoint by the same algebra as the sweep's.
        lam_end = p.grad_phix(x[-1], grid.tf)
        inv_t = np.swapaxes(np.linalg.inv(phi), 1, 2)
        adjoint = (inv_t @ (phi[-1].T @ lam_end + c[-1] - c)[:, :, None])[:, :, 0]
        assert self._relative(stack.adjoint, adjoint) <= 1e-12
        # C_i = C_0 + lam_0 - Phi_i^T lam_i with C_0 = 0, read off the
        # sweep's adjoint.
        swept_c = stack.adjoint[0] - (np.swapaxes(fwd, 1, 2)
                                      @ stack.adjoint[:, :, None])[:, :, 0]
        assert self._relative(swept_c, c) <= 1e-12
        assert abs(cost() - oracle_cost) <= 1e-12 * max(1.0, abs(oracle_cost))

    def test_non_finite_stage_row_raises(self, brach):
        # A NaN in one stage row of f_x; the x sweep itself stays finite.
        rows = brach.problem.jac_fx_rows

        def poisoned(xs, us, ts):
            out = np.array(rows(xs, us, ts), dtype=float)
            if len(ts) > 1:
                out[3, 0, 0] = np.nan
            return out

        p = dataclasses.replace(brach.problem, jac_fx_rows=poisoned)
        grid = TimeGrid(21, p.t0, p.tf)
        ctrl = ControlTrajectory.from_values(grid, np.zeros((21, p.m)))
        with pytest.raises(NonFiniteDynamics):
            trajectory.fused_sweep(p, ctrl, grid)


class TestBatchedStack:
    @staticmethod
    def _along(problem, seed=4, n_nodes=21, opts=TIGHT):
        grid = TimeGrid(n_nodes, problem.t0, problem.tf)
        ctrl = ControlTrajectory.from_values(
            grid, smooth_controls(grid, problem.m, np.random.default_rng(seed)))
        return grid, ctrl, propagate_states(problem, ctrl, grid, opts)

    @staticmethod
    def _counting(problem, calls):
        """The problem with its f_x and L_x row calls recorded as
        (name, rows)."""
        def wrap(name):
            fn = getattr(problem, name)

            def rows(xs, us, ts):
                calls.append((name, len(ts)))
                return fn(xs, us, ts)
            return rows

        return dataclasses.replace(problem, jac_fx_rows=wrap("jac_fx_rows"),
                                   grad_lx_rows=wrap("grad_lx_rows"))

    def test_double_integrator_closed_form(self, di):
        # RK4 is exact for a constant f_x, so only rounding remains:
        # Psi_i = [[1, 0], [tf - t_i, 1]] and, without L_x or phi, lam = 0.
        grid = TimeGrid(41, 0.0, 2.0)
        ctrl = ControlTrajectory.from_values(grid, np.zeros((41, 1)))
        states = propagate_states(di.problem, ctrl, grid)
        stack = transition_stack(di.problem, states, ctrl)
        for i, t in enumerate(grid.times):
            exact = np.array([[1.0, 0.0], [2.0 - t, 1.0]])
            assert np.max(np.abs(stack.psi[i] - exact)) <= 1e-14
        assert np.array_equal(stack.psi[-1], np.eye(2))
        assert np.max(np.abs(stack.adjoint)) <= 1e-14

    @pytest.mark.parametrize("make", [double_integrator, brachistochrone,
                                      tracking_fixture])
    def test_matches_forward_stack_and_fused_sweep(self, make):
        # Psi against the forward transition matrices of an adaptive
        # Dormand-Prince sweep, lam against the fused sweep's algebraic
        # adjoint, both at TIGHT.
        p = make().problem
        grid, ctrl, states = self._along(p)
        stack = transition_stack(p, states, ctrl, TIGHT)
        fwd = trajectory._forward_stack(p, states, ctrl, grid, TIGHT)
        composed = np.linalg.solve(np.swapaxes(fwd, 1, 2), fwd[-1].T)
        assert np.max(np.abs(stack.psi - composed)) <= 1e-8
        _, fused, _ = trajectory.fused_sweep(p, ctrl, grid, TIGHT)
        scale = 1.0 + np.max(np.abs(fused.adjoint))
        assert np.max(np.abs(stack.adjoint - fused.adjoint)) <= 1e-8 * scale
        assert np.array_equal(stack.psi[-1], np.eye(p.n))
        assert np.array_equal(stack.adjoint[-1],
                              p.grad_phix(states.values[-1], grid.tf))

    def test_state_cost_through_a_nonsymmetric_flow(self):
        # B = [[-f_x^T, -L_x], [0, 0]]: a missing transpose or a sign slip
        # in the L_x column shows against the fused sweep only with n >= 2,
        # a non-symmetric f_x and a nonzero L_x.
        problem = _state_cost_problem(np.array([[0.0, 1.0], [-0.4, -0.3]]))
        grid, ctrl, states = self._along(problem, n_nodes=31)
        stack = transition_stack(problem, states, ctrl, TIGHT)
        _, fused, _ = trajectory.fused_sweep(problem, ctrl, grid, TIGHT)
        assert np.max(np.abs(stack.psi - fused.psi)) <= 1e-8
        assert np.max(np.abs(stack.adjoint - fused.adjoint)) <= 1e-8
        assert np.max(np.abs(fused.adjoint[0])) > 0.1

    def test_one_row_call_each_per_round(self, brach):
        # Round k adds the odd points of the 2^(k-1)-substep stencil: the
        # 2(N-1)+1 ends and midpoints first, then 2(N-1), 4(N-1), ...
        calls = []
        p = self._counting(brach.problem, calls)
        grid, ctrl, states = self._along(brach.problem)
        transition_stack(p, states, ctrl, TIGHT)
        fx = [rows for name, rows in calls if name == "jac_fx_rows"]
        lx = [rows for name, rows in calls if name == "grad_lx_rows"]
        assert calls[0::2] == [("jac_fx_rows", rows) for rows in fx]
        assert calls[1::2] == [("grad_lx_rows", rows) for rows in lx]
        assert fx == lx
        assert fx == [41] + [20 * 2 ** k for k in range(1, len(fx))]

    def test_tighter_tolerance_takes_more_rounds(self, brach):
        rounds = {}
        grid, ctrl, states = self._along(brach.problem)
        for label, opts in (("default", IntegratorOptions()), ("tight", TIGHT)):
            calls = []
            transition_stack(self._counting(brach.problem, calls), states,
                             ctrl, opts)
            rounds[label] = len(calls) // 2
        assert 2 <= rounds["default"] < rounds["tight"]

    def test_non_finite_rows_raise(self, brach):
        grid, ctrl, states = self._along(brach.problem)
        jac = brach.problem.jac_fx_rows

        def poisoned(xs, us, ts):
            out = jac(xs, us, ts)
            out[ts > 0.7] = np.nan
            return out

        p = dataclasses.replace(brach.problem, jac_fx_rows=poisoned)
        with pytest.raises(NonFiniteField):
            transition_stack(p, states, ctrl)

    def test_substep_budget(self, brach):
        # 20 intervals: TIGHT needs more than two substeps per interval, so
        # a budget of 40 stops the doubling and a budget of 19 the first
        # round.
        grid, ctrl, states = self._along(brach.problem)
        for budget in (19, 40):
            opts = IntegratorOptions(rtol=TIGHT.rtol, atol=TIGHT.atol,
                                     max_steps=budget)
            with pytest.raises(StepFailure, match=f"max_steps={budget}"):
                transition_stack(brach.problem, states, ctrl, opts)

    def test_coupled_solve_integrates_nothing_after_assembly(self, brach,
                                                             monkeypatch):
        # Psi, lam and the snapshot cost come from the interval stencil, so
        # the only Dormand-Prince run after assembly is the tau integration.
        runs = []

        def recording(field, y0, t_span, opts=None, on_step=None):
            runs.append("outer" if on_step is not None else "inner")
            return rk45_integrate(field, y0, t_span, opts, on_step=on_step)

        for module in (trajectory, driver, second):
            monkeypatch.setattr(module, "rk45_integrate", recording)
        system = assemble_ivp(brach.problem, "second", 21, brach.gains)
        assert runs == ["inner"]         # the starting states
        runs.clear()
        history = evolve(system, 20.0, early_stop=False)
        assert len(history.snapshots) >= 3
        assert runs == ["outer"]


class TestDrivenSweeps:
    @staticmethod
    def _sweeps(problem, seed=12):
        """Every driven inner sweep: propagation, and the fused sweep with
        its states, Psi, adjoint and cost."""
        rng = np.random.default_rng(seed)
        grid = TimeGrid(21, problem.t0, problem.tf)
        ctrl = ControlTrajectory.from_values(
            grid, smooth_controls(grid, problem.m, rng))
        states = propagate_states(problem, ctrl, grid)
        fused, stack, cost = trajectory.fused_sweep(problem, ctrl, grid)
        return [states.values, fused.values, stack.psi, stack.adjoint,
                np.array([cost()])]

    @pytest.fixture()
    def fields(self, monkeypatch):
        """Every DrivenField made, recording its lookup sizes and the
        (t, row) pairs its function sees."""
        made = []

        class RecordingField(trajectory.DrivenField):
            def __init__(self, fn, lookup):
                self.sizes, self.seen = [], []

                def sized(ts):
                    self.sizes.append(len(ts))
                    return lookup(ts)

                def seeing(t, y, row):
                    self.seen.append(np.concatenate([[t], row]))
                    return fn(t, y, row)

                super().__init__(seeing, sized)
                made.append(self)

        monkeypatch.setattr(trajectory, "DrivenField", RecordingField)
        return made

    @pytest.mark.parametrize("make", [brachistochrone, tracking_fixture])
    def test_hidden_prepare_gives_identical_sweeps(self, make, fields,
                                                   monkeypatch):
        # A wrapper that exposes only ``(t, y)``, as a tracer does, sends
        # every call through the one-row fallback; the rows each field
        # sees and the paths must not change in any bit.
        problem = make().problem
        prepared = self._sweeps(problem)
        seen = [np.array(f.seen) for f in fields]
        fields.clear()

        def hiding(field, y0, t_span, opts=None, on_step=None):
            return rk45_integrate(lambda t, y: field(t, y), y0, t_span, opts,
                                  on_step=on_step)

        monkeypatch.setattr(trajectory, "rk45_integrate", hiding)
        hidden = self._sweeps(problem)
        assert all(set(f.sizes) == {1} for f in fields)
        assert len(fields) == len(seen) == 2
        for f, rows in zip(fields, seen):
            assert np.array_equal(np.array(f.seen), rows)
        for a, b in zip(prepared, hidden):
            assert np.array_equal(a, b)

    def test_untraced_sweep_falls_back_at_most_twice(self, brach, fields):
        # Only t0 and the starting-step probe are asked for one at a time;
        # every step attempt looks its six stage times up at once.
        self._sweeps(brach.problem)
        assert len(fields) == 2
        for f in fields:
            assert f.sizes.count(1) <= 2
            assert f.sizes.count(6) >= 10
            assert set(f.sizes) == {1, 6}
