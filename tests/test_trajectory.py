import dataclasses
import functools
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from vem import (
    ControlTrajectory,
    GainSet,
    IntegratorOptions,
    OcpProblem,
    TimeGrid,
    assemble_ivp,
    evolve,
    get_benchmark,
    propagate_states,
    transition_stack,
)
from vem import checks, driver, second, trajectory
from vem.errors import (DegenerateGrid, NonFiniteDynamics, NonFiniteField,
                        SingularSystem, StepFailure)
from vem.checks import _smooth_controls as smooth_controls, cumulative_products, full_tangents
from vem.numerics import _hermite, spline_build
from vem.problems import brachistochrone, double_integrator, tracking_fixture
from vem.rk45 import rk45_integrate

TIGHT = IntegratorOptions(rtol=1e-10, atol=1e-12)
ROOT = Path(__file__).resolve().parents[1]


def _hermite_interpolant(grid, nodes, rates):
    """The shooting solve's Hermite interpolant through the node values
    ``nodes`` with the node rates ``rates``."""
    problem = SimpleNamespace(dynamics_rows=lambda xs, us, ts: rates)
    return trajectory._hermite_spline(problem, SimpleNamespace(values=None), grid,
                                      nodes)()


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


def _counting(problem, calls, *names):
    """The problem with the named row callbacks recording (name, rows)."""
    def wrap(name):
        fn = getattr(problem, name)

        def rows(xs, us, ts):
            calls.append((name, len(ts)))
            return fn(xs, us, ts)
        return rows

    return dataclasses.replace(problem, **{name: wrap(name) for name in names})


def _shooting_phi(problem, ctrl, grid, opts=None):
    """Phi(t_i, t0) of the shooting solve: running products of its maps'
    full tangents from the identity."""
    n = problem.n
    _, tangents, _ = trajectory.shooting_nodes(problem, ctrl, grid, opts)
    z = cumulative_products(np.concatenate([np.eye(n + 1)[None],
                                            full_tangents(tangents)]))
    return z[:, :n, :n]


def _pendulum_problem():
    """x1' = x2, x2' = -sin(x1) + u with a state cost: nonlinear in x."""
    return OcpProblem(
        n=2, m=1, q=0, t0=0.0, x0=np.array([1.0, 0.0]), tf_mode="fixed",
        tf=3.0,
        dynamics_rows=lambda xs, us, ts: np.stack(
            [xs[:, 1], us[:, 0] - np.sin(xs[:, 0])], axis=1),
        jac_fx_rows=lambda xs, us, ts: np.stack(
            [np.stack([np.zeros(len(ts)), np.ones(len(ts))], axis=1),
             np.stack([-np.cos(xs[:, 0]), np.zeros(len(ts))], axis=1)], axis=1),
        running_cost=lambda x, u, t: 0.5 * (x[0] * x[0] + u[0] * u[0]),
        grad_lx_rows=lambda xs, us, ts: np.stack(
            [xs[:, 0], np.zeros(len(ts))], axis=1),
        terminal_cost=lambda xf, tf: xf[1] * xf[1],
        grad_phix=lambda xf, tf: np.array([0.0, 2.0 * xf[1]]))


class TestTimeGrid:
    def test_normalized_endpoints(self):
        grid = TimeGrid(11, 1.0, 3.0)
        assert grid.sigma[0] == 0.0 and grid.sigma[-1] == 1.0
        assert grid.times[0] == 1.0 and grid.times[-1] == 3.0
        assert np.all(np.diff(grid.times) > 0.0)

    def test_minimum_nodes(self):
        with pytest.raises(ValueError):
            TimeGrid(3, 0.0, 1.0)

    def test_degenerate_horizon(self):
        with pytest.raises(ValueError):
            TimeGrid(5, 1.0, 1.0)

    @pytest.mark.parametrize("t0,tf", [(0.0, float("nan")), (0.0, float("inf")),
                                       (float("-inf"), 1.0), (float("nan"), 1.0)])
    def test_non_finite_horizon(self, t0, tf):
        with pytest.raises(ValueError, match="must be finite"):
            TimeGrid(5, t0, tf)

    def test_widths_are_diff_of_times(self):
        grid = TimeGrid(37, 0.3, 1.7)
        assert np.array_equal(grid.widths, np.diff(grid.times))
        assert not grid.widths.flags.writeable

    @pytest.mark.parametrize("name", ["sigma", "times", "widths", "weights"])
    def test_derived_arrays_are_not_arguments(self, name):
        # They are formed from (n_nodes, t0, tf); a passed one would be
        # overwritten, so it is refused.
        with pytest.raises(TypeError):
            TimeGrid(5, 0.0, 1.0, **{name: np.zeros(5)})

    def test_equal_grids_compare_and_hash_equal(self):
        # The derived arrays follow from (n_nodes, t0, tf), which alone
        # decide equality and the hash.
        grid, same = TimeGrid(5, 0.0, 1.0), TimeGrid(5, 0.0, 1.0)
        assert grid == same and hash(grid) == hash(same)
        assert len({grid, same}) == 1
        assert grid != TimeGrid(6, 0.0, 1.0) and grid != TimeGrid(5, 0.0, 2.0)


class TestControlTrajectory:
    @pytest.mark.parametrize("shape", [(1, 11), (11,)], ids=["m-by-N", "1-D"])
    def test_values_are_node_rows_only(self, shape):
        # Control values are (N, m) rows; an (m, N) or 1-D array is refused,
        # not transposed, as assemble_ivp refuses it as a starting guess.
        di = double_integrator()
        grid = TimeGrid(11, 0.0, 2.0)
        values = np.linspace(0.0, 1.0, 11).reshape(shape)
        with pytest.raises(ValueError, match=r"^control values must have shape"):
            ControlTrajectory.from_values(grid, values)
        with pytest.raises(ValueError, match=r"^init_controls must have shape"):
            assemble_ivp(di.problem, "third", 11, di.gains, init_controls=values)
        rows = ControlTrajectory.from_values(grid, values.reshape(11, 1))
        assert np.array_equal(rows.values, values.reshape(11, 1))

    @pytest.mark.parametrize("t0,tf", [(0.0, 0.8165), (0.0, 1.0491), (0.3, 1.7),
                                       (-2.5, 40.0), (1e3, 1e3 + 0.137)])
    def test_spline_from_grid_widths_is_spline_build(self, t0, tf):
        # The control spline and the shooting solve's Hermite interpolant
        # take the grid's checked widths in place of a second diff and
        # check of its nodes: the coefficients of the builds on the
        # differenced grid times, bit for bit, on horizons a moving
        # terminal time reaches.
        grid = TimeGrid(101, t0, tf)
        rng = np.random.default_rng(5)
        values, rates = rng.standard_normal((2, 101, 2))
        got = ControlTrajectory.from_values(grid, values).spline
        want = spline_build(grid.times, values)
        assert got.breakpoints.tobytes() == want.breakpoints.tobytes()
        assert got.coeffs.tobytes() == want.coeffs.tobytes()
        got = _hermite_interpolant(grid, values, rates)
        dx = np.diff(grid.times)
        want = _hermite(grid.times, dx, values, np.diff(values, axis=0) / dx[:, None],
                        rates)
        assert got.breakpoints.tobytes() == want.breakpoints.tobytes()
        assert got.coeffs.tobytes() == want.coeffs.tobytes()
        # It passes through the node values with the node rates: exactly at
        # each interval's left node, to rounding at the last node.
        assert np.array_equal(got.eval(grid.times[:-1]), values[:-1])
        assert np.array_equal(got.derivative(grid.times[:-1]), rates[:-1])
        scale = np.abs(values).max() + np.abs(rates).max() * (tf - t0)
        end = grid.times[-1:]
        assert np.max(np.abs(got.eval(end) - values[-1])) <= 1e-14 * scale
        assert np.max(np.abs(got.derivative(end) - rates[-1])) <= (
            1e-14 * scale / grid.widths.min())

    def test_degenerate_widths_raise(self):
        # A horizon too narrow for its start to resolve has equal node
        # times; the grid refuses it, as spline_build would.
        with pytest.raises(DegenerateGrid, match="strictly increasing"):
            TimeGrid(101, 1e16, 1e16 + 64.0)


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
        fwd = trajectory._forward_stack(p, states, ctrl, grid, TIGHT)
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
        return (grid, transition_stack(di.problem, states, ctrl, TIGHT),
                trajectory._forward_stack(di.problem, states, ctrl, grid, TIGHT))

    def test_start_at_identity(self, di_stack):
        _, _, fwd = di_stack
        assert np.array_equal(fwd[0], np.eye(2))

    def test_closed_form(self, di_stack):
        grid, _, fwd = di_stack
        for i in (0, 2, 13, 20):
            expected = np.array([[1.0, grid.times[i]], [0.0, 1.0]])
            assert np.max(np.abs(fwd[i] - expected)) <= 1e-9

    def test_consistent_with_psi(self, di_stack):
        _, stack, fwd = di_stack
        for i in (0, 9, 17):
            # Phi(tf, t_i) = Phi(tf, t0) Phi(t_i, t0)^{-1}
            full = np.linalg.solve(fwd[i].T, fwd[-1].T).T
            assert np.max(np.abs(full.T - stack.psi[i])) <= 1e-8


class TestFusedSweep:
    def test_matches_propagation_and_backward_sweep(self):
        # The fused-vs-backward invariant of ``vem check invariants``: x,
        # Psi, the adjoint and the cost against propagation, the backward
        # sweep and the path cost, at TIGHT on three problems.
        cases = ((double_integrator(), 41), (brachistochrone(), 101),
                 (tracking_fixture(), 801))
        assert checks.worst_gap(checks._fused_gap, cases, seed=0) <= 1e-8

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
        states, stack = trajectory.fused_sweep(p, ctrl, grid)
        assert np.array_equal(states.values[0], p.x0)
        assert np.array_equal(stack.psi[-1], np.eye(p.n))
        assert np.array_equal(stack.adjoint[-1],
                              p.grad_phix(states.values[-1], grid.tf))
        # Psi_i = Phi(tf, t_i)^T composed from the forward products of the
        # same tangents.
        fwd = _shooting_phi(p, ctrl, grid)
        composed = np.linalg.solve(np.swapaxes(fwd, 1, 2), fwd[-1].T)
        assert np.max(np.abs(composed - stack.psi)) <= 1e-12
        assert np.isfinite(driver.path_cost(p, states, ctrl, grid))

    def test_stack_holds_the_shooting_band(self):
        # The "stack" slot keys on the id of the shooting tangents' band,
        # the object the stack holds, so the id names that build while the
        # stack is kept; a second solve that keeps the tangents hands back
        # the same band.
        p, grid, ctrl = TestTangentPass._case("brachistochrone")
        kept = trajectory.KeptBlocks()
        _, stack = trajectory.fused_sweep(p, ctrl, grid, kept=kept)
        _, _, band = trajectory.shooting_nodes(p, ctrl, grid, kept=kept)
        assert stack.band is band

    def test_no_stacked_inverse(self, brach, monkeypatch):
        # Psi and the adjoint are one backward product of the transposed
        # tangents: no matrix stack is inverted.
        inv = np.linalg.inv

        def flat_only(a):
            if np.ndim(a) > 2:
                raise AssertionError("stacked inverse")
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", flat_only)
        p = brach.problem
        grid = TimeGrid(21, p.t0, p.tf)
        ctrl = ControlTrajectory.from_values(
            grid, smooth_controls(grid, p.m, np.random.default_rng(9)))
        _, stack = trajectory.fused_sweep(p, ctrl, grid)
        assert np.array_equal(stack.psi[-1], np.eye(p.n))
        assert np.all(np.isfinite(stack.psi)) and np.all(np.isfinite(stack.adjoint))

    def test_singular_transition_raises(self, brach, monkeypatch):
        # A first map whose tangent has a zero state block makes
        # Psi_0 = Phi(tf, t0)^T exactly singular.
        shoot = trajectory.shooting_nodes

        def flattened(*args):
            nodes, tangents, _ = shoot(*args)
            tangents = tangents.copy()
            tangents[0, :-1] = 0.0
            return nodes, tangents, trajectory._band(tangents[:, :-1])

        monkeypatch.setattr(trajectory, "shooting_nodes", flattened)
        p = brach.problem
        grid = TimeGrid(21, p.t0, p.tf)
        ctrl = ControlTrajectory.from_values(grid, np.zeros((21, p.m)))
        with pytest.raises(SingularSystem, match=r"^forward transition matrix "
                           r"condition estimate inf exceeds 1e\+12$"):
            trajectory.fused_sweep(p, ctrl, grid)

    def test_double_integrator_closed_form(self, di):
        # Psi_i = [[1, 0], [tf - t_i, 1]] and, without L_x or phi, the
        # adjoint is zero.
        grid = TimeGrid(21, 0.0, 2.0)
        ctrl = ControlTrajectory.from_values(grid, np.zeros((21, 1)))
        _, stack = trajectory.fused_sweep(di.problem, ctrl, grid)
        for i, t in enumerate(grid.times):
            exact = np.array([[1.0, 0.0], [2.0 - t, 1.0]])
            assert np.max(np.abs(stack.psi[i] - exact)) <= 1e-12
        assert np.max(np.abs(stack.adjoint)) <= 1e-12

def _augmented_field(problem, ctrl):
    """The field of z = [x, Phi, C, running cost] from [x0, I, 0, 0]."""
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
    return field, z0


def _split(problem, z):
    """Node values of x, Phi and C from stacked z rows."""
    n = problem.n
    return z[:, :n], z[:, n:n + n * n].reshape(-1, n, n), z[:, n + n * n:-1]


def _augmented_sweep(problem, ctrl, grid, opts):
    """Oracle for the shooting solve: the augmented field integrated as one
    adaptive Dormand-Prince run.  Returns the node values of x, Phi and C."""
    field, z0 = _augmented_field(problem, ctrl)
    return _split(problem, rk45_integrate(field, z0, (grid.t0, grid.tf),
                                          opts).eval(grid.times))


def _augmented_rk4(problem, ctrl, grid):
    """The augmented field by classic RK4, one step per grid interval, one
    interval after the other: the shooting solve's maps and tangents at
    one substep."""
    field, z = _augmented_field(problem, ctrl)
    rows = [z]
    for a, b in zip(grid.times[:-1], grid.times[1:]):
        h, mid = b - a, a + 0.5 * (b - a)
        k1 = field(a, z)
        k2 = field(mid, z + 0.5 * h * k1)
        k3 = field(mid, z + 0.5 * h * k2)
        k4 = field(b, z + h * k3)
        z = z + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        rows.append(z)
    return _split(problem, np.array(rows))


def _relative(a, b):
    return float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(b))))


class TestTangentPass:
    """The shooting solve against the augmented field [x, Phi, C]: by the
    same RK4 steps, one interval after the other, to rounding, and by an
    adaptive run at TIGHT to its tolerance."""

    PROBLEMS = {
        "double-integrator": lambda: double_integrator().problem,
        "brachistochrone": lambda: brachistochrone().problem,
        "tracking": lambda: tracking_fixture().problem,
        "state-cost": lambda: _state_cost_problem(
            np.array([[0.0, 1.0], [0.0, -0.3]])),
    }

    @staticmethod
    def _case(name, seed=5):
        p = TestTangentPass.PROBLEMS[name]()
        grid = TimeGrid(21, p.t0, p.tf)
        ctrl = ControlTrajectory.from_values(
            grid, smooth_controls(grid, p.m, np.random.default_rng(seed)))
        return p, grid, ctrl

    @staticmethod
    def _check(p, ctrl, opts, states, stack, x, phi, c, bound):
        grid = ctrl.grid
        fwd = _shooting_phi(p, ctrl, grid, opts)
        assert _relative(states.values, x) <= bound
        assert _relative(fwd, phi) <= bound
        # The oracle's adjoint by the same algebra as the sweep's.
        lam_end = p.grad_phix(x[-1], grid.tf)
        inv_t = np.swapaxes(np.linalg.inv(phi), 1, 2)
        adjoint = (inv_t @ (phi[-1].T @ lam_end + c[-1] - c)[:, :, None])[:, :, 0]
        assert _relative(stack.adjoint, adjoint) <= bound
        # C_i = C_0 + lam_0 - Phi_i^T lam_i with C_0 = 0, read off the
        # sweep's adjoint.
        swept_c = stack.adjoint[0] - (np.swapaxes(fwd, 1, 2)
                                      @ stack.adjoint[:, :, None])[:, :, 0]
        assert _relative(swept_c, c) <= bound

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_matches_augmented_field_on_the_same_steps(self, name):
        # At the default tolerances one substep per interval suffices on
        # these grids, so the shooting solve's maps are single RK4 steps.
        p, grid, ctrl = self._case(name)
        states, stack = trajectory.fused_sweep(p, ctrl, grid)
        self._check(p, ctrl, None, states, stack, *_augmented_rk4(p, ctrl, grid),
                    1e-12)

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_matches_adaptive_oracle_at_tight(self, name):
        p, grid, ctrl = self._case(name)
        states, stack = trajectory.fused_sweep(p, ctrl, grid, TIGHT)
        self._check(p, ctrl, TIGHT, states, stack,
                    *_augmented_sweep(p, ctrl, grid, TIGHT), 1e-8)

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


class TestShooting:
    """The Newton solve for the node states: its passes, convergence on
    nonlinear dynamics, its fallback and its substep budget."""

    @staticmethod
    def _counting(problem, calls):
        return _counting(problem, calls, "dynamics_rows", "jac_fx_rows")

    @pytest.mark.parametrize("name", sorted(TestTangentPass.PROBLEMS))
    def test_affine_dynamics_take_two_newton_passes(self, name):
        # A correction and a confirming pass, each four 20-row stages and
        # one f_x call over the 80 stage inputs.  Once a pass confirms, the
        # substep check needs the rate at tf alone: one one-row call.
        p, grid, ctrl = TestTangentPass._case(name)
        calls = []
        trajectory.fused_sweep(self._counting(p, calls), ctrl, grid)
        assert calls == 2 * ([("dynamics_rows", 20)] * 4 + [("jac_fx_rows", 80)]) \
            + [("dynamics_rows", 1)]

    def test_nonlinear_dynamics_converge(self):
        # A forced pendulum with a state cost: f_x depends on x, so Newton
        # takes more than one correction, and it converges without falling
        # back (every stage call spans all 30 intervals, and the substep
        # check adds one one-row call at tf).  At TIGHT the solve refines,
        # still in 30-row stages, and the states, Phi, C and adjoint match
        # the adaptive oracle.
        p = _pendulum_problem()
        grid = TimeGrid(31, p.t0, p.tf)
        ctrl = ControlTrajectory.from_values(
            grid, smooth_controls(grid, p.m, np.random.default_rng(8), scale=1.0))
        calls = []
        trajectory.fused_sweep(self._counting(p, calls), ctrl, grid)
        passes = calls.count(("jac_fx_rows", 120))
        assert 2 < passes < trajectory.NEWTON_PASSES
        assert calls == passes * ([("dynamics_rows", 30)] * 4
                                  + [("jac_fx_rows", 120)]) + [("dynamics_rows", 1)]
        calls.clear()
        states, stack = trajectory.fused_sweep(self._counting(p, calls), ctrl,
                                               grid, TIGHT)
        assert {rows for name, rows in calls if name == "dynamics_rows"} == {30, 1}
        assert max(rows for name, rows in calls if name == "jac_fx_rows") > 120
        TestTangentPass._check(p, ctrl, TIGHT, states, stack,
                               *_augmented_sweep(p, ctrl, grid, TIGHT), 1e-8)

    @pytest.mark.parametrize("name", ["double-integrator", "brachistochrone"])
    def test_state_free_jacobians_assemble_the_tangents_once(self, name,
                                                             monkeypatch):
        # f_x and L_x do not depend on x on the shipped problems, so the
        # confirming pass's rows equal the correction pass's bit for bit
        # and its tangents are reused: one assembly per solve, and
        # the same bits as an assembly per pass.
        p, grid, ctrl = TestTangentPass._case(name)
        built, step = [], trajectory._tangent_chain

        def counting(*args):
            built.append(None)
            return step(*args)

        monkeypatch.setattr(trajectory, "_tangent_chain", counting)
        _, tangents, _ = trajectory.shooting_nodes(p, ctrl, grid)
        assert len(built) == 1
        monkeypatch.setattr(trajectory.KeptBlocks, "get",
                            lambda self, slot, key, build: build())
        _, again, _ = trajectory.shooting_nodes(p, ctrl, grid)
        assert len(built) == 3
        assert np.array_equal(tangents, again)

    @pytest.mark.parametrize("name", ["tracking", "pendulum"])
    def test_state_dependent_jacobians_rebuild_every_pass(self, name,
                                                          monkeypatch):
        # An x-dependent L_x (tracking fixture) or f_x (pendulum) changes
        # the stage rows with every correction, so each pass builds its
        # own tangents, and the solve still matches the adaptive oracle.
        p = tracking_fixture().problem if name == "tracking" else _pendulum_problem()
        grid = TimeGrid(31, p.t0, p.tf)
        ctrl = ControlTrajectory.from_values(
            grid, smooth_controls(grid, p.m, np.random.default_rng(8)))
        calls, built, step = [], [], trajectory._tangent_chain

        def counting(*args):
            built.append(None)
            return step(*args)

        monkeypatch.setattr(trajectory, "_tangent_chain", counting)
        states, stack = trajectory.fused_sweep(self._counting(p, calls), ctrl,
                                               grid, TIGHT)
        assert calls.count(("jac_fx_rows", 120)) >= 2
        assert len(built) == sum(1 for name, _ in calls if name == "jac_fx_rows")
        TestTangentPass._check(p, ctrl, TIGHT, states, stack,
                               *_augmented_sweep(p, ctrl, grid, TIGHT), 1e-8)

    def test_two_substep_round_takes_one_row_call_per_pass(self, brach):
        # At rtol 1e-6 and atol 1e-9 the brachistochrone's N = 101 solve
        # refines to two substeps.  Each pass of either round makes one
        # f_x and one L_x call over all its stage inputs, 4 s (N - 1)
        # rows, and the round's tangents are bit for bit the product of
        # per-substep tangents built from each substep's own rows.
        p = brach.problem
        grid = TimeGrid(101, p.t0, p.tf)
        ctrl = ControlTrajectory.from_values(
            grid, smooth_controls(grid, p.m, np.random.default_rng(1)))
        calls, last = [], {}

        def wrap(name):
            fn = getattr(p, name)

            def rows(xs, us, ts):
                calls.append((name, len(ts)))
                last[name] = (xs, us, ts)
                return fn(xs, us, ts)
            return rows

        names = ("jac_fx_rows", "grad_lx_rows")
        counted = dataclasses.replace(p, **{name: wrap(name) for name in names})
        _, tangents, _ = trajectory.shooting_nodes(
            counted, ctrl, grid, IntegratorOptions(rtol=1e-6, atol=1e-9))
        assert calls == [(name, rows) for rows in (400, 400, 800, 800)
                         for name in names]
        xs, us, ts = (a.reshape((4, 2, 100) + a.shape[1:])
                      for a in last["jac_fx_rows"])
        n, h = p.n, (grid.widths / 2)[:, None]
        steps = []
        for j in range(2):
            rows = (xs[:, j].reshape(400, n), us[:, j].reshape(400, -1),
                    ts[:, j].ravel())
            b = np.empty((400, n + 1, n))
            b[:, :n] = p.jac_fx_rows(*rows)
            b[:, n] = p.grad_lx_rows(*rows)
            steps.append(full_tangents(trajectory._tangent_chain(b, h)))
        assert np.array_equal(full_tangents(tangents), steps[1] @ steps[0])

    @pytest.mark.parametrize("make", [brachistochrone, _pendulum_problem])
    def test_forced_fallback_matches_newton(self, make, monkeypatch):
        # Without Newton passes the nodes come from composing the interval
        # maps in sequence: the solution Newton converges to.
        p = make().problem if make is brachistochrone else make()
        grid = TimeGrid(31, p.t0, p.tf)
        ctrl = ControlTrajectory.from_values(
            grid, smooth_controls(grid, p.m, np.random.default_rng(3)))
        newton = trajectory.fused_sweep(p, ctrl, grid)
        monkeypatch.setattr(trajectory, "NEWTON_PASSES", 0)
        calls = []
        fallback = trajectory.fused_sweep(self._counting(p, calls), ctrl, grid)
        assert ("dynamics_rows", 1) in calls
        for a, b in ((newton[0].values, fallback[0].values),
                     (newton[1].psi, fallback[1].psi),
                     (newton[1].adjoint, fallback[1].adjoint)):
            assert _relative(b, a) <= 1e-12

    def test_substep_budget(self, brach):
        # 20 intervals: the one-substep round the solve accepts needs 20.
        p, grid, ctrl = TestTangentPass._case("brachistochrone")
        trajectory.fused_sweep(p, ctrl, grid, IntegratorOptions(max_steps=20))
        with pytest.raises(StepFailure, match="shooting stencil needs more "
                                              "than max_steps=19"):
            trajectory.fused_sweep(p, ctrl, grid, IntegratorOptions(max_steps=19))

    def test_non_finite_rate_at_tf_raises(self, brach):
        # Finite stage rows but a NaN rate at tf, which only the substep
        # check reads: it raises rather than refining to the budget.
        rows = brach.problem.dynamics_rows

        def poisoned(xs, us, ts):
            out = np.array(rows(xs, us, ts), dtype=float)
            if len(ts) == 1:
                out[:] = np.nan
            return out

        p, grid, ctrl = TestTangentPass._case("brachistochrone")
        p = dataclasses.replace(p, dynamics_rows=poisoned)
        with pytest.raises(NonFiniteDynamics, match="non-finite values near t="):
            trajectory.shooting_nodes(p, ctrl, grid)

    def test_substep_check_bounds_the_returned_maps(self, brach):
        # The embedded estimate bounds the error of the maps the solve
        # returns: at rtol 1e-6 the N = 41 brachistochrone refines past one
        # substep (whose nodes are 8e-8 off), and its nodes agree with the
        # adaptive oracle at TIGHT to 2e-9.
        p = brach.problem
        grid = TimeGrid(41, p.t0, p.tf)
        ctrl = ControlTrajectory.from_values(
            grid, smooth_controls(grid, p.m, np.random.default_rng(1)))
        calls = []
        nodes, _, _ = trajectory.shooting_nodes(
            self._counting(p, calls), ctrl, grid, IntegratorOptions(rtol=1e-6, atol=1e-9))
        assert max(rows for name, rows in calls if name == "jac_fx_rows") > 160
        oracle = propagate_states(p, ctrl, grid, checks.TIGHT).values
        assert np.abs(nodes - oracle).max() <= 2e-9

    @pytest.mark.parametrize("s", [1, 2, 4])
    def test_estimate_and_ends_are_the_stacked_formula(self, brach, s):
        # The error estimate and end states written into preallocated
        # blocks are those of the per-substep formula, bit for bit:
        # e = (h/6)(k4 - f(x_end)) with k1 and k4 stacked per substep, the
        # end rate the next substep's k1, the next interval's, or one
        # one-row call at tf, and x_end the next substep's start or the
        # map's end.  s >= 2 is a refining round, which no default
        # tolerance reaches.
        p = brach.problem
        grid = TimeGrid(21, p.t0, 0.9)
        ctrl = ControlTrajectory.from_values(
            grid, smooth_controls(grid, p.m, np.random.default_rng(3)))
        frac = np.arange(2 * s + 1) / (2 * s)
        ts, us = trajectory.stencil_times(grid, frac), ctrl.spline.at_fractions(frac)
        start = p.x0[None].repeat(grid.n_nodes, axis=0)
        nodes, _, _, error, ends = trajectory._shoot(p, ts, us, start,
                                                     trajectory.KeptBlocks())
        # The stacked formula: classic RK4 across every interval from the
        # solved nodes, one list entry per substep.
        h = ((ts[:, -1] - ts[:, 0])[:, None] / s).repeat(p.n, axis=1)

        def rate(xs, c):
            return np.asarray(p.dynamics_rows(xs, us[:, c], ts[:, c]))

        x, k1s, k4s, starts = nodes[:-1], [], [], []
        for j in range(0, 2 * s, 2):
            k1 = rate(x, j)
            k2 = rate(x + 0.5 * h * k1, j + 1)
            k3 = rate(x + 0.5 * h * k2, j + 1)
            k4 = rate(x + h * k3, j + 2)
            starts.append(x)
            k1s.append(k1)
            k4s.append(k4)
            x = x + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        k1, k4 = np.stack(k1s), np.stack(k4s)
        at_tf = np.asarray(p.dynamics_rows(x[-1:], us[-1:, -1], ts[-1:, -1]))
        f_end = np.concatenate([k1[1:], np.concatenate([k1[0, 1:], at_tf])[None]])
        assert error.tobytes() == (h / 6.0 * (k4 - f_end)).tobytes()
        assert ends.tobytes() == np.stack(starts[1:] + [x]).tobytes()

    def test_benchmark_starts_take_one_substep(self, monkeypatch):
        # The first evaluation at every start the benchmark draws (seeds 1
        # and 7, each workload) and at the four acceptance starts accepts
        # one substep per interval: one 4(N-1)-row f_x call per pass, and
        # only (N-1)-row stages and the one-row rate at tf.
        spec = importlib.util.spec_from_file_location(
            "workloads", ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        # Its dataclasses look their module up while they are built.
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        benchmarks = {name: get_benchmark(name) for name in (workloads.DI, workloads.BR)}
        starts = [workloads.SolveInput(spec, None, None)
                  for spec, _, _ in workloads.BASELINE]
        for workload in workloads.WORKLOADS.values():
            for seed in (1, 7):
                starts += workloads.draw_inputs(workload, seed, benchmarks)
        assert len(starts) == 16
        for start in starts:
            p = benchmarks[start.spec.problem].problem
            n_int = start.spec.n_nodes - 1
            grid = TimeGrid(n_int + 1, p.t0,
                            p.tf if start.init_tf is None else start.init_tf)
            controls = start.init_controls
            if controls is None:
                controls = np.zeros((grid.n_nodes, p.m))
            calls = []
            trajectory.shooting_nodes(self._counting(p, calls),
                                      ControlTrajectory.from_values(grid, controls),
                                      grid)
            sizes = {(name, rows) for name, rows in calls}
            assert sizes == {("dynamics_rows", n_int), ("dynamics_rows", 1),
                             ("jac_fx_rows", 4 * n_int)}, start.spec.label

    def test_control_only_solve_integrates_nothing_but_tau(self, brach,
                                                           monkeypatch):
        # The shooting solve replaces every inner Dormand-Prince sweep:
        # assembly runs none and the solve only the tau integration.
        runs = []

        def recording(field, y0, t_span, opts=None, on_step=None):
            runs.append("outer" if on_step is not None else "inner")
            return rk45_integrate(field, y0, t_span, opts, on_step=on_step)

        for module in (trajectory, driver, second):
            monkeypatch.setattr(module, "rk45_integrate", recording)
        system = assemble_ivp(brach.problem, "third", 21, brach.gains)
        assert runs == []
        history = evolve(system, 20.0, early_stop=False)
        assert len(history.snapshots) >= 3
        assert runs == ["outer"]


def _full_kernel(fx, lx, h):
    """The (n+1, n+1) tangent kernel the n-column one replaced, as the
    reference: per substep one RK4 step of Z' = B Z from the full identity
    with the widths h (K, 1) broadcast, composed by full matrix products,
    newest substep on the left.  Returns the tangents (K, n+1, n+1) and
    the ``_band`` of their blocks."""
    k, n = len(h), fx.shape[1]
    b = np.zeros((len(fx), n + 1, n + 1))
    b[:, :n, :n] = fx
    b[:, n, :n] = lx
    y, k1, b2, b3, b4 = np.eye(n + 1), *b.reshape(4, -1, k, n + 1, n + 1)
    h = h[:, :, None]
    k2 = b2 @ (y + 0.5 * h * k1)
    k3 = b3 @ (y + 0.5 * h * k2)
    k4 = b4 @ (y + h * k3)
    steps = y + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
    chain = functools.reduce(lambda chain, step: step @ chain, steps)
    return chain, trajectory._band(chain[:, :n, :n])


class TestTangentKernel:
    """The n-column tangents (``_tangent_chain``) against the full
    (n+1, n+1) kernel, bit for bit."""

    PROBLEMS = {
        "double-integrator": lambda: double_integrator().problem,
        "brachistochrone": lambda: brachistochrone().problem,
        "tracking": lambda: tracking_fixture().problem,
        "pendulum": _pendulum_problem,
    }

    @pytest.mark.parametrize("s", [1, 2, 4])
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_first_columns_and_band_are_the_full_kernels(self, name, s):
        # Exact-zero f_x entries (double integrator, brachistochrone) and
        # x-dependent rows (tracking fixture's L_x, the pendulum's f_x), at
        # the stage inputs of s substeps on a stencil of propagated states.
        # The shooting solve's assembly (``_tangents``) gives the first n
        # columns and the band of the full kernel byte for byte, and the
        # full kernel's last column is e_n+1 exactly.
        p = self.PROBLEMS[name]()
        grid = TimeGrid(21, p.t0, p.tf)
        ctrl = ControlTrajectory.from_values(
            grid, smooth_controls(grid, p.m, np.random.default_rng(6), scale=1.0))
        states = propagate_states(p, ctrl, grid)
        frac = np.arange(2 * s + 1) / (2 * s)
        k, n, cols = grid.n_nodes - 1, p.n, trajectory._stage_columns(s)

        def staged(a):
            """Stencil rows (K (2s+1), ...) ordered by stage, substep,
            interval."""
            a = a.reshape((k, 2 * s + 1) + a.shape[1:])[:, cols]
            return a.swapaxes(0, 1).reshape((-1,) + a.shape[2:])

        xs, us, ts = map(staged, trajectory.path_rows(
            states, ctrl, trajectory.stencil_times(grid, frac), frac))
        h = (grid.widths / s)[:, None]
        tangents, band = trajectory._tangents(p, (us, ts), h, xs,
                                              trajectory.KeptBlocks())
        full, full_band = _full_kernel(p.jac_fx_rows(xs, us, ts),
                                       p.grad_lx_rows(xs, us, ts), h)
        assert tangents.shape == (k, n + 1, n)
        assert tangents.tobytes() == np.ascontiguousarray(full[:, :, :n]).tobytes()
        assert band.tobytes() == full_band.tobytes()
        assert np.array_equal(full[:, :, n], np.eye(n + 1)[None, n].repeat(k, axis=0))


class TestIntervalStencil:
    @pytest.mark.parametrize("kind", ["cubic", "hermite"])
    def test_rounds_read_splines_at_their_times(self, kind):
        # Each round's sampler gets the times (N-1, K) of the points it
        # adds: every point of the 2-substep stencil first, both ends of
        # every interval, then the odd points of the 4 and 8-substep
        # stencils.  The trajectories' rows there are eval's bits at the
        # round's times.
        rng = np.random.default_rng(21)
        grid = TimeGrid(17, 0.3, 1.4)
        vals = rng.standard_normal((17, 2))
        spline = (spline_build(grid.times, vals) if kind == "cubic" else
                  _hermite_interpolant(grid, vals, rng.standard_normal((17, 2))))
        states = trajectory.StateTrajectory(grid, vals, lambda: spline)
        ctrl = ControlTrajectory(grid, vals, spline)
        rounds = []

        def sample(ts, frac):
            xs, us, flat = trajectory.path_rows(states, ctrl, ts, frac)
            assert np.array_equal(flat, ts.ravel())
            assert np.array_equal(xs, spline.eval(flat))
            assert np.array_equal(us, xs)
            rounds.append(ts.shape)
            return xs.reshape(ts.shape + (2,))

        def estimate(rows, dt):
            # A new value every stencil: the doubling runs into the budget.
            return np.full(len(dt), float(rows.shape[1]))

        with pytest.raises(StepFailure):
            trajectory.interval_stencil(grid, sample, estimate,
                                        IntegratorOptions(max_steps=8 * 16))
        assert rounds == [(16, 5), (16, 4), (16, 8)]

    def test_stencil_times(self):
        # Both ends of every interval are its nodes exactly, and an
        # interior fraction is t_i + w_i frac from the grid's widths.
        grid = TimeGrid(17, 0.3, 1.4)
        ts = trajectory.stencil_times(grid, np.arange(5) / 4.0)
        assert ts.shape == (16, 5)
        assert np.array_equal(ts[:, 0], grid.times[:-1])
        assert np.array_equal(ts[:, -1], grid.times[1:])
        assert np.array_equal(ts[:, 2], grid.times[:-1] + grid.widths * 0.5)

    @pytest.mark.parametrize("make", [double_integrator, brachistochrone])
    def test_fused_first_round_matches_sequential_loop(self, make):
        # Both estimates, along a coupled snapshot (joint spline) and the
        # shooting solve (separate splines): the fused loop returns the
        # bits of the loop that samples and estimates one stencil per
        # round, and TIGHT refines past the fused round.
        grid, cases = checks.stencil_cases(make(), np.random.default_rng(8))
        finest = []
        for _, sample, estimate in cases:
            for opts in (IntegratorOptions(), TIGHT):
                ref, s = checks.sequential_stencil(grid, sample, estimate, opts)
                assert np.array_equal(
                    trajectory.interval_stencil(grid, sample, estimate, opts), ref)
                finest.append(s)
        assert max(finest) >= 4

    def test_budget_failure_in_the_first_round(self):
        # The first round takes 2 substeps per interval, so a budget below
        # 2(N-1) stops it before any sampling.
        grid = TimeGrid(17, 0.0, 1.0)
        sampled = []

        def sample(ts, frac):
            sampled.append(ts.size)
            return np.zeros(ts.shape)

        def estimate(rows, dt):
            return np.zeros(len(dt))

        with pytest.raises(StepFailure, match="max_steps=31"):
            trajectory.interval_stencil(grid, sample, estimate,
                                        IntegratorOptions(max_steps=31))
        assert sampled == []
        trajectory.interval_stencil(grid, sample, estimate,
                                    IntegratorOptions(max_steps=32))
        assert sampled == [80]

    @pytest.mark.parametrize("method", ["second", "third"])
    def test_one_spline_read_per_round(self, brach, monkeypatch, method):
        # A coupled snapshot's state and control rows are one at_fractions
        # read of its joint spline per round; the control-only controls
        # take one at_fractions read of their own spline, and the states
        # (the shooting solve's Hermite interpolant) one eval at the
        # round's times.  Each round checks the substep budget once.
        p = brach.problem
        grid = TimeGrid(21, p.t0, p.tf)
        ctrl = ControlTrajectory.from_values(
            grid, smooth_controls(grid, p.m, np.random.default_rng(5)))
        if method == "second":
            nodes, *_ = trajectory.shooting_nodes(p, ctrl, grid)
            snap = second.SecondEqSnapshot.create(grid, nodes, ctrl.values)
            states, ctrl, evals = snap.state_traj, snap.ctrl_traj, 0
        else:
            states, _ = trajectory.fused_sweep(p, ctrl, grid)
            evals = 1
        spline_reads, eval_reads = [], []
        at_fractions = trajectory.SplineCoeffs.at_fractions
        spline_eval = trajectory.SplineCoeffs.eval

        def counted(spline, frac):
            spline_reads.append(len(frac))
            return at_fractions(spline, frac)

        def counted_eval(spline, ts):
            eval_reads.append(np.size(ts))
            return spline_eval(spline, ts)

        rounds = []
        check_budget = trajectory._check_budget

        def counted_round(substeps, opts):
            rounds.append(substeps)
            check_budget(substeps, opts)

        monkeypatch.setattr(trajectory.SplineCoeffs, "at_fractions", counted)
        monkeypatch.setattr(trajectory.SplineCoeffs, "eval", counted_eval)
        monkeypatch.setattr(trajectory, "_check_budget", counted_round)
        for opts in (IntegratorOptions(), TIGHT):
            transition_stack(p, states, ctrl, opts)
            driver.path_cost(p, states, ctrl, grid, opts)
        assert len(rounds) >= 5 and max(rounds) >= 80
        assert len(spline_reads) == len(rounds) and spline_reads[0] == 5
        assert len(eval_reads) == evals * len(rounds)
        assert eval_reads[:evals] == [5 * (grid.n_nodes - 1)] * evals


class TestBatchedStack:
    @staticmethod
    def _along(problem, seed=4, n_nodes=21, opts=TIGHT):
        grid = TimeGrid(n_nodes, problem.t0, problem.tf)
        ctrl = ControlTrajectory.from_values(
            grid, smooth_controls(grid, problem.m, np.random.default_rng(seed)))
        return grid, ctrl, propagate_states(problem, ctrl, grid, opts)

    @staticmethod
    def _counting(problem, calls):
        return _counting(problem, calls, "jac_fx_rows", "grad_lx_rows")

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
        _, fused = trajectory.fused_sweep(p, ctrl, grid, TIGHT)
        scale = 1.0 + np.max(np.abs(fused.adjoint))
        assert np.max(np.abs(stack.adjoint - fused.adjoint)) <= 1e-8 * scale
        assert np.array_equal(stack.psi[-1], np.eye(p.n))
        assert np.array_equal(stack.adjoint[-1],
                              p.grad_phix(states.values[-1], grid.tf))

    def test_state_cost_through_a_nonsymmetric_flow(self):
        # The stencil rows [f_x; L_x^T]: a transposed f_x block or a slip
        # in the L_x row shows against the fused sweep only with n >= 2, a
        # non-symmetric f_x and a nonzero L_x.
        problem = _state_cost_problem(np.array([[0.0, 1.0], [-0.4, -0.3]]))
        grid, ctrl, states = self._along(problem, n_nodes=31)
        stack = transition_stack(problem, states, ctrl, TIGHT)
        _, fused = trajectory.fused_sweep(problem, ctrl, grid, TIGHT)
        assert np.max(np.abs(stack.psi - fused.psi)) <= 1e-8
        assert np.max(np.abs(stack.adjoint - fused.adjoint)) <= 1e-8
        assert np.max(np.abs(fused.adjoint[0])) > 0.1

    @pytest.mark.parametrize("opts", [IntegratorOptions(), TIGHT],
                             ids=["default", "tight"])
    @pytest.mark.parametrize("make", [double_integrator, brachistochrone,
                                      tracking_fixture])
    def test_stack_is_the_shared_tangent_route(self, make, opts, monkeypatch):
        # Along given states the coupled stack is the control-only route:
        # the blocks and adjoint increments handed to ``_backward`` are
        # ``_tangent_chain`` of the final round's stencil rows [f_x; L_x^T]
        # in stage order, and Psi, lam and the band are ``_backward``'s of
        # them, all bit for bit.
        p = make().problem
        grid, ctrl, states = self._along(p)
        calls, handed, backward = [], [], trajectory._backward

        def recording(g, c, lam_end, band):
            handed.append((g, c))
            return backward(g, c, lam_end, band)

        monkeypatch.setattr(trajectory, "_backward", recording)
        stack = transition_stack(self._counting(p, calls), states, ctrl, opts)
        # Round r samples the 2^r-substep stencil.
        s, n = 2 ** (len(calls) // 2), p.n
        frac = np.arange(2 * s + 1) / (2 * s)
        rows = trajectory._jacobian_field(p, states, ctrl)(
            trajectory.stencil_times(grid, frac), frac)
        b = rows[:, trajectory._stage_columns(s)].swapaxes(0, 1)
        tangents = trajectory._tangent_chain(b.reshape(-1, n + 1, n),
                                             (grid.widths / s)[:, None])
        [(g, c)] = handed
        # The blocks are a view of the final round's tangents, which own
        # their memory, so the stack holds them and the "stack" slot's id
        # key names them while the stack is kept.
        assert g.base is c.base and g.base.flags.owndata
        assert g.base.shape == (grid.n_nodes - 1, n + 1, n)
        assert g.tobytes() == tangents[:, :n].tobytes()
        assert c.tobytes() == tangents[:, n].tobytes()
        ref = backward(g, c, np.asarray(p.grad_phix(states.values[-1], grid.tf),
                                        dtype=float), trajectory._band(g))
        for got, want in ((stack.blocks, g), (stack.band, ref.band),
                          (stack.psi, ref.psi), (stack.adjoint, ref.adjoint)):
            assert got.tobytes() == want.tobytes()

    def test_one_row_call_each_per_round(self, brach):
        # The first round takes the 5(N-1) points of the 2-substep
        # stencil, both ends of every interval, round k > 1 the odd points
        # of the 2^k-substep stencil: 4(N-1), 8(N-1), ...
        calls = []
        p = self._counting(brach.problem, calls)
        grid, ctrl, states = self._along(brach.problem)
        transition_stack(p, states, ctrl, TIGHT)
        fx = [rows for name, rows in calls if name == "jac_fx_rows"]
        lx = [rows for name, rows in calls if name == "grad_lx_rows"]
        assert calls[0::2] == [("jac_fx_rows", rows) for rows in fx]
        assert calls[1::2] == [("grad_lx_rows", rows) for rows in lx]
        assert fx == lx
        assert fx == [100] + [20 * 2 ** k for k in range(2, len(fx) + 1)]

    def test_tighter_tolerance_takes_more_rounds(self, brach):
        rounds = {}
        grid, ctrl, states = self._along(brach.problem)
        for label, opts in (("default", IntegratorOptions()), ("tight", TIGHT)):
            calls = []
            transition_stack(self._counting(brach.problem, calls), states,
                             ctrl, opts)
            rounds[label] = len(calls) // 2
        assert 1 <= rounds["default"] < rounds["tight"]

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
        # The starting states come from the shooting solve and Psi, lam and
        # the snapshot cost from the interval stencil, so the only
        # Dormand-Prince run is the tau integration.
        runs = []

        def recording(field, y0, t_span, opts=None, on_step=None):
            runs.append("outer" if on_step is not None else "inner")
            return rk45_integrate(field, y0, t_span, opts, on_step=on_step)

        for module in (trajectory, driver, second):
            monkeypatch.setattr(module, "rk45_integrate", recording)
        system = assemble_ivp(brach.problem, "second", 21, brach.gains)
        assert runs == []
        history = evolve(system, 20.0, early_stop=False)
        assert len(history.snapshots) >= 3
        assert runs == ["outer"]


def test_kept_values_follow_key_bits():
    # The store's keys match a NaN to its own bits and tell -0.0 from 0.0;
    # a build that raises keeps nothing, and a key of another length
    # misses.
    kept = trajectory.KeptBlocks()
    a = np.zeros(8)
    a[-1] = np.nan
    assert kept.get("slot", (a,), lambda: 1) == 1
    assert kept.get("slot", (a.copy(),), lambda: 2) == 1
    b = a.copy()
    b[0] = -0.0
    assert kept.get("slot", (b,), lambda: 3) == 3

    def raising():
        raise ValueError("no value")

    with pytest.raises(ValueError):
        kept.get("slot", (a,), raising)
    assert kept.get("slot", (b.copy(),), lambda: 4) == 3
    assert kept.get("slot", (b, b), lambda: 5) == 5


def _refilling_problem(reuse):
    """One state on a fixed horizon, f = (-1 + sin(u)/2) x + u with
    L = u^2/2 and phi = x^2/2, whose ``jac_fx_rows`` refills and returns
    one buffer per row count when ``reuse`` is set."""
    buffers = {}

    def jac_fx_rows(xs, us, ts):
        rows = (-1.0 + 0.5 * np.sin(us[:, 0]))[:, None, None]
        if not reuse:
            return rows
        out = buffers.setdefault(rows.shape, np.empty(rows.shape))
        out[...] = rows
        return out

    return OcpProblem(
        n=1, m=1, q=0, t0=0.0, x0=np.array([1.0]), tf_mode="fixed", tf=1.0,
        dynamics_rows=lambda xs, us, ts: (-1.0 + 0.5 * np.sin(us)) * xs + us,
        jac_fx_rows=jac_fx_rows,
        jac_fu_rows=lambda xs, us, ts: (0.5 * np.cos(us) * xs + 1.0)[:, :, None],
        running_cost_rows=lambda xs, us, ts: 0.5 * us[:, 0] ** 2,
        grad_lx_rows=lambda xs, us, ts: np.zeros((len(ts), 1)),
        grad_lu_rows=lambda xs, us, ts: np.array(us, dtype=float),
        terminal_cost=lambda xf, tf: 0.5 * xf[0] ** 2,
        grad_phix=lambda xf, tf: np.array([xf[0]]))


def test_refilled_row_buffer_is_not_taken_for_kept_rows():
    # The store compares a key with the bits it kept, not with the array
    # it was given, so a row form that refills one buffer misses when its
    # rows move, and the run matches the one with fresh arrays bit for bit.
    finals = []
    for reuse in (True, False):
        system = assemble_ivp(_refilling_problem(reuse), "third", 21,
                              GainSet(K=np.eye(1)))
        finals.append(evolve(system, 20.0, early_stop=False).final)
    reused, fresh = finals
    assert reused.J == fresh.J
    assert np.array_equal(reused.controls, fresh.controls)
    assert np.array_equal(reused.states, fresh.states)
