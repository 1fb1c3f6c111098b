"""The control-only evolution operations against closed-form oracles.

Most expected values are hand-derived for the minimum-energy double
integrator, where every ingredient is polynomial: the transition stack,
the Gramian trapezoid sums, and the propagation are all exact up to
roundoff, so tolerances can be tight.
"""

import dataclasses

import numpy as np
import pytest

import vem.third as third
from vem import checks, trajectory
from vem import (
    ControlTrajectory,
    GainSet,
    IntegratorOptions,
    OcpProblem,
    TimeGrid,
    propagate_states,
    transition_stack,
)
from vem.checks import _smooth_controls as smooth_controls
from vem.problems import brachistochrone, tracking_fixture

TIGHT = IntegratorOptions(rtol=1e-10, atol=1e-12)


def _trajectories(problem, grid, controls, opts=None):
    ctrl = ControlTrajectory.from_values(grid, controls)
    states = propagate_states(problem, ctrl, grid, opts)
    stack = transition_stack(problem, states, ctrl, opts)
    return ctrl, states, stack


def _snapshot(problem, grid, controls, opts=None):
    """Node record and transition stack of the propagated snapshot."""
    ctrl, states, stack = _trajectories(problem, grid, controls, opts)
    return third.node_inputs(problem, states, ctrl), stack


def _system(problem, nodes, stack, gains):
    """(gu, M, r) of the snapshot, r in the default quasi-feasible mode."""
    gu = third.control_gradient(nodes, stack)
    terms = third.multiplier_terms(problem, nodes, stack)
    return (gu,) + third.multiplier_system(terms, gu, gains)


def _di_reference_controls(di, grid):
    return np.stack([di.reference.control(t) for t in grid.times])


class TestControlGradient:
    def test_double_integrator_gradient_is_control(self, di):
        # L = u^2/2 and phi = 0 make the adjoint sweep vanish, so the
        # gradient equals the control itself.
        rng = np.random.default_rng(5)
        grid = TimeGrid(41, 0.0, 2.0)
        controls = rng.standard_normal((41, 1))
        nodes, stack = _snapshot(di.problem, grid, controls)
        gu = third.control_gradient(nodes, stack)
        assert np.max(np.abs(gu - controls)) <= 1e-9

    def test_brachistochrone_gradient_vanishes(self, brach):
        rng = np.random.default_rng(6)
        grid = TimeGrid(31, 0.0, 1.0)
        nodes, stack = _snapshot(brach.problem, grid, smooth_controls(grid, 1, rng))
        gu = third.control_gradient(nodes, stack)
        assert np.max(np.abs(gu)) <= 1e-10

    def test_costless_problem_gradient_vanishes(self):
        p = OcpProblem(n=1, m=1, q=0, t0=0.0, x0=np.zeros(1), tf_mode="fixed",
                       tf=1.0, dynamics=lambda x, u, t: np.array([u[0]]),
                       jac_fx=lambda x, u, t: np.zeros((1, 1)),
                       jac_fu=lambda x, u, t: np.eye(1))
        grid = TimeGrid(11, 0.0, 1.0)
        nodes, stack = _snapshot(p, grid, np.ones((11, 1)))
        gu = third.control_gradient(nodes, stack)
        assert np.max(np.abs(gu)) == 0.0

    def test_quadrature_form_matches_adjoint_form(self):
        # The benchmarks are degenerate here (their integrands vanish), so
        # the fixture with live running-cost and terminal-cost curvature
        # carries the comparison.
        bench = tracking_fixture()
        rng = np.random.default_rng(7)
        grid = TimeGrid(801, 0.0, 1.0)
        ctrl, states, stack = _trajectories(bench.problem, grid,
                                            smooth_controls(grid, 1, rng), TIGHT)
        adj = third.control_gradient(third.node_inputs(bench.problem, states, ctrl),
                                     stack)
        quad = checks.quadrature_gradient(
            bench.problem, states, ctrl,
            trajectory._forward_stack(bench.problem, states, ctrl, grid, TIGHT))
        gap = np.max(np.abs(adj - quad))
        assert gap <= 1e-6 * (1.0 + np.max(np.abs(adj)))

    @pytest.mark.parametrize("form", ["adjoint", "quadrature"])
    def test_forms_agree_on_double_integrator(self, di, form):
        grid = TimeGrid(41, 0.0, 2.0)
        controls = _di_reference_controls(di, grid)
        ctrl, states, stack = _trajectories(di.problem, grid, controls, TIGHT)
        if form == "adjoint":
            gu = third.control_gradient(third.node_inputs(di.problem, states, ctrl),
                                        stack)
        else:
            fwd = trajectory._forward_stack(di.problem, states, ctrl, grid, TIGHT)
            gu = checks.quadrature_gradient(di.problem, states, ctrl, fwd)
        assert np.max(np.abs(gu - controls)) <= 1e-8


class TestNodeInputs:
    @pytest.mark.parametrize("make", [brachistochrone, tracking_fixture])
    def test_adjoint_gradient_equals_node_loop(self, make):
        p = make().problem
        rng = np.random.default_rng(17)
        grid = TimeGrid(41, p.t0, p.tf)
        nodes, stack = _snapshot(p, grid, smooth_controls(grid, p.m, rng))
        # The brachistochrone's own adjoint vanishes; a random one makes
        # every product count.
        stack = dataclasses.replace(
            stack, adjoint=rng.standard_normal(stack.adjoint.shape))
        gu = third.control_gradient(nodes, stack)
        xs, us, ts = nodes.xs, nodes.us, grid.times
        loop = np.empty((grid.n_nodes, p.m))
        for i in range(grid.n_nodes):
            loop[i] = (p.grad_lu(xs[i], us[i], ts[i])
                       + p.jac_fu(xs[i], us[i], ts[i]).T @ stack.adjoint[i])
        assert np.max(np.abs(gu)) > 1e-3
        assert np.array_equal(gu, loop)

    def test_one_row_call_per_quantity(self, brach):
        calls = []

        def counted(name):
            rows = getattr(brach.problem, name + "_rows")

            def wrapper(xs, us, ts):
                calls.append((name, len(ts)))
                return rows(xs, us, ts)
            return wrapper

        p = dataclasses.replace(brach.problem, jac_fu_rows=counted("jac_fu"),
                                grad_lu_rows=counted("grad_lu"))
        grid = TimeGrid(31, 0.0, 1.0)
        ctrl, states, _ = _trajectories(p, grid, np.zeros((31, 1)))
        third.node_inputs(p, states, ctrl)
        assert calls == [("jac_fu", 31), ("grad_lu", 31)]


class TestMultiplierSystem:
    def test_double_integrator_matrix_closed_form(self, di):
        # Trapezoid of the quadratic Gramian integrand is exact:
        # M = 0.1 * [[8/3 + 1/1200, 2], [2, 2]].
        grid = TimeGrid(41, 0.0, 2.0)
        nodes, stack = _snapshot(di.problem, grid, np.zeros((41, 1)))
        _, mat, _ = _system(di.problem, nodes, stack, di.gains)
        expected = 0.1 * np.array([[8.0 / 3.0 + 1.0 / 1200.0, 2.0], [2.0, 2.0]])
        assert np.max(np.abs(mat - expected)) <= 1e-9

    def test_double_integrator_rhs_at_zero_control(self, di):
        grid = TimeGrid(41, 0.0, 2.0)
        nodes, stack = _snapshot(di.problem, grid, np.zeros((41, 1)))
        _, _, r = _system(di.problem, nodes, stack, di.gains)
        assert np.max(np.abs(r - np.array([-0.3, -0.1]))) <= 1e-9

    def test_initial_multipliers_match_hand_solve(self, di):
        grid = TimeGrid(41, 0.0, 2.0)
        nodes, stack = _snapshot(di.problem, grid, np.zeros((41, 1)))
        _, mat, r = _system(di.problem, nodes, stack, di.gains)
        pi = third.solve_multipliers(mat, r)
        # Hand inversion of the trapezoid system: pi = [800/267, -666.5/267].
        assert np.allclose(pi, [800.0 / 267.0, -666.5 / 267.0], atol=1e-9)
        assert np.allclose(pi, [2.9963, -2.4963], atol=5e-3)
        assert np.allclose(pi, [3.0, -2.5], atol=1e-2)

    def test_multipliers_at_reference_control(self, di):
        # The same trapezoid appears in M and r, so the discrete solve
        # returns the continuum multipliers exactly at the optimum.
        grid = TimeGrid(41, 0.0, 2.0)
        nodes, stack = _snapshot(di.problem, grid, _di_reference_controls(di, grid))
        _, mat, r = _system(di.problem, nodes, stack, di.gains)
        pi = third.solve_multipliers(mat, r)
        assert np.allclose(pi, [3.0, -2.5], atol=1e-9)

    def test_brachistochrone_initial_system(self, brach):
        # Along the vertical-drop trajectory everything is polynomial:
        # M = [[10/3 + 1/6000, 0], [0, 5]], r = [0.2, -0.2].
        grid = TimeGrid(101, 0.0, 1.0)
        nodes, stack = _snapshot(brach.problem, grid, np.zeros((101, 1)))
        _, mat, r = _system(brach.problem, nodes, stack, brach.gains)
        expected_m = np.array([[10.0 / 3.0 + 1.0 / 6000.0, 0.0], [0.0, 5.0]])
        assert np.max(np.abs(mat - expected_m)) <= 1e-7
        assert np.max(np.abs(r - np.array([0.2, -0.2]))) <= 1e-8
        pi = third.solve_multipliers(mat, r)
        assert np.allclose(pi, [-0.2 / (10.0 / 3.0 + 1.0 / 6000.0), 0.04],
                           atol=1e-8)

    def test_zero_rhs_gives_zero_multipliers(self):
        pi = third.solve_multipliers(np.eye(2), np.zeros(2))
        assert np.array_equal(pi, np.zeros(2))

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError):
            third.solve_multipliers(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))

    def test_matrix_symmetry_on_generic_trajectory(self, brach):
        rng = np.random.default_rng(9)
        grid = TimeGrid(51, 0.0, 1.0)
        nodes, stack = _snapshot(brach.problem, grid, smooth_controls(grid, 1, rng))
        _, mat, _ = _system(brach.problem, nodes, stack, brach.gains)
        assert np.max(np.abs(mat - mat.T)) <= 1e-12 * np.max(np.abs(mat))

    def test_constraint_on_time_only(self):
        # g depends on tf alone: the Gramian term dies and M is the
        # rank-one terminal-rate outer product scaled by the time gain.
        p = OcpProblem(n=1, m=1, q=1, t0=0.0, x0=np.zeros(1), tf_mode="free",
                       tf=0.8, dynamics=lambda x, u, t: np.array([u[0]]),
                       jac_fx=lambda x, u, t: np.zeros((1, 1)),
                       jac_fu=lambda x, u, t: np.eye(1),
                       constraint=lambda xf, tf: np.array([tf - 0.5]),
                       jac_gx=lambda xf, tf: np.zeros((1, 1)),
                       dg_dt=lambda xf, tf: np.ones(1))
        gains = GainSet(K=np.eye(1), K_g=np.eye(1), k_tf=0.05)
        grid = TimeGrid(11, 0.0, 0.8)
        nodes, stack = _snapshot(p, grid, np.zeros((11, 1)))
        _, mat, _ = _system(p, nodes, stack, gains)
        assert np.allclose(mat, [[0.05]], atol=1e-12)

    def test_rhs_vanishes_on_costless_constrained_optimum(self):
        # Zero gradient, satisfied constraint, fixed horizon: r = 0.
        p = OcpProblem(n=1, m=1, q=1, t0=0.0, x0=np.zeros(1), tf_mode="fixed",
                       tf=1.0, dynamics=lambda x, u, t: np.array([u[0]]),
                       jac_fx=lambda x, u, t: np.zeros((1, 1)),
                       jac_fu=lambda x, u, t: np.eye(1),
                       constraint=lambda xf, tf: np.array([xf[0]]),
                       jac_gx=lambda xf, tf: np.eye(1),
                       dg_dt=lambda xf, tf: np.zeros(1))
        gains = GainSet(K=np.eye(1), K_g=np.eye(1))
        grid = TimeGrid(11, 0.0, 1.0)
        nodes, stack = _snapshot(p, grid, np.zeros((11, 1)))
        _, _, r = _system(p, nodes, stack, gains)
        assert np.max(np.abs(r)) <= 1e-12

    def test_multipliers_respond_smoothly_to_control(self, di):
        # Guard against sign errors: a one-node control bump moves the
        # multipliers proportionally, with a bounded slope.
        grid = TimeGrid(41, 0.0, 2.0)

        def solve_for(controls):
            nodes, stack = _snapshot(di.problem, grid, controls)
            _, mat, r = _system(di.problem, nodes, stack, di.gains)
            return third.solve_multipliers(mat, r)

        base = solve_for(np.zeros((41, 1)))
        for eps in (1e-3, 1e-4):
            bumped = np.zeros((41, 1))
            bumped[20, 0] = eps
            delta = np.max(np.abs(solve_for(bumped) - base))
            assert delta <= 10.0 * eps

    def test_fixed_horizon_ignores_time_gain(self, di):
        # Bit-identical outputs under wildly different k_tf prove the
        # terminal-rate terms never enter fixed-horizon systems.
        grid = TimeGrid(41, 0.0, 2.0)
        nodes, stack = _snapshot(di.problem, grid, np.zeros((41, 1)))
        g1 = GainSet(K=di.gains.K, K_g=di.gains.K_g, k_tf=0.05)
        g2 = GainSet(K=di.gains.K, K_g=di.gains.K_g, k_tf=1e6)
        _, m1, r1 = _system(di.problem, nodes, stack, g1)
        _, m2, r2 = _system(di.problem, nodes, stack, g2)
        assert np.array_equal(m1, m2)
        assert np.array_equal(r1, r2)


class TestControlRhs:
    def test_zero_control_rate_closed_form(self, di):
        # With continuum multipliers [3, -2.5] the rate is 0.3 t - 0.35.
        grid = TimeGrid(41, 0.0, 2.0)
        nodes, stack = _snapshot(di.problem, grid, np.zeros((41, 1)))
        gu = third.control_gradient(nodes, stack)
        terms = third.multiplier_terms(di.problem, nodes, stack)
        rate = third.control_rhs(terms, gu, np.array([3.0, -2.5]), di.gains)
        expected = (0.3 * grid.times - 0.35)[:, None]
        assert np.max(np.abs(rate - expected)) <= 1e-9

    def test_stationarity_at_reference(self, di):
        grid = TimeGrid(41, 0.0, 2.0)
        nodes, stack = _snapshot(di.problem, grid, _di_reference_controls(di, grid))
        gu = third.control_gradient(nodes, stack)
        terms = third.multiplier_terms(di.problem, nodes, stack)
        rate = third.control_rhs(terms, gu, np.array([3.0, -2.5]), di.gains)
        assert np.max(np.abs(rate)) <= 1e-12

    def test_stationarity_with_solved_multipliers(self, di):
        grid = TimeGrid(41, 0.0, 2.0)
        nodes, stack = _snapshot(di.problem, grid, _di_reference_controls(di, grid))
        gu, mat, r = _system(di.problem, nodes, stack, di.gains)
        pi = third.solve_multipliers(mat, r)
        terms = third.multiplier_terms(di.problem, nodes, stack)
        rate = third.control_rhs(terms, gu, pi, di.gains)
        assert np.max(np.abs(rate)) <= 1e-4

    def test_unconstrained_rate_is_scaled_gradient(self):
        bench = tracking_fixture()
        p = OcpProblem(n=1, m=1, q=0, t0=0.0, x0=np.array([0.5]),
                       tf_mode="fixed", tf=1.0,
                       dynamics=bench.problem.dynamics,
                       jac_fx=bench.problem.jac_fx,
                       jac_fu=bench.problem.jac_fu,
                       running_cost=bench.problem.running_cost,
                       grad_lx=bench.problem.grad_lx,
                       grad_lu=bench.problem.grad_lu)
        grid = TimeGrid(21, 0.0, 1.0)
        nodes, stack = _snapshot(p, grid, np.full((21, 1), 0.3))
        gu = third.control_gradient(nodes, stack)
        rate = third.control_rhs(third.multiplier_terms(p, nodes, stack), gu, None,
                                 bench.gains)
        assert np.array_equal(rate, -gu @ bench.gains.K.T)

    def test_descent_direction_on_feasible_trajectory(self, di):
        # Control perturbed inside the constraint's null space: the cost
        # derivative implied by one evolution step must be non-positive.
        grid = TimeGrid(41, 0.0, 2.0)
        t = grid.times
        perturbed = (3.0 * t - 3.5 + (t**2 - 2.0 * t + 2.0 / 3.0))[:, None]
        nodes, stack = _snapshot(di.problem, grid, perturbed, TIGHT)
        assert np.max(np.abs(nodes.xs[-1])) <= 1e-8
        gu, mat, r = _system(di.problem, nodes, stack, di.gains)
        pi = third.solve_multipliers(mat, r)
        terms = third.multiplier_terms(di.problem, nodes, stack)
        rate = third.control_rhs(terms, gu, pi, di.gains)
        defect = gu + np.einsum(
            "inm,in->im", np.stack([di.problem.jac_fu(nodes.xs[i], nodes.us[i], t[i])
                                    for i in range(41)]),
            np.einsum("inj,j->in", stack.psi,
                      di.problem.jac_gx(nodes.xs[-1], 2.0).T @ pi))
        d_cost = np.trapezoid(np.sum(defect * rate, axis=1), t)
        assert d_cost <= 0.0


class TestTerminalTimeRhs:
    def test_brachistochrone_initial_rate(self, brach):
        grid = TimeGrid(101, 0.0, 1.0)
        nodes, stack = _snapshot(brach.problem, grid, np.zeros((101, 1)))
        _, mat, r = _system(brach.problem, nodes, stack, brach.gains)
        pi = third.solve_multipliers(mat, r)
        bracket = third.multiplier_terms(brach.problem, nodes, stack).bracket
        rate = third.tf_rhs(bracket, pi, brach.gains)
        # Hand evaluation: -0.05 (1 + pi . [0, -10]) with pi_2 = 0.04.
        assert rate == pytest.approx(-0.03, abs=1e-9)

    def test_zero_bracket_gives_zero_rate(self):
        p = OcpProblem(n=1, m=1, q=0, t0=0.0, x0=np.zeros(1), tf_mode="free",
                       tf=1.0, dynamics=lambda x, u, t: np.array([u[0]]),
                       jac_fx=lambda x, u, t: np.zeros((1, 1)),
                       jac_fu=lambda x, u, t: np.eye(1))
        gains = GainSet(K=np.eye(1), k_tf=0.5)
        grid = TimeGrid(11, 0.0, 1.0)
        nodes, stack = _snapshot(p, grid, np.zeros((11, 1)))
        bracket = third.multiplier_terms(p, nodes, stack).bracket
        assert third.tf_rhs(bracket, None, gains) == 0.0


class TestResidualsAndCostates:
    def test_residuals_at_reference(self, di):
        grid = TimeGrid(41, 0.0, 2.0)
        nodes, stack = _snapshot(di.problem, grid, _di_reference_controls(di, grid))
        gu = third.control_gradient(nodes, stack)
        terms = third.multiplier_terms(di.problem, nodes, stack)
        res = third.optimality_residuals(terms, gu, np.array([3.0, -2.5]))
        assert res.optimality_inf <= 1e-5
        assert res.constraint_inf <= 1e-5
        assert res.transversality is None

    def test_initial_constraint_residual(self, di):
        grid = TimeGrid(41, 0.0, 2.0)
        nodes, stack = _snapshot(di.problem, grid, np.zeros((41, 1)))
        gu = third.control_gradient(nodes, stack)
        terms = third.multiplier_terms(di.problem, nodes, stack)
        res = third.optimality_residuals(terms, gu, np.zeros(2))
        assert res.constraint_inf == pytest.approx(3.0, abs=1e-9)

    def test_costates_closed_form(self, di):
        grid = TimeGrid(41, 0.0, 2.0)
        nodes, stack = _snapshot(di.problem, grid, _di_reference_controls(di, grid))
        terms = third.multiplier_terms(di.problem, nodes, stack)
        lam = third.reconstruct_costates(stack, terms, np.array([3.0, -2.5]))
        expected = np.stack([di.reference.costate(t) for t in grid.times])
        assert np.max(np.abs(lam - expected)) <= 1e-9

    def test_costates_vanish_without_multipliers(self, di):
        grid = TimeGrid(41, 0.0, 2.0)
        nodes, stack = _snapshot(di.problem, grid, np.zeros((41, 1)))
        lam = third.reconstruct_costates(
            stack, third.multiplier_terms(di.problem, nodes, stack), np.zeros(2))
        assert np.max(np.abs(lam)) == 0.0

    def test_brachistochrone_hamiltonian_constancy(self, brach):
        # Along the cycloid with the reference multipliers the Hamiltonian
        # is constant; the free-time condition pins it to -phi_t = -1.
        p = brach.problem
        grid = TimeGrid(101, 0.0, brach.reference.tf)
        controls = np.stack([brach.reference.control(t) for t in grid.times])
        nodes, stack = _snapshot(p, grid, controls, TIGHT)
        terms = third.multiplier_terms(p, nodes, stack)
        lam = third.reconstruct_costates(stack, terms, brach.reference.multipliers)
        h_vals = np.array([
            lam[i] @ p.dynamics(nodes.xs[i], controls[i], grid.times[i])
            for i in range(grid.n_nodes)])
        assert np.max(h_vals) - np.min(h_vals) <= 1e-2
        assert abs(h_vals[-1] + 1.0) <= 1e-2
