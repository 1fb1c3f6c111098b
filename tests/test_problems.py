import numpy as np
import pytest

import vem.third as third
from vem import (
    ControlTrajectory,
    IntegratorOptions,
    TimeGrid,
    benchmark_names,
    get_benchmark,
    propagate_states,
    register_benchmark,
    transition_stack,
)
from vem.ocp import row_form_mismatches
from vem.problems import cycloid_geometry, double_integrator

TIGHT = IntegratorOptions(rtol=1e-10, atol=1e-12)


class TestDoubleIntegrator:
    def test_reference_control_endpoints(self, di):
        assert di.reference.control(0.0)[0] == pytest.approx(-3.5)
        assert di.reference.control(2.0)[0] == pytest.approx(2.5)

    def test_reference_terminal_state(self, di):
        assert np.array_equal(di.reference.state(2.0), np.zeros(2))

    def test_reference_cost_by_quadrature(self, di):
        # (1/2) integral of (3t - 3.5)^2 over [0, 2] = 3.25 exactly.
        t = np.linspace(0.0, 2.0, 20001)
        numeric = np.trapezoid(0.5 * (3.0 * t - 3.5) ** 2, t)
        assert numeric == pytest.approx(3.25, abs=1e-7)
        assert di.reference.cost == 3.25

    def test_defaults(self, di):
        assert di.default_nodes == 41
        assert di.default_tau_end == 300.0
        assert di.problem.tf_mode == "fixed" and di.problem.tf == 2.0
        assert np.array_equal(di.gains.K, [[0.1]])
        assert np.array_equal(di.gains.K_g, 0.1 * np.eye(2))


class TestBrachistochrone:
    def test_cycloid_terminal_time(self, brach):
        theta_f, radius, tf = cycloid_geometry()
        assert abs(tf - 0.8165) <= 5e-4
        assert brach.reference.tf == pytest.approx(tf)
        # Geometry closes on the target window.
        assert radius * (theta_f - np.sin(theta_f)) == pytest.approx(2.0)
        assert radius * (1.0 - np.cos(theta_f)) == pytest.approx(2.0)

    def test_reference_multipliers_closed_form(self, brach):
        assert np.allclose(brach.reference.multipliers, [-0.1477, 0.0564],
                           atol=2e-4)

    def test_terminal_speed_energy_conservation(self, brach):
        # Dropping two units of height with gravity 10: V = sqrt(40).
        v_end = brach.reference.state(brach.reference.tf)[2]
        assert v_end == pytest.approx(np.sqrt(40.0), abs=1e-9)

    def test_reference_dynamics_consistency(self, brach):
        # The cycloid parametrization satisfies the dynamics pointwise.
        p = brach.problem
        for t in np.linspace(0.01, brach.reference.tf, 17):
            x = brach.reference.state(t)
            u = brach.reference.control(t)
            h = 1e-6
            xdot_fd = (brach.reference.state(t + h)
                       - brach.reference.state(t - h)) / (2 * h)
            assert np.max(np.abs(xdot_fd - p.dynamics(x, u, t))) <= 1e-6

    def test_defaults(self, brach):
        assert brach.default_nodes == 101
        assert brach.problem.tf_mode == "free" and brach.problem.tf == 1.0
        assert brach.gains.k_tf == 0.05


@pytest.mark.parametrize("name", ["double-integrator", "brachistochrone"])
class TestReferenceQuality:
    def test_reference_is_feasible(self, name):
        # Propagating the dynamics under the reference control must
        # reproduce the reference states and hit the terminal constraint.
        bench = get_benchmark(name)
        p = bench.problem
        grid = TimeGrid(bench.default_nodes, p.t0, bench.reference.tf)
        ctrl = ControlTrajectory.from_values(
            grid, np.stack([bench.reference.control(t) for t in grid.times]))
        states = propagate_states(p, ctrl, grid, TIGHT)
        x_ref = np.stack([bench.reference.state(t) for t in grid.times])
        assert np.max(np.abs(states.values - x_ref)) <= 1e-4
        g_end = p.constraint(states.values[-1], grid.tf)
        assert np.max(np.abs(g_end)) <= 1e-4

    def test_reference_is_optimal(self, name):
        bench = get_benchmark(name)
        p = bench.problem
        grid = TimeGrid(bench.default_nodes, p.t0, bench.reference.tf)
        ctrl = ControlTrajectory.from_values(
            grid, np.stack([bench.reference.control(t) for t in grid.times]))
        states = propagate_states(p, ctrl, grid, TIGHT)
        stack = transition_stack(p, states, ctrl, TIGHT)
        nodes = third.node_inputs(p, states, ctrl)
        gu = third.control_gradient(nodes, stack)
        terms = third.multiplier_terms(p, nodes, stack)
        res = third.optimality_residuals(terms, gu, bench.reference.multipliers)
        assert res.optimality_inf <= 1e-3
        assert res.constraint_inf <= 1e-3
        if res.transversality is not None:
            assert res.transversality <= 1e-3


class TestRowKernels:
    """The shipped row kernels on the solver's long calls: bit for bit
    their one-row point forms and the column products they are made of."""

    @staticmethod
    def _rows(bench, per_interval, strided):
        # 2(N-1) or 4(N-1) rows; the controls hold negative, signed-zero
        # and +-pi/2 entries, and as the solver passes them they may be a
        # column of a stencil array.
        p = bench.problem
        count = per_interval * (bench.default_nodes - 1)
        rng = np.random.default_rng(per_interval)
        xs = rng.standard_normal((count, p.n))
        us = rng.uniform(-3.0, 3.0, (count, p.m))
        us[:6, 0] = [0.0, -0.0, np.pi / 2, -np.pi / 2, -1.0, -np.pi]
        if strided:
            stencil = np.zeros((count, 5, p.m))
            stencil[:, 1] = us
            us = stencil[:, 1]
        return xs, us, rng.uniform(0.0, 2.0, count)

    @pytest.mark.parametrize("strided", [False, True], ids=["rows", "stencil-column"])
    @pytest.mark.parametrize("per_interval", [2, 4])
    @pytest.mark.parametrize("name", ["double-integrator", "brachistochrone"])
    def test_rows_are_point_forms(self, name, per_interval, strided):
        bench = get_benchmark(name)
        rows = self._rows(bench, per_interval, strided)
        assert row_form_mismatches(bench.problem, *rows) == []

    @pytest.mark.parametrize("per_interval", [2, 4])
    def test_rows_are_column_products(self, di, brach, per_interval):
        # The products, column by column, that np.stack put together.
        def same(a, b):
            return a.shape == b.shape and a.tobytes() == b.tobytes()

        xs, us, ts = self._rows(brach, per_interval, True)
        s, c = np.sin(us[:, 0]), np.cos(us[:, 0])
        assert same(brach.problem.dynamics_rows(xs, us, ts),
                    np.stack([xs[:, 2] * s, -xs[:, 2] * c, 10.0 * c], axis=1))
        assert same(brach.problem.jac_fu_rows(xs, us, ts),
                    np.stack([xs[:, 2] * c, xs[:, 2] * s, -10.0 * s], axis=1)[:, :, None])
        xs, us, ts = self._rows(di, per_interval, True)
        assert same(di.problem.dynamics_rows(xs, us, ts),
                    np.stack([xs[:, 1], us[:, 0]], axis=1))


class TestRegistry:
    def test_known_names(self):
        assert benchmark_names() == ["brachistochrone", "double-integrator"]

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_benchmark("pendulum")

    def test_registration_extension_point(self):
        from vem.problems import _REGISTRY

        register_benchmark("linear-test", double_integrator)
        try:
            assert get_benchmark("linear-test").problem.n == 2
            with pytest.raises(ValueError):
                register_benchmark("linear-test", double_integrator)
        finally:
            _REGISTRY.pop("linear-test", None)
