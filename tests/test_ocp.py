import dataclasses

import numpy as np
import pytest

from vem import (GainSet, OcpProblem, check_derivatives, solve_benchmark,
                 validate_problem)
from vem.ocp import ROW_FORMS, central_difference
from vem.problems import brachistochrone, double_integrator, tracking_fixture


def _drift_only_problem(jac_fx=None):
    """n=2 toy problem used to exercise validation findings."""
    return OcpProblem(
        n=2, m=1, q=0, t0=0.0, x0=np.zeros(2), tf_mode="fixed", tf=1.0,
        dynamics=lambda x, u, t: np.array([x[1], u[0]]),
        jac_fx=jac_fx or (lambda x, u, t: np.array([[0.0, 1.0], [0.0, 0.0]])),
        jac_fu=lambda x, u, t: np.array([[0.0], [1.0]]),
    )


class TestValidation:
    def test_benchmarks_validate_clean(self):
        for bench in (double_integrator(), brachistochrone(), tracking_fixture()):
            report = validate_problem(bench.problem)
            assert report.ok, report.findings

    def test_wrong_jacobian_shape_is_reported(self):
        p = _drift_only_problem(jac_fx=lambda x, u, t: np.array([[0.0]]))
        report = validate_problem(p)
        assert any("jac_fx" in f for f in report.findings)

    def test_constraint_rank_violation_is_reported(self):
        p = OcpProblem(
            n=2, m=1, q=3, t0=0.0, x0=np.zeros(2), tf_mode="fixed", tf=1.0,
            dynamics=lambda x, u, t: np.array([x[1], u[0]]),
            constraint=lambda xf, tf: np.zeros(3),
            jac_gx=lambda xf, tf: np.zeros((3, 2)),
            dg_dt=lambda xf, tf: np.zeros(3),
        )
        report = validate_problem(p)
        assert any("q=3" in f for f in report.findings)

    def test_wrong_row_shape_is_reported(self):
        p = dataclasses.replace(
            _drift_only_problem(),
            jac_fu_rows=lambda xs, us, ts: np.zeros((len(ts), 1, 2)))
        report = validate_problem(p)
        assert any("jac_fu_rows: expected shape (2, 2, 1)" in f
                   for f in report.findings), report.findings

    def test_non_finite_row_is_reported(self):
        def grad_lu_rows(xs, us, ts):
            out = np.array(us, dtype=float)
            out[ts > 0.5] = np.nan
            return out

        p = dataclasses.replace(tracking_fixture().problem,
                                grad_lu_rows=grad_lu_rows)
        report = validate_problem(p)
        assert report.findings == ["grad_lu_rows: non-finite output at probe point"]

    def test_row_differing_from_point_form_is_reported(self):
        # The row form drifts with t, the point form does not: only the
        # row at tf differs.
        p = dataclasses.replace(
            _drift_only_problem(),
            jac_fx_rows=lambda xs, us, ts: np.array(
                [[[0.0, 1.0 + t], [0.0, 0.0]] for t in ts]))
        report = validate_problem(p)
        assert report.findings == ["jac_fx_rows: row 1 (t=1) differs from jac_fx"]

    def test_dynamics_and_cost_rows_are_checked_too(self):
        p = dataclasses.replace(
            _drift_only_problem(),
            dynamics_rows=lambda xs, us, ts: np.stack(
                [xs[:, 1], us[:, 0] + ts], axis=1),
            running_cost=lambda x, u, t: 0.5 * u[0] ** 2,
            running_cost_rows=lambda xs, us, ts: 0.5 * us[:, 0] ** 2 - ts)
        report = validate_problem(p)
        assert report.findings == [
            "dynamics_rows: row 1 (t=1) differs from dynamics",
            "running_cost_rows: row 1 (t=1) differs from running_cost"]

    def test_validation_is_pure(self):
        p = double_integrator().problem
        assert validate_problem(p).findings == validate_problem(p).findings


class TestDerivativeChecks:
    def test_double_integrator_probe(self):
        p = double_integrator().problem
        report = check_derivatives(p, np.array([1.0, 1.0]), np.zeros(1), 0.0, h=1e-6)
        assert report.worst <= 1e-6

    def test_brachistochrone_probe(self):
        p = brachistochrone().problem
        report = check_derivatives(p, np.array([0.0, 0.0, 1.0]), np.array([0.5]), 0.0)
        assert report.worst <= 1e-5

    def test_control_independent_dynamics(self):
        p = OcpProblem(
            n=1, m=1, q=0, t0=0.0, x0=np.ones(1), tf_mode="fixed", tf=1.0,
            dynamics=lambda x, u, t: np.array([-x[0]]),
            jac_fx=lambda x, u, t: np.array([[-1.0]]),
            jac_fu=lambda x, u, t: np.zeros((1, 1)),
        )
        report = check_derivatives(p, np.ones(1), np.zeros(1), 0.0)
        assert report.entries["jac_fu"] == 0.0

    @pytest.mark.parametrize("factory", [double_integrator, brachistochrone])
    def test_random_interior_points(self, factory):
        bench = factory()
        p = bench.problem
        rng = np.random.default_rng(42)
        for _ in range(10):
            x = p.x0 + rng.uniform(-1.0, 1.0, p.n)
            u = rng.uniform(-1.0, 1.0, p.m)
            t = rng.uniform(p.t0, p.tf)
            assert check_derivatives(p, x, u, t).worst <= 1e-5

    def test_finite_difference_fallback(self):
        # Omit every derivative callback; the fallbacks must agree with the
        # analytic ones of the fully specified problem.
        full = tracking_fixture().problem
        bare = OcpProblem(
            n=1, m=1, q=1, t0=0.0, x0=np.array([0.5]), tf_mode="fixed", tf=1.0,
            dynamics=full.dynamics,
            running_cost=full.running_cost,
            terminal_cost=full.terminal_cost,
            constraint=full.constraint,
        )
        x, u, t = np.array([0.7]), np.array([-0.4]), 0.3
        assert np.allclose(bare.jac_fx(x, u, t), full.jac_fx(x, u, t), atol=1e-7)
        assert np.allclose(bare.jac_fu(x, u, t), full.jac_fu(x, u, t), atol=1e-7)
        assert np.allclose(bare.grad_lx(x, u, t), full.grad_lx(x, u, t), atol=1e-7)
        assert np.allclose(bare.grad_phix(x, 1.0), full.grad_phix(x, 1.0), atol=1e-7)
        assert np.allclose(bare.jac_gx(x, 1.0), full.jac_gx(x, 1.0), atol=1e-7)
        assert np.allclose(bare.dphi_dt(x, 1.0), full.dphi_dt(x, 1.0), atol=1e-7)
        assert np.allclose(bare.dg_dt(x, 1.0), full.dg_dt(x, 1.0), atol=1e-7)

    def test_wrong_time_derivative_is_reported(self):
        # dphi_dt and dg_dt feed the terminal-time rate and the multiplier
        # system, so they are checked like the other derivatives.
        good = OcpProblem(
            n=1, m=1, q=1, t0=0.0, x0=np.zeros(1), tf_mode="free", tf=1.0,
            dynamics=lambda x, u, t: np.array([u[0]]),
            terminal_cost=lambda xf, tf: xf[0] * tf ** 2,
            dphi_dt=lambda xf, tf: 2.0 * xf[0] * tf,
            constraint=lambda xf, tf: np.array([xf[0] - tf]),
            dg_dt=lambda xf, tf: np.array([-1.0]),
        )
        x, u = np.array([0.7]), np.array([0.2])
        report = check_derivatives(good, x, u, 0.5)
        assert {"dphi_dt", "dg_dt"} <= set(report.entries)
        assert report.worst <= 1e-6
        bad = dataclasses.replace(good, dg_dt=lambda xf, tf: np.array([1.0]))
        report = check_derivatives(bad, x, u, 0.5)
        assert report.entries["dg_dt"] == pytest.approx(2.0)
        assert report.entries["dphi_dt"] <= 1e-6

    def test_omitted_second_order_terms_default_to_zero(self):
        p = _drift_only_problem()
        assert np.array_equal(p.hess_phixx(np.zeros(2), 1.0), np.zeros((2, 2)))
        assert np.array_equal(p.dphi_dxdt(np.zeros(2), 1.0), np.zeros(2))


class TestProblemConstruction:
    def test_fixed_horizon_must_be_positive(self):
        with pytest.raises(ValueError):
            OcpProblem(n=1, m=1, q=0, t0=1.0, x0=np.zeros(1), tf_mode="fixed",
                       tf=0.5, dynamics=lambda x, u, t: u)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["t0", "tf"])
    def test_horizon_ends_must_be_finite(self, name, value):
        # A NaN or infinite end would construct and fail later, at
        # assembly, as a degenerate grid.
        with pytest.raises(ValueError,
                           match="^initial and terminal times must be finite$"):
            dataclasses.replace(double_integrator().problem, **{name: value})

    def test_constraint_callback_required(self):
        with pytest.raises(ValueError):
            OcpProblem(n=1, m=1, q=1, t0=0.0, x0=np.zeros(1), tf_mode="fixed",
                       tf=1.0, dynamics=lambda x, u, t: u)

    def test_unknown_tf_mode(self):
        with pytest.raises(ValueError):
            OcpProblem(n=1, m=1, q=0, t0=0.0, x0=np.zeros(1), tf_mode="sometimes",
                       tf=1.0, dynamics=lambda x, u, t: u)


class TestGainSet:
    def test_scalar_gain_coerced_to_matrix(self):
        gains = GainSet(K=np.array([[0.1]]), K_g=0.1 * np.eye(2))
        assert gains.K.shape == (1, 1)

    def test_rejects_indefinite_gain(self):
        with pytest.raises(ValueError):
            GainSet(K=np.array([[1.0, 0.0], [0.0, -0.5]]))

    def test_rejects_asymmetric_gain(self):
        with pytest.raises(ValueError):
            GainSet(K=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_nonpositive_tf_gain(self):
        with pytest.raises(ValueError):
            GainSet(K=np.eye(1), k_tf=0.0)


def _random_rows(problem, rng, count=10):
    xs = problem.x0 + rng.uniform(-1.0, 1.0, (count, problem.n))
    us = rng.uniform(-1.0, 1.0, (count, problem.m))
    ts = rng.uniform(problem.t0, problem.tf, count)
    return xs, us, ts


def _stacked_points(point, xs, us, ts):
    return np.stack([np.asarray(point(x, u, t), dtype=float)
                     for x, u, t in zip(xs, us, ts)])


# (derivative, the point form it differences, argument) of every
# per-node derivative that a problem may leave out.
_DIFFERENCED = [("jac_fx", "dynamics", 0), ("jac_fu", "dynamics", 1),
                ("grad_lx", "running_cost", 0), ("grad_lu", "running_cost", 1)]


def _derived_double_integrators():
    """The double integrator with f and L given only as point forms and
    only as row forms, which agree bit for bit, and no derivative."""
    common = dict(n=2, m=1, q=2, t0=0.0, x0=np.array([1.0, 1.0]),
                  tf_mode="fixed", tf=2.0, constraint=lambda xf, tf: np.array(xf),
                  jac_gx=lambda xf, tf: np.eye(2), dg_dt=lambda xf, tf: np.zeros(2))
    points = OcpProblem(**common, dynamics=lambda x, u, t: np.array([x[1], u[0]]),
                        running_cost=lambda x, u, t: 0.5 * (u[0] * u[0]))
    rows = OcpProblem(
        **common,
        dynamics_rows=lambda xs, us, ts: np.concatenate((xs[:, 1:], us), axis=1),
        running_cost_rows=lambda xs, us, ts: 0.5 * (us[:, 0] * us[:, 0]))
    return points, rows


class TestRowForms:
    @pytest.mark.parametrize("factory", [double_integrator, brachistochrone,
                                         tracking_fixture])
    def test_row_form_equals_point_form(self, factory):
        p = factory().problem
        xs, us, ts = _random_rows(p, np.random.default_rng(3))
        for name in ROW_FORMS:
            rows = getattr(p, name + "_rows")(xs, us, ts)
            points = _stacked_points(getattr(p, name), xs, us, ts)
            assert np.array_equal(rows, points), name

    def test_point_only_problem_gets_row_loops(self):
        full = tracking_fixture().problem
        points = {name: (lambda x, u, t, f=getattr(full, name): f(x, u, t) + 0.25 * t)
                  for name in ROW_FORMS}
        p = OcpProblem(n=1, m=1, q=0, t0=0.0, x0=np.array([0.5]),
                       tf_mode="fixed", tf=1.0, **points)
        xs, us, ts = _random_rows(p, np.random.default_rng(4))
        for name in ROW_FORMS:
            assert getattr(p, name) is points[name]
            expected = _stacked_points(points[name], xs, us, ts)
            assert np.array_equal(getattr(p, name + "_rows")(xs, us, ts), expected)

    def test_derived_rows_difference_the_row_block(self):
        exact = double_integrator().problem
        for p in _derived_double_integrators():
            xs, us, ts = _random_rows(p, np.random.default_rng(5))
            for name, of, arg in _DIFFERENCED:
                pointwise = _stacked_points(
                    central_difference(getattr(p, of), arg), xs, us, ts)
                rows = getattr(p, name + "_rows")(xs, us, ts)
                assert np.array_equal(rows, pointwise), name
                assert np.array_equal(_stacked_points(getattr(p, name), xs, us, ts),
                                      pointwise), name
                assert np.allclose(rows, getattr(exact, name + "_rows")(xs, us, ts),
                                   atol=1e-7), name

    @pytest.mark.parametrize("count", [1, 7, 50])
    def test_derived_call_makes_two_row_calls_per_column(self, count):
        calls = []

        def counted(rows):
            def wrapper(xs, us, ts):
                calls.append(len(ts))
                return rows(xs, us, ts)
            return wrapper

        bare = _derived_double_integrators()[1]
        p = dataclasses.replace(bare, dynamics_rows=counted(bare.dynamics_rows),
                                running_cost_rows=counted(bare.running_cost_rows))
        xs, us, ts = _random_rows(p, np.random.default_rng(8), count)
        for name, of, arg in _DIFFERENCED:
            calls.clear()
            getattr(p, name + "_rows")(xs, us, ts)
            columns = (p.n, p.m)[arg]
            assert calls == [count] * (2 * columns), name

    def test_derived_entries_check_exactly(self):
        rng = np.random.default_rng(9)
        for p in _derived_double_integrators():
            x, u = p.x0 + rng.uniform(-1.0, 1.0, p.n), rng.uniform(-1.0, 1.0, p.m)
            entries = check_derivatives(p, x, u, 0.7).entries
            assert [entries[name] for name, _, _ in _DIFFERENCED] == [0.0] * 4

    def test_row_and_point_forms_give_identical_histories(self):
        bench = double_integrator()
        for method in ("third", "second"):
            histories = [solve_benchmark(dataclasses.replace(bench, problem=p), method,
                                         tau_end=20.0, early_stop=False)[0]
                         for p in _derived_double_integrators()]
            pairs = list(zip(*(h.snapshots for h in histories)))
            assert len(pairs) == len(histories[0].snapshots) > 1
            for a, b in pairs:
                for field_ in ("tau", "J", "tf", "controls", "states", "costates", "pi"):
                    assert np.array_equal(getattr(a, field_), getattr(b, field_)), field_

    def test_one_element_running_cost_gives_scalar_rows(self):
        p = OcpProblem(n=2, m=1, q=0, t0=0.0, x0=np.array([1.0, 1.0]),
                       tf_mode="fixed", tf=2.0,
                       dynamics=lambda x, u, t: np.array([x[1], u[0]]),
                       running_cost=lambda x, u, t: 0.5 * x[:1] * u[:1])
        assert validate_problem(p).ok, validate_problem(p).findings
        xs, us, ts = _random_rows(p, np.random.default_rng(10), count=3)
        assert p.running_cost_rows(xs, us, ts).shape == (3,)
        assert p.grad_lx_rows(xs, us, ts).shape == (3, 2)
        assert p.grad_lu_rows(xs, us, ts).shape == (3, 1)
        assert p.grad_lx(xs[0], us[0], ts[0]).shape == (2,)
        assert np.allclose(p.grad_lx_rows(xs, us, ts),
                           np.stack([0.5 * us[:, 0], np.zeros(3)], axis=1), atol=1e-7)

    def test_no_running_cost_gives_zero_rows(self):
        p = _drift_only_problem()
        xs, us, ts = _random_rows(p, np.random.default_rng(6), count=4)
        assert np.array_equal(p.grad_lx_rows(xs, us, ts), np.zeros((4, 2)))
        assert np.array_equal(p.grad_lu_rows(xs, us, ts), np.zeros((4, 1)))
        assert np.array_equal(p.running_cost_rows(xs, us, ts), np.zeros(4))
        # The point forms are one-row calls of the zero rows.
        assert np.array_equal(p.grad_lx(xs[0], us[0], ts[0]), np.zeros(2))
        assert np.array_equal(p.grad_lu(xs[0], us[0], ts[0]), np.zeros(1))


    def test_row_only_problem_gets_point_forms_and_fallbacks(self):
        full = tracking_fixture().problem
        p = OcpProblem(n=1, m=1, q=0, t0=0.0, x0=np.array([0.5]),
                       tf_mode="fixed", tf=1.0,
                       dynamics_rows=lambda xs, us, ts: -0.5 * xs + us,
                       running_cost_rows=lambda xs, us, ts: 0.5 * (
                           (xs[:, 0] - 1.0) * (xs[:, 0] - 1.0) + us[:, 0] * us[:, 0]))
        assert validate_problem(p).ok
        xs, us, ts = _random_rows(p, np.random.default_rng(7))
        for name in ROW_FORMS:
            rows = getattr(p, name + "_rows")(xs, us, ts)
            assert np.array_equal(rows, _stacked_points(getattr(p, name), xs, us, ts))
            assert np.allclose(rows, getattr(full, name + "_rows")(xs, us, ts),
                               atol=1e-7), name

    def test_dynamics_required_in_some_form(self):
        with pytest.raises(ValueError, match="dynamics"):
            OcpProblem(n=1, m=1, q=0, t0=0.0, x0=np.zeros(1), tf_mode="fixed",
                       tf=1.0)


class TestReplace:
    """``dataclasses.replace`` derives filled-in callbacks afresh."""

    def test_finite_difference_follows_new_dynamics(self):
        p = OcpProblem(n=1, m=1, q=0, t0=0.0, x0=np.array([1.0]),
                       tf_mode="fixed", tf=1.0,
                       dynamics=lambda x, u, t: np.array([u[0]]))
        x, u = np.array([0.7]), np.array([0.2])
        assert np.allclose(p.jac_fx(x, u, 0.3), [[0.0]], atol=1e-9)
        q = dataclasses.replace(
            p, dynamics=lambda x, u, t: np.array([-2.0 * x[0] + u[0]]))
        assert np.allclose(q.jac_fx(x, u, 0.3), [[-2.0]], atol=1e-8)
        rows = q.jac_fx_rows(np.array([x, x]), np.array([u, u]), np.array([0.3, 0.6]))
        assert np.allclose(rows, -2.0, atol=1e-8)
        # The original problem keeps its own derivatives.
        assert np.allclose(p.jac_fx(x, u, 0.3), [[0.0]], atol=1e-9)

    def test_row_form_follows_replaced_point_form(self):
        p = _drift_only_problem()
        new = lambda x, u, t: np.array([[0.0, 1.0], [-3.0 * t, 0.0]])
        q = dataclasses.replace(p, jac_fx=new)
        xs, us, ts = _random_rows(q, np.random.default_rng(7), count=3)
        assert q.jac_fx is new
        assert np.array_equal(q.jac_fx_rows(xs, us, ts),
                              _stacked_points(new, xs, us, ts))
        # Untouched callbacks keep following their own given forms.
        assert np.array_equal(q.jac_fu_rows(xs, us, ts),
                              _stacked_points(p.jac_fu, xs, us, ts))

    def test_point_form_follows_replaced_row_form(self):
        p = tracking_fixture().problem
        new = lambda xs, us, ts: np.full((len(ts), 1, 1), -0.75)
        q = dataclasses.replace(p, jac_fx_rows=new)
        assert q.jac_fx_rows is new
        assert np.array_equal(q.jac_fx(np.array([0.1]), np.array([0.2]), 0.5),
                              [[-0.75]])
        assert np.array_equal(p.jac_fx(np.array([0.1]), np.array([0.2]), 0.5),
                              [[-0.5]])

    def test_given_callbacks_survive_a_replace(self):
        # A replace that touches nothing keeps every given callback and
        # derives the others again, to the same values.
        p = brachistochrone().problem
        q = dataclasses.replace(p)
        for name in ("dynamics_rows", "jac_fx_rows", "jac_fu_rows", "terminal_cost",
                     "constraint", "jac_gx"):
            assert getattr(q, name) is getattr(p, name), name
        xs, us, ts = _random_rows(p, np.random.default_rng(8), count=3)
        for name in ROW_FORMS:
            assert np.array_equal(getattr(q, name + "_rows")(xs, us, ts),
                                  getattr(p, name + "_rows")(xs, us, ts)), name
