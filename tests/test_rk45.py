import numpy as np
import pytest

from vem.errors import NonFiniteField, StepFailure
from vem.rk45 import IntegratorOptions, rk45_fixed, rk45_integrate


def test_exponential_growth():
    path = rk45_integrate(lambda t, y: y, [1.0], (0.0, 1.0))
    assert abs(path.eval(1.0)[0] - np.e) <= 10 * 1e-3


def test_constant_field_exact():
    path = rk45_integrate(lambda t, y: np.zeros_like(y), [3.5, -1.0], (0.0, 5.0))
    for t in (0.0, 1.3, 2.7, 5.0):
        assert np.array_equal(path.eval(t), np.array([3.5, -1.0]))


def test_riccati_closed_form():
    # y' = -2 t y^2 with y(0) = 1 has y(t) = 1/(1 + t^2).
    path = rk45_integrate(lambda t, y: -2.0 * t * y**2, [1.0], (0.0, 2.0))
    assert abs(path.y_end[0] - 0.2) <= 1e-4


def test_tolerance_halving_reduces_error():
    # Tolerances tight enough that error control (not the step-size cap)
    # limits the step sequence.
    def run(rtol, atol):
        opts = IntegratorOptions(rtol=rtol, atol=atol)
        path = rk45_integrate(lambda t, y: -2.0 * t * y**2, [1.0], (0.0, 2.0), opts)
        return abs(path.y_end[0] - 0.2)

    errs = [run(rtol, rtol * 1e-3) for rtol in (1e-6, 5e-7, 2.5e-7)]
    assert errs[1] < errs[0]
    assert errs[2] < errs[1]


def test_fixed_step_observed_order():
    errs, hs = [], []
    for n in (10, 20, 40, 80):
        path = rk45_fixed(lambda t, y: -2.0 * t * y**2, [1.0], (0.0, 2.0), n)
        errs.append(abs(path.y_end[0] - 0.2))
        hs.append(2.0 / n)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= 4.0


def test_dense_output_accuracy():
    opts = IntegratorOptions(rtol=1e-8, atol=1e-10)
    path = rk45_integrate(lambda t, y: -2.0 * t * y**2, [1.0], (0.0, 2.0), opts)
    t = np.linspace(0.0, 2.0, 257)
    err = np.max(np.abs(path.eval(t)[:, 0] - 1.0 / (1.0 + t**2)))
    assert err <= 1e-6


def test_backward_integration():
    # Integrate y' = y backward from y(1) = e; expect y(0) = 1.
    path = rk45_integrate(lambda t, y: y, [np.e], (1.0, 0.0), IntegratorOptions(rtol=1e-8, atol=1e-10))
    assert abs(path.y_end[0] - 1.0) <= 1e-7
    assert abs(path.eval(0.5)[0] - np.exp(0.5)) <= 1e-6


@pytest.mark.parametrize("t_span", [(0.0, 2.0), (2.0, 0.0)])
def test_scalar_eval_matches_array_eval(t_span):
    # A scalar query must return the bits of the same time queried as a
    # one-element array, also outside the integrated span (edge
    # extrapolation).  Longer arrays may sum the interpolant in another
    # order, so they are not the reference.  Starting from zero, the
    # first step's values are the interpolant sum alone, so a last-bit
    # change in theta's powers shows there.
    path = rk45_integrate(
        lambda t, y: np.array([np.cos(t), -np.sin(3.0 * t), t * t, 1.0 + y[0]]),
        np.zeros(4), t_span)
    rng = np.random.default_rng(3)
    first = sorted(path.ts[:2])
    queries = np.concatenate([rng.uniform(-0.5, 2.5, 200),
                              rng.uniform(*first, 300), path.ts, [-4.0, 9.0]])
    for t in queries:
        expected = path.eval(np.array([t]))[0]
        for q in (float(t), np.float64(t)):
            assert np.array_equal(path.eval(q), expected)


def _wavy(t, y):
    return np.array([np.cos(t), -np.sin(3.0 * t), t * t, 1.0 + y[0]])


@pytest.mark.parametrize("case", ["forward", "backward", "single-step"])
def test_row_query_matches_scalar_query(case):
    # Every row of a six-row query, and the same time asked as one row,
    # returns the scalar query's bits, also outside the span.
    if case == "single-step":
        path = rk45_fixed(_wavy, np.zeros(4), (0.0, 2.0), 1)
    else:
        path = rk45_integrate(_wavy, np.zeros(4),
                              (0.0, 2.0) if case == "forward" else (2.0, 0.0))
    rng = np.random.default_rng(4)
    batches = [rng.uniform(-0.5, 2.5, 6) for _ in range(150)]
    batches.append(np.array([-4.0, 9.0, 0.0, 2.0, path.ts[1], path.ts[-2]]))
    for batch in batches:
        rows = path.rows(batch)
        assert rows.shape == (6, 4)
        for k, t in enumerate(batch):
            assert np.array_equal(path.rows(np.array([t]))[0], rows[k])
            for q in (float(t), np.float64(t)):
                assert np.array_equal(path.eval(q), rows[k])


@pytest.mark.parametrize("t_span", [(0.0, 3.0), (3.0, 0.0)])
def test_prepare_receives_each_attempts_stage_times(t_span):
    # One prepare per step attempt, rejected ones included, with exactly
    # the six times the stages are then evaluated at; the first call (t0)
    # and the starting-step probe come unprepared.
    calls, prepared = [], []

    class Field:
        def prepare(self, ts):
            prepared.append(ts.copy())

        def __call__(self, t, y):
            calls.append(t)
            return np.array([1.0 / (1e-3 + (t - 1.3) ** 2)])   # sharp peak

    path = rk45_integrate(Field(), [0.0], t_span)
    staged = np.array(calls[2:]).reshape(-1, 6)
    assert len(prepared) == len(staged) > len(path.hs)   # some were rejected
    assert np.array_equal(np.array(prepared), staged)


def test_max_steps_exhaustion():
    with pytest.raises(StepFailure):
        rk45_integrate(lambda t, y: y, [1.0], (0.0, 10.0),
                       IntegratorOptions(max_steps=3))


def test_non_finite_field_detected():
    def field(t, y):
        return np.array([np.nan]) if t > 0.5 else y

    with pytest.raises(NonFiniteField):
        rk45_integrate(field, [1.0], (0.0, 1.0))


def test_degenerate_span_rejected():
    with pytest.raises(ValueError):
        rk45_integrate(lambda t, y: y, [1.0], (1.0, 1.0))


def test_on_step_halts_cleanly():
    path = rk45_integrate(lambda t, y: -y, [1.0], (0.0, 50.0),
                          on_step=lambda t, y: t > 5.0)
    assert path.stopped
    assert 5.0 < path.t_end < 50.0


def test_option_validation():
    with pytest.raises(ValueError):
        IntegratorOptions(rtol=0.0)
    with pytest.raises(ValueError):
        IntegratorOptions(max_steps=0)
    with pytest.raises(ValueError):
        IntegratorOptions(max_step=-1.0)


def _linear_field(t, y):
    return _coefficients(t) @ y


def _coefficients(t):
    """A(t) of a damped oscillator with a time-varying stiffness."""
    return np.array([[0.0, 1.0], [-1.0 - 0.5 * np.sin(t), -0.1]])


@pytest.mark.parametrize("t_span", [(0.0, 3.0), (3.0, 0.0)])
@pytest.mark.parametrize("fixed", [False, True])
def test_stage_record_holds_the_points_the_field_saw(t_span, fixed):
    # stages 1-7 of every accepted step, with stage 7 shared by the next
    # step: 6S+1 points, each bit-equal to a (t, y) the field was called at.
    seen = set()

    def field(t, y):
        seen.add((float(t), y.tobytes()))
        return np.array([1.0 / (1e-3 + (t - 1.3) ** 2), -y[0]])

    if fixed:
        path = rk45_fixed(field, [0.0, 1.0], t_span, 40)
    else:
        path = rk45_integrate(field, [0.0, 1.0], t_span)
    times, rows = path.stage_times(), path.stage_rows()
    assert times.shape == (6 * len(path.hs) + 1,)
    assert rows.shape == (times.size, 2)
    assert np.array_equal(rows[0::6], path.ys)
    assert all((float(t), row.tobytes()) in seen for t, row in zip(times, rows))


@pytest.mark.parametrize("t_span", [(0.0, 4.0), (4.0, 0.0)])
def test_linear_flow_matches_the_integrated_linear_field(t_span):
    # For y' = A(t) y the steps are linear in y0, so the flow of the same
    # steps applied to y0 reproduces the path to rounding.
    y0 = np.array([1.0, -0.5])
    path = rk45_integrate(_linear_field, y0, t_span)
    mats = np.array([_coefficients(t) for t in path.stage_times()])
    ts = np.linspace(*t_span, 17)
    flow = path.linear_flow(mats, ts)
    assert np.array_equal(flow[0], np.eye(2))
    assert np.max(np.abs(flow @ y0 - path.eval(ts))) <= 1e-13


def test_stage_integral_matches_the_integrated_quadrature():
    # y' = g(t) integrates g with the 5th-order weights.
    def g(t):
        return np.exp(np.sin(3.0 * t))

    path = rk45_integrate(lambda t, y: np.array([g(t)]), [0.0], (0.0, 2.0))
    total = path.stage_integral(g(path.stage_times()))
    assert abs(total - path.y_end[0]) <= 1e-14 * abs(path.y_end[0])
