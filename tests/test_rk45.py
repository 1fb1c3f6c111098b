import numpy as np
import pytest

from vem.errors import NonFiniteField, StepFailure
from vem.rk45 import IntegratorOptions, rk45_fixed, rk45_integrate, steppable_span


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


@pytest.mark.parametrize("t_span", [(0.0, 2.0)])
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


@pytest.mark.parametrize("case", ["forward", "single-step"])
def test_row_query_matches_scalar_query(case):
    # Every row of a six-row query, and the same time asked as one row,
    # returns the scalar query's bits, also outside the span.
    if case == "single-step":
        path = rk45_fixed(_wavy, np.zeros(4), (0.0, 2.0), 1)
    else:
        path = rk45_integrate(_wavy, np.zeros(4), (0.0, 2.0))
    rng = np.random.default_rng(4)
    batches = [rng.uniform(-0.5, 2.5, 6) for _ in range(150)]
    batches.append(np.array([-4.0, 9.0, 0.0, 2.0, path.ts[1], path.ts[-2]]))
    for batch in batches:
        rows = path.eval(batch)
        assert rows.shape == (6, 4)
        for k, t in enumerate(batch):
            assert np.array_equal(path.eval(np.array([t]))[0], rows[k])
            for q in (float(t), np.float64(t), np.array(t)):
                assert np.array_equal(path.eval(q), rows[k])


def test_max_steps_exhaustion():
    # The failure carries the steps accepted within the budget.
    with pytest.raises(StepFailure) as info:
        rk45_integrate(lambda t, y: y, [1.0], (0.0, 10.0),
                       IntegratorOptions(max_steps=3))
    path = info.value.path
    assert len(path.hs) == 3 and path.t_end < 10.0
    assert np.allclose(path.eval(path.ts), path.ys, rtol=1e-14, atol=0.0)


def test_non_finite_field_detected():
    def field(t, y):
        return np.array([np.nan]) if t > 0.5 else y

    with pytest.raises(NonFiniteField):
        rk45_integrate(field, [1.0], (0.0, 1.0))


def test_degenerate_span_rejected():
    with pytest.raises(ValueError):
        rk45_integrate(lambda t, y: y, [1.0], (1.0, 1.0))


def test_reversed_span_rejected():
    for t_span in ((1.0, 0.0), (0.0, float("nan"))):
        with pytest.raises(ValueError, match="forward"):
            rk45_integrate(lambda t, y: y, [1.0], t_span)
        with pytest.raises(ValueError, match="forward"):
            rk45_fixed(lambda t, y: y, [1.0], t_span, 4)


@pytest.mark.parametrize("t0", [0.0, 1e3])
def test_every_accepted_span_is_steppable(t0):
    # One span rule: a span is accepted exactly when its default step cap,
    # a tenth of it, is not below the resolution 1e-14 * max(|t0|, |t_end|,
    # 1); spans below it raise ValueError instead of underflowing.
    resolution = 1e-14 * max(abs(t0), 1.0)
    for share in (1e-6, 1.0, 5.0, 9.9, 10.1, 20.0, 1e3):
        t_span = (t0, t0 + share * resolution)
        if 0.1 * (t_span[1] - t0) < resolution:
            assert not steppable_span(*t_span)
            with pytest.raises(ValueError, match="forward"):
                rk45_integrate(lambda t, y: -y, [1.0], t_span)
        else:
            assert steppable_span(*t_span)
            path = rk45_integrate(lambda t, y: -y, [1.0], t_span)
            assert path.t_end == t_span[1]


def test_short_spans_rejected_before_stepping():
    # At t0 = 0 the resolution is 1e-14: below 1e-13 the default cap is
    # below it, and 1e-13 takes ten capped steps at most, the last snapped
    # to t_end rather than leave one resolution unstepped.
    for t_end in (1e-20, 1e-14, 5e-14):
        with pytest.raises(ValueError, match="forward"):
            rk45_integrate(lambda t, y: y, [1.0], (0.0, t_end))
    path = rk45_integrate(lambda t, y: y, [1.0], (0.0, 1e-13))
    assert not path.stopped and len(path.hs) >= 9 and path.t_end == 1e-13


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
    # The start step is not a setting.
    with pytest.raises(TypeError):
        IntegratorOptions(initial_step=1e-3)
