"""Embedded Dormand-Prince 4(5) integration with dense output.

The stepper mirrors classic ode45 behaviour: a seven-stage pair with
proportional step control on the embedded 4th/5th-order error estimate
and a quartic interpolant for evaluation between accepted steps.  Spans
run forward only.  A VemError leaving the integrator, from the field or
the stepper, carries the steps accepted so far as ``exc.path``.

The seventh stage is evaluated at the accepted solution itself (the pair
is first-same-as-last), so the field's last call of an accepted step sees
an array bit-equal to the ``y`` handed to ``on_step``; a field that caches
its work keyed on the vector's bytes can reuse it there.

Dense output is one contraction.  ``rows(ts)`` returns one row per
query time, contracting each step's coefficients with C-contiguous
(T, 4) powers via ``einsum("sdj,sj->sd")``; the result of each row does
not depend on how many rows are asked for, so ``eval`` on an array of
times is ``rows`` and a scalar query (a Python ``float``, ``np.float64``
or any 0-d value) is simply the one-row case.  Powers are always formed
as ``theta, theta**2, theta**3, theta**4`` on arrays: Python-scalar
powers differ in the last bit on some queries.  The step index comes from
``searchsorted`` on the interior step boundaries, which clamps queries
outside the span to the edge steps (they extrapolate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonFiniteField, StepFailure, VemError

# Butcher tableau (Dormand & Prince 1980).
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = (
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
# The last row of _A holds the 5th-order propagating weights (the 7th
# weight is zero); _E holds the (b5 - b4) error weights.
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
# Coefficients of the quartic interpolant (Shampine's free 4th-order
# continuous extension); column j multiplies theta**(j+1).
_P = np.array(
    [
        [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0, 0, 0, 0],
        [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)

_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SAFETY = 0.9


@dataclass
class IntegratorOptions:
    """Tolerances and limits for the adaptive stepper.

    ``max_step`` defaults to one tenth of the integration span, which
    keeps the stepper inside its contraction region on long relaxation
    runs instead of parking at the stability boundary.
    """

    rtol: float = 1e-3
    atol: float = 1e-6
    max_steps: int = 20000
    initial_step: Optional[float] = None
    max_step: Optional[float] = None

    def __post_init__(self) -> None:
        if not (0.0 < self.rtol < np.inf and 0.0 < self.atol < np.inf):
            raise ValueError("rtol and atol must be positive and finite")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.initial_step is not None and not 0.0 < self.initial_step < np.inf:
            raise ValueError("initial_step must be positive and finite")
        if self.max_step is not None and not self.max_step > 0.0:
            raise ValueError("max_step must be positive")


class SolutionPath:
    """Piecewise-quartic dense output of one integration run.

    Supports evaluation at arbitrary query times within the integrated
    span.
    """

    def __init__(self, ts, ys, qs, hs, stopped=False):
        self.ts = np.asarray(ts)          # accepted step boundaries, (S+1,)
        self.ys = np.asarray(ys)          # states at boundaries, (S+1, dim)
        self.qs = np.asarray(qs)          # interpolant coefficients, (S, dim, 4)
        self.hs = np.asarray(hs)          # step sizes, (S,)
        # The insertion index of a query among the interior step boundaries
        # is its step, clamped to the edge steps.
        self._inner = self.ts[1:-1]
        self.stopped = stopped

    @property
    def t0(self) -> float:
        return float(self.ts[0])

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    @property
    def y_end(self) -> np.ndarray:
        return self.ys[-1]

    def rows(self, ts) -> np.ndarray:
        """Dense output at the times ``ts`` as (T, dim) rows; each row is
        bit-equal to the scalar query at its time."""
        tq = np.asarray(ts, dtype=float)
        idx = self._inner.searchsorted(tq, side="right")
        theta = ((tq - self.ts[idx]) / self.hs[idx])[:, None]
        powers = np.concatenate([theta, theta**2, theta**3, theta**4], axis=1)
        return self.ys[idx] + self.hs[idx, None] * np.einsum(
            "sdj,sj->sd", self.qs[idx], powers
        )

    def eval(self, t):
        """Evaluate the dense output at scalar or array query times.

        Queries outside the integrated span extrapolate the edge steps.
        """
        if isinstance(t, float) or np.ndim(t) == 0:
            return self.rows(np.array([t], dtype=float))[0]
        return self.rows(t)

    __call__ = eval


def _rms(v):
    """Root mean square of a 1-D array, bit-equal to
    ``np.sqrt(np.mean(v ** 2))`` (the same pairwise sum, then one division)
    without ``np.mean``'s dispatch."""
    return np.sqrt(np.add.reduce(v * v) / v.size)


def _initial_step(field, t0, y0, f0, span, rtol, atol):
    """Hairer-style starting step selection."""
    scale = atol + rtol * np.abs(y0)
    d0 = _rms(y0 / scale) if y0.size else 0.0
    d1 = _rms(f0 / scale) if y0.size else 0.0
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    y1 = y0 + h0 * f0
    f1 = np.asarray(field(t0 + h0, y1), dtype=float)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


def _stages(field, t, y, h, f0):
    """Evaluate the seven stage derivatives.

    Returns (K, y_new): K of shape (7, dim) and the 5th-order solution at
    t + h, the very array the last stage was evaluated at.
    """
    k = np.empty((7, y.size))
    k[0] = f0
    for i, a_row in enumerate(_A, start=1):
        yi = y + h * (a_row @ k[:i])
        k[i] = np.asarray(field(t + _C[i] * h, yi), dtype=float)
    return k, yi


def _forward_span(t_span):
    """``(t0, t_end)`` of a span; ValueError unless it runs forward by more
    than rounding."""
    t0, t_end = float(t_span[0]), float(t_span[1])
    if not t_end - t0 > 1e-14 * max(abs(t0), abs(t_end), 1.0):
        raise ValueError("t_span must run forward and not be degenerate")
    return t0, t_end


def rk45_integrate(field, y0, t_span, opts: Optional[IntegratorOptions] = None,
                   on_step: Optional[Callable[[float, np.ndarray], bool]] = None
                   ) -> SolutionPath:
    """Integrate ``dy/dt = field(t, y)`` over the forward ``t_span`` with
    dense output.

    The local error is kept at or below ``atol + rtol * |y|`` per
    component.  ``on_step``, when given, is called after each accepted
    step with ``(t, y)``; returning True halts the integration cleanly
    (the path's ``stopped`` flag is set).

    Raises StepFailure when the step size underflows or the accepted-step
    budget is exhausted, NonFiniteField when the field returns NaN or Inf.
    Any VemError leaving the run, these or one raised by ``field`` or
    ``on_step``, carries the path of the steps accepted before it as
    ``exc.path``; the step ``on_step`` was called on is among them.
    """
    opts = opts or IntegratorOptions()
    t0, t_end = _forward_span(t_span)
    span = t_end - t0

    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    ts, ys, qs, hs = [t0], [y.copy()], [], []
    t = t0
    stopped = False
    tiny = 1e-14 * max(abs(t0), abs(t_end), 1.0)
    try:
        f0 = np.asarray(field(t0, y), dtype=float)
        if not np.isfinite(f0).all():
            raise NonFiniteField(f"field returned non-finite values at t={t0}")
        h_max = float(opts.max_step) if opts.max_step is not None else 0.1 * span
        if opts.initial_step is not None:
            h_abs = float(opts.initial_step)
        else:
            h_abs = _initial_step(field, t0, y, f0, span, opts.rtol, opts.atol)
        h_abs = min(max(h_abs, 1e-12), h_max)

        while t_end - t > tiny:
            if len(hs) >= opts.max_steps:
                raise StepFailure(f"exceeded max_steps={opts.max_steps} at t={t}")
            h_abs = min(h_abs, h_max)
            if h_abs < tiny:
                raise StepFailure(f"step size underflow at t={t}")
            h = t_end - t if t + h_abs - t_end >= 0.0 else h_abs  # snap to t_end

            k, y_new = _stages(field, t, y, h, f0)
            if not np.isfinite(k).all():
                raise NonFiniteField(f"field returned non-finite values near t={t}")
            err_vec = h * (_E @ k)
            scale = opts.atol + opts.rtol * np.maximum(np.abs(y), np.abs(y_new))
            err = _rms(err_vec / scale)

            if err <= 1.0:
                qs.append(k.T @ _P)
                hs.append(h)
                t = t + h
                y = y_new
                ts.append(t)
                ys.append(y.copy())
                f0 = k[6]  # last stage sits at (t+h, y_new): free first stage
                factor = _MAX_FACTOR if err == 0.0 else min(
                    _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** -0.2))
                h_abs *= factor
                if on_step is not None and on_step(t, y):
                    stopped = True
                    break
            else:
                h_abs *= max(_MIN_FACTOR, min(1.0, _SAFETY * err ** -0.2))
    except VemError as exc:
        exc.path = SolutionPath(ts, ys, qs, hs)
        raise

    return SolutionPath(ts, ys, qs, hs, stopped=stopped)


def rk45_fixed(field, y0, t_span, n_steps: int) -> SolutionPath:
    """Fixed-step variant of the same pair over a forward span, for
    convergence studies."""
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    t0, t_end = _forward_span(t_span)
    h = (t_end - t0) / n_steps
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    f0 = np.asarray(field(t0, y), dtype=float)

    ts = [t0]
    ys = [y.copy()]
    qs = []
    hs = []
    t = t0
    for i in range(n_steps):
        k, y = _stages(field, t, y, h, f0)
        if not np.isfinite(k).all():
            raise NonFiniteField(f"field returned non-finite values near t={t}")
        qs.append(k.T @ _P)
        hs.append(h)
        t = t0 + (i + 1) * h
        ts.append(t)
        ys.append(y.copy())
        f0 = np.asarray(field(t, y), dtype=float)
    return SolutionPath(ts, ys, qs, hs)
