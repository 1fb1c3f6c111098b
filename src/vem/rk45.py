"""Embedded Dormand-Prince 4(5) integration with dense output.

The stepper mirrors classic ode45 behaviour: a seven-stage pair with
proportional step control on the embedded 4th/5th-order error estimate
and a quartic interpolant for evaluation between accepted steps.  Both
forward and backward spans are supported.

The seventh stage is evaluated at the accepted solution itself (the pair
is first-same-as-last), so the field's last call of an accepted step sees
an array bit-equal to the ``y`` handed to ``on_step``; a field that caches
its work keyed on the vector's bytes can reuse it there.

Stage times are known before any stage is evaluated.  A field with a
``prepare`` attribute has it called once per step attempt with the six
new stage times ``t + c_i h`` (i = 1..6), computed elementwise by the
same expression as each stage's own time, so the floats match exactly;
such a field can look up everything that depends on time alone in one
vectorised call.  Any other call -- at t0, the starting-step probe, or a
field whose ``prepare`` is hidden behind a plain ``(t, y)`` wrapper --
reaches the field without preparation and must be served on its own.
The field is looked up for ``prepare`` once per run.

Every run keeps its stage record: the path holds the inputs of stages
2-7 of each accepted step, the very arrays the field was called with,
and with the start (stage 1 of the first step) they give the 6S+1
distinct points the field was evaluated at on the accepted steps, bit
for bit.  The record is taken by the integrator, not by the field, so
it survives any wrapper around the field.  Along it,
``SolutionPath.linear_flow`` integrates a linear system Z' = B(t) Z by
the run's own steps from B at those points (with B the field's Jacobian
this is the tangent of the run), and ``stage_integral`` sums a function
given there with the 5th-order weights.

Dense output has two contractions.  ``rows(ts)`` returns one row per
query time, contracting each step's coefficients with C-contiguous
(T, 4) powers via ``einsum("sdj,sj->sd")``; the result of each row does
not depend on how many rows are asked for, so a scalar query (a Python
``float``, ``np.float64`` or any 0-d value) is simply the one-row case.
``eval`` on an array of times keeps ``einsum("sdj,js->sd")`` with (4, T)
powers, which sums in another order and may differ from the row query in
the last bit; node values are read that way.  Powers are always formed
as ``theta, theta**2, theta**3, theta**4`` on arrays: Python-scalar
powers differ in the last bit on some queries.  The step index comes from
``searchsorted`` on the interior step boundaries, which clamps queries
outside the span to the edge steps (they extrapolate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonFiniteField, StepFailure
from .numerics import cumulative_products

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
        if self.rtol <= 0.0 or self.atol <= 0.0:
            raise ValueError("rtol and atol must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.max_step is not None and self.max_step <= 0.0:
            raise ValueError("max_step must be positive")


class SolutionPath:
    """Piecewise-quartic dense output of one integration run.

    Supports evaluation at arbitrary query times within the integrated
    span, in either integration direction.  ``ys[k]`` and ``stages[k]``
    are the seven stage inputs of accepted step k; stage 7 of a step is
    stage 1 of the next, so ``stage_rows`` and ``stage_times`` list the
    6S+1 distinct stage points in order.
    """

    def __init__(self, ts, ys, qs, hs, stages, stopped=False):
        self.ts = np.asarray(ts)          # accepted step boundaries, (S+1,)
        self.ys = np.asarray(ys)          # states at boundaries, (S+1, dim)
        self.qs = np.asarray(qs)          # interpolant coefficients, (S, dim, 4)
        self.hs = np.asarray(hs)          # signed step sizes, (S,)
        self.stages = stages              # inputs of stages 2-7, S x (6, dim)
        self.direction = 1.0 if self.ts[-1] >= self.ts[0] else -1.0
        # Increasing search key over the interior step boundaries: its
        # insertion index is the step, clamped to the edge steps.
        self._inner = (self.direction * self.ts)[1:-1]
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

    def _locate(self, tq):
        """Step index and normalized offset theta of every query time."""
        idx = self._inner.searchsorted(self.direction * tq, side="right")
        return idx, (tq - self.ts[idx]) / self.hs[idx]

    def rows(self, ts) -> np.ndarray:
        """Dense output at the times ``ts`` as (T, dim) rows; each row is
        bit-equal to the scalar query at its time."""
        tq = np.asarray(ts, dtype=float)
        idx, theta = self._locate(tq)
        theta = theta[:, None]
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
        tq = np.asarray(t, dtype=float)
        idx, theta = self._locate(tq)
        powers = np.vstack([theta, theta**2, theta**3, theta**4])  # (4, T)
        return self.ys[idx] + self.hs[idx, None] * np.einsum(
            "sdj,js->sd", self.qs[idx], powers
        )

    def stage_times(self) -> np.ndarray:
        """Times of the 6S+1 distinct stage points, (6S+1,): stages 1-6 of
        every step, then the end.  Each is bit-equal to the time the field
        was called at."""
        times = self.ts[:-1, None] + _C[:6] * self.hs[:, None]
        return np.append(times.ravel(), self.ts[-1])

    def stage_rows(self) -> np.ndarray:
        """Inputs at the 6S+1 distinct stage points, (6S+1, dim), in the
        order of ``stage_times``."""
        return np.concatenate([self.ys[:1], *self.stages])

    def stage_integral(self, values) -> float:
        """The integral over the span of a scalar function given at the
        6S+1 stage points: each step's b-weighted stage sum, as the
        5th-order solution would accumulate it."""
        per_step = np.reshape(values[:-1], (len(self.hs), 6)) @ _A[-1]
        return float(self.hs @ per_step)

    def linear_flow(self, mats, ts) -> np.ndarray:
        """Z at the times ``ts`` for Z' = B(t) Z, Z(t0) = I, taken by this
        run's own steps and dense output.

        ``mats`` holds B at the 6S+1 stage points, (6S+1, d, d).  Dormand-
        Prince applied to Z along the recorded steps is linear in Z: stage
        j of step k sees Z_k + h sum_l a_jl K_l = Q_j Z_k, with
        M_j = B_j Q_j the slope per unit Z_k.  So the step propagator
        G_k = Q_7 = I + h sum_l b_l M_l and the dense output
        (I + h sum_j w_j(theta) M_j) Z_k both come from one batched pass
        over the steps, and the Z_k from running products of the G_k.
        This is the tangent of the integrated run when B is its field's
        Jacobian at the stage inputs.
        """
        steps = len(self.hs)
        d = mats.shape[-1]
        h = self.hs[:, None, None]
        eye = np.eye(d)
        b = mats[6 * np.arange(steps)[:, None] + np.arange(7)]   # (S, 7, d, d)
        slopes = np.empty((steps, 7, d * d))
        slopes[:, 0] = b[:, 0].reshape(steps, d * d)
        for i, a_row in enumerate(_A, start=1):
            q = eye + h * (a_row @ slopes[:, :i]).reshape(steps, d, d)
            slopes[:, i] = (b[:, i] @ q).reshape(steps, d * d)
        # q now holds every step's propagator G_k.
        starts = cumulative_products(np.concatenate([eye[None], q]))
        tq = np.asarray(ts, dtype=float)
        idx, theta = self._locate(tq)
        theta = theta[:, None]
        weights = np.concatenate([theta, theta**2, theta**3, theta**4], axis=1) @ _P.T
        dense = (weights[:, None] @ slopes[idx])[:, 0].reshape(len(tq), d, d)
        return (eye + self.hs[idx, None, None] * dense) @ starts[idx]

    __call__ = eval


def _rms(v):
    """Root mean square of a 1-D array, bit-equal to
    ``np.sqrt(np.mean(v ** 2))`` (the same pairwise sum, then one division)
    without ``np.mean``'s dispatch."""
    return np.sqrt(np.add.reduce(v * v) / v.size)


def _initial_step(field, t0, y0, f0, direction, span, rtol, atol):
    """Hairer-style starting step selection."""
    scale = atol + rtol * np.abs(y0)
    d0 = _rms(y0 / scale) if y0.size else 0.0
    d1 = _rms(f0 / scale) if y0.size else 0.0
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, abs(span))
    y1 = y0 + h0 * direction * f0
    f1 = np.asarray(field(t0 + h0 * direction, y1), dtype=float)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, abs(span))


def _stages(field, prepare, t, y, h, f0):
    """Evaluate the seven stage derivatives.

    Returns (K, Y): K of shape (7, dim) and the inputs of stages 2-7,
    (6, dim).  ``Y[5]`` is the 5th-order solution at t + h, the very array
    the last stage was evaluated at.  The field's ``prepare`` hook (None
    when it has none) first receives stages 2-7's times at once.
    """
    k = np.empty((7, y.size))
    inputs = np.empty((6, y.size))
    k[0] = f0
    if prepare is not None:
        prepare(t + _C[1:] * h)
    for i, a_row in enumerate(_A, start=1):
        ti = t + _C[i] * h
        yi = np.add(y, h * (a_row @ k[:i]), out=inputs[i - 1])
        k[i] = np.asarray(field(ti, yi), dtype=float)
    return k, inputs


def rk45_integrate(field, y0, t_span, opts: Optional[IntegratorOptions] = None,
                   on_step: Optional[Callable[[float, np.ndarray], bool]] = None
                   ) -> SolutionPath:
    """Integrate ``dy/dt = field(t, y)`` over ``t_span`` with dense output.

    ``t_span`` may run forward or backward.  The local error is kept at or
    below ``atol + rtol * |y|`` per component.  ``on_step``, when given, is
    called after each accepted step with ``(t, y)``; returning True halts
    the integration cleanly (the path's ``stopped`` flag is set).  The
    returned path keeps the accepted steps' stage inputs (module
    docstring).

    Raises StepFailure when the step size underflows or the accepted-step
    budget is exhausted, NonFiniteField when the field returns NaN or Inf.
    """
    opts = opts or IntegratorOptions()
    t0, t_end = float(t_span[0]), float(t_span[1])
    if abs(t_end - t0) <= 1e-14 * max(abs(t0), abs(t_end), 1.0):
        raise ValueError("degenerate t_span")
    direction = 1.0 if t_end > t0 else -1.0
    span = t_end - t0

    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    f0 = np.asarray(field(t0, y), dtype=float)
    if not np.all(np.isfinite(f0)):
        raise NonFiniteField(f"field returned non-finite values at t={t0}")

    h_max = abs(float(opts.max_step)) if opts.max_step is not None else 0.1 * abs(span)
    if opts.initial_step is not None:
        h_abs = abs(float(opts.initial_step))
    else:
        h_abs = _initial_step(field, t0, y, f0, direction, span, opts.rtol, opts.atol)
    h_abs = min(max(h_abs, 1e-12), h_max)
    prepare = getattr(field, "prepare", None)

    ts = [t0]
    ys = [y.copy()]
    qs = []
    hs = []
    stages = []
    t = t0
    stopped = False
    accepted = 0
    tiny = 1e-14 * max(abs(t0), abs(t_end), 1.0)

    while direction * (t_end - t) > tiny:
        if accepted >= opts.max_steps:
            raise StepFailure(f"exceeded max_steps={opts.max_steps} at t={t}")
        h_abs = min(h_abs, h_max)
        if h_abs < tiny:
            raise StepFailure(f"step size underflow at t={t}")
        h = direction * h_abs
        if direction * (t + h - t_end) >= 0.0:  # final step snaps to t_end
            h = t_end - t

        k, inputs = _stages(field, prepare, t, y, h, f0)
        y_new = inputs[5]
        if not np.all(np.isfinite(k)):
            raise NonFiniteField(f"field returned non-finite values near t={t}")
        err_vec = h * (_E @ k)
        scale = opts.atol + opts.rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = _rms(err_vec / scale)

        if err <= 1.0:
            qs.append(k.T @ _P)
            stages.append(inputs)
            hs.append(h)
            t = t + h
            y = y_new
            ts.append(t)
            ys.append(y.copy())
            accepted += 1
            f0 = k[6]  # last stage sits at (t+h, y_new): free first stage
            factor = _MAX_FACTOR if err == 0.0 else min(
                _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** -0.2))
            h_abs *= factor
            if on_step is not None and on_step(t, y):
                stopped = True
                break
        else:
            h_abs *= max(_MIN_FACTOR, min(1.0, _SAFETY * err ** -0.2))

    return SolutionPath(ts, ys, qs, hs, stages, stopped=stopped)


def rk45_fixed(field, y0, t_span, n_steps: int) -> SolutionPath:
    """Fixed-step variant of the same pair, for convergence studies; its
    path keeps the stage record too."""
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    t0, t_end = float(t_span[0]), float(t_span[1])
    h = (t_end - t0) / n_steps
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    f0 = np.asarray(field(t0, y), dtype=float)
    prepare = getattr(field, "prepare", None)

    ts = [t0]
    ys = [y.copy()]
    qs = []
    hs = []
    stages = []
    t = t0
    for i in range(n_steps):
        k, inputs = _stages(field, prepare, t, y, h, f0)
        y = inputs[5]
        if not np.all(np.isfinite(k)):
            raise NonFiniteField(f"field returned non-finite values near t={t}")
        qs.append(k.T @ _P)
        stages.append(inputs)
        hs.append(h)
        t = t0 + (i + 1) * h
        ts.append(t)
        ys.append(y.copy())
        f0 = np.asarray(field(t, y), dtype=float)
    return SolutionPath(ts, ys, qs, hs, stages)
