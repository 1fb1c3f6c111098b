"""Shared numerical kernels: cubic splines, grid quadrature, dense solves.

Spline construction solves the not-a-knot slope system, which is
tridiagonal, with ``scipy.linalg.solve_banded`` on a band matrix cached per
node spacing, and forms the cubic Hermite coefficients from the slopes; it
repeats the arithmetic of scipy's ``CubicSpline``, which costs several
times as much per build.  2-3 nodes give the interpolating line or
parabola.  Evaluation goes through a light Horner path because the solver
queries splines at scalar times inside inner ODE loops, where scipy's PPoly
call overhead dominates.

Scalar queries (a Python ``float``, ``np.float64`` or any 0-d value) take a
fast path without temporary arrays.  Both paths find the interval by
``searchsorted`` on the interior breakpoints, which clamps outside queries
to the edge intervals without ``np.clip``, and run the same elementwise
Horner arithmetic on the same coefficients, so a scalar query returns bit
for bit what the same time inside an array query of any length returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.linalg import solve_banded

from .errors import DegenerateGrid, SingularSystem

COND_LIMIT = 1e12


def _check_grid(nodes: np.ndarray) -> np.ndarray:
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 2:
        raise DegenerateGrid("need at least two grid nodes")
    if not np.all(np.diff(nodes) > 0.0):
        raise DegenerateGrid("grid nodes must be strictly increasing")
    return nodes


@dataclass
class SplineCoeffs:
    """Per-interval cubic coefficients over common breakpoints.

    ``coeffs[p, j, c]`` multiplies ``(t - breakpoints[j]) ** (3 - p)`` on
    interval j for channel c.  ``squeeze`` records whether the input values
    were one-dimensional, so evaluation mirrors the caller's shape.
    """

    breakpoints: np.ndarray     # (N,)
    coeffs: np.ndarray          # (4, N-1, channels)
    squeeze: bool = False

    @property
    def n_channels(self) -> int:
        return self.coeffs.shape[2]

    def _locate(self, t):
        """Interval coefficients and offsets for the query times.

        Scalar t gives coefficients (4, channels) and a scalar offset; an
        array gives (4, T, channels) and offsets (T, 1).  Queries outside
        the breakpoints use the edge intervals.
        """
        # The insertion index among the interior breakpoints is the
        # interval, clamped to the edge intervals.
        inner = self.breakpoints[1:-1]
        if isinstance(t, float) or np.ndim(t) == 0:
            t = float(t)
            i = int(inner.searchsorted(t, side="right"))
            return self.coeffs[:, i, :], t - self.breakpoints[i]
        t_arr = np.asarray(t, dtype=float)
        idx = inner.searchsorted(t_arr, side="right")
        return self.coeffs[:, idx, :], (t_arr - self.breakpoints[idx])[:, None]

    def _shaped(self, out):
        if not self.squeeze:
            return out
        return out[0] if out.ndim == 1 else out[:, 0]

    def eval(self, t):
        """Value at scalar or array times; edge polynomials extrapolate."""
        c, dt = self._locate(t)
        return self._shaped(((c[0] * dt + c[1]) * dt + c[2]) * dt + c[3])

    def derivative(self, t):
        """First time-derivative at scalar or array times."""
        c, dt = self._locate(t)
        return self._shaped((3.0 * c[0] * dt + 2.0 * c[1]) * dt + c[2])

    __call__ = eval


@lru_cache(maxsize=8)
def _not_a_knot_band(spacing: bytes) -> np.ndarray:
    """Banded (1, 1) matrix of the not-a-knot slope system for the node
    spacing given as the bytes of ``np.diff(nodes)``; read-only."""
    dx = np.frombuffer(spacing)
    ab = np.zeros((3, dx.size + 1))
    ab[0, 2:] = dx[:-1]
    ab[1, 1:-1] = 2.0 * (dx[:-1] + dx[1:])
    ab[2, :-2] = dx[1:]
    ab[1, 0], ab[0, 1] = dx[1], dx[0] + dx[1]
    ab[1, -1], ab[2, -2] = dx[-2], dx[-1] + dx[-2]
    ab.flags.writeable = False
    return ab


def _node_slopes(dx, slope):
    """Spline slopes at the nodes from the interval widths and secants."""
    if dx.size == 1:
        return np.concatenate([slope, slope])
    if dx.size == 2:
        # The parabola through three points.
        curv = (slope[1] - slope[0]) / (dx[0] + dx[1])
        return np.stack([slope[0] - curv * dx[0], slope[0] + curv * dx[0],
                         slope[0] + curv * (dx[0] + 2.0 * dx[1])])
    dxr = dx[:, None]
    rhs = np.empty((dx.size + 1, slope.shape[1]))
    rhs[1:-1] = 3.0 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    d = dx[0] + dx[1]
    rhs[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = dx[-1] + dx[-2]
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    return solve_banded((1, 1), _not_a_knot_band(dx.tobytes()), rhs,
                        overwrite_b=True, check_finite=False)


def spline_build(nodes, values) -> SplineCoeffs:
    """Not-a-knot cubic spline through node values.

    ``values`` of shape (N,) or (N, channels).  Exact at nodes and exactly
    reproduces cubic polynomials for N >= 4; 2-3 nodes fall back to the
    interpolating line or parabola.
    """
    nodes = _check_grid(nodes)
    vals = np.asarray(values, dtype=float)
    squeeze = vals.ndim == 1
    if squeeze:
        vals = vals[:, None]
    if vals.shape[0] != nodes.size:
        raise DegenerateGrid("values and nodes disagree in length")
    dx = np.diff(nodes)
    slope = np.diff(vals, axis=0) / dx[:, None]
    return _hermite(nodes, vals, slope, _node_slopes(dx, slope), squeeze)


def hermite_build(nodes, values, slopes) -> SplineCoeffs:
    """Cubic Hermite interpolant through node values (N, channels) with
    the given node slopes (N, channels)."""
    nodes = _check_grid(nodes)
    vals = np.asarray(values, dtype=float)
    slope = np.diff(vals, axis=0) / np.diff(nodes)[:, None]
    return _hermite(nodes, vals, slope, np.asarray(slopes, dtype=float))


def _hermite(nodes, vals, slope, s, squeeze=False) -> SplineCoeffs:
    """Per-interval cubic coefficients from node values, interval secants
    and node slopes."""
    dxr = np.diff(nodes)[:, None]
    t = (s[:-1] + s[1:] - 2.0 * slope) / dxr
    coeffs = np.empty((4,) + slope.shape)
    coeffs[0] = t / dxr
    coeffs[1] = (slope - s[:-1]) / dxr - t
    coeffs[2] = s[:-1]
    coeffs[3] = vals[:-1]
    return SplineCoeffs(nodes, coeffs, squeeze=squeeze)


def grid_quadrature(grid, samples):
    """Composite-trapezoid integral of per-node samples over the grid."""
    grid = _check_grid(grid)
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] != grid.size:
        raise DegenerateGrid("samples and grid disagree in length")
    return np.trapezoid(samples, grid, axis=0)


def cumulative_from_right(grid, samples):
    """Per-node running integrals from each node to the final node.

    Entry i approximates the integral of the samples over [t_i, t_last]
    with the composite trapezoid rule; the last entry is exactly zero and
    the first equals ``grid_quadrature`` of the same samples.
    """
    grid = _check_grid(grid)
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] != grid.size:
        raise DegenerateGrid("samples and grid disagree in length")
    left = cumulative_trapezoid(samples, grid, axis=0, initial=0.0)
    return left[-1] - left


def cumulative_products(mats) -> np.ndarray:
    """Running products of a matrix stack, newest factor on the left.

    Entry k is ``mats[k] @ mats[k-1] @ ... @ mats[0]``; entry 0 is
    ``mats[0]`` unchanged.  Formed by recursive doubling: after the round
    with offset d every entry holds the product of up to 2d factors, so a
    stack of K matrices takes ceil(log2 K) batched matmuls instead of K - 1
    sequential ones.  The association order differs from the sequential
    loop, so the results agree with it to rounding.
    """
    out = np.array(mats, dtype=float)
    d = 1
    while d < len(out):
        out[d:] = out[d:] @ out[:-d]
        d *= 2
    return out


def solve_dense(mat, rhs):
    """Solve a small dense system; returns (solution, condition estimate).

    Raises SingularSystem when the condition estimate exceeds COND_LIMIT,
    which signals a rank-deficient constraint Jacobian or a vanishing
    controllability Gramian upstream.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
    if not np.all(np.isfinite(mat)):
        raise SingularSystem("matrix contains non-finite entries")
    cond = float(np.linalg.cond(mat))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularSystem(f"condition estimate {cond:.3e} exceeds {COND_LIMIT:.0e}")
    return np.linalg.solve(mat, rhs), cond
