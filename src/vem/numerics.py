"""Shared numerical kernels: cubic splines, grid quadrature, dense solves.

The running trapezoid sums (``cumulative_from_right``, read by the
oracles) repeat scipy's ``cumulative_trapezoid`` arithmetic, and nothing
here imports ``scipy.integrate``.

Spline construction solves the not-a-knot slope system, which is
tridiagonal, with LAPACK's ``dgtsv`` on diagonals cached per node spacing
-- the routine ``scipy.linalg.solve_banded`` calls for a (1, 1) band,
without its wrapper -- and forms the cubic Hermite coefficients from the
slopes; it repeats the arithmetic of scipy's ``CubicSpline``, which costs
several times as much per build.  2-3 nodes give the interpolating line or
parabola.  Evaluation goes through a light Horner path.  A solve reads
splines on interval stencils -- the same fractions of every interval --
by ``SplineCoeffs.at_fractions``, which runs Horner on each interval's
coefficients with no interval search; other array queries serve node
derivatives and snapshots, and the Dormand-Prince oracles
(``trajectory.propagate_states``, ``checks.variational_state_rate``) query
splines at one time per field call, where scipy's PPoly call overhead
would dominate.

Scalar queries (a Python ``float``, ``np.float64`` or any 0-d value), which
only the oracles and tests make, are 0-d array queries.  A query finds the
interval by ``searchsorted`` on the interior breakpoints, which clamps
outside queries to the edge intervals without ``np.clip``, and runs
elementwise Horner arithmetic on that interval's coefficients, so a time
returns bit for bit what the same time inside an array query of any length
returns, and what the fraction reader returns at a stencil time.

``solve_dense`` calls LAPACK directly: ``dgesdd`` for the singular values
of the 2-norm condition number, as ``np.linalg.cond`` forms it, and
``dgesv`` for the solve, the routines behind ``np.linalg.svd`` and
``np.linalg.solve``, without their wrapper layers.  ``_one_norm_cond`` is
``np.linalg.cond(a, 1)`` the same way: numpy's inverse gufunc and the
column-sum norms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.linalg import _umath_linalg
from scipy.linalg.lapack import dgesdd, dgesv, dgtsv

from .errors import DegenerateGrid, SingularSystem

COND_LIMIT = 1e12


def _check_grid(nodes: np.ndarray):
    """The nodes as a float array and their interval widths."""
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 2:
        raise DegenerateGrid("need at least two grid nodes")
    # np.diff's arithmetic.
    dx = nodes[1:] - nodes[:-1]
    if not (dx > 0.0).all():
        raise DegenerateGrid("grid nodes must be strictly increasing")
    return nodes, dx


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

    def _locate(self, t):
        """Interval coefficients and offsets for the query times.

        Scalar t gives coefficients (4, channels) and offsets (1,); an
        array gives (4, T, channels) and offsets (T, 1).  Queries outside
        the breakpoints use the edge intervals.
        """
        # The insertion index among the interior breakpoints is the
        # interval, clamped to the edge intervals.
        t = np.asarray(t, dtype=float)
        idx = self.breakpoints[1:-1].searchsorted(t, side="right")
        return self.coeffs[:, idx, :], (t - self.breakpoints[idx])[..., None]

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

    def at_fractions(self, frac) -> np.ndarray:
        """Values at the fractions ``frac`` (K,) of every interval,
        (N-1, K, channels): interval j's polynomial by Horner at
        t_j + (t_j+1 - t_j) frac_k, the bits ``eval`` returns at that time,
        with no interval search.  A last fraction of exactly 1 is each
        interval's right end t_j+1, where, as for a query there, the next
        interval's node value is taken, except on the last interval."""
        left, right = self.breakpoints[:-1], self.breakpoints[1:]
        # Fraction-major (K, N-1) times, so each coefficient row runs
        # along whole rows; the result is copied to (N-1, K, channels).
        ts = left + (right - left) * frac[:, None]
        right_end = frac[-1] == 1.0
        if right_end:
            ts[-1] = right
        c = self.coeffs
        dt = (ts - left)[:, :, None]
        # ((c0 dt + c1) dt + c2) dt + c3, in place.
        out = c[0] * dt
        out += c[1]
        out *= dt
        out += c[2]
        out *= dt
        out += c[3]
        out = out.transpose(1, 0, 2).copy()
        if right_end:
            out[:-1, -1] = c[3, 1:]
        return out


@lru_cache(maxsize=8)
def _not_a_knot_band(spacing: bytes):
    """Sub-, main and super-diagonal of the not-a-knot slope system for the
    node spacing given as the bytes of ``np.diff(nodes)``; read-only."""
    dx = np.frombuffer(spacing)
    sub, main, sup = np.zeros(dx.size), np.zeros(dx.size + 1), np.zeros(dx.size)
    sub[:-1] = dx[1:]
    main[1:-1] = 2.0 * (dx[:-1] + dx[1:])
    sup[1:] = dx[:-1]
    main[0], sup[0] = dx[1], dx[0] + dx[1]
    main[-1], sub[-1] = dx[-2], dx[-1] + dx[-2]
    for diagonal in (sub, main, sup):
        diagonal.flags.writeable = False
    return sub, main, sup


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
    # dgtsv overwrites its diagonals, so it gets copies of the cached ones.
    *_, slopes, info = dgtsv(*_not_a_knot_band(dx.tobytes()), rhs, overwrite_b=1)
    if info:
        raise np.linalg.LinAlgError("singular not-a-knot system")
    return slopes


def spline_build(nodes, values) -> SplineCoeffs:
    """Not-a-knot cubic spline through node values.

    ``values`` of shape (N,) or (N, channels).  Exact at nodes and exactly
    reproduces cubic polynomials for N >= 4; 2-3 nodes fall back to the
    interpolating line or parabola.
    """
    nodes, dx = _check_grid(nodes)
    vals = np.asarray(values, dtype=float)
    squeeze = vals.ndim == 1
    if squeeze:
        vals = vals[:, None]
    if vals.shape[0] != nodes.size:
        raise DegenerateGrid("values and nodes disagree in length")
    slope = (vals[1:] - vals[:-1]) / dx[:, None]
    return _hermite(nodes, dx, vals, slope, _node_slopes(dx, slope), squeeze)


def hermite_build(nodes, values, slopes) -> SplineCoeffs:
    """Cubic Hermite interpolant through node values (N, channels) with
    the given node slopes (N, channels)."""
    nodes, dx = _check_grid(nodes)
    vals = np.asarray(values, dtype=float)
    slope = (vals[1:] - vals[:-1]) / dx[:, None]
    return _hermite(nodes, dx, vals, slope, np.asarray(slopes, dtype=float))


def _hermite(nodes, dx, vals, slope, s, squeeze=False) -> SplineCoeffs:
    """Per-interval cubic coefficients from node values, interval widths
    and secants, and node slopes."""
    dxr = dx[:, None]
    t = (s[:-1] + s[1:] - 2.0 * slope) / dxr
    coeffs = np.empty((4,) + slope.shape)
    coeffs[0] = t / dxr
    coeffs[1] = (slope - s[:-1]) / dxr - t
    coeffs[2] = s[:-1]
    coeffs[3] = vals[:-1]
    return SplineCoeffs(nodes, coeffs, squeeze=squeeze)


def grid_quadrature(grid, samples):
    """Composite-trapezoid integral of per-node samples over the grid."""
    grid, _ = _check_grid(grid)
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] != grid.size:
        raise DegenerateGrid("samples and grid disagree in length")
    return np.trapezoid(samples, grid, axis=0)


def cumulative_from_right(grid, samples):
    """Per-node running integrals from each node to the final node.

    Entry i is the composite-trapezoid integral of the samples over
    [t_i, t_last]: the total less the running sum from the left, which is
    the arithmetic of scipy's
    ``cumulative_trapezoid(samples, grid, axis=0, initial=0)``.  The last
    entry is exactly zero and the first equals ``grid_quadrature`` of the
    same samples.
    """
    grid, d = _check_grid(grid)
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] != grid.size:
        raise DegenerateGrid("samples and grid disagree in length")
    d = d.reshape((-1,) + (1,) * (samples.ndim - 1))
    left = np.zeros(samples.shape)
    np.cumsum(d * (samples[1:] + samples[:-1]) / 2.0, axis=0, out=left[1:])
    return left[-1] - left


def solve_dense(mat, rhs):
    """Solve a small dense system; returns (solution, condition estimate).

    Raises SingularSystem when the condition estimate exceeds COND_LIMIT,
    which signals a rank-deficient constraint Jacobian or a vanishing
    controllability Gramian upstream.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
    if not np.isfinite(mat).all():
        raise SingularSystem("matrix contains non-finite entries")
    # The 2-norm condition number as np.linalg.cond forms it; a zero
    # singular value gives inf.
    _, sv, _, info = dgesdd(mat, compute_uv=0)
    if info:
        raise np.linalg.LinAlgError("SVD did not converge")
    cond = float(sv[0]) / float(sv[-1]) if sv[-1] > 0.0 else np.inf
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularSystem(f"condition estimate {cond:.3e} exceeds {COND_LIMIT:.0e}")
    _, _, sol, info = dgesv(mat, rhs)
    if info:
        raise SingularSystem("singular matrix")
    return sol, cond


def _one_norm_cond(a):
    """``np.linalg.cond(a, 1)`` of a square float matrix, bit for bit:
    the largest column sum of |a| times that of |a^-1|, the inverse by
    numpy's own gufunc, all with floating-point errors ignored.  An
    exactly singular ``a``, whose inverse that gufunc fills with NaN,
    gives inf; an ``a`` with a NaN entry gives NaN."""
    with np.errstate(all="ignore"):
        inv = _umath_linalg.inv(a, signature="d->d")
        cond = (np.add.reduce(np.abs(a), axis=0).max()
                * np.add.reduce(np.abs(inv), axis=0).max())
    return np.inf if np.isnan(cond) and not np.isnan(a).any() else cond
