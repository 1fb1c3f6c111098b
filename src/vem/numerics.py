"""Shared numerical kernels: cubic splines and dense solves.

A spline runs on a grid's N >= 4 nodes with one column per state or
control: values of shape (N, channels), the only shape a solve builds.

Spline construction solves the not-a-knot slope system, which is
tridiagonal, with LAPACK's ``dgtsv`` on diagonals built from the node
spacing at each call -- the routine ``scipy.linalg.solve_banded`` calls
for a (1, 1) band, without its wrapper -- and forms the cubic Hermite
coefficients from the slopes; it repeats the arithmetic of scipy's
``CubicSpline``, which costs several times as much per build.  Only
``spline_build`` diffs and checks the nodes itself.  The solver's builds
take their grid's widths, checked when the grid was made: a control
trajectory's spline (``trajectory.ControlTrajectory.from_values``, by
``_not_a_knot``) and the shooting solve's cubic Hermite interpolant through
the node states and rates (``trajectory._hermite_spline``, by
``_hermite``).
Evaluation goes through a light Horner path.  A solve reads splines on
interval stencils -- the same fractions of every interval -- by
``SplineCoeffs.at_fractions``, which runs Horner on each interval's
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

``condition_number`` is the one conditioning rule: the 2-norm condition
number from LAPACK's ``dgesdd`` singular values, as ``np.linalg.cond``
forms it, checked against ``COND_LIMIT``.  It guards the multiplier solve
(``solve_dense``, whose solve is ``dgesv``) and the control-only method's
Psi_0 (``trajectory.fused_sweep``); both LAPACK routines are the ones
behind ``np.linalg.svd`` and ``np.linalg.solve``, called without their
wrapper layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgesdd, dgesv, dgtsv

from .errors import DegenerateGrid, SingularSystem

COND_LIMIT = 1e12


@dataclass
class SplineCoeffs:
    """Per-interval cubic coefficients over common breakpoints.

    ``coeffs[p, j, c]`` multiplies ``(t - breakpoints[j]) ** (3 - p)`` on
    interval j for channel c.
    """

    breakpoints: np.ndarray     # (N,)
    coeffs: np.ndarray          # (4, N-1, channels)

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

    def eval(self, t):
        """Value at scalar or array times; edge polynomials extrapolate."""
        c, dt = self._locate(t)
        return ((c[0] * dt + c[1]) * dt + c[2]) * dt + c[3]

    def derivative(self, t):
        """First time-derivative at scalar or array times."""
        c, dt = self._locate(t)
        return (3.0 * c[0] * dt + 2.0 * c[1]) * dt + c[2]

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


def _not_a_knot_band(dx):
    """Sub-, main and super-diagonal of the not-a-knot slope system for the
    node spacing ``dx``."""
    sub, main, sup = np.zeros(dx.size), np.zeros(dx.size + 1), np.zeros(dx.size)
    sub[:-1] = dx[1:]
    main[1:-1] = 2.0 * (dx[:-1] + dx[1:])
    sup[1:] = dx[:-1]
    main[0], sup[0] = dx[1], dx[0] + dx[1]
    main[-1], sub[-1] = dx[-2], dx[-1] + dx[-2]
    return sub, main, sup


def _node_slopes(dx, slope):
    """Spline slopes at the nodes from the interval widths and secants."""
    dxr = dx[:, None]
    rhs = np.empty((dx.size + 1, slope.shape[1]))
    rhs[1:-1] = 3.0 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    d = dx[0] + dx[1]
    rhs[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = dx[-1] + dx[-2]
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    *_, slopes, info = dgtsv(*_not_a_knot_band(dx), rhs, overwrite_dl=1,
                             overwrite_d=1, overwrite_du=1, overwrite_b=1)
    if info:
        raise np.linalg.LinAlgError("singular not-a-knot system")
    return slopes


def spline_build(nodes, values) -> SplineCoeffs:
    """Not-a-knot cubic spline through node values.

    ``values`` of shape (N, channels) on N >= 4 nodes.  Exact at nodes
    and exactly reproduces cubic polynomials.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 4:
        raise DegenerateGrid("need at least four grid nodes")
    # np.diff's arithmetic.
    dx = nodes[1:] - nodes[:-1]
    if not (dx > 0.0).all():
        raise DegenerateGrid("grid nodes must be strictly increasing")
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 2 or vals.shape[0] != nodes.size:
        raise DegenerateGrid(f"values of shape {vals.shape}, not ({nodes.size}, channels)")
    return _not_a_knot(nodes, dx, vals)


def _not_a_knot(nodes, dx, vals) -> SplineCoeffs:
    """``spline_build`` on checked input: float node values (N, channels)
    on N >= 4 increasing float nodes with widths ``dx`` (N-1,), the
    nodes' forward differences (``trajectory.TimeGrid`` keeps them)."""
    slope = (vals[1:] - vals[:-1]) / dx[:, None]
    return _hermite(nodes, dx, vals, slope, _node_slopes(dx, slope))


def _hermite(nodes, dx, vals, slope, s) -> SplineCoeffs:
    """Per-interval cubic coefficients from node values, interval widths
    and secants, and node slopes."""
    dxr = dx[:, None]
    t = (s[:-1] + s[1:] - 2.0 * slope) / dxr
    coeffs = np.empty((4,) + slope.shape)
    coeffs[0] = t / dxr
    coeffs[1] = (slope - s[:-1]) / dxr - t
    coeffs[2] = s[:-1]
    coeffs[3] = vals[:-1]
    return SplineCoeffs(nodes, coeffs)


def condition_number(mat, what=""):
    """The 2-norm condition number of a square float matrix, bit for bit
    ``np.linalg.cond(mat)``: inf for a zero singular value.

    Raises SingularSystem, its message led by ``what``, on a non-finite
    entry or past COND_LIMIT, which signals a rank-deficient constraint
    Jacobian or a vanishing controllability Gramian (the multiplier
    system) or saddle-type dynamics (the forward transition matrix).
    """
    if not np.isfinite(mat).all():
        raise SingularSystem(f"{what or 'matrix '}contains non-finite entries")
    _, sv, _, info = dgesdd(mat, compute_uv=0)
    if info:
        raise np.linalg.LinAlgError("SVD did not converge")
    cond = float(sv[0]) / float(sv[-1]) if sv[-1] > 0.0 else np.inf
    if cond > COND_LIMIT:
        raise SingularSystem(f"{what}condition estimate {cond:.3e} exceeds {COND_LIMIT:.0e}")
    return cond


def solve_dense(mat, rhs):
    """Solve a small dense system; returns (solution, condition estimate).

    Raises SingularSystem when ``condition_number`` does or the solve
    finds the matrix singular.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
    cond = condition_number(mat)
    _, _, sol, info = dgesv(mat, rhs)
    if info:
        raise SingularSystem("singular matrix")
    return sol, cond
