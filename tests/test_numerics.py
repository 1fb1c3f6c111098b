import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicSpline

from vem.checks import cumulative_from_right, cumulative_products
from vem.errors import DegenerateGrid, SingularSystem
from vem.numerics import _hermite, condition_number, solve_dense, spline_build


def test_import_leaves_out_scipy_integrate_and_optimize():
    # A fresh ``import vem`` needs neither subpackage: the trapezoid sums
    # and the cycloid root are computed in vem.
    script = ("import sys, vem; print(sorted(m for m in sys.modules if "
              "m.split('.')[:2] in (['scipy', 'integrate'], ['scipy', 'optimize'])))")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _hermite_on_widths(nodes, vals, slopes):
    """The cubic Hermite interpolant through node values with the given
    node slopes, built as the shooting solve builds it: secants on the
    interval widths."""
    dx = np.diff(nodes)
    return _hermite(nodes, dx, vals, (vals[1:] - vals[:-1]) / dx[:, None], slopes)


class TestCumulativeFromRight:
    @pytest.mark.parametrize("shape", [(9,), (9, 2), (9, 2, 3)])
    def test_matches_scipy_cumulative_trapezoid(self, shape):
        # Bit for bit the total less the running sum from the left, with an
        # uneven grid and stacked channels.
        rng = np.random.default_rng(4)
        grid = np.cumsum(rng.uniform(0.1, 1.0, 9))
        samples = rng.standard_normal(shape)
        left = cumulative_trapezoid(samples, grid, axis=0, initial=0.0)
        assert np.array_equal(cumulative_from_right(grid, samples), left[-1] - left)


class TestSpline:
    def test_cubic_reproduction(self):
        nodes = np.linspace(0.0, 2.0, 5)
        s = spline_build(nodes, nodes[:, None]**3)
        assert abs(s.eval(0.3)[0] - 0.027) <= 1e-12
        t = np.linspace(0.0, 2.0, 201)
        assert np.max(np.abs(s.eval(t)[:, 0] - t**3)) <= 1e-12

    def test_constant_values(self):
        nodes = np.linspace(0.0, 1.0, 7)
        s = spline_build(nodes, np.full((7, 1), 4.25))
        assert np.allclose(s.eval(np.linspace(0, 1, 50)), 4.25, atol=1e-14)

    def test_sin_interpolation_error_scale(self):
        nodes = np.linspace(0.0, 2.0, 41)
        s = spline_build(nodes, np.sin(nodes)[:, None])
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        err = np.max(np.abs(s.eval(mids)[:, 0] - np.sin(mids)))
        assert err <= (nodes[1] - nodes[0]) ** 4

    def test_exact_at_nodes(self):
        rng = np.random.default_rng(0)
        nodes = np.linspace(0.0, 1.0, 9)
        vals = rng.standard_normal((9, 3))
        s = spline_build(nodes, vals)
        assert np.max(np.abs(s.eval(nodes) - vals)) <= 1e-13

    def test_linearity(self):
        rng = np.random.default_rng(1)
        nodes = np.linspace(0.0, 1.0, 11)
        v1, v2 = rng.standard_normal((11, 1)), rng.standard_normal((11, 1))
        a, b = 0.7, -2.3
        s1, s2 = spline_build(nodes, v1), spline_build(nodes, v2)
        s12 = spline_build(nodes, a * v1 + b * v2)
        t = rng.uniform(0.0, 1.0, 100)
        gap = np.max(np.abs(s12.eval(t) - (a * s1.eval(t) + b * s2.eval(t))))
        assert gap <= 1e-12

    def test_derivative(self):
        nodes = np.linspace(0.0, 2.0, 9)
        s = spline_build(nodes, nodes[:, None]**3)
        t = np.linspace(0.1, 1.9, 37)
        assert np.max(np.abs(s.derivative(t)[:, 0] - 3 * t**2)) <= 1e-11

    @pytest.mark.parametrize("channels", [1, 3])
    def test_scalar_fast_path_matches_array_path(self, channels):
        # Scalar queries, including ones before the first and after the
        # last breakpoint, must return the array path's bits exactly.
        rng = np.random.default_rng(7)
        nodes = np.linspace(0.0, 2.0, 11)
        s = spline_build(nodes, rng.standard_normal((11, channels)))
        queries = np.concatenate([rng.uniform(-0.5, 2.5, 200), nodes, [-3.0, 7.0]])
        values, slopes = s.eval(queries), s.derivative(queries)
        for k, t in enumerate(queries):
            for q in (float(t), np.float64(t)):
                assert np.array_equal(s.eval(q), values[k])
                assert np.array_equal(s.derivative(q), slopes[k])
        assert s.eval(0.3).shape == (channels,)

    @pytest.mark.parametrize("n_nodes", [4, 11])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_row_batches_match_scalar_queries(self, n_nodes, channels):
        # A six-time query, the same times one at a time as arrays, and
        # scalar queries agree bit for bit, also outside the breakpoints.
        rng = np.random.default_rng(9)
        nodes = np.linspace(0.0, 2.0, n_nodes)
        s = spline_build(nodes, rng.standard_normal((n_nodes, channels)))
        batches = [rng.uniform(-0.5, 2.5, 6) for _ in range(60)]
        batches.append(np.array([-3.0, 7.0, 0.0, 2.0, nodes[1], nodes[-2]]))
        for batch in batches:
            values, slopes = s.eval(batch), s.derivative(batch)
            assert len(values) == 6
            for k, t in enumerate(batch):
                one = np.array([t])
                assert np.array_equal(s.eval(one)[0], values[k])
                assert np.array_equal(s.derivative(one)[0], slopes[k])
                assert np.array_equal(s.eval(float(t)), values[k])
                assert np.array_equal(s.derivative(np.float64(t)), slopes[k])

    @pytest.mark.parametrize("n_nodes", [4, 5, 41, 101, 321])
    @pytest.mark.parametrize("spacing", ["uniform", "nonuniform"])
    def test_matches_scipy_cubic_spline(self, n_nodes, spacing):
        # scipy's not-a-knot CubicSpline is the oracle of the banded slope
        # solve.
        rng = np.random.default_rng(n_nodes)
        if spacing == "uniform":
            nodes = np.linspace(0.3, 1.1, n_nodes)
        else:
            nodes = 0.3 + np.cumsum(rng.uniform(0.05, 1.0, n_nodes))
        vals = rng.standard_normal((n_nodes, 3))
        ref = CubicSpline(nodes, vals, axis=0, bc_type="not-a-knot").c
        coeffs = spline_build(nodes, vals).coeffs
        assert coeffs.shape == ref.shape
        assert np.max(np.abs(coeffs - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_band_cache_follows_the_spacing(self):
        # Same node count, other spacing: the cached band matrix of the
        # first grid must not serve the second.
        vals = np.sin(np.arange(9.0))[:, None]
        for nodes in (np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 9) ** 2):
            ref = CubicSpline(nodes, vals[:, 0]).c
            coeffs = spline_build(nodes, vals).coeffs[:, :, 0]
            assert np.max(np.abs(coeffs - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("kind", ["cubic", "hermite"])
    def test_fraction_reader_matches_eval(self, kind):
        # Every point of the s-substep stencil (ends and midpoints of each
        # substep), read by Horner at its fraction, carries the bits eval
        # returns at its time: right ends at the node time, exactly, and
        # there the next interval's value, except on the last interval.
        rng = np.random.default_rng(11 if kind == "cubic" else 12)
        for _ in range(200):
            n_nodes, channels = int(rng.integers(4, 30)), int(rng.integers(1, 4))
            nodes = rng.uniform(-1.0, 1.0) + np.cumsum(rng.uniform(0.01, 1.0, n_nodes))
            vals = rng.standard_normal((n_nodes, channels))
            s_cubic = spline_build(nodes, vals)
            spline = s_cubic if kind == "cubic" else _hermite_on_widths(
                nodes, vals, rng.standard_normal((n_nodes, channels)))
            for s in (1, 2, 4, 8):
                frac = np.arange(2 * s + 1) / (2 * s)
                ts = nodes[:-1, None] + np.diff(nodes)[:, None] * frac
                ts[:, -1] = nodes[1:]
                rows = spline.at_fractions(frac)
                assert rows.shape == (n_nodes - 1, 2 * s + 1, channels)
                assert np.array_equal(rows, spline.eval(ts.ravel()).reshape(rows.shape))
                odd = frac[1::2]
                rows = spline.at_fractions(odd)
                assert np.array_equal(rows, spline.eval(ts[:, 1::2].ravel()).reshape(
                    rows.shape))

    def test_degenerate_grid(self):
        with pytest.raises(DegenerateGrid):
            spline_build([0.0, 0.0, 1.0, 2.0], [[1.0], [2.0], [3.0], [4.0]])
        with pytest.raises(DegenerateGrid):
            spline_build([0.0, 1.0, 0.5, 2.0], np.zeros((4, 1)))

    @pytest.mark.parametrize("n_nodes,shape", [(5, (5,)), (2, (2, 1)), (3, (3, 1)),
                                               (5, (4, 1))],
                             ids=["1-d-values", "2-nodes", "3-nodes", "length-mismatch"])
    def test_input_contract(self, n_nodes, shape):
        # A spline runs on a grid's N >= 4 nodes with values of shape
        # (N, channels); any other input is a degenerate grid, with no
        # line or parabola below four nodes.  (The Hermite interpolant is
        # built only on a TimeGrid, which refuses fewer than four nodes.)
        with pytest.raises(DegenerateGrid):
            spline_build(np.linspace(0.0, 1.0, n_nodes), np.ones(shape))

    def test_four_nodes_carry_a_cubic(self):
        # The floor of the contract: four (N, 1) node values give the
        # cubic through them, outside the nodes too.
        nodes = np.array([0.0, 0.3, 1.1, 2.0])
        s = spline_build(nodes, (nodes**3 - 2.0 * nodes)[:, None])
        t = np.linspace(-0.5, 2.5, 61)
        assert np.max(np.abs(s.eval(t)[:, 0] - (t**3 - 2.0 * t))) <= 1e-12


class TestQuadrature:
    """The oracles' running trapezoid sums: the head of each is the
    integral over the whole grid."""

    def test_linear_integrand_exact(self):
        for n in (5, 13, 41):
            grid = np.linspace(0.0, 2.0, n)
            assert cumulative_from_right(grid, grid)[0] == pytest.approx(2.0, abs=1e-14)

    def test_zero_samples(self):
        grid = np.linspace(0.0, 2.0, 11)
        assert np.array_equal(cumulative_from_right(grid, np.zeros(11)), np.zeros(11))

    def test_quadratic_error_bound(self):
        grid = np.linspace(0.0, 2.0, 41)
        h = grid[1] - grid[0]
        err = abs(cumulative_from_right(grid, grid**2)[0] - 8.0 / 3.0)
        assert err <= 2.0 * h**2 * 2.0 / 12.0 * (1 + 1e-9)

    def test_cumulative_consistency(self):
        grid = np.linspace(0.0, 2.0, 23)
        samples = np.cos(grid)
        tail = cumulative_from_right(grid, samples)
        total = np.trapezoid(samples, grid)
        assert tail[-1] == 0.0
        assert abs(tail[0] - total) <= 1e-13 * abs(total)

    def test_cumulative_vector_samples(self):
        grid = np.linspace(0.0, 1.0, 9)
        samples = np.stack([grid, grid**2], axis=1)
        tail = cumulative_from_right(grid, samples)
        assert tail.shape == (9, 2)
        # Trapezoid is exact on the linear channel; on the quadratic one it
        # gives 1/3 + h^2/6 = 129/384 exactly.
        assert np.allclose(tail[0], [0.5, 129.0 / 384.0], atol=1e-14)


class TestCumulativeProducts:
    @pytest.mark.parametrize("count", [1, 2, 7, 64, 100])
    def test_matches_the_sequential_loop(self, count):
        rng = np.random.default_rng(count)
        mats = np.eye(4) + 0.2 * rng.standard_normal((count, 4, 4))
        out = cumulative_products(mats)
        loop = [mats[0]]
        for mat in mats[1:]:
            loop.append(mat @ loop[-1])
        assert np.array_equal(out[0], mats[0])
        assert np.max(np.abs(out - np.array(loop))) <= 1e-13 * np.max(np.abs(loop))

    def test_leaves_its_input_alone(self):
        mats = np.array([[[2.0]], [[3.0]], [[5.0]]])
        kept = mats.copy()
        assert np.array_equal(cumulative_products(mats)[:, 0, 0], [2.0, 6.0, 30.0])
        assert np.array_equal(mats, kept)


class TestSolveDense:
    def test_identity(self):
        sol, cond = solve_dense(np.eye(2), [1.0, -2.0])
        assert np.array_equal(sol, np.array([1.0, -2.0]))
        assert cond == pytest.approx(1.0)

    def test_hand_inverted_system(self):
        # The minimum-energy benchmark's multiplier system in the continuum.
        mat = 0.1 * np.array([[8.0 / 3.0, 2.0], [2.0, 2.0]])
        sol, _ = solve_dense(mat, [0.3, 0.1])
        assert np.allclose(sol, [3.0, -2.5], atol=1e-12)
        resid = np.max(np.abs(mat @ sol - np.array([0.3, 0.1])))
        assert resid <= 1e-10 * 0.3

    def test_singular_matrix(self):
        with pytest.raises(SingularSystem):
            solve_dense(np.array([[1.0, 1.0], [1.0, 1.0]]), [1.0, 2.0])

    def test_non_finite_matrix(self):
        with pytest.raises(SingularSystem):
            solve_dense(np.array([[np.nan, 0.0], [0.0, 1.0]]), [1.0, 2.0])

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_condition_number_is_numpy_cond(self, size):
        # The estimate is the 2-norm condition number np.linalg.cond
        # returns, bit for bit, on well and badly scaled matrices.
        rng = np.random.default_rng(size)
        for _ in range(200):
            mat = rng.standard_normal((size, size))
            mat[:, 0] *= 10.0 ** rng.uniform(-5.0, 5.0)
            _, cond = solve_dense(mat, rng.standard_normal(size))
            assert cond == np.linalg.cond(mat)

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_solution_is_numpy_solve(self, size):
        # The direct LAPACK solve returns np.linalg.solve's bits on
        # symmetric positive definite systems of multiplier size.
        rng = np.random.default_rng(10 + size)
        for _ in range(200):
            a = rng.standard_normal((size, size))
            mat = (a @ a.T + 1e-3 * np.eye(size)) * 10.0 ** rng.uniform(-4.0, 4.0)
            rhs = rng.standard_normal(size)
            sol, _ = solve_dense(mat, rhs)
            assert np.array_equal(sol, np.linalg.solve(mat, rhs))

    def test_zero_matrix_has_infinite_condition(self):
        # A multiplier system without control authority: no warning (the
        # tier-1 run turns RuntimeWarnings into errors), and the estimate
        # reads inf.
        with pytest.raises(SingularSystem,
                           match=r"^condition estimate inf exceeds 1e\+12$"):
            solve_dense(np.zeros((2, 2)), [1.0, 2.0])


class TestConditionNumber:
    """The one conditioning rule, read by the multiplier solve and the
    fused sweep's Psi_0 guard: ``condition_number`` is np.linalg.cond bit
    for bit, and raises SingularSystem past COND_LIMIT or on a non-finite
    entry, with its message led by what it guards."""

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    def test_random_matrices(self, size):
        # Well and badly scaled, and as the strided views Psi_0 is.
        rng = np.random.default_rng(30 + size)
        for _ in range(200):
            mat = rng.standard_normal((size, size + 1))[:, :size]
            mat[:, 0] *= 10.0 ** rng.uniform(-8.0, 8.0)
            for view in (mat, mat.T):
                assert (np.float64(condition_number(view)).tobytes()
                        == np.float64(np.linalg.cond(view)).tobytes())

    @pytest.mark.parametrize("mat", [
        [[0.0]], np.zeros((3, 3)),
        [[1.0, 0.0, 2.0], [3.0, 0.0, 1.0], [4.0, 0.0, 5.0]]],
        ids=["zero-1", "zero-3", "zero-column"])
    def test_exactly_singular_is_infinite(self, mat):
        mat = np.array(mat)
        assert np.linalg.cond(mat) == np.inf
        with pytest.raises(SingularSystem, match=r"^forward transition matrix "
                           r"condition estimate inf exceeds 1e\+12$"):
            condition_number(mat, "forward transition matrix ")

    @pytest.mark.parametrize("mat,estimate", [
        ([[1.0, 2.0], [2.0, 4.0]], r"4\.805e\+16"),
        (np.diag([np.exp(14.0), np.exp(-14.0)]), r"1\.446e\+12")],
        ids=["rank-1", "saddle"])
    def test_past_the_limit_raises(self, mat, estimate):
        # Rounding leaves the rank-1 matrix a tiny singular value; the
        # saddle's e^28 lies just past the limit, and e^26 within it.
        with pytest.raises(SingularSystem,
                           match=rf"^condition estimate {estimate} exceeds 1e\+12$"):
            condition_number(np.array(mat))
        within = np.diag([np.exp(13.0), np.exp(-13.0)])
        assert condition_number(within) == np.linalg.cond(within)

    @pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_non_finite_entry_raises(self, size, entry):
        mat = np.random.default_rng(size).standard_normal((size, size))
        mat[-1, 0] = entry
        with pytest.raises(SingularSystem,
                           match="^matrix contains non-finite entries$"):
            condition_number(mat)
        with pytest.raises(SingularSystem, match="^forward transition matrix "
                           "contains non-finite entries$"):
            condition_number(mat, "forward transition matrix ")
