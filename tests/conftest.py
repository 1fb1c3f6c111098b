"""Shared fixtures: benchmarks, the four full comparison runs, and
problems built to fail.

The full runs integrate to tau = 300 with early stopping disabled (the
reproducible, fixed-span setting) and are session-scoped because they
back several test modules plus the acceptance suite.
"""

import numpy as np
import pytest

from vem import (GainSet, OcpProblem, assemble_ivp, brachistochrone,
                 double_integrator, evolve, summarize)
from vem.problems import Benchmark, Reference

FULL_SNAPSHOTS = (0, 1, 2, 5, 10, 20, 30, 50, 75, 100, 125, 150, 200, 250, 300)


@pytest.fixture(scope="session")
def di():
    return double_integrator()


@pytest.fixture(scope="session")
def brach():
    return brachistochrone()


def _full_run(bench, method):
    system = assemble_ivp(bench.problem, method, bench.default_nodes, bench.gains)
    history = evolve(system, 300.0, snapshot_taus=FULL_SNAPSHOTS, early_stop=False)
    report = summarize(system, history, bench.reference)
    return system, history, report


@pytest.fixture(scope="session")
def di_third_run(di):
    return _full_run(di, "third")


@pytest.fixture(scope="session")
def di_second_run(di):
    return _full_run(di, "second")


@pytest.fixture(scope="session")
def brach_third_run(brach):
    return _full_run(brach, "third")


@pytest.fixture(scope="session")
def brach_second_run(brach):
    return _full_run(brach, "second")


def smooth_controls(grid, m, rng, scale=0.3, waves=2):
    """Band-limited random node controls (smooth enough for quadrature)."""
    t = (grid.times - grid.t0) / (grid.tf - grid.t0)
    vals = np.zeros((grid.n_nodes, m))
    for k in range(1, waves + 1):
        vals += np.sin(np.pi * k * t)[:, None] * (scale * rng.standard_normal(m))
    return vals


def saddle_problem(a):
    """x' = diag(a, -a) x + [1, 1] u on [0, 1] with x1(tf) = 0: the forward
    transition matrix to tf has condition number exp(2a)."""
    mat, col = np.diag([a, -a]), np.array([1.0, 1.0])
    return OcpProblem(
        n=2, m=1, q=1, t0=0.0, x0=np.array([1.0, 1.0]), tf_mode="fixed", tf=1.0,
        dynamics=lambda x, u, t: mat @ x + col * u[0],
        jac_fx_rows=lambda xs, us, ts: np.repeat(mat[None], len(ts), axis=0),
        jac_fu_rows=lambda xs, us, ts: np.repeat(col[None, :, None], len(ts),
                                                 axis=0),
        running_cost=lambda x, u, t: 0.5 * u[0] ** 2,
        grad_lx_rows=lambda xs, us, ts: np.zeros((len(ts), 2)),
        grad_lu_rows=lambda xs, us, ts: np.array(us, dtype=float),
        constraint=lambda xf, tf: xf[:1],
        jac_gx=lambda xf, tf: np.array([[1.0, 0.0]]),
        dg_dt=lambda xf, tf: np.zeros(1),
        name=f"saddle-{a:g}",
    )


def _benchmark(problem, gains, n_nodes, tau_end):
    """A registrable benchmark without a reference solution."""
    reference = Reference(control=lambda t: np.zeros(problem.m),
                          state=lambda t: np.zeros(problem.n),
                          cost=float("nan"), multipliers=None, tf=problem.tf)
    return Benchmark(problem.name, problem, gains, n_nodes, tau_end, reference)


def saddle_benchmark():
    """The saddle with a = 20, past the forward-transition guard."""
    return _benchmark(saddle_problem(20.0),
                      GainSet(K=np.array([[0.1]]), K_g=np.array([[0.1]])), 41, 5.0)


def unreachable_benchmark():
    """x' = [u, 0] with x2(tf) = 1: no control moves x2, so the multiplier
    matrix is zero and the multiplier system is singular."""
    problem = OcpProblem(
        n=2, m=1, q=1, t0=0.0, x0=np.zeros(2), tf_mode="fixed", tf=1.0,
        dynamics=lambda x, u, t: np.array([u[0], 0.0]),
        jac_fx_rows=lambda xs, us, ts: np.zeros((len(ts), 2, 2)),
        jac_fu_rows=lambda xs, us, ts: np.repeat(
            np.array([[[1.0], [0.0]]]), len(ts), axis=0),
        running_cost=lambda x, u, t: 0.5 * u[0] ** 2,
        grad_lx_rows=lambda xs, us, ts: np.zeros((len(ts), 2)),
        grad_lu_rows=lambda xs, us, ts: np.array(us, dtype=float),
        constraint=lambda xf, tf: xf[1:] - 1.0,
        jac_gx=lambda xf, tf: np.array([[0.0, 1.0]]),
        dg_dt=lambda xf, tf: np.zeros(1), name="unreachable")
    return _benchmark(problem, GainSet(K=np.array([[0.1]]), K_g=np.array([[0.1]])),
                      11, 5.0)


def _free_horizon(name, direction, dynamics, jac_fx_rows):
    """Free horizon, no terminal constraint, phi = direction * tf: the
    terminal-time rate is -k_tf (L(tf) + direction), so the horizon
    shrinks (+1) or grows (-1) at about k_tf = 1 per unit of tau."""
    problem = OcpProblem(
        n=1, m=1, q=0, t0=0.0, x0=np.ones(1), tf_mode="free", tf=1.0,
        dynamics=dynamics, jac_fx_rows=jac_fx_rows,
        jac_fu_rows=lambda xs, us, ts: np.ones((len(ts), 1, 1)),
        running_cost=lambda x, u, t: 0.5 * u[0] ** 2,
        grad_lu_rows=lambda xs, us, ts: np.array(us, dtype=float),
        terminal_cost=lambda xf, tf: direction * tf,
        grad_phix=lambda xf, tf: np.zeros(1),
        dphi_dt=lambda xf, tf: direction, name=name)
    return _benchmark(problem, GainSet(K=np.array([[0.1]]), k_tf=1.0), 11, 30.0)


def shrinking_horizon():
    """Minimum time with nothing to hold the horizon open: it collapses."""
    return _free_horizon("shrinking-horizon", 1.0,
                         lambda x, u, t: np.array([u[0]]),
                         lambda xs, us, ts: np.zeros((len(ts), 1, 1)))


def growing_horizon():
    """Maximum time under x' = cos(3t) x + u: as the horizon grows, each
    grid interval spans more of the oscillation and the interval stencil
    needs more substeps."""
    return _free_horizon("growing-horizon", -1.0,
                         lambda x, u, t: np.array([np.cos(3.0 * t) * x[0] + u[0]]),
                         lambda xs, us, ts: np.cos(3.0 * ts)[:, None, None])


def blowing_up():
    """x' = u + sqrt(2 - x) with x(1) = 3: the dynamics are NaN past x = 2,
    which the terminal constraint pulls the states through."""
    def dynamics(x, u, t):
        with np.errstate(invalid="ignore"):
            return np.array([u[0] + np.sqrt(2.0 - x[0])])

    problem = OcpProblem(
        n=1, m=1, q=1, t0=0.0, x0=np.zeros(1), tf_mode="fixed", tf=1.0,
        dynamics=dynamics, running_cost=lambda x, u, t: 0.5 * u[0] ** 2,
        constraint=lambda xf, tf: np.array([xf[0] - 3.0]),
        jac_gx=lambda xf, tf: np.eye(1), dg_dt=lambda xf, tf: np.zeros(1),
        name="blowing-up")
    return _benchmark(problem, GainSet(K=np.array([[0.1]]), K_g=np.array([[0.5]])),
                      21, 30.0)
