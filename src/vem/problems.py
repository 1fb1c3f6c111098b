"""Benchmark problems, their analytic references, and the name registry.

Two benchmarks ship with the solver:

``double-integrator``
    Minimum-energy transfer of a double integrator from (1, 1) to the
    origin on a fixed two-second horizon.  The optimum is polynomial, so
    every reference quantity is closed-form.

``brachistochrone``
    Fastest frictionless descent through a 2-by-2 window under gravity
    10, free terminal time.  The reference is the analytic cycloid,
    recovered by a one-dimensional root solve; the reference multipliers
    follow from the terminal optimality and transversality conditions.

Additional problems can be registered programmatically; the registry is
what the command-line interface resolves names against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from .ocp import GainSet, OcpProblem


@dataclass(frozen=True)
class Reference:
    """Evaluable reference solution used for error metrics."""

    control: Callable           # t -> (m,)
    state: Callable             # t -> (n,)
    cost: float
    multipliers: Optional[np.ndarray]
    tf: float
    costate: Optional[Callable] = None   # t -> (n,)


@dataclass(frozen=True)
class Benchmark:
    name: str
    problem: OcpProblem
    gains: GainSet
    default_nodes: int
    default_tau_end: float
    reference: Reference


def double_integrator() -> Benchmark:
    """Minimum-energy double integrator with pinned terminal state."""
    a_mat = np.array([[0.0, 1.0], [0.0, 0.0]])
    b_vec = np.array([0.0, 1.0])

    problem = OcpProblem(
        n=2, m=1, q=2,
        t0=0.0, x0=np.array([1.0, 1.0]),
        tf_mode="fixed", tf=2.0,
        dynamics_rows=lambda xs, us, ts: np.concatenate((xs[:, 1:], us[:, :1]), axis=1),
        jac_fx_rows=lambda xs, us, ts: np.repeat(a_mat[None], len(ts), axis=0),
        jac_fu_rows=lambda xs, us, ts: np.repeat(b_vec[None, :, None], len(ts),
                                                 axis=0),
        running_cost_rows=lambda xs, us, ts: 0.5 * us[:, 0] ** 2,
        grad_lx_rows=lambda xs, us, ts: np.zeros((len(ts), 2)),
        grad_lu_rows=lambda xs, us, ts: np.array(us, dtype=float),
        constraint=lambda xf, tf: np.array([xf[0], xf[1]]),
        jac_gx=lambda xf, tf: np.eye(2),
        dg_dt=lambda xf, tf: np.zeros(2),
        name="double-integrator",
    )
    gains = GainSet(K=np.array([[0.1]]), K_g=0.1 * np.eye(2), k_tf=0.05)

    def u_ref(t):
        return np.array([3.0 * t - 3.5])

    def x_ref(t):
        return np.array([0.5 * t**3 - 1.75 * t**2 + t + 1.0,
                         1.5 * t**2 - 3.5 * t + 1.0])

    def costate_ref(t):
        return np.array([3.0, -3.0 * t + 3.5])

    reference = Reference(control=u_ref, state=x_ref, cost=3.25,
                          multipliers=np.array([3.0, -2.5]), tf=2.0,
                          costate=costate_ref)
    return Benchmark("double-integrator", problem, gains, 41, 300.0, reference)


def cycloid_geometry(target_x: float = 2.0, drop: float = 2.0,
                     gravity: float = 10.0):
    """Cycloid through (target_x, -drop) starting at rest at the origin.

    Returns (theta_f, radius, tf): the terminal rolling angle, the
    generating-circle radius, and the descent time.
    """
    def gap(theta):
        return (theta - np.sin(theta)) * drop - (1.0 - np.cos(theta)) * target_x

    # Bisection until the bracket holds two adjacent floats.  The lower
    # end stays clear of the degenerate root at theta = 0, where both
    # terms underflow to zero.
    lo, hi = 1e-3, 2.0 * np.pi
    rising = gap(hi) > 0.0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if (gap(mid) > 0.0) == rising:
            hi = mid
        else:
            lo = mid
    theta_f = lo if abs(gap(lo)) <= abs(gap(hi)) else hi
    radius = target_x / (theta_f - np.sin(theta_f))
    tf = theta_f * np.sqrt(radius / gravity)
    return theta_f, radius, tf


def brachistochrone() -> Benchmark:
    """Fastest-descent problem; path angle is the control, time the cost."""
    gravity = 10.0

    # The row kernels take sin and cos into contiguous temporaries, once
    # per call, and each product into a column of its own, which one
    # concatenate copies into the rows: no row's bits depend on strides.
    def dynamics_rows(xs, us, ts):
        s, c, v = np.sin(us[:, 0])[:, None], np.cos(us[:, 0])[:, None], xs[:, 2:]
        return np.concatenate((v * s, -v * c, gravity * c), axis=1)

    def jac_fx_rows(xs, us, ts):
        out = np.zeros((len(ts), 3, 3))
        out[:, 0, 2] = np.sin(us[:, 0])
        out[:, 1, 2] = -np.cos(us[:, 0])
        return out

    def jac_fu_rows(xs, us, ts):
        s, c, v = np.sin(us[:, 0])[:, None], np.cos(us[:, 0])[:, None], xs[:, 2:]
        return np.concatenate((v * c, v * s, -gravity * s), axis=1)[:, :, None]

    problem = OcpProblem(
        n=3, m=1, q=2,
        t0=0.0, x0=np.zeros(3),
        tf_mode="free", tf=1.0,
        dynamics_rows=dynamics_rows,
        jac_fx_rows=jac_fx_rows, jac_fu_rows=jac_fu_rows,
        terminal_cost=lambda xf, tf: tf,
        grad_phix=lambda xf, tf: np.zeros(3),
        dphi_dt=lambda xf, tf: 1.0,
        constraint=lambda xf, tf: np.array([xf[0] - 2.0, xf[1] + 2.0]),
        jac_gx=lambda xf, tf: np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        dg_dt=lambda xf, tf: np.zeros(2),
        name="brachistochrone",
    )
    gains = GainSet(K=np.array([[0.1]]), K_g=0.1 * np.eye(2), k_tf=0.05)

    theta_f, radius, tf_ref = cycloid_geometry(2.0, 2.0, gravity)
    rate = np.sqrt(gravity / radius)        # d(theta)/dt along the cycloid

    def u_ref(t):
        return np.array([0.5 * rate * t])

    def x_ref(t):
        theta = rate * t
        return np.array([
            radius * (theta - np.sin(theta)),
            -radius * (1.0 - np.cos(theta)),
            2.0 * np.sqrt(gravity * radius) * np.sin(0.5 * theta),
        ])

    # Terminal optimality fixes the multipliers: the control gradient and
    # the transversality residual both vanish at tf, giving
    # (pi_1, pi_2) = (-sin(u_f), cos(u_f)) / V_f.
    u_f = 0.5 * theta_f
    v_f = 2.0 * np.sqrt(gravity * radius) * np.sin(0.5 * theta_f)
    pi_ref = np.array([-np.sin(u_f) / v_f, np.cos(u_f) / v_f])

    reference = Reference(control=u_ref, state=x_ref, cost=tf_ref,
                          multipliers=pi_ref, tf=tf_ref)
    return Benchmark("brachistochrone", problem, gains, 101, 300.0, reference)


def tracking_fixture() -> Benchmark:
    """Scalar tracking problem exercising every derivative channel.

    Not registered as a benchmark; it exists for property tests and the
    diagnostic suite, where the built-in benchmarks are too degenerate
    (their running-cost state gradients and terminal-cost curvatures all
    vanish).
    """
    problem = OcpProblem(
        n=1, m=1, q=1,
        t0=0.0, x0=np.array([0.5]),
        tf_mode="fixed", tf=1.0,
        dynamics=lambda x, u, t: np.array([-0.5 * x[0] + u[0]]),
        jac_fx_rows=lambda xs, us, ts: np.full((len(ts), 1, 1), -0.5),
        jac_fu_rows=lambda xs, us, ts: np.ones((len(ts), 1, 1)),
        running_cost=lambda x, u, t: 0.5 * (x[0] - 1.0) ** 2 + 0.5 * u[0] ** 2,
        grad_lx_rows=lambda xs, us, ts: xs - 1.0,
        grad_lu_rows=lambda xs, us, ts: np.array(us, dtype=float),
        terminal_cost=lambda xf, tf: 0.5 * xf[0] ** 2 + 0.2 * xf[0] * tf,
        grad_phix=lambda xf, tf: np.array([xf[0] + 0.2 * tf]),
        dphi_dt=lambda xf, tf: 0.2 * xf[0],
        hess_phixx=lambda xf, tf: np.array([[1.0]]),
        dphi_dxdt=lambda xf, tf: np.array([0.2]),
        constraint=lambda xf, tf: np.array([xf[0] - 0.3]),
        jac_gx=lambda xf, tf: np.array([[1.0]]),
        dg_dt=lambda xf, tf: np.zeros(1),
        name="tracking-fixture",
    )
    gains = GainSet(K=np.array([[0.2]]), K_g=np.array([[0.2]]), k_tf=0.05)
    reference = Reference(control=lambda t: np.zeros(1),
                          state=lambda t: np.zeros(1),
                          cost=float("nan"), multipliers=None, tf=1.0)
    return Benchmark("tracking-fixture", problem, gains, 41, 100.0, reference)


_REGISTRY: Dict[str, Callable[[], Benchmark]] = {
    "double-integrator": double_integrator,
    "brachistochrone": brachistochrone,
}


def benchmark_names():
    return sorted(_REGISTRY)


def get_benchmark(name: str) -> Benchmark:
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown problem {name!r}; known: {benchmark_names()}") from None
    return factory()


def register_benchmark(name: str, factory: Callable[[], Benchmark]) -> None:
    """Extension point for embedders; rejects duplicate names."""
    if name in _REGISTRY:
        raise ValueError(f"benchmark {name!r} already registered")
    _REGISTRY[name] = factory
