"""Self-contained diagnostic suites behind the ``check`` command.

Each check returns (name, passed, detail).  The oracles here are chosen
to be independent of the production code paths they exercise: forward
transition matrices check the batched backward stack and, through the
quadrature gradient form (``quadrature_gradient``), the adjoint
gradient; propagation plus the backward stack check the shooting solve,
per-interval Gauss quadrature checks the variational state-rate problem,
finite differences check analytic derivatives, and closed forms check
the integrator.
"""

from __future__ import annotations

import numpy as np

from . import second as second_eq
from . import third as third_eq
from . import trajectory
from .driver import StateLayout, path_cost
from .numerics import cumulative_from_right, grid_quadrature, solve_dense, spline_build
from .ocp import check_derivatives, row_form_mismatches, validate_problem
from .problems import brachistochrone, double_integrator, tracking_fixture
from .rk45 import IntegratorOptions, rk45_fixed
from .trajectory import (ControlTrajectory, TimeGrid, fused_sweep, propagate_states,
                         transition_stack)

TIGHT = IntegratorOptions(rtol=1e-10, atol=1e-12)

# Abscissae/weights of 5-point Gauss-Legendre on [-1, 1].
_GL_X = np.array([-0.906179845938664, -0.538469310105683, 0.0,
                  0.538469310105683, 0.906179845938664])
_GL_W = np.array([0.236926885056189, 0.478628670499366, 0.568888888888889,
                  0.478628670499366, 0.236926885056189])


def _smooth_controls(grid, m, rng, scale=0.3, waves=2):
    t = (grid.times - grid.t0) / (grid.tf - grid.t0)
    vals = np.zeros((grid.n_nodes, m))
    for k in range(1, waves + 1):
        amp = scale * rng.standard_normal(m)
        vals += np.sin(np.pi * k * t)[:, None] * amp
    return vals


def derivative_checks(seed: int = 0):
    """Validation plus finite-difference agreement on the registry, and
    row forms against point forms on every shipped problem."""
    results = []
    rng = np.random.default_rng(seed)
    for bench in (double_integrator(), brachistochrone()):
        p = bench.problem
        report = validate_problem(p)
        results.append((f"validate[{bench.name}]", report.ok,
                        "; ".join(report.findings) or "clean"))
        worst = 0.0
        for _ in range(10):
            x = p.x0 + rng.uniform(-1.0, 1.0, p.n)
            u = rng.uniform(-1.0, 1.0, p.m)
            t = rng.uniform(p.t0, p.tf)
            worst = max(worst, check_derivatives(p, x, u, t).worst)
        results.append((f"derivatives[{bench.name}]", worst <= 1e-5,
                        f"max discrepancy {worst:.2e}"))
    for bench in (double_integrator(), brachistochrone(), tracking_fixture()):
        p = bench.problem
        xs = p.x0 + rng.uniform(-1.0, 1.0, (10, p.n))
        us = rng.uniform(-1.0, 1.0, (10, p.m))
        ts = rng.uniform(p.t0, p.tf, 10)
        found = row_form_mismatches(p, xs, us, ts)
        results.append((f"rows[{bench.name}]", not found, "; ".join(found)
                        or "row forms bit-equal to point forms at 10 rows"))
    return results


def _check_integrator_order():
    exact = 0.2  # y' = -2 t y^2, y(0) = 1 has y(2) = 1/(1+4)
    errs, hs = [], []
    for n in (10, 20, 40, 80):
        path = rk45_fixed(lambda t, y: -2.0 * t * y**2, [1.0], (0.0, 2.0), n)
        errs.append(abs(path.y_end[0] - exact))
        hs.append(2.0 / n)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    return slope >= 4.0, f"observed order {slope:.2f}"


def _check_spline_cubic():
    nodes = np.linspace(0.0, 2.0, 5)
    s = spline_build(nodes, nodes**3)
    t = np.linspace(0.0, 2.0, 101)
    err = float(np.max(np.abs(s.eval(t) - t**3)))
    return err <= 1e-12, f"cubic reproduction error {err:.2e}"


def _check_quadrature():
    grid = np.linspace(0.0, 2.0, 41)
    samples = grid**2
    total = grid_quadrature(grid, samples)
    tail = cumulative_from_right(grid, samples)
    consistent = abs(tail[0] - total) <= 1e-13 * abs(total) and tail[-1] == 0.0
    return consistent, f"cumulative head/total gap {abs(tail[0] - total):.2e}"


def _check_solve_dense():
    mat = 0.1 * np.array([[8.0 / 3.0, 2.0], [2.0, 2.0]])
    sol, _ = solve_dense(mat, np.array([0.3, 0.1]))
    resid = float(np.max(np.abs(mat @ sol - np.array([0.3, 0.1]))))
    ok = resid <= 1e-10 * 0.3 and np.allclose(sol, [3.0, -2.5], atol=1e-9)
    return ok, f"residual {resid:.2e}"


def _check_pack_roundtrip():
    rng = np.random.default_rng(7)
    for method, tf_free in (("third", False), ("second", True)):
        layout = StateLayout(method, 11, 3, 2, tf_free)
        vec = rng.standard_normal(layout.dimension)
        controls, states, tf = layout.unpack(vec)
        back = layout.pack(controls, states=states, tf=tf)
        if not np.array_equal(back, vec):
            return False, f"{method} layout round trip lost information"
    return True, "exact for both layouts"


def quadrature_gradient(problem, states, ctrl, fwd, xdot_nodes=None):
    """The cost gradient gu at the nodes, (N, m), rebuilt from the forward
    transition matrices ``fwd`` = Phi(t_i, t0) and a right-cumulative
    trapezoid of the integrand

        L_x + phi_tx + phi_xx^T xdot + f_x^T phi_x

    (phi derivatives taken at the running point).  It equals the adjoint
    form ``third.control_gradient`` analytically because the phi-terms
    telescope.  When ``xdot_nodes`` is given it replaces the dynamics in
    the phi_xx term, which extends the form to trajectories that do not
    satisfy the dynamics.
    """
    nodes = third_eq.node_inputs(problem, states, ctrl)
    xs, us, ts, fu, lu = nodes.xs, nodes.us, nodes.ts, nodes.fu, nodes.lu
    n_nodes = states.grid.n_nodes
    omega = np.empty((n_nodes, problem.n))
    phix = np.empty((n_nodes, problem.n))
    for i in range(n_nodes):
        xdot = xdot_nodes[i] if xdot_nodes is not None else np.asarray(
            problem.dynamics(xs[i], us[i], ts[i]), dtype=float)
        phix[i] = problem.grad_phix(xs[i], ts[i])
        omega[i] = (np.asarray(problem.grad_lx(xs[i], us[i], ts[i]), dtype=float)
                    + np.asarray(problem.dphi_dxdt(xs[i], ts[i]), dtype=float)
                    + np.asarray(problem.hess_phixx(xs[i], ts[i]), dtype=float).T @ xdot
                    + np.asarray(problem.jac_fx(xs[i], us[i], ts[i]), dtype=float).T @ phix[i])
    kernel = np.einsum("inj,in->ij", fwd, omega)      # Phi(t_i,t0)^T omega_i
    tail = cumulative_from_right(ts, kernel)
    gu = np.empty((n_nodes, problem.m))
    for i in range(n_nodes):
        integral = np.linalg.solve(fwd[i].T, tail[i])
        gu[i] = lu[i] + fu[i].T @ (phix[i] + integral)
    return gu


def _psi_consistency(bench, rng):
    p = bench.problem
    grid = TimeGrid(21, p.t0, p.tf)
    ctrl = ControlTrajectory.from_values(grid, _smooth_controls(grid, p.m, rng))
    states = propagate_states(p, ctrl, grid, TIGHT)
    stack = transition_stack(p, states, ctrl, TIGHT)
    fwd = trajectory._forward_stack(p, states, ctrl, grid, TIGHT)
    worst = 0.0
    for i in range(grid.n_nodes):
        direct = np.linalg.solve(fwd[i].T, fwd[-1].T).T  # Phi(tf, t_i)
        worst = max(worst, float(np.max(np.abs(stack.psi[i] - direct.T))))
    return worst


def _check_psi_consistency(seed=0):
    rng = np.random.default_rng(seed)
    worst = max(_psi_consistency(double_integrator(), rng),
                _psi_consistency(brachistochrone(), rng))
    return worst <= 1e-7, f"backward-vs-forward gap {worst:.2e}"


def _gradient_form_gap(bench, n_nodes, rng):
    p = bench.problem
    grid = TimeGrid(n_nodes, p.t0, p.tf)
    ctrl = ControlTrajectory.from_values(grid, _smooth_controls(grid, p.m, rng))
    states = propagate_states(p, ctrl, grid, TIGHT)
    stack = transition_stack(p, states, ctrl, TIGHT)
    adj = third_eq.control_gradient(p, states, ctrl, stack)
    quad = quadrature_gradient(p, states, ctrl,
                               trajectory._forward_stack(p, states, ctrl, grid, TIGHT))
    return float(np.max(np.abs(adj - quad))) / (1.0 + float(np.max(np.abs(adj))))


def _check_gradient_forms(seed=0):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for bench, n_nodes in ((double_integrator(), 41), (brachistochrone(), 101),
                           (tracking_fixture(), 801)):
        for _ in range(3):
            worst = max(worst, _gradient_form_gap(bench, n_nodes, rng))
    return worst <= 1e-6, f"adjoint-vs-quadrature gap {worst:.2e}"


def _fused_gap(bench, n_nodes, rng):
    """Worst scaled gap of the shooting solve's states, Psi, adjoint
    and cost against propagation, the backward stack and the path cost."""
    p = bench.problem
    grid = TimeGrid(n_nodes, p.t0, p.tf)
    ctrl = ControlTrajectory.from_values(grid, _smooth_controls(grid, p.m, rng))
    states, stack = fused_sweep(p, ctrl, grid, TIGHT)
    ref_states = propagate_states(p, ctrl, grid, TIGHT)
    ref_stack = transition_stack(p, ref_states, ctrl, TIGHT)
    ref_cost = path_cost(p, ref_states, ctrl, grid, TIGHT)
    pairs = ((states.values, ref_states.values), (stack.psi, ref_stack.psi),
             (stack.adjoint, ref_stack.adjoint),
             (path_cost(p, states, ctrl, grid, TIGHT), ref_cost))
    return max(float(np.max(np.abs(a - b))) / (1.0 + float(np.max(np.abs(b))))
               for a, b in pairs)


def _check_fused_vs_backward(seed=0):
    rng = np.random.default_rng(seed)
    worst = max(_fused_gap(bench, n_nodes, rng)
                for bench, n_nodes in ((double_integrator(), 41),
                                       (brachistochrone(), 101),
                                       (tracking_fixture(), 801)))
    return worst <= 1e-8, f"fused-vs-backward gap {worst:.2e}"


def _check_stationarity():
    bench = double_integrator()
    p = bench.problem
    grid = TimeGrid(41, 0.0, 2.0)
    ctrl = ControlTrajectory.from_values(
        grid, np.stack([bench.reference.control(t) for t in grid.times]))
    states = propagate_states(p, ctrl, grid, TIGHT)
    stack = transition_stack(p, states, ctrl, TIGHT)
    gu = third_eq.control_gradient(p, states, ctrl, stack)
    pi = third_eq.solve_multipliers(*third_eq.multiplier_system(
        p, states, ctrl, stack, bench.gains, gu))
    rate = third_eq.control_rhs(p, states, ctrl, stack, gu, pi, bench.gains)
    worst = float(np.max(np.abs(rate)))
    return worst <= 1e-4, f"control rate at the optimum {worst:.2e}"


def _check_convolution_vs_ivp(seed=0):
    """Gauss-quadrature convolution against the variational problem.

    Uses the double integrator, whose transition kernel is closed-form, so
    the convolution oracle has no shared machinery with the checked route.
    """
    rng = np.random.default_rng(seed)
    bench = double_integrator()
    p = bench.problem
    grid = TimeGrid(41, 0.0, 2.0)
    udot = _smooth_controls(grid, 1, rng, scale=0.5)
    snap = second_eq.SecondEqSnapshot.create(
        grid, np.stack([bench.reference.state(t) for t in grid.times]),
        np.stack([bench.reference.control(t) for t in grid.times]))
    stack = transition_stack(p, snap.state_traj, snap.ctrl_traj, TIGHT)
    via_ivp = second_eq.state_rhs_second(p, snap, stack, udot, bench.gains,
                                         opts=TIGHT, via="ivp")
    spline = spline_build(grid.times, udot)

    worst = 0.0
    for i, ti in enumerate(grid.times):
        acc = np.zeros(2)
        for a, b in zip(grid.times[:i], grid.times[1:i + 1]):
            s = 0.5 * (a + b) + 0.5 * (b - a) * _GL_X
            w = 0.5 * (b - a) * _GL_W
            rate = spline.eval(s)[:, 0]
            acc += np.array([np.sum(w * (ti - s) * rate), np.sum(w * rate)])
        worst = max(worst, float(np.max(np.abs(via_ivp[i] - acc))))
    return worst <= 1e-6, f"convolution-vs-variational gap {worst:.2e}"


def _check_mode_reduction():
    # The fixed-horizon benchmark at its analytic optimum (exact initial
    # condition, terminal constraint met exactly) and the free-horizon one
    # on a propagated snapshot; both snapshots take the dynamics as their
    # derivative field, so their defect is zero by construction.
    di, brach = double_integrator(), brachistochrone()
    grid = TimeGrid(41, 0.0, 2.0)
    cases = [(di, grid, np.stack([di.reference.state(t) for t in grid.times]),
              np.stack([di.reference.control(t) for t in grid.times]))]
    grid = TimeGrid(31, 0.0, 1.0)
    ctrl = ControlTrajectory.from_values(
        grid, _smooth_controls(grid, 1, np.random.default_rng(3)))
    prop = propagate_states(brach.problem, ctrl, grid, TIGHT)
    cases.append((brach, grid, prop.values, ctrl.values))
    worst = 0.0
    for bench, grid, states, controls in cases:
        p = bench.problem
        xdot = np.stack([p.dynamics(x, u, t)
                         for x, u, t in zip(states, controls, grid.times)])
        snap = second_eq.SecondEqSnapshot.create(grid, states, controls, xdot=xdot)
        stack = transition_stack(p, snap.state_traj, snap.ctrl_traj, TIGHT)
        (m_mod, r_mod), (_, r_quasi), (m_feas, r_feas) = (
            second_eq.multiplier_system_second(p, snap, stack, bench.gains, mode)
            for mode in ("modified", "quasi_feasible", "feasible"))
        g0 = np.asarray(p.constraint(states[-1], grid.tf), dtype=float)
        worst = max(worst, float(np.max(np.abs(r_mod - r_quasi))),
                    float(np.max(np.abs(r_quasi + bench.gains.K_g @ g0 - r_feas))),
                    float(np.max(np.abs(m_mod - m_feas))))
    return worst <= 1e-9, f"reduction-chain gap {worst:.2e}"


def invariant_checks(seed: int = 0):
    """The cross-module equivalence and consistency properties."""
    results = []
    results.append(("integrator-order",) + _check_integrator_order())
    results.append(("spline-cubic",) + _check_spline_cubic())
    results.append(("quadrature-cumulative",) + _check_quadrature())
    results.append(("dense-solve",) + _check_solve_dense())
    results.append(("pack-roundtrip",) + _check_pack_roundtrip())
    results.append(("psi-forward-backward",) + _check_psi_consistency(seed))
    results.append(("gradient-forms",) + _check_gradient_forms(seed))
    results.append(("fused-vs-backward",) + _check_fused_vs_backward(seed))
    results.append(("stationarity",) + _check_stationarity())
    results.append(("convolution-vs-variational",) + _check_convolution_vs_ivp(seed))
    results.append(("mode-reduction",) + _check_mode_reduction())
    return results


def run_suite(suite: str, seed: int = 0):
    if suite == "derivatives":
        return derivative_checks(seed)
    if suite == "invariants":
        return invariant_checks(seed)
    if suite == "all":
        return derivative_checks(seed) + invariant_checks(seed)
    raise ValueError(f"unknown suite {suite!r}")
