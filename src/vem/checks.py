"""Self-contained diagnostic suites behind the ``check`` command.

Each check returns (name, passed, detail); most compare a gap with the
bound ``invariant_checks`` gives it.  Both methods read Psi and lam from
one kernel, the RK4 tangents of ``trajectory._tangent_chain`` taken from
the end by ``trajectory._backward``, so the oracles that hold that kernel
are the ones that share none of it: the forward transition matrices of
one adaptive Dormand-Prince run (``trajectory._forward_stack``) check
Psi (psi-forward-backward) and, through the quadrature gradient form
(``quadrature_gradient``), the adjoint gradient (gradient-forms); and
log-depth running matrix products (``cumulative_products``) check the
banded recurrences (banded-vs-products).  Propagation plus the stack
along it check the shooting solve's node states (fused-vs-backward);
the step-doubling loop one stencil per round (``sequential_stencil``)
checks the interval stencil's fused first round; the coupled state
rate's variational initial-value problem (``variational_state_rate``),
integrated by Dormand-Prince along the snapshot's splines, is checked in
turn by per-interval Gauss quadrature of a closed-form kernel; the
Psi^T f_u-first multiplier assembly with einsums and ``np.trapezoid``
(``multiplier_assembly``) checks the constraint projection every
multiplier formula reads; finite differences check analytic
derivatives, and closed forms check the integrator.
"""

from __future__ import annotations

import numpy as np

from . import driver
from . import second as second_eq
from . import third as third_eq
from . import trajectory
from .driver import EvolutionSystem, StateLayout, path_cost
from .numerics import solve_dense, spline_build
from .ocp import check_derivatives, row_form_mismatches, validate_problem
from .problems import brachistochrone, double_integrator, tracking_fixture
from .rk45 import IntegratorOptions, rk45_fixed, rk45_integrate
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


def _drawn_case(bench, n_nodes, rng):
    """The benchmark's problem, an ``n_nodes`` grid on its horizon and
    drawn smooth controls on it."""
    p = bench.problem
    grid = TimeGrid(n_nodes, p.t0, p.tf)
    return p, grid, ControlTrajectory.from_values(grid, _smooth_controls(grid, p.m, rng))


def _oracle_path(p, ctrl, grid):
    """Propagated states and the backward stack along them, at TIGHT."""
    states = propagate_states(p, ctrl, grid, TIGHT)
    return states, transition_stack(p, states, ctrl, TIGHT)


def worst_gap(gap, cases, seed, draws=1):
    """The largest ``gap(*case, rng)`` over the cases, ``draws`` per case,
    drawn in that order from one generator seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    return max(gap(*case, rng) for case in cases for _ in range(draws))


def cumulative_products(mats) -> np.ndarray:
    """Running products of a matrix stack, newest factor on the left.

    Entry k is ``mats[k] @ mats[k-1] @ ... @ mats[0]``; entry 0 is
    ``mats[0]`` unchanged.  Formed by recursive doubling: after the round
    with offset d every entry holds the product of up to 2d factors, so a
    stack of K matrices takes ceil(log2 K) batched matmuls instead of K - 1
    sequential ones.  The association order differs from the sequential
    loop, so the results agree with it to rounding.  The oracle of the
    shooting solve's banded recurrences (``_banded_gap``).
    """
    out = np.array(mats, dtype=float)
    d = 1
    while d < len(out):
        out[d:] = out[d:] @ out[:-d]
        d *= 2
    return out


def full_tangents(tangents) -> np.ndarray:
    """The propagators T_i = [[G_i, 0], [c_i^T, 1]] (K, n+1, n+1) whose
    first n columns are the tangents (K, n+1, n)."""
    k, rows, n = tangents.shape
    full = np.zeros((k, rows, rows))
    full[:, :, :n] = tangents
    full[:, n, n] = 1.0
    return full


def sequential_stencil(grid, sample, estimate, opts=None):
    """Oracle of ``trajectory.interval_stencil``: the doubling loop one
    stencil per round.  The first round samples the 1-substep stencil's
    ends and midpoints, each later round the odd points of the next finer
    stencil.  The fused loop samples the same times in fewer calls and
    estimates the same rows, so the results agree bit for bit.  Returns
    the result and its substep count s."""
    opts = opts or IntegratorOptions()
    dt = grid.widths
    rows = last = None
    s = 1
    while True:
        trajectory._check_budget(s * dt.size, opts)
        if rows is None:
            frac = np.array([0.0, 0.5, 1.0])
            rows = sample(trajectory.stencil_times(grid, frac), frac)
        else:
            frac = np.arange(1, 2 * s, 2) / (2 * s)
            merged = np.empty((dt.size, 2 * s + 1) + rows.shape[2:])
            merged[:, 0::2] = rows
            merged[:, 1::2] = sample(trajectory.stencil_times(grid, frac), frac)
            rows = merged
        result = estimate(rows, dt)
        if last is not None and trajectory._refined(result, last, opts):
            return result, s
        last = result
        s *= 2


def stencil_cases(bench, rng):
    """The benchmark's default grid and (label, sample, estimate) of both
    stencil estimates -- the RK4 tangents of ``transition_stack`` and
    the Simpson cost of ``path_cost`` -- along a coupled snapshot's
    trajectories (one joint spline) and the shooting solve's (separate
    splines), at drawn controls."""
    p, grid, ctrl = _drawn_case(bench, bench.default_nodes, rng)
    nodes, *_ = trajectory.shooting_nodes(p, ctrl, grid)
    snap = second_eq.SecondEqSnapshot.create(
        grid, nodes + 1e-3 * rng.standard_normal(nodes.shape), ctrl.values)
    shot, _ = fused_sweep(p, ctrl, grid)
    cases = []
    for route, states, controls in (("coupled", snap.state_traj, snap.ctrl_traj),
                                    ("control-only", shot, ctrl)):
        cases.append((f"{bench.name}/{route}/tangents",
                      trajectory._jacobian_field(p, states, controls),
                      trajectory._stencil_tangents))
        cases.append((f"{bench.name}/{route}/simpson",
                      driver._running_cost_field(p, states, controls), driver._simpson))
    return grid, cases


def _check_stencil_doubling(seed=0):
    """The fused first round against ``sequential_stencil``, bit for bit,
    at the default tolerances and at TIGHT."""
    rng = np.random.default_rng(seed)
    finest, count = 0, 0
    for bench in (double_integrator(), brachistochrone()):
        grid, cases = stencil_cases(bench, rng)
        for label, sample, estimate in cases:
            for opts in (IntegratorOptions(), TIGHT):
                fused = trajectory.interval_stencil(grid, sample, estimate, opts)
                ref, s = sequential_stencil(grid, sample, estimate, opts)
                if not np.array_equal(fused, ref):
                    return False, f"{label} differs from the sequential loop"
                finest, count = max(finest, s), count + 1
    return finest >= 4, (f"bit-equal to the sequential loop in {count} cases, "
                         f"up to {finest} substeps")


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


def _spline_cubic_gap():
    nodes = np.linspace(0.0, 2.0, 5)
    s = spline_build(nodes, nodes[:, None]**3)
    t = np.linspace(0.0, 2.0, 101)
    return float(np.max(np.abs(s.eval(t)[:, 0] - t**3)))


def cumulative_from_right(grid, samples):
    """Per-node running integrals from each node of the increasing
    ``grid`` to the final node.

    Entry i is the composite-trapezoid integral of the samples over
    [t_i, t_last]: the total less the running sum from the left, which is
    the arithmetic of scipy's
    ``cumulative_trapezoid(samples, grid, axis=0, initial=0)``.  The last
    entry is exactly zero and the first equals ``np.trapezoid`` of the
    same samples.
    """
    d = np.diff(grid).reshape((-1,) + (1,) * (samples.ndim - 1))
    left = np.zeros(samples.shape)
    np.cumsum(d * (samples[1:] + samples[:-1]) / 2.0, axis=0, out=left[1:])
    return left[-1] - left


def _check_quadrature():
    grid = np.linspace(0.0, 2.0, 41)
    samples = grid**2
    total = np.trapezoid(samples, grid, axis=0)
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
    xs, us, ts, fu, lu = nodes.xs, nodes.us, nodes.grid.times, nodes.fu, nodes.lu
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


def variational_state_rate(problem, snap, udot_nodes, mode="quasi_feasible",
                           opts=None):
    """The coupled node-state rate, (N, n), from its forward variational
    problem

        w' = f_x w + f_u udot(t) [- (xdot - f)],  w(t0) = 0
        (modified: -(x(t0) - x0))

    on the spline-interpolated rates, integrated by Dormand-Prince.  It
    equals the convolution ``second.state_rhs_second`` up to quadrature
    and integration error.
    """
    if mode not in driver.MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {driver.MODES}")
    grid = snap.grid
    udot_nodes = np.atleast_2d(np.asarray(udot_nodes, dtype=float))
    modified = mode == "modified"
    w0 = -(snap.states[0] - problem.x0) if modified else np.zeros(problem.n)
    udot_spline = spline_build(grid.times, udot_nodes)
    if modified:
        xdot_spline = spline_build(grid.times, snap.xdot)

    def field_fn(t, w):
        x = snap.state_traj.eval(t)
        u = snap.ctrl_traj.eval(t)
        a = np.asarray(problem.jac_fx(x, u, t), dtype=float)
        b = np.asarray(problem.jac_fu(x, u, t), dtype=float)
        out = a @ w + b @ udot_spline.eval(t)
        if modified:
            f_here = np.asarray(problem.dynamics(x, u, t), dtype=float)
            out = out - (xdot_spline.eval(t) - f_here)
        return out

    path = rk45_integrate(field_fn, w0, (grid.t0, grid.tf), opts)
    values = path.eval(grid.times)
    values[0] = w0
    return values


def _psi_gap(bench, n_nodes, rng):
    p, grid, ctrl = _drawn_case(bench, n_nodes, rng)
    states, stack = _oracle_path(p, ctrl, grid)
    fwd = trajectory._forward_stack(p, states, ctrl, grid, TIGHT)
    worst = 0.0
    for i in range(grid.n_nodes):
        direct = np.linalg.solve(fwd[i].T, fwd[-1].T).T  # Phi(tf, t_i)
        worst = max(worst, float(np.max(np.abs(stack.psi[i] - direct.T))))
    return worst


def _gradient_form_gap(bench, n_nodes, rng):
    p, grid, ctrl = _drawn_case(bench, n_nodes, rng)
    states, stack = _oracle_path(p, ctrl, grid)
    adj = third_eq.control_gradient(third_eq.node_inputs(p, states, ctrl), stack)
    quad = quadrature_gradient(p, states, ctrl,
                               trajectory._forward_stack(p, states, ctrl, grid, TIGHT))
    return float(np.max(np.abs(adj - quad))) / (1.0 + float(np.max(np.abs(adj))))


def _fused_gap(bench, n_nodes, rng):
    """Worst scaled gap of the shooting solve's states, Psi, adjoint
    and cost against propagation, the backward stack and the path cost."""
    p, grid, ctrl = _drawn_case(bench, n_nodes, rng)
    states, stack = fused_sweep(p, ctrl, grid, TIGHT)
    ref_states, ref_stack = _oracle_path(p, ctrl, grid)
    ref_cost = path_cost(p, ref_states, ctrl, grid, TIGHT)
    pairs = ((states.values, ref_states.values), (stack.psi, ref_stack.psi),
             (stack.adjoint, ref_stack.adjoint),
             (path_cost(p, states, ctrl, grid, TIGHT), ref_cost))
    return max(float(np.max(np.abs(a - b))) / (1.0 + float(np.max(np.abs(b))))
               for a, b in pairs)


def _banded_gap(bench, n_nodes, rng):
    """Worst scaled gap of the banded recurrences against running matrix
    products at one shooting solve's tangents, rebuilt as the full
    T_i = [[G_i, 0], [c_i^T, 1]] (``full_tangents``): Psi and lam from
    [[Psi_i, lam_i], [0, 1]] = T_i^T ... T_N-2^T [[I, lam_end], [0, 1]],
    and a Newton correction for a drawn residual r from the products of
    [[G_i, r_i], [0, 1]]."""
    p, grid, ctrl = _drawn_case(bench, n_nodes, rng)
    n = p.n
    nodes, tangents, band = trajectory.shooting_nodes(p, ctrl, grid)
    lam_end = np.asarray(p.grad_phix(nodes[-1], grid.tf), dtype=float)
    stack = trajectory._backward(tangents[:, :n], tangents[:, n], lam_end, band)
    full = full_tangents(tangents)
    end = np.eye(n + 1)
    end[:n, n] = lam_end
    z = cumulative_products(np.concatenate(
        [end[None], np.swapaxes(full, 1, 2)[::-1]]))[::-1]
    residual = rng.standard_normal((n_nodes - 1, n))
    rhs = np.concatenate([np.zeros(n), residual.ravel()])[:, None]
    delta = trajectory._bidiagonal_solve(band, rhs, "N")
    full[:, n, :n] = 0.0
    full[:, :n, n] = residual
    pairs = ((stack.psi, z[:, :n, :n]), (stack.adjoint, z[:, :n, n]),
             (delta.reshape(-1, n)[1:], cumulative_products(full)[:, :n, n]))
    return max(float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(b))))
               for a, b in pairs)


def _stationarity_gap():
    """The largest control rate at the double integrator's optimum."""
    bench = double_integrator()
    p = bench.problem
    grid = TimeGrid(41, 0.0, 2.0)
    ctrl = ControlTrajectory.from_values(
        grid, np.stack([bench.reference.control(t) for t in grid.times]))
    states, stack = _oracle_path(p, ctrl, grid)
    nodes = third_eq.node_inputs(p, states, ctrl)
    gu = third_eq.control_gradient(nodes, stack)
    terms = third_eq.multiplier_terms(p, nodes, stack)
    pi = third_eq.solve_multipliers(*third_eq.multiplier_system(
        terms, gu, bench.gains))
    return float(np.max(np.abs(third_eq.control_rhs(terms, gu, pi, bench.gains))))


def _convolution_gap(seed):
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
    via_ivp = variational_state_rate(p, snap, udot, opts=TIGHT)
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
    return worst


def multiplier_assembly(problem, nodes, stack, gu, gains, mode="quasi_feasible",
                        defects=None):
    """Oracle of the multiplier kernel (``third.multiplier_terms`` and the
    formulas that read its projections): (M, r, pi, control rate,
    costates) by the Psi^T f_u-first assembly, with einsums over every
    node, ``np.trapezoid`` of the integrands, and g_x and phi_x read
    where each term needs them.  ``mode`` is a coupled variant; the
    modified one adds the initial-condition and the ``defects`` record's
    dynamics-defect corrections and takes the terminal bracket along the
    record's ``xdot_end``."""
    times, x_end, tf = nodes.grid.times, nodes.xs[-1], nodes.grid.tf
    gx = np.asarray(problem.jac_gx(x_end, tf), dtype=float)
    psit_fu = np.einsum("iba,ibm->iam", stack.psi, nodes.fu)
    integrand = np.einsum("iak,ibk->iab", psit_fu @ gains.K, psit_fu)
    mat = gx @ np.trapezoid(integrand, times, axis=0) @ gx.T
    r = gx @ np.trapezoid(np.einsum("iam,im->ia", psit_fu, gu @ gains.K.T),
                          times, axis=0)
    if problem.tf_free:
        u_end = nodes.us[-1]
        w = np.asarray(problem.dynamics(x_end, u_end, tf) if defects is None
                       else defects.xdot_end, dtype=float)
        cost_rate = (float(np.asarray(problem.running_cost(x_end, u_end, tf)).reshape(()))
                     + float(problem.dphi_dt(x_end, tf))
                     + float(np.asarray(problem.grad_phix(x_end, tf), dtype=float) @ w))
        v = gx @ w + np.asarray(problem.dg_dt(x_end, tf), dtype=float)
        mat = mat + gains.k_tf * np.outer(v, v)
        r = r + gains.k_tf * v * cost_rate
    if mode != "feasible":
        r = r - gains.K_g @ np.asarray(problem.constraint(x_end, tf), dtype=float)
    if mode == "modified":
        r = r + gx @ (stack.psi[0].T @ (nodes.xs[0] - problem.x0))
        carried = np.einsum("iba,ib->ia", stack.psi, defects.dynamics)
        r = r + gx @ np.trapezoid(carried, times, axis=0)
    pi = -np.linalg.solve(mat, r)
    pull = np.einsum("inj,j->in", stack.psi, gx.T @ pi)
    rate = -((gu + np.einsum("inm,in->im", nodes.fu, pull)) @ gains.K.T)
    return mat, r, pi, rate, stack.adjoint + pull


def _projection_gap(bench, method, mode, rng):
    """Worst relative gap of M, r, pi, the control rate and the costates
    of one evaluation against ``multiplier_assembly``, at drawn controls
    and, for the coupled method, the shooting nodes offset by noise (so
    the modified variant sees initial-condition and dynamics defects)."""
    p, grid, ctrl = _drawn_case(bench, bench.default_nodes, rng)
    gains, states = bench.gains, None
    if method == "second":
        nodes, *_ = trajectory.shooting_nodes(p, ctrl, grid)
        states = nodes + 1e-3 * rng.standard_normal(nodes.shape)
    layout = StateLayout(method, grid.n_nodes, p.n, p.m, p.tf_free)
    vec = layout.pack(ctrl.values, states=states, tf=p.tf if p.tf_free else None)
    system = EvolutionSystem(p, gains, method, grid.n_nodes, IntegratorOptions(),
                             vec, mode)
    ev = system.evaluate(vec)
    mat, r = third_eq.multiplier_system(ev.terms, ev.gu, gains, system.attract)
    kernel = (mat, r, ev.pi, third_eq.control_rhs(ev.terms, ev.gu, ev.pi, gains),
              third_eq.reconstruct_costates(ev.stack, ev.terms, ev.pi))
    oracle = multiplier_assembly(p, ev.nodes, ev.stack, ev.gu, gains, mode,
                                 ev.defects)
    return max(float(np.max(np.abs(a - b))) / float(np.max(np.abs(b)))
               for a, b in zip(kernel, oracle))


def _mode_reduction_gap():
    # The fixed-horizon benchmark at its analytic optimum (exact initial
    # condition, terminal constraint met exactly) and the free-horizon one
    # on a propagated snapshot; both snapshots take the dynamics as their
    # derivative field, so their defect is zero by construction.
    di, brach = double_integrator(), brachistochrone()
    grid = TimeGrid(41, 0.0, 2.0)
    cases = [(di, grid, np.stack([di.reference.state(t) for t in grid.times]),
              np.stack([di.reference.control(t) for t in grid.times]))]
    _, grid, ctrl = _drawn_case(brach, 31, np.random.default_rng(3))
    prop = propagate_states(brach.problem, ctrl, grid, TIGHT)
    cases.append((brach, grid, prop.values, ctrl.values))
    worst = 0.0
    for bench, grid, states, controls in cases:
        p = bench.problem
        xdot = np.stack([p.dynamics(x, u, t)
                         for x, u, t in zip(states, controls, grid.times)])
        snap = second_eq.SecondEqSnapshot.create(grid, states, controls, xdot=xdot)
        stack = transition_stack(p, snap.state_traj, snap.ctrl_traj, TIGHT)
        nodes = third_eq.node_inputs(p, snap.state_traj, snap.ctrl_traj)
        gu, defects = third_eq.control_gradient(nodes, stack), snap.defects(p)
        # Modified, quasi-feasible and feasible, as the driver builds them.
        (m_mod, r_mod), (_, r_quasi), (m_feas, r_feas) = (
            third_eq.multiplier_system(third_eq.multiplier_terms(p, nodes, stack, d),
                                       gu, bench.gains, attract)
            for d, attract in ((defects, True), (None, True), (None, False)))
        g0 = np.asarray(p.constraint(states[-1], grid.tf), dtype=float)
        worst = max(worst, float(np.max(np.abs(r_mod - r_quasi))),
                    float(np.max(np.abs(r_quasi + bench.gains.K_g @ g0 - r_feas))),
                    float(np.max(np.abs(m_mod - m_feas))))
    return worst


def _bounded(name, gap, bound, what):
    return name, gap <= bound, f"{what} {gap:.2e}"


def invariant_checks(seed: int = 0):
    """The cross-module equivalence and consistency properties, in order.
    A gap row holds its bound and message; a drawn-control gap is the
    worst over its cases, from a generator of its own seeded with
    ``seed``."""
    di, brach, track = double_integrator(), brachistochrone(), tracking_fixture()
    shooting = ((di, 41), (brach, 101), (track, 801))
    projections = [(bench, method, mode) for bench in (di, brach, track)
                   for method, mode in (("third", "quasi_feasible"), ("second", "feasible"),
                                        ("second", "quasi_feasible"), ("second", "modified"))]
    return [
        ("integrator-order",) + _check_integrator_order(),
        _bounded("spline-cubic", _spline_cubic_gap(), 1e-12, "cubic reproduction error"),
        ("quadrature-cumulative",) + _check_quadrature(),
        ("dense-solve",) + _check_solve_dense(),
        ("pack-roundtrip",) + _check_pack_roundtrip(),
        _bounded("psi-forward-backward", worst_gap(_psi_gap, ((di, 21), (brach, 21)), seed),
                 1e-7, "backward-vs-forward gap"),
        _bounded("gradient-forms", worst_gap(_gradient_form_gap, shooting, seed, draws=3),
                 1e-6, "adjoint-vs-quadrature gap"),
        _bounded("fused-vs-backward", worst_gap(_fused_gap, shooting, seed),
                 1e-8, "fused-vs-backward gap"),
        _bounded("banded-vs-products", worst_gap(_banded_gap, shooting, seed),
                 1e-12, "banded-vs-products gap"),
        ("stencil-doubling",) + _check_stencil_doubling(seed),
        _bounded("stationarity", _stationarity_gap(), 1e-4, "control rate at the optimum"),
        _bounded("convolution-vs-variational", _convolution_gap(seed), 1e-6,
                 "convolution-vs-variational gap"),
        _bounded("mode-reduction", _mode_reduction_gap(), 1e-9, "reduction-chain gap"),
        _bounded("multiplier-projection", worst_gap(_projection_gap, projections, seed),
                 1e-12, "projection-vs-assembly gap"),
    ]


def run_suite(suite: str, seed: int = 0):
    if suite == "derivatives":
        return derivative_checks(seed)
    if suite == "invariants":
        return invariant_checks(seed)
    if suite == "all":
        return derivative_checks(seed) + invariant_checks(seed)
    raise ValueError(f"unknown suite {suite!r}")
