"""Coupled state-and-control evolution against the control-only kernels.

The reduction structure is what matters here: on defect-free snapshots
the modified variant must collapse to the quasi-feasible one, which in
turn matches the control-only formulation bit-for-bit on the shared
kernels.
"""

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

import vem.second as second
import vem.third as third
from conftest import smooth_controls
from vem import checks, trajectory
from vem import (
    ControlTrajectory,
    GainSet,
    IntegratorOptions,
    OcpProblem,
    TimeGrid,
    propagate_states,
    transition_stack,
)
from vem.numerics import spline_build
from vem.problems import brachistochrone, tracking_fixture

TIGHT = IntegratorOptions(rtol=1e-10, atol=1e-12)

# 5-point Gauss-Legendre on [-1, 1]: the convolution oracle's quadrature.
GL_X = np.array([-0.906179845938664, -0.538469310105683, 0.0,
                 0.538469310105683, 0.906179845938664])
GL_W = np.array([0.236926885056189, 0.478628670499366, 0.568888888888889,
                 0.478628670499366, 0.236926885056189])


def _feasible_snapshot(problem, grid, controls, opts=None, exact_xdot=False):
    ctrl = ControlTrajectory.from_values(grid, controls)
    states = propagate_states(problem, ctrl, grid, opts)
    xdot = None
    if exact_xdot:
        xdot = np.stack([problem.dynamics(states.values[i], ctrl.values[i],
                                          grid.times[i])
                         for i in range(grid.n_nodes)])
    snap = second.SecondEqSnapshot.create(grid, states.values, ctrl.values,
                                          xdot=xdot)
    stack = transition_stack(problem, snap.state_traj, snap.ctrl_traj, opts)
    return snap, stack


class TestSnapshot:
    def test_default_xdot_is_spline_derivative(self, di):
        # Reference states are cubic polynomials, which the spline
        # reproduces exactly, so the derivative matches the dynamics.
        grid = TimeGrid(41, 0.0, 2.0)
        states = np.stack([di.reference.state(t) for t in grid.times])
        controls = np.stack([di.reference.control(t) for t in grid.times])
        snap = second.SecondEqSnapshot.create(grid, states, controls)
        assert np.max(np.abs(snap.defect(di.problem))) <= 1e-10

    def test_unknown_mode_rejected(self, di):
        grid = TimeGrid(11, 0.0, 2.0)
        snap, stack = _feasible_snapshot(di.problem, grid, np.zeros((11, 1)))
        with pytest.raises(ValueError):
            second.multiplier_system_second(di.problem, snap, stack, di.gains,
                                            "sloppy")


class TestControlRhs:
    def test_matches_control_only_method_on_feasible_data(self, brach):
        # The coupled control rate is the control-only formula along the
        # snapshot's trajectories; on a snapshot without defect it equals
        # the control-only method's rate along the propagated states.
        rng = np.random.default_rng(12)
        grid = TimeGrid(41, 0.0, 1.0)
        p = brach.problem
        snap, snap_stack = _feasible_snapshot(p, grid, smooth_controls(grid, 1, rng),
                                              TIGHT)
        ctrl = snap.ctrl_traj
        states = propagate_states(p, ctrl, grid, TIGHT)
        rates = []
        for traj, stack in ((snap.state_traj, snap_stack),
                            (states, transition_stack(p, states, ctrl, TIGHT))):
            gu = third.control_gradient(p, traj, ctrl, stack)
            pi = third.solve_multipliers(*third.multiplier_system(
                p, traj, ctrl, stack, brach.gains, gu))
            rates.append(third.control_rhs(p, traj, ctrl, stack, gu, pi,
                                           brach.gains))
        assert np.max(np.abs(rates[0])) > 1e-2
        assert np.max(np.abs(rates[0] - rates[1])) <= 1e-6

    def test_defect_enters_only_through_terminal_curvature(self, di):
        # With zero terminal-cost curvature the gradient integrand is
        # unchanged when the snapshot derivative replaces the dynamics.
        grid = TimeGrid(41, 0.0, 2.0)
        snap, _ = _feasible_snapshot(di.problem, grid, np.zeros((41, 1)), TIGHT)
        rigged = snap.xdot + 0.5  # artificial defect
        fwd = trajectory._forward_stack(di.problem, snap.state_traj,
                                        snap.ctrl_traj, grid, TIGHT)
        plain = checks.quadrature_gradient(di.problem, snap.state_traj,
                                           snap.ctrl_traj, fwd)
        with_defect = checks.quadrature_gradient(di.problem, snap.state_traj,
                                                 snap.ctrl_traj, fwd,
                                                 xdot_nodes=rigged)
        assert np.array_equal(plain, with_defect)

        bench = tracking_fixture()  # live phi_xx: the defect must show up
        grid = TimeGrid(41, 0.0, 1.0)
        snap, _ = _feasible_snapshot(bench.problem, grid,
                                     np.full((41, 1), 0.2), TIGHT)
        fwd = trajectory._forward_stack(bench.problem, snap.state_traj,
                                        snap.ctrl_traj, grid, TIGHT)
        plain = checks.quadrature_gradient(bench.problem, snap.state_traj,
                                           snap.ctrl_traj, fwd)
        with_defect = checks.quadrature_gradient(bench.problem, snap.state_traj,
                                                 snap.ctrl_traj, fwd,
                                                 xdot_nodes=snap.xdot + 0.5)
        assert np.max(np.abs(plain - with_defect)) > 1e-3

    def test_unconstrained_rate(self):
        p = OcpProblem(n=1, m=1, q=0, t0=0.0, x0=np.zeros(1), tf_mode="fixed",
                       tf=1.0, dynamics=lambda x, u, t: np.array([u[0]]),
                       jac_fx=lambda x, u, t: np.zeros((1, 1)),
                       jac_fu=lambda x, u, t: np.eye(1),
                       running_cost=lambda x, u, t: 0.5 * u[0] ** 2,
                       grad_lx=lambda x, u, t: np.zeros(1),
                       grad_lu=lambda x, u, t: np.array([u[0]]))
        gains = GainSet(K=np.array([[0.3]]))
        grid = TimeGrid(11, 0.0, 1.0)
        snap, stack = _feasible_snapshot(p, grid, np.full((11, 1), 0.7))
        gu = third.control_gradient(p, snap.state_traj, snap.ctrl_traj, stack)
        rate = third.control_rhs(p, snap.state_traj, snap.ctrl_traj, stack, gu,
                                 None, gains)
        assert np.array_equal(rate, -gu @ gains.K.T)


class TestStateRhs:
    def test_zero_forcing(self, di):
        grid = TimeGrid(21, 0.0, 2.0)
        snap, stack = _feasible_snapshot(di.problem, grid, np.zeros((21, 1)))
        for via in ("convolution", "ivp"):
            out = second.state_rhs_second(di.problem, snap, stack,
                                          np.zeros((21, 1)), di.gains, via=via)
            assert np.max(np.abs(out)) <= 1e-14

    @pytest.mark.parametrize("via", ["convolution", "ivp"])
    def test_constant_rate_closed_form(self, di, via):
        # Unit control rate convolved with the double-integrator kernel
        # gives [t^2/2, t]; both routes are exact on these polynomials.
        grid = TimeGrid(41, 0.0, 2.0)
        snap, stack = _feasible_snapshot(di.problem, grid, np.zeros((41, 1)),
                                         TIGHT)
        out = second.state_rhs_second(di.problem, snap, stack,
                                      np.ones((41, 1)), di.gains, opts=TIGHT,
                                      via=via)
        t = grid.times
        expected = np.stack([0.5 * t**2, t], axis=1)
        assert np.max(np.abs(out - expected)) <= 1e-9

    def test_variational_route_matches_gauss_convolution(self, di):
        # Independent oracle: per-interval Gauss quadrature of the
        # closed-form kernel against the variational-problem route.
        rng = np.random.default_rng(13)
        grid = TimeGrid(41, 0.0, 2.0)
        snap, stack = _feasible_snapshot(di.problem, grid, np.zeros((41, 1)),
                                         TIGHT)
        udot = smooth_controls(grid, 1, rng, scale=0.5)
        via_ivp = second.state_rhs_second(di.problem, snap, stack, udot,
                                          di.gains, opts=TIGHT, via="ivp")
        spline = spline_build(grid.times, udot)
        worst = 0.0
        for i, ti in enumerate(grid.times):
            acc = np.zeros(2)
            for a, b in zip(grid.times[:i], grid.times[1:i + 1]):
                s = 0.5 * (a + b) + 0.5 * (b - a) * GL_X
                w = 0.5 * (b - a) * GL_W
                rate = spline.eval(s)[:, 0]
                acc += np.array([np.sum(w * (ti - s) * rate), np.sum(w * rate)])
            worst = max(worst, float(np.max(np.abs(via_ivp[i] - acc))))
        assert worst <= 1e-6

    @pytest.mark.parametrize("mode", ["quasi_feasible", "modified"])
    @pytest.mark.parametrize("make", [brachistochrone, tracking_fixture])
    def test_convolution_matches_forward_matrix_form(self, make, mode):
        # Oracle: the forward-matrix form of the same trapezoid rule, with
        # Phi(t_i, s_j) = Phi_i Phi_j^{-1}.  Both fixtures have
        # non-trivial transition kernels, and the snapshot carries an
        # initial-condition error and a dynamics defect so the modified
        # feedback terms are live.
        bench = make()
        p = bench.problem
        rng = np.random.default_rng(16)
        grid = TimeGrid(31, p.t0, p.tf)
        clean, _ = _feasible_snapshot(p, grid, smooth_controls(grid, p.m, rng),
                                      TIGHT)
        states = clean.states + smooth_controls(grid, p.n, rng, scale=1e-3)
        states[0] += 1e-3
        snap = second.SecondEqSnapshot.create(grid, states, clean.controls)
        stack = transition_stack(p, snap.state_traj, snap.ctrl_traj, TIGHT)
        udot = smooth_controls(grid, p.m, rng, scale=0.5)

        fwd = trajectory._forward_stack(p, snap.state_traj, snap.ctrl_traj, grid,
                                        TIGHT)
        forcing = np.stack([p.jac_fu(snap.states[i], snap.controls[i],
                                     grid.times[i]) @ udot[i]
                            for i in range(grid.n_nodes)])
        w0 = np.zeros(p.n)
        if mode == "modified":
            forcing -= snap.defect(p) @ bench.gains.kf(p.n).T
            w0 = -bench.gains.kx0(p.n) @ (snap.states[0] - p.x0)
        pulled = np.linalg.solve(fwd, forcing[:, :, None])[:, :, 0]
        summed = cumulative_trapezoid(pulled, grid.times, axis=0, initial=0.0)
        oracle = np.einsum("inj,ij->in", fwd, summed + w0)

        out = second.state_rhs_second(p, snap, stack, udot, bench.gains,
                                      mode=mode)
        assert np.max(np.abs(out)) > 1e-3
        assert np.max(np.abs(out - oracle)) <= 1e-8
        nodes = third.node_inputs(p, snap.state_traj, snap.ctrl_traj)
        with_nodes = second.state_rhs_second(p, snap, stack, udot, bench.gains,
                                             mode=mode, nodes=nodes)
        assert np.array_equal(with_nodes, out)

    def test_batched_forcing_equals_node_loop(self):
        # Three controls per node with state-dependent f_u, so each
        # forcing row is a sum whose rounding depends on the order.  The
        # reference is the convolution route with the per-node product
        # fu[i] @ udot[i] written out.
        def jac_fu(x, u, t):
            return np.array([[np.cos(x[0]), 0.7 * x[1], 0.3],
                             [0.45, 1.0 + x[0], -np.sin(x[1])]])

        p = OcpProblem(
            n=2, m=3, q=0, t0=0.0, x0=np.array([0.3, -0.2]), tf_mode="fixed",
            tf=1.0, jac_fu=jac_fu,
            dynamics=lambda x, u, t: np.array([x[1], -x[0]]) + jac_fu(x, u, t) @ u)
        gains = GainSet(K=np.eye(3))
        rng = np.random.default_rng(18)
        grid = TimeGrid(21, p.t0, p.tf)
        snap, stack = _feasible_snapshot(p, grid, smooth_controls(grid, 3, rng))
        udot = smooth_controls(grid, 3, rng, scale=0.5)
        out = second.state_rhs_second(p, snap, stack, udot, gains)

        nodes = third.node_inputs(p, snap.state_traj, snap.ctrl_traj)
        forcing = np.empty((grid.n_nodes, p.n))
        for i in range(grid.n_nodes):
            forcing[i] = nodes.fu[i] @ udot[i]
        carried = np.einsum("jba,jb->ja", stack.psi, forcing)
        summed = cumulative_trapezoid(carried, grid.times, axis=0, initial=0.0)
        summed += stack.psi[0].T @ np.zeros(p.n)
        loop = np.linalg.solve(np.swapaxes(stack.psi, 1, 2),
                               summed[:, :, None])[:, :, 0]
        assert np.max(np.abs(out)) > 1e-3
        assert np.array_equal(out, loop)

    def test_modified_reduces_on_clean_snapshot(self, di):
        grid = TimeGrid(21, 0.0, 2.0)
        snap, stack = _feasible_snapshot(di.problem, grid,
                                         np.full((21, 1), 0.4), TIGHT,
                                         exact_xdot=True)
        udot = np.linspace(-1.0, 1.0, 21)[:, None]
        quasi = second.state_rhs_second(di.problem, snap, stack, udot,
                                        di.gains, mode="quasi_feasible")
        modified = second.state_rhs_second(di.problem, snap, stack, udot,
                                           di.gains, mode="modified")
        assert np.max(np.abs(quasi - modified)) <= 1e-12


class TestMultipliers:
    def test_initial_snapshot_matches_control_only_solve(self, di):
        grid = TimeGrid(41, 0.0, 2.0)
        snap, stack = _feasible_snapshot(di.problem, grid, np.zeros((41, 1)))
        pi = second.multiplier_second(di.problem, snap, stack, di.gains)
        assert np.allclose(pi, [800.0 / 267.0, -666.5 / 267.0], atol=1e-6)

    @pytest.mark.parametrize("fixture_name", ["di", "brach"])
    def test_mode_reduction_chain(self, fixture_name, request):
        bench = request.getfixturevalue(fixture_name)
        p = bench.problem
        rng = np.random.default_rng(14)
        grid = TimeGrid(31, p.t0, p.tf)
        snap, stack = _feasible_snapshot(p, grid, smooth_controls(grid, 1, rng),
                                         TIGHT, exact_xdot=True)
        (m_mod, r_mod), (m_quasi, r_quasi), (_, r_feas) = (
            second.multiplier_system_second(p, snap, stack, bench.gains, mode)
            for mode in ("modified", "quasi_feasible", "feasible"))
        g0 = np.asarray(p.constraint(snap.states[-1], grid.tf), dtype=float)
        assert np.max(np.abs(r_mod - r_quasi)) <= 1e-9
        assert np.max(np.abs(r_quasi + bench.gains.K_g @ g0 - r_feas)) <= 1e-9
        assert np.max(np.abs(m_mod - m_quasi)) <= 1e-9

    def test_exact_optimum_makes_all_modes_agree(self, di):
        grid = TimeGrid(41, 0.0, 2.0)
        states = np.stack([di.reference.state(t) for t in grid.times])
        controls = np.stack([di.reference.control(t) for t in grid.times])
        xdot = np.stack([di.problem.dynamics(states[i], controls[i],
                                             grid.times[i])
                         for i in range(41)])
        snap = second.SecondEqSnapshot.create(grid, states, controls, xdot=xdot)
        stack = transition_stack(di.problem, snap.state_traj, snap.ctrl_traj,
                                 TIGHT)
        pis = [second.multiplier_second(di.problem, snap, stack, di.gains, mode)
               for mode in second.MODES]
        for pi in pis:
            assert np.allclose(pi, [3.0, -2.5], atol=1e-8)


class TestTerminalTimeRhs:
    def test_matches_control_only_method_when_defect_free(self, brach):
        rng = np.random.default_rng(15)
        grid = TimeGrid(31, 0.0, 1.0)
        snap, stack = _feasible_snapshot(brach.problem, grid,
                                         smooth_controls(grid, 1, rng), TIGHT,
                                         exact_xdot=True)
        pi = second.multiplier_second(brach.problem, snap, stack, brach.gains)
        mine = second.tf_rhs_second(brach.problem, snap, pi, brach.gains)
        reference = third.tf_rhs(brach.problem, snap.state_traj,
                                 snap.ctrl_traj, pi, brach.gains)
        assert abs(mine - reference) <= 1e-10

    def test_brachistochrone_initial_rate(self, brach):
        grid = TimeGrid(101, 0.0, 1.0)
        snap, stack = _feasible_snapshot(brach.problem, grid,
                                         np.zeros((101, 1)))
        pi = second.multiplier_second(brach.problem, snap, stack, brach.gains)
        rate = second.tf_rhs_second(brach.problem, snap, pi, brach.gains)
        assert rate == pytest.approx(-0.03, abs=1e-6)
