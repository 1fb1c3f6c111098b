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
from vem.checks import _smooth_controls as smooth_controls
from vem.numerics import spline_build
from vem.driver import EvolutionSystem
from vem.problems import brachistochrone, double_integrator, tracking_fixture

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


def _record(problem, snap, stack):
    """Node record and cost gradient of a coupled snapshot."""
    nodes = third.node_inputs(problem, snap.state_traj, snap.ctrl_traj)
    return nodes, third.control_gradient(nodes, stack)


def _terms(problem, nodes, stack, defects=None):
    """The snapshot's end-node terms, whose terminal bracket on a free
    horizon is along the snapshot's end-node time derivative given its
    ``defects`` (modified mode) and along the dynamics otherwise."""
    return third.multiplier_terms(problem, nodes, stack, defects)


def _state_rate(via, problem, snap, stack, udot, opts=None):
    """The quasi-feasible node-state rate by the convolution or by the
    variational-problem oracle."""
    if via == "ivp":
        return checks.variational_state_rate(problem, snap, udot, opts=opts)
    nodes = third.node_inputs(problem, snap.state_traj, snap.ctrl_traj)
    return second.state_rhs_second(nodes, stack, udot)


class TestSnapshot:
    def test_default_xdot_is_spline_derivative(self, di):
        # Reference states are cubic polynomials, which the spline
        # reproduces exactly, so the derivative matches the dynamics.
        grid = TimeGrid(41, 0.0, 2.0)
        states = np.stack([di.reference.state(t) for t in grid.times])
        controls = np.stack([di.reference.control(t) for t in grid.times])
        snap = second.SecondEqSnapshot.create(grid, states, controls)
        assert np.max(np.abs(snap.defects(di.problem).dynamics)) <= 1e-10

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (3, 1), (2, 2)])
    @pytest.mark.parametrize("n_nodes", [4, 5, 41, 101])
    def test_joint_spline_equals_separate_builds(self, n, m, n_nodes):
        # The slope solve treats each channel alone, so the joint spline
        # over [states | controls] gives each trajectory the coefficients,
        # and each node derivative the bits, of a spline of its own.
        rng = np.random.default_rng(100 * n + 10 * m + n_nodes)
        grid = TimeGrid(n_nodes, 0.2, 1.7)
        states = rng.standard_normal((n_nodes, n))
        controls = rng.standard_normal((n_nodes, m))
        snap = second.SecondEqSnapshot.create(grid, states, controls)
        state_spline = spline_build(grid.times, states)
        control_spline = spline_build(grid.times, controls)
        assert np.array_equal(snap.state_traj._spline().coeffs, state_spline.coeffs)
        assert np.array_equal(snap.ctrl_traj.spline.coeffs, control_spline.coeffs)
        assert np.array_equal(snap.xdot, state_spline.derivative(grid.times))
        assert np.array_equal(snap.du_dt, control_spline.derivative(grid.times))

    def test_unknown_mode_rejected(self, di):
        # The mode is read once, where the coupled system is built on the
        # snapshot's grid; a misspelt one is refused there, before any
        # snapshot is evaluated under some other variant.
        grid = TimeGrid(11, 0.0, 2.0)
        snap, _ = _feasible_snapshot(di.problem, grid, np.zeros((11, 1)))
        with pytest.raises(ValueError, match="unknown mode 'sloppy'"):
            EvolutionSystem(di.problem, di.gains, "second", grid.n_nodes,
                            IntegratorOptions(), None, "sloppy")
        system = EvolutionSystem(di.problem, di.gains, "second", grid.n_nodes,
                                 IntegratorOptions(), None, "modified")
        vec = system.layout.pack(snap.controls, states=snap.states)
        assert np.all(np.isfinite(system.rhs(0.0, vec)))


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
            nodes = third.node_inputs(p, traj, ctrl)
            gu = third.control_gradient(nodes, stack)
            terms = third.multiplier_terms(p, nodes, stack)
            pi = third.solve_multipliers(*third.multiplier_system(
                terms, gu, brach.gains))
            rates.append(third.control_rhs(terms, gu, pi, brach.gains))
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
        nodes, gu = _record(p, snap, stack)
        rate = third.control_rhs(_terms(p, nodes, stack), gu, None, gains)
        assert np.array_equal(rate, -gu @ gains.K.T)


class TestStateRhs:
    def test_zero_forcing(self, di):
        grid = TimeGrid(21, 0.0, 2.0)
        snap, stack = _feasible_snapshot(di.problem, grid, np.zeros((21, 1)))
        for via in ("convolution", "ivp"):
            out = _state_rate(via, di.problem, snap, stack, np.zeros((21, 1)))
            assert np.max(np.abs(out)) <= 1e-14

    @pytest.mark.parametrize("via", ["convolution", "ivp"])
    def test_constant_rate_closed_form(self, di, via):
        # Unit control rate convolved with the double-integrator kernel
        # gives [t^2/2, t]; both routes are exact on these polynomials.
        grid = TimeGrid(41, 0.0, 2.0)
        snap, stack = _feasible_snapshot(di.problem, grid, np.zeros((41, 1)),
                                         TIGHT)
        out = _state_rate(via, di.problem, snap, stack, np.ones((41, 1)),
                          opts=TIGHT)
        t = grid.times
        expected = np.stack([0.5 * t**2, t], axis=1)
        assert np.max(np.abs(out - expected)) <= 1e-9

    def test_variational_route_matches_gauss_convolution(self, di):
        # Independent oracle: per-interval Gauss quadrature of the
        # closed-form kernel against the variational-problem route.
        rng = np.random.default_rng(13)
        grid = TimeGrid(41, 0.0, 2.0)
        snap, _ = _feasible_snapshot(di.problem, grid, np.zeros((41, 1)), TIGHT)
        udot = smooth_controls(grid, 1, rng, scale=0.5)
        via_ivp = checks.variational_state_rate(di.problem, snap, udot, opts=TIGHT)
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
        defects = snap.defects(p) if mode == "modified" else None
        if defects is not None:
            forcing -= defects.dynamics
            w0 = -(snap.states[0] - p.x0)
        pulled = np.linalg.solve(fwd, forcing[:, :, None])[:, :, 0]
        summed = cumulative_trapezoid(pulled, grid.times, axis=0, initial=0.0)
        oracle = np.einsum("inj,ij->in", fwd, summed + w0)

        nodes = third.node_inputs(p, snap.state_traj, snap.ctrl_traj)
        out = second.state_rhs_second(nodes, stack, udot, defects)
        assert np.max(np.abs(out)) > 1e-3
        assert np.max(np.abs(out - oracle)) <= 1e-8

    def test_modified_convolution_matches_variational_problem(self, di):
        # Both modified-mode routes on double-integrator states offset by a
        # constant from the optimum: an initial-condition error, a constant
        # dynamics defect and a unit control rate make every forcing
        # polynomial, so both are exact to the closed-form test's bound.
        grid = TimeGrid(41, 0.0, 2.0)
        p = di.problem
        states = np.stack([di.reference.state(t) for t in grid.times])
        controls = np.stack([di.reference.control(t) for t in grid.times])
        snap = second.SecondEqSnapshot.create(grid, states + [0.02, -0.03],
                                              controls)
        stack = transition_stack(p, snap.state_traj, snap.ctrl_traj, TIGHT)
        nodes = third.node_inputs(p, snap.state_traj, snap.ctrl_traj)
        udot = np.ones((41, 1))
        out = second.state_rhs_second(nodes, stack, udot, snap.defects(p))
        quasi = second.state_rhs_second(nodes, stack, udot)
        via_ivp = checks.variational_state_rate(p, snap, udot, mode="modified",
                                                opts=TIGHT)
        assert np.max(np.abs(out - quasi)) > 1e-2
        assert np.max(np.abs(out - via_ivp)) <= 1e-9

    def test_batched_forcing_equals_node_loop(self):
        # Three controls per node with state-dependent f_u, so each
        # forcing row is a sum whose rounding depends on the order.  The
        # reference is the trapezoid recurrence over the stack's interval
        # blocks with the per-node product fu[i] @ udot[i] written out:
        # bit for bit as the banded forward solve takes it, and to
        # rounding as a loop over the nodes.
        def jac_fu(x, u, t):
            return np.array([[np.cos(x[0]), 0.7 * x[1], 0.3],
                             [0.45, 1.0 + x[0], -np.sin(x[1])]])

        p = OcpProblem(
            n=2, m=3, q=0, t0=0.0, x0=np.array([0.3, -0.2]), tf_mode="fixed",
            tf=1.0, jac_fu=jac_fu,
            dynamics=lambda x, u, t: np.array([x[1], -x[0]]) + jac_fu(x, u, t) @ u)
        rng = np.random.default_rng(18)
        grid = TimeGrid(21, p.t0, p.tf)
        snap, stack = _feasible_snapshot(p, grid, smooth_controls(grid, 3, rng))
        udot = smooth_controls(grid, 3, rng, scale=0.5)
        nodes = third.node_inputs(p, snap.state_traj, snap.ctrl_traj)
        out = second.state_rhs_second(nodes, stack, udot)

        forcing = np.empty((grid.n_nodes, p.n))
        for i in range(grid.n_nodes):
            forcing[i] = nodes.fu[i] @ udot[i]
        g, half = stack.blocks, 0.5 * grid.widths[:, None]
        rhs = np.zeros_like(forcing)
        rhs[1:] = half * ((g @ forcing[:-1, :, None])[:, :, 0] + forcing[1:])
        banded = trajectory._bidiagonal_solve(trajectory._band(g),
                                              rhs.reshape(-1, 1), "N")
        loop = np.zeros_like(forcing)
        for i in range(grid.n_nodes - 1):
            loop[i + 1] = g[i] @ (loop[i] + half[i] * forcing[i]) + half[i] * forcing[i + 1]
        assert np.max(np.abs(out)) > 1e-3
        assert np.array_equal(out, banded.reshape(out.shape))
        assert np.max(np.abs(out - loop)) <= 1e-15

    @pytest.mark.parametrize("mode", ["feasible", "quasi_feasible", "modified"])
    @pytest.mark.parametrize("make", [double_integrator, tracking_fixture])
    def test_rate_shares_the_multiplier_quadrature(self, make, mode):
        # The state rate and the multiplier system take the same trapezoid
        # rule along the same interval maps, so at the end node the full
        # coupled tau-rate moves the terminal constraint by exactly the
        # designed decay -K_g g (none in feasible mode), to rounding, even
        # on a snapshot with an initial-condition error and a dynamics
        # defect; and the first node's rate is w0 bit for bit.
        bench = make()
        p, gains = bench.problem, bench.gains
        rng = np.random.default_rng(19)
        grid = TimeGrid(31, p.t0, p.tf)
        ctrl = ControlTrajectory.from_values(grid, smooth_controls(grid, p.m, rng))
        nodes, *_ = trajectory.shooting_nodes(p, ctrl, grid)
        nodes = nodes + 1e-3 * rng.standard_normal(nodes.shape)
        system = EvolutionSystem(p, gains, "second", grid.n_nodes,
                                 IntegratorOptions(), None, mode)
        vec = system.layout.pack(ctrl.values, states=nodes)
        _, wdot, _ = system.layout.unpack(system.rhs(0.0, vec))
        xf = nodes[-1]
        decay = (np.zeros(p.q) if mode == "feasible"
                 else -gains.K_g @ p.constraint(xf, p.tf))
        assert np.max(np.abs(decay)) > 1e-4 or mode == "feasible"
        assert np.max(np.abs(p.jac_gx(xf, p.tf) @ wdot[-1] - decay)) <= 1e-13
        w0 = -(nodes[0] - p.x0) if mode == "modified" else np.zeros(p.n)
        assert np.array_equal(wdot[0], w0)
        assert mode != "modified" or np.max(np.abs(w0)) > 1e-4

    def test_modified_reduces_on_clean_snapshot(self, di):
        grid = TimeGrid(21, 0.0, 2.0)
        snap, stack = _feasible_snapshot(di.problem, grid,
                                         np.full((21, 1), 0.4), TIGHT,
                                         exact_xdot=True)
        udot = np.linspace(-1.0, 1.0, 21)[:, None]
        nodes, _ = _record(di.problem, snap, stack)
        quasi = second.state_rhs_second(nodes, stack, udot)
        modified = second.state_rhs_second(nodes, stack, udot,
                                           snap.defects(di.problem))
        assert np.max(np.abs(quasi - modified)) <= 1e-12


class TestMultipliers:
    def test_initial_snapshot_matches_control_only_solve(self, di):
        grid = TimeGrid(41, 0.0, 2.0)
        snap, stack = _feasible_snapshot(di.problem, grid, np.zeros((41, 1)))
        nodes, gu = _record(di.problem, snap, stack)
        pi = second.multiplier_second(_terms(di.problem, nodes, stack), gu,
                                      di.gains, True)
        assert np.allclose(pi, [800.0 / 267.0, -666.5 / 267.0], atol=1e-6)

    @pytest.mark.parametrize("fixture_name", ["di", "brach"])
    def test_mode_reduction_chain(self, fixture_name, request):
        bench = request.getfixturevalue(fixture_name)
        p = bench.problem
        rng = np.random.default_rng(14)
        grid = TimeGrid(31, p.t0, p.tf)
        snap, stack = _feasible_snapshot(p, grid, smooth_controls(grid, 1, rng),
                                         TIGHT, exact_xdot=True)
        nodes, gu = _record(p, snap, stack)
        # Modified, quasi-feasible and feasible, as the driver builds them.
        defects = snap.defects(p)
        (m_mod, r_mod), (m_quasi, r_quasi), (_, r_feas) = (
            third.multiplier_system(_terms(p, nodes, stack, d), gu, bench.gains,
                                    attract)
            for d, attract in ((defects, True), (None, True), (None, False)))
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
        nodes, gu = _record(di.problem, snap, stack)
        defects = snap.defects(di.problem)
        # Feasible, quasi-feasible and modified, as the driver builds them.
        pis = [second.multiplier_second(_terms(di.problem, nodes, stack, d), gu,
                                        di.gains, attract)
               for d, attract in ((None, False), (None, True), (defects, True))]
        for pi in pis:
            assert np.allclose(pi, [3.0, -2.5], atol=1e-8)


class TestTerminalTimeRhs:
    def test_matches_control_only_method_when_defect_free(self, brach):
        rng = np.random.default_rng(15)
        grid = TimeGrid(31, 0.0, 1.0)
        snap, stack = _feasible_snapshot(brach.problem, grid,
                                         smooth_controls(grid, 1, rng), TIGHT,
                                         exact_xdot=True)
        nodes, gu = _record(brach.problem, snap, stack)
        terms = _terms(brach.problem, nodes, stack)
        pi = second.multiplier_second(terms, gu, brach.gains, True)
        # The modified-mode bracket reads the snapshot's own derivative.
        mine = second.tf_rhs_second(
            _terms(brach.problem, nodes, stack, snap.defects(brach.problem)).bracket,
            pi, brach.gains)
        reference = third.tf_rhs(terms.bracket, pi, brach.gains)
        assert abs(mine - reference) <= 1e-10

    def test_brachistochrone_initial_rate(self, brach):
        grid = TimeGrid(101, 0.0, 1.0)
        snap, stack = _feasible_snapshot(brach.problem, grid,
                                         np.zeros((101, 1)))
        nodes, gu = _record(brach.problem, snap, stack)
        terms = _terms(brach.problem, nodes, stack)
        pi = second.multiplier_second(terms, gu, brach.gains, True)
        rate = second.tf_rhs_second(terms.bracket, pi, brach.gains)
        assert rate == pytest.approx(-0.03, abs=1e-6)
