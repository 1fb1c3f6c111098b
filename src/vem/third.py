"""Control-only evolution dynamics and costate-free optimality residuals.

Everything here is a pure function of one trajectory snapshot: node
controls, the states they induce, and the transition-matrix stack.  The
central quantity is the function-space cost gradient

    gu(t) = L_u(t) + f_u(t)^T lam(t),

where lam solves the backward sweep lam' = -f_x^T lam - L_x with the
terminal-cost gradient as end condition.  The terminal constraint enters
through the multiplier vector pi, chosen at every snapshot so that the
constraint residual decays along the virtual evolution time; pi solves
M pi = -r with M a constraint-projected controllability Gramian.

The per-node callback values (f_u and L_u at every node) are gathered once
per snapshot, by one row-form call each, into a ``NodeInputs`` record;
every formula below accepts it as ``nodes`` and only gathers its own when
none is passed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import TfCollapse
from .numerics import cumulative_from_right, grid_quadrature, solve_dense
from .ocp import GainSet, OcpProblem
from .trajectory import ControlTrajectory, StateTrajectory, TransitionStack

TF_MIN_WIDTH = 1e-3


@dataclass
class Residuals:
    """Costate-free optimality diagnostics; all entries non-negative.

    ``transversality`` is None for fixed-horizon problems.
    """

    optimality_inf: float
    constraint_inf: float
    transversality: Optional[float] = None

    def max(self) -> float:
        vals = [self.optimality_inf, self.constraint_inf]
        if self.transversality is not None:
            vals.append(self.transversality)
        return max(vals)


@dataclass
class MultiplierSystem:
    """Dense system M pi = -r determining the constraint multipliers."""

    M: np.ndarray
    r: np.ndarray
    mode: str = "quasi_feasible"

    def __post_init__(self):
        self.M = np.atleast_2d(np.asarray(self.M, dtype=float))
        self.r = np.atleast_1d(np.asarray(self.r, dtype=float))
        scale = max(1.0, float(np.max(np.abs(self.M))))
        if np.max(np.abs(self.M - self.M.T)) > 1e-10 * scale:
            raise ValueError("multiplier matrix must be symmetric")


@dataclass
class NodeInputs:
    """Node states, controls and times with f_u and L_u at every node."""

    xs: np.ndarray              # (N, n)
    us: np.ndarray              # (N, m)
    ts: np.ndarray              # (N,)
    fu: np.ndarray              # (N, n, m)
    lu: np.ndarray              # (N, m)


def node_inputs(problem: OcpProblem, states: StateTrajectory,
                ctrl: ControlTrajectory) -> NodeInputs:
    """Evaluate the per-node Jacobians of one snapshot once: one row-form
    call each for f_u and L_u over all nodes."""
    xs, us, ts = states.values, ctrl.values, states.grid.times
    fu = np.asarray(problem.jac_fu_rows(xs, us, ts), dtype=float)
    lu = np.asarray(problem.grad_lu_rows(xs, us, ts), dtype=float)
    return NodeInputs(xs, us, ts, fu, lu)


def _terminal_velocity(problem, x_end, u_end, tf, xdot_end=None):
    if xdot_end is None:
        return np.asarray(problem.dynamics(x_end, u_end, tf), dtype=float)
    return np.asarray(xdot_end, dtype=float)


def _constraint_rate_direction(problem, x_end, u_end, tf, xdot_end=None):
    """d(g)/d(tf) direction: g_x xdot + g_t at the terminal node."""
    w = _terminal_velocity(problem, x_end, u_end, tf, xdot_end)
    gx = np.asarray(problem.jac_gx(x_end, tf), dtype=float)
    gt = np.asarray(problem.dg_dt(x_end, tf), dtype=float)
    return gx @ w + gt


def _cost_rate(problem, x_end, u_end, tf, xdot_end=None):
    """L + phi_t + phi_x . xdot at the terminal node."""
    w = _terminal_velocity(problem, x_end, u_end, tf, xdot_end)
    return (float(problem.running_cost(x_end, u_end, tf))
            + float(problem.dphi_dt(x_end, tf))
            + float(np.asarray(problem.grad_phix(x_end, tf), dtype=float) @ w))


def control_gradient(problem: OcpProblem, states: StateTrajectory,
                     ctrl: ControlTrajectory, stack: TransitionStack,
                     form: str = "adjoint",
                     xdot_nodes: Optional[np.ndarray] = None,
                     nodes: Optional[NodeInputs] = None) -> np.ndarray:
    """Node values of the function-space cost gradient gu, shape (N, m).

    The adjoint form (default) reads the backward sweep cached on the
    stack.  The quadrature form rebuilds the same quantity from forward
    transition matrices and a right-cumulative trapezoid of the integrand

        L_x + phi_tx + phi_xx^T xdot + f_x^T phi_x

    (with phi derivatives taken at the running point); the two forms
    coincide analytically because the phi-terms telescope.  When
    ``xdot_nodes`` is given it replaces the dynamics in the phi_xx term,
    which extends the quadrature form to trajectories that do not satisfy
    the dynamics.
    """
    if nodes is None:
        nodes = node_inputs(problem, states, ctrl)
    xs, us, ts, fu, lu = nodes.xs, nodes.us, nodes.ts, nodes.fu, nodes.lu
    n_nodes = states.grid.n_nodes

    if form == "adjoint":
        # A stacked matmul (not einsum) keeps the bits of fu[i].T @ lam[i].
        return lu + (np.swapaxes(fu, 1, 2) @ stack.adjoint[:, :, None])[:, :, 0]

    if form != "quadrature":
        raise ValueError(f"unknown form {form!r}")

    fwd = stack.forward_matrices()
    omega = np.empty((n_nodes, problem.n))
    for i in range(n_nodes):
        xdot = xdot_nodes[i] if xdot_nodes is not None else np.asarray(
            problem.dynamics(xs[i], us[i], ts[i]), dtype=float)
        phix = np.asarray(problem.grad_phix(xs[i], ts[i]), dtype=float)
        omega[i] = (np.asarray(problem.grad_lx(xs[i], us[i], ts[i]), dtype=float)
                    + np.asarray(problem.dphi_dxdt(xs[i], ts[i]), dtype=float)
                    + np.asarray(problem.hess_phixx(xs[i], ts[i]), dtype=float).T @ xdot
                    + np.asarray(problem.jac_fx(xs[i], us[i], ts[i]), dtype=float).T @ phix)
    kernel = np.einsum("inj,in->ij", fwd, omega)      # Phi(t_i,t0)^T omega_i
    tail = cumulative_from_right(ts, kernel)
    gu = np.empty((n_nodes, problem.m))
    for i in range(n_nodes):
        integral = np.linalg.solve(fwd[i].T, tail[i])
        phix_here = np.asarray(problem.grad_phix(xs[i], ts[i]), dtype=float)
        gu[i] = lu[i] + fu[i].T @ (phix_here + integral)
    return gu


def multiplier_matrix(problem: OcpProblem, states: StateTrajectory,
                      ctrl: ControlTrajectory, stack: TransitionStack,
                      gains: GainSet,
                      xdot_end: Optional[np.ndarray] = None,
                      nodes: Optional[NodeInputs] = None) -> np.ndarray:
    """Constraint-projected Gramian M, symmetric positive semi-definite.

    Fixed-horizon problems carry only the Gramian term; free-horizon
    problems add the rank-one terminal-rate term weighted by k_tf.
    """
    if nodes is None:
        nodes = node_inputs(problem, states, ctrl)
    xs, us, ts, fu = nodes.xs, nodes.us, nodes.ts, nodes.fu
    grid = states.grid
    # Psi^T fu K fu^T Psi at every node, integrated by trapezoid.
    psit_fu = np.einsum("iba,ibm->iam", stack.psi, fu)
    integrand = np.einsum("iak,ibk->iab", psit_fu @ gains.K, psit_fu)
    gram = grid_quadrature(ts, integrand)
    gx = np.asarray(problem.jac_gx(xs[-1], grid.tf), dtype=float)
    mat = gx @ gram @ gx.T
    if problem.tf_free:
        v = _constraint_rate_direction(problem, xs[-1], us[-1], grid.tf, xdot_end)
        mat = mat + gains.k_tf * np.outer(v, v)
    return mat


def multiplier_rhs(problem: OcpProblem, states: StateTrajectory,
                   ctrl: ControlTrajectory, stack: TransitionStack,
                   gu: np.ndarray, gains: GainSet,
                   mode: str = "quasi_feasible",
                   xdot_end: Optional[np.ndarray] = None,
                   nodes: Optional[NodeInputs] = None) -> np.ndarray:
    """Right-hand side r of the multiplier system.

    ``mode`` "feasible" omits the constraint-attraction term -K_g g, which
    "quasi_feasible" includes; on a trajectory already satisfying g = 0
    the two coincide.
    """
    if mode not in ("feasible", "quasi_feasible"):
        raise ValueError(f"unknown mode {mode!r}")
    if nodes is None:
        nodes = node_inputs(problem, states, ctrl)
    xs, us, ts, fu = nodes.xs, nodes.us, nodes.ts, nodes.fu
    grid = states.grid
    psit_fu = np.einsum("iba,ibm->iam", stack.psi, fu)
    integrand = np.einsum("iam,im->ia", psit_fu, gu @ gains.K.T)
    gx = np.asarray(problem.jac_gx(xs[-1], grid.tf), dtype=float)
    r = gx @ grid_quadrature(ts, integrand)
    if problem.tf_free:
        v = _constraint_rate_direction(problem, xs[-1], us[-1], grid.tf, xdot_end)
        r = r + gains.k_tf * v * _cost_rate(problem, xs[-1], us[-1], grid.tf, xdot_end)
    if mode == "quasi_feasible":
        gval = np.asarray(problem.constraint(xs[-1], grid.tf), dtype=float)
        r = r - gains.K_g @ gval
    return r


def solve_multipliers(system: MultiplierSystem) -> np.ndarray:
    """pi = -M^{-1} r; raises SingularSystem when the constraint is
    unreachable through the available control authority."""
    sol, _cond = solve_dense(system.M, system.r)
    return -sol


def control_rhs(problem: OcpProblem, states: StateTrajectory,
                ctrl: ControlTrajectory, stack: TransitionStack,
                gu: np.ndarray, pi: Optional[np.ndarray],
                gains: GainSet,
                nodes: Optional[NodeInputs] = None) -> np.ndarray:
    """Evolution rate of the node controls, shape (N, m).

    Vanishes identically exactly when the first-order optimality residual
    is zero at every node.
    """
    if nodes is None:
        nodes = node_inputs(problem, states, ctrl)
    resid = _optimality_defect(problem, states, stack, nodes.fu, gu, pi)
    return -(resid @ gains.K.T)


def _optimality_defect(problem, states, stack, fu, gu, pi):
    """gu + fu^T Psi gx^T pi at every node (the constraint term only
    when multipliers are present)."""
    if pi is None or problem.q == 0:
        return np.array(gu, copy=True)
    grid = states.grid
    gx = np.asarray(problem.jac_gx(states.values[-1], grid.tf), dtype=float)
    psi_pull = np.einsum("inj,j->in", stack.psi, gx.T @ pi)
    return gu + np.einsum("inm,in->im", fu, psi_pull)


def tf_rhs(problem: OcpProblem, states: StateTrajectory,
           ctrl: ControlTrajectory, pi: Optional[np.ndarray],
           gains: GainSet,
           xdot_end: Optional[np.ndarray] = None) -> float:
    """Evolution rate of the free terminal time (scalar).

    Zero exactly when the transversality residual vanishes.  Raises
    TfCollapse once the horizon has shrunk below TF_MIN_WIDTH, which
    signals an oversized gain or a bad initial horizon.
    """
    grid = states.grid
    if grid.tf - problem.t0 < TF_MIN_WIDTH:
        raise TfCollapse(
            f"horizon width {grid.tf - problem.t0:.3e} below {TF_MIN_WIDTH:g}")
    x_end, u_end = states.values[-1], ctrl.values[-1]
    bracket = _cost_rate(problem, x_end, u_end, grid.tf, xdot_end)
    if pi is not None and problem.q > 0:
        bracket += float(pi @ _constraint_rate_direction(
            problem, x_end, u_end, grid.tf, xdot_end))
    return -gains.k_tf * bracket


def optimality_residuals(problem: OcpProblem, states: StateTrajectory,
                         ctrl: ControlTrajectory, stack: TransitionStack,
                         gu: np.ndarray, pi: Optional[np.ndarray],
                         nodes: Optional[NodeInputs] = None) -> Residuals:
    """Sup-norm first-order optimality, terminal-constraint miss, and
    (free horizon only) transversality residual for the snapshot."""
    if nodes is None:
        nodes = node_inputs(problem, states, ctrl)
    xs, us = nodes.xs, nodes.us
    grid = states.grid
    defect = _optimality_defect(problem, states, stack, nodes.fu, gu, pi)
    optimality = float(np.max(np.abs(defect)))
    if problem.q > 0:
        gval = np.asarray(problem.constraint(xs[-1], grid.tf), dtype=float)
        constraint = float(np.max(np.abs(gval)))
    else:
        constraint = 0.0
    transversality = None
    if problem.tf_free:
        bracket = _cost_rate(problem, xs[-1], us[-1], grid.tf)
        if pi is not None and problem.q > 0:
            bracket += float(pi @ _constraint_rate_direction(
                problem, xs[-1], us[-1], grid.tf))
        transversality = abs(bracket)
    return Residuals(optimality, constraint, transversality)


def reconstruct_costates(problem: OcpProblem, states: StateTrajectory,
                         stack: TransitionStack,
                         pi: Optional[np.ndarray]) -> np.ndarray:
    """Diagnostic costate estimates at the nodes, shape (N, n).

    Combines the backward cost-gradient sweep with the multiplier pull-in
    Psi gx^T pi, so that gu plus the constraint term equals
    L_u + fu^T lambda at every node.
    """
    lam = np.array(stack.adjoint, copy=True)
    if pi is not None and problem.q > 0:
        grid = states.grid
        gx = np.asarray(problem.jac_gx(states.values[-1], grid.tf), dtype=float)
        pull = gx.T @ pi
        lam += np.einsum("inj,j->in", stack.psi, pull)
    return lam
