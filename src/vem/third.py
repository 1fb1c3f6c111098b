"""Control-only evolution dynamics and costate-free optimality residuals.

Everything here is a pure function of one trajectory snapshot: node
controls, the states they induce, and the transition-matrix stack.  The
central quantity is the function-space cost gradient

    gu(t) = L_u(t) + f_u(t)^T lam(t),

where lam solves the backward sweep lam' = -f_x^T lam - L_x with the
terminal-cost gradient as end condition; ``control_gradient`` reads lam
off the transition stack, and its quadrature form over forward transition
matrices is an oracle in ``vem.checks``.  The terminal constraint enters
through the multiplier vector pi, chosen at every snapshot so that the
constraint residual decays along the virtual evolution time; pi solves
M pi = -r (``multiplier_system``, ``solve_multipliers``) with M a
constraint-projected controllability Gramian.  On a free horizon the
terminal-time rate, the transversality residual and the k_tf terms of M
and r all read one ``terminal_bracket`` at the end node.

The coupled method (``vem.second``) is these formulas along its own
snapshot trajectories, plus its end-node time derivative (``xdot_end``)
and defect corrections in modified mode.

The per-node callback values (f_u and L_u at every node) are gathered once
per snapshot, by one row-form call each, into a ``NodeInputs`` record;
every formula below accepts it as ``nodes`` and only gathers its own when
none is passed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import grid_quadrature, solve_dense
from .ocp import GainSet, OcpProblem
from .trajectory import ControlTrajectory, StateTrajectory, TransitionStack


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


def terminal_bracket(problem: OcpProblem, states: StateTrajectory,
                     ctrl: ControlTrajectory, pi: Optional[np.ndarray] = None,
                     xdot_end: Optional[np.ndarray] = None):
    """(bracket, v) at the end node: the terminal bracket
    L + phi_t + phi_x xdot + pi (g_x xdot + g_t) and its constraint rate
    v = g_x xdot + g_t (None without constraints).  xdot is the dynamics
    unless ``xdot_end`` is given; without ``pi`` the bracket is the cost
    rate alone."""
    x_end, u_end, tf = states.values[-1], ctrl.values[-1], states.grid.tf
    if xdot_end is None:
        xdot_end = problem.dynamics(x_end, u_end, tf)
    w = np.asarray(xdot_end, dtype=float)
    bracket = (float(problem.running_cost(x_end, u_end, tf))
               + float(problem.dphi_dt(x_end, tf))
               + float(np.asarray(problem.grad_phix(x_end, tf), dtype=float) @ w))
    if problem.q == 0:
        return bracket, None
    v = (np.asarray(problem.jac_gx(x_end, tf), dtype=float) @ w
         + np.asarray(problem.dg_dt(x_end, tf), dtype=float))
    if pi is not None:
        bracket += float(pi @ v)
    return bracket, v


def control_gradient(problem: OcpProblem, states: StateTrajectory,
                     ctrl: ControlTrajectory, stack: TransitionStack,
                     nodes: Optional[NodeInputs] = None) -> np.ndarray:
    """Node values of the function-space cost gradient gu, shape (N, m),
    from the adjoint on the stack.  The quadrature form of the same
    quantity, an oracle, is ``checks.quadrature_gradient``."""
    if nodes is None:
        nodes = node_inputs(problem, states, ctrl)
    # A stacked matmul (not einsum) keeps the bits of fu[i].T @ lam[i].
    return nodes.lu + (np.swapaxes(nodes.fu, 1, 2) @ stack.adjoint[:, :, None])[:, :, 0]


@dataclass
class MultiplierTerms:
    """What M and r share, formed once per snapshot: Psi^T f_u at every
    node, g_x at the end node and, on a free horizon, the terminal cost
    rate and constraint rate v of ``terminal_bracket``."""

    psit_fu: np.ndarray         # (N, n, m)
    gx: np.ndarray              # (q, n)
    cost_rate: Optional[float] = None
    v: Optional[np.ndarray] = None


def _multiplier_terms(problem: OcpProblem, states: StateTrajectory,
                     ctrl: ControlTrajectory, stack: TransitionStack,
                     xdot_end: Optional[np.ndarray] = None,
                     nodes: Optional[NodeInputs] = None) -> MultiplierTerms:
    """The shared terms of M and r: one f_u einsum, one ``jac_gx`` call
    and, on a free horizon, one terminal bracket."""
    if nodes is None:
        nodes = node_inputs(problem, states, ctrl)
    terms = MultiplierTerms(
        np.einsum("iba,ibm->iam", stack.psi, nodes.fu),
        np.asarray(problem.jac_gx(nodes.xs[-1], states.grid.tf), dtype=float))
    if problem.tf_free:
        terms.cost_rate, terms.v = terminal_bracket(problem, states, ctrl,
                                                    xdot_end=xdot_end)
    return terms


def multiplier_matrix(problem: OcpProblem, states: StateTrajectory,
                      ctrl: ControlTrajectory, stack: TransitionStack,
                      gains: GainSet,
                      xdot_end: Optional[np.ndarray] = None,
                      nodes: Optional[NodeInputs] = None,
                      terms: Optional[MultiplierTerms] = None) -> np.ndarray:
    """Constraint-projected Gramian M, symmetric positive semi-definite.

    Fixed-horizon problems carry only the Gramian term; free-horizon
    problems add the rank-one terminal-rate term weighted by k_tf.
    """
    if terms is None:
        terms = _multiplier_terms(problem, states, ctrl, stack, xdot_end, nodes)
    # Psi^T fu K fu^T Psi at every node, integrated by trapezoid.
    psit_fu = terms.psit_fu
    integrand = np.einsum("iak,ibk->iab", psit_fu @ gains.K, psit_fu)
    mat = terms.gx @ grid_quadrature(states.grid.times, integrand) @ terms.gx.T
    if problem.tf_free:
        mat = mat + gains.k_tf * np.outer(terms.v, terms.v)
    return mat


def multiplier_rhs(problem: OcpProblem, states: StateTrajectory,
                   ctrl: ControlTrajectory, stack: TransitionStack,
                   gu: np.ndarray, gains: GainSet,
                   mode: str = "quasi_feasible",
                   xdot_end: Optional[np.ndarray] = None,
                   nodes: Optional[NodeInputs] = None,
                   terms: Optional[MultiplierTerms] = None) -> np.ndarray:
    """Right-hand side r of the multiplier system.

    ``mode`` "feasible" omits the constraint-attraction term -K_g g, which
    "quasi_feasible" includes; on a trajectory already satisfying g = 0
    the two coincide.
    """
    if mode not in ("feasible", "quasi_feasible"):
        raise ValueError(f"unknown mode {mode!r}")
    if terms is None:
        terms = _multiplier_terms(problem, states, ctrl, stack, xdot_end, nodes)
    integrand = np.einsum("iam,im->ia", terms.psit_fu, gu @ gains.K.T)
    r = terms.gx @ grid_quadrature(states.grid.times, integrand)
    if problem.tf_free:
        r = r + gains.k_tf * terms.v * terms.cost_rate
    if mode == "quasi_feasible":
        gval = np.asarray(problem.constraint(states.values[-1], states.grid.tf),
                          dtype=float)
        r = r - gains.K_g @ gval
    return r


def multiplier_system(problem: OcpProblem, states: StateTrajectory,
                      ctrl: ControlTrajectory, stack: TransitionStack,
                      gains: GainSet, gu: Optional[np.ndarray] = None,
                      mode: str = "quasi_feasible",
                      xdot_end: Optional[np.ndarray] = None,
                      nodes: Optional[NodeInputs] = None):
    """(M, r) of the multiplier system M pi = -r, sharing one
    ``MultiplierTerms``; ``gu`` and ``nodes`` are formed here when the
    caller does not hold them."""
    if nodes is None:
        nodes = node_inputs(problem, states, ctrl)
    if gu is None:
        gu = control_gradient(problem, states, ctrl, stack, nodes=nodes)
    terms = _multiplier_terms(problem, states, ctrl, stack, xdot_end, nodes)
    mat = multiplier_matrix(problem, states, ctrl, stack, gains, terms=terms)
    return mat, multiplier_rhs(problem, states, ctrl, stack, gu, gains, mode,
                               terms=terms)


def solve_multipliers(M: np.ndarray, r: np.ndarray) -> np.ndarray:
    """pi = -M^{-1} r for a symmetric M; raises SingularSystem when the
    constraint is unreachable through the available control authority."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    scale = max(1.0, float(np.max(np.abs(M))))
    if np.max(np.abs(M - M.T)) > 1e-10 * scale:
        raise ValueError("multiplier matrix must be symmetric")
    sol, _cond = solve_dense(M, r)
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


def _multiplier_pull(problem, states, stack, pi):
    """Psi gx^T pi at every node, shape (N, n); None without multipliers."""
    if pi is None or problem.q == 0:
        return None
    gx = np.asarray(problem.jac_gx(states.values[-1], states.grid.tf), dtype=float)
    return np.einsum("inj,j->in", stack.psi, gx.T @ pi)


def _optimality_defect(problem, states, stack, fu, gu, pi):
    """gu + fu^T Psi gx^T pi at every node (the constraint term only
    when multipliers are present)."""
    pull = _multiplier_pull(problem, states, stack, pi)
    if pull is None:
        return np.array(gu, copy=True)
    return gu + np.einsum("inm,in->im", fu, pull)


def tf_rhs(problem: OcpProblem, states: StateTrajectory,
           ctrl: ControlTrajectory, pi: Optional[np.ndarray],
           gains: GainSet,
           xdot_end: Optional[np.ndarray] = None) -> float:
    """Evolution rate of the free terminal time (scalar): -k_tf times the
    terminal bracket, zero exactly when the transversality residual
    vanishes."""
    return -gains.k_tf * terminal_bracket(problem, states, ctrl, pi, xdot_end)[0]


def optimality_residuals(problem: OcpProblem, states: StateTrajectory,
                         ctrl: ControlTrajectory, stack: TransitionStack,
                         gu: np.ndarray, pi: Optional[np.ndarray],
                         nodes: Optional[NodeInputs] = None) -> Residuals:
    """Sup-norm first-order optimality, terminal-constraint miss, and
    (free horizon only) transversality residual for the snapshot."""
    if nodes is None:
        nodes = node_inputs(problem, states, ctrl)
    defect = _optimality_defect(problem, states, stack, nodes.fu, gu, pi)
    optimality = float(np.max(np.abs(defect)))
    constraint = 0.0
    if problem.q > 0:
        gval = problem.constraint(states.values[-1], states.grid.tf)
        constraint = float(np.max(np.abs(np.asarray(gval, dtype=float))))
    transversality = None
    if problem.tf_free:
        transversality = abs(terminal_bracket(problem, states, ctrl, pi)[0])
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
    pull = _multiplier_pull(problem, states, stack, pi)
    if pull is not None:
        lam += pull
    return lam
