"""Control-only evolution dynamics and costate-free optimality residuals.

Every formula here is an algebraic function of one snapshot's node
record (``NodeInputs``: the grid, node states and controls, and f_u and
L_u at every node, gathered once per snapshot by ``node_inputs`` with one
row-form call each) and, where it needs the sweep, its transition stack.
The central quantity is the function-space cost gradient

    gu(t) = L_u(t) + f_u(t)^T lam(t),

where lam solves the backward sweep lam' = -f_x^T lam - L_x with the
terminal-cost gradient as end condition; ``control_gradient`` reads lam
off the transition stack, and its quadrature form over forward transition
matrices is an oracle in ``vem.checks``.  The terminal constraint enters
through the multiplier vector pi, chosen at every snapshot so that the
constraint residual decays along the virtual evolution time; pi solves
M pi = -r (``multiplier_system``, ``solve_multipliers``) with M a
constraint-projected controllability Gramian.

The constraint enters every formula through one projection per snapshot
(``multiplier_terms``, carried as ``MultiplierTerms``): g_x is read once
at the end node, and Q = Psi g_x^T (N, n, q) and P = f_u^T Q (N, m, q)
are formed once.  M = sum_i w_i P_i^T K P_i + k_tf v v^T and
r = sum_i w_i P_i^T K gu_i + k_tf v cost_rate - K_g g are sums over the
grid's trapezoid weights w; the constraint pull in the control rate and
the residuals is P pi and the costates add Q pi.  The Psi^T f_u-first
assembly with einsums and ``grid_quadrature`` is an oracle in
``vem.checks`` (``multiplier_assembly``).  On a free horizon the
terminal-time rate, the transversality residual and the k_tf terms of M
and r all read the terms of one ``terminal_bracket`` at the end node,
whose time is the grid's ``tf`` exactly and whose phi_x is the adjoint's
end value; it is formed once per snapshot and end-node rate.

The coupled method (``vem.second``) is these formulas on its own
snapshot's node record, plus its end-node time derivative (``xdot_end``)
and defect corrections in modified mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import solve_dense
from .ocp import GainSet, OcpProblem
from .trajectory import ControlTrajectory, StateTrajectory, TimeGrid, TransitionStack


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
    """One snapshot's node record: its grid, node states and controls,
    and f_u and L_u at every node."""

    grid: TimeGrid
    xs: np.ndarray              # (N, n)
    us: np.ndarray              # (N, m)
    fu: np.ndarray              # (N, n, m)
    lu: np.ndarray              # (N, m)


def node_inputs(problem: OcpProblem, states: StateTrajectory,
                ctrl: ControlTrajectory) -> NodeInputs:
    """Evaluate the per-node Jacobians of one snapshot once: one row-form
    call each for f_u and L_u over all nodes."""
    grid = states.grid
    xs, us, ts = states.values, ctrl.values, grid.times
    fu = np.asarray(problem.jac_fu_rows(xs, us, ts), dtype=float)
    lu = np.asarray(problem.grad_lu_rows(xs, us, ts), dtype=float)
    return NodeInputs(grid, xs, us, fu, lu)


def terminal_bracket(problem: OcpProblem, nodes: NodeInputs,
                     stack: TransitionStack, gx: Optional[np.ndarray],
                     xdot_end: Optional[np.ndarray] = None):
    """(cost_rate, v) at the end node: the cost rate L + phi_t + phi_x xdot
    and the constraint rate v = g_x xdot + g_t (None without constraints)
    of the terminal bracket L + phi_t + phi_x xdot + pi v.  xdot is the
    dynamics unless ``xdot_end`` is given; phi_x is the adjoint's end
    value, which the stack pins to the terminal-cost gradient exactly, and
    ``gx`` the evaluation's g_x (``MultiplierTerms``).  The caller forms
    them once per snapshot and end-node rate; ``bracket_value`` adds pi v."""
    x_end, u_end, tf = nodes.xs[-1], nodes.us[-1], nodes.grid.tf
    if xdot_end is None:
        xdot_end = problem.dynamics(x_end, u_end, tf)
    w = np.asarray(xdot_end, dtype=float)
    cost_rate = (float(problem.running_cost(x_end, u_end, tf))
                 + float(problem.dphi_dt(x_end, tf))
                 + float(stack.adjoint[-1] @ w))
    if gx is None:
        return cost_rate, None
    return cost_rate, gx @ w + np.asarray(problem.dg_dt(x_end, tf), dtype=float)


def bracket_value(bracket, pi: Optional[np.ndarray]) -> float:
    """The terminal bracket from its ``terminal_bracket`` terms: the cost
    rate plus pi v when there are multipliers and constraints."""
    cost_rate, v = bracket
    if pi is None or v is None:
        return cost_rate
    return cost_rate + float(pi @ v)


def control_gradient(nodes: NodeInputs, stack: TransitionStack) -> np.ndarray:
    """Node values of the function-space cost gradient gu, shape (N, m),
    from the adjoint on the stack.  The quadrature form of the same
    quantity, an oracle, is ``checks.quadrature_gradient``."""
    # A stacked matmul (not einsum) keeps the bits of fu[i].T @ lam[i].
    return nodes.lu + (nodes.fu.swapaxes(1, 2) @ stack.adjoint[:, :, None])[:, :, 0]


@dataclass
class MultiplierTerms:
    """The end-node terms of one evaluation, formed once by
    ``multiplier_terms`` and read by every formula: g_x at the end node,
    the constraint projection Q = Psi g_x^T and P = f_u^T Q at every node
    (all None without constraints) and, on a free horizon, the terminal
    bracket's terms."""

    gx: Optional[np.ndarray]            # (q, n)
    psi_gx: Optional[np.ndarray]        # Q, (N, n, q)
    fu_psi_gx: Optional[np.ndarray]     # P, (N, m, q)
    bracket: Optional[tuple] = None     # terminal_bracket's (cost_rate, v)


def multiplier_terms(problem: OcpProblem, nodes: NodeInputs,
                     stack: TransitionStack,
                     xdot_end: Optional[np.ndarray] = None) -> MultiplierTerms:
    """One ``jac_gx`` call, the projections Q and P, and on a free horizon
    the terminal bracket along ``xdot_end`` (the dynamics when None)."""
    gx = None
    if problem.q > 0:
        gx = np.asarray(problem.jac_gx(nodes.xs[-1], nodes.grid.tf), dtype=float)
    bracket = None
    if problem.tf_free:
        bracket = terminal_bracket(problem, nodes, stack, gx, xdot_end)
    if gx is None:
        return MultiplierTerms(None, None, None, bracket)
    n_nodes, n = stack.adjoint.shape
    psi_gx = (stack.psi.reshape(-1, n) @ gx.T).reshape(n_nodes, n, -1)
    return MultiplierTerms(gx, psi_gx, np.einsum("inm,inq->imq", nodes.fu, psi_gx),
                           bracket)


def weighted_rows(nodes: NodeInputs, per_node: np.ndarray) -> np.ndarray:
    """(N, k, q) node terms times the grid's trapezoid weights, as
    (N k, q) rows: their transpose times node rows is the trapezoid sum."""
    return (per_node * nodes.grid.weights[:, None, None]).reshape(
        -1, per_node.shape[2])


def multiplier_matrix(problem: OcpProblem, nodes: NodeInputs,
                      terms: MultiplierTerms, gains: GainSet) -> np.ndarray:
    """Constraint-projected Gramian M = sum_i w_i P_i^T K P_i over the
    grid's trapezoid weights, symmetric positive semi-definite.

    Fixed-horizon problems carry only the Gramian term; free-horizon
    problems add the rank-one terminal-rate term k_tf v v^T.
    """
    p = terms.fu_psi_gx
    mat = weighted_rows(nodes, p).T @ (gains.K @ p).reshape(-1, p.shape[2])
    if problem.tf_free:
        v = terms.bracket[1]
        # np.outer's product.
        mat = mat + gains.k_tf * (v[:, None] * v)
    return mat


def multiplier_rhs(problem: OcpProblem, nodes: NodeInputs,
                   terms: MultiplierTerms, gu: np.ndarray, gains: GainSet,
                   mode: str) -> np.ndarray:
    """Right-hand side r = sum_i w_i P_i^T K gu_i [+ k_tf v cost_rate]
    [- K_g g] of the multiplier system.

    ``mode`` "feasible" omits the constraint-attraction term -K_g g, which
    "quasi_feasible" includes; on a trajectory already satisfying g = 0
    the two coincide.
    """
    if mode not in ("feasible", "quasi_feasible"):
        raise ValueError(f"unknown mode {mode!r}")
    r = weighted_rows(nodes, terms.fu_psi_gx).T @ (gu @ gains.K.T).ravel()
    if problem.tf_free:
        cost_rate, v = terms.bracket
        r = r + gains.k_tf * v * cost_rate
    if mode == "quasi_feasible":
        gval = np.asarray(problem.constraint(nodes.xs[-1], nodes.grid.tf),
                          dtype=float)
        r = r - gains.K_g @ gval
    return r


def multiplier_system(problem: OcpProblem, nodes: NodeInputs,
                      terms: MultiplierTerms, gu: np.ndarray, gains: GainSet,
                      mode: str = "quasi_feasible"):
    """(M, r) of the multiplier system M pi = -r from one evaluation's
    ``MultiplierTerms``."""
    mat = multiplier_matrix(problem, nodes, terms, gains)
    return mat, multiplier_rhs(problem, nodes, terms, gu, gains, mode)


def solve_multipliers(M: np.ndarray, r: np.ndarray) -> np.ndarray:
    """pi = -M^{-1} r for a symmetric M; raises SingularSystem when the
    constraint is unreachable through the available control authority."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    scale = max(1.0, float(np.abs(M).max()))
    if np.abs(M - M.T).max() > 1e-10 * scale:
        raise ValueError("multiplier matrix must be symmetric")
    sol, _cond = solve_dense(M, r)
    return -sol


def control_rhs(terms: MultiplierTerms, gu: np.ndarray,
                pi: Optional[np.ndarray], gains: GainSet) -> np.ndarray:
    """Evolution rate of the node controls, shape (N, m).

    Vanishes identically exactly when the first-order optimality residual
    is zero at every node.
    """
    return -(_optimality_defect(terms, gu, pi) @ gains.K.T)


def _optimality_defect(terms, gu, pi):
    """gu + P pi at every node, P = f_u^T Psi g_x^T (the constraint pull
    only when multipliers are present)."""
    if pi is None:
        return gu
    return gu + terms.fu_psi_gx @ pi


def tf_rhs(bracket, pi: Optional[np.ndarray], gains: GainSet) -> float:
    """Evolution rate of the free terminal time (scalar): -k_tf times the
    terminal bracket (``bracket_value``), zero exactly when the
    transversality residual vanishes."""
    return -gains.k_tf * bracket_value(bracket, pi)


def optimality_residuals(problem: OcpProblem, nodes: NodeInputs,
                         terms: MultiplierTerms, gu: np.ndarray,
                         pi: Optional[np.ndarray], *, bracket) -> Residuals:
    """Sup-norm first-order optimality, terminal-constraint miss, and
    (free horizon only) transversality residual for the snapshot; the
    last reads ``bracket``, the ``terminal_bracket`` terms along the
    dynamics."""
    defect = _optimality_defect(terms, gu, pi)
    optimality = float(np.abs(defect).max())
    constraint = 0.0
    if problem.q > 0:
        gval = problem.constraint(nodes.xs[-1], nodes.grid.tf)
        constraint = float(np.abs(np.asarray(gval, dtype=float)).max())
    transversality = None
    if problem.tf_free:
        transversality = abs(bracket_value(bracket, pi))
    return Residuals(optimality, constraint, transversality)


def reconstruct_costates(stack: TransitionStack, terms: MultiplierTerms,
                         pi: Optional[np.ndarray]) -> np.ndarray:
    """Diagnostic costate estimates at the nodes, shape (N, n).

    Combines the backward cost-gradient sweep with the multiplier pull-in
    Q pi = Psi g_x^T pi, so that gu plus the constraint term equals
    L_u + fu^T lambda at every node.
    """
    if pi is None:
        return np.array(stack.adjoint, copy=True)
    return stack.adjoint + terms.psi_gx @ pi
