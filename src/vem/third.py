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
(``multiplier_terms``, carried as ``MultiplierTerms``): g and g_x are
read once at the end node, and Q = Psi g_x^T (N, n, q) and
P = f_u^T Q (N, m, q) are formed once.
M = sum_i w_i P_i^T K P_i + k_tf v v^T and
r = sum_i w_i P_i^T K gu_i + k_tf v cost_rate - K_g g are sums over the
grid's trapezoid weights w; the constraint pull in the control rate and
the residuals is P pi and the costates add Q pi.  The Psi^T f_u-first
assembly with einsums and ``np.trapezoid`` is an oracle in
``vem.checks`` (``multiplier_assembly``).  On a free horizon one
``terminal_bracket`` read at the end node, whose time is the grid's
``tf`` exactly and whose phi_x is the adjoint's end value, serves the
terminal-time rate, the k_tf terms of M and r and the transversality
residual: it reads the end-node dynamics, L, phi_t and g_t once per
evaluation and forms the bracket's terms along the dynamics, which the
residual reads, and along the end-node rate, which the rate and the
multiplier system read (the same terms unless the coupled modified mode
gives its own rate).

Two places read the terminal callbacks: ``multiplier_terms`` (g and
g_x, and through its one ``terminal_bracket`` call the end-node
dynamics, L, phi_t and g_t) and the driver's feasible-start check
(``assemble_ivp``).  Every other formula here, the residuals in every
mode among them, is algebra on ``NodeInputs``, ``MultiplierTerms`` and
the stack.

The coupled method (``vem.second``) is these formulas on its own
snapshot's node record.  No formula here takes a variant: the driver's
``EvolutionSystem`` turns its mode into data once, the modified mode
into the evaluation's ``Defects`` record, whose end-node time derivative
and corrections ``multiplier_terms`` folds into the terms, and the
feasible mode into ``attract=False``, which drops -K_g g from r.
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
    """The terminal bracket's terms (cost_rate, v) at the end node, twice:
    along the dynamics, for the transversality residual, and along
    ``xdot_end``, for the rate and the multiplier system (the same tuple
    when ``xdot_end`` is None).  Along a rate xdot they are the cost rate
    L + phi_t + phi_x xdot and the constraint rate v = g_x xdot + g_t (None
    without constraints) of the bracket L + phi_t + phi_x xdot + pi v;
    phi_x is the adjoint's end value, which the stack pins to the
    terminal-cost gradient exactly, and ``gx`` the evaluation's g_x
    (``MultiplierTerms``).  L, phi_t and g_t are read once for both;
    ``bracket_value`` adds pi v."""
    x_end, u_end, tf = nodes.xs[-1], nodes.us[-1], nodes.grid.tf
    # A one-element running cost is a scalar, as in its row form.
    base = (float(np.asarray(problem.running_cost(x_end, u_end, tf)).reshape(()))
            + float(problem.dphi_dt(x_end, tf)))
    gt = None if gx is None else np.asarray(problem.dg_dt(x_end, tf), dtype=float)

    def along(w):
        return (base + float(stack.adjoint[-1] @ w),
                None if gx is None else gx @ w + gt)

    dynamics = along(np.asarray(problem.dynamics(x_end, u_end, tf), dtype=float))
    return dynamics, dynamics if xdot_end is None else along(xdot_end)


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
class Defects:
    """A coupled snapshot's defects, formed once per evaluation by
    ``second.SecondEqSnapshot.defects`` in modified mode only: the initial
    miss x_0 - x0, the dynamics defect xdot - f at every node and the
    end-node time derivative, which takes the dynamics' place in the
    terminal bracket along the rate."""

    initial: np.ndarray         # (n,)
    dynamics: np.ndarray        # (N, n)
    xdot_end: np.ndarray        # (n,)


@dataclass
class MultiplierTerms:
    """The end-node terms of one evaluation, formed once by
    ``multiplier_terms`` and read by every formula: g and g_x at the end
    node, the constraint projection Q = Psi g_x^T and P = f_u^T Q at every
    node and P's ``weighted_rows``, which both sums of the multiplier
    system read (all None without constraints), on a free horizon the
    terminal bracket's terms along the dynamics (``transversality``, the
    residual's) and along the end-node rate (``bracket``, the rate's and
    the multiplier system's; both None on a fixed horizon), and the
    corrections that ``Defects`` carry into r (``carried``, empty unless
    the evaluation has defects), which is how the modified variant
    reaches the multiplier system."""

    g: Optional[np.ndarray]             # (q,)
    gx: Optional[np.ndarray]            # (q, n)
    psi_gx: Optional[np.ndarray]        # Q, (N, n, q)
    fu_psi_gx: Optional[np.ndarray]     # P, (N, m, q)
    transversality: Optional[tuple] = None  # terminal_bracket's (cost_rate, v)
    bracket: Optional[tuple] = None         # ... along the end-node rate
    weighted: Optional[np.ndarray] = None   # weighted_rows(P), (N m, q)
    carried: tuple = ()                     # (q,) terms added to r in order


def multiplier_terms(problem: OcpProblem, nodes: NodeInputs,
                     stack: TransitionStack,
                     defects: Optional[Defects] = None) -> MultiplierTerms:
    """One ``constraint`` and one ``jac_gx`` call, the projections Q and
    P, P's weighted rows, on a free horizon the terminal bracket along the
    dynamics and along ``defects.xdot_end`` (the dynamics without
    defects), and with ``defects`` their corrections to r: the initial
    miss through the full-horizon transition matrix, g_x Phi(tf, t0) =
    Q_0^T, and the dynamics defect transported to the terminal time, the
    trapezoid sum of Q_i^T defect_i."""
    g = gx = None
    if problem.q > 0:
        x_end, tf = nodes.xs[-1], nodes.grid.tf
        g = np.asarray(problem.constraint(x_end, tf), dtype=float)
        gx = np.asarray(problem.jac_gx(x_end, tf), dtype=float)
    brackets = (None, None)
    if problem.tf_free:
        brackets = terminal_bracket(problem, nodes, stack, gx,
                                    None if defects is None else defects.xdot_end)
    if gx is None:
        return MultiplierTerms(None, None, None, None, *brackets)
    n_nodes, n = stack.adjoint.shape
    psi_gx = (stack.psi.reshape(-1, n) @ gx.T).reshape(n_nodes, n, -1)
    p = np.einsum("inm,inq->imq", nodes.fu, psi_gx)
    carried = () if defects is None else (
        psi_gx[0].T @ defects.initial,
        weighted_rows(nodes, psi_gx).T @ defects.dynamics.ravel())
    return MultiplierTerms(g, gx, psi_gx, p, *brackets, weighted_rows(nodes, p),
                           carried)


def weighted_rows(nodes: NodeInputs, per_node: np.ndarray) -> np.ndarray:
    """(N, k, q) node terms times the grid's trapezoid weights, as
    (N k, q) rows: their transpose times node rows is the trapezoid sum."""
    return (per_node * nodes.grid.weights[:, None, None]).reshape(
        -1, per_node.shape[2])


def multiplier_matrix(terms: MultiplierTerms, gains: GainSet) -> np.ndarray:
    """Constraint-projected Gramian M = sum_i w_i P_i^T K P_i over the
    grid's trapezoid weights, symmetric positive semi-definite.

    Fixed-horizon problems carry only the Gramian term; free-horizon
    problems add the rank-one terminal-rate term k_tf v v^T.
    """
    p = terms.fu_psi_gx
    mat = terms.weighted.T @ (gains.K @ p).reshape(-1, p.shape[2])
    if terms.bracket is not None:
        v = terms.bracket[1]
        # np.outer's product.
        mat = mat + gains.k_tf * (v[:, None] * v)
    return mat


def multiplier_rhs(terms: MultiplierTerms, gu: np.ndarray, gains: GainSet,
                   attract: bool) -> np.ndarray:
    """Right-hand side r = sum_i w_i P_i^T K gu_i [+ k_tf v cost_rate]
    [- K_g g] [+ the ``carried`` defect corrections] of the multiplier
    system.

    ``attract`` adds the constraint-attraction term -K_g g, which the
    coupled feasible variant omits; on a trajectory already satisfying
    g = 0 the two coincide.
    """
    r = terms.weighted.T @ (gu @ gains.K.T).ravel()
    if terms.bracket is not None:
        cost_rate, v = terms.bracket
        r = r + gains.k_tf * v * cost_rate
    if attract:
        r = r - gains.K_g @ terms.g
    for term in terms.carried:
        r = r + term
    return r


def multiplier_system(terms: MultiplierTerms, gu: np.ndarray, gains: GainSet,
                      attract: bool = True):
    """(M, r) of the multiplier system M pi = -r from one evaluation's
    ``MultiplierTerms``."""
    return multiplier_matrix(terms, gains), multiplier_rhs(terms, gu, gains, attract)


def solve_multipliers(M: np.ndarray, r: np.ndarray) -> np.ndarray:
    """pi = -M^{-1} r for a symmetric float M (q, q) and r (q,), the
    arrays ``multiplier_system`` returns, which ``solve_dense`` takes as
    they are; raises SingularSystem when the constraint is unreachable
    through the available control authority."""
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


def optimality_residuals(terms: MultiplierTerms, gu: np.ndarray,
                         pi: Optional[np.ndarray]) -> Residuals:
    """Sup-norm first-order optimality, terminal-constraint miss, and
    (free horizon only) transversality residual for the snapshot: algebra
    on the evaluation's terms in every mode, the last on the bracket's
    terms along the dynamics (``terms.transversality``)."""
    defect = _optimality_defect(terms, gu, pi)
    optimality = float(np.abs(defect).max())
    constraint = 0.0
    if terms.g is not None:
        constraint = float(np.abs(terms.g).max())
    transversality = None
    if terms.transversality is not None:
        transversality = abs(bracket_value(terms.transversality, pi))
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
