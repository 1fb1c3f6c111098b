"""State-and-control evolution: the comparison baseline formulation.

Here the node states are carried in the evolving vector next to the node
controls, so every right-hand-side evaluation works on a snapshot of
(states, controls, tf) rather than re-propagating the dynamics.  Three
variants share the machinery:

  feasible        trajectory satisfies dynamics, initial and terminal
                  conditions; multiplier system without constraint pull.
  quasi_feasible  dynamics and initial condition hold (e.g. the snapshot
                  was produced by integration); the multiplier right-hand
                  side gains the -K_g g attraction term.  Default.
  modified        arbitrary snapshots; initial-condition and dynamics
                  defects are fed back through K_x0 / K_f corrections and
                  the terminal rate uses the snapshot's time derivative
                  in place of the dynamics.

On a defect-free snapshot the modified form reduces exactly to the
quasi-feasible one, which in turn matches the control-only formulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from scipy.integrate import cumulative_trapezoid

from .errors import TfCollapse
from .numerics import grid_quadrature, spline_build
from .ocp import GainSet, OcpProblem
from .rk45 import IntegratorOptions, rk45_integrate
from .third import (
    MultiplierSystem,
    NodeInputs,
    TF_MIN_WIDTH,
    _constraint_rate_direction,
    _cost_rate,
    control_gradient,
    control_rhs,
    multiplier_matrix,
    multiplier_rhs,
    node_inputs,
    solve_multipliers,
)
from .trajectory import ControlTrajectory, StateTrajectory, TimeGrid, TransitionStack

MODES = ("feasible", "quasi_feasible", "modified")


@dataclass
class SecondEqSnapshot:
    """One (states, controls, tf) snapshot of the coupled evolution.

    ``xdot`` holds the discrete time derivative of the states at the
    nodes; by default it is the state spline differentiated, which is how
    the dynamics defect is discretized.  Tests may inject exact values.
    """

    grid: TimeGrid
    states: np.ndarray          # (N, n)
    controls: np.ndarray        # (N, m)
    xdot: np.ndarray            # (N, n)
    state_traj: StateTrajectory
    ctrl_traj: ControlTrajectory

    @classmethod
    def create(cls, grid: TimeGrid, states, controls,
               xdot: Optional[np.ndarray] = None) -> "SecondEqSnapshot":
        states = np.asarray(states, dtype=float)
        controls = np.atleast_2d(np.asarray(controls, dtype=float))
        if controls.shape[0] != grid.n_nodes:
            controls = controls.T
        state_spline = spline_build(grid.times, states)
        if xdot is None:
            xdot = state_spline.derivative(grid.times)
        return cls(grid, states, controls, np.asarray(xdot, dtype=float),
                   StateTrajectory(grid, states, state_spline.eval),
                   ControlTrajectory(grid, controls, spline_build(grid.times, controls)))

    def defect(self, problem: OcpProblem) -> np.ndarray:
        """Dynamics defect xdot - f at the nodes, shape (N, n)."""
        out = np.empty_like(self.xdot)
        for i in range(self.grid.n_nodes):
            out[i] = self.xdot[i] - np.asarray(
                problem.dynamics(self.states[i], self.controls[i],
                                 self.grid.times[i]), dtype=float)
        return out


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")


def multiplier_system_second(problem: OcpProblem, snap: SecondEqSnapshot,
                             stack: TransitionStack, gains: GainSet,
                             mode: str = "quasi_feasible",
                             gu: Optional[np.ndarray] = None,
                             nodes: Optional[NodeInputs] = None,
                             defect: Optional[np.ndarray] = None) -> MultiplierSystem:
    """Assemble the multiplier system for the requested variant.

    The modified variant replaces the dynamics with the snapshot time
    derivative in the terminal-rate factors and appends the
    initial-condition and dynamics-defect corrections to r.  A caller that
    already holds ``gu``, the per-node Jacobians ``nodes`` or the dynamics
    ``defect`` of this snapshot passes them in so they are not evaluated
    again.
    """
    _check_mode(mode)
    grid = snap.grid
    xdot_end = snap.xdot[-1] if mode == "modified" else None
    if nodes is None:
        nodes = node_inputs(problem, snap.state_traj, snap.ctrl_traj)
    mat = multiplier_matrix(problem, snap.state_traj, snap.ctrl_traj, stack,
                            gains, xdot_end=xdot_end, nodes=nodes)
    if gu is None:
        gu = control_gradient(problem, snap.state_traj, snap.ctrl_traj, stack,
                              nodes=nodes)
    base_mode = "feasible" if mode == "feasible" else "quasi_feasible"
    r = multiplier_rhs(problem, snap.state_traj, snap.ctrl_traj, stack, gu,
                       gains, mode=base_mode, xdot_end=xdot_end, nodes=nodes)
    if mode == "modified":
        gx = np.asarray(problem.jac_gx(snap.states[-1], grid.tf), dtype=float)
        # Initial-condition feedback through the full-horizon transition
        # matrix: Phi(tf, t0) equals Psi(t0)^T.
        init_err = snap.states[0] - problem.x0
        r = r + gx @ (stack.psi[0].T @ (gains.kx0(problem.n) @ init_err))
        # Dynamics-defect feedback, transported to the terminal time.
        if defect is None:
            defect = snap.defect(problem)
        kf = gains.kf(problem.n)
        carried = np.einsum("iba,ib->ia", stack.psi,
                            defect @ kf.T)          # Psi^T K_f defect per node
        r = r + gx @ grid_quadrature(grid.times, carried)
    return MultiplierSystem(mat, r, mode=mode)


def multiplier_second(problem: OcpProblem, snap: SecondEqSnapshot,
                      stack: TransitionStack, gains: GainSet,
                      mode: str = "quasi_feasible",
                      gu: Optional[np.ndarray] = None,
                      nodes: Optional[NodeInputs] = None,
                      defect: Optional[np.ndarray] = None) -> np.ndarray:
    return solve_multipliers(multiplier_system_second(
        problem, snap, stack, gains, mode, gu, nodes, defect))


def control_rhs_second(problem: OcpProblem, snap: SecondEqSnapshot,
                       stack: TransitionStack, pi: Optional[np.ndarray],
                       gains: GainSet) -> np.ndarray:
    """Evolution rate of the node controls, shape (N, m).

    The gradient kernel is evaluated along the snapshot trajectory via
    the backward sweep, which stays valid off the feasible set; on a
    defect-free snapshot this matches the control-only formulation
    exactly.
    """
    gu = control_gradient(problem, snap.state_traj, snap.ctrl_traj, stack)
    return control_rhs(problem, snap.state_traj, snap.ctrl_traj, stack,
                       gu, pi, gains)


def state_rhs_second(problem: OcpProblem, snap: SecondEqSnapshot,
                     stack: TransitionStack, udot_nodes: np.ndarray,
                     gains: GainSet, mode: str = "quasi_feasible",
                     opts: Optional[IntegratorOptions] = None,
                     via: str = "convolution",
                     nodes: Optional[NodeInputs] = None,
                     defect: Optional[np.ndarray] = None) -> np.ndarray:
    """Evolution rate of the node states, shape (N, n).

    The state rate is the convolution of the control rate - and in
    modified mode the defect and initial-condition feedback - against the
    forward transition kernel.  Two routes are provided:

    ``convolution`` (default)
        Grid-trapezoid quadrature of the convolution, using the same
        composite rule as the multiplier system.  Sharing the rule makes
        the designed constraint decay exact at the discrete level, and the
        node controls see the same quadrature error as the multipliers.
        The kernel comes from the backward stack alone: with
        Psi_k = Phi(tf, t_k)^T, Phi(t_i, s_j) = Psi_i^{-T} Psi_j^T, so
        w_i solves Psi_i^T w_i = Psi_0^T w0 + trapezoid of Psi_j^T forcing_j
        up to t_i.  This is the forward-matrix form of the same rule
        scaled by the constant Phi(tf, t0), and it needs no forward sweep.
        f_u is read from ``nodes`` and, in modified mode, the dynamics
        defect from ``defect`` when the caller already holds them for
        this snapshot.

    ``ivp``
        The equivalent forward variational problem
        w' = f_x w + f_u udot(t) [- K_f (xdot - f)], w(t0) = 0
        (modified: -K_x0 (x(t0) - x0)) on the spline-interpolated rates.
        Retained as the independent route for equivalence checks.
    """
    _check_mode(mode)
    if via not in ("convolution", "ivp"):
        raise ValueError(f"unknown route {via!r}")
    grid = snap.grid
    udot_nodes = np.atleast_2d(np.asarray(udot_nodes, dtype=float))
    modified = mode == "modified"
    if modified:
        kf = gains.kf(problem.n)
        w0 = -gains.kx0(problem.n) @ (snap.states[0] - problem.x0)
    else:
        w0 = np.zeros(problem.n)

    if via == "convolution":
        if nodes is None:
            nodes = node_inputs(problem, snap.state_traj, snap.ctrl_traj)
        forcing = (nodes.fu @ udot_nodes[:, :, None])[:, :, 0]
        if modified:
            if defect is None:
                defect = snap.defect(problem)
            forcing -= defect @ kf.T
        # Phi(t_i, s_j) = Psi_i^{-T} Psi_j^T: carry the forcing to tf,
        # accumulate by the composite trapezoid, add the carried initial
        # value and bring each sum back to its node with one stacked solve.
        carried = np.einsum("jba,jb->ja", stack.psi, forcing)
        summed = cumulative_trapezoid(carried, grid.times, axis=0, initial=0.0)
        summed += stack.psi[0].T @ w0
        psi_t = np.swapaxes(stack.psi, 1, 2)
        return np.linalg.solve(psi_t, summed[:, :, None])[:, :, 0]

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
            out = out - kf @ (xdot_spline.eval(t) - f_here)
        return out

    path = rk45_integrate(field_fn, w0, (grid.t0, grid.tf), opts)
    values = path.eval(grid.times)
    values[0] = w0
    return values


def tf_rhs_second(problem: OcpProblem, snap: SecondEqSnapshot,
                  pi: Optional[np.ndarray], gains: GainSet,
                  mode: str = "quasi_feasible") -> float:
    """Evolution rate of the free terminal time for the snapshot."""
    _check_mode(mode)
    grid = snap.grid
    if grid.tf - problem.t0 < TF_MIN_WIDTH:
        raise TfCollapse(
            f"horizon width {grid.tf - problem.t0:.3e} below {TF_MIN_WIDTH:g}")
    xdot_end = snap.xdot[-1] if mode == "modified" else None
    x_end, u_end = snap.states[-1], snap.controls[-1]
    bracket = _cost_rate(problem, x_end, u_end, grid.tf, xdot_end)
    if pi is not None and problem.q > 0:
        bracket += float(pi @ _constraint_rate_direction(
            problem, x_end, u_end, grid.tf, xdot_end))
    return -gains.k_tf * bracket
