"""Bolza optimal-control problem container, gain sets, derivative checks.

A problem bundles the dynamics, running and terminal costs, the terminal
constraint, and their first derivatives as plain callables of
``(x, u, t)`` (or ``(x_f, t_f)`` for terminal quantities).  Derivative
callbacks may be omitted; central-difference fallbacks of O(h^2) accuracy
are wired in at construction.  Problems are immutable after construction
and all callbacks must be reentrant.  ``dataclasses.replace`` derives every
filled-in callback (fallbacks, adapters, zero defaults) afresh from the
new problem's given ones.

The dynamics f, the running cost L and the four per-node derivatives f_x,
f_u, L_x and L_u (``ROW_FORMS``) also have a row form,
``<name>_rows(xs, us, ts)``, which takes T rows at once -- ``xs`` (T, n),
``us`` (T, m), ``ts`` (T,) -- and returns (T, n), (T,), (T, n, n),
(T, n, m), (T, n) and (T, m).  The solver's node loops and inner solves
call only the row forms; the point forms serve the end-node terms, the
oracles, validation and derivative checks.  A problem may give either form (or both, which must
agree bit for bit): a missing row form becomes a per-row loop over the
point callback, a missing point form a one-row call of the row form.
Without a running cost, L and the L-gradients not given are zero arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional

import numpy as np

from .errors import NonFiniteCallback

_FD_STEP = 1e-6

# Per-node callbacks that also come in row form, as ``<name>_rows``.
ROW_FORMS = ("dynamics", "running_cost", "jac_fx", "jac_fu", "grad_lx", "grad_lu")


def central_difference(fun, arg, h=_FD_STEP):
    """Derivative of ``fun`` in its positional argument ``arg``, as a
    callable with ``fun``'s signature: column i is the central difference
    (fun(.., a + h e_i, ..) - fun(.., a - h e_i, ..)) / 2h, columns on the
    last axis.  A scalar argument (a time) gives no column axis."""
    def deriv(*args):
        scalar = np.ndim(args[arg]) == 0
        at = np.atleast_1d(np.asarray(args[arg], dtype=float))
        cols = []
        for i in range(at.size):
            e = np.zeros_like(at)
            e[i] = h
            hi, lo = (np.asarray(fun(*args[:arg], z[0] if scalar else z,
                                     *args[arg + 1:]), dtype=float)
                      for z in (at + e, at - e))
            cols.append((hi - lo) / (2 * h))
        out = np.stack(cols, axis=-1)
        return out[..., 0] if scalar else out
    return deriv


def _row_loop(point):
    """Row form of a point callback: one call per row, stacked."""
    def rows(xs, us, ts):
        return np.stack([np.asarray(point(x, u, t), dtype=float)
                         for x, u, t in zip(xs, us, ts)])
    return rows


def _one_row(rows):
    """Point form of a row callback: a one-row call."""
    def point(x, u, t):
        return rows(np.asarray(x, dtype=float)[None],
                    np.asarray(u, dtype=float)[None],
                    np.array([t], dtype=float))[0]
    return point


@dataclass(frozen=True)
class OcpProblem:
    """Terminally constrained Bolza problem on a fixed or free horizon.

    Cost is ``phi(x(tf), tf) + integral of L(x, u, t)``, subject to
    ``dx/dt = f(x, u, t)``, ``x(t0) = x0`` and, when ``q > 0``, the
    terminal condition ``g(x(tf), tf) = 0``.  ``tf_mode`` is "fixed"
    (``tf`` is the horizon) or "free" (``tf`` is the initial guess).
    The ``<name>_rows`` fields are the row forms of the dynamics, the
    running cost and the four per-node derivatives (module docstring); a
    problem gives ``dynamics`` or ``dynamics_rows``.
    """

    n: int
    m: int
    q: int
    t0: float
    x0: np.ndarray
    tf_mode: str
    tf: float
    dynamics: Callable = None
    jac_fx: Optional[Callable] = None
    jac_fu: Optional[Callable] = None
    running_cost: Optional[Callable] = None
    grad_lx: Optional[Callable] = None
    grad_lu: Optional[Callable] = None
    terminal_cost: Optional[Callable] = None
    grad_phix: Optional[Callable] = None
    dphi_dt: Optional[Callable] = None
    hess_phixx: Optional[Callable] = None
    dphi_dxdt: Optional[Callable] = None
    constraint: Optional[Callable] = None
    jac_gx: Optional[Callable] = None
    dg_dt: Optional[Callable] = None
    name: str = ""
    jac_fx_rows: Optional[Callable] = None
    jac_fu_rows: Optional[Callable] = None
    grad_lx_rows: Optional[Callable] = None
    grad_lu_rows: Optional[Callable] = None
    dynamics_rows: Optional[Callable] = None
    running_cost_rows: Optional[Callable] = None

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("state and control dimensions must be positive")
        if self.q < 0:
            raise ValueError("constraint dimension must be non-negative")
        if self.tf_mode not in ("fixed", "free"):
            raise ValueError("tf_mode must be 'fixed' or 'free'")
        if not (np.isfinite(self.t0) and np.isfinite(self.tf)):
            raise ValueError("initial and terminal times must be finite")
        if self.tf <= self.t0:
            raise ValueError("terminal time must exceed the initial time")
        if self.q > 0 and self.constraint is None:
            raise ValueError("q > 0 requires a terminal-constraint callback")

        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        object.__setattr__(self, "t0", float(self.t0))
        object.__setattr__(self, "tf", float(self.tf))

        n, m, q = self.n, self.m, self.q
        set_ = object.__setattr__
        # ``dataclasses.replace`` hands every field back as if given; what
        # was derived here is dropped and derived again from the new fields.
        for f in fields(self):
            if getattr(getattr(self, f.name), "_derived", False):
                set_(self, f.name, None)
        if self.dynamics is None and self.dynamics_rows is None:
            raise ValueError("dynamics callback is required")

        def fill(name, fn):
            if getattr(self, name) is None:
                fn._derived = True
                set_(self, name, fn)

        if self.dynamics is None:
            fill("dynamics", _one_row(self.dynamics_rows))
        if self.jac_fx_rows is None:
            fill("jac_fx", central_difference(self.dynamics, 0))
        if self.jac_fu_rows is None:
            fill("jac_fu", central_difference(self.dynamics, 1))
        if self.running_cost is None and self.running_cost_rows is None:
            fill("running_cost", lambda x, u, t: 0.0)
            fill("running_cost_rows", lambda xs, us, ts: np.zeros(len(ts)))
            if self.grad_lx is None:
                fill("grad_lx_rows", lambda xs, us, ts: np.zeros((len(ts), n)))
            if self.grad_lu is None:
                fill("grad_lu_rows", lambda xs, us, ts: np.zeros((len(ts), m)))
        else:
            if self.running_cost is None:
                fill("running_cost", _one_row(self.running_cost_rows))
            fd_x = central_difference(self.running_cost, 0)
            fd_u = central_difference(self.running_cost, 1)
            if self.grad_lx_rows is None:
                fill("grad_lx", lambda x, u, t: fd_x(x, u, t).reshape(n))
            if self.grad_lu_rows is None:
                fill("grad_lu", lambda x, u, t: fd_u(x, u, t).reshape(m))

        for name in ROW_FORMS:
            point, rows = getattr(self, name), getattr(self, name + "_rows")
            if rows is None:
                fill(name + "_rows", _row_loop(point))
            elif point is None:
                fill(name, _one_row(rows))

        if self.terminal_cost is None:
            fill("terminal_cost", lambda xf, tf: 0.0)
            fill("grad_phix", lambda xf, tf: np.zeros(n))
            fill("dphi_dt", lambda xf, tf: 0.0)
        else:
            fill("grad_phix", central_difference(self.terminal_cost, 0))
            phi_t = central_difference(self.terminal_cost, 1)
            fill("dphi_dt", lambda xf, tf: float(phi_t(xf, tf)))
        # Second-order terminal-cost terms default to zero.
        fill("hess_phixx", lambda xf, tf: np.zeros((n, n)))
        fill("dphi_dxdt", lambda xf, tf: np.zeros(n))
        if q > 0:
            fill("jac_gx", central_difference(self.constraint, 0))
            fill("dg_dt", central_difference(self.constraint, 1))

    @property
    def tf_free(self) -> bool:
        return self.tf_mode == "free"


def _require_spd(name: str, mat: np.ndarray) -> np.ndarray:
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square, got {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} must be finite")
    scale = max(1.0, float(np.max(np.abs(mat))))
    if np.max(np.abs(mat - mat.T)) > 1e-12 * scale:
        raise ValueError(f"{name} must be symmetric")
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{name} must be positive-definite") from exc
    return mat


@dataclass(frozen=True)
class GainSet:
    """Positive-definite evolution gains.

    ``K`` drives the control channels, ``K_g`` the terminal-constraint
    attraction, ``k_tf`` the terminal-time channel.  The modified
    (infeasible-domain) formulation feeds its initial-condition error and
    dynamics defect back with unit gain.
    """

    K: np.ndarray
    K_g: Optional[np.ndarray] = None
    k_tf: float = 0.05

    def __post_init__(self):
        for name in ("K", "K_g"):
            mat = getattr(self, name)
            if name == "K" or mat is not None:
                object.__setattr__(self, name, _require_spd(name, mat))
        if not 0.0 < self.k_tf < np.inf:
            raise ValueError("k_tf must be positive and finite")


@dataclass
class ValidationReport:
    """Findings from probing a problem's callbacks; empty means usable."""

    findings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def add(self, message: str) -> None:
        self.findings.append(message)


def _probe(report, label, fun, expect_shape):
    """Record what is wrong with ``fun()``'s output; return the output as
    an array when nothing is, else None.  An expected shape () takes a
    scalar or a one-element vector."""
    try:
        out = fun()
    except Exception as exc:  # callbacks are user code
        report.add(f"{label}: raised {type(exc).__name__}: {exc}")
        return
    arr = np.asarray(out, dtype=float)
    if expect_shape == ():
        if arr.shape not in ((), (1,)):
            report.add(f"{label}: expected a scalar, got shape {arr.shape}")
            return
    elif arr.shape != expect_shape:
        report.add(f"{label}: expected shape {expect_shape}, got {arr.shape}")
        return
    if not np.all(np.isfinite(arr)):
        report.add(f"{label}: non-finite output at probe point")
        return
    return arr


def row_form_mismatches(problem: OcpProblem, xs, us, ts,
                        names=ROW_FORMS) -> List[str]:
    """Rows at which a callback's row form differs in any bit from its
    point form at the same (x, u, t); empty when every row agrees."""
    found = []
    for name in names:
        rows = np.asarray(getattr(problem, name + "_rows")(xs, us, ts), dtype=float)
        point = getattr(problem, name)
        for k, t in enumerate(ts):
            if not np.array_equal(rows[k], np.asarray(point(xs[k], us[k], t),
                                                      dtype=float)):
                found.append(f"{name}_rows: row {k} (t={t:g}) differs from {name}")
    return found


def validate_problem(problem: OcpProblem) -> ValidationReport:
    """Probe every callback at (x0, u=0, t0) and collect findings.

    Each row form is probed with two stacked rows, at (x0, 0, t0) and
    (x0, 0, tf), and every row is compared with the point form there.
    Pure: identical problems yield identical reports.  Nothing raises;
    the report carries dimension mismatches, non-finite outputs, row forms
    that disagree with their point forms, and constraint-rank violations.
    """
    report = ValidationReport()
    n, m, q = problem.n, problem.m, problem.q
    if q > n:
        report.add(f"constraint dimension q={q} exceeds state dimension n={n}")
    if problem.x0.shape != (n,):
        report.add(f"x0: expected shape {(n,)}, got {problem.x0.shape}")
        return report

    x, u, t = problem.x0, np.zeros(m), problem.t0
    xf, tf = problem.x0, problem.tf
    # Output shape of each per-node point form, in probe order; its row
    # form returns two of them stacked.
    shapes = {"dynamics": (n,), "jac_fx": (n, n), "jac_fu": (n, m),
              "running_cost": (), "grad_lx": (n,), "grad_lu": (m,)}
    for name, shape in shapes.items():
        _probe(report, name, lambda: getattr(problem, name)(x, u, t), shape)
    xs, us, ts = np.stack([x, x]), np.zeros((2, m)), np.array([t, tf])
    usable = [name for name in ROW_FORMS
              if _probe(report, f"{name}_rows",
                        lambda: getattr(problem, name + "_rows")(xs, us, ts),
                        (2,) + shapes[name]) is not None]
    try:
        for finding in row_form_mismatches(problem, xs, us, ts, usable):
            report.add(finding)
    except Exception as exc:  # callbacks are user code
        report.add(f"point form at the row probe: raised "
                   f"{type(exc).__name__}: {exc}")
    # The terminal callbacks of (x_f, t_f), probed at (x0, tf).
    ends = {"terminal_cost": (), "grad_phix": (n,), "dphi_dt": (),
            "hess_phixx": (n, n), "dphi_dxdt": (n,)}
    if q > 0:
        ends.update(constraint=(q,), jac_gx=(q, n), dg_dt=(q,))
    for name, shape in ends.items():
        _probe(report, name, lambda: getattr(problem, name)(xf, tf), shape)
    return report


@dataclass
class DiscrepancyReport:
    """Max absolute gap between analytic and finite-difference derivatives."""

    entries: Dict[str, float]

    @property
    def worst(self) -> float:
        return max(self.entries.values()) if self.entries else 0.0


def check_derivatives(problem: OcpProblem, x, u, t, h: float = 1e-6
                      ) -> DiscrepancyReport:
    """Compare derivative callbacks against central differences at a point."""
    if not h > 0.0:
        raise ValueError("step h must be positive")
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    probes = [problem.dynamics(x, u, t), problem.running_cost(x, u, t),
              problem.terminal_cost(x, problem.tf)]
    if problem.q > 0:
        probes.append(problem.constraint(x, problem.tf))
    for out in probes:
        if not np.all(np.isfinite(np.asarray(out, dtype=float))):
            raise NonFiniteCallback("callback returned non-finite values at probe point")

    point, end = (x, u, t), (x, problem.tf)
    pairs = [("jac_fx", "dynamics", 0, point), ("jac_fu", "dynamics", 1, point),
             ("grad_lx", "running_cost", 0, point),
             ("grad_lu", "running_cost", 1, point),
             ("grad_phix", "terminal_cost", 0, end),
             ("dphi_dt", "terminal_cost", 1, end)]
    if problem.q > 0:
        pairs += [("jac_gx", "constraint", 0, end), ("dg_dt", "constraint", 1, end)]
    entries = {}
    for name, of, arg, at in pairs:
        fd = central_difference(getattr(problem, of), arg, h)(*at)
        analytic = np.asarray(getattr(problem, name)(*at), dtype=float)
        entries[name] = float(np.max(np.abs(analytic - fd)))
    return DiscrepancyReport(entries)
