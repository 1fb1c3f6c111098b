"""Workload definitions, seeded initial guesses and accuracy gates.

A workload is a list of solves run back to back (one pass).  The seed
draws every initial guess; the solver only ever sees the drawn arrays.
Every pass of one run reuses the same guesses, so passes must agree bit
for bit.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

TAU_END = 300.0
# Drawn controls are a0 + a1 sin(pi s) + a2 cos(pi s) on normalized time s,
# with every coefficient ~ N(0, CONTROL_SCALE^2); a free horizon starts at
# 1.0 + N(0, TF_SCALE^2).
CONTROL_SCALE = 0.2
TF_SCALE = 0.05

# C1 (tests/test_acceptance.py): double integrator, control-only method.
C1_J, C1_J_TOL = 3.25, 1e-4
C1_EU_TOL = 1e-3
C1_MISS_TOL = 1e-4
# C4: brachistochrone, control-only method.
C4_TF, C4_TF_TOL = 0.8165, 5e-4
C4_PI, C4_PI_TOL = np.array([-0.1477, 0.0564]), 5e-3
C4_EX_TOL = 1e-3
C4_MISS_TOL = 1e-4
# The coupled method has no acceptance bound of its own.  Its reference
# runs (zero guess, default N) reach e_J 7.5e-3 and e_x 4.6e-3, so it is
# held to two correct digits and the control-only terminal miss.
COUPLED_ERR_TOL = 1e-2
COUPLED_MISS_TOL = 1e-4


@dataclass(frozen=True)
class SolveSpec:
    problem: str
    method: str
    n_nodes: int
    early_stop: bool
    # False keeps the solver's own starting point (zero controls, the
    # problem's horizon guess), as ``vem compare`` does.
    drawn: bool = True

    @property
    def label(self) -> str:
        return f"{self.problem}/{self.method}/N{self.n_nodes}"


@dataclass(frozen=True)
class Workload:
    name: str
    solves: Tuple[SolveSpec, ...]
    # Independent draws per solve spec in one pass.  The tau-step count of
    # a solve varies with its start, so more draws steady the pass time.
    draws: int = 1


DI, BR = "double-integrator", "brachistochrone"

WORKLOADS = {
    "solve-third": Workload("solve-third", (
        SolveSpec(DI, "third", 41, early_stop=True),
        SolveSpec(BR, "third", 101, early_stop=True),
    )),
    # The coupled method's accuracy and tau-step count on the
    # brachistochrone swing with its start (e_x 4e-3 .. 5e-2 and 110 .. 206
    # tau-RHS calls for drawn controls or horizons), so that solve keeps
    # the ``vem compare`` start; the double integrator's does not swing.
    "compare-second": Workload("compare-second", (
        SolveSpec(DI, "second", 41, early_stop=False),
        SolveSpec(BR, "second", 101, early_stop=False, drawn=False),
    )),
    "fine-grid-third": Workload("fine-grid-third", (
        SolveSpec(BR, "third", 321, early_stop=False),
    ), draws=2),
}

# The acceptance settings: zero guess, default N, tau = 300, early stop
# off.  Expected IVP dimension and tau-RHS calls made by ``evolve``.
BASELINE = (
    (SolveSpec(DI, "third", 41, False, drawn=False), 41, 128),
    (SolveSpec(DI, "second", 41, False, drawn=False), 123, 134),
    (SolveSpec(BR, "third", 101, False, drawn=False), 102, 116),
    (SolveSpec(BR, "second", 101, False, drawn=False), 405, 116),
)


@dataclass(frozen=True)
class SolveInput:
    spec: SolveSpec
    init_controls: Optional[np.ndarray]
    init_tf: Optional[float]


def draw_inputs(workload: Workload, seed: int, benchmarks) -> List[SolveInput]:
    """Initial guesses for one pass; the same seed gives the same arrays."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    inputs = []
    for _ in range(workload.draws):
        for spec in workload.solves:
            if not spec.drawn:
                inputs.append(SolveInput(spec, None, None))
                continue
            problem = benchmarks[spec.problem].problem
            sigma = np.linspace(0.0, 1.0, spec.n_nodes)
            a = rng.normal(0.0, CONTROL_SCALE, size=(3, problem.m))
            controls = (a[0] + np.sin(np.pi * sigma)[:, None] * a[1]
                        + np.cos(np.pi * sigma)[:, None] * a[2])
            tf = (1.0 + TF_SCALE * float(rng.standard_normal())
                  if problem.tf_free else None)
            inputs.append(SolveInput(spec, controls, tf))
    return inputs


@dataclass
class SolveOutcome:
    """What one solve produced, reduced to what the benchmark checks."""

    label: str
    fingerprint: str = ""
    e_J: float = float("nan")
    e_u: float = float("nan")
    e_x: float = float("nan")
    residual_max: float = float("nan")
    failures: List[str] = field(default_factory=list)


def fingerprint(history) -> str:
    """Digest of every snapshot's numbers, for the bit-identity check."""
    digest = hashlib.sha256(history.termination_reason.encode())
    for snap in history.snapshots:
        res = snap.residuals
        scalars = [snap.tau, snap.J, snap.tf, res.optimality_inf,
                   res.constraint_inf,
                   -1.0 if res.transversality is None else res.transversality]
        for arr in (np.array(scalars), snap.times, snap.controls, snap.states,
                    snap.costates, np.zeros(0) if snap.pi is None else snap.pi):
            digest.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return digest.hexdigest()


def _finite(history) -> bool:
    last = history.final
    arrays = [last.controls, last.states, last.costates,
              np.array([last.J, last.tf, last.residuals.max()])]
    if last.pi is not None:
        arrays.append(last.pi)
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


def gate(spec: SolveSpec, history, report) -> List[str]:
    """Tolerance misses of one solve; empty when it is accurate enough."""
    if not _finite(history):
        return ["non-finite output"]
    last = history.final
    e_u, e_x = float(np.max(report.e_u)), float(np.max(report.e_x))
    miss = last.residuals.constraint_inf
    if spec.method == "second":
        checks = [("e_J", report.e_J, COUPLED_ERR_TOL),
                  ("e_u", e_u, COUPLED_ERR_TOL),
                  ("e_x", e_x, COUPLED_ERR_TOL),
                  ("terminal miss", miss, COUPLED_MISS_TOL)]
    elif spec.problem == DI:
        checks = [("|J-3.25|", abs(last.J - C1_J), C1_J_TOL),
                  ("e_u", e_u, C1_EU_TOL),
                  ("|x(tf)|", float(np.max(np.abs(last.states[-1]))), C1_MISS_TOL)]
    else:
        checks = [("|tf-0.8165|", abs(last.tf - C4_TF), C4_TF_TOL),
                  ("|pi-pi_ref|", float(np.max(np.abs(last.pi - C4_PI))), C4_PI_TOL),
                  ("e_x", e_x, C4_EX_TOL),
                  ("terminal miss", miss, C4_MISS_TOL)]
    found = [f"{name}={value:.3e} > {tol:g}" for name, value, tol in checks
             if not value <= tol]
    if (spec.method, spec.problem) == ("third", BR) and not (
            history.snapshots[1].tf < history.snapshots[0].tf):
        found.append("tf does not decline initially")
    return found


def solve(vem_driver, benchmarks, item: SolveInput):
    """Run one solve through the public entry point; returns
    (history, report)."""
    spec = item.spec
    return vem_driver.solve_benchmark(
        benchmarks[spec.problem], spec.method, n_nodes=spec.n_nodes,
        tau_end=TAU_END, early_stop=spec.early_stop,
        init_controls=item.init_controls, init_tf=item.init_tf)


def outcome(item: SolveInput, history, report) -> SolveOutcome:
    return SolveOutcome(
        label=item.spec.label,
        fingerprint=fingerprint(history),
        e_J=float(report.e_J),
        e_u=float(np.max(report.e_u)),
        e_x=float(np.max(report.e_x)),
        residual_max=float(report.residuals.max()),
        failures=gate(item.spec, history, report),
    )
