"""Spans and counters around the public calls of each vem module.

Nothing in vem is edited: every wrapper replaces a name where its caller
looks it up (``vem.driver.transition_stack``, the third-module functions
that ``vem.second`` imports by name, ``vem.third.solve_dense``, and so
on), so the wrapped program runs the same arithmetic in the same order.
The patches last for the life of the process.

Frequent small calls (spline and dense-output evaluations, problem
callbacks) get counters instead of spans.  Spans are kept in memory as
``[name, start, end, parent]`` and reduced once per pass.
"""

from __future__ import annotations

import dataclasses
import statistics
from collections import Counter, defaultdict
from time import perf_counter

CALLBACKS = ("dynamics", "jac_fx", "jac_fu", "running_cost", "grad_lx",
             "grad_lu", "terminal_cost", "grad_phix", "dphi_dt", "hess_phixx",
             "dphi_dxdt", "constraint", "jac_gx", "dg_dt")

_THIRD_NAMES = ("control_gradient", "multiplier_matrix", "multiplier_rhs",
                "solve_multipliers", "control_rhs", "tf_rhs",
                "optimality_residuals", "reconstruct_costates")
# Names vem.second imports from vem.third and calls under its own globals.
_THIRD_IN_SECOND = ("control_gradient", "control_rhs", "multiplier_matrix",
                    "multiplier_rhs", "solve_multipliers")


class Tracer:
    """In-memory spans plus named counters and accumulated seconds."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self._open = []
        self.counts = Counter()
        self.seconds = defaultdict(float)
        self.cond = []

    def reset(self) -> None:
        # In place: the installed wrappers hold these very objects.
        self.spans.clear()
        self._open.clear()
        self.counts.clear()
        self.seconds.clear()
        self.cond.clear()

    def span(self, name, fn):
        spans, open_ = self.spans, self._open

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                open_.pop()

        return wrapper

    def counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def timed(self, key, fn):
        counts, seconds = self.counts, self.seconds

        def wrapper(*args):
            counts[key] += 1
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                seconds[key] += perf_counter() - start

        return wrapper

    def rk45(self, fn):
        """Wrap ``rk45_integrate``: a run with ``on_step`` is the outer
        tau integration, every other run is an inner physical-time sweep.
        Accepted steps come from the returned path's ``hs``; rejected ones
        from the field-evaluation count (one at t0, one for the starting
        step guess, six per attempted step)."""
        runs = {"outer": self.span("rk45.outer", fn),
                "inner": self.span("rk45.inner", fn)}
        counts = self.counts

        def wrapper(field, y0, t_span, opts=None, on_step=None):
            kind = "outer" if on_step is not None else "inner"
            evals = [0]

            def counted_field(t, y):
                evals[0] += 1
                return field(t, y)

            path = runs[kind](counted_field, y0, t_span, opts, on_step=on_step)
            fixed = 1 + (opts is None or opts.initial_step is None)
            attempts, extra = divmod(evals[0] - fixed, 6)
            counts[f"rk45.{kind}_field_evals"] += evals[0]
            counts[f"rk45.{kind}_steps_accepted"] += len(path.hs)
            counts[f"rk45.{kind}_steps_rejected"] += attempts - len(path.hs)
            counts["rk45.unexplained_evals"] += extra
            return path

        return wrapper

    def dense_solve(self, fn):
        """Span around ``solve_dense`` that keeps the condition estimate
        its caller drops."""
        run = self.span("numerics.solve_dense", fn)
        cond = self.cond

        def wrapper(mat, rhs):
            sol, estimate = run(mat, rhs)
            cond.append(estimate)
            return sol, estimate

        return wrapper

    def traced_benchmark(self, bench):
        """The benchmark with every problem callback counted and timed."""
        problem = bench.problem
        wrapped = {name: self.timed(f"ocp.{name}", getattr(problem, name))
                   for name in CALLBACKS if getattr(problem, name) is not None}
        return dataclasses.replace(
            bench, problem=dataclasses.replace(problem, **wrapped))


def install(tracer: Tracer) -> None:
    """Patch every traced name in the imported vem package."""
    from vem import driver, numerics, rk45, second, third, trajectory

    def patch(module, attr, wrapper):
        setattr(module, attr, wrapper(getattr(module, attr)))

    def spans(module, prefix, names):
        for name in names:
            patch(module, name, lambda fn, name=name: tracer.span(f"{prefix}.{name}", fn))

    spans(driver, "driver", ("solve_benchmark", "assemble_ivp", "evolve",
                             "summarize", "propagate_with_cost", "path_cost"))
    spans(driver.EvolutionSystem, "driver", ("rhs", "residuals", "snapshot",
                                             "gradient_norm"))
    spans(driver, "trajectory", ("propagate_states", "transition_stack"))
    patch(trajectory, "_forward_stack",
          lambda fn: tracer.span("trajectory.forward_stack", fn))
    spans(third, "third", _THIRD_NAMES)
    spans(second, "third", _THIRD_IN_SECOND)
    spans(second, "second", ("state_rhs_second", "multiplier_second",
                             "tf_rhs_second"))
    create = second.SecondEqSnapshot.__dict__["create"].__func__
    second.SecondEqSnapshot.create = classmethod(
        tracer.span("second.snapshot_create", create))
    for module in (trajectory, second):
        patch(module, "spline_build",
              lambda fn: tracer.span("numerics.spline_build", fn))
    for module in (driver, trajectory, second):
        patch(module, "rk45_integrate", tracer.rk45)
    patch(third, "solve_dense", tracer.dense_solve)

    spline_eval = tracer.counted("numerics.spline_eval", numerics.SplineCoeffs.eval)
    numerics.SplineCoeffs.eval = numerics.SplineCoeffs.__call__ = spline_eval
    patch(numerics.SplineCoeffs, "derivative",
          lambda fn: tracer.counted("numerics.spline_eval", fn))
    path_eval = tracer.counted("rk45.path_eval", rk45.SolutionPath.eval)
    rk45.SolutionPath.eval = rk45.SolutionPath.__call__ = path_eval


def _reduce(tracer: Tracer):
    """Per span name: total seconds, calls and self seconds.  A span's
    self time is its duration minus what its child spans cover; children
    of one span run one after another, so their durations add up to the
    covered part."""
    total, calls, covered = defaultdict(float), Counter(), defaultdict(float)
    for name, start, end, parent in tracer.spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            covered[parent] += end - start
    own = defaultdict(float)
    for idx, (name, start, end, _) in enumerate(tracer.spans):
        own[name] += end - start - covered[idx]
    return total, calls, own


def pass_metrics(tracer: Tracer, pass_seconds: float) -> dict:
    """Per-layer metrics of one traced pass."""
    total, calls, own = _reduce(tracer)
    counts = tracer.counts
    third_s = sum(v for k, v in total.items() if k.startswith("third."))
    second_calls = sum(v for k, v in calls.items() if k.startswith("second."))
    outer_acc = counts["rk45.outer_steps_accepted"]
    outer_rej = counts["rk45.outer_steps_rejected"]
    rhs_calls = calls["driver.rhs"]
    out = {
        "trajectory.propagate_s": total["trajectory.propagate_states"],
        "trajectory.propagate_calls": calls["trajectory.propagate_states"],
        "trajectory.stack_s": total["trajectory.transition_stack"],
        "trajectory.stack_calls": calls["trajectory.transition_stack"],
        "trajectory.forward_s": total["trajectory.forward_stack"],
        "trajectory.forward_calls": calls["trajectory.forward_stack"],
        "second.state_rhs_s": total["second.state_rhs_second"],
        "second.multiplier_s": total["second.multiplier_second"],
        "second.calls": second_calls,
        "rk45.inner_runs": calls["rk45.inner"],
        "rk45.inner_s": total["rk45.inner"],
        "rk45.inner_share": total["rk45.inner"] / pass_seconds,
        "rk45.inner_steps_accepted": counts["rk45.inner_steps_accepted"],
        "rk45.inner_steps_rejected": counts["rk45.inner_steps_rejected"],
        "rk45.inner_field_evals": counts["rk45.inner_field_evals"],
        "rk45.path_eval_calls": counts["rk45.path_eval"],
        "rk45.outer_steps_accepted": outer_acc,
        "rk45.outer_steps_rejected": outer_rej,
        "rk45.outer_accept_ratio": outer_acc / max(outer_acc + outer_rej, 1),
        "rk45.outer_self_s": own["rk45.outer"],
        "numerics.spline_eval_calls": counts["numerics.spline_eval"],
        "numerics.spline_build_calls": calls["numerics.spline_build"],
        "numerics.spline_build_s": total["numerics.spline_build"],
        "numerics.solve_dense_calls": calls["numerics.solve_dense"],
        "numerics.cond_max": max(tracer.cond, default=0.0),
        "third.gradient_s": total["third.control_gradient"],
        "third.multiplier_s": (total["third.multiplier_matrix"]
                               + total["third.multiplier_rhs"]
                               + total["third.solve_multipliers"]),
        "third.control_rhs_s": total["third.control_rhs"],
        "third.residuals_s": total["third.optimality_residuals"],
        "third.share": third_s / pass_seconds,
        "ocp.callback_calls": sum(counts[f"ocp.{n}"] for n in CALLBACKS),
        "ocp.callback_s": sum(tracer.seconds[f"ocp.{n}"] for n in CALLBACKS),
        "driver.residuals_calls": calls["driver.residuals"],
        "driver.residuals_s": total["driver.residuals"],
        "driver.pipeline_per_rhs": calls["trajectory.transition_stack"] / max(rhs_calls, 1),
        "driver.rhs_calls": rhs_calls,
        "driver.rhs_ms": 1e3 * total["driver.rhs"] / max(rhs_calls, 1),
        "driver.rhs_self_s": own["driver.rhs"],
        "driver.snapshot_s": total["driver.snapshot"],
        "driver.assemble_s": total["driver.assemble_ivp"],
    }
    for name in CALLBACKS:
        out[f"ocp.callback_calls.{name}"] = counts[f"ocp.{name}"]
    if counts["rk45.unexplained_evals"]:
        raise RuntimeError("rk45 field evaluations do not match whole steps")
    return out


def median_metrics(per_pass) -> dict:
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}


def evolve_rhs_calls(tracer: Tracer) -> int:
    """RHS calls made inside ``evolve`` (the assemble probe excluded)."""
    spans = tracer.spans
    n = 0
    for name, _, _, parent in spans:
        if name != "driver.rhs":
            continue
        while parent >= 0 and spans[parent][0] != "driver.evolve":
            parent = spans[parent][3]
        n += parent >= 0
    return n
