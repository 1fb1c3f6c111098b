"""One benchmark process: set up, run timed passes, check every solve.

Started by run.py in a fresh interpreter with single-threaded BLAS.
Prints one JSON object on its last stdout line.

Modes:
  --mode setup   import, build the workload and assemble the first solve,
                 then print the monotonic clock and exit (a set-up sample);
  --mode solve   untraced passes for --seconds;
  --mode trace   untraced passes for half of --seconds, then traced passes
                 for the other half, then the baseline cross-check.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import reference
import tracing
import workloads as wl

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "solve", "trace"))
    parser.add_argument("--deadline", type=float, required=True,
                        help="monotonic time by which no new pass may start")
    return parser.parse_args(argv)


def run_passes(vem_driver, benchmarks, inputs, seconds, deadline, min_passes,
               tracer=None):
    """Repeat the pass until ``seconds`` have gone by.  Returns the raw
    pass times, the pass times scaled to the nominal machine speed (by the
    mean of the reference-kernel times just before and just after the
    pass), the outcomes of every pass, and per-pass layer metrics."""
    times, scaled, passes, layers = [], [], [], []
    start = time.perf_counter()
    ref_before = reference.timed()
    while len(times) < min_passes or time.perf_counter() - start < seconds:
        if times and time.monotonic() > deadline:
            break
        if tracer is not None:
            tracer.reset()
        results = []
        t0 = time.perf_counter()
        for item in inputs:
            try:
                results.append(wl.solve(vem_driver, benchmarks, item))
            except Exception as exc:  # a failed solve is counted, not fatal
                results.append(exc)
        elapsed = time.perf_counter() - t0
        ref_after = reference.timed()
        times.append(elapsed)
        scaled.append(elapsed * reference.NOMINAL_S * 2.0 / (ref_before + ref_after))
        ref_before = ref_after
        if tracer is not None:
            layers.append(tracing.pass_metrics(tracer, elapsed))
        outcomes = []
        for item, result in zip(inputs, results):
            if isinstance(result, Exception):
                outcomes.append(wl.SolveOutcome(
                    item.spec.label, failures=[f"{type(result).__name__}: {result}"]))
            else:
                outcomes.append(wl.outcome(item, *result))
        passes.append(outcomes)
    return times, scaled, passes, layers


def check_identical(passes) -> None:
    """Flag every solve whose output differs from the first pass's."""
    first = passes[0]
    for outcomes in passes[1:]:
        for ref, out in zip(first, outcomes):
            if out.fingerprint != ref.fingerprint:
                out.failures.append("output differs from the first pass")


def baseline_crosscheck(vem_driver, benchmarks, tracer):
    """Solve the four acceptance runs traced and compare dimensions and
    tau-RHS counts with the known baseline.  Returns the failures of each
    solve and the largest cond(M) each solve met."""
    failures, cond = {}, {}
    for spec, dim, rhs in wl.BASELINE:
        tracer.reset()
        try:
            history, report = wl.solve(vem_driver, benchmarks,
                                       wl.SolveInput(spec, None, None))
        except Exception as exc:  # reported as a failed cross-check
            found = [f"{type(exc).__name__}: {exc}"]
        else:
            found = wl.gate(spec, history, report)
            got_rhs = tracing.evolve_rhs_calls(tracer)
            if (report.ivp_dimension, got_rhs) != (dim, rhs):
                found.append(f"dimension {report.ivp_dimension} (want {dim}), "
                             f"tau-RHS calls {got_rhs} (want {rhs})")
        failures[spec.label] = found
        cond[f"baseline.{spec.problem}.{spec.method}.cond_max"] = max(tracer.cond, default=0.0)
    return failures, cond


def main(argv=None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:
        if os.environ.get(var) != "1":
            print(f"worker: {var} must be 1", file=sys.stderr)
            return 2
    sys.path.insert(0, str(Path(args.root) / "src"))
    import numpy
    import scipy
    import vem
    from vem import driver as vem_driver

    workload = wl.WORKLOADS[args.workload]
    names = {spec.problem for spec in workload.solves}
    if args.mode == "trace":
        names |= {spec.problem for spec, _, _ in wl.BASELINE}
    benchmarks = {name: vem.get_benchmark(name) for name in sorted(names)}
    inputs = wl.draw_inputs(workload, args.seed, benchmarks)
    first = inputs[0]
    bench = benchmarks[first.spec.problem]
    vem.assemble_ivp(bench.problem, first.spec.method, first.spec.n_nodes,
                     bench.gains, init_controls=first.init_controls,
                     init_tf=first.init_tf)
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    result = {"ready": ready, "solves_per_pass": len(inputs),
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__, "scipy": scipy.__version__}}
    if args.mode == "solve":
        times, scaled, passes, _ = run_passes(vem_driver, benchmarks, inputs,
                                              args.seconds, args.deadline, min_passes=2)
    else:
        half = args.seconds / 2.0
        times, scaled, passes, _ = run_passes(vem_driver, benchmarks, inputs, half,
                                              args.deadline, min_passes=1)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = {name: tracer.traced_benchmark(b) for name, b in benchmarks.items()}
        traced_times, traced_scaled, traced_passes, layers = run_passes(
            vem_driver, traced, inputs, half, args.deadline, min_passes=1,
            tracer=tracer)
        passes += traced_passes
        crosscheck, cond = baseline_crosscheck(vem_driver, traced, tracer)
        metrics = tracing.median_metrics(layers)
        metrics.update(cond)
        metrics["trace.overhead_ratio"] = (statistics.median(traced_scaled)
                                           / statistics.median(scaled))
        result.update(layers=metrics, traced_times=traced_times,
                      crosscheck=crosscheck)

    check_identical(passes)
    result["times"] = times
    result["scaled"] = scaled
    result["outcomes"] = [[vars(o) for o in outcomes] for outcomes in passes]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
