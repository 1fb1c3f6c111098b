"""vem benchmark: time to a solution of fixed accuracy, plus a traced split.

Run from the repository root:

    python3 perfbench/run.py --workload solve-third --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Each workload runs in one fresh single-threaded worker process that
solves its list back to back (a closed loop) until --seconds have been
measured, checks every solve against the workload's tolerance and
against the first pass bit for bit, and reports:

  --trace 0  solve_s (median pass time, each pass scaled to the nominal
             machine speed by the reference kernel timed around it; see
             reference.py), setup_s (median over set-up samples, each a
             fresh process from start to the first evolve call) and
             peak_rss_mb;
  --trace 1  per-layer spans and counters of traced passes, the tracing
             overhead, and a traced re-run of the four acceptance solves
             whose dimensions and tau-RHS counts must match the baseline.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 1 when any solve fails its check and
2 when the vem sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3           # fresh set-up processes besides the solving one
RUN_LIMIT_S = 170.0        # every run must end well inside 180 s
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}


def _worker(workload, seed, seconds, mode, run_end):
    """Run one worker process to completion; returns (result, start time).
    The worker starts no pass later than 40 s before ``run_end``, which
    leaves room for one pass and the baseline cross-check."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--mode", mode, "--deadline", repr(run_end - 40.0)]
    env = dict(os.environ, **THREADS)
    start = time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(run_end - start, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), start


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(versions) -> dict:
    lines = sum(len(p.read_text().splitlines())
                for p in sorted((ROOT / "src" / "vem").glob("*.py")))
    return {**versions, "cpu": _cpu_model(), "nproc": os.cpu_count(),
            "git": _git_revision(), "src_vem_lines": lines, **THREADS}


def _spread(values) -> str:
    return (f"median {statistics.median(values):.4g}, min {min(values):.4g}, "
            f"max {max(values):.4g}, n={len(values)}")


def _tally(result):
    """(attempted, failed, messages) over every solve of the run."""
    attempted = failed = 0
    messages = []
    for index, outcomes in enumerate(result["outcomes"]):
        for out in outcomes:
            attempted += 1
            if out["failures"]:
                failed += 1
                messages.append(f"pass {index} {out['label']}: "
                                + "; ".join(out["failures"]))
    for label, found in result.get("crosscheck", {}).items():
        attempted += 1
        if found:
            failed += 1
            messages.append(f"baseline {label}: " + "; ".join(found))
    return attempted, failed, messages


def run_workload(spec, workload, seed, seconds, trace) -> bool:
    run_end = time.monotonic() + RUN_LIMIT_S
    setup = []
    for _ in range(0 if trace else SETUP_PROBES):
        probe, start = _worker(workload, seed, seconds, "setup", run_end)
        setup.append(probe["ready"] - start)
    result, start = _worker(workload, seed, seconds,
                            "trace" if trace else "solve", run_end)
    setup.append(result["ready"] - start)

    attempted, failed, messages = _tally(result)
    first = result["outcomes"][0]
    print(f"# workload {workload} seed {seed} seconds {seconds:g} trace {int(trace)}")
    print("# meta " + json.dumps(metadata(result["versions"]), sort_keys=True))
    for out in first:
        print(f"# solve {out['label']}: e_J {out['e_J']:.3e}, e_u {out['e_u']:.3e}, "
              f"e_x {out['e_x']:.3e}, residual_max {out['residual_max']:.3e}")
    for message in messages:
        print(f"# FAILED {message}")
    accuracy = {key: max(out[key] for out in first)
                for key in ("e_J", "e_u", "e_x", "residual_max")}
    print(f"# error_frac {failed / attempted:.4g} ({failed} of {attempted} solves)")
    for key, value in accuracy.items():
        print(f"# {key} {value:.4g} (largest over {len(first)} solves)")

    if trace:
        values = dict(result["layers"])
        values.update({f"solution.{k}": v for k, v in accuracy.items()})
        print(f"# untraced pass s: {_spread(result['times'])}")
        print(f"# traced pass s: {_spread(result['traced_times'])}")
        report = _declared(values, spec["per_layer"])
        for name, entry in report.items():
            print(f"# {name} {entry['value']:.6g} {entry['unit']}")
    else:
        values = {"solve_s": statistics.median(result["scaled"]),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": result["peak_rss_mb"]}
        report = _declared(values, spec["end_to_end"])
        print(f"# solve_s s: {_spread(result['scaled'])} "
              f"({result['solves_per_pass']} solves per pass)")
        print(f"# raw pass wall time s: {_spread(result['times'])}")
        print(f"# setup_s s: {_spread(setup)}")
        print(f"# peak_rss_mb MB: {result['peak_rss_mb']:.4g} (n=1)")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": report}))
    return correct


def _declared(values, declared) -> dict:
    """The measured values under the names and units BENCHMARK.json
    declares; a metric measured but not declared, or the reverse, is a
    fault of the benchmark itself."""
    names = [entry["name"] for entry in declared]
    if set(names) != set(values):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(names) ^ set(values))}")
    return {entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
            for entry in declared}


def main(argv=None) -> int:
    if not (ROOT / "src" / "vem" / "__init__.py").is_file():
        print(f"vem sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        ok = run_workload(spec, name, args.seed, args.seconds, bool(args.trace)) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
