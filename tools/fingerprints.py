"""Print one line per benchmark solve: its workload, label and seed, the
digest of its snapshots (``fingerprint`` of ``perfbench/workloads.py``)
and its errors e_J, e_u and e_x.

    python tools/fingerprints.py [root]    # root defaults to this checkout

It solves every start of the three perfbench workloads at seeds 1 and 7,
the four acceptance runs (zero guess, default N, tau = 300, early stop
off) and the coupled method's modified mode at the acceptance settings
on both problems, with the package under ``root/src`` and the workload
definitions of ``root/perfbench``, which it imports and does not change.
Two checkouts print the same line for a solve exactly when that solve
gives the same bits, so the diff of their outputs names the solves that
moved and by how much their errors did.  BLAS runs on one thread, as in
the benchmark.
"""

import importlib.util
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

SEEDS = (1, 7)


def load_workloads(root: Path):
    """``perfbench/workloads.py`` of ``root``, imported by its path."""
    spec = importlib.util.spec_from_file_location(
        "workloads", root / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while they are built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def workload_starts(wl, benchmarks):
    """(workload name, seed, drawn start) of every start of the workloads
    ``wl`` at ``SEEDS``."""
    return [(name, seed, item) for name, workload in wl.WORKLOADS.items()
            for seed in SEEDS for item in wl.draw_inputs(workload, seed, benchmarks)]


def modified_solve(wl):
    """``wl.solve`` in the coupled method's modified mode."""
    def solve(driver, benchmarks, item):
        spec = item.spec
        return driver.solve_benchmark(
            benchmarks[spec.problem], spec.method, n_nodes=spec.n_nodes,
            tau_end=wl.TAU_END, early_stop=spec.early_stop, mode="modified")

    return solve


def main(argv) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    sys.path.insert(0, str(root / "src"))
    from vem import driver, get_benchmark

    wl = load_workloads(root)
    benchmarks = {name: get_benchmark(name) for name in (wl.DI, wl.BR)}
    runs = [(*run, wl.solve) for run in workload_starts(wl, benchmarks)]
    runs += [("acceptance", "-", wl.SolveInput(spec, None, None), wl.solve)
             for spec, _, _ in wl.BASELINE]
    runs += [("modified", "-", wl.SolveInput(spec, None, None), modified_solve(wl))
             for spec, _, _ in wl.BASELINE if spec.method == "second"]
    for name, seed, item, solve in runs:
        head = f"{name} {item.spec.label} seed={seed}"
        try:
            result = wl.outcome(item, *solve(driver, benchmarks, item))
        except Exception as exc:  # a failed solve is a line of its own
            print(f"{head} failed {type(exc).__name__}: {exc}")
            continue
        print(f"{head} {result.fingerprint} e_J={result.e_J:.6e} "
              f"e_u={result.e_u:.6e} e_x={result.e_x:.6e}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
