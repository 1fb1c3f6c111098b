"""Print one line per benchmark solve: its workload, label and seed, the
digest of its snapshots (``fingerprint`` of ``perfbench/workloads.py``)
and its errors e_J, e_u and e_x.

    python tools/fingerprints.py [root]    # root defaults to this checkout

It solves every start of the three perfbench workloads at seeds 1 and 7,
the four acceptance runs (zero guess, default N, tau = 300, early stop
off), the coupled method's modified mode at the acceptance settings on
both problems and its feasible mode at those settings from the
reference controls (and, on a free horizon, the reference horizon), a
start that meets the terminal constraint, and both methods at the
acceptance settings on the double integrator given only the row forms of
f and L, so that every per-node derivative is derived, with the package under
``root/src`` and the workload definitions of ``root/perfbench``, which
it imports and does not change.
Two checkouts print the same line for a solve exactly when that solve
gives the same bits, so the diff of their outputs names the solves that
moved and by how much their errors did.  BLAS runs on one thread, as in
the benchmark.
"""

import dataclasses
import importlib.util
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the BLAS thread settings)

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


def mode_solve(wl, mode):
    """``wl.solve`` in one of the coupled method's modes."""
    def solve(driver, benchmarks, item):
        spec = item.spec
        return driver.solve_benchmark(
            benchmarks[spec.problem], spec.method, n_nodes=spec.n_nodes,
            tau_end=wl.TAU_END, early_stop=spec.early_stop, mode=mode,
            init_controls=item.init_controls, init_tf=item.init_tf)

    return solve


def reference_start(driver, bench, n_nodes):
    """The reference controls at the nodes of the grid over the reference
    horizon, and that horizon when it is free."""
    ref, problem = bench.reference, bench.problem
    times = driver.TimeGrid(n_nodes, problem.t0, ref.tf).times
    controls = np.stack([np.atleast_1d(ref.control(t)) for t in times])
    return controls, ref.tf if problem.tf_free else None


def rows_only(bench):
    """``bench`` with its problem given only the row forms of f and L."""
    return dataclasses.replace(bench, problem=dataclasses.replace(
        bench.problem, jac_fx_rows=None, jac_fu_rows=None, grad_lx_rows=None,
        grad_lu_rows=None))


def main(argv) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    sys.path.insert(0, str(root / "src"))
    from vem import driver, get_benchmark

    wl = load_workloads(root)
    benchmarks = {name: get_benchmark(name) for name in (wl.DI, wl.BR)}
    runs = [(*run, wl.solve) for run in workload_starts(wl, benchmarks)]
    runs += [("acceptance", "-", wl.SolveInput(spec, None, None), wl.solve)
             for spec, _, _ in wl.BASELINE]
    coupled = [spec for spec, _, _ in wl.BASELINE if spec.method == "second"]
    runs += [("modified", "-", wl.SolveInput(spec, None, None),
              mode_solve(wl, "modified")) for spec in coupled]
    runs += [("feasible", "-", wl.SolveInput(spec, *reference_start(
        driver, benchmarks[spec.problem], spec.n_nodes)), mode_solve(wl, "feasible"))
             for spec in coupled]
    derived = {wl.DI: rows_only(benchmarks[wl.DI])}
    runs += [("derived", "-", wl.SolveInput(spec, None, None),
              lambda driver, _, item: wl.solve(driver, derived, item))
             for spec, _, _ in wl.BASELINE if spec.problem == wl.DI]
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
