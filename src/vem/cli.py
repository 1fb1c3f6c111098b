"""Command-line front door: solve, compare, check.

Outputs are machine-readable: one CSV block per recorded snapshot with
node trajectories and reconstructed costates, a JSON history of the
evolution diagnostics, and a JSON report with the error metrics.  All
numeric output is deterministic for a fixed configuration; wall-clock
timing only appears in the comparison table.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .driver import METHODS, MODES, _check_nodes, _check_tau_end, solve_benchmark
from .errors import SingularSystem, StepFailure, TfCollapse, VemError
from .ocp import GainSet
from .problems import benchmark_names, get_benchmark
from .rk45 import IntegratorOptions
from . import checks

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_STEP_FAILURE = 3
EXIT_TF_COLLAPSE = 4
EXIT_SINGULAR = 5
EXIT_SOLVER = 6
EXIT_CHECK_FAILED = 1

_ENV_OUTDIR = "VEM_OUTPUT_DIR"


def _fmt(value, spec: str = ".17g") -> str:
    """``value`` formatted by ``spec``; blank for a missing value."""
    return "" if value is None else format(value, spec)


def _listed(values):
    return None if values is None else list(values)


def _gains_from_args(bench, args) -> GainSet:
    # np.diag places the value without multiplying the zeros off the
    # diagonal, so inf or nan reaches GainSet's finiteness check silently.
    base = bench.gains
    k = base.K if args.gain_k is None else np.diag(np.full(bench.problem.m, args.gain_k))
    kg = base.K_g
    if args.gain_kg is not None and bench.problem.q > 0:
        kg = np.diag(np.full(bench.problem.q, args.gain_kg))
    ktf = base.k_tf if args.gain_ktf is None else args.gain_ktf
    return GainSet(K=k, K_g=kg, k_tf=ktf)


def _parse_snapshots(text):
    if text is None:
        return None
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _write_trajectory_csv(path: Path, history, n, m):
    cols = (["tau", "t"] + [f"x{i+1}" for i in range(n)]
            + [f"u{i+1}" for i in range(m)] + [f"lambda{i+1}" for i in range(n)])
    lines = [",".join(cols)]
    for snap in history.snapshots:
        for k in range(len(snap.times)):
            row = ([_fmt(snap.tau), _fmt(snap.times[k])]
                   + [_fmt(v) for v in snap.states[k]]
                   + [_fmt(v) for v in snap.controls[k]]
                   + [_fmt(v) for v in snap.costates[k]])
            lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, payload):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _history_payload(history):
    snaps = history.snapshots
    return {
        "tau": [s.tau for s in snaps],
        "J": [s.J for s in snaps],
        "tf": [s.tf for s in snaps],
        "pi": [_listed(s.pi) for s in snaps],
        "residual_optimality": [s.residuals.optimality_inf for s in snaps],
        "residual_constraint": [s.residuals.constraint_inf for s in snaps],
        "residual_transversality": [s.residuals.transversality for s in snaps],
        "termination_reason": history.termination_reason,
    }


def _report_payload(report):
    res = report.residuals
    return {
        "problem": report.problem,
        "method": report.method,
        "ivp_dimension": report.ivp_dimension,
        "J": report.J,
        "tf": report.tf,
        "pi": _listed(report.pi),
        "residuals": {"optimality_inf": res.optimality_inf,
                      "constraint_inf": res.constraint_inf,
                      "transversality": res.transversality},
        "termination_reason": report.termination_reason,
        "e_J": report.e_J,
        "e_u": _listed(report.e_u),
        "e_x": _listed(report.e_x),
    }


def _run_options(args, bench) -> dict:
    """The ``solve_benchmark`` keywords of a run on ``bench``, every option
    checked in the order a solve checks them: a bad one raises ValueError
    here, before any solve starts."""
    options = dict(gains=_gains_from_args(bench, args),
                   opts=IntegratorOptions(rtol=args.rtol, atol=args.atol),
                   snapshot_taus=_parse_snapshots(args.snapshots),
                   early_stop=not args.no_early_stop, mode=args.mode.replace("-", "_"),
                   n_nodes=bench.default_nodes if args.nodes is None else args.nodes,
                   tau_end=bench.default_tau_end if args.tau_end is None else args.tau_end)
    _check_tau_end(options["tau_end"])
    _check_nodes(options["n_nodes"])
    return options


# How ``vem solve`` reports a failed run: the first row whose exception
# type matches gives the exit code and the prefix of the one stderr line.
_FAILURES = (
    (KeyError, EXIT_USAGE, ""),
    (ValueError, EXIT_USAGE, "invalid run option: "),
    (StepFailure, EXIT_STEP_FAILURE, "integration failed: "),
    (TfCollapse, EXIT_TF_COLLAPSE, "terminal time collapsed: "),
    (SingularSystem, EXIT_SINGULAR, "singular system: "),
    (VemError, EXIT_SOLVER, "solver error: "),
)


def cmd_solve(args) -> int:
    outdir = args.outdir
    try:
        bench = get_benchmark(args.problem)
        history, report = solve_benchmark(bench, args.method,
                                          **_run_options(args, bench))
    except np.linalg.LinAlgError:
        raise   # a ValueError too, but a solver fault, not a bad option
    except tuple(kind for kind, _, _ in _FAILURES) as exc:
        code, prefix = next((code, prefix) for kind, code, prefix in _FAILURES
                            if isinstance(exc, kind))
        print(f"{prefix}{exc}", file=sys.stderr)
        return code

    _write_trajectory_csv(outdir / "trajectory.csv", history,
                          bench.problem.n, bench.problem.m)
    _write_json(outdir / "history.json", _history_payload(history))
    _write_json(outdir / "report.json", _report_payload(report))
    last = history.final
    print(f"{args.problem} [{args.method}] tau={last.tau:g} J={last.J:.8g} "
          f"tf={last.tf:.8g} reason={history.termination_reason}")
    print(f"wrote {outdir / 'trajectory.csv'}, {outdir / 'history.json'}, "
          f"{outdir / 'report.json'}")
    return EXIT_OK


def cmd_compare(args) -> int:
    combos = [(p, m) for p in args.problems for m in args.methods]
    if len(combos) < 2:
        print("need >= 2 runs: give more than one problem/method combination",
              file=sys.stderr)
        return EXIT_USAGE
    # Every run's options are checked before the first solve: a bad one
    # ends the comparison with no run made.  Per problem, the benchmark
    # and its solve keywords, or the error text of an unknown name.
    prepared = {}
    for problem_name in args.problems:
        try:
            bench = get_benchmark(problem_name)
            prepared[problem_name] = (bench, _run_options(args, bench))
        except KeyError as exc:
            prepared[problem_name] = f"KeyError: {exc}"
        except ValueError as exc:
            print(f"invalid run option: {exc}", file=sys.stderr)
            return EXIT_USAGE

    # (problem, method, report or error text) per run; what one solve
    # raises, a failed start check too, is that run's error row.
    runs = []
    max_n = 0
    for problem_name, method in combos:
        outcome = prepared[problem_name]
        if not isinstance(outcome, str):
            bench, options = outcome
            try:
                _, outcome = solve_benchmark(bench, method, **options)
            except np.linalg.LinAlgError:
                raise
            except (VemError, KeyError, ValueError) as exc:
                outcome = f"{type(exc).__name__}: {exc}"
            else:
                max_n = max(max_n, bench.problem.n)
        runs.append((problem_name, method, outcome))

    cols = (["problem", "method", "ivp_dimension", "wall_seconds", "e_J", "e_u"]
            + [f"e_x{i+1}" for i in range(max_n)])
    lines = [",".join(cols)]
    print(f"{'problem':<20}{'method':<8}{'dim':>5}{'wall[s]':>9}"
          f"{'e_J':>12}{'e_u':>12}{'e_x (per state)':>24}")
    for problem_name, method, report in runs:
        if isinstance(report, str):
            lines.append(f"{problem_name},{method},error: {report}"
                         + "," * (len(cols) - 3))
            print(f"{problem_name:<20}{method:<8} {report}")
            continue
        e_u = None if report.e_u is None else float(np.max(report.e_u))
        e_x = [] if report.e_x is None else list(report.e_x)
        lines.append(",".join(
            [problem_name, method, str(report.ivp_dimension),
             _fmt(report.wall_seconds), _fmt(report.e_J), _fmt(e_u)]
            + [_fmt(v) for v in e_x] + [""] * (max_n - len(e_x))))
        print(f"{problem_name:<20}{method:<8}{report.ivp_dimension:>5}"
              f"{report.wall_seconds:>9.2f}{_fmt(report.e_J, '.3e'):>12}"
              f"{_fmt(e_u, '.3e'):>12}  " + " ".join(f"{v:.3e}" for v in e_x))
    (args.outdir / "comparison.csv").write_text("\n".join(lines) + "\n",
                                                encoding="utf-8")
    print(f"wrote {args.outdir / 'comparison.csv'}")
    failures = sum(isinstance(report, str) for _, _, report in runs)
    return EXIT_OK if failures == 0 else EXIT_SOLVER


def cmd_check(args) -> int:
    results = checks.run_suite(args.suite, seed=args.seed)
    failed = 0
    for name, ok, detail in results:
        print(f"[{'ok' if ok else 'FAIL'}] {name}: {detail}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def _seed(text: str) -> int:
    """A draw seed; numpy's generators take non-negative integers only."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {seed}")
    return seed


def _outdir(text: str) -> Path:
    """An output directory, made when missing: a path that cannot be one,
    such as an existing file, is a usage error before any solve."""
    try:
        Path(text).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot make directory {text!r}: {exc.strerror}")
    return Path(text)


def _add_run_options(parser):
    parser.add_argument("--nodes", type=int, default=None,
                        help="discretization nodes (default: per problem)")
    parser.add_argument("--tau-end", type=float, default=None,
                        help="evolution span (default: per problem)")
    parser.add_argument("--snapshots", type=str, default=None,
                        help="comma-separated snapshot times")
    parser.add_argument("--mode", choices=[mode.replace("_", "-") for mode in MODES],
                        default="quasi-feasible",
                        help="coupled-method variant (ignored by 'third')")
    parser.add_argument("--gain-k", type=float, default=None,
                        help="scalar control gain override")
    parser.add_argument("--gain-kg", type=float, default=None,
                        help="scalar terminal-constraint gain override")
    parser.add_argument("--gain-ktf", type=float, default=None,
                        help="terminal-time gain override")
    parser.add_argument("--rtol", type=float, default=IntegratorOptions.rtol)
    parser.add_argument("--atol", type=float, default=IntegratorOptions.atol)
    parser.add_argument("--no-early-stop", action="store_true",
                        help="always integrate to tau-end")
    parser.add_argument("--outdir", type=_outdir, default=os.environ.get(_ENV_OUTDIR, "."),
                        help=f"output directory (default: ${_ENV_OUTDIR} or '.')")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vem",
        description="Evolve discretized controls to the optimum of a "
                    "terminally constrained optimal control problem.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one problem/method combination")
    p_solve.add_argument("--problem", required=True,
                         help=f"one of {benchmark_names()} or a registered name")
    p_solve.add_argument("--method", choices=METHODS, default="third")
    _add_run_options(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_cmp = sub.add_parser("compare", help="tabulate several runs side by side")
    p_cmp.add_argument("--problems", nargs="+", required=True)
    p_cmp.add_argument("--methods", nargs="+", choices=METHODS,
                       default=list(METHODS))
    _add_run_options(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_chk = sub.add_parser("check", help="run the diagnostic suites")
    p_chk.add_argument("suite", choices=["derivatives", "invariants", "all"])
    p_chk.add_argument("--seed", type=_seed, default=0)
    p_chk.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
