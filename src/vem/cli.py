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

from .driver import solve_benchmark
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


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _default_outdir() -> str:
    return os.environ.get(_ENV_OUTDIR, ".")


def _gains_from_args(bench, args) -> GainSet:
    # np.diag places the value without multiplying the zeros off the
    # diagonal, so inf or nan reaches GainSet's finiteness check silently.
    base = bench.gains
    k = base.K if args.gain_k is None else np.diag(np.full(bench.problem.m, args.gain_k))
    kg = base.K_g
    if args.gain_kg is not None and bench.problem.q > 0:
        kg = np.diag(np.full(bench.problem.q, args.gain_kg))
    ktf = base.k_tf if args.gain_ktf is None else args.gain_ktf
    return GainSet(K=k, K_g=kg, k_tf=ktf, K_x0=base.K_x0, K_f=base.K_f)


def _opts_from_args(args) -> IntegratorOptions:
    return IntegratorOptions(rtol=args.rtol, atol=args.atol)


def _parse_snapshots(text):
    if text is None:
        return None
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _residuals_dict(res):
    return {
        "optimality_inf": res.optimality_inf,
        "constraint_inf": res.constraint_inf,
        "transversality": res.transversality,
    }


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


def _write_history_json(path: Path, history):
    payload = {
        "tau": [s.tau for s in history.snapshots],
        "J": [s.J for s in history.snapshots],
        "tf": [s.tf for s in history.snapshots],
        "pi": [None if s.pi is None else list(s.pi) for s in history.snapshots],
        "residual_optimality": [s.residuals.optimality_inf for s in history.snapshots],
        "residual_constraint": [s.residuals.constraint_inf for s in history.snapshots],
        "residual_transversality": [s.residuals.transversality for s in history.snapshots],
        "termination_reason": history.termination_reason,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_report_json(path: Path, report):
    payload = {
        "problem": report.problem,
        "method": report.method,
        "ivp_dimension": report.ivp_dimension,
        "J": report.J,
        "tf": report.tf,
        "pi": None if report.pi is None else list(report.pi),
        "residuals": _residuals_dict(report.residuals),
        "termination_reason": report.termination_reason,
        "e_J": report.e_J,
        "e_u": None if report.e_u is None else list(report.e_u),
        "e_x": None if report.e_x is None else list(report.e_x),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _run_one(args, problem_name: str, method: str):
    bench = get_benchmark(problem_name)
    gains = _gains_from_args(bench, args)
    history, report = solve_benchmark(
        bench, method,
        n_nodes=args.nodes,
        tau_end=args.tau_end,
        gains=gains,
        opts=_opts_from_args(args),
        snapshot_taus=_parse_snapshots(args.snapshots),
        early_stop=not args.no_early_stop,
        mode=args.mode.replace("-", "_"),
    )
    return bench, history, report


def cmd_solve(args) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        bench, history, report = _run_one(args, args.problem, args.method)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except np.linalg.LinAlgError:
        raise   # a ValueError too, but a solver fault, not a bad option
    except ValueError as exc:
        print(f"invalid run option: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StepFailure as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return EXIT_STEP_FAILURE
    except TfCollapse as exc:
        print(f"terminal time collapsed: {exc}", file=sys.stderr)
        return EXIT_TF_COLLAPSE
    except SingularSystem as exc:
        print(f"singular system: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except VemError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    _write_trajectory_csv(outdir / "trajectory.csv", history,
                          bench.problem.n, bench.problem.m)
    _write_history_json(outdir / "history.json", history)
    _write_report_json(outdir / "report.json", report)
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
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    rows = []
    failures = 0
    max_n = 0
    for problem_name, method in combos:
        try:
            bench, history, report = _run_one(args, problem_name, method)
        except np.linalg.LinAlgError:
            raise
        except ValueError as exc:
            print(f"invalid run option: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except (VemError, KeyError) as exc:
            failures += 1
            rows.append({"problem": problem_name, "method": method,
                         "error": f"{type(exc).__name__}: {exc}"})
            continue
        max_n = max(max_n, bench.problem.n)
        rows.append({
            "problem": problem_name,
            "method": method,
            "ivp_dimension": report.ivp_dimension,
            "wall_seconds": report.wall_seconds,
            "e_J": report.e_J,
            "e_u": float(np.max(report.e_u)) if report.e_u is not None else None,
            "e_x": list(report.e_x) if report.e_x is not None else None,
        })

    cols = (["problem", "method", "ivp_dimension", "wall_seconds", "e_J", "e_u"]
            + [f"e_x{i+1}" for i in range(max_n)])
    lines = [",".join(cols)]
    for row in rows:
        if "error" in row:
            lines.append(f"{row['problem']},{row['method']},error: {row['error']}"
                         + "," * (len(cols) - 3))
            continue
        e_x = row["e_x"] or []
        cells = [row["problem"], row["method"], str(row["ivp_dimension"]),
                 _fmt(row["wall_seconds"]),
                 _fmt(row["e_J"]) if row["e_J"] is not None else "",
                 _fmt(row["e_u"]) if row["e_u"] is not None else ""]
        cells += [_fmt(v) for v in e_x] + [""] * (max_n - len(e_x))
        lines.append(",".join(cells))
    (outdir / "comparison.csv").write_text("\n".join(lines) + "\n",
                                           encoding="utf-8")

    header = (f"{'problem':<20}{'method':<8}{'dim':>5}{'wall[s]':>9}"
              f"{'e_J':>12}{'e_u':>12}{'e_x (per state)':>24}")
    print(header)
    for row in rows:
        if "error" in row:
            print(f"{row['problem']:<20}{row['method']:<8} {row['error']}")
            continue
        e_x = " ".join(f"{v:.3e}" for v in (row["e_x"] or []))
        print(f"{row['problem']:<20}{row['method']:<8}{row['ivp_dimension']:>5}"
              f"{row['wall_seconds']:>9.2f}{row['e_J']:>12.3e}"
              f"{row['e_u']:>12.3e}  {e_x}")
    print(f"wrote {outdir / 'comparison.csv'}")
    return EXIT_OK if failures == 0 else EXIT_SOLVER


def cmd_check(args) -> int:
    results = checks.run_suite(args.suite, seed=args.seed)
    failed = 0
    for name, ok, detail in results:
        print(f"[{'ok' if ok else 'FAIL'}] {name}: {detail}")
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def _add_run_options(parser):
    parser.add_argument("--nodes", type=int, default=None,
                        help="discretization nodes (default: per problem)")
    parser.add_argument("--tau-end", type=float, default=None,
                        help="evolution span (default: per problem)")
    parser.add_argument("--snapshots", type=str, default=None,
                        help="comma-separated snapshot times")
    parser.add_argument("--mode", choices=["feasible", "quasi-feasible", "modified"],
                        default="quasi-feasible",
                        help="coupled-method variant (ignored by 'third')")
    parser.add_argument("--gain-k", type=float, default=None,
                        help="scalar control gain override")
    parser.add_argument("--gain-kg", type=float, default=None,
                        help="scalar terminal-constraint gain override")
    parser.add_argument("--gain-ktf", type=float, default=None,
                        help="terminal-time gain override")
    parser.add_argument("--rtol", type=float, default=1e-3)
    parser.add_argument("--atol", type=float, default=1e-6)
    parser.add_argument("--no-early-stop", action="store_true",
                        help="always integrate to tau-end")
    parser.add_argument("--outdir", type=str, default=_default_outdir(),
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
    p_solve.add_argument("--method", choices=["second", "third"], default="third")
    _add_run_options(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_cmp = sub.add_parser("compare", help="tabulate several runs side by side")
    p_cmp.add_argument("--problems", nargs="+", required=True)
    p_cmp.add_argument("--methods", nargs="+", choices=["second", "third"],
                       default=["second", "third"])
    _add_run_options(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_chk = sub.add_parser("check", help="run the diagnostic suites")
    p_chk.add_argument("suite", choices=["derivatives", "invariants", "all"])
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
