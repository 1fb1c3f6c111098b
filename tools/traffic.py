"""Print, per module of the package, the executable lines that the real
traffic never runs.

    python tools/traffic.py [root]    # root defaults to this checkout

The traffic is what the CI workflow and the benchmark make the package
do: ``vem check all`` at seeds 0 and 1; the workflow's command-line
solves (coupled modified mode, and control-only at rtol 1e-8 and atol
1e-11, each on both problems to tau = 5) and its full two-method
``vem compare``; and every perfbench workload start at seeds 1 and 7,
drawn and solved as ``tools/fingerprints.py`` does, with the workload
definitions of ``root/perfbench/workloads.py``, which it imports and
does not change.

Lines are recorded by ``sys.settrace`` in frames of ``root/src/vem``
only, from before the package is imported, so its definitions count as
run.  A line is executable when a code object compiled from its module
maps an instruction to it (``co_lines``), so comments and the
docstrings of functions and classes are not.  Standard library only;
the output is informational, with no threshold.
"""

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

from fingerprints import load_workloads, workload_starts


def _executable(path: Path) -> set:
    """The line numbers that some code object of the module maps to."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def _tracer(package: Path):
    """A global trace function that records, per file, the lines run in
    frames under ``package``, and the record it fills."""
    prefix, ran = str(package) + os.sep, {}

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = ran.setdefault(filename, set())

        def on_line(frame, event, arg):
            lines.add(frame.f_lineno)
            return on_line

        return on_line(frame, event, arg)

    return on_call, ran


def _commands(outdir: str):
    """The ``vem`` command lines of the traffic."""
    commands = [["check", "all", "--seed", seed] for seed in ("0", "1")]
    for problem in ("double-integrator", "brachistochrone"):
        commands += [
            ["solve", "--problem", problem, "--method", "second", "--mode", "modified",
             "--tau-end", "5", "--outdir", f"{outdir}/modified-{problem}"],
            ["solve", "--problem", problem, "--method", "third", "--rtol", "1e-8",
             "--atol", "1e-11", "--tau-end", "5", "--outdir", f"{outdir}/refining-{problem}"]]
    return commands + [["compare", "--problems", "double-integrator", "brachistochrone",
                        "--no-early-stop", "--outdir", f"{outdir}/compare"]]


def _traffic(wl) -> None:
    from vem import driver, get_benchmark
    from vem.cli import main as vem

    with tempfile.TemporaryDirectory() as outdir, contextlib.redirect_stdout(io.StringIO()):
        for args in _commands(outdir):
            status = vem(args)
            if status != 0:
                raise SystemExit(f"vem {' '.join(args)} exited {status}")
        benchmarks = {name: get_benchmark(name) for name in (wl.DI, wl.BR)}
        for _, _, item in workload_starts(wl, benchmarks):
            wl.outcome(item, *wl.solve(driver, benchmarks, item))


def _ranges(lines) -> str:
    """Sorted line numbers as comma-separated runs, e.g. ``3-5, 9``."""
    runs = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    package = root / "src" / "vem"
    sys.path.insert(0, str(package.parent))
    wl = load_workloads(root)
    tracer, ran = _tracer(package)
    sys.settrace(tracer)
    try:
        _traffic(wl)
    finally:
        sys.settrace(None)
    never = total = 0
    for path in sorted(package.rglob("*.py")):
        executable = _executable(path)
        unrun = executable - ran.get(str(path), set())
        never, total = never + len(unrun), total + len(executable)
        print(f"{len(unrun):4d} of {len(executable):4d}  {path.relative_to(package)}"
              + (f": {_ranges(unrun)}" if unrun else ""))
    print(f"{never:4d} of {total:4d}  executable lines never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
