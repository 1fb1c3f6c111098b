"""The benchmark's tracer still finds every name it patches in vem.

``perfbench/tracing.py`` wraps vem's functions by looking each one up by
name; a renamed or deleted name makes ``install`` raise.  This runs the
tracer, untouched, in a fresh interpreter (its patches last for the life
of the process) on one short solve per method.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
from vem import driver, get_benchmark

tracer = tracing.Tracer()
tracing.install(tracer)
bench = tracer.traced_benchmark(get_benchmark("double-integrator"))
spans = {}
for method in ("third", "second"):
    tracer.reset()
    driver.solve_benchmark(bench, method, tau_end=1.0)
    tracing.pass_metrics(tracer, 1.0)
    spans[method] = sorted({span[0] for span in tracer.spans})
print(json.dumps(spans))
"""


def test_tracer_patches_resolve_and_trace_both_methods():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    spans = json.loads(done.stdout)
    for method in ("third", "second"):
        assert {"driver.rhs", "third.control_rhs", "third.multiplier_matrix",
                "numerics.solve_dense"} <= set(spans[method])
    assert {"second.multiplier_second", "second.state_rhs_second",
            "second.snapshot_create"} <= set(spans["second"])
