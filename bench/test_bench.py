"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

Each workload is cut to the smallest query of every kind that its pool can
draw (a kind is a query with its --n or --trunc value left out), which
reaches the same entry points as the full pool in a few seconds.  Each cut workload is
traced twice, each time in a fresh interpreter, and the test asserts that
every work counter repeats exactly, that every answer passes its checks, and
that every entry point meant for the workload is reached, so that a rename
in the library fails here instead of reading 0.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SEED = 7


def cut(queries: list[str]) -> list[str]:
    """The smallest query of each kind, in pool order."""
    smallest: dict[tuple, str] = {}
    for q in queries:
        argv = q.split()
        size = 0
        for flag in ("--n", "--trunc"):
            if flag in argv:
                at = argv.index(flag)
                size = int(argv[at + 1])
                argv = argv[:at] + argv[at + 2:]
        kind = tuple(argv)
        if kind not in smallest or size < smallest[kind][0]:
            smallest[kind] = (size, q)
    return [q for _, q in smallest.values()]


def traced(workload: str) -> dict:
    out = subprocess.run([sys.executable, __file__, workload], check=True,
                         capture_output=True, text=True, timeout=600).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("workload", ["series-deep", "enum-reach", "acceptance"])
def test_counters_repeat_and_entry_points_are_reached(workload):
    first, second = traced(workload), traced(workload)
    assert first["failures"] == []
    assert first["unreached"] == []
    assert first["counts"] == second["counts"]
    assert any(first["counts"].values())


def _traced_cut(workload: str) -> dict:
    sys.path.insert(0, str(BENCH))
    import run
    import tracing

    pools = json.loads((BENCH / "pools.json").read_text())
    expected = json.loads((BENCH / "expected.json").read_text())
    package = run.load_package()
    clear_cache = package["lattice"].building_set.cache_clear
    tracer = tracing.Tracer()
    tracing.install(tracer, package)
    queries = run.draw(cut(run.candidates(pools[workload]["queries"])), SEED)
    result = run.run_pass(queries, expected, package, clear_cache, tracer)
    checks = [name for name, _, _ in package["selftest"].CHECKS]
    metrics = tracing.layer_metrics(tracer, checks, result.wall, result.wall)
    counts = {k: v for k, v in metrics.items()
              if not (k.endswith("_s") or k.endswith(".s"))}
    return {"counts": counts, "failures": result.failures,
            "unreached": tracing.reached(tracer, workload)}


if __name__ == "__main__":
    print(json.dumps(_traced_cut(sys.argv[1])))
