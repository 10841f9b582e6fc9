#!/usr/bin/env python3
"""Benchmark of the wondermodels CLI: three workloads, checked answers,
end-to-end metrics untraced and per-layer metrics from a traced pass.

    python3 bench/run.py --workload series-deep --seed 1 --seconds 22 --trace 0

A workload's pool (bench/pools.json) is a list of slots.  A slot is either
one query, asked in every run, or a list of alternatives of about equal
cost, such as the same model for p = 1 and p = r; the seed picks one
alternative per slot and the order of the queries.  So two seeds ask
different inputs for about the same work, and no query repeats within a
run.  Load is a closed loop from one thread: each query is passed to
`wondermodels.cli.main(argv)` in this process after the previous one
returned, with stdout captured.

A query fails when it exits nonzero (a `mismatch` verdict exits 2), when its
stdout differs from the bytes frozen by bench/freeze.py, or when its answer
breaks an invariant checked here (palindromic Poincare polynomial of degree
dim, Euler relation of f-vectors, zero Euler characteristic in odd
dimension).

Set-up time is the wall time of a fresh interpreter importing
wondermodels.cli and building the parser.  One sample is taken before each
query, outside the query's timing, so the samples spread over the whole
run; with --trace 0, sampling then goes on until --seconds have passed
since the run began.  --seconds steers only this: the queries are always
answered once each.  The median sample is reported.

--trace 1 runs the untraced pass, then a traced pass with the wrappers of
bench/tracing.py installed, prints every metric by name and unit, writes the
spans to bench/out/, and reports the per-layer metrics.  The last stdout
line is always one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import LAYERS, QUERY, Tracer, install, layer_metrics, reached

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_CODE = ("import sys; sys.path.insert(0, {src!r}); "
              "from wondermodels import cli; cli.build_parser()")


def load_package() -> dict:
    """Import every wondermodels module from this checkout's src/."""
    if not (SRC / "wondermodels" / "cli.py").is_file():
        raise SystemExit(f"error: no wondermodels sources under {SRC}")
    sys.path.insert(0, str(SRC))
    package = {name: importlib.import_module(f"wondermodels.{name}") for name in LAYERS}
    if Path(package["cli"].__file__).resolve().parent != SRC / "wondermodels":
        raise SystemExit(f"error: imported {package['cli'].__file__}, not the checkout")
    return package


def draw(slots: list, seed: int) -> list[list[str]]:
    """One query per slot as an argv list, alternatives and order drawn from seed."""
    rng = random.Random(seed)
    queries = [slot if isinstance(slot, str) else rng.choice(slot) for slot in slots]
    rng.shuffle(queries)
    return [q.split() for q in queries]


def candidates(slots: list) -> list[str]:
    """Every query that some seed draws from slots."""
    return [q for slot in slots for q in ([slot] if isinstance(slot, str) else slot)]


_TIMING = re.compile(r'\[\d+\.\d+s')


def digest(argv: list[str], out: str) -> str:
    """sha256 of stdout, with the per-check timings of selftest removed."""
    if argv[0] == "selftest":
        out = _TIMING.sub("", out)
    return hashlib.sha256(out.encode()).hexdigest()


def invariant_problem(argv: list[str], out: str):
    """Why the answer breaks an independent invariant, or None."""
    if argv[0] not in ("poincare", "fvector", "euler") or "text" in argv:
        return None
    opts, answer = dict(zip(argv[1::2], argv[2::2])), json.loads(out)
    n = int(opts["--n"])
    if argv[0] == "poincare":
        coeffs = dict(map(tuple, answer["poincare"]))
        dim = n - 2 if int(opts.get("--r", 1)) == 1 else n - 1
        if max(coeffs) != dim:
            return f"degree {max(coeffs)} != dimension {dim}"
        if any(coeffs.get(k, 0) != coeffs.get(dim - k, 0) for k in range(dim + 1)):
            return "Poincare polynomial is not palindromic"
        return None
    family = opts["--type"]
    dim = n - 2 if family == "A" else n - 1
    if argv[0] == "fvector":
        fvec = answer["fvector"]
        if len(fvec) != dim + 1 or fvec[0] != 1:
            return f"f-vector {fvec} does not fit dimension {dim}"
        if sum((-1) ** (dim - k) * c for k, c in enumerate(fvec)) != 1:
            return f"f-vector {fvec} breaks the Euler relation"
        return None
    chi = answer["euler"]
    if dim % 2 and chi != 0:
        return f"Euler characteristic {chi} in odd dimension {dim}"
    return None


class Pass:
    """Times and failures of one pass over the drawn queries."""

    def __init__(self):
        self.times: list[float] = []
        self.failures: list[str] = []

    @property
    def wall(self) -> float:
        return sum(self.times)


def answer(cli, argv: list[str]):
    """(exit code, stdout, stderr, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as stop:
        rc = stop.code
    except Exception:  # a crashed query is a failed query; keep going
        rc = "crash"
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


def problem_with(argv: list[str], rc, out: str, err: str, expected: dict):
    """Why the answer to argv counts as failed, or None."""
    if rc != 0:
        return f"exit {rc}: {err.strip()[-300:]}"
    if expected.get(" ".join(argv)) != digest(argv, out):
        return "stdout differs from the frozen bytes"
    try:
        return invariant_problem(argv, out)
    except (ValueError, KeyError, IndexError) as bad:
        return f"unparsable answer: {bad!r}"


def run_pass(queries, expected: dict, package: dict, clear_cache, tracer=None,
             before=None) -> Pass:
    """Answer and check every query; call before() ahead of each, untimed.

    Each query starts as a fresh CLI process would: clear_cache empties the
    library's caches and the garbage collector starts from a clean heap, so
    no query's time depends on which queries the seed put before it.
    """
    cli, result = package["cli"], Pass()
    for qid, argv in enumerate(queries):
        if before is not None:
            before()
        clear_cache()
        gc.collect()
        if tracer is not None:
            tracer.query_id = qid
            frame = tracer.enter(True)
        rc, out, err, seconds = answer(cli, argv)
        if tracer is not None:
            tracer.leave(frame, QUERY)
            tracer.counts["cli.out_bytes"] += len(out.encode())
        result.times.append(seconds)
        problem = problem_with(argv, rc, out, err, expected)
        if problem:
            result.failures.append(f"{' '.join(argv)}: {problem}")
    return result


def setup_seconds() -> float:
    """Wall time of a fresh interpreter importing the CLI and building its parser."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", SETUP_CODE.format(src=str(SRC))],
                   check=True, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def machine() -> str:
    return (f"machine: nproc={os.cpu_count()} arch={platform.machine()} "
            f"python={platform.python_version()} optimize={sys.flags.optimize}")


def parse_args(pools: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(pools))
    parser.add_argument("--seed", type=int, default=None,
                        help="default: the workload's default_seed in pools.json")
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed is None:
        args.seed = pools[args.workload]["default_seed"]
    return args


def main() -> int:
    pools = json.loads((BENCH / "pools.json").read_text())
    args = parse_args(pools)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((BENCH / "expected.json").read_text())
    package = load_package()
    queries = draw(pools[args.workload]["queries"], args.seed)

    clear_cache = package["lattice"].building_set.cache_clear
    setup_seconds()  # not a sample: the first interpreter may write bytecode caches
    setup: list[float] = []
    began = time.perf_counter()
    plain = run_pass(queries, expected, package, clear_cache,
                     before=lambda: setup.append(setup_seconds()))
    while not args.trace and time.perf_counter() - began < args.seconds:
        setup.append(setup_seconds())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes, problems, layer = [plain], [], {}
    if args.trace:
        tracer = Tracer()
        install(tracer, package)
        traced = run_pass(queries, expected, package, clear_cache, tracer)
        passes.append(traced)
        problems += [f"entry point {key} never reached on {args.workload}"
                     for key in reached(tracer, args.workload)]
        checks = [name for name, _, _ in package["selftest"].CHECKS]
        layer = {"slowest_query_s": max(plain.times),
                 **layer_metrics(tracer, checks, traced.wall, plain.wall)}
        declared = [m["name"] for m in spec["per_layer"]]
        if sorted(layer) != sorted(declared):
            raise SystemExit("error: per-layer metrics differ from BENCHMARK.json: "
                             f"{sorted(set(layer) ^ set(declared))}")
        (BENCH / "out").mkdir(exist_ok=True)
        tracer.write_spans(BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl")

    attempted = sum(len(p.times) for p in passes)
    failures = [f for p in passes for f in p.failures] + problems
    failed = sum(len(p.failures) for p in passes)
    end_to_end = {"wall_s": plain.wall, "setup_s": statistics.median(setup),
                  "peak_rss_mb": peak_rss_mb}
    shown = {**end_to_end, "slowest_query_s": max(plain.times), **layer}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} queries={len(queries)} "
          f"setup_samples={len(setup)}")
    print(machine())
    print(f"failed_frac {failed / attempted} (failed {failed} of {attempted} attempted)")
    for name, value in shown.items():
        print(f"{name} {value} {units[name]}")
    reported = layer if args.trace else end_to_end
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in reported.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
