#!/usr/bin/env python3
"""Freeze the expected stdout of every query of every benchmark pool.

    python3 bench/freeze.py

Writes bench/expected.json: for each query that some seed can draw, the
sha256 of its stdout (selftest timings removed).  Run it only at a commit
where both routes agree; it refuses to write when any query exits nonzero,
breaks an invariant of run.py, or, being a single-route enumeration query,
differs from the series route's answer.
"""

from __future__ import annotations

import json
import sys

import run


def other_route(argv: list[str]):
    """The series-route twin of a single-route enumeration query, if any."""
    for method in ("bruteforce", "tubings"):
        if method in argv:
            return [("series" if a == method else a) for a in argv]
    return None


def main() -> int:
    cli = run.load_package()["cli"]
    pools = json.loads((run.BENCH / "pools.json").read_text())
    expected, problems, seen = {}, [], set()
    for name, pool in pools.items():
        for query in run.candidates(pool["queries"]):
            if query in seen:
                problems.append(f"{name}: {query} is in more than one slot")
            seen.add(query)
            argv = query.split()
            rc, out, err, _ = run.answer(cli, argv)
            expected[query] = run.digest(argv, out)
            problem = run.problem_with(argv, rc, out, err, expected)
            if problem:
                problems.append(f"{query}: {problem}")
            twin = other_route(argv)
            if twin is not None:
                field = "fvector" if twin[0] == "fvector" else "poincare"
                rc, twin_out, _, _ = run.answer(cli, twin)
                if rc != 0 or json.loads(twin_out)[field] != json.loads(out)[field]:
                    problems.append(f"{query}: routes disagree ({twin_out.strip()})")
            print(f"froze {query}", file=sys.stderr)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    path = run.BENCH / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(expected)} digests to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
