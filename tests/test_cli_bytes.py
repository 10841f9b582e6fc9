"""Byte-identity gate for the answering verbs `poincare`, `fvector` and `euler`.

tests/data/cli_bytes.json holds the sha256 of the stdout and the exit code
of every command in GRID below, in each of the json, csv and text formats.
The grid covers every --method, the G(4,2,3) note, the reducible D n=3
case of both `fvector` and `euler`, the one-node A n=2 tubing graph, the
cell-count oracle at B n=6 and D n=4, and `euler --type A --n 9` and
`euler --type B --n 13`, which lie beyond it.  Any change to what these
verbs print fails here.  To refreeze after an intended change to the output:

    PYTHONPATH=src python3 tests/test_cli_bytes.py > tests/data/cli_bytes.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import wondermodels.cli as cli

FROZEN = Path(__file__).resolve().parent / "data" / "cli_bytes.json"
FORMATS = ("json", "csv", "text")
GRID = tuple(
    [f"poincare --r {r} --p {p} --n {n} --method {m}"
     for r, p, n in ((1, 1, 4), (2, 1, 3), (2, 2, 3), (4, 2, 3))
     for m in ("series", "bruteforce", "both")]
    + [f"fvector --type {t} --n {n} --method {m}"
       for t, n in (("A", 2), ("A", 4), ("B", 3), ("D", 3), ("D", 4))
       for m in ("series", "tubings", "both")]
    + [f"euler --type {t} --n {n}"
       for t, n in (("A", 3), ("A", 9), ("B", 3), ("B", 6), ("B", 13), ("D", 3),
                    ("D", 4))]
)


def cli_digest(command: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(command.split())
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def all_digests() -> dict:
    return {f"{command} --format {fmt}": cli_digest(f"{command} --format {fmt}")
            for command in GRID for fmt in FORMATS}


def test_cli_output_matches_frozen_digests():
    frozen = json.loads(FROZEN.read_text())
    assert len(frozen) == len(GRID) * len(FORMATS)
    assert all_digests() == frozen


if __name__ == "__main__":
    json.dump(all_digests(), sys.stdout, indent=1, sort_keys=True)
    print()
