"""Byte-identity gate for the series route at depth.

tests/data/series_deep.json holds the sha256 of the stdout and the exit
code of each series-only query in QUERIES.  The benchmark's frozen answers
stop at n = 28 for r = 1 and n = 17 for r >= 2, and those of
tests/data/cli_bytes.json at n = 4; these reach the sizes where the block
and prefactor slices of the series are long runs in q, so the product
kernel is checked where it does the most work.  To refreeze after an
intended change to the output:

    PYTHONPATH=src python3 tests/test_series_deep.py > tests/data/series_deep.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from test_cli_bytes import cli_digest

FROZEN = Path(__file__).resolve().parent / "data" / "series_deep.json"
QUERIES = (
    "poincare --n 40 --method series",
    "poincare --n 50 --method series",
    "poincare --n 70 --method series",
    "poincare --r 3 --n 30 --method series",
    "poincare --r 2 --p 2 --n 30 --method series",
    "poincare --r 2 --p 2 --n 40 --method series",
    "poincare --r 2 --n 40 --method series",
    "poincare --r 4 --p 4 --n 24 --method series",
    "fvector --type A --n 40 --method series",
    "fvector --type A --n 100 --method series",
    "fvector --type B --n 40 --method series",
    "fvector --type D --n 40 --method series",
    "fvector --type D --n 60 --method series",
    "fvector --type D --n 80 --method series",
    "euler --type A --n 60",
    "euler --type B --n 40",
    "euler --type B --n 150",
    "euler --type D --n 60",
)


def all_digests() -> dict:
    return {command: cli_digest(command) for command in QUERIES}


def test_series_deep_matches_frozen_digests():
    frozen = json.loads(FROZEN.read_text())
    assert sorted(frozen) == sorted(QUERIES)
    assert all_digests() == frozen


if __name__ == "__main__":
    json.dump(all_digests(), sys.stdout, indent=1, sort_keys=True)
    print()
