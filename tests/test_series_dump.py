"""Byte-identity gate for `series-dump`.

tests/data/series_dump.json holds the sha256 of the stdout and the exit
code of `wondermodels series-dump NAME --r R --trunc T` for every series
name, T = 1..12 and R in {1, 2, 3}.  The digests were taken from the
Fraction kernel before the integer rewrite, so any change to the exact
coefficients of any series fails here.  To refreeze after an intended
change to a series:

    PYTHONPATH=src python3 tests/test_series_dump.py > tests/data/series_dump.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

import wondermodels.cli as cli

FROZEN = Path(__file__).resolve().parent / "data" / "series_dump.json"
RS = (1, 2, 3)
TRUNCS = range(1, cli.DUMP_TRUNC_GUARD + 1)


def dump_digest(name: str, r: int, trunc: int) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["series-dump", name, "--r", str(r), "--trunc", str(trunc)])
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def all_digests() -> dict:
    return {f"{name} --r {r} --trunc {trunc}": dump_digest(name, r, trunc)
            for name in sorted(cli.SERIES_REGISTRY) for r in RS for trunc in TRUNCS}


def test_series_dump_matches_frozen_digests():
    frozen = json.loads(FROZEN.read_text())
    assert len(frozen) == len(cli.SERIES_REGISTRY) * len(RS) * len(TRUNCS)
    assert all_digests() == frozen


@pytest.mark.parametrize("name", ["psi", "K", "gamma"])
def test_dumped_sources_keep_every_grade(name):
    # the z -> d/dt step builds these with a grade bound; series-dump prints
    # them whole, every grade t - z up to trunc
    for r in RS:
        for trunc in TRUNCS:
            s = cli.SERIES_REGISTRY[name](r, trunc)
            grades = {et - ez for et, sl in enumerate(s.slices) for _, ez, _ in sl}
            assert grades == set(range(min(grades), trunc + 1)), (r, trunc)


if __name__ == "__main__":
    json.dump(all_digests(), sys.stdout, indent=1, sort_keys=True)
    print()
