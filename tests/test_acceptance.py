"""Acceptance gate: one test per cross-validation check.

The checks live in wondermodels.selftest (the CLI selftest verb runs the
same list).  Each one confirms a closed-form route against an independent
enumeration or a frozen exact expansion, and enforces its wall-clock
budget; any deviation or overrun fails the corresponding test here.
The text the `selftest` verb prints, timings aside, is pinned to the digest
the benchmark holds for it, so no check's detail or budget changes unseen.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from wondermodels.cli import main
from wondermodels.selftest import CHECKS, run_checks

BENCH_EXPECTED = Path(__file__).resolve().parent.parent / "bench" / "expected.json"
# the per-check timings that bench/run.py's digest strips from selftest
TIMING = re.compile(r'\[\d+\.\d+s')


@pytest.mark.parametrize("name", [name for name, _, _ in CHECKS])
def test_acceptance(name):
    [result] = run_checks([name])
    print(result.line())
    assert result.ok, result.line()


def test_selftest_text_matches_the_frozen_digest(capsys):
    assert main(["selftest"]) == 0
    out = TIMING.sub("", capsys.readouterr().out)
    want = json.loads(BENCH_EXPECTED.read_text())["selftest"]
    assert hashlib.sha256(out.encode()).hexdigest() == want, out
