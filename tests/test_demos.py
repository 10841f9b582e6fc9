"""Byte-identity gate for the demos.

tests/data/demos.json holds the sha256 of the stdout and the exit code of
every `demos/*.py`, each run in a fresh interpreter, plain and under -O.
Any change to what a demo prints fails here, also one that only moves a
formula a demo imports.  To refreeze after an intended change to a demo:

    PYTHONPATH=src python3 tests/test_demos.py > tests/data/demos.json
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FROZEN = ROOT / "tests" / "data" / "demos.json"
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))
FLAGS = ((), ("-O",))


def demo_digest(name: str, flags: tuple[str, ...]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run([sys.executable, *flags, str(ROOT / "demos" / name)],
                         capture_output=True, env=env, timeout=120)
    return {"exit": run.returncode, "sha256": hashlib.sha256(run.stdout).hexdigest()}


def key(name: str, flags: tuple[str, ...]) -> str:
    return " ".join((*flags, name))


def test_every_demo_is_frozen():
    assert sorted(json.loads(FROZEN.read_text())) == sorted(
        key(name, flags) for name in DEMOS for flags in FLAGS)


@pytest.mark.parametrize("flags", FLAGS, ids=["plain", "O"])
@pytest.mark.parametrize("name", DEMOS)
def test_demo_stdout_matches_frozen_digest(name, flags):
    assert demo_digest(name, flags) == json.loads(FROZEN.read_text())[key(name, flags)]


if __name__ == "__main__":
    json.dump({key(name, flags): demo_digest(name, flags)
               for name in DEMOS for flags in FLAGS}, sys.stdout, indent=1, sort_keys=True)
    print()
