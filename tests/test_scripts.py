"""Smoke test of the experiment drivers in scripts/: each runs to the end,
none of the checks it prints comes out False, and it prints what it printed
when tests/data/cli_goldens.json was written (cli_goldens)."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from chordhom import cli

import cli_goldens

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def test_the_scripts_are_found():
    assert {
        "chekanov_distinction.py",
        "lefschetz_demo.py",
        "sphere_surgery.py",
        "unknot_tables.py",
    } <= {p.name for p in SCRIPTS}


def run_script(script: Path) -> subprocess.CompletedProcess:
    # the child imports chordhom from where this process found it
    package_root = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.mark.parametrize("script", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_script_runs_and_checks_hold(script):
    proc = run_script(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert not [line for line in proc.stdout.splitlines() if re.search(r"\bFalse\b", line)]
    golden = cli_goldens.load()["scripts"][script.name]
    assert cli_goldens.record(proc.returncode, proc.stdout) == golden, proc.stdout
