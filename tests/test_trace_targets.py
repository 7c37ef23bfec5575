"""The benchmark's tracer wraps chordhom functions by name: every hook it
names must still resolve, so that a rename fails here and not in a traced
benchmark run.  Likewise the benchmark's checker self-test must pass on the
current sources."""

import hashlib
import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
# sha256 of the output of perfbench/digest.py --seed 1
DIGEST_SEED_1 = "de8166f3d7e2c95b83550fa7aeebf7387b6e672f9f35c574ee46b3b3980cb3ce"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("modname,attr", [(t[0], t[1]) for t in tracing.TARGETS])
def test_function_targets_resolve(modname, attr):
    assert callable(getattr(importlib.import_module(f"chordhom.{modname}"), attr))


@pytest.mark.parametrize("modname,cls,method", [t[:3] for t in tracing.METHOD_TARGETS])
def test_method_targets_resolve(modname, cls, method):
    owner = getattr(importlib.import_module(f"chordhom.{modname}"), cls)
    assert callable(getattr(owner, method))


def test_counted_hooks_keep_their_signatures():
    from chordhom.algebra import ChordAlgebra
    from chordhom.complexes import cyclic_class
    from chordhom.dga import extend_leibniz
    from chordhom.homology import rank

    # the tracer counts rotation calls and unpacks the arguments of rank
    assert list(inspect.signature(ChordAlgebra.rotations).parameters) == ["self", "word"]
    assert list(inspect.signature(rank).parameters) == ["matrix", "nrows", "ncols"]
    assert list(inspect.signature(extend_leibniz).parameters) == ["dga", "x"]
    assert list(inspect.signature(cyclic_class).parameters) == ["algebra", "word"]


def test_benchmark_selftest_passes():
    # the self-test builds through the benchmark's own calls (the mutable
    # diffs view, builtin_ball_filling(n), lefschetz_dga's positional call)
    # and imports chordhom from ./src, so it runs from the repository root
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 checker(s) failed the self-test", proc.stdout


def test_benchmark_digest_runs_without_refusals():
    # the digest runs every operation of the benchmark's workloads and the
    # bundled examples through the benchmark's own calls, so a renamed or
    # re-signed call shows up as a refusal record; its bytes are pinned, so
    # a change that moves any invariant or matrix hash must update
    # DIGEST_SEED_1 and say why
    proc = subprocess.run(
        [sys.executable, "perfbench/digest.py", "--seed", "1"], cwd=ROOT, capture_output=True
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGEST_SEED_1

    def refusals(node):
        if isinstance(node, dict):
            yield from (v for k, v in node.items() if k == "refused")
            for v in node.values():
                yield from refusals(v)

    assert not list(refusals(json.loads(proc.stdout)))
