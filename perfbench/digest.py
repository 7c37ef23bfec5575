"""Digest of the program's exact outputs, for diffing across commits.

    python3 perfbench/digest.py [--seed 1] > digest.json

Run it from the repository root.  For every bundled example and every
operation of the three workloads (inputs made from --seed) it records the
verdict, per-degree basis sizes, a hash of every boundary matrix, the d^2
outcome and, where the operation computes them, the Betti numbers.  Two
commits that compute the same invariants give byte-identical output.
The digest is reported, not gated: a change of method that is correct can
legitimately move a matrix hash, and is then judged by the checkers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

SRC = os.path.join(os.getcwd(), "src")
if not os.path.isfile(os.path.join(SRC, "chordhom", "__init__.py")):
    sys.exit(f"digest: no chordhom sources under {SRC}; run from the repository root")
sys.path.insert(0, SRC)

import workloads as wl  # noqa: E402

CHORD_WINDOWS = {"positive": ((0, 8), 9), "other": ((-4, 0), 3)}


def matrix_hash(mat: dict) -> str:
    text = repr(sorted((r, c, str(v)) for (r, c), v in mat.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def complex_record(cx) -> dict:
    return {
        "verdict": cx.verdict,
        "window": list(cx.window),
        "basis": {str(d): len(labs) for d, labs in sorted(cx.basis.items())},
        "matrices": {str(d): matrix_hash(m) for d, m in sorted(cx.diffs.items())},
    }


def describe(out) -> dict:
    """A record of one operation's output, by its shape."""
    if isinstance(out, dict):  # the Lefschetz pipeline
        return {
            "dual_equals_direct": out["same"],
            "dictionary": out["dictionary"],
            "d2_entries": [len(r) for r in out["reports"]],
            "cc": complex_record(out["cc"]),
            "ho": complex_record(out["ho"]),
        }
    if isinstance(out, tuple):
        cx, second = out
        rec = complex_record(cx)
        if isinstance(second, list):
            rec["d2_entries"] = len(second)
        else:
            rec["betti"] = {str(d): r for d, r in sorted(second.ranks.items())}
        return rec
    return {"validation_ok": out.ok}


def outcome(fn) -> dict:
    try:
        return describe(fn())
    except Exception as exc:  # a refusal is part of the record
        return {"refused": f"{type(exc).__name__}: {exc}"}


def examples(m) -> dict:
    docs, ex, cx, hom, dga_mod, lf = (
        m["documents"], m["examples"], m["complexes"], m["homology"], m["dga"], m["lefschetz"]
    )
    out = {}
    for name in ex.example_names():
        doc = ex.example_document(name)
        fmt = doc["format"]
        rec: dict = {"format": fmt}
        if fmt == "dga/1":
            try:
                dga = docs.dga_from_document(doc)
            except docs.ParseError as exc:
                rec["parse"] = str(exc)
                dga = docs.dga_from_document(doc, allow_partial=True)
                rec["ho_vanishes_by_unit_differential"] = cx.ho_vanishes_by_unit_differential(dga)
                out[name] = rec
                continue
            rec["validation_ok"] = dga_mod.check_d_squared(dga).ok
            positive = all(g.grading >= 1 for g in dga.generators)
            window, max_len = CHORD_WINDOWS["positive" if positive else "other"]
            for builder in wl.CHORD_BUILDERS:
                build = wl.builder_call(m, builder, dga.ambient_dim)

                def run(build=build):
                    c = build(dga, window, max_len)
                    report = c.d_squared_report()
                    return (c, report) if report else (c, hom.betti(c))

                rec[builder] = outcome(run)
        elif fmt == "morphism/1":
            ok, counter = dga_mod.check_morphism(docs.morphism_from_document(doc))
            rec["chain_map"] = ok
            rec["counterexample"] = counter
        elif fmt == "ainf/1":
            spec = docs.ainf_from_document(doc)
            rec["pipeline"] = outcome(wl.lefschetz_op(m, name, spec, *wl.LEFSCHETZ_MIN_WINDOW).run)
            D = lf.build_curved_category(spec, wl.T_ORDER)
            rec["dual_validation_ok"] = dga_mod.check_d_squared(lf.dualize_tensor_algebra(D)).ok
        out[name] = rec
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="digest of chordhom's exact outputs")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    m = wl.modules()
    result = {"examples": examples(m), "workloads": {}}
    for name in wl.WORKLOADS:
        result["workloads"][name] = {op.label: outcome(op.run) for op in wl.make(name, args.seed)}
    json.dump(result, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
