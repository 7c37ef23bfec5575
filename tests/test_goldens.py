"""Golden records of the complexes' contents: per-degree basis sizes, a
hash of each degree's label list and a hash of every boundary matrix.

They pin every builder that assembles chord-side and orbit-side blocks:
the four chord builders and the three surgery builders over the ball
model for every bundled chord DGA, the three surgery builders over a
hand-made filling in which every count table is nonzero (one orbit is
bad), and two cobordism maps in which every count table is nonzero.
The bundled documents themselves, of every format, are pinned by the
hash of their canonical text (BUNDLED_DOCUMENTS).

The data file was written once by running this module as a script

    PYTHONPATH=src python tests/test_goldens.py > tests/data/goldens.json

and a refactor must leave it as it is.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from fractions import Fraction

from chordhom.algebra import BaseRing, Element, Generator, Word
from chordhom.complexes import (
    build_cyclic_complex,
    build_ho_complex,
    build_hoplus_complex,
    build_mcyc_complex,
)
from chordhom.dga import DGASpec
from chordhom.documents import ParseError, dga_from_document, dumps
from chordhom.examples import example_document, example_names
from chordhom.surgery import (
    CobordismCounts,
    FillingModel,
    Orbit,
    SurgeryCountTable,
    assemble_cobordism_map,
    build_lch_surgery,
    build_sh_surgery,
    build_shplus_surgery,
    builtin_ball_filling,
)

DATA = os.path.join(os.path.dirname(__file__), "data", "goldens.json")

# the windows of perfbench/digest.py: all gradings positive, or not
WINDOWS = {True: ((0, 8), 9), False: ((-4, 0), 3)}

CHORD_BUILDERS = {
    "cyc": build_cyclic_complex,
    "hoplus": build_hoplus_complex,
    "ho": build_ho_complex,
    "mcyc": build_mcyc_complex,
}
SURGERY_BUILDERS = {
    "ch": build_lch_surgery,
    "sh+": build_shplus_surgery,
    "sh": build_sh_surgery,
}


# sha256 of dumps(example_document(name)) for every bundled name
BUNDLED_DOCUMENTS = {
    "chekanov_a": "a2995ae41d8c704fda09939fb23be18484addad86bae4cbe58ee6650e771b0d1",
    "chekanov_a6_target": "6236ffe4def814b74527615a63732e22c2b86894d3a545a1019b262fd0f1d05e",
    "chekanov_c": "4b2169820e150f760ac0d94608a74cc2117130a1e34807f701aeeed69ae5c22e",
    "chekanov_phi": "cc58ea3594b24f51e4723817bd2fe622b7cc1fbb5ba36eac389def0252520b89",
    "dc1_vanishing": "88a476d074bfb7ed530c7251e76ac95c1b7bd25f3d0ec5b3647bf4b17018fc57",
    "lambda_t": "de2ee4350a5af4680fb095a1cd5344cf83c1f22d8981d7ce99e672a11c68c048",
    "lefschetz_min": "4a478f3859296ce850115206c9fe05d8415d0dffa2e59ceea5b6996434890e27",
    "unknot": "9d917b6e9b300514cfce43f1d24ac8a2c4ac4f43e91d57524e2b0cfd854e724a",
    "unknot_n2": "c7822f4a231b53f94ee4774d65585db2a19eda1c7bd28cbcf99e16dd10a1b943",
    "unknot_n4": "077241f95d223235b114d70cd155fcc98f13555d8be24e512335639fa5dcced4",
    "unknot_n5": "728776318eeeffb7618ec2994d862b9b471bea2b906e7aa385536cb7fea57811",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def complex_record(cx) -> dict:
    return {
        "verdict": cx.verdict,
        "basis": {str(d): len(labs) for d, labs in sorted(cx.basis.items())},
        "labels": {str(d): _sha(repr(labs)) for d, labs in sorted(cx.basis.items())},
        "matrices": {
            str(d): _sha(repr(sorted((r, c, str(v)) for (r, c), v in m.items())))
            for d, m in sorted(cx.diffs.items())
        },
    }


def example_records() -> dict:
    out = {}
    for name in example_names():
        doc = example_document(name)
        if doc["format"] != "dga/1":
            continue
        try:
            dga = dga_from_document(doc)
        except ParseError:
            dga = dga_from_document(doc, allow_partial=True)
        window, max_len = WINDOWS[all(g.grading >= 1 for g in dga.generators)]
        rec = {}
        for key, build in CHORD_BUILDERS.items():
            rec[key] = complex_record(build(dga, window, max_len))
        ball = builtin_ball_filling(dga.ambient_dim)
        for key, build in SURGERY_BUILDERS.items():
            cx = build(ball, dga, SurgeryCountTable.zero(), window, max_len)
            rec[key] = complex_record(cx)
        out[name] = rec
    return out


def handmade_dga() -> DGASpec:
    """Two components; a kills the first unit and c twice the second."""
    gens = [
        Generator("a", 1, 1, 1),
        Generator("b", 2, 1, 1),
        Generator("c", 1, 2, 2),
        Generator("u", 0, 2, 1),
        Generator("v", 1, 1, 2),
    ]
    diff = {
        "a": Element.monomial(Word.idem(1)),
        "b": Element({Word.of(["u", "v"]): Fraction(1), Word.of(["a"]): Fraction(-2)}),
        "c": Element.monomial(Word.idem(2), 2),
    }
    return DGASpec(BaseRing(2), gens, diff, ambient_dim=2)


def handmade_filling() -> FillingModel:
    """Every table of the filling nonzero; q1 is bad and carries Morse and
    component-class counts, which its minimum copy must not emit."""
    F = Fraction
    return FillingModel(
        n=2,
        orbits=[
            Orbit("p1", 1, 1),
            Orbit("q1", 1, 2, bad=True),
            Orbit("p2", 2, 1),
            Orbit("p3", 3, 3),
            Orbit("p4", 4, 2),
            Orbit("p5", 5, 2),
        ],
        morse=[("m0", 0), ("m1", 1), ("m2", 2)],
        orbit_diff={
            ("p2", "p1"): F(2), ("p2", "q1"): F(1), ("p3", "p2"): F(3),
            ("p4", "p3"): F(-1, 2), ("p5", "p4"): F(5),
        },
        bott_diff={("p3", "p1"): F(1), ("p4", "p2"): F(-1), ("p5", "p3"): F(2)},
        to_morse={("p1", "m0"): F(1), ("q1", "m0"): F(4), ("p2", "m1"): F(-3)},
        morse_diff={("m1", "m0"): F(1), ("m2", "m1"): F(2)},
        morse_tau={("m1", 1): F(3), ("m1", 2): F(-1)},
    )


def handmade_counts() -> SurgeryCountTable:
    F = Fraction
    return SurgeryCountTable(
        mixed_cyc={
            ("p2", ("a",)): F(1),
            ("p3", ("b",)): F(2),
            ("p3", ("a", "a")): F(7),  # a bad class, dropped
            ("p2", ("v", "u")): F(-1),  # folded onto (u, v)
            ("p4", ("a", "b")): F(3),
            ("p4", ("b", "a")): F(1),
            ("p5", ("b", "b")): F(6),
        },
        ncheck={("p2", ("a",)): F(1), ("p3", ("b",)): F(2), ("p2", ("u", "v")): F(-1)},
        nhat={("p3", ("a",)): F(1), ("p4", ("b",)): F(4), ("p3", ("u", "v")): F(1)},
        orbit_tau={("p1", 1): F(1), ("p1", 2): F(2), ("q1", 1): F(7)},
    )


def handmade_records() -> dict:
    dga, filling = handmade_dga(), handmade_filling()
    return {
        key: complex_record(build(filling, dga, handmade_counts(), (0, 4), 4))
        for key, build in SURGERY_BUILDERS.items()
    }


def cobordism_counts() -> CobordismCounts:
    F = Fraction
    return CobordismCounts(
        orbit_orbit={("p2", "p2"): F(1), ("p3", "p3"): F(3), ("p4", "p4"): F(2), ("p3", "p2"): F(1)},
        orbit_orbit_bott={("p3", "p2"): F(1), ("p4", "p3"): F(-2)},
        orbit_morse={("p1", "m1"): F(1), ("p2", "m2"): F(3)},
        orbit_cyc={("p2", ("b",)): F(2), ("p4", ("b", "a")): F(1), ("p2", ("v", "u")): F(5)},
        orbit_check_word={("p2", ("b",)): F(1), ("p1", ("a",)): F(-1)},
        orbit_hat_word={("p2", ("a",)): F(1), ("p3", ("b",)): F(2)},
        orbit_tau={("p1", 1): F(1), ("p1", 2): F(-1)},
        morse_morse={("m1", "m1"): F(1), ("m2", "m2"): F(2)},
    )


def cobordism_records() -> dict:
    dga, filling = handmade_dga(), handmade_filling()
    kappa_t = {"p1": 1, "q1": 2, "p2": 1, "p3": 3, "p4": 2, "p5": 2}
    kappa_s = {"p2": 2, "p3": 5, "p4": 3}
    out = {}
    for key in ("ch", "sh"):
        cx = SURGERY_BUILDERS[key](filling, dga, handmade_counts(), (0, 4), 4)
        report = assemble_cobordism_map(
            cobordism_counts(), cx, cx, target_kappa=kappa_t, source_kappa=kappa_s,
            algebra=dga.algebra,
        )
        mapping = sorted(
            (repr(lab), sorted((repr(k), str(v)) for k, v in img.items() if v))
            for lab, img in report.mapping.items()
        )
        defects = sorted(repr((d, lab, k, str(v))) for d, lab, k, v in report.defects)
        out[key] = {
            "mapping": _sha(repr(mapping)),
            "nonzero_images": sum(1 for _, img in mapping if img),
            "defects": _sha(repr(defects)),
            "defect_count": len(defects),
        }
    return out


def records() -> dict:
    return {
        "examples": example_records(),
        "handmade": handmade_records(),
        "cobordism": cobordism_records(),
    }


def _golden() -> dict:
    with open(DATA) as fh:
        return json.load(fh)


def _compare(got: dict, want: dict, path: str = "") -> list[str]:
    if isinstance(want, dict) and isinstance(got, dict):
        out = []
        for key in sorted(set(want) | set(got)):
            if key not in got or key not in want:
                out.append(f"{path}/{key}: only in {'golden' if key in want else 'output'}")
            else:
                out += _compare(got[key], want[key], f"{path}/{key}")
        return out
    return [] if got == want else [f"{path}: {got!r} != golden {want!r}"]


def test_bundled_documents_match_their_hashes():
    got = {name: _sha(dumps(example_document(name))) for name in example_names()}
    assert got == BUNDLED_DOCUMENTS


def test_example_complexes_match_goldens():
    assert _compare(example_records(), _golden()["examples"]) == []


def test_handmade_surgery_complexes_match_goldens():
    assert _compare(handmade_records(), _golden()["handmade"]) == []


def test_cobordism_maps_match_goldens():
    golden = _golden()["cobordism"]
    assert _compare(cobordism_records(), golden) == []
    assert all(rec["nonzero_images"] for rec in golden.values())


if __name__ == "__main__":
    json.dump(records(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
