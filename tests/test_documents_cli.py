import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from chordhom import cli
from chordhom.documents import (
    ParseError,
    ainf_from_document,
    augmentation_from_document,
    betti_from_document,
    betti_to_document,
    betti_to_text,
    counts_from_document,
    dga_from_document,
    dga_to_document,
    dumps,
    filling_from_document,
    loads,
    morphism_from_document,
)
from chordhom.examples import example_document, example_names
from chordhom.homology import BettiTable, GradedChainComplex


def run_cli(*args) -> tuple[int, str]:
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        code = cli.main(list(args))
    return code, out.getvalue()


def test_every_bundled_document_parses_and_validates():
    for name in example_names():
        doc = example_document(name)
        fmt = doc["format"]
        if fmt == "dga/1":
            if doc.get("metadata", {}).get("partial"):
                with pytest.raises(ParseError):
                    dga_from_document(doc)
                dga_from_document(doc, allow_partial=True)
            else:
                code, _ = run_cli("validate", name)
                assert code == 0, name


def test_round_trip_is_byte_identical():
    for name in ("unknot", "chekanov_a", "chekanov_c"):
        doc = example_document(name)
        text = dumps(doc)
        dga = dga_from_document(loads(text))
        emitted = dumps(dga_to_document(dga))
        again = dumps(dga_to_document(dga_from_document(loads(emitted))))
        assert emitted == again


def test_rejects_floats_and_unknown_letters():
    doc = example_document("unknot")
    doc["differential"] = {"a": [{"coeff": 0.5, "word": ["a"]}]}
    with pytest.raises(ParseError) as err:
        dga_from_document(doc)
    assert "floating point" in str(err.value)
    doc["differential"] = {"a": [{"coeff": "1", "word": ["ghost"]}]}
    with pytest.raises(ParseError) as err:
        dga_from_document(doc)
    assert "ghost" in str(err.value)


def test_syntax_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        loads("{\n  broken\n}")
    assert "line 2" in str(err.value)


# d(b) = a a, and then d(b) = 0: with the last value kept the DGA validates
_D_B_TWICE = (
    '{"format": "dga/1", "field": "Q", "components": 1, "ambient_dim": 3,'
    ' "generators": [{"name": "a", "grading": 1}, {"name": "b", "grading": 2}],'
    ' "differential": {"b": [{"coeff": "1", "word": ["a", "a"]}], "b": []}}'
)

# (a document text that writes one key twice, the command that reads it with
# PATH for its file, the key)
REPEATED_KEYS = {
    "top-level": (
        '{"format": "dga/1", "field": "Q", "components": 1, "ambient_dim": 3,'
        ' "generators": [{"name": "a", "grading": 2}], "differential": {},'
        ' "ambient_dim": 2}',
        ["validate", "PATH"],
        "ambient_dim",
    ),
    "differential": (_D_B_TWICE, ["validate", "PATH"], "b"),
    "differential-homology": (
        _D_B_TWICE,
        ["homology", "PATH", "--complex", "cyc", "--max-deg", "3", "--max-len", "3"],
        "b",
    ),
    "table-entry": (
        '{"format": "filling/1", "n": 2, "orbits": [{"label": "g", "grading": 3}],'
        ' "morse": [{"label": "p", "grading": 2}],'
        ' "to_morse": [{"orbit": "g", "morse": "p", "coeff": "1", "coeff": "0"}]}',
        ["surgery", "unknot_n2", "--theory", "sh", "--max-deg", "4", "--filling", "PATH"],
        "coeff",
    ),
}


@pytest.mark.parametrize("text,args,key", REPEATED_KEYS.values(), ids=list(REPEATED_KEYS))
def test_cli_repeated_key_exit_2(tmp_path, text, args, key):
    path = tmp_path / "repeated.json"
    path.write_text(text)
    code, out = run_cli(*(str(path) if arg == "PATH" else arg for arg in args))
    assert code == 2
    assert out == f"input error: {path}: $: key {key!r} is repeated in an object\n"


def test_rational_strings():
    doc = example_document("unknot")
    doc["differential"] = {}
    doc["generators"].append({"name": "b", "grading": 3, "src": 1, "dst": 1})
    doc["differential"]["b"] = [{"coeff": "-3/2", "word": ["a"]}]
    dga = dga_from_document(doc)
    from fractions import Fraction
    from chordhom.algebra import Word

    assert dga.d_gen("b").coeff(Word.of(["a"])) == Fraction(-3, 2)


BAD_TERMS = [
    ({"coeff": "1", "word": "e_x"}, "bad unit word"),
    ({"coeff": "1", "word": "e_0"}, "bad unit word"),
    ({"coeff": "1", "word": "e_5"}, "bad unit word"),
    ({"coeff": "1", "word": "x_1"}, "unit words are written"),
    (7, "expected an object"),
    # int() reads both as e_1 (the second is an Arabic-Indic one); only the
    # canonical form names a unit
    ({"coeff": "1", "word": "e_01"}, "bad unit word"),
    ({"coeff": "1", "word": "e_\u0661"}, "bad unit word"),
]


def _bad_dga(term):
    doc = example_document("dc1_vanishing")
    doc["differential"]["c"] = [term]
    return doc


def _bad_morphism(term):
    doc = example_document("chekanov_phi")
    doc["assignment"]["a7"] = [term]
    return doc


@pytest.mark.parametrize("term,message", BAD_TERMS)
def test_bad_terms_are_parse_errors(term, message):
    with pytest.raises(ParseError) as err:
        dga_from_document(_bad_dga(term))
    assert err.value.issues[0][0].startswith("$.differential.c[0]")
    assert message in str(err.value)
    with pytest.raises(ParseError) as err:
        morphism_from_document(_bad_morphism(term))
    assert err.value.issues[0][0].startswith("$.assignment.a7[0]")
    assert message in str(err.value)


@pytest.mark.parametrize("term,message", BAD_TERMS)
def test_cli_bad_terms_exit_2(tmp_path, term, message):
    path = tmp_path / "bad.dga"
    path.write_text(dumps(_bad_dga(term)))
    code, out = run_cli("validate", str(path))
    assert code == 2 and message in out
    path = tmp_path / "bad.morphism"
    path.write_text(dumps(_bad_morphism(term)))
    code, out = run_cli("morphism", str(path))
    assert code == 2 and message in out


@pytest.mark.parametrize(
    "parse,doc,path",
    [
        (filling_from_document, {"format": "filling/1", "n": 2, "orbits": [7]}, "$.orbits[0]"),
        (counts_from_document, {"format": "counts/1", "check": ["g1"]}, "$.check[0]"),
        (
            ainf_from_document,
            {"format": "ainf/1", "components": 2, "fiber_dim_param": 3, "points": [[]]},
            "$.points[0]",
        ),
    ],
)
def test_non_object_entries_are_parse_errors(parse, doc, path):
    with pytest.raises(ParseError) as err:
        parse(doc)
    assert err.value.issues == [(path, "expected an object")]


def _unknot(**fields) -> dict:
    return {**example_document("unknot"), **fields}


def _unknot_term(term) -> dict:
    return _unknot(differential={"a": [term]})


def _augmentation(value) -> dict:
    return {"format": "augmentation/1", "values": {"a": value}}


_POINT_A = {"name": "a", "grading": 0, "from": 1, "to": 2}


def _ainf_out(token: str) -> dict:
    return {"format": "ainf/1", "components": 2, "fiber_dim_param": 3, "points": [_POINT_A],
            "mu": [{"out": token, "inputs": ["f:a"], "coeff": "1"}]}


def _betti(**fields) -> dict:
    return {"format": "betti/1", "ranks": {"0": 1}, **fields}


# Refusals of the document readers that no other test reaches: (reader, the
# document, the JSON path, the exact message)
REFUSALS = [
    (augmentation_from_document, _augmentation(0.5), "$.values.a",
     "floating point is not accepted; write rationals as strings"),
    (augmentation_from_document, _augmentation(True), "$.values.a", "expected a rational"),
    (dga_from_document, _unknot_term({"coeff": True, "word": ["a"]}),
     "$.differential.a[0].coeff", "expected a rational"),
    (augmentation_from_document, _augmentation("abc"), "$.values.a", "not a rational: 'abc'"),
    (augmentation_from_document, _augmentation("1/0"), "$.values.a", "not a rational: '1/0'"),
    (augmentation_from_document, _augmentation([1]), "$.values.a", "not a rational: [1]"),
    (dga_from_document, {k: v for k, v in _unknot().items() if k != "components"},
     "$.components", "missing field"),
    (dga_from_document, _unknot(format="dga/2"), "$.format", "unsupported format 'dga/2'"),
    (loads, "[1]", "$", "document must be an object"),
    (dga_from_document, _unknot(field="F2"), "$.field", "only the rationals are supported"),
    (dga_from_document, _unknot(generators=[{"name": "a", "grading": 2},
                                            {"name": "a", "grading": 1}]),
     "$.generators[1]", "duplicate generator a"),
    (dga_from_document, _unknot(differential={"b": []}), "$.differential.b",
     "unknown generator b"),
    (dga_from_document, _unknot(generators=[{"name": "a", "grading": 2, "src": 2}]), "$",
     "generator a has ports outside the ring"),
    (dga_from_document, _unknot(components=2, generators=[
        {"name": "a", "grading": 1, "src": 1, "dst": 2}, {"name": "b", "grading": 2}],
        differential={"b": [{"coeff": "1", "word": ["a", "a"]}]}), "$",
     "differential of b has a non-composable word a.a"),
    (ainf_from_document, _ainf_out("e1"), "$.mu[0].out", "bad symbol reference 'e1'"),
    (ainf_from_document, _ainf_out("e:3"), "$.mu[0].out", "component out of range in 'e:3'"),
    (ainf_from_document, _ainf_out("m:0"), "$.mu[0].out", "component out of range in 'm:0'"),
    (ainf_from_document, _ainf_out("f:z"), "$.mu[0].out", "unknown point in 'f:z'"),
    (ainf_from_document, _ainf_out("x:a"), "$.mu[0].out", "bad symbol kind in 'x:a'"),
    (ainf_from_document, {**_ainf_out("f:a"), "points": [_POINT_A, _POINT_A]},
     "$.points[1]", "duplicate point a"),
    (dga_from_document, _unknot(differential={"a": {"coeff": "1", "word": ["a"]}}),
     "$.differential.a", "expected a list of terms"),
    (dga_from_document, _unknot_term({"coeff": "1", "word": []}),
     "$.differential.a[0].word", "empty word lists are not allowed; use e_i"),
    (dga_from_document, _unknot_term({"coeff": "1", "word": 3}),
     "$.differential.a[0].word", "expected a list of names or e_<component>"),
    (morphism_from_document, {**example_document("chekanov_phi"), "assignment": {"zz": []}},
     "$.assignment.zz", "unknown source generator"),
    (betti_from_document, _betti(ranks={"0": "1"}), "$.ranks.0", "ranks are integers"),
    (betti_from_document, _betti(ranks={"0": True}), "$.ranks.0", "ranks are integers"),
    (betti_from_document, _betti(flagged=[True]), "$.flagged[0]",
     "flagged degrees are integers"),
]


@pytest.mark.parametrize(
    "parse,doc,path,message",
    REFUSALS,
    ids=[re.sub(r"\W+", "-", f"{path}-{message}").strip("-") for _, _, path, message in REFUSALS],
)
def test_document_refusals_name_their_path(parse, doc, path, message):
    with pytest.raises(ParseError) as err:
        parse(doc)
    assert err.value.issues == [(path, message)]


def _with_fields(doc: dict, **fields) -> dict:
    return {**doc, **fields}


_FILLING = {"format": "filling/1", "n": 2}
_COUNTS = {"format": "counts/1"}
_AINF = {"format": "ainf/1", "components": 1, "fiber_dim_param": 3}
_ORBIT = {"label": "g", "grading": 3}

# (what is read, the document, the command that reads it, the JSON path refused)
BAD_OPTIONAL_FIELDS = [
    ("dga", _with_fields(example_document("unknot"), metadata=[]), "$.metadata"),
    ("dga", _with_fields(example_document("unknot"), generators=[
        {"name": "a", "grading": 1, "src": "1"}]), "$.generators[0].src"),
    ("filling", _with_fields(_FILLING, orbits=5), "$.orbits"),
    ("filling", _with_fields(_FILLING, orbits=[{**_ORBIT, "multiplicity": "2"}]),
     "$.orbits[0].multiplicity"),
    ("filling", _with_fields(_FILLING, orbits=[{**_ORBIT, "multiplicity": True}]),
     "$.orbits[0].multiplicity"),
    ("filling", _with_fields(_FILLING, orbits=[{**_ORBIT, "multiplicity": 0}]),
     "$.orbits[0].multiplicity"),
    ("filling", _with_fields(_FILLING, orbits=[{**_ORBIT, "bad": "yes"}]), "$.orbits[0].bad"),
    ("filling", _with_fields(_FILLING, morse={}), "$.morse"),
    ("filling", _with_fields(_FILLING, orbit_differential=3), "$.orbit_differential"),
    ("filling", _with_fields(_FILLING, morse_tau="p"), "$.morse_tau"),
    ("filling", _with_fields(_FILLING, metadata=[]), "$.metadata"),
    ("counts", _with_fields(_COUNTS, check=5), "$.check"),
    ("counts", _with_fields(_COUNTS, orbit_tau={}), "$.orbit_tau"),
    ("counts", _with_fields(_COUNTS, metadata="x"), "$.metadata"),
    ("ainf", _with_fields(_AINF, points={}), "$.points"),
    ("ainf", _with_fields(_AINF, mu=3), "$.mu"),
    ("ainf", _with_fields(_AINF, mu=[{"out": "e:1", "inputs": ["e:01"], "coeff": "1"}]),
     "$.mu[0].inputs[0]"),
    ("ainf", _with_fields(_AINF, order="p"), "$.order"),
    ("ainf", _with_fields(_AINF, order=[["p"]]), "$.order[0]"),
    ("ainf", _with_fields(_AINF, components=2, points=[
        {"name": "a", "grading": 0, "from": 1, "to": 2},
        {"name": "b", "grading": 0, "from": 1, "to": 2}], order=["a", "b", "a"]), "$.order[2]"),
    ("ainf", _with_fields(_AINF, metadata=[]), "$.metadata"),
    ("morphism", {"format": "morphism/1", "source": {"example": 5},
                  "target": {"example": "unknot"}, "assignment": {}}, "$.source.example"),
    ("morphism", {"format": "morphism/1", "source": {"example": "unknot"},
                  "target": {"example": "no_such_example"}, "assignment": {}},
     "$.target.example"),
]


def _cli_reading(kind: str, path: str) -> list[str]:
    return {
        "dga": ["validate", path],
        "filling": ["surgery", "unknot", "--filling", path, "--theory", "ch", "--max-deg", "2"],
        "counts": ["surgery", "unknot", "--filling", "ball:2", "--theory", "ch",
                   "--max-deg", "2", "--counts", path],
        "ainf": ["lefschetz", path, "--t-order", "1", "--emit", "dga"],
        "morphism": ["morphism", path],
    }[kind]


@pytest.mark.parametrize(
    "kind,doc,where",
    BAD_OPTIONAL_FIELDS,
    ids=[f"{k}-" + re.sub(r"\W+", "-", w[2:]).strip("-") for k, _, w in BAD_OPTIONAL_FIELDS],
)
def test_cli_bad_optional_fields_exit_2(tmp_path, kind, doc, where):
    path = tmp_path / f"bad.{kind}"
    path.write_text(dumps(doc))
    code, out = run_cli(*_cli_reading(kind, str(path)))
    assert code == 2, out
    assert f"{where}:" in out


def test_filling_document_parse():
    doc = {
        "format": "filling/1",
        "n": 2,
        "orbits": [{"label": "g", "grading": 3, "multiplicity": 1}],
        "morse": [{"label": "p", "grading": 2}],
        "to_morse": [{"orbit": "g", "morse": "p", "coeff": "1"}],
        "metadata": {},
    }
    model = filling_from_document(doc)
    assert model.orbits[0].label == "g"
    assert model.to_morse[("g", "p")] == 1
    doc["orbits"].append({"label": "g", "grading": 5})
    with pytest.raises(ParseError):
        filling_from_document(doc)


def test_betti_document_round_trip():
    table = BettiTable({0: 1, 1: 0, 2: 3}, frozenset({0, 2}), "EXACT")
    doc = betti_to_document(table, (0, 2))
    again = betti_from_document(json.loads(dumps(doc)))
    assert again.ranks == table.ranks
    assert set(again.flagged) == {0, 2}
    text = betti_to_text(table, (0, 2))
    assert "EXACT" in text and " 3" in text


def test_betti_document_with_a_degree_that_is_no_integer_is_refused():
    # int("x") used to escape as a bare ValueError; int() also reads "1_0",
    # " 3" and "\u0663" (Arabic-Indic three), so two keys named one degree and
    # one rank was dropped
    for ranks, key in (
        ({"0": 1, "x": 2}, "x"),
        ({"10": 2, "1_0": 5}, "1_0"),
        ({"3": 1, " 3": 7}, " 3"),
        ({" 3": 1, "\u0663": 7}, " 3"),
        ({"3": 1, "\u0663": 7}, "\u0663"),
        ({"-0": 1}, "-0"),
    ):
        with pytest.raises(ParseError) as err:
            betti_from_document({"format": "betti/1", "ranks": ranks})
        assert err.value.issues == [(f"$.ranks.{key}", "degrees are integers")]


def test_truncated_banner():
    table = BettiTable({0: 1}, frozenset(), "TRUNCATED")
    assert "TRUNCATED" in betti_to_text(table, (0, 0))


# ---- command line --------------------------------------------------------------


def test_cli_examples_manifest():
    code, out = run_cli("examples", "list")
    assert code == 0
    names = out.split()
    for expected in ("unknot", "chekanov_a", "chekanov_c", "dc1_vanishing", "lefschetz_min"):
        assert expected in names


def test_cli_examples_emit_deterministic(tmp_path):
    code1, out1 = run_cli("examples", "emit", "chekanov_a")
    code2, out2 = run_cli("examples", "emit", "chekanov_a")
    assert code1 == code2 == 0
    assert out1 == out2
    json.loads(out1)


def test_cli_file_that_is_no_json_document_exit_2(tmp_path):
    path = tmp_path / "broken.dga"
    path.write_text("{\"format\": }")
    code, out = run_cli("validate", str(path))
    assert code == 2
    assert out == f"input error: {path}: line 1, column 12: Expecting value\n"


def test_cli_directory_for_a_document_exit_2(tmp_path):
    code, out = run_cli("validate", str(tmp_path))
    assert code == 2
    assert out == f"input error: {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_cli_validate_exit_codes(tmp_path):
    code, _ = run_cli("validate", "chekanov_a")
    assert code == 0
    bad = example_document("unknot")
    bad["differential"] = {"a": [{"coeff": "1", "word": ["a", "a"]}]}
    path = tmp_path / "bad.dga"
    path.write_text(dumps(bad))
    code, out = run_cli("validate", str(path))
    assert code == 1
    code, _ = run_cli("validate", str(tmp_path / "missing.dga"))
    assert code == 2


def test_cli_surgery_matches_library():
    code, out = run_cli(
        "surgery", "unknot", "--filling", "ball:3", "--theory", "sh",
        "--min-deg", "0", "--max-deg", "8", "--json",
    )
    assert code == 0
    doc = json.loads(out[out.index("{"):])
    assert doc["ranks"]["0"] == 1 and doc["ranks"]["1"] == 0 and doc["ranks"]["2"] == 1


def test_cli_homology_partial_document_refused():
    code, out = run_cli(
        "homology", "lambda_t", "--complex", "ho", "--min-deg", "0", "--max-deg", "4"
    )
    assert code == 2
    assert "partial" in out


def test_cli_homology_lin_requires_valid_augmentation():
    code, out = run_cli(
        "homology", "chekanov_a", "--complex", "lin", "--min-deg", "-2", "--max-deg", "2"
    )
    assert code == 2  # the trivial augmentation is not valid here


def test_cli_morphism_check():
    code, _ = run_cli("morphism", "chekanov_phi")
    assert code == 0


def test_cli_lefschetz_dictionary():
    code, out = run_cli(
        "lefschetz", "lefschetz_min", "--t-order", "2", "--emit", "dictionary-check",
        "--min-deg", "0", "--max-deg", "3", "--max-len", "8",
    )
    assert code == 0 and "OK" in out


def test_cli_lefschetz_hochschild(monkeypatch):
    code, out = run_cli(
        "lefschetz", "lefschetz_min", "--t-order", "2", "--emit", "hochschild",
        "--min-deg", "0", "--max-deg", "3", "--max-len", "6",
    )
    assert code == 0 and "ranks by dictionary degree" in out
    # a cyclic tensor complex with d^2 != 0 is a mathematical failure
    broken = GradedChainComplex(
        basis={-2: ["x"], -1: ["y"], 0: ["z"]},
        diffs={-1: {(0, 0): Fraction(1)}, 0: {(0, 0): Fraction(1)}},
        window=(-2, 0),
    )
    monkeypatch.setattr(cli, "hochschild_complex", lambda *args: broken)
    code, out = run_cli("lefschetz", "lefschetz_min", "--t-order", "2", "--emit", "hochschild")
    assert code == 1 and "does not square to zero" in out


def test_cli_lefschetz_emit_dga_parses_back():
    code, out = run_cli("lefschetz", "lefschetz_min", "--t-order", "1", "--emit", "dga")
    assert code == 0
    dga = dga_from_document(json.loads(out))
    assert any(g.name == "q1-(1)" for g in dga.generators)


@pytest.mark.parametrize("kind", ["cyc", "hoplus", "ho", "mcyc"])
def test_cli_homology_prints_the_library_table_and_document(kind):
    from chordhom import complexes
    from chordhom.homology import betti

    builder = {
        "cyc": complexes.build_cyclic_complex,
        "hoplus": complexes.build_hoplus_complex,
        "ho": complexes.build_ho_complex,
        "mcyc": complexes.build_mcyc_complex,
    }[kind]
    code, out = run_cli("homology", "unknot", "--complex", kind, "--json")
    table = betti(builder(dga_from_document(example_document("unknot")), (0, 8), 8))
    assert code == 0
    assert out == betti_to_text(table) + dumps(betti_to_document(table))


def test_cli_augmentations_lists_what_the_library_finds():
    from chordhom.dga import enumerate_augmentations

    found = enumerate_augmentations(
        dga_from_document(example_document("chekanov_a")), [Fraction(v) for v in (-1, 0, 1)]
    )
    code, out = run_cli("augmentations", "chekanov_a", "--values=-1,0,1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"{len(found)} augmentation(s) over {{-1,0,1}}"
    assert lines[1:] == [
        "  {" + ", ".join(f"{k}={v}" for k, v in sorted(eps.values.items())) + "}"
        for eps in found
    ]
    assert lines[1:] == ["  {a7=1, a8=-1, a9=1}"]


def test_cli_augmentations_list_each_augmentation_once():
    code, out = run_cli("augmentations", "chekanov_a", "--values=1,1,-1,0")
    assert (code, out) == (0, "1 augmentation(s) over {1,1,-1,0}\n  {a7=1, a8=-1, a9=1}\n")


def _two_component_dga(generators: list, differential: dict) -> dict:
    gens = [{"name": n, "grading": g, "src": i, "dst": j} for n, g, i, j in generators]
    return {
        "format": "dga/1", "components": 2, "ambient_dim": 2, "field": "Q", "generators": gens,
        "differential": differential,
    }


_PORTS_TARGET = _two_component_dga([("b", 2, 2, 2), ("x", 1, 1, 2)], {})


def test_cli_morphism_with_an_image_off_the_ports_exit_1(tmp_path):
    # a -> b keeps the grading, but b runs 2 -> 2: f(dc) = b.b, d(f(c)) = 0
    source = _two_component_dga(
        [("a", 2, 1, 1), ("c", 5, 1, 1)], {"c": [{"coeff": "1", "word": ["a", "a"]}]}
    )
    doc = {"format": "morphism/1", "source": source, "target": _PORTS_TARGET,
           "assignment": {"a": [{"coeff": "1", "word": ["b"]}]}}
    path = tmp_path / "ports.morphism"
    path.write_text(dumps(doc))
    assert run_cli("morphism", str(path)) == (
        1, "chain map: FAILED at a: image term b breaks the ports\n"
    )


def test_cli_morphism_between_base_rings_that_differ_exit_2(tmp_path):
    doc = {"format": "morphism/1", "source": {"example": "unknot"}, "target": _PORTS_TARGET,
           "assignment": {}}
    path = tmp_path / "rings.morphism"
    path.write_text(dumps(doc))
    assert run_cli("morphism", str(path)) == (
        2, f"input error: {path}: $: source and target must share the base ring\n"
    )


def test_cli_morphism_that_is_no_chain_map_exit_1(tmp_path):
    doc = example_document("chekanov_phi")
    doc["assignment"]["a8"] = [{"coeff": "1", "word": "e_1"}]
    path = tmp_path / "broken.morphism"
    path.write_text(dumps(doc))
    code, out = run_cli("morphism", str(path))
    assert code == 1 and out.startswith("chain map: FAILED at "), out


@pytest.mark.parametrize("emit", ["dga", "hochschild", "dictionary-check"])
def test_cli_ainf_failing_the_relation_check_exit_1(tmp_path, emit):
    # f:a runs from component 1 to 2, so its image m:1 violates the ports
    doc = _with_fields(
        _AINF,
        components=2,
        points=[{"name": "a", "grading": 0, "from": 1, "to": 2}],
        mu=[{"out": "m:1", "inputs": ["f:a"], "coeff": "1"}],
    )
    path = tmp_path / "ports.ainf"
    path.write_text(dumps(doc))
    code, out = run_cli("lefschetz", str(path), "--t-order", "2", "--emit", emit)
    assert code == 1
    assert out == "mathematical failure: entry (('f', 'a'),) -> ('m', 1) violates ports\n"


def _dictionary_check(monkeypatch, name, replacement):
    from chordhom import lefschetz

    monkeypatch.setattr(lefschetz, name, replacement)
    return run_cli(
        "lefschetz", "lefschetz_min", "--t-order", "2", "--emit", "dictionary-check",
        "--max-deg", "3", "--max-len", "6",
    )


def test_cli_dictionary_check_dual_and_direct_disagree_exit_1(monkeypatch):
    from chordhom.lefschetz import lefschetz_dga

    # the direct DGA of another truncation order has other generators
    code, out = _dictionary_check(
        monkeypatch, "lefschetz_dga", lambda spec, h, n, N: lefschetz_dga(spec, h, n, N + 1)
    )
    assert (code, out) == (1, "mathematical failure: dual and direct differentials disagree\n")


def test_cli_dictionary_check_basis_mismatch_exit_1(monkeypatch):
    message = "basis mismatch at degree 0, position 0: the first complex holds x, the second y"

    def mismatch(cc, ho):
        raise ValueError(message)

    code, out = _dictionary_check(monkeypatch, "verify_dictionary", mismatch)
    assert (code, out) == (1, f"mathematical failure: {message}\n")


def test_cli_dictionary_check_entry_mismatch_exit_1(monkeypatch):
    code, out = _dictionary_check(monkeypatch, "verify_dictionary", lambda cc, ho: False)
    assert (code, out) == (1, "mathematical failure: dictionary mismatch\n")


def test_cli_dictionary_check_walks_the_words_once(monkeypatch):
    """The cyclic tensor complex of the check is built on ho's basis, so the
    basis words are enumerated once."""
    from chordhom import complexes

    walks = []
    walk = complexes._cyclic_words
    monkeypatch.setattr(
        complexes, "_cyclic_words",
        lambda *args, **kwargs: walks.append(args) or walk(*args, **kwargs),
    )
    code, out = run_cli(
        "lefschetz", "lefschetz_min", "--t-order", "2", "--emit", "dictionary-check",
        "--max-deg", "3", "--max-len", "6",
    )
    assert code == 0 and out.startswith("dictionary: OK"), out
    assert len(walks) == 1


def test_cli_hochschild_prints_the_verdict_and_edge_flags():
    code, out = run_cli("lefschetz", "lefschetz_min", "--t-order", "3", "--emit", "hochschild")
    assert code == 0
    assert out == (
        "ranks by dictionary degree:\n"
        "*** verdict: TRUNCATED — ranks are lower bounds on the window ***\n"
        "  degree   rank    \n"
        + "".join(f"{d:>8}      0  {'edge' if d in (0, 6) else '':4}\n" for d in range(7))
    )


_REFUSAL = (
    "mathematical failure: the length-truncated window is not a subcomplex at max-len {} "
    "({}); truncated ranks are unavailable here\n"
)


def test_cli_truncated_surgery_failing_d_squared_is_refused_as_truncation():
    # chekanov_a has grading-0 chords, so the window is truncated by length
    window = ("--min-deg", "-4", "--max-deg", "0", "--max-len", "3")
    code, out = run_cli(
        "surgery", "chekanov_a", "--filling", "ball:2", "--theory", "sh", *window
    )
    assert code == 1
    homology_code, homology_out = run_cli("homology", "chekanov_a", "--complex", "ho", *window)
    assert (code, out) == (homology_code, homology_out)
    assert out == _REFUSAL.format(
        3, "d^2 != 0 at degree 0, entry (13, 17) = -1 (84 nonzero entries total)"
    )


def _broken_complex(verdict):
    return GradedChainComplex(
        basis={-2: ["x"], -1: ["y"], 0: ["z"]},
        diffs={-1: {(0, 0): Fraction(1)}, 0: {(0, 0): Fraction(1)}},
        window=(-2, 0),
        verdict=verdict,
    )


def test_cli_truncated_cyclic_tensor_complex_failing_d_squared_is_refused(monkeypatch):
    monkeypatch.setattr(cli, "hochschild_complex", lambda *args: _broken_complex("TRUNCATED"))
    code, out = run_cli("lefschetz", "lefschetz_min", "--t-order", "2", "--emit", "hochschild")
    assert code == 1
    assert out == _REFUSAL.format(
        8, "d^2 != 0 at degree 0, entry (0, 0) = 1 (1 nonzero entries total)"
    )


def _dga_failing_d_squared(tmp_path) -> str:
    # d(c) = b, d(b) = a: d^2(c) = a
    gens = [{"name": n, "grading": g, "src": 1, "dst": 1} for n, g in (("a", 1), ("b", 2), ("c", 3))]
    doc = {
        "format": "dga/1", "components": 1, "ambient_dim": 3, "field": "Q", "generators": gens,
        "differential": {
            "b": [{"coeff": "1", "word": ["a"]}],
            "c": [{"coeff": "1", "word": ["b"]}],
        },
    }
    path = tmp_path / "d2.dga"
    path.write_text(dumps(doc))
    return str(path)


def test_cli_exact_complex_failing_d_squared_is_a_mathematical_failure(tmp_path):
    # the linearized complex is exact, but the DGA is refused before it is built
    code, out = run_cli("homology", _dga_failing_d_squared(tmp_path), "--complex", "lin")
    assert code == 1
    assert out == "mathematical failure: the input DGA fails validation\nd^2(c) = 1*a != 0\n"


@pytest.mark.parametrize(
    "command",
    [
        ("homology", "--complex", "cyc"),
        ("homology", "--complex", "ho"),
        ("surgery", "--filling", "ball:3", "--theory", "sh"),
    ],
    ids=["cyc", "ho", "sh"],
)
def test_cli_truncated_window_over_a_dga_failing_d_squared_names_the_data(tmp_path, command):
    # the window is TRUNCATED (max-len 3 < max-deg 4), but d^2 fails in the
    # input itself, so the failure is the data's, printed as validate does
    path = _dga_failing_d_squared(tmp_path)
    code, out = run_cli(command[0], path, *command[1:], "--max-deg", "4", "--max-len", "3")
    assert code == 1
    assert out == "mathematical failure: the input DGA fails validation\nd^2(c) = 1*a != 0\n"
    assert run_cli("validate", path) == (1, "d^2(c) = 1*a != 0\n")


_TABLE_PATHS = [
    *(("homology", "--complex", kind) for kind in ("lin", "cyc", "hoplus", "ho", "mcyc")),
    *(("surgery", "--filling", "ball:2", "--theory", theory) for theory in ("ch", "sh+", "sh")),
]


def _mis_graded_document() -> dict:
    # d(a) = b has grading 1, not 2
    gens = [{"name": n, "grading": g, "src": 1, "dst": 1} for n, g in (("a", 3), ("b", 1))]
    return {
        "format": "dga/1", "components": 1, "ambient_dim": 2, "field": "Q", "generators": gens,
        "differential": {"a": [{"coeff": "1", "word": ["b"]}]},
    }


_MIS_GRADED_REFUSAL = (
    "mathematical failure: the input DGA fails validation\n"
    "d(a): term b has grading 1, expected 2\n"
)


@pytest.mark.parametrize("command", _TABLE_PATHS, ids=lambda command: command[-1])
def test_cli_mis_graded_dga_is_refused_before_any_build(tmp_path, command):
    # a builder would drop the term of d(a) as off the basis and print an
    # EXACT table
    path = tmp_path / "graded.dga"
    path.write_text(dumps(_mis_graded_document()))
    report = "d(a): term b has grading 1, expected 2\n"
    assert run_cli("validate", str(path)) == (1, report)
    code, out = run_cli(command[0], str(path), *command[1:])
    assert (code, out) == (1, "mathematical failure: the input DGA fails validation\n" + report)


def test_cli_augmentations_of_a_mis_graded_dga_exit_1(tmp_path):
    # the trivial augmentation would be found and printed
    path = tmp_path / "graded.dga"
    path.write_text(dumps(_mis_graded_document()))
    assert run_cli("augmentations", str(path), "--values=-1,0,1") == (1, _MIS_GRADED_REFUSAL)
    # a bad value list is still an input error first
    assert run_cli("augmentations", str(path), "--values=x")[0] == 2


@pytest.mark.parametrize("side", ["source", "target"])
def test_cli_morphism_with_a_mis_graded_side_exit_1(tmp_path, side):
    # the zero assignment passes the chain-map check on either side
    doc = {"format": "morphism/1", "source": {"example": "unknot"},
           "target": {"example": "unknot"}, "assignment": {}}
    doc[side] = _mis_graded_document()
    path = tmp_path / "graded.morphism"
    path.write_text(dumps(doc))
    assert run_cli("morphism", str(path)) == (1, _MIS_GRADED_REFUSAL)
    doc[side] = {"example": "unknot"}
    path.write_text(dumps(doc))
    assert run_cli("morphism", str(path)) == (0, "chain map: OK\n")


@pytest.mark.parametrize("kind", ["cyc", "hoplus", "ho", "mcyc"])
def test_cli_augmentation_outside_lin_exit_2(kind):
    # refused before any document is read, so the missing file is never opened
    code, out = run_cli("homology", "unknot", "--complex", kind, "--augmentation", "/nonexistent")
    assert (code, out) == (2, "input error: --augmentation applies only to --complex lin\n")


_SURGERY_CH = ("surgery", "unknot", "--theory", "ch", "--max-deg", "2")


def test_cli_empty_filling_with_bad_dimension_exit_2():
    code, out = run_cli(*_SURGERY_CH, "--filling", "empty:x")
    assert code == 2 and "empty:x" in out


@pytest.mark.parametrize(
    "ref", ["ball:3_0", "ball:03", "ball: 3", "ball:3 ", "ball:", "ball", "empty:+3"]
)
def test_cli_builtin_filling_takes_only_a_canonical_integer(ref):
    code, out = run_cli(*_SURGERY_CH, "--filling", ref)
    assert (code, out) == (
        2, f"input error: bad filling {ref!r}: expected {ref.partition(':')[0]}:<n> "
        f"with n an integer, got {ref.partition(':')[2]!r}\n"
    ), out


def test_cli_builtin_filling_reads_its_dimension():
    assert run_cli(*_SURGERY_CH, "--filling", "ball:3")[0] == 0
    code, out = run_cli(*_SURGERY_CH, "--filling", "ball:30")
    assert code == 2 and "filling has n=30 but the DGA has ambient_dim 3" in out, out
    code, out = run_cli(*_SURGERY_CH, "--filling", "ball:1")
    assert (code, out) == (
        2, "input error: bad filling 'ball:1': filling model needs n >= 2, got 1\n"
    )


@pytest.mark.parametrize("n", [0, 1])
def test_cli_filling_document_below_dimension_2_exit_2(tmp_path, n):
    path = tmp_path / "low.filling"
    path.write_text(dumps({"format": "filling/1", "n": n}))
    code, out = run_cli("surgery", "unknot", "--filling", str(path), "--theory", "sh")
    assert code == 2 and "$.n: filling model needs n >= 2" in out, out


_FILLING = {
    "format": "filling/1",
    "n": 2,
    "orbits": [{"label": "g1", "grading": 3}, {"label": "h", "grading": 1}],
    "morse": [{"label": "p", "grading": 2}],
    "to_morse": [{"orbit": "g1", "morse": "p", "coeff": 1}],
}


def _surgery_sh(tmp_path, filling: dict, counts: dict | None = None):
    """Run `surgery unknot_n2 --theory sh` on the given filling (and counts)
    documents."""
    args = ["surgery", "unknot_n2", "--theory", "sh", "--max-deg", "4"]
    (tmp_path / "m.filling").write_text(dumps(filling))
    args += ["--filling", str(tmp_path / "m.filling")]
    if counts is not None:
        (tmp_path / "m.counts").write_text(dumps(counts))
        args += ["--counts", str(tmp_path / "m.counts")]
    return run_cli(*args)


def test_cli_surgery_filling_reference_reads_exact(tmp_path):
    # the well-formed documents the refusals below alter
    code, out = _surgery_sh(tmp_path, _FILLING)
    assert code == 0 and "verdict: EXACT" in out, out
    tau = {"orbit": "h", "component": 1, "coeff": 1}
    code, out = _surgery_sh(tmp_path, _FILLING, {**_COUNTS, "orbit_tau": [tau]})
    assert code == 0 and "verdict: EXACT" in out, out


def test_cli_surgery_duplicate_morse_label_exit_2(tmp_path):
    # a second p used to add a phantom generator: rank 2 in degree 2, not 1
    morse = _FILLING["morse"] * 2
    code, out = _surgery_sh(tmp_path, {**_FILLING, "morse": morse})
    assert code == 2 and "$.morse[1]: duplicate Morse label p" in out, out


def test_cli_surgery_morse_tau_unknown_label_exit_2(tmp_path):
    tau = [{"morse": "q", "component": 1, "coeff": 1}]
    code, out = _surgery_sh(tmp_path, {**_FILLING, "morse_tau": tau})
    assert code == 2 and "$.morse_tau[0]: unknown Morse label 'q'" in out, out


def test_cli_surgery_morse_tau_component_outside_the_dga_exit_2(tmp_path):
    tau = [{"morse": "p", "component": 9, "coeff": 1}]
    code, out = _surgery_sh(tmp_path, {**_FILLING, "morse_tau": tau})
    assert code == 2, out
    assert out.startswith(f"input error: {tmp_path / 'm.filling'}: "), out
    assert "names component 9 outside 1..1" in out and "None" not in out


def test_cli_surgery_orbit_tau_component_outside_the_dga_exit_2(tmp_path):
    tau = [{"orbit": "h", "component": 9, "coeff": 1}]
    code, out = _surgery_sh(tmp_path, _FILLING, {**_COUNTS, "orbit_tau": tau})
    assert code == 2, out
    assert out.startswith(f"input error: {tmp_path / 'm.counts'}: "), out
    assert "names component 9 outside 1..1" in out


# (document, table, the key fields of one entry the reference documents accept)
DUPLICATED_ENTRIES = [
    ("filling", "orbit_differential", {"from": "g1", "to": "h"}),
    ("filling", "bott", {"from": "g1", "to": "h"}),
    ("filling", "to_morse", {"orbit": "g1", "morse": "p"}),
    ("filling", "morse_differential", {"from": "p", "to": "p"}),
    ("filling", "morse_tau", {"morse": "p", "component": 1}),
    ("counts", "mixed_cyclic", {"orbit": "g1", "word": ["a", "a"]}),
    ("counts", "check", {"orbit": "g1", "word": ["a", "a"]}),
    ("counts", "hat", {"orbit": "g1", "word": ["a"]}),
    ("counts", "orbit_tau", {"orbit": "h", "component": 1}),
]


@pytest.mark.parametrize(
    "kind,table,key", DUPLICATED_ENTRIES, ids=[t for _, t, _ in DUPLICATED_ENTRIES]
)
def test_cli_surgery_duplicate_table_entry_exit_2(tmp_path, kind, table, key):
    # a repeated key used to overwrite the first entry without a word
    entries = [{**key, "coeff": "0"}, {**key, "coeff": "0"}]
    if kind == "filling":
        code, out = _surgery_sh(tmp_path, {**_FILLING, table: entries})
    else:
        code, out = _surgery_sh(tmp_path, _FILLING, {**_COUNTS, table: entries})
    assert code == 2, out
    assert f"$.{table}[1]: duplicate of $.{table}[0]" in out, out


@pytest.mark.parametrize(
    "table,fields",
    [("mixed_cyclic", {"word": ["a", "a"]}), ("check", {"word": ["a", "a"]}),
     ("hat", {"word": ["a"]}), ("orbit_tau", {"component": 1})],
    ids=["mixed_cyclic", "check", "hat", "orbit_tau"],
)
def test_cli_surgery_count_from_an_orbit_the_filling_lacks_exit_2(tmp_path, table, fields):
    # such a count used to be dropped without a word
    counts = {**_COUNTS, table: [{"orbit": "zz", **fields, "coeff": "1"}]}
    code, out = _surgery_sh(tmp_path, _FILLING, counts)
    assert code == 2, out
    assert out.startswith(f"input error: {tmp_path / 'm.counts'}: "), out
    assert "count from zz: the filling has no such orbit" in out, out


# two components: a on component 1, and b and c from component 1 to 2, so
# no word of b or c alone closes up
_TWO_COMPONENTS = {
    "format": "dga/1", "field": "Q", "components": 2, "ambient_dim": 2,
    "generators": [
        {"name": "a", "grading": 1, "src": 1, "dst": 1},
        {"name": "b", "grading": 2, "src": 1, "dst": 2},
        {"name": "c", "grading": 1, "src": 1, "dst": 2},
    ],
    "differential": {},
}


@pytest.mark.parametrize(
    "table,theory,word,kind",
    [("mixed_cyclic", "ch", "b", "mixed"), ("mixed_cyclic", "sh+", "b", "mixed"),
     ("check", "sh", "b", "check"), ("hat", "sh", "c", "hat")],
    ids=["mixed_cyclic-ch", "mixed_cyclic-sh+", "check", "hat"],
)
def test_cli_surgery_count_word_that_does_not_close_up_exit_2(tmp_path, table, theory, word, kind):
    # a mixed_cyclic one used to die with a traceback, and a check or hat
    # one to be dropped without a word
    (tmp_path / "d.json").write_text(dumps(_TWO_COMPONENTS))
    counts = {**_COUNTS, table: [{"orbit": "g1", "word": [word], "coeff": "1"}]}
    (tmp_path / "c.json").write_text(dumps(counts))
    args = [str(tmp_path / "d.json"), "--filling", "ball:2", "--theory", theory]
    code, out = run_cli("surgery", *args, "--counts", str(tmp_path / "c.json"))
    assert code == 2, out
    assert out == (
        f"input error: {tmp_path / 'c.json'}: "
        f"{kind} count g1 -> {word} is not cyclically composable\n"
    )


@pytest.mark.parametrize("label", ["zz", "g0", "g01", "g", "g1x"])
@pytest.mark.parametrize("table", ["mixed_cyclic", "check", "hat", "orbit_tau"])
def test_cli_surgery_ball_count_from_a_label_not_g_k_exit_2(tmp_path, table, label):
    # the built-in ball's orbits are g<k>, k >= 1; any other label used to
    # be dropped without a word
    fields = {"component": 1} if table == "orbit_tau" else {"word": ["a"]}
    (tmp_path / "c.json").write_text(
        dumps({"format": "counts/1", table: [{"orbit": label, **fields, "coeff": "1"}]})
    )
    args = ["unknot_n2", "--filling", "ball:2", "--theory", "sh", "--max-deg", "3"]
    code, out = run_cli("surgery", *args, "--counts", str(tmp_path / "c.json"))
    assert code == 2, out
    assert out == (
        f"input error: {tmp_path / 'c.json'}: count from {label}: the filling has no such orbit\n"
    )


def test_cli_surgery_ball_count_from_an_orbit_above_the_window_reads_exact(
    tmp_path, monkeypatch
):
    # g40 is an orbit of the ball above the window: accepted, and the ball
    # materializes no orbit past the window to say so
    (tmp_path / "c.json").write_text(
        dumps({"format": "counts/1", "check": [{"orbit": "g40", "word": ["a"], "coeff": "1"}]})
    )
    made = []
    ball = cli.builtin_ball_filling

    def recording_ball(n):
        model = ball(n)
        orbits_up_to = model.orbits_up_to
        model.orbits_up_to = lambda max_degree: made.append(max_degree) or orbits_up_to(max_degree)
        return model

    monkeypatch.setattr(cli, "builtin_ball_filling", recording_ball)
    args = ["unknot_n2", "--filling", "ball:2", "--theory", "sh", "--max-deg", "3"]
    code, out = run_cli("surgery", *args, "--counts", str(tmp_path / "c.json"))
    assert code == 0 and "verdict: EXACT" in out, out
    assert made and max(made) <= 3 + 2


@pytest.mark.parametrize("theory", ["ch", "sh+", "sh"])
def test_cli_surgery_filling_of_another_dimension_exit_2(theory):
    # the ball of dimension 3 on a DGA of ambient dimension 2 used to read EXACT
    code, out = run_cli("surgery", "unknot_n2", "--filling", "ball:3", "--theory", theory)
    assert code == 2, out
    assert out == "input error: ball:3: filling has n=3 but the DGA has ambient_dim 2\n"


@pytest.mark.parametrize("theory", ["ch", "sh+", "sh"])
def test_cli_surgery_ball_window_above_g64_prints_a_table(theory):
    # the ball's orbits go on for every k; a window reaching past g64
    # (degree 130 on ball:3) used to be refused
    args = ("surgery", "unknot", "--filling", "ball:3", "--theory", theory, "--max-len", "1")
    code, out = run_cli(*args, "--max-deg", "140")
    assert code == 0 and "verdict:" in out, out
    assert out.rstrip().splitlines()[-1].split()[0] == "140", out


@pytest.mark.parametrize("complex,enough", [("cyc", 8), ("hoplus", 8), ("ho", 8), ("mcyc", 9)])
def test_cli_max_len_far_beyond_the_window_prints_the_same_table(complex, enough):
    # the unknot's window 0..8 is EXACT from --max-len 8 on (9 with the mark
    # of mcyc), so a larger --max-len cannot change its table; the prefix
    # pruning used to test every remaining length, a cost linear in --max-len
    want = run_cli("homology", "unknot", "--complex", complex, "--max-len", str(enough))
    assert want[0] == 0 and "verdict: EXACT" in want[1], want
    assert run_cli("homology", "unknot", "--complex", complex, "--max-len", str(10**12)) == want


_CHEKANOV_EPS = {"a7": "1", "a8": "-1", "a9": "1"}


def _chekanov_lin(tmp_path, *window: str):
    path = tmp_path / "eps.aug"
    path.write_text(dumps({"format": "augmentation/1", "values": _CHEKANOV_EPS}))
    return run_cli(
        "homology", "chekanov_a", "--complex", "lin", "--augmentation", str(path), *window
    )


def test_cli_linearized_homology_reads_an_augmentation(tmp_path):
    from chordhom.dga import Augmentation, linearize
    from chordhom.homology import BettiTable, betti

    code, out = _chekanov_lin(tmp_path, "--min-deg", "-2", "--max-deg", "2")
    dga = dga_from_document(example_document("chekanov_a"))
    table = betti(linearize(dga, Augmentation({k: Fraction(v) for k, v in _CHEKANOV_EPS.items()})))
    assert code == 0
    window = {d: table.rank(d) for d in range(-2, 3)}
    assert out == betti_to_text(BettiTable(window, frozenset(), table.verdict), (-2, 2))


@pytest.mark.parametrize("lo,hi", [(-2, 2), (0, 0), (5, 9), (-4, -1)])
def test_cli_linearized_homology_prints_the_requested_degrees(tmp_path, lo, hi):
    # the linearized complex holds every generator, so each requested degree
    # is exact (rank 0 without generators) and none is flagged as an edge
    code, out = _chekanov_lin(tmp_path, "--min-deg", str(lo), "--max-deg", str(hi))
    ranks = {-2: 1, -1: 0, 0: 0, 1: 1, 2: 1}
    assert code == 0
    assert "edge" not in out
    rows = [line.split() for line in out.splitlines()[2:]]
    assert rows == [[str(d), str(ranks.get(d, 0))] for d in range(lo, hi + 1)]


@pytest.mark.parametrize(
    "dga,values,name",
    [
        ("unknot", {"zz": "5"}, "zz"),
        ("unknot", {"zz": "0"}, "zz"),
        ("chekanov_a", {**_CHEKANOV_EPS, "a5": "7"}, "a5"),
    ],
    ids=["unknown-name", "zero-on-unknown-name", "grading-2-chord"],
)
def test_cli_augmentation_off_grading_0_chords_exit_2(tmp_path, dga, values, name):
    path = tmp_path / "bad.aug"
    path.write_text(dumps({"format": "augmentation/1", "values": values}))
    code, out = run_cli("homology", dga, "--complex", "lin", "--augmentation", str(path))
    assert code == 2 and f"augmentation value on {name!r}" in out, out


@pytest.mark.parametrize(
    "args,message",
    [
        (("homology", "unknot", "--complex", "cyc", "--max-len", "-1"), "--max-len -1"),
        ((*_SURGERY_CH, "--filling", "ball:3", "--max-len", "-2"), "--max-len -2"),
        (
            ("homology", "unknot", "--complex", "ho", "--min-deg", "5", "--max-deg", "2"),
            "--min-deg 5 exceeds --max-deg 2",
        ),
        (
            ("lefschetz", "lefschetz_min", "--t-order", "1", "--emit", "hochschild",
             "--min-deg", "3", "--max-deg", "0"),
            "--min-deg 3 exceeds --max-deg 0",
        ),
        ((*_SURGERY_CH, "--filling", "empty:0"), "'empty:0': filling model needs n >= 2"),
        (("examples", "emit", "no_such"), "input error: unknown example 'no_such'\n"),
        (("examples", "emit"), "examples emit needs a name"),
    ],
    ids=["homology-negative-max-len", "surgery-negative-max-len", "reversed-window",
         "lefschetz-reversed-window", "empty-filling-n0", "examples-emit-unknown-name",
         "examples-emit-without-a-name"],
)
def test_cli_bad_flags_exit_2(args, message):
    code, out = run_cli(*args)
    assert code == 2 and message in out
    assert out.count("\n") == 1  # one line, and no table


@pytest.mark.parametrize("values", ["abc", "1/0,1"])
def test_cli_augmentations_bad_values_exit_2(values):
    code, out = run_cli("augmentations", "chekanov_a", f"--values={values}")
    assert code == 2 and "bad value list" in out


@pytest.mark.parametrize(
    "doc,emit",
    [
        (_with_fields(_AINF, components=0), "dga"),
        (_with_fields(_AINF, fiber_dim_param=1), "dictionary-check"),
    ],
    ids=["no-components", "fiber-dim-1"],
)
def test_cli_ainf_out_of_range_exit_2(tmp_path, doc, emit):
    path = tmp_path / "bad.ainf"
    path.write_text(dumps(doc))
    code, out = run_cli("lefschetz", str(path), "--t-order", "1", "--emit", emit)
    assert code == 2, out


@pytest.mark.parametrize("order", [None, ["b"]], ids=["no-order", "partial-order"])
def test_cli_n2_ainf_without_a_full_order_exit_2(tmp_path, order):
    doc = _with_fields(_AINF, components=2, fiber_dim_param=2, order=order, points=[
        {"name": "a", "grading": 0, "from": 1, "to": 2},
        {"name": "b", "grading": 0, "from": 1, "to": 2}])
    path = tmp_path / "bad.ainf"
    path.write_text(dumps(doc))
    code, out = run_cli("lefschetz", str(path), "--t-order", "1", "--emit", "dga")
    assert code == 2, out
    assert out.count("\n") == 1 and "$: " in out


_NO_INPUTS = _with_fields(
    _AINF,
    components=2,
    points=[{"name": "a", "grading": 0, "from": 1, "to": 2}],
    mu=[{"out": "m:1", "inputs": [], "coeff": "1"}],
)


def test_ainf_structure_constant_without_inputs_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        ainf_from_document(_NO_INPUTS)
    assert err.value.issues == [
        ("$.mu[0].inputs", "a structure constant needs at least one input")
    ]


@pytest.mark.parametrize("emit", ["dga", "hochschild", "dictionary-check"])
def test_cli_ainf_structure_constant_without_inputs_exit_2(tmp_path, emit):
    path = tmp_path / "bad.ainf"
    path.write_text(dumps(_NO_INPUTS))
    code, out = run_cli("lefschetz", str(path), "--t-order", "2", "--emit", emit)
    assert code == 2, out
    assert out.count("\n") == 1 and "$.mu[0].inputs: " in out


@pytest.mark.parametrize("emit", ["dga", "hochschild", "dictionary-check"])
def test_cli_lefschetz_negative_t_order_exit_2(emit):
    code, out = run_cli("lefschetz", "lefschetz_min", "--t-order", "-1", "--emit", emit)
    assert code == 2 and "--t-order -1" in out


@pytest.mark.parametrize(
    "word,message",
    [
        (["zz"], "unknown generator 'zz'"),  # unit knot: one chord a of grading 2
        (["a"], "violates |gamma|-|w|=1"),  # g1 of ball:3 has grading 4
        ([1], "expected a nonempty list of generator names"),
    ],
    ids=["unknown-generator", "degree-rule", "non-string-letter"],
)
def test_cli_surgery_bad_count_word_exit_2(tmp_path, word, message):
    path = tmp_path / "bad.counts"
    path.write_text(dumps({**_COUNTS, "check": [{"orbit": "g1", "word": word, "coeff": "1"}]}))
    code, out = run_cli(*_SURGERY_CH, "--filling", "ball:3", "--counts", str(path))
    assert code == 2 and message in out


def test_cli_entrypoint_subprocess():
    # the child imports chordhom from where this process found it
    package_root = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "chordhom.cli", "examples", "list"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "unknot" in proc.stdout
