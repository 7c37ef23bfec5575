"""Totality probe: mutated bundled documents through the command line.

Every bundled document is mutated at one place: a value replaced by one of
REPLACEMENTS, an object key deleted, a list entry repeated or an integer
shifted by one.  Each mutant runs in-process through cli.main on every
command that takes its format.  Whatever the mutant holds, main must
return 0, 1 or 2 with no exception escaping, and a validate run that
exits 2 must name a JSON path ($...) or the parser's line and column.
The mutants are drawn from every possible one with a fixed seed, plus an
explicit list, so the cases are the same on every run.
"""

from __future__ import annotations

import copy
import io
import random
import re
from contextlib import redirect_stderr, redirect_stdout

from chordhom import cli
from chordhom.documents import dumps
from chordhom.examples import example_document, example_names

REPLACEMENTS = [
    None, 1, -1, 0, 10**6, "x", "1/0", "e_0", "e_99", [], [["a1"]], {}, {"x": 1}, 1.5, True,
]

# mutants drawn per document, from every mutant of it
PER_DOCUMENT = 32
SEED = 21

_WINDOW = ["--max-deg", "3", "--max-len", "3"]
_COMPLEXES = ["lin", "cyc", "hoplus", "ho", "mcyc"]
_THEORIES = ["ch", "sh+", "sh"]

# mutants that every run includes: (document, path, mutation).  Neither
# this list nor the seeded draws set an ainf/1 document's components to
# 10**6: the vanishing-cycle pipeline costs about 20 kB and 0.3 ms per
# component, so that input runs for minutes through gigabytes until a size
# plan refuses it before the build.
EXPLICIT = [
    ("chekanov_a", ("differential", "a1", 1, "word"), ("set", [["a1"]])),
    ("chekanov_a", ("differential", "a1", 1, "word"), ("set", [{"x": 1}])),
    ("chekanov_phi", ("assignment", "a6", 0, "word"), ("set", [["a1"]])),
    ("chekanov_phi", ("assignment",), ("set", {"x": 1})),
    ("lefschetz_min", ("points", 0), ("repeat",)),
    ("lefschetz_min", ("points", 0, "to"), ("set", 10**6)),
    ("unknot", ("components",), ("set", 10**6)),
]


def _positions(node, path=()):
    """The path of every value below node, parents before children."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _positions(child, path + (key,))


def _mutations(value, parent) -> list[tuple]:
    out = [("set", r) for r in REPLACEMENTS]
    out.append(("delete",) if isinstance(parent, dict) else ("repeat",))
    if isinstance(value, int) and not isinstance(value, bool):
        out += [("shift", 1), ("shift", -1)]
    return out


def _parent(doc: dict, path: tuple):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _every_mutant(doc: dict) -> list[tuple]:
    out = []
    for path in _positions(doc):
        parent = _parent(doc, path)
        out += [(path, m) for m in _mutations(parent[path[-1]], parent)]
    return out


def _apply(doc: dict, path: tuple, mutation: tuple) -> dict:
    doc = copy.deepcopy(doc)
    parent, key = _parent(doc, path), path[-1]
    if mutation[0] == "set":
        parent[key] = copy.deepcopy(mutation[1])
    elif mutation[0] == "delete":
        del parent[key]
    elif mutation[0] == "repeat":
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key] += mutation[1]
    return doc


def _commands(fmt: str, case: int) -> list[list[str]]:
    """The command lines that read a document of format fmt; case picks
    the complex and the theory, so the draws spread over all of them."""
    if fmt == "dga/1":
        return [
            ["validate"],
            ["homology", "--complex", _COMPLEXES[case % 5], *_WINDOW],
            ["surgery", "--filling", "ball:2", "--theory", _THEORIES[case % 3], *_WINDOW],
            ["augmentations", "--values=-1,0,1"],
        ]
    if fmt == "morphism/1":
        return [["morphism"]]
    assert fmt == "ainf/1", fmt
    return [
        ["lefschetz", "--t-order", "2", "--emit", emit, *_WINDOW]
        for emit in ("dga", "hochschild", "dictionary-check")
    ]


def _cases() -> list[tuple]:
    rng = random.Random(SEED)
    cases = list(EXPLICIT)
    for name in example_names():
        every = _every_mutant(example_document(name))
        cases += [(name, path, m) for path, m in rng.sample(every, min(PER_DOCUMENT, len(every)))]
    return cases


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


_PLACE = re.compile(r"\$|line \d+, column \d+")


def test_mutated_documents_end_in_an_exit_code(tmp_path):
    failures = []
    for case, (name, path, mutation) in enumerate(_cases()):
        doc = example_document(name)
        mutant = tmp_path / f"mutant{case}.json"
        mutant.write_text(dumps(_apply(doc, path, mutation)))
        for command in _commands(doc["format"], case):
            argv = [command[0], str(mutant), *command[1:]]
            where = f"{name} {path} {mutation}: chordhom {' '.join(argv)}"
            try:
                code, out = _run(argv)
            except Exception as exc:  # noqa: BLE001 - any escape is the finding
                failures.append(f"{where}: {type(exc).__name__}: {exc}")
                continue
            if code not in (0, 1, 2):
                failures.append(f"{where}: exit {code}")
            elif command[0] == "validate" and code == 2 and not _PLACE.search(out):
                failures.append(f"{where}: exit 2 without a path: {out.strip()}")
    assert not failures, "\n".join(failures[:20])


def test_the_draws_reach_every_kind_of_mutation_and_format():
    cases = _cases()
    assert {m[0] for _, _, m in cases} == {"set", "delete", "repeat", "shift"}
    assert {example_document(name)["format"] for name, _, _ in cases} == {
        "dga/1", "morphism/1", "ainf/1"
    }
    assert ("chekanov_a", ("differential", "a1", 1, "word"), ("set", [["a1"]])) in cases
