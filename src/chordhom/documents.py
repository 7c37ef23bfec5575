"""Strict, versioned document formats and the bundled example corpus.

Documents are JSON with exact rational coefficients written as strings
(for example "-3/2"); floating point numbers are rejected.  Emission is canonical
(sorted keys, fixed separators, trailing newline) so parse-emit round
trips are byte-identical on canonical input.  A key repeated in one
object is refused.  Schema errors carry JSON paths; syntax errors carry
the parser's line and column.
"""

from __future__ import annotations

import json
from collections import defaultdict
from fractions import Fraction
from typing import Any

from .algebra import BaseRing, Element, Generator, Word
from .dga import Augmentation, DGAMorphism, DGASpec
from .homology import BettiTable
from .lefschetz import DirectedAinfSpec
from .surgery import FillingModel, Orbit, SurgeryCountTable


class ParseError(ValueError):
    def __init__(self, issues: list[tuple[str, str]]):
        self.issues = issues
        super().__init__("; ".join(f"{path}: {msg}" for path, msg in issues))


def _fail(path: str, msg: str):
    raise ParseError([(path, msg)])


def _rational(value, path: str) -> Fraction:
    if isinstance(value, float):
        _fail(path, "floating point is not accepted; write rationals as strings")
    if isinstance(value, bool):
        _fail(path, "expected a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.replace("−", "-"))
        except (ValueError, ZeroDivisionError):
            pass
    _fail(path, f"not a rational: {value!r}")


def _canonical_int(text: str) -> int | None:
    """The integer text writes in canonical ASCII form, else None; int()
    alone reads "1_0", " 3" and non-ASCII digits too."""
    try:
        value = int(text)
    except ValueError:
        return None
    return value if str(value) == text else None


def _require(doc: dict, key: str, typ, path: str):
    if not isinstance(doc, dict):
        _fail(path, "expected an object")
    if key not in doc:
        _fail(f"{path}.{key}", "missing field")
    v = doc[key]
    if typ is int and isinstance(v, bool):
        _fail(f"{path}.{key}", "expected an integer")
    if not isinstance(v, typ):
        if isinstance(v, float):
            _fail(
                f"{path}.{key}",
                "floating point is not accepted; write rationals as strings",
            )
        names = (
            typ.__name__
            if isinstance(typ, type)
            else "/".join(t.__name__ for t in typ)
        )
        _fail(f"{path}.{key}", f"expected {names}")
    return v


def _optional(doc: dict, key: str, typ, path: str, default):
    """An optional field, type-checked as _require does; default when absent."""
    if isinstance(doc, dict) and key not in doc:
        return default
    return _require(doc, key, typ, path)


def _named(entries: list, key: str, field: str, noun: str):
    """Walk the list of objects at $.<key>, each named by the string in
    field: yields (path, entry, name) and refuses a repeated name."""
    seen = set()
    for idx, entry in enumerate(entries):
        path = f"$.{key}[{idx}]"
        name = _require(entry, field, str, path)
        if name in seen:
            _fail(path, f"duplicate {noun} {name}")
        seen.add(name)
        yield path, entry, name


def _format(doc: dict, tag: str) -> None:
    fmt = _require(doc, "format", str, "$")
    if fmt != tag:
        _fail("$.format", f"unsupported format {fmt!r}")


def _object(pairs: list) -> dict:
    """A JSON object whose keys are all distinct: json itself would keep
    the last value of a repeated key."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
        _fail("$", f"key {key!r} is repeated in an object")
    return obj


def loads(text: str) -> dict:
    try:
        doc = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ParseError([(f"line {exc.lineno}, column {exc.colno}", exc.msg)])
    if not isinstance(doc, dict):
        raise ParseError([("$", "document must be an object")])
    return doc


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


# ---- chord DGA documents ------------------------------------------------------


def dga_from_document(doc: dict, allow_partial: bool = False) -> DGASpec:
    _format(doc, "dga/1")
    field_tag = _require(doc, "field", str, "$")
    if field_tag != "Q":
        _fail("$.field", "only the rationals are supported")
    k = _require(doc, "components", int, "$")
    n = _require(doc, "ambient_dim", int, "$")
    gens = []
    entries = _require(doc, "generators", list, "$")
    for path, g, name in _named(entries, "generators", "name", "generator"):
        ports = (_optional(g, end, int, path, 1) for end in ("src", "dst"))
        gens.append(Generator(name, _require(g, "grading", int, path), *ports))
    names = {g.name for g in gens}
    meta = _optional(doc, "metadata", dict, "$", {})
    partial = bool(meta.get("partial"))
    if partial and not allow_partial:
        _fail(
            "$.metadata.partial",
            "partial document: differentials are incomplete; "
            "only the unit-differential property is usable",
        )
    diff_doc = _require(doc, "differential", dict, "$")
    differential: dict[str, Element] = {}
    for name, terms in diff_doc.items():
        path = f"$.differential.{name}"
        if name not in names:
            _fail(path, f"unknown generator {name}")
        differential[name] = _element_from_terms(terms, names, k, path)
    try:
        return DGASpec(
            ring=BaseRing(k),
            generators=gens,
            differential=differential,
            ambient_dim=n,
            meta=dict(meta),
        )
    except (ValueError, KeyError) as exc:
        raise ParseError([("$", str(exc))])


def dga_to_document(dga: DGASpec) -> dict:
    gens = [
        {"name": g.name, "grading": g.grading, "src": g.src, "dst": g.dst}
        for g in dga.generators
    ]
    diff: dict[str, list] = {}
    for g in dga.generators:
        el = dga.d_gen(g.name)
        if el.is_zero():
            continue
        terms = []
        for w, c in el.items():
            word: Any = f"e_{w.comp}" if w.is_idem else list(w.letters)
            terms.append({"coeff": str(c), "word": word})
        diff[g.name] = terms
    meta = {k: v for k, v in dga.meta.items() if not k.startswith("_")}
    return {
        "format": "dga/1",
        "field": "Q",
        "components": dga.ring.k,
        "ambient_dim": dga.ambient_dim,
        "generators": gens,
        "differential": diff,
        "metadata": _plain(meta),
    }


def _plain(value):
    """Restrict metadata to JSON-serializable scalars and containers."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items() if _is_plain(v)}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value if _is_plain(v)]
    return value


def _is_plain(v) -> bool:
    return isinstance(v, (str, int, bool, list, tuple, dict)) or v is None


# ---- filling and count documents ----------------------------------------------


def _table(doc: dict, key: str, *fields: tuple) -> dict:
    """The optional table key of a filling/1 or counts/1 document: a list of
    entries, each with the key fields and a rational "coeff", read as
    {key: coeff}.  A field is (name, type, labels, noun): a str field with
    labels must name one of them (an unknown one is reported by the noun),
    and a list field is a word, a nonempty list of names kept as a tuple.
    A repeated key is refused."""
    out: dict = {}
    first: dict = {}
    for idx, e in enumerate(_optional(doc, key, list, "$", [])):
        path = f"$.{key}[{idx}]"
        parts = []
        for name, typ, labels, noun in fields:
            v = _require(e, name, typ, path)
            if typ is list:
                if not v or not all(isinstance(x, str) for x in v):
                    _fail(f"{path}.{name}", "expected a nonempty list of generator names")
                v = tuple(v)
            elif labels is not None and v not in labels:
                _fail(path, f"unknown {noun} {v!r}")
            parts.append(v)
        k = tuple(parts)
        if k in first:
            _fail(path, f"duplicate of $.{key}[{first[k]}]")
        first[k] = idx
        out[k] = _rational(_require(e, "coeff", (str, int), path), f"{path}.coeff")
    return out


def _label(name: str, labels: set[str] | None = None, noun: str = "label") -> tuple:
    return (name, str, labels, noun)


_COMPONENT = ("component", int, None, "")
_WORD = ("word", list, None, "")


def filling_from_document(doc: dict) -> FillingModel:
    _format(doc, "filling/1")
    n = _require(doc, "n", int, "$")
    orbits = []
    entries = _optional(doc, "orbits", list, "$", [])
    for path, o, label in _named(entries, "orbits", "label", "orbit"):
        multiplicity = _optional(o, "multiplicity", int, path, 1)
        if multiplicity < 1:
            _fail(f"{path}.multiplicity", "expected a positive integer")
        orbits.append(
            Orbit(
                label=label,
                grading=_require(o, "grading", int, path),
                multiplicity=multiplicity,
                bad=_optional(o, "bad", bool, path, False),
            )
        )
    entries = _optional(doc, "morse", list, "$", [])
    morse = [
        (label, _require(p, "grading", int, path))
        for path, p, label in _named(entries, "morse", "label", "Morse label")
    ]
    labels = {o.label for o in orbits}
    morse_labels = {label for label, _ in morse}
    orbit = (_label("from", labels), _label("to", labels))
    point = (_label("from", morse_labels), _label("to", morse_labels))
    tables = dict(
        orbit_diff=_table(doc, "orbit_differential", *orbit),
        bott_diff=_table(doc, "bott", *orbit),
        to_morse=_table(doc, "to_morse", _label("orbit", labels), _label("morse", morse_labels)),
        morse_diff=_table(doc, "morse_differential", *point),
        morse_tau=_table(
            doc, "morse_tau", _label("morse", morse_labels, "Morse label"), _COMPONENT
        ),
    )
    _optional(doc, "metadata", dict, "$", {})
    try:
        return FillingModel(n=n, orbits=orbits, morse=morse, **tables)
    except ValueError as exc:
        raise ParseError([("$.n", str(exc))])


def counts_from_document(doc: dict) -> SurgeryCountTable:
    _format(doc, "counts/1")
    orbit = _label("orbit")
    counts = SurgeryCountTable(
        mixed_cyc=_table(doc, "mixed_cyclic", orbit, _WORD),
        ncheck=_table(doc, "check", orbit, _WORD),
        nhat=_table(doc, "hat", orbit, _WORD),
        orbit_tau=_table(doc, "orbit_tau", orbit, _COMPONENT),
    )
    _optional(doc, "metadata", dict, "$", {})
    return counts


# ---- directed A-infinity documents ---------------------------------------------


def _symref(token: str, path: str, point_names: set[str], k: int):
    if ":" not in token:
        _fail(path, f"bad symbol reference {token!r}")
    kind, _, rest = token.partition(":")
    if kind in ("e", "m"):
        comp = _canonical_int(rest)
        if comp is None:
            _fail(path, f"bad component in {token!r}")
        if not 1 <= comp <= k:
            _fail(path, f"component out of range in {token!r}")
        return (kind, comp)
    if kind in ("f", "b"):
        if rest not in point_names:
            _fail(path, f"unknown point in {token!r}")
        return (kind, rest)
    _fail(path, f"bad symbol kind in {token!r}")


def ainf_from_document(doc: dict) -> DirectedAinfSpec:
    _format(doc, "ainf/1")
    k = _require(doc, "components", int, "$")
    n = _require(doc, "fiber_dim_param", int, "$")
    entries = _optional(doc, "points", list, "$", [])
    points = [
        (name, *(_require(p, key, int, path) for key in ("grading", "from", "to")))
        for path, p, name in _named(entries, "points", "name", "point")
    ]
    names = {p[0] for p in points}
    mu = []
    for idx, m in enumerate(_optional(doc, "mu", list, "$", [])):
        path = f"$.mu[{idx}]"
        out = _symref(_require(m, "out", str, path), f"{path}.out", names, k)
        inputs = tuple(
            _symref(t, f"{path}.inputs[{i}]", names, k)
            for i, t in enumerate(_require(m, "inputs", list, path))
        )
        if not inputs:
            _fail(f"{path}.inputs", "a structure constant needs at least one input")
        coeff = _rational(_require(m, "coeff", (str, int), path), f"{path}.coeff")
        mu.append((out, inputs, coeff))
    order = _optional(doc, "order", (list, type(None)), "$", None)
    for idx, nm in enumerate(order or []):
        if not isinstance(nm, str) or nm not in names:
            _fail(f"$.order[{idx}]", f"unknown point {nm!r}")
        if (first := order.index(nm)) < idx:
            _fail(f"$.order[{idx}]", f"duplicate of $.order[{first}]")
    _optional(doc, "metadata", dict, "$", {})
    try:
        return DirectedAinfSpec(k=k, n=n, points=points, mu=mu, order=order)
    except ValueError as exc:
        raise ParseError([("$", str(exc))])


# ---- morphism and augmentation documents ---------------------------------------


def _element_from_terms(terms, names: set[str], k: int, path: str) -> Element:
    """An element from a list of {"coeff", "word"} terms.  A word is a
    nonempty list of generator names or the unit e_<i> of a component
    1 <= i <= k."""
    if not isinstance(terms, list):
        _fail(path, "expected a list of terms")
    acc: dict[Word, Fraction] = defaultdict(Fraction)
    for idx, term in enumerate(terms):
        tpath = f"{path}[{idx}]"
        coeff = _rational(_require(term, "coeff", (str, int), tpath), f"{tpath}.coeff")
        word = term.get("word")
        if isinstance(word, str):
            if not word.startswith("e_"):
                _fail(f"{tpath}.word", "unit words are written e_<component>")
            comp = _canonical_int(word[2:])
            if comp is None or not 1 <= comp <= k:
                _fail(f"{tpath}.word", f"bad unit word {word!r}: components are 1..{k}")
            w = Word.idem(comp)
        elif isinstance(word, list):
            if not word:
                _fail(f"{tpath}.word", "empty word lists are not allowed; use e_i")
            for letter in word:
                if letter not in names:
                    _fail(f"{tpath}.word", f"unknown generator {letter!r}")
            w = Word.of(word)
        else:
            _fail(f"{tpath}.word", "expected a list of names or e_<component>")
        acc[w] += coeff
    return Element(acc)


def morphism_from_document(doc: dict) -> DGAMorphism:
    from .examples import example_document

    _format(doc, "morphism/1")

    def side(key: str) -> DGASpec:
        sub = _require(doc, key, dict, "$")
        if "example" in sub:
            name = _require(sub, "example", str, f"$.{key}")
            try:
                sub = example_document(name)
            except KeyError:
                _fail(f"$.{key}.example", f"no bundled example {name!r}")
        return dga_from_document(sub)

    source = side("source")
    target = side("target")
    target_names = {g.name for g in target.generators}
    assignment = {}
    for name, terms in _require(doc, "assignment", dict, "$").items():
        if name not in {g.name for g in source.generators}:
            _fail(f"$.assignment.{name}", "unknown source generator")
        assignment[name] = _element_from_terms(
            terms, target_names, target.ring.k, f"$.assignment.{name}"
        )
    try:
        return DGAMorphism(source=source, target=target, assignment=assignment)
    except ValueError as exc:
        raise ParseError([("$", str(exc))])


def augmentation_from_document(doc: dict) -> Augmentation:
    _format(doc, "augmentation/1")
    values = {}
    for name, v in _require(doc, "values", dict, "$").items():
        values[name] = _rational(v, f"$.values.{name}")
    return Augmentation(values=values)


# ---- Betti table reports -------------------------------------------------------


def betti_to_document(table: BettiTable, window: tuple[int, int] | None = None) -> dict:
    lo, hi = window if window else (min(table.ranks), max(table.ranks))
    return {
        "format": "betti/1",
        "ranks": {str(d): table.rank(d) for d in range(lo, hi + 1)},
        "flagged": sorted(d for d in table.flagged if lo <= d <= hi),
        "verdict": table.verdict,
    }


def betti_from_document(doc: dict) -> BettiTable:
    _format(doc, "betti/1")
    ranks = {}
    for key, v in _require(doc, "ranks", dict, "$").items():
        if isinstance(v, bool) or not isinstance(v, int):
            _fail(f"$.ranks.{key}", "ranks are integers")
        degree = _canonical_int(key)
        if degree is None:
            _fail(f"$.ranks.{key}", "degrees are integers")
        ranks[degree] = v
    flagged = _optional(doc, "flagged", list, "$", [])
    for idx, d in enumerate(flagged):
        if isinstance(d, bool) or not isinstance(d, int):
            _fail(f"$.flagged[{idx}]", "flagged degrees are integers")
    return BettiTable(
        ranks=ranks,
        flagged=frozenset(flagged),
        verdict=_optional(doc, "verdict", str, "$", "EXACT"),
    )


def betti_to_text(table: BettiTable, window: tuple[int, int] | None = None) -> str:
    lo, hi = window if window else (min(table.ranks), max(table.ranks))
    lines = []
    if table.verdict != "EXACT":
        lines.append(f"*** verdict: {table.verdict} — ranks are lower bounds on the window ***")
    else:
        lines.append("verdict: EXACT")
    lines.append(f"{'degree':>8} {'rank':>6}  {'':2}")
    for d in range(lo, hi + 1):
        flag = "edge" if d in table.flagged else ""
        lines.append(f"{d:>8} {table.rank(d):>6}  {flag:4}")
    return "\n".join(lines) + "\n"
