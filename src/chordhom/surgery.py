"""Surgery complexes assembled from a filling model, a chord DGA, and
tables of mixed counts: the orbit/cyclic complex, the decorated-orbit plus
check/hat complex, and the full complex with the Morse block.

All geometric counts enter as data.  The built-in ball model carries the
orbit family gamma^k of grading n-1+2k and multiplicity k, the connecting
arrows from the (k+1)-st minimum-decorated orbit to the k-th maximum-
decorated one, and a single Morse generator of grading n hit by the first
orbit; mixed counts default to zero.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Container, Mapping

from .algebra import ChordAlgebra, Word, rat
from .complexes import _chord_block, _s_terms, cyclic_class
from .dga import DGASpec
from .homology import EXACT, GradedChainComplex, _joined, build_complex


class CountGradingError(ValueError):
    """A count entry names what the DGA or the filling lacks, or violates
    its grading constraint."""


class FillingMismatchError(ValueError):
    """The filling model has another dimension than the DGA, or couples to
    a component the DGA lacks."""


@dataclass(frozen=True)
class Orbit:
    label: str
    grading: int
    multiplicity: int = 1
    bad: bool = False


@dataclass
class FillingModel:
    """Orbit and Morse data of a filling, with count tables keyed by
    generator labels."""

    n: int
    orbits: list[Orbit] = field(default_factory=list)
    morse: list[tuple[str, int]] = field(default_factory=list)
    orbit_diff: dict[tuple[str, str], Fraction] = field(default_factory=dict)
    bott_diff: dict[tuple[str, str], Fraction] = field(default_factory=dict)
    to_morse: dict[tuple[str, str], Fraction] = field(default_factory=dict)
    morse_diff: dict[tuple[str, str], Fraction] = field(default_factory=dict)
    morse_tau: dict[tuple[str, int], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"filling model needs n >= 2, got {self.n}")

    def has_orbit(self, label: str) -> bool:
        """Whether label names an orbit of the filling, at any degree."""
        return any(o.label == label for o in self.orbits)

    def orbits_up_to(self, max_degree: int) -> list[Orbit]:
        return [o for o in self.orbits if o.grading <= max_degree]


class BallFilling(FillingModel):
    """The ball model: orbits g<k> (k >= 1) of grading n-1+2k and
    multiplicity k, trivial orbit differential, connecting counts from the
    minimum-decorated g<k+1> to the maximum-decorated g<k>, one Morse
    generator of grading n, and the forced count from g1 onto it.  The
    orbits go on for every k, so they and their connecting counts are made
    up to the degree a build reads."""

    def has_orbit(self, label: str) -> bool:
        return re.fullmatch("g[1-9][0-9]*", label) is not None

    def orbits_up_to(self, max_degree: int) -> list[Orbit]:
        """g1..gK up to max_degree; a connecting count among them that the
        caller has not set reads 1."""
        top = (max_degree - self.n + 1) // 2
        for k in range(1, top):
            self.bott_diff.setdefault((f"g{k + 1}", f"g{k}"), Fraction(1))
        return [Orbit(f"g{k}", self.n - 1 + 2 * k, k) for k in range(1, top + 1)]


def builtin_ball_filling(n: int) -> FillingModel:
    """The ball model of dimension n (BallFilling)."""
    return BallFilling(n=n, morse=[("min", n)], to_morse={("g1", "min"): Fraction(1)})


def empty_filling(n: int) -> FillingModel:
    """No orbits and no Morse generators; surgery complexes reduce to the
    chord-side complexes."""
    return FillingModel(n=n)


@dataclass
class SurgeryCountTable:
    """Mixed counts feeding the surgery differentials.

    mixed_cyc holds the orbit-to-cyclic-class counts (divided by the class
    multiplicity in the orbit/cyclic block and by the orbit multiplicity in
    the hat block); ncheck and nhat feed the decorated blocks from
    minimum-decorated orbits; orbit_tau feeds the component classes.
    """

    mixed_cyc: dict[tuple[str, tuple[str, ...]], Fraction] = field(default_factory=dict)
    ncheck: dict[tuple[str, tuple[str, ...]], Fraction] = field(default_factory=dict)
    nhat: dict[tuple[str, tuple[str, ...]], Fraction] = field(default_factory=dict)
    orbit_tau: dict[tuple[str, int], Fraction] = field(default_factory=dict)

    @staticmethod
    def zero() -> "SurgeryCountTable":
        return SurgeryCountTable()

    def validate(self, orbits: list[Orbit], dga: DGASpec) -> None:
        """Raise CountGradingError on an entry whose word names a generator
        the DGA lacks or is not cyclically composable, a component-class
        entry outside the DGA's components, or an entry whose nonzero count
        from one of the orbits breaks its degree rule |gamma| - |w| = gap."""
        alg = dga.algebra
        orbit_grading = {o.label: o.grading for o in orbits}
        for table, kind, gap in (
            (self.mixed_cyc, "mixed", 1), (self.ncheck, "check", 1), (self.nhat, "hat", 2)
        ):
            for (g, w), c in table.items():
                unknown = [x for x in w if x not in alg.generators]
                if unknown:
                    raise CountGradingError(
                        f"count {g} -> {'.'.join(w)} names unknown generator {unknown[0]!r}"
                    )
                if not alg.cyclically_composable(Word.of(w)):
                    raise CountGradingError(
                        f"{kind} count {g} -> {'.'.join(w)} is not cyclically composable"
                    )
                if c and g in orbit_grading and (
                    orbit_grading[g] - sum(alg.grading[x] for x in w) != gap
                ):
                    raise CountGradingError(
                        f"{kind} count {g} -> {'.'.join(w)} violates |gamma|-|w|={gap}"
                    )
        for (g, j), c in self.orbit_tau.items():
            if j not in dga.ring.components:
                raise CountGradingError(
                    f"component-class count from {g} names component {j} outside 1..{dga.ring.k}"
                )
            if c and g in orbit_grading and orbit_grading[g] != 1:
                raise CountGradingError(
                    f"component-class count from {g} violates |gamma|=1"
                )


@dataclass
class CobordismCounts:
    """Count tables defining a degree-0 map between surgery complexes.

    The orbit blocks divide by the target multiplicity on minimum-decorated
    orbits and by the source multiplicity on maximum-decorated ones; the
    cyclic block divides by the class multiplicity.
    """

    orbit_orbit: dict[tuple[str, str], Fraction] = field(default_factory=dict)
    orbit_orbit_bott: dict[tuple[str, str], Fraction] = field(default_factory=dict)
    orbit_morse: dict[tuple[str, str], Fraction] = field(default_factory=dict)
    orbit_cyc: dict[tuple[str, tuple[str, ...]], Fraction] = field(default_factory=dict)
    orbit_check_word: dict[tuple[str, tuple[str, ...]], Fraction] = field(default_factory=dict)
    orbit_hat_word: dict[tuple[str, tuple[str, ...]], Fraction] = field(default_factory=dict)
    orbit_tau: dict[tuple[str, int], Fraction] = field(default_factory=dict)
    morse_morse: dict[tuple[str, str], Fraction] = field(default_factory=dict)


BAD_ORBIT_DOUBLING = Fraction(2)
# the label kinds of a filling's orbits and Morse generators
FILLING_KINDS = ("orb", "ochk", "ohat", "mrs")


def _by_source(tables: Mapping[str, Mapping]) -> dict:
    """Count tables by name as one index {(name, source): [(target, count)]}
    of their nonzero entries in table order, each count a Fraction (rat
    refuses a float); indexed once per build, a row is read without a scan."""
    rows: dict = defaultdict(list)
    for name, table in tables.items():
        for (a, b), c in table.items():
            if c:
                rows[name, a].append((b, rat(c)))
    return rows


def _orbit_row(
    label,
    tables: Mapping[tuple[str, str], list],
    target_kappa: Mapping[str, int],
    source_kappa: Mapping[str, int],
    algebra: ChordAlgebra | None,
    bad: Container[str] = (),
    rows: Mapping | None = None,
) -> dict:
    """The couplings of an orbit or Morse label, read off count tables, by
    target label; with rows, the row index of the degree below, by row,
    each target looked up once and left out when rows lacks it.

    tables indexes the CobordismCounts tables by their names (_by_source),
    and morse_tau for the Morse component-class counts.  Serves the surgery
    differentials (the filling's tables, one multiplicity map for both
    sides) and the cobordism maps.  Undecorated
    and minimum-decorated orbits divide the orbit block by the target
    multiplicity; maximum-decorated ones divide by the source multiplicity
    and spread the cyclic counts by the S operator.  A multiplicity missing
    from its map counts as 1.  A bad orbit doubles onto its minimum copy,
    and that copy reaches neither the Morse block nor the component classes.
    """
    kind, x = label[0], label[1]
    out: dict = defaultdict(Fraction)

    def row(table: str):
        return tables.get((table, x), ())

    def put(target, c) -> None:
        if (key := target if rows is None else rows.get(target)) is not None:
            out[key] += c

    cyc = row("orbit_cyc") if kind in ("orb", "ohat") else ()
    if cyc and algebra is None:
        raise ValueError("cyclic counts need the chord algebra")

    if kind in ("orb", "ochk"):
        for b, c in row("orbit_orbit"):
            put((kind, b), c / target_kappa.get(b, 1))
        if kind == "orb":
            for w, c in cyc:
                cls = cyclic_class(algebra, Word.of(w))
                put(("cyc", cls.representative), c * cls.sign / cls.multiplicity)
            return out
        for b, c in row("orbit_orbit_bott"):
            put(("ohat", b), c)
        for w, c in row("orbit_check_word"):
            put(("chk", w), c)
        for w, c in row("orbit_hat_word"):
            put(("hat", w), c)
        if x not in bad:
            for p, c in row("orbit_morse"):
                put(("mrs", p), c)
            for j, c in row("orbit_tau"):
                put(("tau", j), c)
    elif kind == "ohat":
        if x in bad:
            put(("ochk", x), BAD_ORBIT_DOUBLING)
        kappa = source_kappa.get(x, 1)
        for b, c in row("orbit_orbit"):
            put(("ohat", b), c / kappa)
        for w, c in cyc:
            for word, sign in _s_terms(algebra, w):
                put(("hat", word), c * sign / kappa)
    elif kind == "mrs":
        for q, c in row("morse_morse"):
            put(("mrs", q), c)
        for j, c in row("morse_tau"):
            put(("tau", j), c)
    return out


def _orbit_bases(
    orbits: list[Orbit], morse: list[tuple[str, int]], window: tuple[int, int], kind: str
) -> dict[int, list]:
    """A filling's labels by degree in the layout of a theory: the good
    orbits for lch and ch, a check and a hat copy of every orbit for shplus
    and sh, and the Morse generators for sh."""
    lo, hi = window
    bases: dict[int, list] = {}

    def add(degree: int, label) -> None:
        if lo - 1 <= degree <= hi + 1:
            bases.setdefault(degree, []).append(label)

    for o in orbits:
        if kind in ("shplus", "sh"):
            add(o.grading, ("ochk", o.label))
            add(o.grading + 1, ("ohat", o.label))
        elif not o.bad:
            add(o.grading, ("orb", o.label))
    if kind == "sh":
        for p, deg in morse:
            add(deg, ("mrs", p))
    return bases


def _surgery_complex(
    kind: str,
    filling: FillingModel,
    dga: DGASpec | None,
    counts: SurgeryCountTable,
    window: tuple[int, int],
    max_len: int,
) -> GradedChainComplex:
    """The surgery complex of a theory: the filling's block in the layout
    of kind, the chord complex that kind picks (cyc for lch, hoplus for
    shplus, ho for sh) with its kernel and verdict as complexes._chord_block
    gives them, and the count tables coupling them.  Checks that every
    count comes from an orbit of the filling, and the filling and the
    counts against the DGA, before the chord side is read, and binds the
    orbit row to the filling's and the counts' tables, each indexed by
    source once per build; the orbit row folds each cyclic count's word
    onto its class.  A degree's kernel joins the orbit rows, label by
    label, to the chord kernel's columns over the lcm of their
    denominators.  dga=None builds the filling's block alone."""
    orbits = filling.orbits_up_to(window[1] + 2)
    kappa = {o.label: o.multiplicity for o in orbits}
    bad = {o.label for o in orbits if o.bad}
    bases = _orbit_bases(orbits, filling.morse, window, kind)
    for g, _ in [*counts.mixed_cyc, *counts.ncheck, *counts.nhat, *counts.orbit_tau]:
        if not filling.has_orbit(g):
            raise CountGradingError(f"count from {g}: the filling has no such orbit")
    verdict, alg, chord_columns, cyc = EXACT, None, None, {}
    if dga is not None:
        if filling.n != dga.ambient_dim:
            raise FillingMismatchError(
                f"filling has n={filling.n} but the DGA has ambient_dim {dga.ambient_dim}"
            )
        counts.validate(orbits, dga)
        for p, j in filling.morse_tau:
            if j not in dga.ring.components:
                raise FillingMismatchError(
                    f"component-class count from Morse {p} names component {j} "
                    f"outside 1..{dga.ring.k}"
                )
        chord = {"lch": "cyc", "shplus": "hoplus", "sh": "ho"}[kind]
        chord_bases, chord_columns, verdict = _chord_block(chord, dga, window, max_len)
        for d, labels in chord_bases.items():
            bases.setdefault(d, []).extend(labels)
        alg, cyc = dga.algebra, counts.mixed_cyc
    tables = _by_source(dict(
        orbit_orbit=filling.orbit_diff,
        orbit_orbit_bott=filling.bott_diff,
        orbit_morse=filling.to_morse,
        orbit_cyc=cyc,
        orbit_check_word=counts.ncheck,
        orbit_hat_word=counts.nhat,
        orbit_tau=counts.orbit_tau,
        morse_morse=filling.morse_diff,
        morse_tau=filling.morse_tau,
    ))

    def columns(labels, rows) -> tuple[dict, int]:
        # the filling's labels lead each degree, each over its own denominator
        n = next((i for i, lab in enumerate(labels) if lab[0] not in FILLING_KINDS), len(labels))
        chord, den = chord_columns(labels[n:], rows) if n < len(labels) else ({}, 1)
        if not n:
            return chord, den
        orbit = [_orbit_row(label, tables, kappa, kappa, alg, bad, rows) for label in labels[:n]]
        return _joined(orbit, (chord, den))

    return build_complex(bases, columns, window, verdict)


def build_lch_surgery(
    filling: FillingModel,
    dga: DGASpec | None,
    counts: SurgeryCountTable,
    window: tuple[int, int],
    max_len: int = 8,
) -> GradedChainComplex:
    """Good orbits plus good cyclic classes, with the orbit differential
    divided by the target multiplicity and the mixed block divided by the
    cyclic multiplicity.  dga=None builds the orbit-only complex (no
    surgery locus)."""
    return _surgery_complex("lch", filling, dga, counts, window, max_len)


def build_shplus_surgery(
    filling: FillingModel,
    dga: DGASpec | None,
    counts: SurgeryCountTable,
    window: tuple[int, int],
    max_len: int = 8,
) -> GradedChainComplex:
    """Decorated orbits (bad ones included) plus the check/hat chord
    complex, with the stated block differential.  dga=None builds the
    orbit-only complex."""
    return _surgery_complex("shplus", filling, dga, counts, window, max_len)


def build_sh_surgery(
    filling: FillingModel,
    dga: DGASpec | None,
    counts: SurgeryCountTable,
    window: tuple[int, int],
    max_len: int = 8,
) -> GradedChainComplex:
    """The full complex: decorated orbits, the Morse block, the completed
    chord complex, and the coupling blocks.  dga=None builds the orbit and
    Morse part alone."""
    return _surgery_complex("sh", filling, dga, counts, window, max_len)


# ---- cobordism maps ----------------------------------------------------------


@dataclass
class ChainMapReport:
    mapping: dict
    defects: list

    @property
    def ok(self) -> bool:
        return not self.defects


def assemble_cobordism_map(
    counts: CobordismCounts,
    source: GradedChainComplex,
    target: GradedChainComplex,
    target_kappa: dict[str, int] | None = None,
    source_kappa: dict[str, int] | None = None,
    algebra: ChordAlgebra | None = None,
) -> ChainMapReport:
    """Assemble the block map and verify F d - d F = 0 on the window."""
    lo, hi = source.window
    tables = _by_source(vars(counts))
    mapping: dict = {}
    for d in range(lo - 1, hi + 2):
        for lab in source.labels(d):
            image = _orbit_row(lab, tables, target_kappa or {}, source_kappa or {}, algebra)
            mapping[lab] = {k: v for k, v in image.items() if v}

    tgt_index = {
        d: {lab: i for i, lab in enumerate(target.labels(d))}
        for d in target.basis
    }
    defects = []
    for d in range(lo, hi + 1):
        src_cols, src_den = source._integer(d)
        tgt_cols, tgt_den = target._integer(d)
        for col, lab in enumerate(source.labels(d)):
            # F(dx) - d(Fx)
            delta: dict = defaultdict(Fraction)
            for row, num in src_cols.get(col, {}).items():
                tlab = source.labels(d - 1)[row]
                coeff = Fraction(num, src_den)
                for out_lab, c in mapping.get(tlab, {}).items():
                    delta[out_lab] += coeff * c
            for out_lab, c in mapping.get(lab, {}).items():
                idx = tgt_index.get(d, {}).get(out_lab)
                if idx is None:
                    continue
                for row, num in tgt_cols.get(idx, {}).items():
                    delta[target.labels(d - 1)[row]] -= c * Fraction(num, tgt_den)
            defects.extend((d, lab, k, v) for k, v in delta.items() if v)
    return ChainMapReport(mapping=mapping, defects=defects)


# ---- the multiplicity-rescaling isomorphism ----------------------------------


def build_ch_complex(filling: FillingModel, window: tuple[int, int]) -> GradedChainComplex:
    """Orbit-only complex with each count divided by the multiplicity of
    its source orbit; build_lch_surgery without a DGA divides by the
    target's."""
    orbits = filling.orbits_up_to(window[1] + 2)
    kappa = {o.label: o.multiplicity for o in orbits}
    bases = _orbit_bases(orbits, filling.morse, window, "ch")
    tables = _by_source({"orbit_orbit": filling.orbit_diff})

    def columns(labels, rows) -> tuple[dict, int]:
        # the basis holds the good orbits only, so rows lacks the bad ones
        images = []
        for _, gamma in labels:
            out: dict = defaultdict(Fraction)
            for beta, c in tables.get(("orbit_orbit", gamma), ()):
                if (row := rows.get(("orb", beta))) is not None:
                    out[row] += c / kappa[gamma]
            images.append(out)
        return _joined(images)

    return build_complex(bases, columns, window, EXACT)


def verify_kappa_isomorphism(filling: FillingModel, window: tuple[int, int]) -> bool:
    """gamma -> multiplicity(gamma) * gamma, as a cobordism map, is a chain
    map from the target-divided differential to the source-divided one.
    Both complexes are built one degree past the window, so the boundaries
    out of every degree up to hi + 1 are checked."""
    lo, hi = window
    kappa = {
        (o.label, o.label): Fraction(o.multiplicity) for o in filling.orbits_up_to(hi + 3)
    }
    src = build_lch_surgery(filling, None, SurgeryCountTable.zero(), (lo, hi + 1))
    tgt = build_ch_complex(filling, (lo, hi + 1))
    return assemble_cobordism_map(CobordismCounts(orbit_orbit=kappa), src, tgt).ok
