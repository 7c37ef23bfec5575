"""From directed A-infinity data of vanishing cycles to the surgery DGA and
its cyclic tensor complex.

The operations of the curved category are stored in path order: a table
entry C[word] -> {out: coeff} means the differential of the chord dual to
`out` contains `word`.  Translating from composition order (inputs listed
source-to-target) to path order reverses the input tuple.  All operations
are t-linear; the table is indexed by symbols, with t-powers distributed
over the letters at expansion time.  The curvature contributes the unit
term of the first minimum chord and the insertion operator of the cyclic
tensor differential.

Every construction reads one merged table (`CurvedAinf.table`) and one
chord list (`_chord_generators`), and sums integer numerators over the lcm
of the table's denominators (`_integer_table`).  One entry check
(`_entry_problems`) reads the table and the direct DGA's counts.  One
expansion, `_expand`, turns table entries into chord words: it lists each
word the entries yield over every t-power distribution with its (chord,
numerator) hits, in the order of the entry's outputs.  A curved category
expands its table once (`CurvedAinf.expansion`), which the dual DGA reads
by chord and the cyclic tensor complex by word; the direct DGA expands
its holomorphic counts and reads them by chord; the direct
Morse--Bott terms are derived on their own, so dual = direct compares two
derivations.  They are products of t-adic series with integer
coefficients, {t-power: {chord letters: coefficient}} (`_series_mul`,
`_series_add`).  Each generator's differential becomes an Element once,
at the end, through dga._differential.

The cyclic tensor complex has no basis of its own: it is the check/hat
basis of complexes._decorated_bases (with the component classes), labels
and order included, with degrees negated, so verify_dictionary pairs the
two complexes position by position, refusing label lists that differ.
Its boundary kernel reads the dual differential backwards: each chord
block of a word looks its hits up in the expansion by word.  It takes the
labels of one degree and the row index of the degree below from
build_complex, looks every target up there once and sums integer
numerators on its rows over the expansion's denominator, with the Koszul
signs read off one prefix-parity list per label; a sum that cancels drops
its row.  It scans only chord blocks no longer than the longest expanded
word.  dictionary_check builds it on the basis of the check/hat complex it
is checked against, so one dictionary check walks the words once.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import BaseRing, ChordAlgebra, Generator, rat
from .complexes import _decorated_bases, build_ho_complex
from .dga import DGASpec, _differential
from .homology import GradedChainComplex, build_complex, guard_verdict

Symbol = tuple  # ("e", i) | ("m", i) | ("f", name) | ("b", name)


def _table() -> dict[tuple[Symbol, ...], dict[Symbol, Fraction]]:
    """An operation table, word -> {output symbol: coefficient}, that
    accumulates at both levels."""
    return defaultdict(lambda: defaultdict(Fraction))


@dataclass(frozen=True)
class SymbolInfo:
    base: int  # chord grading at t-power zero
    p_min: int
    src: int
    dst: int


@dataclass
class DirectedAinfSpec:
    """Directed vanishing-cycle data: components, intersection points with
    the grading of their shortest chord, composition-order structure
    constants, and (for n = 2) a global order on the points."""

    k: int
    n: int
    points: list[tuple[str, int, int, int]]  # (name, grading, i, j), i < j
    mu: list[tuple[Symbol, tuple[Symbol, ...], Fraction]] = field(default_factory=list)
    order: list[str] | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("needs at least one component")
        if self.n < 2:
            raise ValueError("needs n >= 2")
        seen = set()
        for name, _grading, i, j in self.points:
            if name in seen:
                raise ValueError(f"duplicate intersection point {name}")
            seen.add(name)
            if not (1 <= i < j <= self.k):
                raise ValueError(f"point {name} must join distinct ordered components")
        if self.order is None:
            if self.n == 2:
                raise ValueError("n = 2 requires a global order on the intersection points")
        elif len(self.order) != len(seen) or set(self.order) != seen:
            raise ValueError("the order must list every intersection point exactly once")

    def point(self, name: str) -> tuple[str, int, int, int]:
        for p in self.points:
            if p[0] == name:
                return p
        raise KeyError(f"unknown intersection point {name}")


class AinfValidationError(ValueError):
    pass


@dataclass
class CurvedAinf:
    """The t-adically truncated curved category in symbol form.  table is
    the merged operation table (units, pairings and user constants summed,
    zero entries dropped), formed once at construction."""

    spec: DirectedAinfSpec
    order: int  # truncation order N
    symbols: dict[Symbol, SymbolInfo]
    units: dict[tuple[Symbol, ...], dict[Symbol, Fraction]]
    pairings: dict[tuple[Symbol, ...], dict[Symbol, Fraction]]
    user: dict[tuple[Symbol, ...], dict[Symbol, Fraction]]
    table: dict[tuple[Symbol, ...], dict[Symbol, Fraction]] = field(init=False, repr=False)

    def __post_init__(self):
        merged = _table()
        for part in (self.units, self.pairings, self.user):
            for word, hits in part.items():
                slot = merged[word]
                for out, v in hits.items():
                    slot[out] += v
        self.table = {
            word: nonzero
            for word, hits in merged.items()
            if (nonzero := {out: v for out, v in hits.items() if v})
        }

    @functools.cached_property
    def expansion(self) -> tuple[dict[tuple[str, ...], list[tuple[str, int]]], int]:
        """_expand of the table at the truncation order, made on first read."""
        return _expand(self.table, self.symbols, self.order)


_CHORD_FORMAT = {"e": "q{}-({})", "m": "q{}+({})", "f": "q>{}({})", "b": "q<{}({})"}


def _chord_name(sym: Symbol, p: int) -> str:
    return _CHORD_FORMAT[sym[0]].format(sym[1], p)


def _chord_generators(symbols: dict[Symbol, SymbolInfo], N: int) -> list[Generator]:
    """Every chord (symbol, t-power p) with p_min <= p <= N as a DGA
    generator, sorted by name: grading base + 2p, the symbol's ports."""
    gens = [
        Generator(_chord_name(sym, p), info.base + 2 * p, src=info.src, dst=info.dst)
        for sym, info in symbols.items()
        for p in range(info.p_min, N + 1)
    ]
    gens.sort(key=lambda g: g.name)
    return gens


def _integer_table(
    table: dict[tuple[Symbol, ...], dict[Symbol, Fraction]],
) -> tuple[dict[tuple[Symbol, ...], dict[Symbol, int]], int]:
    """An operation table as integer numerators over the lcm of its
    denominators: ({word: {output symbol: numerator}}, den)."""
    den = math.lcm(*(c.denominator for hits in table.values() for c in hits.values()))
    return {
        word: {out: c.numerator * (den // c.denominator) for out, c in hits.items()}
        for word, hits in table.items()
    }, den


def _expand(
    table: dict[tuple[Symbol, ...], dict[Symbol, Fraction]],
    symbols: dict[Symbol, SymbolInfo],
    N: int,
) -> tuple[dict[tuple[str, ...], list[tuple[str, int]]], int]:
    """The chord words an operation table yields over every t-power
    distribution, as ({chord letters: [(chord name, numerator)]}, den) over
    the lcm of the table's denominators: the letters of an entry at powers
    p_i >= p_min with total <= N form a chord word in the differential of
    each output's chord at the total power, where that chord exists.  The
    words come in the order they are reached, each word's chords in the
    order of its entry's outputs.  Chord names identify their (symbol,
    power), so each word comes from one entry and one distribution."""
    itable, den = _integer_table(table)
    names = {
        sym: {p: _chord_name(sym, p) for p in range(info.p_min, N + 1)}
        for sym, info in symbols.items()
    }
    words: dict[tuple[str, ...], list[tuple[str, int]]] = {}
    for word, hits in itable.items():
        for chords in itertools.product(*(names[s].items() for s in word)):
            powers, letters = zip(*chords)
            total = sum(powers)
            if total > N:
                continue
            outs = [(names[out][total], c) for out, c in hits.items() if total in names[out]]
            if outs:
                words[letters] = outs
    return words, den


def _symbol_table(spec: DirectedAinfSpec) -> dict[Symbol, SymbolInfo]:
    n = spec.n
    table: dict[Symbol, SymbolInfo] = {}
    for i in range(1, spec.k + 1):
        table[("e", i)] = SymbolInfo(base=-1, p_min=1, src=i, dst=i)
        table[("m", i)] = SymbolInfo(base=n - 2, p_min=1, src=i, dst=i)
    for name, grading, i, j in spec.points:
        table[("f", name)] = SymbolInfo(base=grading, p_min=0, src=i, dst=j)
        table[("b", name)] = SymbolInfo(base=(n - 3) - grading, p_min=1, src=j, dst=i)
    return table


def _forced_tables(spec: DirectedAinfSpec, symbols: dict[Symbol, SymbolInfo]):
    units, pairings = _table(), _table()

    for sym, info in symbols.items():
        e_left = ("e", info.dst)
        units[(e_left, sym)][sym] += 1
        if sym[0] != "e":
            e_right = ("e", info.src)
            sign = -1 if (info.base - 1) % 2 else 1
            units[(sym, e_right)][sym] += sign

    for name, _grading, i, j in spec.points:
        f, b = ("f", name), ("b", name)
        pairings[(f, b)][("m", j)] += 1
        pairings[(b, f)][("m", i)] += 1

    if spec.n == 2:
        rank = {nm: r for r, nm in enumerate(spec.order)}

        def less(a: str, b: str) -> bool:
            return rank[a] < rank[b]

        def wing(point: str, comp: int) -> tuple[Symbol, Symbol]:
            """The pair (first, second) with ports leaving and returning to
            comp through the given point."""
            _nm, _g, pi, pj = spec.point(point)
            if comp == pj:
                return ("f", point), ("b", point)
            return ("b", point), ("f", point)

        for i in range(1, spec.k + 1):
            for nm, _g, pi, pj in spec.points:
                if i not in (pi, pj):
                    continue
                u, v = wing(nm, i)
                pairings[(("m", i), u, v)][("m", i)] += 1
        for nm, ga, i, j in spec.points:
            f_a, b_a = ("f", nm), ("b", nm)
            sign_f = -1 if (ga - 1) % 2 else 1
            sign_b = -1 if ga % 2 else 1
            for other, _g2, oi, oj in spec.points:
                if other == nm or not less(other, nm):
                    continue
                if i in (oi, oj):
                    u, v = wing(other, i)
                    pairings[(f_a, u, v)][f_a] += sign_f
                    pairings[(u, v, b_a)][b_a] -= 1
                if j in (oi, oj):
                    u, v = wing(other, j)
                    pairings[(u, v, f_a)][f_a] -= 1
                    pairings[(b_a, u, v)][b_a] += sign_b
    return units, pairings


def build_curved_category(spec: DirectedAinfSpec, t_order: int) -> CurvedAinf:
    """Assemble the curved category: strict units, the point pairings onto
    the maximum classes (plus the n = 2 corrections), and the supplied
    composition-order constants reversed into path order."""
    if t_order < 0:
        raise ValueError("the truncation order must be nonnegative")
    symbols = _symbol_table(spec)
    units, pairings = _forced_tables(spec, symbols)
    user = _table()
    for out_sym, inputs, coeff in spec.mu:
        if out_sym[0] == "e":
            raise AinfValidationError("structure constants may not output a unit")
        if any(s[0] == "e" for s in inputs):
            raise AinfValidationError(
                "unit inputs are fixed by strict unitality; do not supply them"
            )
        user[tuple(reversed(inputs))][out_sym] += rat(coeff)
    D = CurvedAinf(
        spec=spec, order=t_order, symbols=symbols, units=units, pairings=pairings, user=user
    )
    report = check_curved_ainf(D)
    if report:
        raise AinfValidationError("; ".join(report[:5]))
    return D


def _word_composable(symbols: dict[Symbol, SymbolInfo], word: tuple[Symbol, ...]) -> bool:
    for a, b in zip(word, word[1:]):
        if symbols[a].src != symbols[b].dst:
            return False
    return True


def _square_zero_words(
    table: dict[tuple[Symbol, ...], dict[Symbol, int]], symbols: dict[Symbol, SymbolInfo]
) -> list[tuple[Symbol, ...]]:
    """The words on which the squared coderivation can have a term: an
    entry `outer` with one letter mid replaced by an entry whose outputs
    include mid.  Listed shortest first, then lexicographically by the
    letters' positions in sorted(symbols, key=repr)."""
    inner_by_out: dict[Symbol, list[tuple[Symbol, ...]]] = defaultdict(list)
    for word, hits in table.items():
        for mid in hits:
            inner_by_out[mid].append(word)
    words = {
        outer[:i] + inner + outer[i + 1 :]
        for outer in table
        for i, mid in enumerate(outer)
        for inner in inner_by_out.get(mid, ())
    }
    position = {s: r for r, s in enumerate(sorted(symbols, key=repr))}
    return sorted(words, key=lambda w: (len(w), [position[s] for s in w]))


def _entry_problems(table: dict, symbols: dict[Symbol, SymbolInfo]) -> list[str]:
    """The entries of an operation table that are unreadable (no inputs, an
    unknown symbol, a word that does not compose), off the grading or the
    ports of an output, or not strictly unital."""
    problems: list[str] = []
    for word, hits in table.items():
        if not word:
            problems.append(f"entry {word} has no inputs")
            continue
        unknown = [s for s in word if s not in symbols]
        if unknown:
            problems.append(f"unknown input symbol {unknown[0]}")
            continue
        if not _word_composable(symbols, word):
            problems.append(f"entry {word} is not port-composable")
            continue
        base_sum = sum(symbols[s].base for s in word)
        for out, coeff in hits.items():
            info = symbols.get(out)
            if info is None:
                problems.append(f"unknown output symbol {out}")
                continue
            if not coeff:
                continue
            if info.base != base_sum + 1:
                problems.append(
                    f"entry {word} -> {out} violates grading: {base_sum}+1 != {info.base}"
                )
            if info.dst != symbols[word[0]].dst or info.src != symbols[word[-1]].src:
                problems.append(f"entry {word} -> {out} violates ports")
        if len(word) >= 3 and any(s[0] == "e" for s in word):
            problems.append(f"strict unitality broken by {word}")
    return problems


def check_curved_ainf(D: CurvedAinf) -> list[str]:
    """Verify the table entries (_entry_problems), the unit/curvature
    identities, and the square-zero identity.

    The square-zero identity is checked on every word that an entry can
    reach by one substitution (_square_zero_words); each such word has at
    most 2 * max_arity - 1 letters and, once the entries are homogeneous,
    composes.  On any other word the squared coderivation has no term.  The
    sums run over integer numerators: the table's over its lcm den, their
    products over den * den."""
    symbols = D.symbols
    problems = _entry_problems(D.table, symbols)
    if problems:
        return problems

    table, den = _integer_table(D.table)

    # curvature/unit identity on single letters
    for sym, info in symbols.items():
        acc: dict[Symbol, int] = {}
        left = table.get((("e", info.dst), sym), {})
        right = table.get((sym, ("e", info.src)), {})
        sgn = -1 if info.base % 2 else 1
        for c, v in left.items():
            acc[c] = acc.get(c, 0) + v
        for c, v in right.items():
            acc[c] = acc.get(c, 0) + sgn * v
        for c, v in acc.items():
            if v:
                problems.append(f"unit identity fails on {sym}: {c} has {Fraction(v, den)}")

    max_arity = max(map(len, table), default=1)
    parity = {s: info.base % 2 for s, info in symbols.items()}

    # Square-zero identity per word: the single-symbol output of the squared
    # coderivation.  Disjoint and nested applications with a longer output
    # cancel once this holds for every subword length.
    for word in _square_zero_words(table, symbols):
        length = len(word)
        acc = {}
        prefix_parity = 0
        for i in range(length):
            psign = -1 if prefix_parity else 1
            for j in range(1, min(max_arity, length - i) + 1):
                hits = table.get(word[i : i + j])
                if not hits:
                    continue
                for mid, coeff in hits.items():
                    outer = table.get(word[:i] + (mid,) + word[i + j :])
                    if outer is None:
                        continue
                    for out, c2 in outer.items():
                        acc[out] = acc.get(out, 0) + psign * coeff * c2
            prefix_parity ^= parity[word[i]]
        for out, v in acc.items():
            if v:
                problems.append(
                    f"square-zero identity fails on {word}: output {out} has "
                    f"{Fraction(v, den * den)}"
                )
                break
    return problems


def dualize_tensor_algebra(D: CurvedAinf) -> DGASpec:
    """The DGA dual to the tensor coalgebra of the curved category: chords
    are the t-weighted basis morphisms, the differential collects every
    table entry over all t-power distributions, and the curvature
    contributes the unit term of each first minimum chord."""
    spec = D.spec
    N = D.order
    gens = _chord_generators(D.symbols, N)
    words, den = D.expansion
    terms: dict[str, dict] = {}
    for letters, outs in words.items():
        for name, c in outs:
            terms.setdefault(name, {})[letters] = c
    if N >= 1:
        for i in range(1, spec.k + 1):
            terms.setdefault(_chord_name(("e", i), 1), {})[i] = den
    return DGASpec(
        ring=BaseRing(spec.k),
        generators=gens,
        differential=_differential(terms, [g.name for g in gens], den),
        ambient_dim=spec.n,
        meta={"kind": "dual-tensor", "t_order": N},
    )


# ---- the direct construction -------------------------------------------------

# A Morse--Bott series: {t-power: {chord letters: integer coefficient}}.
Series = dict


def _series_mul(a: Series, b: Series, N: int, src: dict, dst: dict) -> Series:
    """The Cauchy product of two series truncated above N.  A product of
    two words is zero unless the first ends where the second begins."""
    out: Series = {}
    for p, xs in a.items():
        for q, ys in b.items():
            if p + q > N:
                continue
            slot = out.setdefault(p + q, {})
            for u, c in xs.items():
                port = src[u[-1]]
                for v, d in ys.items():
                    if dst[v[0]] == port:
                        w = u + v
                        slot[w] = slot.get(w, 0) + c * d
    return out


def _series_add(into: Series, s: Series, scale: int = 1) -> None:
    """into += scale * s."""
    for p, xs in s.items():
        slot = into.setdefault(p, {})
        for w, c in xs.items():
            slot[w] = slot.get(w, 0) + scale * c


def lefschetz_dga(
    basis: DirectedAinfSpec,
    h_counts: dict[tuple[Symbol, ...], dict[Symbol, Fraction]] | None,
    n: int,
    t_order: int,
) -> DGASpec:
    """Direct assembly of the surgery DGA on the chords of the directed
    spec `basis`: the constant term on the first minimum chord, the
    Morse--Bott series expansions, and the supplied holomorphic counts
    inserted with t-power conservation.  Counts that are no valid table
    entry raise AinfValidationError."""
    spec = basis
    if spec.n != n:
        raise ValueError("dimension parameter disagrees with the basis data")
    if t_order < 0:
        raise ValueError("the truncation order must be nonnegative")
    symbols = _symbol_table(spec)
    problems = _entry_problems(h_counts or {}, symbols)
    if problems:
        raise AinfValidationError("; ".join(problems[:5]))
    N = t_order
    gens = _chord_generators(symbols, N)
    alg = ChordAlgebra(BaseRing(spec.k), gens)
    # the series sum_p t^p q(p) of every symbol
    series = {
        sym: {p: {(_chord_name(sym, p),): 1} for p in range(info.p_min, N + 1)}
        for sym, info in symbols.items()
    }

    def smul(a: Series, b: Series) -> Series:
        return _series_mul(a, b, N, alg.src, alg.dst)

    diff_series: dict[Symbol, Series] = {sym: {} for sym in symbols}

    # d_MB
    msign = -1 if (n - 1) % 2 else 1
    for i in range(1, spec.k + 1):
        e, m = series[("e", i)], series[("m", i)]
        _series_add(diff_series[("e", i)], smul(e, e))
        dm = diff_series[("m", i)]
        _series_add(dm, smul(e, m))
        _series_add(dm, smul(m, e), msign)
        for nm, _g, pi, pj in spec.points:
            f, b = series[("f", nm)], series[("b", nm)]
            if pj == i:
                _series_add(dm, smul(f, b))
            if pi == i:
                _series_add(dm, smul(b, f))
    for nm, ga, i, j in spec.points:
        f, b = series[("f", nm)], series[("b", nm)]
        fsign = -1 if (ga - 1) % 2 else 1
        bsign = -1 if ((n - 2) - ga) % 2 else 1
        df, db = diff_series[("f", nm)], diff_series[("b", nm)]
        _series_add(df, smul(series[("e", j)], f))
        _series_add(df, smul(f, series[("e", i)]), fsign)
        _series_add(db, smul(series[("e", i)], b))
        _series_add(db, smul(b, series[("e", j)]), bsign)

    if n == 2:
        rank = {nm: r for r, nm in enumerate(spec.order)}

        def wing_series(point: str, comp: int) -> Series:
            _nm, _g, pi, pj = spec.point(point)
            f, b = series[("f", point)], series[("b", point)]
            return smul(f, b) if comp == pj else smul(b, f)

        for i in range(1, spec.k + 1):
            m = series[("m", i)]
            for nm, _g, pi, pj in spec.points:
                if i in (pi, pj):
                    _series_add(diff_series[("m", i)], smul(m, wing_series(nm, i)))
        for nm, ga, i, j in spec.points:
            f, b = series[("f", nm)], series[("b", nm)]
            fsign = -1 if (ga - 1) % 2 else 1
            bsign = -1 if ga % 2 else 1
            df, db = diff_series[("f", nm)], diff_series[("b", nm)]
            for other, _g2, oi, oj in spec.points:
                if other == nm or rank[other] >= rank[nm]:
                    continue
                if i in (oi, oj):
                    wing = wing_series(other, i)
                    _series_add(df, smul(f, wing), fsign)
                    _series_add(db, smul(wing, b), -1)
                if j in (oi, oj):
                    wing = wing_series(other, j)
                    _series_add(df, smul(wing, f), -1)
                    _series_add(db, smul(b, wing), bsign)

    # numerators over the denominator of the holomorphic counts
    h_words, den = _expand(h_counts, symbols, N) if h_counts else ({}, 1)
    acc: dict[str, dict] = {}
    for sym, info in symbols.items():
        s = diff_series[sym]
        for p in range(info.p_min, N + 1):
            acc[_chord_name(sym, p)] = {w: c * den for w, c in s.get(p, {}).items()}

    # d_const
    if N >= 1:
        for i in range(1, spec.k + 1):
            acc[_chord_name(("e", i), 1)][i] = den

    # d_h
    for w, outs in h_words.items():
        for name, c in outs:
            slot = acc[name]
            slot[w] = slot.get(w, 0) + c

    return DGASpec(
        ring=BaseRing(spec.k),
        generators=gens,
        differential=_differential(acc, [g.name for g in gens], den),
        ambient_dim=n,
        meta={"kind": "lefschetz-dga", "t_order": N},
    )


def user_counts(D: CurvedAinf) -> dict[tuple[Symbol, ...], dict[Symbol, Fraction]]:
    """The non-unit, non-Morse-Bott part of the operations, in the shape
    lefschetz_dga takes for its holomorphic counts."""
    return {w: dict(hits) for w, hits in D.user.items()}


# ---- the cyclic tensor complex -----------------------------------------------


def hochschild_complex(
    D: CurvedAinf, window: tuple[int, int], max_len: int
) -> GradedChainComplex:
    """The diagonal cyclic tensor complex of the curved category.

    The returned complex is stored with degrees negated (its differential
    raises the dictionary degree by one).  It carries ho's labels: one
    class ("tau", i) per component, the words headed by a component factor
    as ("chk", w), the plain words as ("hat", w), in ho's order: a degree
    lists the classes, then the check words, then the hat words, the words
    shortest first and then in letter order.
    """
    alg = ChordAlgebra(BaseRing(D.spec.k), _chord_generators(D.symbols, D.order))
    bases = _decorated_bases(alg, window, max_len, tau=True)
    return _cyclic_tensor_complex(D, alg, bases, window, max_len)


def _cyclic_tensor_complex(
    D: CurvedAinf, alg: ChordAlgebra, bases: dict, window: tuple[int, int], max_len: int
) -> GradedChainComplex:
    """hochschild_complex over alg, D's chord algebra, on ho's basis bases."""
    parity, src, dst = alg.parity, alg.src, alg.dst
    # the dual differential read backwards: {block: [(out chord, numerator)]}
    hits, den = D.expansion
    # the curvature chord of each component
    curvature = {i: _chord_name(("e", i), 1) for i in range(1, D.spec.k + 1)}
    # no block longer than the longest word of hits has a hit
    max_arity = max(map(len, hits), default=0)

    def columns(labels, rows) -> tuple[dict, int]:
        """The boundary columns of one degree over den."""
        cols = {}
        for col, (kind, letters) in enumerate(labels):
            # (target label, nonzero numerator) for every term, summed on rows
            terms = []
            push = terms.append
            if kind == "tau":
                push((("chk", (curvature[letters],)), den))
            else:
                s = len(letters)
                # word: the slot word of a check word, else the hat word;
                # pre[i]: the grading parity of word[:i], for i = 0..s
                word = letters[1:] + letters[:1] if kind == "chk" else letters
                pre = [0]
                for x in word:
                    pre.append(pre[-1] ^ parity[x])
            if kind == "chk":
                # a new slot word is stored in check lettering, its last
                # letter first; the last letter of word is letters[0]
                for t in range(s):
                    psign = -1 if pre[t] else 1
                    for m in range(1, min(s - t, max_arity) + 1):
                        for out_name, coeff in hits.get(word[t : t + m], ()):
                            if t + m < s:
                                new = letters[: t + 1] + (out_name,) + letters[t + m + 1 :]
                            else:
                                new = (out_name,) + letters[1 : t + 1]
                            push((("chk", new), psign * coeff))
                # the curvature chord inserted at every slot of the slot word
                for slot in range(s):
                    enm = curvature[src[word[slot - 1]] if slot else dst[word[0]]]
                    new = letters[: slot + 1] + (enm,) + letters[slot + 1 :]
                    push((("chk", new), -den if pre[slot] else den))
                push((("chk", (curvature[src[word[-1]]],) + word), -den if pre[s] else den))
                push((("hat", word), den))
                # (-1)^(|letters[0]| |letters[1:]|): the head's parity against the rest
                rsign = -1 if parity[letters[0]] and pre[s] ^ parity[letters[0]] else 1
                push((("hat", letters), -rsign * den))
            elif kind == "hat":
                # with the hat on letters[0], the sign before position j is
                # (-1)^(|letters[0]| + 1 + |letters[1:j]|) = (-1)^(1 + pre[j])
                for j in range(1, s):
                    psign = 1 if pre[j] else -1
                    for m in range(1, min(s - j, max_arity) + 1):
                        for out_name, coeff in hits.get(letters[j : j + m], ()):
                            new = letters[:j] + (out_name,) + letters[j + m :]
                            push((("hat", new), psign * coeff))
                for t in range(0, s):
                    new = letters[: t + 1] + (curvature[src[letters[t]]],) + letters[t + 1 :]
                    push((("hat", new), den if pre[t + 1] else -den))
                # the block tail + letters[:h] has length t + h <= max_arity
                for h in range(1, min(s, max_arity) + 1):
                    for t in range(0, min(s - h, max_arity - h) + 1):
                        middle = letters[h : s - t]
                        tail = letters[s - t :]
                        for out_name, coeff in hits.get(tail + letters[:h], ()):
                            # (-1)^(|tail| |letters[:s-t]|)
                            sgn = -1 if (pre[s] ^ pre[s - t]) and pre[s - t] else 1
                            # the spread of the marked letter enters negatively
                            push((("hat", (out_name,) + middle), -sgn * coeff))
            out: dict = {}
            for label, v in terms:
                # every v is nonzero, so a sum that reaches zero had a row to drop
                if (row := rows.get(label)) is not None:
                    v += out.get(row, 0)
                    if v:
                        out[row] = v
                    else:
                        del out[row]
            if out:
                cols[col] = out
        return cols, den

    verdict = guard_verdict(alg.grading.values(), window, max_len)
    lo, hi = window
    return build_complex({-d: labs for d, labs in bases.items()}, columns, (-hi, -lo), verdict)


def verify_dictionary(a: GradedChainComplex, b: GradedChainComplex) -> bool:
    """The generator dictionary pairs each position of the cyclic tensor
    complex with the same position of the check/hat complex, in the
    negated degree, which must hold the same label; the differentials must
    be transposes of one another under it:
    <delta_cc(Phi u), Phi v> = <d_ho(v), u> entrywise on the window.  The
    pairing and the transpose are symmetric, so either complex may come
    first; the window is that of b.  Raises ValueError, naming the degree,
    the first differing position and the label each complex holds there
    (or that it holds none), where the label lists of some degree of the
    window differ.  Entries are compared in place on the integer columns,
    each of b's with a's at the transposed position, then the counts.
    """
    lo, hi = b.window
    for d in range(lo - 1, hi + 2):
        a_labels, b_labels = a.labels(-d), b.labels(d)
        if a_labels != b_labels:
            # labels are nonempty tuples, so None marks a missing one
            i, x, y = next(
                (i, x, y)
                for i, (x, y) in enumerate(itertools.zip_longest(a_labels, b_labels))
                if x != y
            )
            raise ValueError(
                f"basis mismatch at degree {d}, position {i}: the first complex holds "
                f"{x or 'no label'} at degree {-d}, the second {y or 'no label'}"
            )
    # v_b / den_b == v_a / den_a exactly when v_b * den_a == v_a * den_b
    for d in range(lo, hi + 2):
        b_columns, b_den = b._integer(d)
        a_columns, a_den = a._integer(-(d - 1))
        for c, col in b_columns.items():
            for r, v in col.items():
                x = (a_columns.get(r) or {}).get(c)
                if x is None or x * b_den != v * a_den:
                    return False
        # each entry of b met its own entry of a: only the count sees one more in a
        if sum(map(len, b_columns.values())) != sum(map(len, a_columns.values())):
            return False
    return True


def dictionary_check(D: CurvedAinf, window: tuple[int, int], max_len: int) -> tuple:
    """The generator dictionary check, returning (dual, ho, cc): the dual DGA
    of D equals the direct one, and verify_dictionary holds for the check/hat
    complex ho of the dual and the cyclic tensor complex cc built on ho's
    basis.  Raises ValueError on the first check that fails."""
    dual = dualize_tensor_algebra(D)
    direct = lefschetz_dga(D.spec, user_counts(D), D.spec.n, D.order)
    if (dual.generators, dual.differential) != (direct.generators, direct.differential):
        raise ValueError("dual and direct differentials disagree")
    ho = build_ho_complex(dual, window, max_len)
    cc = _cyclic_tensor_complex(D, dual.algebra, ho.basis, window, max_len)
    if not verify_dictionary(cc, ho):
        raise ValueError("dictionary mismatch")
    return dual, ho, cc
