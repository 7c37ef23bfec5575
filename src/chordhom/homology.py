"""Exact homology engine: graded bases, sparse rational boundary maps,
exact ranks over Q, Betti tables, and finiteness guards.

Every rank comes from one sparse column reduction, _reduce.  A boundary
matrix is scaled once by the lcm of its denominators; its integer columns
are then eliminated fraction-free, each divided by the gcd of its entries
after every step, so no Fraction arithmetic runs in the loop.  The pivot
pairs it returns give the rank, and is_boundary reduces a vector against
them.

A complex stores bases for every degree of its window plus a one-degree
halo on each side, so the boundary maps into and out of the window edges
are complete.  Window-edge degrees are still flagged in every Betti table;
acceptance-grade reads should stick to interior degrees.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Hashable, Iterable, Mapping, Sequence

from .algebra import ChordAlgebra, Word

EXACT = "EXACT"
TRUNCATED = "TRUNCATED"

Label = Hashable
SparseMatrix = dict[tuple[int, int], Fraction]


class DSquareError(ValueError):
    """The boundary maps of a complex do not square to zero."""


@dataclass
class GradedChainComplex:
    """Per-degree bases with boundary matrices (degree d -> d-1) over Q.

    basis covers window plus halo degrees lo-1 and hi+1.  diffs[d] is the
    sparse matrix of the boundary from basis[d] to basis[d-1], stored as
    {(row, col): coeff}.
    """

    basis: dict[int, list[Label]]
    diffs: dict[int, SparseMatrix]
    window: tuple[int, int]
    verdict: str = EXACT
    max_len: int | None = None
    meta: dict = field(default_factory=dict)

    def dim(self, degree: int) -> int:
        return len(self.basis.get(degree, []))

    def labels(self, degree: int) -> list[Label]:
        return self.basis.get(degree, [])

    def matrix(self, degree: int) -> SparseMatrix:
        return self.diffs.get(degree, {})

    def d_squared_report(self) -> list[tuple[int, tuple[int, int], Fraction]]:
        """Entries of boundary(d-1) * boundary(d) that are nonzero, column by
        column of boundary(d).  The products run on integer matrices, each
        scaled by the lcm of its denominators; a reported entry is divided
        back into the exact value."""
        bad = []
        lo, hi = self.window
        lower, lden = _integer_columns(self.matrix(lo))
        for d in range(lo + 1, hi + 2):
            upper, uden = _integer_columns(self.matrix(d))
            den = uden * lden
            for c, col in upper.items():
                acc: dict[int, int] = defaultdict(int)
                for mid, v in col.items():
                    for r, w in lower.get(mid, {}).items():
                        acc[r] += v * w
                bad.extend(
                    (d, (r, c), Fraction(total, den)) for r, total in acc.items() if total
                )
            lower, lden = upper, uden
        return bad


def _columns(matrix: SparseMatrix) -> dict[int, dict[int, Fraction]]:
    """The nonzero entries of a sparse matrix as {col: {row: coeff}}, in the
    order they are stored."""
    cols: dict[int, dict[int, Fraction]] = defaultdict(dict)
    for (r, c), v in matrix.items():
        if v:
            cols[c][r] = v
    return cols


def _integer_columns(matrix: SparseMatrix) -> tuple[dict[int, dict[int, int]], int]:
    """The column view of L * matrix, with L the lcm of the denominators of
    its entries, and L."""
    den = math.lcm(*{v.denominator for v in matrix.values()})
    cols: dict[int, dict[int, int]] = defaultdict(dict)
    for (r, c), v in matrix.items():
        if v:
            cols[c][r] = v.numerator * (den // v.denominator)
    return cols, den


def _reduce_column(
    col: dict[int, int], pivots: Mapping[int, tuple[int, dict[int, int]]]
) -> dict[int, int]:
    """Reduce an integer column against the pivots until it vanishes or its
    largest row is not a pivot row.

    Each step is fraction-free: with a and b the entries of the column and
    of the pivot at their common largest row, divided by their gcd, the
    column becomes b * col - a * pivot and is then divided by the gcd of
    its entries.  The result is the column scaled by a nonzero rational
    plus a combination of the pivots.
    """
    while col:
        low = max(col)
        entry = pivots.get(low)
        if entry is None:
            break
        pivot = entry[1]
        a, b = col[low], pivot[low]
        g = math.gcd(a, b)
        a, b = a // g, b // g
        if b < 0:
            a, b = -a, -b
        if b != 1:
            col = {r: b * v for r, v in col.items()}
        for r, v in pivot.items():
            x = col.get(r, 0) - a * v
            if x:
                col[r] = x
            else:
                del col[r]
        g = math.gcd(*col.values())
        if g > 1:
            col = {r: v // g for r, v in col.items()}
    return col


def _reduce(
    columns: Mapping[int, dict[int, int]]
) -> dict[int, tuple[int, dict[int, int]]]:
    """Column reduction of an integer matrix given as {col: {row: entry}}.

    The columns are reduced in the order given, each against the pivots
    found before it (see _reduce_column); the column dicts are consumed.
    Returns the pivot pairs {low_row: (col, reduced column)}: a column that
    does not vanish becomes the pivot of its largest row.  Their number is
    the rank over Q, and the arithmetic stays in integers throughout.
    """
    pivots: dict[int, tuple[int, dict[int, int]]] = {}
    for c, col in columns.items():
        col = _reduce_column(col, pivots)
        if col:
            pivots[max(col)] = (c, col)
    return pivots


def rank(matrix: SparseMatrix, nrows: int, ncols: int) -> int:
    """Exact rank over Q by fraction-free sparse column reduction.

    nrows and ncols give the shape; only the stored entries are read.  The
    matrix is scaled once by the lcm of its denominators and reduced over
    the integers by _reduce; the rank is the number of pivots.
    """
    return len(_reduce(_integer_columns(matrix)[0]))


@dataclass
class BettiTable:
    """Degree-indexed homology ranks with window-edge flags."""

    ranks: dict[int, int]
    flagged: frozenset[int]
    verdict: str = EXACT

    def rank(self, degree: int) -> int:
        return self.ranks.get(degree, 0)

    def degrees(self) -> list[int]:
        return sorted(self.ranks)

    def euler(self, window: tuple[int, int] | None = None) -> Fraction:
        lo, hi = window if window else (min(self.ranks), max(self.ranks))
        return sum(
            ((-1) ** d) * r for d, r in self.ranks.items() if lo <= d <= hi
        )


def betti(complex: GradedChainComplex) -> BettiTable:
    """Exact homology ranks on the complex window.

    Requires d^2 = 0 on the window; raises DSquareError otherwise.
    """
    bad = complex.d_squared_report()
    if bad:
        d, pos, val = bad[0]
        raise DSquareError(
            f"d^2 != 0 at degree {d}, entry {pos} = {val} "
            f"({len(bad)} nonzero entries total)"
        )
    lo, hi = complex.window
    ranks: dict[int, int] = {}
    rk: dict[int, int] = {}
    for d in range(lo, hi + 2):
        rk[d] = rank(complex.matrix(d), complex.dim(d - 1), complex.dim(d))
    for d in range(lo, hi + 1):
        dim = complex.dim(d)
        h = dim - rk[d] - rk[d + 1]
        ranks[d] = h
    return BettiTable(ranks=ranks, flagged=frozenset({lo, hi}), verdict=complex.verdict)


def is_boundary(
    complex: GradedChainComplex, degree: int, vector: dict[int, Fraction]
) -> bool:
    """Is the given degree-`degree` chain in the image of the boundary map?

    The boundary matrix is reduced once; the vector, scaled to integers, is
    a boundary when it reduces to zero against the pivots."""
    pivots = _reduce(_integer_columns(complex.matrix(degree + 1))[0])
    scaled = _integer_columns({(r, 0): v for r, v in vector.items()})[0]
    return not _reduce_column(scaled.get(0, {}), pivots)


def verify_les_ranks(
    t1: BettiTable, t2: BettiTable, t3: BettiTable, window: tuple[int, int]
) -> bool:
    """Necessary rank conditions of an exact triangle t1 -> t2 -> t3 -> t1[-1].

    Checks Euler-characteristic additivity chi(t1) = chi(t2) + chi(t3) over
    the window and the per-degree bound rank(t1_d) <= rank(t2_d) + rank(t3_d).
    The window must avoid edge-flagged degrees of all three tables.
    """
    lo, hi = window
    for t in (t1, t2, t3):
        for d in range(lo, hi + 1):
            if d in t.flagged:
                raise ValueError(
                    f"window [{lo},{hi}] touches edge-flagged degree {d}"
                )
    if t1.euler(window) != t2.euler(window) + t3.euler(window):
        return False
    for d in range(lo, hi + 1):
        if t1.rank(d) > t2.rank(d) + t3.rank(d):
            return False
    return True


# ---- word enumeration with finiteness guard ---------------------------------


def guard_verdict(
    gradings: Iterable[int], window: tuple[int, int], max_len: int, mark_allowance: int = 0
) -> str:
    """EXACT when every available generator has grading >= 1 and max_len
    covers the top of the window (plus room for any fixed marked letter);
    TRUNCATED otherwise."""
    gradings = list(gradings)
    if not gradings:
        return EXACT
    if min(gradings) < 1:
        return TRUNCATED
    if max_len < window[1] + mark_allowance:
        return TRUNCATED
    return EXACT


def _composable_words(
    alphabet: Sequence[Hashable],
    letters: Mapping[Hashable, Any],
    max_len: int,
    *,
    first: int | None = None,
    last: int | None = None,
    window: tuple[int, int] | None = None,
) -> list[tuple]:
    """Nonempty composable words of length at most max_len over the
    alphabet: shortest first, and the words of one length in lexicographic
    order of the alphabet positions.

    letters maps each letter to its data: the ports .src and .dst (a word
    a b composes when src(a) == dst(b)) and, when a degree window is given,
    the .grading.  first fixes the dst port of the first letter and last
    the src port of the last one.  A window keeps the words whose degree
    lies in it, and prunes every prefix that no extension within max_len
    can bring into it.
    """
    # by_dst[port]: the letters that may follow a letter with src == port,
    # in alphabet order; by_dst[None]: every letter
    by_dst: dict[int | None, list] = defaultdict(list)
    for a in alphabet:
        info = letters[a]
        ext = (a, info.src, 0 if window is None else info.grading)
        by_dst[info.dst].append(ext)
        by_dst[None].append(ext)
    if window is None:
        lo = hi = None
    else:
        lo, hi = window
        gmin = min((g for *_, g in by_dst[None]), default=0)
        gmax = max((g for *_, g in by_dst[None]), default=0)

    out: list[tuple] = []
    frontier = [((), first, 0)]
    # fits[deg]: can a prefix of the current length and degree deg still be
    # extended into the window?  Each degree is judged once per length.
    fits: dict[int, bool] = {}

    def fit(deg: int) -> bool:
        """Some r <= max_len - length further letters can bring deg into
        [lo, hi], judged by the extreme gradings; recorded in fits."""
        ok = window is None
        if not ok:
            for r in range(max_len - length + 1):
                if deg + r * gmin <= hi and deg + r * gmax >= lo:
                    ok = True
                    break
        fits[deg] = ok
        return ok

    for length in range(1, max_len + 1):
        fits.clear()
        frontier = [
            (word + (a,), src, deg + g)
            for word, port, deg in frontier
            for a, src, g in by_dst[port]
            if (fits[deg + g] if deg + g in fits else fit(deg + g))
        ]
        if not frontier:
            break
        out.extend(
            word
            for word, src, deg in frontier
            if (last is None or src == last) and (window is None or lo <= deg <= hi)
        )
    return out


def enumerate_cyclic_words(
    algebra: ChordAlgebra, window: tuple[int, int], max_len: int
) -> list[Word]:
    """All cyclically composable nonempty words with degree in the window
    and length at most max_len, in Word.sort_key order."""
    names = sorted(algebra.generators)
    words = [
        w
        for comp in algebra.ring.components
        for w in _composable_words(
            names, algebra.generators, max_len, first=comp, last=comp, window=window
        )
    ]
    words.sort(key=lambda w: (len(w), w))
    return [Word(w) for w in words]


def _fractions(acc: dict, den: int) -> dict:
    """An image accumulated as integer numerators over den, as the
    {label: Fraction} it stands for: labels in the order of their first
    term, the ones that summed to zero left out."""
    if den == 1:
        return {label: Fraction(v) for label, v in acc.items() if v}
    return {label: Fraction(v, den) for label, v in acc.items() if v}


def build_complex(
    bases: dict[int, list[Label]],
    image: Callable[[int, Label], dict[Label, Fraction]],
    window: tuple[int, int],
    verdict: str,
    max_len: int | None = None,
    meta: dict | None = None,
) -> GradedChainComplex:
    """Assemble a GradedChainComplex from per-degree label lists and a
    function producing the boundary image of each basis label."""
    lo, hi = window
    index: dict[int, dict[Label, int]] = {
        d: {lab: i for i, lab in enumerate(labs)} for d, labs in bases.items()
    }
    diffs: dict[int, SparseMatrix] = {}
    for d in range(lo, hi + 2):
        labs = bases.get(d, [])
        if not labs:
            continue
        target = index.get(d - 1, {})
        mat: SparseMatrix = {}
        for col, lab in enumerate(labs):
            for tlab, coeff in image(d, lab).items():
                row = target.get(tlab)
                if coeff and row is not None:
                    mat[(row, col)] = coeff
        diffs[d] = mat
    return GradedChainComplex(
        basis=bases,
        diffs=diffs,
        window=window,
        verdict=verdict,
        max_len=max_len,
        meta=meta or {},
    )
