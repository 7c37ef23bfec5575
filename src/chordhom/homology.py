"""Exact homology engine: graded bases, sparse rational boundary maps,
sparse exact rank computation over Q, Betti tables, and finiteness guards.

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
    cols = _columns(matrix)
    den = math.lcm(*(v.denominator for col in cols.values() for v in col.values()))
    return {
        c: {r: v.numerator * (den // v.denominator) for r, v in col.items()}
        for c, col in cols.items()
    }, den


def rank(matrix: SparseMatrix, nrows: int, ncols: int) -> int:
    """Exact rank over Q by sparse Gaussian elimination on the columns.

    nrows and ncols give the shape; only the stored entries are read.  Each
    column is reduced against the pivot columns found so far, keyed by their
    largest row index, until it vanishes or becomes a pivot itself.
    """
    pivots: dict[int, dict[int, Fraction]] = {}
    for col in _columns(matrix).values():
        while col:
            low = max(col)
            pivot = pivots.get(low)
            if pivot is None:
                scale = col[low]
                pivots[low] = {r: v / scale for r, v in col.items()}
                break
            factor = col[low]
            for r, v in pivot.items():
                x = col.get(r, 0) - factor * v
                if x:
                    col[r] = x
                else:
                    del col[r]
    return len(pivots)


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
    """Is the given degree-`degree` chain in the image of the boundary map?"""
    m = complex.matrix(degree + 1)
    nrows, ncols = complex.dim(degree), complex.dim(degree + 1)
    aug = {**m, **{(r, ncols): v for r, v in vector.items()}}
    return rank(aug, nrows, ncols + 1) == rank(m, nrows, ncols)


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

    def feasible(deg: int, length: int) -> bool:
        if window is None:
            return True
        for r in range(0, max_len - length + 1):
            if deg + r * gmin <= hi and deg + r * gmax >= lo:
                return True
        return False

    out: list[tuple] = []
    frontier = [((), first, 0)]
    for length in range(1, max_len + 1):
        frontier = [
            (word + (a,), src, deg + g)
            for word, port, deg in frontier
            for a, src, g in by_dst[port]
            if feasible(deg + g, length)
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
