"""Exact homology engine: graded bases, sparse rational boundary maps,
exact ranks over Q, Betti tables, and finiteness guards.

Boundary matrices are stored the way the kernels compute them: a kernel
takes the labels of one degree and the row index of the degree below,
looks every target up there once and returns the degree's integer columns
{col: {row: numerator}} over one denominator, which build_complex keeps
as they are.  Images made label by label, each a {row: Fraction}, join
into a degree's columns through _joined, in one pass over the lcm of
their denominators.  d^2, ranks, is_boundary and the verifiers read the
columns; the {(row, col): Fraction} view of a complex (diffs, matrix) is
built only when it is read, and its equal values share one Fraction object
(_FractionPool).  The d^2 report reads one product loop a degree at a
time (_d_squared_products), which copies a stored column only to add to
it; an entry is a flat tuple of ints, its value in lowest terms
(_lowest_terms, once per distinct numerator of a degree).  betti checks
d^2 on the rows its reduction keeps and reads the report only to refuse.

Every rank comes from one sparse column reduction, _reduce.  The integer
columns are eliminated fraction-free, each divided by the gcd of its
entries after every step, so no Fraction arithmetic runs in the loop.
betti reduces coboundaries bottom-up with clearing, so columns bound to
end at zero are never reduced; rank and is_boundary reduce boundary
columns, and is_boundary reduces a vector against their pivots.

A complex stores bases for every degree of its window plus a one-degree
halo on each side, so the boundary maps into and out of the window edges
are complete.  Window-edge degrees are still flagged in every Betti table;
acceptance-grade reads should stick to interior degrees.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping

from .algebra import ChordAlgebra, Word

EXACT = "EXACT"
TRUNCATED = "TRUNCATED"

Label = Hashable
SparseMatrix = dict[tuple[int, int], Fraction]
Columns = dict[int, dict[int, int]]  # {col: {row: numerator}}


class DSquareError(ValueError):
    """The boundary maps of a complex do not square to zero."""


@dataclass
class GradedChainComplex:
    """Per-degree bases with boundary matrices (degree d -> d-1) over Q.

    basis covers window plus halo degrees lo-1 and hi+1.  diffs[d] is the
    sparse matrix of the boundary from basis[d] to basis[d-1] as
    {(row, col): Fraction}.

    A complex from build_complex stores each boundary matrix as integer
    columns over one denominator per degree instead, and diffs is built
    from them on first read: degree by degree, each degree's columns
    dropped as its view is built, so the complex holds one copy; equal
    entries of the view share one Fraction object.  Once diffs exists
    (read, or given to the constructor), the readers re-derive integer
    columns from it, so an edit of diffs is what they see.
    """

    basis: dict[int, list[Label]]
    diffs: dict[int, SparseMatrix]
    window: tuple[int, int]
    verdict: str = EXACT

    @classmethod
    def _from_columns(
        cls, basis, store: dict[int, tuple[Columns, int]], window, verdict
    ) -> "GradedChainComplex":
        """A complex whose diffs are stored as {degree: (columns, den)}."""
        cx = cls(basis, {}, window, verdict)
        del cx.diffs
        cx._store = store
        return cx

    def __getattr__(self, name: str):
        # only reached while diffs is unset: build the view from the store,
        # releasing each degree's columns once its view is built; the store
        # dict is left whole, as a shallow copy of the complex shares it
        if name != "diffs" or "_store" not in self.__dict__:
            raise AttributeError(name)
        pending = list(self.__dict__.pop("_store").items())
        pending.reverse()
        view: dict[int, SparseMatrix] = {}
        pool = _FractionPool()
        while pending:
            d, (columns, den) = pending.pop()
            view[d] = _fraction_view(columns, den, pool)
        self.diffs = view
        return view

    def _integer(self, degree: int) -> tuple[Columns, int]:
        """The boundary matrix of a degree as integer columns and their
        denominator: the stored columns, or columns derived from diffs once
        it exists.  Readers must not modify them."""
        if "diffs" in self.__dict__:
            return _integer_columns(self.diffs.get(degree, {}))
        return self._store.get(degree) or ({}, 1)

    def dim(self, degree: int) -> int:
        return len(self.basis.get(degree, []))

    def labels(self, degree: int) -> list[Label]:
        return self.basis.get(degree, [])

    def matrix(self, degree: int) -> SparseMatrix:
        return self.diffs.get(degree, {})

    def d_squared_report(self) -> list[tuple[int, int, int, int, int]]:
        """Entries of boundary(d-1) * boundary(d) that are nonzero, column by
        column of boundary(d), each as (d, row, col, num, den): the exact
        value num/den in lowest terms, den > 0.  The products run on the
        integer columns, and each distinct numerator of a degree is reduced
        once.  The entries hold only ints, so the garbage collector stops
        tracking them."""
        bad = []
        for d, den, products in self._d_squared_products():
            values = _Numerators(_lowest_terms, den)
            bad += [(d, r, c) + values[w] for c, e in products.items() for r, w in e.items() if w]
        return bad

    def _d_squared_products(self) -> Iterator[tuple[int, int, Columns]]:
        """The nonzero columns of boundary(d-1) * boundary(d), d = lo+1 ..
        hi+1, on the integer columns, one degree at a time as (d, den, {col:
        {r: w}}) in column order: w over den at row r, rows in first-touch
        order, a zero w a sum that cancelled.  A first product with factor 1
        is the stored column it meets, copied before a second is added to it.
        A degree's dict is cleared when the next degree is asked for."""
        lo, hi = self.window
        lower, lden = self._integer(lo)
        for d in range(lo + 1, hi + 2):
            upper, uden = self._integer(d)
            products: Columns = {}
            for c, col in upper.items():
                acc = own = None  # own: the dict made for this column, if any
                for mid, v in col.items():
                    if not (below := lower.get(mid)):
                        continue
                    if acc is None:
                        acc = below if v == 1 else (own := {r: v * w for r, w in below.items()})
                        continue
                    if acc is not own:
                        acc = own = dict(acc)
                    for r, w in below.items():
                        acc[r] = acc.get(r, 0) + v * w
                if acc and any(acc.values()):
                    products[c] = acc
            if products:
                yield d, uden * lden, products
                products.clear()
            lower, lden = upper, uden


class _FractionPool(dict):
    """pool[num, den] is Fraction(num, den), made once per pair; pairs of
    equal value share one object, which the pool also keys by itself."""

    def __missing__(self, pair: tuple[int, int]) -> Fraction:
        f = Fraction(*pair)
        f = self[pair] = self.setdefault(f, f)
        return f


class _Numerators(dict):
    """values[num] is value(num, den) for one den, made once per num."""

    def __init__(self, value: Callable[[int, int], Any], den: int):
        self.value, self.den = value, den

    def __missing__(self, num: int):
        v = self[num] = self.value(num, self.den)
        return v


def _lowest_terms(num: int, den: int) -> tuple[int, int]:
    """num/den as (n, m) in lowest terms with m > 0, for a nonzero den."""
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def _fraction_view(columns: Columns, den: int, pool: _FractionPool) -> SparseMatrix:
    """Integer columns over den as {(row, col): Fraction} drawn from pool,
    column by column in stored order."""
    values = _Numerators(lambda num, den: pool[num, den], den)
    return {(r, c): values[v] for c, col in columns.items() for r, v in col.items()}


def _numerators(terms: Mapping[Label, Fraction]) -> tuple[dict[Label, int], int]:
    """A {label: Fraction} image as (numerators, den), den the lcm of its
    denominators; zero coefficients are left out."""
    den = math.lcm(*{v.denominator for v in terms.values()})
    return {k: v.numerator * (den // v.denominator) for k, v in terms.items() if v}, den


def _integer_columns(matrix: SparseMatrix) -> tuple[Columns, int]:
    """The column view of L * matrix, with L the lcm of the denominators of
    its entries, and L."""
    nums, den = _numerators(matrix)
    cols: Columns = defaultdict(dict)
    for (r, c), v in nums.items():
        cols[c][r] = v
    return cols, den


def _reduce_column(
    col: dict[int, int], pivots: Mapping[int, tuple[int, dict[int, int]]]
) -> tuple[int | None, dict[int, int]]:
    """(low, column): the column reduced against the pivots until it
    vanishes (low None) or its largest row, low, is not a pivot row.

    Each step is fraction-free: with a and b the entries of the column and
    of the pivot at their common largest row, divided by their gcd, the
    column becomes b * col - a * pivot and is then divided by the gcd of
    its entries.  The result is the column scaled by a nonzero rational
    plus a combination of the pivots.  The column passed in is left as it
    is: it is copied when it first meets a pivot.
    """
    given = col
    while col:
        low = max(col)
        entry = pivots.get(low)
        if entry is None:
            return low, col
        pivot = entry[1]
        a, b = col[low], pivot[low]
        g = math.gcd(a, b)
        a, b = a // g, b // g
        if b < 0:
            a, b = -a, -b
        if b != 1:
            col = {r: b * v for r, v in col.items()}
        elif col is given:
            col = dict(col)
        for r, v in pivot.items():
            x = col.get(r, 0) - a * v
            if x:
                col[r] = x
            else:
                del col[r]
        g = math.gcd(*col.values())
        if g > 1:
            col = {r: v // g for r, v in col.items()}
    return None, col


def _reduce(
    columns: Mapping[int, dict[int, int]]
) -> dict[int, tuple[int, dict[int, int]]]:
    """Column reduction of an integer matrix given as {col: {row: entry}}.

    The columns are reduced in the order given, each against the pivots
    found before it (see _reduce_column); the column dicts are left as
    they are.  Returns the pivot pairs {low_row: (col, reduced column)}: a
    column that does not vanish becomes the pivot of its largest row.
    Their number is the rank over Q, and the arithmetic stays in integers
    throughout.
    """
    pivots: dict[int, tuple[int, dict[int, int]]] = {}
    for c, col in columns.items():
        low, col = _reduce_column(col, pivots)
        if col:
            pivots[low] = (c, col)
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

    def euler(self, window: tuple[int, int] | None = None) -> int:
        lo, hi = window if window else (min(self.ranks), max(self.ranks))
        return sum(-r if d % 2 else r for d, r in self.ranks.items() if lo <= d <= hi)


def betti(complex: GradedChainComplex) -> BettiTable:
    """Exact homology ranks on the complex window.  Raises DSquareError
    unless d^2 = 0, naming the d^2 report's first entry and its length.

    A pass per degree d = lo..hi+1 builds the rows of d_d, checks that
    each source row of d_{d-1} (one that led a pivot the pass before)
    times d_d is zero, and reduces the rows not cleared by those pivots'
    lows with _reduce, keyed by place in basis[d-1]: rank(d_d) is the
    pivot count, the pivots' rows the next sources.  By induction the
    check proves d^2 = 0 at lo+1..hi+1.  At d = lo nothing is cleared, so
    the sources span the row space of d_lo.  Where they span that of
    d_{d-1}, the check at d is exactly d_{d-1} d_d = 0, so a cleared row,
    led by a cocycle in that space, lies in the span of the rows before
    it, and the sources at d span the row space of d_d again.
    """
    lo, hi = complex.window
    rk, sources = {}, {}
    for d in range(lo, hi + 2):
        rows: Columns = defaultdict(dict)
        for c, col in complex._integer(d)[0].items():
            for r, v in col.items():
                rows[r][c] = v
        for source in sources.values():
            acc: dict[int, int] = {}
            for mid, v in source.items():
                for c, w in rows[mid].items() if mid in rows else ():
                    acc[c] = acc.get(c, 0) + v * w
            if any(acc.values()):
                report = complex.d_squared_report()
                d, r, c, num, den = report[0]
                at = f"degree {d}, entry {(r, c)} = {Fraction(num, den)}"
                raise DSquareError(f"d^2 != 0 at {at} ({len(report)} nonzero entries total)")
        for r in sources:
            rows.pop(r, None)
        sources.clear()  # free the rows of d_{d-1} before the reduction
        sources = {low: rows[c] for low, (c, _) in _reduce(rows).items()}
        rk[d] = len(sources)
    ranks = {d: complex.dim(d) - rk[d] - rk[d + 1] for d in range(lo, hi + 1)}
    return BettiTable(ranks=ranks, flagged=frozenset({lo, hi}), verdict=complex.verdict)


def is_boundary(complex: GradedChainComplex, degree: int, vector: dict[int, Fraction]) -> bool:
    """Is the given degree-`degree` chain in the image of the boundary map?

    The boundary matrix is reduced once; the vector, scaled to integers, is
    a boundary when it reduces to zero against the pivots."""
    pivots = _reduce(complex._integer(degree + 1)[0])
    return not _reduce_column(_numerators(vector)[0], pivots)[1]


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
                raise ValueError(f"window [{lo},{hi}] touches edge-flagged degree {d}")
    if t1.euler(window) != t2.euler(window) + t3.euler(window):
        return False
    return all(t1.rank(d) <= t2.rank(d) + t3.rank(d) for d in range(lo, hi + 1))


# ---- word enumeration with finiteness guard ---------------------------------


def guard_verdict(gradings: Iterable[int], window: tuple[int, int], max_len: int) -> str:
    """EXACT when every available generator has grading >= 1 and max_len
    covers the top of the window; TRUNCATED otherwise."""
    gradings = list(gradings)
    if not gradings:
        return EXACT
    if min(gradings) < 1:
        return TRUNCATED
    if max_len < window[1]:
        return TRUNCATED
    return EXACT


def _reaches(deg: int, room: int, lo: int, hi: int, gmin: int, gmax: int) -> bool:
    """Some r <= room further letters, of gradings between gmin and gmax,
    can bring the degree deg into [lo, hi].  The r with r gmin <= hi - deg
    and r gmax >= lo - deg form an interval, so the test compares its
    ends."""
    first, last = 0, room
    # r gmin <= hi - deg (min and max cost a call each)
    b = hi - deg
    if gmin > 0:
        if b // gmin < last:
            last = b // gmin
    elif gmin < 0:
        if -(b // -gmin) > first:
            first = -(b // -gmin)
    elif b < 0:
        return False
    # r gmax >= lo - deg
    b = deg - lo
    if gmax > 0:
        if -(b // gmax) > first:
            first = -(b // gmax)
    elif gmax < 0:
        if b // -gmax < last:
            last = b // -gmax
    elif b < 0:
        return False
    return first <= last


def _cyclic_words(
    letters: Mapping[Hashable, Any],
    max_len: int,
    window: tuple[int, int] | None = None,
    *,
    necklaces: bool = False,
) -> dict[int, list[tuple]]:
    """The cyclically composable nonempty words of length at most max_len
    as {degree: words}, each group shortest first and the words of one
    length in letter order.

    letters maps each letter to its ports .src and .dst and its .grading:
    a word a b composes when src(a) == dst(b), and a word closes when the
    src of its last letter is the dst of its first.  One walk from every
    letter covers all components.  A window keeps the words whose degree
    lies in it, and prunes every prefix that no extension within max_len
    can bring into it.

    The walk extends a table of states, not every prefix by every letter:
    a prefix's state is (dst of its first letter, src of its last, degree).
    At each length, every state the length before led to gets its row
    once: its admissible letters in letter order, each with the state it
    leads to, and whether the words of that state close in the window.  A
    prefix then only appends the letters of its state's row and carries
    the new state's number.

    With necklaces=True the walk keeps only the words that no rotation
    sorts before, each as (word, p) with p its least period.  Every prefix
    carries its Fredricksen-Kessler-Maiorana period p, the length of its
    longest Lyndon prefix: a letter that sorts before w[len - p] is never
    appended, since no such word is a prefix of a necklace, and a closing
    word is a necklace exactly when p divides its length.
    """
    # follow[port]: the letters that may follow a letter with src == port,
    # in letter order; follow[None]: every letter
    follow: dict[int | None, list] = defaultdict(list)
    for a in sorted(letters):
        info = letters[a]
        ext = (a, info.src, info.dst, info.grading)
        follow[info.dst].append(ext)
        follow[None].append(ext)
    if window is not None:
        lo, hi = window
        gradings = [info.grading for info in letters.values()] or [0]
        gmin, gmax = min(gradings), max(gradings)

    groups: dict[int, list[tuple]] = defaultdict(list)
    # states[i]: the state numbered i at the current length; the empty
    # word has no ports
    states: list[tuple] = [(None, None, 0)]
    # (word, state[, FKM period])
    frontier: list[tuple] = [((), 0, 0)] if necklaces else [((), 0)]
    for length in range(1, max_len + 1):
        # rows[i]: (letter, next state) for the letters state i admits;
        # index: the number of each next state, -1 for one that cannot
        # reach the window; keep[j]: the degree of next state j when its
        # words close in the window, else None
        index: dict[tuple, int] = {}
        rows, grown, keep = [], [], []
        for head, port, deg in states:
            row = []
            for a, src, dst, g in follow[port]:
                d = deg + g
                key = (dst if head is None else head, src, d)
                nxt = index.get(key)
                if nxt is None:
                    if window is None:
                        keep.append(d if key[0] == src else None)
                    elif _reaches(d, max_len - length, lo, hi, gmin, gmax):
                        keep.append(d if key[0] == src and lo <= d <= hi else None)
                    else:
                        index[key] = -1
                        continue
                    nxt = index[key] = len(grown)
                    grown.append(key)
                elif nxt < 0:
                    continue
                row.append((a, nxt))
            rows.append(row)
        states = grown
        if not necklaces:
            frontier = [(word + (a,), nxt) for word, state in frontier for a, nxt in rows[state]]
        elif length == 1:
            frontier = [((a,), nxt, 1) for a, nxt in rows[0]]
        else:
            # the letter c = w[len - p] keeps the period, a later one makes
            # the whole word Lyndon
            frontier = [
                (word + (a,), nxt, p if a == c else length)
                for word, state, p in frontier
                for c in (word[-p],)
                for a, nxt in rows[state]
                if a >= c
            ]
        if not frontier:
            break
        if necklaces:
            for word, state, p in frontier:
                deg = keep[state]
                if deg is not None and not length % p:
                    groups[deg].append((word, p))
        else:
            for word, state in frontier:
                deg = keep[state]
                if deg is not None:
                    groups[deg].append(word)
    return dict(groups)


def enumerate_cyclic_words(
    algebra: ChordAlgebra, window: tuple[int, int], max_len: int
) -> list[Word]:
    """All cyclically composable nonempty words with degree in the window
    and length at most max_len, in Word.sort_key order."""
    groups = _cyclic_words(algebra.generators, max_len, window)
    words = sorted((w for group in groups.values() for w in group), key=lambda w: (len(w), w))
    return [Word(w) for w in words]


def build_complex(
    bases: dict[int, list[Label]],
    columns: Callable[[list[Label], Mapping[Label, int]], tuple[Columns, int]],
    window: tuple[int, int],
    verdict: str,
) -> GradedChainComplex:
    """Assemble a GradedChainComplex from per-degree label lists and a
    kernel columns(labels, rows) giving the boundary of a whole degree.

    rows maps each label of the degree below (one of lo-1..hi) to its row.
    The kernel looks each target up there once, leaves out those rows lacks
    and returns ({col: {row: numerator}}, den): the nonzero columns, keyed
    by their place in labels and in label order, with no zero numerator,
    over one denominator for the degree.  build_complex stores them as they
    are; images made label by label as {row: Fraction} join through
    _joined.
    """
    lo, hi = window
    store: dict[int, tuple[Columns, int]] = {}
    for d in range(lo, hi + 2):
        labs = bases.get(d)
        if labs:
            rows = {lab: i for i, lab in enumerate(bases.get(d - 1, ()))}
            store[d] = columns(labs, rows)
    return GradedChainComplex._from_columns(bases, store, window, verdict)


def _joined(
    images: list[Mapping[int, Fraction]], rest: tuple[Columns, int] = ({}, 1)
) -> tuple[Columns, int]:
    """One degree's columns from images made label by label, one {row:
    Fraction} for each label in order, then rest: the columns of the labels
    after those, made together over one den and keyed by place among them.
    The nonzero columns are kept over one lcm, of rest's den and every
    value's denominator; rest's are rescaled only when den differs."""
    columns, den = rest
    lcm = math.lcm(den if columns else 1, *{v.denominator for im in images for v in im.values()})
    joined: Columns = {}
    for col, image in enumerate(images):
        if column := {r: v.numerator * (lcm // v.denominator) for r, v in image.items() if v}:
            joined[col] = column
    for col, column in columns.items():
        scaled = column if den == lcm else {r: v * (lcm // den) for r, v in column.items()}
        joined[len(images) + col] = scaled
    return joined, lcm
