import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordhom import homology
from chordhom.algebra import BaseRing, ChordAlgebra, Element, Generator, Word
from chordhom.complexes import (
    build_cyclic_complex,
    build_ho_complex,
    build_hoplus_complex,
    build_mcyc_complex,
    cyclic_class,
)
from chordhom.dga import Augmentation, DGASpec, linearize
from chordhom.documents import dga_from_document
from chordhom.examples import unknot_document
from chordhom.homology import (
    EXACT,
    TRUNCATED,
    BettiTable,
    DSquareError,
    GradedChainComplex,
    _cyclic_words,
    _integer_columns,
    _joined,
    _reduce,
    betti,
    build_complex,
    enumerate_cyclic_words,
    guard_verdict,
    is_boundary,
    rank,
    verify_les_ranks,
)

import reference_images as ref
from conftest import fractional_dga, random_dga


def test_rank_exact_small():
    m = {(0, 0): Fraction(1), (0, 1): Fraction(2), (1, 0): Fraction(2), (1, 1): Fraction(4)}
    assert rank(m, 2, 2) == 1
    m[(1, 1)] = Fraction(5)
    assert rank(m, 2, 2) == 2
    assert rank({}, 3, 3) == 0


def test_rank_with_fractions():
    m = {(0, 0): Fraction(1, 3), (1, 0): Fraction(1, 6), (0, 1): Fraction(2), (1, 1): Fraction(1)}
    assert rank(m, 2, 2) == 1


def _dense_rank(m, nr, nc):
    """Row reduction of the dense Fraction matrix, as a reference."""
    rows = [[m.get((r, c), Fraction(0)) for c in range(nc)] for r in range(nr)]
    rk = 0
    for c in range(nc):
        piv = next((i for i in range(rk, nr) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        for i in range(rk + 1, nr):
            f = rows[i][c] / rows[rk][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rk])]
        rk += 1
    return rk


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 8))
def test_rank_invariant_under_permutation(seed, nr, nc):
    rng = random.Random(seed)
    m = {}
    for r in range(nr):
        for c in range(nc):
            if rng.random() < 0.5:
                m[(r, c)] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    base = rank(dict(m), nr, nc)
    assert base == _dense_rank(m, nr, nc)
    assert rank({(c, r): v for (r, c), v in m.items()}, nc, nr) == base
    rows = list(range(nr))
    cols = list(range(nc))
    rng.shuffle(rows)
    rng.shuffle(cols)
    pm = {(rows[r], cols[c]): v for (r, c), v in m.items()}
    assert rank(pm, nr, nc) == base


def _wide_matrix(rng, nr, nc):
    """A random sparse matrix with numerators up to 10^12 and denominators up
    to 10^6, whose later columns include exact duplicates and rational
    multiples of earlier ones, in shuffled column order."""

    def big():
        return Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**6))

    cols = []
    for _ in range(nc):
        if cols and rng.random() < 0.4:
            col = rng.choice(cols)
            scale = rng.choice([Fraction(1), big()]) or Fraction(1)
            cols.append({r: v * scale for r, v in col.items()})
        else:
            cols.append({r: big() for r in range(nr) if rng.random() < 0.6})
    rng.shuffle(cols)
    return {(r, c): v for c, col in enumerate(cols) for r, v in col.items()}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 7), st.integers(1, 9))
def test_rank_large_entries_matches_dense(seed, nr, nc):
    m = _wide_matrix(random.Random(seed), nr, nc)
    assert rank(m, nr, nc) == _dense_rank(m, nr, nc)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 7), st.integers(1, 9))
def test_reduce_pivot_pairs(seed, nr, nc):
    m = _wide_matrix(random.Random(seed), nr, nc)
    pivots = _reduce(_integer_columns(m)[0])
    assert len(pivots) == _dense_rank(m, nr, nc)
    assert len({c for c, _ in pivots.values()}) == len(pivots)
    for low, (c, col) in pivots.items():
        assert 0 <= c < nc and max(col) == low and col[low]
        assert all(type(v) is int and v for v in col.values())


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_is_boundary_matches_augmented_rank(seed):
    rng = random.Random(seed)
    nr, nc = rng.randint(0, 5), rng.randint(0, 5)
    m = {
        (r, c): Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        for r in range(nr)
        for c in range(nc)
        if rng.random() < 0.5
    }
    cx = GradedChainComplex(
        basis={0: list(range(nr)), 1: list(range(nc))}, diffs={1: m}, window=(0, 0)
    )
    # half of the vectors are boundaries by construction
    if rng.random() < 0.5:
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(nc)]
        vector = {}
        for (r, c), v in m.items():
            vector[r] = vector.get(r, Fraction(0)) + coeffs[c] * v
    else:
        vector = {r: Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for r in range(nr)}
    aug = {**m, **{(r, nc): v for r, v in vector.items()}}
    assert is_boundary(cx, 0, vector) == (rank(aug, nr, nc + 1) == rank(m, nr, nc))


def test_betti_requires_d_squared_zero():
    bases = {0: ["x"], 1: ["y"], 2: ["z"]}
    diffs = {
        1: {(0, 0): Fraction(1)},
        2: {(0, 0): Fraction(1)},
    }
    complex = GradedChainComplex(basis=bases, diffs=diffs, window=(0, 2))
    with pytest.raises(DSquareError):
        betti(complex)


def d_squared_reference(complex: GradedChainComplex) -> list:
    """boundary(d-1) * boundary(d) in Fractions, column by column of
    boundary(d), rows in the order they are first reached."""
    lo, hi = complex.window
    cols = {}
    for d in range(lo, hi + 2):
        cols[d] = {}
        for (r, c), v in complex.matrix(d).items():
            if v:
                cols[d].setdefault(c, {})[r] = v
    bad = []
    for d in range(lo + 1, hi + 2):
        for c, col in cols[d].items():
            acc = {}
            for mid, v in col.items():
                for r, w in cols[d - 1].get(mid, {}).items():
                    acc[r] = acc.get(r, Fraction(0)) + v * w
            bad += [(d, (r, c), t) for r, t in acc.items() if t]
    return bad


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_d_squared_report_matches_fraction_reference(seed):
    rng = random.Random(seed)
    dims = {d: rng.randint(0, 5) for d in range(-1, 4)}
    diffs = {}
    for d in range(0, 4):
        entries = [(r, c) for r in range(dims[d - 1]) for c in range(dims[d])]
        rng.shuffle(entries)
        diffs[d] = {
            rc: Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 6, 7]))
            for rc in entries[: rng.randint(0, len(entries))]
        }
    cx = GradedChainComplex(
        basis={d: [f"x{d}.{i}" for i in range(n)] for d, n in dims.items()},
        diffs=diffs,
        window=(0, 2),
    )
    got = cx.d_squared_report()
    assert got == d_squared_reference(cx)
    assert all(type(v) is Fraction for _, _, v in got)
    assert len({id(v) for *_, v in got}) == len({v for *_, v in got})


def test_truncated_chekanov_a_mcyc_report_shares_its_values(chekanov_a):
    # the marked cyclic quotient of chekanov_a on -4..0 at max-len 4 is
    # TRUNCATED and no subcomplex: a long d^2 report, whose equal values,
    # like those of the boundary view, are one Fraction object each
    cx = build_mcyc_complex(chekanov_a, (-4, 0), 4)
    report = cx.d_squared_report()
    assert len(report) == 37_056
    assert report == d_squared_reference(cx)
    assert len({id(v) for *_, v in report}) == len({v for *_, v in report})
    values = [v for matrix in cx.diffs.values() for v in matrix.values()]
    assert len({id(v) for v in values}) == len(set(values))


def test_d_squared_report_shares_values_of_single_entry_columns_across_degrees():
    # d(y) = 2/3 x; d(z) = 1/2 y and d(u) = 3/4 y, stored over 4; d(w) = z
    # and d(v) = z + u.  d^2 reads 1/3 and 1/2 in degree 2, each from a
    # single-entry column, then 1/2 from the single-entry w and 5/4 from v
    # in degree 3: the two halves are one Fraction object
    bases = {0: ["x"], 1: ["y"], 2: ["z", "u"], 3: ["w", "v"]}
    images = {
        "y": ({"x": 2}, 3),
        "z": ({"y": 1}, 2),
        "u": ({"y": 3}, 4),
        "w": ({"z": 1}, 1),
        "v": ({"z": 1, "u": 1}, 1),
    }

    def columns(labels, rows):
        terms = [images.get(label, ({}, 1)) for label in labels]
        return _joined([({rows[k]: v for k, v in t.items()}, den) for t, den in terms])

    cx = build_complex(bases, columns, (0, 2), EXACT)
    report = cx.d_squared_report()
    half = Fraction(1, 2)
    assert report == [
        (2, (0, 0), Fraction(1, 3)),
        (2, (0, 1), half),
        (3, (0, 0), half),
        (3, (0, 1), Fraction(5, 4)),
    ]
    assert report[1][2] is report[2][2]
    assert all(type(v) is Fraction for *_, v in report)
    assert report == d_squared_reference(cx)


def test_d_squared_error_message_with_fractions():
    bases = {0: ["x"], 1: ["y", "y2"], 2: ["z"]}
    diffs = {
        1: {(0, 0): Fraction(2, 3), (0, 1): Fraction(1, 2)},
        2: {(0, 0): Fraction(-3, 4), (1, 0): Fraction(1, 5)},
    }
    complex = GradedChainComplex(basis=bases, diffs=diffs, window=(0, 1))
    assert complex.d_squared_report() == [(2, (0, 0), Fraction(-2, 5))]
    with pytest.raises(DSquareError) as err:
        betti(complex)
    assert str(err.value) == "d^2 != 0 at degree 2, entry (0, 0) = -2/5 (1 nonzero entries total)"


def test_d_squared_error_names_the_first_entry_and_counts_the_rest(chekanov_a):
    # chekanov_a's TRUNCATED mcyc at max-len 4: the message counts every
    # nonzero entry of the report and names its first
    cx = build_mcyc_complex(chekanov_a, (-4, 0), 4)
    report = cx.d_squared_report()
    d, pos, val = report[0]
    with pytest.raises(DSquareError) as err:
        betti(cx)
    assert str(err.value) == (
        "d^2 != 0 at degree -3, entry (108, 0) = 1 (37056 nonzero entries total)"
    )
    assert (d, pos, val, len(report)) == (-3, (108, 0), 1, 37056)


def stored_columns(cx) -> list:
    """Every degree's integer columns and denominator, entries in order."""
    return [
        (d, den, [(c, list(col.items())) for c, col in columns.items()])
        for d in sorted(cx.basis)
        for columns, den in [cx._integer(d)]
    ]


def assert_d_squared_matches_the_column_reference(cx) -> str | None:
    """The report and betti's refusal read a degree at a time equal the
    per-column reference, in order and value, equal values one Fraction;
    neither writes into a stored column.  Returns betti's message."""
    before = stored_columns(cx)
    report = cx.d_squared_report()
    assert stored_columns(cx) == before
    assert report == ref.d_squared_report(cx)
    assert all(type(v) is Fraction for *_, v in report)
    assert len({id(v) for *_, v in report}) == len({v for *_, v in report})
    message = ref.d_squared_message(cx)
    assert (message is None) == (not report)
    if message is None:
        betti(cx)
    else:
        with pytest.raises(DSquareError) as err:
            betti(cx)
        assert str(err.value) == message
    assert stored_columns(cx) == before
    return message


CHORD_BUILDERS = [build_cyclic_complex, build_hoplus_complex, build_ho_complex, build_mcyc_complex]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from([1, 0, -1]),
    st.booleans(),
    st.sampled_from(CHORD_BUILDERS),
    st.sampled_from([((0, 4), 3), ((-2, 2), 3), ((0, 3), 4)]),
)
def test_d_squared_products_by_degree_match_the_column_reference(
    seed, min_grading, fractional, builder, shape
):
    # EXACT and TRUNCATED complexes, then the same with one stored entry
    # changed, so that betti refuses most of them
    rng = random.Random(seed)
    draw = fractional_dga if fractional else random_dga
    dga = draw(rng, min_grading=min_grading)
    cx = builder(dga, *shape)
    assert_d_squared_matches_the_column_reference(cx)
    degrees = [d for d in sorted(cx.basis) if cx._integer(d)[0]]
    if not degrees:
        return
    d = rng.choice(degrees)
    columns, den = cx._integer(d)
    columns = {c: dict(col) for c, col in columns.items()}
    col = columns[rng.choice(list(columns))]
    r = rng.choice(list(col))
    col[r] = col[r] + 1 or 2
    cx._store[d] = (columns, den)
    assert_d_squared_matches_the_column_reference(cx)


@pytest.mark.parametrize("builder", CHORD_BUILDERS, ids=["cyc", "hoplus", "ho", "mcyc"])
def test_truncated_chekanov_a_d_squared_matches_the_column_reference(chekanov_a, builder):
    # chekanov_a has grading-0 chords: at max-len 3 every builder is
    # TRUNCATED with d^2 != 0, and the report reads shared stored columns
    cx = builder(chekanov_a, (-2, 2), 3)
    assert cx.verdict == TRUNCATED
    assert assert_d_squared_matches_the_column_reference(cx)
    # the same complex through its Fraction view: the columns are derived
    viewed = GradedChainComplex(cx.basis, cx.diffs, cx.window, cx.verdict)
    assert assert_d_squared_matches_the_column_reference(viewed)


def test_d_squared_copies_a_shared_column_before_adding_to_it():
    # d(x) = a + b, d(y) = a; d(z) = x, d(v) = -y; d(w) = z + v.  d^2(w) =
    # x - y: its first product, d(z) with factor 1, is z's stored column
    # itself, which must be copied before d(v) is added to it
    bases = {0: ["a", "b"], 1: ["x", "y"], 2: ["z", "v"], 3: ["w"]}
    store = {
        1: ({0: {0: 1, 1: 1}, 1: {0: 1}}, 1),
        2: ({0: {0: 1}, 1: {1: -1}}, 1),
        3: ({0: {0: 1, 1: 1}}, 1),
    }
    cx = GradedChainComplex._from_columns(bases, store, (1, 2), TRUNCATED)
    message = assert_d_squared_matches_the_column_reference(cx)
    assert cx.d_squared_report() == [
        (2, (0, 0), 1), (2, (1, 0), 1), (2, (0, 1), -1), (3, (0, 0), 1), (3, (1, 0), -1)
    ]
    assert message == "d^2 != 0 at degree 2, entry (0, 0) = 1 (5 nonzero entries total)"
    assert store[2][0] == {0: {0: 1}, 1: {1: -1}}


def test_betti_edge_flags(unknot3):
    table = betti(build_ho_complex(unknot3, (0, 8), 9))
    assert table.flagged == frozenset({0, 8})
    assert table.verdict == EXACT


def test_guard_verdicts(chekanov_a, unknot2):
    assert guard_verdict((g.grading for g in unknot2.generators), (0, 8), 9) == EXACT
    assert guard_verdict((g.grading for g in unknot2.generators), (0, 8), 5) == TRUNCATED
    assert (
        guard_verdict((g.grading for g in chekanov_a.generators), (0, 8), 9)
        == TRUNCATED
    )
    assert guard_verdict([], (0, 4), 0) == EXACT


def test_enumerate_cyclic_words_counts():
    ring = BaseRing(1)
    alg = ChordAlgebra(ring, [Generator("a", 1)])
    words = enumerate_cyclic_words(alg, (0, 4), 4)
    assert [w.letters for w in words] == [
        ("a",), ("a",) * 2, ("a",) * 3, ("a",) * 4
    ]
    # the cyclic complex keeps one label per good necklace
    dga = DGASpec(ring, [Generator("a", 1), Generator("b", 2)], {}, 2)
    labels = [
        lab for labs in build_cyclic_complex(dga, (0, 4), 4).basis.values() for lab in labs
    ]
    classes = {cyclic_class(dga.algebra, w) for w in enumerate_cyclic_words(dga.algebra, (-1, 5), 4)}
    assert len(labels) == len(set(labels))
    assert {lab[1] for lab in labels} == {c.representative for c in classes if not c.is_zero}


def test_enumerate_respects_ports():
    ring = BaseRing(2)
    alg = ChordAlgebra(
        ring, [Generator("u", 1, src=1, dst=2), Generator("v", 1, src=2, dst=1)]
    )
    words = enumerate_cyclic_words(alg, (0, 4), 4)
    for w in words:
        assert alg.cyclically_composable(w)
    assert Word.of(["u", "v"]) in words
    assert all(w.letters != ("u", "u") for w in words)


def _cyclic_brute_force(letters, max_len, window):
    """Every word of itertools.product over the sorted letters, length 1 to
    max_len, whose neighbours compose and whose last letter closes on the
    first, with degree in the window (any degree without one), grouped by
    degree in the order product lists them."""
    groups: dict = {}
    for length in range(1, max_len + 1):
        for word in itertools.product(sorted(letters), repeat=length):
            info = [letters[a] for a in word]
            if any(a.src != b.dst for a, b in zip(info, info[1:] + info[:1])):
                continue
            deg = sum(a.grading for a in info)
            if window is None or window[0] <= deg <= window[1]:
                groups.setdefault(deg, []).append(word)
    return groups


def _random_letters(data, k, gradings, count):
    """Up to count letters with ports in 1..k and gradings drawn from
    gradings, named so that string order puts "c10" before "c2"."""
    names = st.lists(
        st.sampled_from(["a", "b", "a1", "c10", "c2"]), min_size=1, max_size=count, unique=True
    )
    port = st.integers(1, k)
    return {
        name: Generator(name, data.draw(gradings), data.draw(port), data.draw(port))
        for name in data.draw(names)
    }


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cyclic_words_match_brute_force(data):
    """The walk lists the cyclic words of a small random quiver, with or
    without a degree window, exactly as brute force over itertools.product
    does: grouped by degree, shortest first, then in letter order."""
    k = data.draw(st.integers(1, 3))
    letters = _random_letters(data, k, st.integers(-1, 3), 4)
    window = data.draw(st.none() | st.tuples(st.integers(-3, 6), st.integers(-3, 6)))
    max_len = data.draw(st.integers(0, 4))
    got = _cyclic_words(letters, max_len, window)
    assert got == _cyclic_brute_force(letters, max_len, window)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_necklace_walk_matches_brute_force(data):
    """With necklaces, the walk lists the words of brute force that no
    rotation sorts before, in the same order, each with its least period,
    with or without a degree window."""
    k = data.draw(st.integers(1, 3))
    letters = _random_letters(data, k, st.integers(-1, 3), 4)
    window = data.draw(st.none() | st.tuples(st.integers(-3, 6), st.integers(-3, 6)))
    max_len = data.draw(st.integers(0, 5))

    def period(w):
        return next(p for p in range(1, len(w) + 1) if w == w[p:] + w[:p])

    want = {}
    for deg, words in _cyclic_brute_force(letters, max_len, window).items():
        necklaces = [
            (w, period(w)) for w in words if all(w[i:] + w[:i] >= w for i in range(len(w)))
        ]
        if necklaces:
            want[deg] = necklaces
    assert _cyclic_words(letters, max_len, window, necklaces=True) == want


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_window_pruning_keeps_every_word_in_the_window(data):
    """The prefix pruning under a degree window drops no word: at lengths
    beyond the first test's reach, for gradings of either sign and zero,
    the pruned walk still matches brute force, and the unpruned walk
    filtered by degree."""
    k = data.draw(st.integers(1, 2))
    letters = _random_letters(data, k, st.integers(-3, 4), 3)
    lo = data.draw(st.integers(-8, 8))
    window = (lo, lo + data.draw(st.integers(0, 6)))
    max_len = data.draw(st.integers(0, 7))
    got = _cyclic_words(letters, max_len, window)
    assert got == _cyclic_brute_force(letters, max_len, window)
    unpruned = _cyclic_words(letters, max_len)
    assert got == {d: ws for d, ws in unpruned.items() if window[0] <= d <= window[1]}


def test_stability_for_exact_complexes(unknot2):
    t1 = betti(build_ho_complex(unknot2, (0, 6), 7))
    t2 = betti(build_ho_complex(unknot2, (0, 6), 12))
    assert t1.ranks == t2.ranks


def test_is_boundary():
    bases = {0: ["x", "y"], 1: ["z"]}
    diffs = {1: {(0, 0): Fraction(2)}}
    complex = GradedChainComplex(basis=bases, diffs=diffs, window=(0, 1))
    assert is_boundary(complex, 0, {0: Fraction(1)})
    assert not is_boundary(complex, 0, {1: Fraction(1)})


def test_verify_les_ranks_direct_sum():
    t2 = BettiTable({0: 1, 1: 2, 2: 0}, frozenset({-1, 5}))
    t3 = BettiTable({0: 0, 1: 1, 2: 3}, frozenset({-1, 5}))
    t1 = BettiTable({0: 1, 1: 3, 2: 3}, frozenset({-1, 5}))
    assert verify_les_ranks(t1, t2, t3, (0, 2))


def test_verify_les_ranks_euler_violation():
    t2 = BettiTable({0: 1}, frozenset())
    t3 = BettiTable({0: 1}, frozenset())
    t1 = BettiTable({0: 1}, frozenset())
    assert not verify_les_ranks(t1, t2, t3, (0, 0))


def test_euler_over_negative_degrees_is_an_exact_int():
    # (-1) ** d is a float for d < 0, which made this 2.0
    table = BettiTable({-3: 1, -2: 2, 0: 1}, frozenset())
    assert table.euler() == 2 and type(table.euler()) is int
    assert table.euler((-3, -3)) == -1 and type(table.euler((-3, -3))) is int


def test_verify_les_ranks_zero_tables():
    z = BettiTable({d: 0 for d in range(3)}, frozenset({9}))
    assert verify_les_ranks(z, z, z, (0, 2))


def test_verify_les_ranks_rejects_flagged_window():
    t = BettiTable({0: 0, 1: 0}, frozenset({0}))
    with pytest.raises(ValueError):
        verify_les_ranks(t, t, t, (0, 1))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_rank_nullity(seed):
    rng = random.Random(seed)
    dga = random_dga(rng)
    complex = build_ho_complex(dga, (0, 4), 5)
    lo, hi = complex.window
    for d in range(lo, hi + 1):
        dim = complex.dim(d)
        r = rank(complex.matrix(d), complex.dim(d - 1), dim)
        kernel = dim - r
        assert r + kernel == dim
        assert r >= 0 and kernel >= 0


def test_betti_invariant_under_basis_reordering(unknot2):
    complex = build_ho_complex(unknot2, (0, 6), 8)
    base = betti(complex).ranks
    rng = random.Random(0)
    perm_basis = {}
    perms = {}
    for d, labs in complex.basis.items():
        order = list(range(len(labs)))
        rng.shuffle(order)
        perms[d] = order
        perm_basis[d] = [labs[i] for i in order]
    new_diffs = {}
    for d, mat in complex.diffs.items():
        inv_row = {old: new for new, old in enumerate(perms.get(d - 1, []))}
        inv_col = {old: new for new, old in enumerate(perms.get(d, []))}
        new_diffs[d] = {
            (inv_row[r], inv_col[c]): v for (r, c), v in mat.items()
        }
    shuffled = GradedChainComplex(
        basis=perm_basis, diffs=new_diffs, window=complex.window
    )
    assert betti(shuffled).ranks == base


def _unit_killing(gradings: tuple[int, ...]) -> DGASpec:
    """One component, chords c0.. of the given gradings; d(c0) = 1 and
    every other chord is closed."""
    gens = [Generator(f"c{i}", g) for i, g in enumerate(gradings)]
    return DGASpec(BaseRing(1), gens, {"c0": Element.monomial(Word.idem(1))}, 2)


@pytest.mark.parametrize("builder", [build_ho_complex, build_hoplus_complex, build_cyclic_complex])
def test_betti_reduces_no_more_columns_to_zero_than_the_homology(monkeypatch, builder):
    # with clearing, a column handed to _reduce ends at zero only for a
    # class of the homology, or for a row of the first coboundary
    complex = builder(_unit_killing((1, 1, 1)), (0, 8), 9)
    reduce, work = homology._reduce, {"in": 0, "out": 0}

    def counted(columns):
        pivots = reduce(columns)
        work["in"] += sum(1 for col in columns.values() if col)
        work["out"] += len(pivots)
        return pivots

    monkeypatch.setattr(homology, "_reduce", counted)
    table = betti(complex)
    lo = complex.window[0]
    assert work["out"] > 0
    assert work["in"] - work["out"] <= sum(table.ranks.values()) + complex.dim(lo - 1)


def _ranks_by_boundary(complex: GradedChainComplex) -> dict[int, int]:
    """Betti numbers on the window from rank() of each degree's diffs view."""
    lo, hi = complex.window
    rk = {
        d: rank(complex.matrix(d), complex.dim(d - 1), complex.dim(d))
        for d in range(lo, hi + 2)
    }
    return {d: complex.dim(d) - rk[d] - rk[d + 1] for d in range(lo, hi + 1)}


def _assert_same_ranks(complex: GradedChainComplex) -> None:
    # betti first, while the complex still reads its stored columns
    table = betti(complex)
    assert table.ranks == _ranks_by_boundary(complex)
    assert betti(complex).ranks == table.ranks


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_betti_matches_the_ranks_of_the_boundary_maps(seed):
    dga = random_dga(random.Random(seed))
    for builder in (build_cyclic_complex, build_hoplus_complex, build_ho_complex, build_mcyc_complex):
        _assert_same_ranks(builder(dga, (0, 5), 6))
    try:
        lin = linearize(dga, Augmentation(values={}))
    except ValueError:
        return
    _assert_same_ranks(lin)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_betti_matches_the_ranks_of_the_boundary_maps_on_unknots(n):
    dga = dga_from_document(unknot_document(n))
    for builder in (build_cyclic_complex, build_hoplus_complex, build_ho_complex, build_mcyc_complex):
        complex = builder(dga, (0, 8), 9)
        assert any(betti(complex).ranks.values())
        _assert_same_ranks(complex)


def test_betti_reads_diffs_edited_in_place():
    complex = build_hoplus_complex(_unit_killing((1, 1, 2)), (0, 5), 6)
    before = betti(complex).ranks
    assert any(before.values())
    # rescale one basis chain of degree 3 by 3: its column of d_3 is
    # multiplied by 3 and its row of d_4 divided by 3, so d^2 stays 0
    column = next(c for _, c in complex.diffs[3] if any(r == c for r, _ in complex.diffs[4]))
    for key in [k for k in complex.diffs[3] if k[1] == column]:
        complex.diffs[3][key] *= 3
    for key in [k for k in complex.diffs[4] if k[0] == column]:
        complex.diffs[4][key] /= 3
    assert betti(complex).ranks == before == _ranks_by_boundary(complex)
    # the top boundary map read as zero: degree 5 gains its kernel
    complex.diffs[6].clear()
    after = betti(complex).ranks
    assert after == _ranks_by_boundary(complex)
    assert after[5] > before[5]
