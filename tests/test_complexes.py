import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordhom import complexes
from chordhom.algebra import BaseRing, ChordAlgebra, Element, Generator, Word
from chordhom.complexes import (
    CyclicWord,
    _cyclic_bases,
    _decorated_bases,
    _decorated_kernel,
    _enumerate_marked_words,
    _mark_terms,
    build_cyclic_complex,
    build_ho_complex,
    build_hoplus_complex,
    build_mcyc_complex,
    cyclic_class,
    dc_one_generators,
    ho_vanishes_by_unit_differential,
    verify_en_isomorphism,
)
from chordhom.dga import DGASpec, _leibniz_word
from chordhom.documents import dga_from_document
from chordhom.examples import example_document
from chordhom.homology import EXACT, _cyclic_words, betti, guard_verdict
from chordhom.surgery import (
    SurgeryCountTable,
    build_sh_surgery,
    build_shplus_surgery,
    builtin_ball_filling,
)

from conftest import random_dga
from test_dga import free_dga
from reference_images import (
    Numbering,
    _rot1,
    cyclic_bases_reference,
    dc_one_reference,
    is_bad_by_parity,
    marks,
    module_M_reference,
    s_operator,
)


def algebra_with(*gradings):
    ring = BaseRing(1)
    gens = [Generator(chr(ord("a") + i), g) for i, g in enumerate(gradings)]
    return ChordAlgebra(ring, gens)


# ---- cyclic classes -----------------------------------------------------------


def test_even_power_of_odd_word_is_zero_class():
    alg = algebra_with(1)
    cls = cyclic_class(alg, Word.of(["a", "a"]))
    assert cls.is_zero


def test_cube_is_good_with_multiplicity_three():
    alg = algebra_with(1)
    cls = cyclic_class(alg, Word.of(["a", "a", "a"]))
    assert not cls.is_zero and cls.multiplicity == 3


def test_two_letter_class_canonical():
    alg = algebra_with(1, 2)
    cls = cyclic_class(alg, Word.of(["b", "a"]))
    assert cls.representative == ("a", "b")
    assert cls.multiplicity == 1 and not cls.is_zero
    # rotating ba to ab costs the Koszul sign (-1)^(2*1) = +1
    assert cls.sign == 1


def test_cyclic_class_rotation_invariance():
    alg = algebra_with(1, 2, 1)
    rng = random.Random(3)
    names = ["a", "b", "c"]
    for _ in range(50):
        letters = tuple(rng.choice(names) for _ in range(rng.randint(1, 5)))
        w = Word.of(letters)
        cls = cyclic_class(alg, w)
        for rot, sign in alg.rotations(w):
            cls2 = cyclic_class(alg, rot)
            assert cls2.representative == cls.representative
            assert cls2.is_zero == cls.is_zero
            if not cls.is_zero:
                assert cls2.sign * sign == cls.sign


def test_bad_word_criteria_agree():
    alg = algebra_with(1, 2, 3)
    rng = random.Random(9)
    names = ["a", "b", "c"]
    for _ in range(200):
        letters = tuple(rng.choice(names) for _ in range(rng.randint(1, 6)))
        w = Word.of(letters)
        assert cyclic_class(alg, w).is_zero == is_bad_by_parity(alg, w)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 3))
def test_kappa_multiplicative_on_powers(g1, reps, g2):
    alg = algebra_with(g1, g2)
    base = ("a", "b")
    cls_v = cyclic_class(alg, Word.of(base))
    word = Word.of(base * reps)
    cls = cyclic_class(alg, word)
    if not cls.is_zero:
        assert cls.multiplicity == reps * cls_v.multiplicity


def cyclic_class_reference(alg: ChordAlgebra, word: Word) -> CyclicWord:
    """The class read off ChordAlgebra.rotations: the sort-least rotation
    (first one on ties) with its accumulated Koszul sign, zero when the word
    comes back to itself with sign -1, and the largest power it is."""
    best, best_sign, bad = None, 1, False
    for rotated, sign in alg.rotations(word):
        if rotated.letters == word.letters and sign == -1:
            bad = True
        if best is None or rotated.sort_key() < best.sort_key():
            best, best_sign = rotated, sign
    letters = best.letters
    kappa = max(
        k for k in range(1, len(letters) + 1)
        if len(letters) % k == 0 and letters == letters[: len(letters) // k] * k
    )
    return CyclicWord(letters, 0 if bad else best_sign, kappa, bad)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_cyclic_class_matches_rotation_reference(seed):
    rng = random.Random(seed)
    k = rng.randint(1, 2)
    gens = [
        Generator(f"g{i}", rng.randint(-2, 3), rng.randint(1, k), rng.randint(1, k))
        for i in range(rng.randint(1, 4))
    ]
    alg = ChordAlgebra(BaseRing(k), gens)
    # a closed walk of ports, repeated: powers make the zero classes and kappa > 1
    for _ in range(20):
        letters = [rng.choice(gens)]
        for _ in range(rng.randint(0, 3)):
            cands = [g for g in gens if g.dst == letters[-1].src]
            if not cands:
                break
            letters.append(rng.choice(cands))
        if letters[-1].src != letters[0].dst:
            continue
        word = Word.of([g.name for g in letters] * rng.randint(1, 3))
        assert cyclic_class(alg, word) == cyclic_class_reference(alg, word)


def test_cyclic_class_rejects_bad_input():
    alg = algebra_with(1)
    with pytest.raises(ValueError):
        cyclic_class(alg, Word.idem(1))
    two = ChordAlgebra(BaseRing(2), [Generator("a", 1, 1, 2)])
    with pytest.raises(ValueError):
        cyclic_class(two, Word.of(["a"]))  # not cyclically composable


# ---- the cyclic basis: good necklaces off the walk -----------------------------


@pytest.mark.parametrize("seed", range(60))
def test_cyclic_bases_match_the_rotation_filter(seed):
    """The necklaces read off the walk give the basis of the rotation
    filter over every cyclic word, on random DGAs of one and two
    components with chords of grading down to -1."""
    rng = random.Random(seed)
    dga = random_dga(rng, min_grading=(1, 0, -1)[seed % 3])
    window, max_len = (rng.randint(-2, 2), rng.randint(2, 5)), rng.randint(1, 5)
    assert _cyclic_bases(dga.algebra, window, max_len) == cyclic_bases_reference(
        dga.algebra, window, max_len
    )


def test_cyclic_bases_drop_the_zero_classes():
    """a a is an even power of an odd word, a a a an odd one; a b a b is
    zero exactly when |a| + |b| is odd."""
    labels = _cyclic_bases(algebra_with(1), (0, 4), 4)
    words = [w for labs in labels.values() for _, w in labs]
    assert ("a", "a", "a") in words and ("a", "a") not in words
    for gradings, kept in (((1, 2), False), ((1, 1), True), ((2, 2), True)):
        labels = _cyclic_bases(algebra_with(*gradings), (0, 8), 4)
        words = [w for labs in labels.values() for _, w in labs]
        assert (("a", "b", "a", "b") in words) == kept
        assert ("a", "b") in words


@pytest.mark.parametrize("name,window", [("chekanov_a", (-4, 0)), ("unknot", (0, 8))])
def test_cyclic_bases_rotate_no_word(monkeypatch, name, window):
    """The basis of the rotation filter, read off the walk: no word is
    rotated to find it."""
    alg = dga_from_document(example_document(name)).algebra
    want = cyclic_bases_reference(alg, window, 4)

    def rotate(*args):
        raise AssertionError("the cyclic basis rotated a word")

    monkeypatch.setattr(complexes, "_cyclic_rep", rotate)
    assert _cyclic_bases(alg, window, 4) == want


# ---- the spread operator ------------------------------------------------------


def test_s_operator_unit_and_single():
    alg = algebra_with(1, 2)
    assert s_operator(alg, Word.idem(1)) == {}
    out = s_operator(alg, Word.of(["a"]))
    assert len(out) == 1
    (dw, coeff), = out.items()
    assert dw.word == ("a",) and dw.decoration == "hat" and coeff == 1


def test_s_operator_two_letters():
    alg = algebra_with(1, 2)  # |a| = 1, |b| = 2
    out = s_operator(alg, Word.of(["a", "b"]))
    # a^ b has coefficient +1; a b^ rotates to b^ a with the decorated sign
    got = {(dw.word): c for dw, c in out.items()}
    assert got[("a", "b")] == 1
    # mark on b: prefix a (deg 1) moves past b-hat (deg 3): sign -1,
    # with the spread prefix sign (-1)^|a| = -1: total +1
    assert got[("b", "a")] == 1


# ---- unknot tables ------------------------------------------------------------


UNKNOT_DOCS = {
    2: "unknot_n2",
    3: "unknot",
    4: "unknot_n4",
    5: "unknot_n5",
}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_unknot_cyclic_table(n):
    dga = dga_from_document(example_document(UNKNOT_DOCS[n]))
    complex = build_cyclic_complex(dga, (0, 12), 13)
    expected = {}
    k = 1
    while k * (n - 1) <= 12:
        if n % 2 == 1 or k % 2 == 1:
            expected[k * (n - 1)] = [("cyc", ("a",) * k)]
        k += 1
    got = {d: complex.labels(d) for d in range(0, 13) if complex.labels(d)}
    assert got == expected
    assert not complex.diffs or all(not m for m in complex.diffs.values())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_unknot_ho_table_and_arrows(n):
    dga = dga_from_document(example_document(UNKNOT_DOCS[n]))
    complex = build_ho_complex(dga, (0, 12), 13)
    for d in range(0, 13):
        labels = set(complex.labels(d))
        expected = set()
        if d == 0:
            expected.add(("tau", 1))
        if d % (n - 1) == 0 and d > 0:
            expected.add(("chk", ("a",) * (d // (n - 1))))
        if (d - 1) % (n - 1) == 0 and d > 1:
            expected.add(("hat", ("a",) * ((d - 1) // (n - 1))))
        assert labels == expected, (n, d)
    # arrows: for even n the even-power hat words map onto twice the checks
    index = {
        d: {lab: i for i, lab in enumerate(complex.labels(d))}
        for d in complex.basis
    }
    for k in range(1, 13 // (n - 1) + 1):
        deg = k * (n - 1) + 1
        if deg > 13 or ("hat", ("a",) * k) not in index.get(deg, {}):
            continue
        col = index[deg][("hat", ("a",) * k)]
        hits = {
            complex.labels(deg - 1)[r]: v
            for (r, c), v in complex.matrix(deg).items()
            if c == col
        }
        if n % 2 == 0 and k % 2 == 0:
            assert hits == {("chk", ("a",) * k): Fraction(2)}
        else:
            assert hits == {}


# ---- one-generator unit differential ------------------------------------------


def test_dc1_detector(dc1, unknot3):
    assert dc_one_generators(dc1) == ["c"]
    assert ho_vanishes_by_unit_differential(dc1)
    assert not ho_vanishes_by_unit_differential(unknot3)


def test_dc_one_reads_the_unit_row_over_the_common_denominator():
    # h's 1/2 puts every coefficient over 2, so d(c) = e_1 is the row
    # ((), 1, 1, 2); 2e_1, e_1 + x and a unit on mixed ports are refused
    e1, x = Element.monomial(Word.idem(1)), Element.monomial(Word.of(("x",)))
    gens = [Generator("x", 0), Generator("h", 1)] + [Generator(n, 1) for n in "cab"]
    diff = {"h": x.scale(Fraction(1, 2)), "c": e1, "a": e1.scale(2), "b": e1 + x}
    dga = DGASpec(BaseRing(2), gens + [Generator("m", 1, src=1, dst=2)], dict(diff, m=e1))
    assert dga._denom == 2
    assert dc_one_generators(dga) == ["c"] == dc_one_reference(dga)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_dc_one_matches_the_element_reference(seed):
    rng = random.Random(seed)
    dga = free_dga(rng)
    k = dga.ring.k
    i, j = rng.randint(1, k), rng.randint(1, k)
    unit = Element.monomial(Word.idem(i)).scale(rng.choice([1, 1, 2, Fraction(1, 3)]))
    gens = dga.generators + [Generator("u", 1, src=i, dst=j)]
    dga = DGASpec(dga.ring, gens, dict(dga.differential, u=unit))
    assert dc_one_generators(dga) == dc_one_reference(dga)


def test_dc1_hat_differential(dc1):
    complex = build_hoplus_complex(dc1, (0, 4), 6)
    index = {
        d: {lab: i for i, lab in enumerate(complex.labels(d))}
        for d in complex.basis
    }
    col = index[3][("hat", ("c", "c"))]
    hits = {
        complex.labels(2)[r]: v
        for (r, c), v in complex.matrix(3).items()
        if c == col
    }
    # d(c^ c) = c^ + 2 c. c (unit absorption plus the doubled check word)
    assert hits == {("hat", ("c",)): Fraction(1), ("chk", ("c", "c")): Fraction(2)}


def test_dc1_ho_hits_component_class(dc1):
    complex = build_ho_complex(dc1, (0, 3), 5)
    index = {
        d: {lab: i for i, lab in enumerate(complex.labels(d))}
        for d in complex.basis
    }
    col = index[1][("chk", ("c",))]
    hits = {
        complex.labels(0)[r]: v
        for (r, c), v in complex.matrix(1).items()
        if c == col
    }
    assert hits == {("tau", 1): Fraction(1)}


def test_dc1_all_complexes_acyclic(dc1):
    for builder in (build_ho_complex, build_mcyc_complex):
        table = betti(builder(dc1, (0, 6), 8))
        assert all(table.rank(d) == 0 for d in range(0, 7))
    module = module_M_reference(dc1, (0, 4), 6)
    table = betti(module)
    assert all(table.rank(d) == 0 for d in range(0, 5))


@pytest.mark.parametrize("u_grading,v_grading", [(1, 2), (2, 1)])
def test_mark_terms_of_a_two_letter_differential(u_grading, v_grading):
    # d(c) = 3 u.v with c from component 1 to component 2
    ring = BaseRing(2)
    gens = [
        Generator("c", u_grading + v_grading + 1, 1, 2),
        Generator("u", u_grading, 2, 2),
        Generator("v", v_grading, 1, 2),
    ]
    dga = DGASpec(ring, gens, {"c": Element({Word.of(["u", "v"]): Fraction(3)})}, 2)
    terms = _mark_terms(dga, "c")
    base = [
        (1, ("mx", 2), ("c",), (), 1),  # x_dst c
        (1, ("mx", 1), (), ("c",), -1),  # - c x_src
        (1, ("mc", "u"), ("v",), (), -3),  # - S(dc): the hat on u
        (1, ("mc", "v"), (), ("u",), -3 * (-1) ** u_grading),  # and on v
    ]
    assert [t[:4] for t in terms] == [b[:4] for b in base]
    # the Koszul sign of moving before past the mark, after and the word
    grading = {g.name: g.grading for g in gens}

    def degree(letters):
        return sum(grading[x] for x in letters)

    for (_, mark, after, before, coeffs), (*_, c) in zip(terms, base):
        mark_degree = grading[mark[1]] + 1 if mark[0] == "mc" else 0
        assert coeffs == tuple(
            c * (-1) ** (degree(before) * (mark_degree + degree(after) + w)) for w in (0, 1)
        )


def test_module_M_squares_to_zero_on_random_dgas():
    # over one and two components and chords of grading down to -1; a
    # truncated window is not a subcomplex, so only exact ones are checked
    rng = random.Random(11)
    exact = set()
    for i in range(80):
        min_grading = (1, 0, -1)[i % 3]
        dga = random_dga(rng, min_grading=min_grading)
        gradings = (g.grading for g in dga.generators)
        if guard_verdict(gradings, (0, 3), 3) == EXACT:
            assert module_M_reference(dga, (0, 3), 4).d_squared_report() == []
            exact.add((min_grading, dga.ring.k))
    assert exact == {(g, k) for g in (1, 0, -1) for k in (1, 2)}


def _decorated_label_key(label):
    # the check/hat label order as an explicit sort key: tau by component,
    # then check and hat words, each shortest first
    if label[0] == "tau":
        return (0, label[1], ())
    return ({"chk": 1, "hat": 2}[label[0]], len(label[1]), label[1])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bases_match_brute_force(data):
    """The cyclic, check/hat (with and without tau) and marked bases on
    random one- and two-component DGAs against every letter tuple up to
    max_len, filtered by ports and degree and sorted by explicit keys."""
    k = data.draw(st.integers(1, 2))
    # string order puts "c10" before "c2": the alphabet is sorted by name
    letters = st.sampled_from(["a", "b", "a1", "b0", "c10", "c2"])
    names = data.draw(st.lists(letters, min_size=1, max_size=3, unique=True))
    port = st.integers(1, k)
    gens = [
        Generator(x, data.draw(st.integers(-1, 3)), data.draw(port), data.draw(port))
        for x in names
    ]
    dga = DGASpec(BaseRing(k), gens, {}, 2)
    alg = dga.algebra
    lo = data.draw(st.integers(-3, 5))
    window = (lo, lo + data.draw(st.integers(0, 4)))
    max_len = data.draw(st.integers(0, 4))
    inside = range(window[0] - 1, window[1] + 2)

    def grading(w):
        return sum(alg.gen(x).grading for x in w)

    words = [()] + [
        w
        for n in range(1, max_len + 1)
        for w in itertools.product(names, repeat=n)
        if alg.composable(w)
    ]
    cyclic = [w for w in words if w and alg.cyclically_composable(Word.of(w))]

    def collect(pairs, key=None):
        bases: dict = {}
        for deg, label in pairs:
            if deg in inside:
                bases.setdefault(deg, []).append(label)
        for labs in bases.values():
            labs.sort(key=key)
        return bases

    assert _cyclic_bases(alg, window, max_len) == collect(
        (grading(w), ("cyc", w))
        for w in cyclic
        if all(w[i:] + w[:i] >= w for i in range(len(w)))
        and not cyclic_class(alg, Word.of(w)).is_zero
    )
    for tau in (False, True):
        taus = [(0, ("tau", i)) for i in range(1, k + 1)] if tau else []
        assert _decorated_bases(alg, window, max_len, tau) == collect(
            taus
            + [(grading(w), ("chk", w)) for w in cyclic]
            + [(grading(w) + 1, ("hat", w)) for w in cyclic],
            key=_decorated_label_key,
        )
    def closes(w, src, dst):
        # w follows a mark from src to dst and closes the cycle
        return (alg.gen(w[0]).dst, alg.gen(w[-1]).src) == (src, dst) if w else src == dst

    assert _enumerate_marked_words(dga, window, max_len) == collect(
        (shift + grading(w), mark + (w,))
        for mark, src, dst, shift in marks(dga)
        for w in words
        if closes(w, src, dst)
    )


@pytest.mark.parametrize(
    "build",
    [build_cyclic_complex, build_hoplus_complex, build_ho_complex, build_mcyc_complex],
)
def test_chord_basis_build_walks_the_words_once(chekanov_a, monkeypatch, build):
    """Each chord basis reads its words off one walk of the enumerator, the
    marked words of mcyc included."""
    walks = []
    walk = complexes._cyclic_words
    monkeypatch.setattr(
        complexes, "_cyclic_words",
        lambda *args, **kwargs: walks.append(args) or walk(*args, **kwargs),
    )
    build(chekanov_a, (-4, 0), 4)
    assert len(walks) == 1


def _over_the_ball(build):
    def surgery(dga, window, max_len):
        filling = builtin_ball_filling(dga.ambient_dim)
        return build(filling, dga, SurgeryCountTable.zero(), window, max_len)
    return surgery


def _tail(label):
    return label[1][1:] if label[0] in ("chk", "hat") else ()


def _unmarked(label):
    return label[2] if label[0] in ("mx", "mc") else ()


def _head_term_starts_with_head(dga, word, cap):
    """Whether a term of d(c).u, c.u = word, that keeps the word within the
    cap starts with c: the one case where the image table reads the word's
    image off _leibniz_word although it holds the tail's."""
    head, tail = word[0], word[1:]
    right = dga.algebra.dst[tail[0]] if tail else None
    return any(
        (piece + tail)[:1] == (head,)
        for piece, _, psrc, _ in dga._rows.get(head, ())
        if len(piece) + len(tail) <= cap and right in (None, psrc)
    )


@pytest.mark.parametrize(
    "build,word",
    [
        (build_hoplus_complex, _tail),
        (build_ho_complex, _tail),
        (_over_the_ball(build_shplus_surgery), _tail),
        (_over_the_ball(build_sh_surgery), _tail),
        (build_mcyc_complex, _unmarked),
    ],
    ids=["hoplus", "ho", "sh+", "sh", "mcyc"],
)
def test_chord_images_compute_each_leibniz_image_once(chekanov_a, monkeypatch, build, word):
    """One build keeps one image table with exactly one entry per distinct
    tail of its check and hat words (mcyc: per distinct unmarked word) and
    no other: a hat word always reads its tail's image, a check word with
    no differential letter none.  The Leibniz kernel is called only for a
    word whose tail the table lacks, or for one where a term of d(c).u
    starts with its head c, and on nothing else."""
    tables, misses, calls = [], [], []

    class Recording(complexes._ImageTable):
        def __init__(self, dga, cap):
            super().__init__(dga, cap)
            tables.append(self)

        def __missing__(self, letters):
            misses.append((letters, letters[1:] in self))
            return super().__missing__(letters)

    kernel = complexes._leibniz_word
    monkeypatch.setattr(complexes, "_ImageTable", Recording)
    monkeypatch.setattr(
        complexes, "_leibniz_word",
        lambda dga, letters, **kw: calls.append((letters, misses[-1])) or kernel(dga, letters, **kw),
    )
    window = (-4, 0)
    cx = build(chekanov_a, window, 4)
    # build_complex takes the images of degrees lo .. hi + 1
    imaged = [lab for d in range(window[0], window[1] + 2) for lab in cx.basis.get(d, [])]
    closed = chekanov_a._rows.keys().isdisjoint
    asked = {word(lab) for lab in imaged if lab[0] != "chk" or not closed(lab[1])}
    [table] = tables
    assert set(table) == asked | {()}
    assert len(misses) == len(asked - {()})
    assert {letters for letters, _ in calls} <= {word(lab) for lab in imaged}
    assert len(calls) == len({letters for letters, _ in calls})
    for letters, (missed, tail_held) in calls:
        assert missed == letters
        assert not tail_held or _head_term_starts_with_head(chekanov_a, letters, table.cap)
    assert len(calls) < len(misses)


def _composable_words(dga, max_len):
    names = [g.name for g in dga.generators]
    return [
        letters
        for n in range(1, max_len + 1)
        for letters in itertools.product(names, repeat=n)
        if dga.algebra.composable(letters)
    ]


def assert_table_holds_the_leibniz_images(dga, words, cap):
    """An image table fed words in the given order holds, for each, the
    word's _leibniz_word image at the cap, key for key and in order, and
    the parity of its degree."""
    table = complexes._ImageTable(dga, cap)
    for letters in words:
        table[letters]
    assert set(table) == set(words) | {()}
    parity = dga.algebra.parity
    for letters in words:
        image, odd = table[letters]
        assert list(image.items()) == list(_leibniz_word(dga, letters, cap=cap).items())
        assert odd == sum(parity[x] for x in letters) & 1


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 10**9),
    st.sampled_from(["random_dga", "free_dga", "chekanov_a"]),
    st.integers(0, 5),
)
def test_image_table_entries_are_the_leibniz_images(seed, source, cap):
    # shortest first, every tail is in the table when its word comes; in
    # reverse, no tail of the longest words is; free DGAs put units at any
    # component and pieces whose ports need not match their generator's
    rng = random.Random(seed)
    if source == "chekanov_a":
        dga, max_len = dga_from_document(example_document("chekanov_a")), 3
    else:
        dga = random_dga(rng, min_grading=-1) if source == "random_dga" else free_dga(rng)
        max_len = 4
    words = _composable_words(dga, max_len)
    assert_table_holds_the_leibniz_images(dga, words, cap)
    assert_table_holds_the_leibniz_images(dga, words[::-1], cap)
    rng.shuffle(words)
    assert_table_holds_the_leibniz_images(dga, words, cap)


def test_image_table_reads_a1_a1_a1_off_the_leibniz_kernel(chekanov_a, monkeypatch):
    # d(a1) has a unit term, so d(a1).(a1 a1) holds a1 a1, which a1.d(a1 a1)
    # meets: its running sum drops and re-adds the key, which the tail's
    # image (where a1 - a1 cancelled) cannot tell
    assert _head_term_starts_with_head(chekanov_a, ("a1", "a1", "a1"), 3)
    calls = []
    kernel = complexes._leibniz_word
    monkeypatch.setattr(
        complexes, "_leibniz_word",
        lambda dga, letters, **kw: calls.append(letters) or kernel(dga, letters, **kw),
    )
    words = [("a1",), ("a1", "a1"), ("a1", "a1", "a1")]
    assert_table_holds_the_leibniz_images(chekanov_a, words, 3)
    assert calls == [("a1", "a1"), ("a1", "a1", "a1")]
    assert list(kernel(chekanov_a, ("a1", "a1", "a1"), cap=3)) == [
        ("a7", "a1", "a1"), ("a1", "a7", "a1"), ("a1", "a1"), ("a1", "a1", "a7"),
    ]


def assert_check_image_is_the_slot_word_image(dga, letters, max_len):
    full = _leibniz_word(dga, letters[1:] + letters[:1], cap=max_len)
    want = [
        (("chk", _rot1(key)) if type(key) is tuple else ("tau", key), v)
        for key, v in full.items()
    ]
    # the check/hat kernel of one build, on a degree of one label
    rows = Numbering()
    columns, _ = _decorated_kernel(dga, max_len)([("chk", letters)], rows)
    assert list(columns) in ([], [0])
    assert rows.labelled(columns.get(0, {})) == want


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 4))
def test_check_image_is_the_leibniz_image_of_the_slot_word(seed, max_len):
    # free DGAs: unit terms at any component and pieces whose ports need
    # not match their generator's, so the port filters on the tail image
    # are exercised; one tails dict per word, as the cap varies
    dga = free_dga(random.Random(seed))
    for words in _cyclic_words(dga.algebra.generators, 4).values():
        for letters in words:
            assert_check_image_is_the_slot_word_image(dga, letters, max_len)


def test_check_image_drops_a_cancelled_key():
    # d(a) = a with a odd: in the slot word a.a the two terms a.a cancel
    dga = DGASpec(BaseRing(1), [Generator("a", 1)], {"a": Element.monomial(Word.of("a"))})
    assert _decorated_kernel(dga, 2)([("chk", ("a", "a"))], Numbering()) == ({}, 1)
    assert_check_image_is_the_slot_word_image(dga, ("a", "a"), 2)


def test_mcyc_single_hat_closed(dc1):
    # d(c^) = xc - cx = 0 in the cyclic quotient for the unit chord
    complex = build_mcyc_complex(dc1, (0, 4), 6)
    index = {
        d: {lab: i for i, lab in enumerate(complex.labels(d))}
        for d in complex.basis
    }
    col = index[2][("mc", "c", ())]
    hits = {r: v for (r, c), v in complex.matrix(2).items() if c == col}
    assert not hits


def test_empty_dga_component_classes():
    ring = BaseRing(2)
    dga = DGASpec(ring, [], {}, 2)
    complex = build_ho_complex(dga, (0, 2), 3)
    assert complex.labels(0) == [("tau", 1), ("tau", 2)]
    table = betti(complex)
    assert table.rank(0) == 2


# ---- the marked module equivalence --------------------------------------------


@pytest.mark.parametrize("name,window", [("unknot_n2", (0, 8)), ("unknot", (0, 8))])
def test_en_equivalence_unknots(name, window):
    dga = dga_from_document(example_document(name))
    assert verify_en_isomorphism(dga, window, 10)


def test_en_equivalence_empty():
    ring = BaseRing(2)
    dga = DGASpec(ring, [], {}, 2)
    assert verify_en_isomorphism(dga, (0, 4), 4)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_en_equivalence_randoms(seed):
    rng = random.Random(seed)
    dga = random_dga(rng, max_gens=3)
    assert verify_en_isomorphism(dga, (0, 4), 5)


# ---- d^2 = 0 sweeps ------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000))
def test_random_dga_derived_complexes_square_to_zero(seed):
    rng = random.Random(seed)
    dga = random_dga(rng)
    for builder in (
        build_cyclic_complex,
        build_hoplus_complex,
        build_ho_complex,
        build_mcyc_complex,
    ):
        assert not builder(dga, (0, 5), 6).d_squared_report()


def test_dc1_vanishing_stable_across_lengths(dc1):
    for max_len in (7, 9):
        table = betti(build_ho_complex(dc1, (0, 6), max_len))
        assert all(table.rank(d) == 0 for d in range(0, 7))


def test_unit_differential_vanishing_with_extra_generators():
    # a unit-killing chord forces acyclicity no matter what else is present
    ring = BaseRing(1)
    dga = DGASpec(
        ring,
        [Generator("c", 1), Generator("g", 2)],
        {"c": Element.monomial(Word.idem(1))},
        2,
    )
    assert ho_vanishes_by_unit_differential(dga)
    table = betti(build_ho_complex(dga, (0, 5), 7))
    assert all(table.rank(d) == 0 for d in range(0, 6))
    table = betti(build_mcyc_complex(dga, (0, 5), 7))
    assert all(table.rank(d) == 0 for d in range(0, 6))


def test_builder_verdicts(unknot3, chekanov_a):
    exact = build_cyclic_complex(unknot3, (0, 8), 9)
    assert exact.verdict == "EXACT"
    assert [l[1] for d in range(0, 9) for l in exact.labels(d)] == [
        ("a",) * k for k in (1, 2, 3, 4)
    ]
    # every chord builder: a chord of grading below 1 or a max-len below the
    # window top truncates; the mcyc mark takes one letter of the max-len
    builders = build_cyclic_complex, build_hoplus_complex, build_ho_complex, build_mcyc_complex
    for builder in builders:
        assert builder(chekanov_a, (-2, 2), 3).verdict == "TRUNCATED"
        assert builder(unknot3, (0, 8), 3).verdict == "TRUNCATED"
        top = builder(unknot3, (0, 8), 8).verdict
        assert top == ("TRUNCATED" if builder is build_mcyc_complex else "EXACT")
        assert builder(unknot3, (0, 8), 9).verdict == "EXACT"
