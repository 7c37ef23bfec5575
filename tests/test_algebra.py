import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordhom.algebra import BaseRing, ChordAlgebra, Element, Generator, Word
import reference_images as ref
from reference_images import TruncatedSeries, series_multiply


def two_component_algebra():
    ring = BaseRing(2)
    gens = [
        Generator("c", 1, src=2, dst=1),   # chord from component 2 to 1
        Generator("d", 2, src=1, dst=2),
        Generator("p", 1, src=1, dst=1),
        Generator("a8", 0, src=1, dst=1),
        Generator("a7", 0, src=1, dst=1),
    ]
    return ChordAlgebra(ring, gens)


def test_unit_action_on_chords():
    alg = two_component_algebra()
    c = ref.generator_element(alg, "c")
    # e_i c = c when the chord ends on component i
    assert ref.multiply(alg, ref.unit(1), c) == c
    assert ref.multiply(alg, ref.unit(2), c).is_zero()
    assert ref.multiply(alg, c, ref.unit(2)) == c
    assert ref.multiply(alg, c, ref.unit(1)).is_zero()


def test_kronecker_units():
    alg = two_component_algebra()
    assert ref.multiply(alg, ref.unit(1), ref.unit(2)).is_zero()
    assert ref.multiply(alg, ref.unit(1), ref.unit(1)) == ref.unit(1)


def test_self_chord_product():
    alg = two_component_algebra()
    a8, a7 = (ref.generator_element(alg, name) for name in ("a8", "a7"))
    prod = ref.multiply(alg, a8, a7)
    assert prod == Element.monomial(Word.of(["a8", "a7"]))


def test_noncomposable_product_is_zero():
    alg = two_component_algebra()
    # c ends at 1 and starts at 2; c*c needs src(c)=dst(c)
    c, d = ref.generator_element(alg, "c"), ref.generator_element(alg, "d")
    assert ref.multiply(alg, c, c).is_zero()
    cd = ref.multiply(alg, c, d)
    assert cd == Element.monomial(Word.of(["c", "d"]))


def test_koszul_rotate_mixed_parity():
    ring = BaseRing(1)
    alg = ChordAlgebra(ring, [Generator("a", 1), Generator("b", 2)])
    w, sign = alg.koszul_rotate(Word.of(["a", "b"]))
    assert w == Word.of(["b", "a"]) and sign == 1
    w, sign = alg.koszul_rotate(Word.of(["a", "a"]))
    assert w == Word.of(["a", "a"]) and sign == -1
    w, sign = alg.koszul_rotate(Word.of(["a"]))
    assert w == Word.of(["a"]) and sign == 1


def test_koszul_rotate_rejects_noncyclic():
    alg = two_component_algebra()
    with pytest.raises(ValueError):
        alg.koszul_rotate(Word.of(["c"]))  # ports 2 -> 1, not cyclic
    with pytest.raises(ValueError):
        alg.koszul_rotate(Word.idem(1))


def small_algebras():
    out = []
    rng = random.Random(5)
    for k in (1, 2):
        ring = BaseRing(k)
        gens = [
            Generator(f"x{i}", rng.randint(-2, 3), rng.randint(1, k), rng.randint(1, k))
            for i in range(3)
        ]
        out.append(ChordAlgebra(ring, gens))
    return out


@st.composite
def algebra_elements(draw):
    algs = small_algebras()
    alg = draw(st.sampled_from(algs))
    names = sorted(alg.generators)
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        length = draw(st.integers(0, 3))
        if length == 0:
            w = Word.idem(draw(st.integers(1, alg.ring.k)))
        else:
            letters = [draw(st.sampled_from(names))]
            for _ in range(length - 1):
                cands = [
                    nm for nm in names
                    if alg.gen(nm).dst == alg.gen(letters[-1]).src
                ]
                if not cands:
                    break
                letters.append(draw(st.sampled_from(cands)))
            w = Word.of(letters)
        terms[w] = Fraction(draw(st.integers(-3, 3)))
    return alg, Element(terms)


@settings(max_examples=80, deadline=None)
@given(algebra_elements(), st.integers(0, 2), st.integers(0, 2))
def test_multiply_associative(data, i, j):
    alg, x = data
    # reuse pieces of x to get three elements over the same algebra
    parts = [Element({w: c}) for w, c in x.terms.items()] or [ref.unit(1)]
    a = parts[i % len(parts)]
    b = parts[j % len(parts)]
    left = ref.multiply(alg, ref.multiply(alg, a, b), x)
    right = ref.multiply(alg, a, ref.multiply(alg, b, x))
    assert left == right


@settings(max_examples=60, deadline=None)
@given(algebra_elements())
def test_grading_additive_on_products(data):
    alg, x = data
    homo = {}
    for w, c in x.terms.items():
        homo.setdefault(alg.grading(w), {})[w] = c
    for d1, t1 in homo.items():
        for d2, t2 in homo.items():
            prod = ref.multiply(alg, Element(t1), Element(t2))
            for w in prod.terms:
                assert alg.grading(w) == d1 + d2


def test_full_rotation_returns_word_with_plus_sign():
    # the complete cycle of rotations accumulates sign +1 for every word
    ring = BaseRing(1)
    alg = ChordAlgebra(ring, [Generator("a", 1), Generator("b", 2), Generator("c", 3)])
    for letters in (("a", "b"), ("a", "a"), ("a", "b", "c"), ("a", "a", "b")):
        w = Word.of(letters)
        total = 1
        cur = w
        for _ in range(len(letters)):
            cur, s = alg.koszul_rotate(cur)
            total *= s
        assert cur == w
        assert total == 1


def test_normalization_drops_zero_coefficients():
    w = Word.of(["a"])
    el = Element({w: Fraction(1)}) - Element({w: Fraction(1)})
    assert el.is_zero()
    assert Element({w: Fraction(0)}).is_zero()


# ---- truncated series ---------------------------------------------------------


def series_algebra():
    ring = BaseRing(1)
    return ChordAlgebra(ring, [Generator("a", 1), Generator("b", 1)])


def test_series_truncation_kills_high_powers():
    alg = series_algebra()
    e = Element.monomial(Word.idem(1))
    te = TruncatedSeries(1, {1: e})
    assert series_multiply(alg, te, te).is_zero()


def test_series_unit():
    alg = series_algebra()
    e = Element.monomial(Word.idem(1))
    a = Element.monomial(Word.of(["a"]))
    s = TruncatedSeries(3, {0: e, 1: a})
    unit = TruncatedSeries(3, {0: e})
    assert series_multiply(alg, s, unit) == s


def test_series_cauchy_product():
    alg = series_algebra()
    a = Element.monomial(Word.of(["a"]))
    b = Element.monomial(Word.of(["b"]))
    ta = TruncatedSeries(3, {1: a})
    tb = TruncatedSeries(3, {1: b})
    prod = series_multiply(alg, ta, tb)
    assert prod == TruncatedSeries(3, {2: Element.monomial(Word.of(["a", "b"]))})


def test_series_mismatched_orders_rejected():
    alg = series_algebra()
    e = Element.monomial(Word.idem(1))
    with pytest.raises(ValueError):
        series_multiply(alg, TruncatedSeries(1, {0: e}), TruncatedSeries(2, {0: e}))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_series_associative_up_to_truncation(p1, p2, p3):
    alg = series_algebra()
    a = Element.monomial(Word.of(["a"]))
    b = Element.monomial(Word.of(["b"]))
    e = Element.monomial(Word.idem(1))
    N = 4
    s1 = TruncatedSeries(N, {p1: a, 0: e})
    s2 = TruncatedSeries(N, {p2: b})
    s3 = TruncatedSeries(N, {p3: a})
    left = series_multiply(alg, series_multiply(alg, s1, s2), s3)
    right = series_multiply(alg, s1, series_multiply(alg, s2, s3))
    assert left == right
