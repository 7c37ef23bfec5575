"""The integer boundary images of the chord builders and of the cyclic
tensor complex against the Element-based reference images of
reference_images.py, on inputs whose coefficients have denominators 2-4:
the same matrices, entry for entry and in stored order."""

import itertools
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chordhom.complexes as complexes
import chordhom.lefschetz as lefschetz
import chordhom.surgery as surgery
import reference_images as ref
from chordhom.algebra import BaseRing, ChordAlgebra, Element, Generator, Word
from chordhom.complexes import (
    _s_terms,
    build_cyclic_complex,
    build_ho_complex,
    build_hoplus_complex,
    build_mcyc_complex,
)
from chordhom.dga import DGASpec, _leibniz_word, enumerate_augmentations, linearize
from chordhom.homology import build_complex
from chordhom.lefschetz import (
    DirectedAinfSpec, build_curved_category, dictionary_check, hochschild_complex
)
from chordhom.surgery import (
    SurgeryCountTable,
    build_sh_surgery,
    build_shplus_surgery,
    builtin_ball_filling,
)

from conftest import fractional_ainf_spec, fractional_dga
from test_dga import leibniz_reference


def assert_same_matrices(got, want):
    assert got.basis == want.basis
    assert set(got.diffs) == set(want.diffs)
    for d, matrix in got.diffs.items():
        assert list(matrix.items()) == list(want.diffs[d].items()), d
        assert all(type(v) is Fraction for v in matrix.values())


def test_s_terms_match_the_rotation_reference():
    # every word of length 1-3 over letters of each grading parity (and a
    # grading-0 one)
    alg = ChordAlgebra(BaseRing(1), [Generator(x, g) for x, g in zip("abcd", (1, 2, 3, 0))])
    for n in range(1, 4):
        for letters in itertools.product("abcd", repeat=n):
            assert list(_s_terms(alg, letters)) == list(ref._s_terms(alg, letters))


CHORD_IMAGES = [
    (build_cyclic_complex, ref.cyclic_image),
    (build_hoplus_complex, ref.decorated_image),
    (build_ho_complex, ref.decorated_image),
    (build_mcyc_complex, ref.mcyc_image),
]


def assert_matches_the_reference(builder, image, dga, window, max_len):
    cx = builder(dga, window, max_len)
    want = build_complex(cx.basis, ref.on_rows(partial(image, dga)), window, cx.verdict)
    assert_same_matrices(cx, want)


def assert_surgery_matches_the_reference(builder, dga, window, max_len):
    """The surgery complex over ball:2 against the same build with the
    decorated chord kernel replaced by the reference image, where the chord
    block of complexes.py makes it."""
    filling, counts = builtin_ball_filling(2), SurgeryCountTable.zero()
    got = builder(filling, dga, counts, window, max_len)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            complexes, "_decorated_kernel",
            lambda dga, max_len: ref.on_rows(partial(ref.decorated_image, dga)),
        )
        want = builder(filling, dga, counts, window, max_len)
    assert_same_matrices(got, want)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([1, 0, -1]), st.sampled_from([3, 2]))
def test_chord_images_match_the_element_reference(seed, min_grading, max_len):
    # max-len 2 sits below the window top, so the kernels leave out terms
    # that the reference builds and its row index drops
    rng = random.Random(seed)
    dga = fractional_dga(rng, min_grading)
    window = (0, 3)
    for builder, image in CHORD_IMAGES:
        assert_matches_the_reference(builder, image, dga, window, max_len)
    assert_surgery_matches_the_reference(build_sh_surgery, dga, window, max_len)


def mixed_parity_dga() -> DGASpec:
    """One component: a, b, u closed, of gradings 1, 2, 3, and c, e with
    differentials of three-letter words whose letters mix both parities, so
    that a hat on the last letter of a term has two letters before it, of
    even or odd total degree."""
    gens = [Generator(x, g) for x, g in zip("abuce", (1, 2, 3, 5, 4))]
    half = Fraction(1, 2)
    d = {
        "c": {"aab": 1, "aba": 2, "baa": -half, "au": 1, "ua": 3},
        "e": {"aaa": half, "ab": 3, "ba": -1},
    }
    diff = {
        name: Element({Word.of(w): Fraction(v) for w, v in terms.items()})
        for name, terms in d.items()
    }
    return DGASpec(BaseRing(1), gens, diff)


def test_mcyc_images_with_long_prefixes_match_the_element_reference(chekanov_a):
    # chekanov_a: a TRUNCATED window over gradings -2..2 with three-letter
    # terms; the mixed-parity DGA: hats after two letters of either parity
    assert_matches_the_reference(build_mcyc_complex, ref.mcyc_image, chekanov_a, (-4, 0), 3)
    assert_matches_the_reference(build_mcyc_complex, ref.mcyc_image, mixed_parity_dga(), (0, 9), 4)


def word_length(label) -> int:
    """The letters of a label's word, the unmarked part for mcyc; 0 for a
    component class or an orbit."""
    return len(label[-1]) if type(label[-1]) is tuple else 0


class LookupLog:
    """A row index that records every label a kernel looks up in it."""

    def __init__(self, rows, looked_up: list):
        self.rows, self.looked_up = rows, looked_up

    def get(self, label, default=None):
        self.looked_up.append(label)
        return self.rows.get(label, default)


def recording_kernels(monkeypatch, module) -> tuple[list, list]:
    """Make module's build_complex hand its kernel a LookupLog of each row
    index; returns the kernel calls, as (labels, rows, columns, den), and
    the labels looked up, both filled as the builds run."""
    calls, looked_up = [], []

    def build(bases, columns, *args):
        def recorded(labels, rows):
            cols, den = columns(labels, LookupLog(rows, looked_up))
            calls.append((labels, rows, cols, den))
            return cols, den

        return build_complex(bases, recorded, *args)

    monkeypatch.setattr(module, "build_complex", build)
    return calls, looked_up


@pytest.mark.parametrize("builder,image", CHORD_IMAGES[:3], ids=["cyc", "hoplus", "ho"])
def test_chord_images_that_leave_out_long_words_match_the_element_reference(
    chekanov_a, builder, image, monkeypatch
):
    # chekanov_a at max-len 3: three-letter terms in the differential make
    # words longer than any basis label, which the kernels never look up
    window, max_len = (-4, 0), 3
    with monkeypatch.context() as mp:
        _, looked_up = recording_kernels(mp, complexes)
        cx = builder(chekanov_a, window, max_len)
    assert looked_up and max(map(word_length, looked_up)) <= max_len
    assert any(
        word_length(target) > max_len
        for labels in cx.basis.values()
        for label in labels
        for target in image(chekanov_a, label)
    )
    assert_matches_the_reference(builder, image, chekanov_a, window, max_len)


@pytest.mark.parametrize("builder", [build_shplus_surgery, build_sh_surgery], ids=["sh+", "sh"])
def test_surgery_chord_images_that_leave_out_long_words_match_the_reference(
    chekanov_a, builder, monkeypatch
):
    with monkeypatch.context() as mp:
        _, looked_up = recording_kernels(mp, surgery)
        builder(builtin_ball_filling(2), chekanov_a, SurgeryCountTable.zero(), (-4, 0), 3)
    assert looked_up and max(map(word_length, looked_up)) <= 3
    assert_surgery_matches_the_reference(builder, chekanov_a, (-4, 0), 3)


def test_leibniz_word_of_a_word_without_a_differential_letter_is_empty():
    dga = mixed_parity_dga()
    for n in range(1, 5):
        for letters in itertools.product("abu", repeat=n):
            assert _leibniz_word(dga, letters) == {}
            acc = {("a",): 5}
            assert _leibniz_word(dga, letters, 2, acc) is acc and acc == {("a",): 5}
    # with a differential letter the kernel gives the product-by-product sum
    for n in range(1, 4):
        for letters in itertools.product("abuce", repeat=n):
            if "c" in letters or "e" in letters:
                want = leibniz_reference(dga, Element.monomial(Word.of(letters))).terms
                got = _leibniz_word(dga, letters)
                scaled = [(Word(k), Fraction(v, dga._denom)) for k, v in got.items()]
                assert scaled == list(want.items())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_hochschild_images_match_the_fraction_reference(seed, t_order):
    D = build_curved_category(fractional_ainf_spec(random.Random(seed)), t_order)
    window, max_len = (0, 4), 5
    assert_same_matrices(
        hochschild_complex(D, window, max_len), ref.hochschild_reference(D, window, max_len)
    )


def test_hochschild_images_keep_the_output_order_of_an_entry():
    # points A2 and A share ports and grading, so the path-order word
    # f_d . f_c can output both: f_A2 first, the reverse of the order in
    # which the unit entries first reach their chords.  The entries on b_A
    # and b_A2 close the square-zero identities.
    mu = [(("f", out), (("f", "c"), ("f", "d")), 1) for out in ("A2", "A")]
    for a in ("A", "A2"):
        mu += [(("b", "d"), (("b", a), ("f", "c")), -1), (("b", "c"), (("f", "d"), ("b", a)), 1)]
    points = [("c", 0, 1, 2), ("d", 0, 2, 3), ("A", 1, 1, 3), ("A2", 1, 1, 3)]
    D = build_curved_category(DirectedAinfSpec(k=3, n=3, points=points, mu=mu), 2)
    assert list(D.table[("f", "d"), ("f", "c")]) == [("f", "A2"), ("f", "A")]
    window, max_len = (0, 4), 5
    assert_same_matrices(
        hochschild_complex(D, window, max_len), ref.hochschild_reference(D, window, max_len)
    )
    dictionary_check(D, window, max_len)


# ---- the row contract ------------------------------------------------------------


def assert_row_contract(cx, calls, reference):
    """build_complex called the kernel once for each degree it builds, lo ..
    hi + 1 in turn.  Every column the kernel returned is nonempty and keyed
    by its label's place, in label order; it keys ints of range(len(rows)),
    holds no zero numerator and is the column cx stores (over its degree's
    denominator).  Each label's column, empty or not, is reference(label)
    mapped through rows, entry for entry and in order."""
    lo, hi = cx.window
    built = [d for d in range(lo, hi + 2) if cx.basis.get(d)]
    assert [labels for labels, *_ in calls] == [cx.basis[d] for d in built]
    for d, (labels, rows, columns, den) in zip(built, calls):
        assert list(columns) == sorted(columns) and set(columns) <= set(range(len(labels)))
        assert all(columns.values())
        stored, lcm = cx._integer(d)
        for col, label in enumerate(labels):
            column = columns.get(col, {})
            assert all(type(r) is int and 0 <= r < len(rows) for r in column)
            assert all(column.values())
            got = [(r, Fraction(v, den)) for r, v in column.items()]
            assert [(r, Fraction(v, lcm)) for r, v in stored.get(col, {}).items()] == got
            want = [(rows[k], v) for k, v in reference(label).items() if v and k in rows]
            assert got == want, label


def ball_orbit_image(label) -> dict:
    """The orbit rows of the ball filling with no mixed counts: the
    connecting count from the minimum-decorated g<k+1> to the
    maximum-decorated g<k>, and the count from g1 to the Morse generator."""
    kind, x = label
    if kind != "ochk":
        return {}
    k = int(x[1:])
    return {("ohat", f"g{k - 1}"): Fraction(1)} if k > 1 else {("mrs", "min"): Fraction(1)}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([1, 0, -1]), st.sampled_from([3, 2]))
def test_chord_and_surgery_images_keep_the_row_contract(seed, min_grading, max_len):
    # ball:2 has g1 at degree 3 and g2 at 5, so the window reaches the
    # connecting count g2 -> g1 and, in sh, the Morse count g1 -> min
    dga = fractional_dga(random.Random(seed), min_grading)
    window = (0, 4)
    for builder, image in CHORD_IMAGES:
        with pytest.MonkeyPatch.context() as mp:
            calls, _ = recording_kernels(mp, complexes)
            cx = builder(dga, window, max_len)
        assert_row_contract(cx, calls, partial(image, dga))

    def surgery_reference(label):
        if label[0] in ("ochk", "ohat", "mrs"):
            return ball_orbit_image(label)
        return ref.decorated_image(dga, label)

    for builder in (build_shplus_surgery, build_sh_surgery):
        with pytest.MonkeyPatch.context() as mp:
            calls, _ = recording_kernels(mp, surgery)
            cx = builder(builtin_ball_filling(2), dga, SurgeryCountTable.zero(), window, max_len)
        assert_row_contract(cx, calls, surgery_reference)
        assert any(
            column
            for labels, _, columns, _ in calls
            for col, column in columns.items()
            if labels[col][0] == "ochk"
        )


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_cyclic_tensor_images_keep_the_row_contract(seed, t_order):
    D = build_curved_category(fractional_ainf_spec(random.Random(seed)), t_order)
    window, max_len = (0, 4), 5
    with pytest.MonkeyPatch.context() as mp:
        calls, _ = recording_kernels(mp, lefschetz)
        cx = hochschild_complex(D, window, max_len)
    assert_row_contract(cx, calls, ref.hochschild_reference_image(D, window, max_len)[1])


# ---- the linearized complex ------------------------------------------------------


def stored_columns(cx) -> list:
    """Every stored degree of a complex as (degree, denominator, its columns
    with their entries), in stored order."""
    out = []
    for d in cx.basis:
        columns, den = cx._integer(d)
        out.append((d, den, [(col, list(column.items())) for col, column in columns.items()]))
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([0, -1]))
def test_linearized_columns_match_the_element_reference(seed, min_grading):
    dga = fractional_dga(random.Random(seed), min_grading)
    for eps in enumerate_augmentations(dga, ["-1", "0", "1/2"])[:4]:
        cx = linearize(dga, eps)
        want = build_complex(cx.basis, ref.linearize_image(dga, eps), cx.window, cx.verdict)
        assert stored_columns(cx) == stored_columns(want)


def test_linearized_chekanov_columns_match_the_element_reference(chekanov_a):
    # its one augmentation over {-1, 0, 1} reaches words of three letters
    (eps,) = enumerate_augmentations(chekanov_a, ["-1", "0", "1"])
    cx = linearize(chekanov_a, eps)
    want = build_complex(cx.basis, ref.linearize_image(chekanov_a, eps), cx.window, cx.verdict)
    assert stored_columns(cx) == stored_columns(want)
