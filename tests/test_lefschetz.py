import itertools
import math
import random
import re
from collections import defaultdict
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chordhom.lefschetz as lefschetz
from chordhom.algebra import Word

from chordhom.complexes import build_cyclic_complex, build_ho_complex
from chordhom.dga import DGASpec, check_d_squared
from chordhom.documents import ainf_from_document
from chordhom.examples import example_document, minimal_ainf_spec
from chordhom.homology import betti, build_complex
from chordhom.lefschetz import (
    AinfValidationError,
    CurvedAinf,
    DirectedAinfSpec,
    build_curved_category,
    check_curved_ainf,
    dictionary_check,
    dualize_tensor_algebra,
    hochschild_complex,
    lefschetz_dga,
    user_counts,
    verify_dictionary,
    _chord_name,
    _expand,
    _forced_tables,
    _symbol_table,
)

import reference_images as ref
from conftest import fractional_ainf_spec, random_ainf_spec


def dgas_equal(a, b) -> bool:
    if [g.name for g in a.generators] != [g.name for g in b.generators]:
        return False
    if [(g.grading, g.src, g.dst) for g in a.generators] != [
        (g.grading, g.src, g.dst) for g in b.generators
    ]:
        return False
    return all(a.d_gen(g.name) == b.d_gen(g.name) for g in a.generators)


def test_minimal_example_validates():
    spec = minimal_ainf_spec()
    D = build_curved_category(spec, 3)
    assert not check_curved_ainf(D)


def test_truncation_zero_keeps_only_directed_chords():
    spec = minimal_ainf_spec()
    D = build_curved_category(spec, 0)
    assert ref.chords(D.symbols, D.order) == [(("f", "a"), 0)]


def test_truncation_zero_dual_matches_direct():
    # no chord of a component at t-power 0, so no curvature term either
    spec = minimal_ainf_spec()
    D = build_curved_category(spec, 0)
    assert dgas_equal(dualize_tensor_algebra(D), lefschetz_dga(spec, user_counts(D), spec.n, 0))


def test_truncation_consistency():
    spec = minimal_ainf_spec()
    d1 = dualize_tensor_algebra(build_curved_category(spec, 1))
    d3 = dualize_tensor_algebra(build_curved_category(spec, 3))
    for g in d1.generators:
        assert d1.d_gen(g.name) == d3.d_gen(g.name)


def test_chord_gradings_match_the_table():
    spec = DirectedAinfSpec(k=2, n=5, points=[("a", 2, 1, 2)], mu=[])
    D = build_curved_category(spec, 3)
    n = 5
    grading = {g.name: g.grading for g in dualize_tensor_algebra(D).generators}
    chords = ref.chords(D.symbols, D.order)
    assert sorted(grading) == sorted(_chord_name(*sp) for sp in chords)
    for sym, p in chords:
        sigma = grading[_chord_name(sym, p)]
        if sym[0] == "e":
            assert sigma == 2 * p - 1
        elif sym[0] == "m":
            assert sigma == 2 * p - 1 + (n - 1)
        elif sym[0] == "f":
            assert sigma == 2 + 2 * p
        else:
            assert sigma == (n - 3) - 2 + 2 * p


def test_dual_dga_constant_term():
    spec = minimal_ainf_spec()
    dual = dualize_tensor_algebra(build_curved_category(spec, 2))
    for i in (1, 2):
        el = dual.d_gen(f"q{i}-(1)")
        from chordhom.algebra import Word

        assert el.coeff(Word.idem(i)) == 1


def test_t_power_conservation():
    spec = minimal_ainf_spec()
    D = build_curved_category(spec, 3)
    dual = dualize_tensor_algebra(D)
    power = {}
    for sym, p in ref.chords(D.symbols, D.order):
        power[_chord_name(sym, p)] = p
    for g in dual.generators:
        for w, _ in dual.d_gen(g.name).terms.items():
            if w.is_idem:
                assert g.name in (f"q1-(1)", f"q2-(1)")
                continue
            assert sum(power[x] for x in w.letters) == power[g.name]


def test_dual_passes_d_squared_and_matches_direct():
    spec = minimal_ainf_spec()
    D = build_curved_category(spec, 3)
    dual = dualize_tensor_algebra(D)
    assert check_d_squared(dual).ok
    direct = lefschetz_dga(spec, user_counts(D), spec.n, 3)
    assert dgas_equal(dual, direct)


def test_d_h_of_maximum_series_is_zero():
    # the direct build only feeds d_h from the supplied counts; with none
    # supplied the maximum-class chords see only the two-sided unit series
    spec = minimal_ainf_spec()
    direct = lefschetz_dga(spec, None, spec.n, 2)
    el = direct.d_gen("q1+(1)")
    for w, _ in el.terms.items():
        assert all(not x.startswith("q>") or True for x in w.letters)
    assert check_d_squared(direct).ok


def _unvalidated_category(spec, N, user=None):
    """The curved category of spec without the relation check (the n = 2
    wing terms do not pass it on their own)."""
    symbols = _symbol_table(spec)
    units, pairings = _forced_tables(spec, symbols)
    return CurvedAinf(spec, N, symbols, units, pairings, user or {})


N2_SPEC = DirectedAinfSpec(k=2, n=2, points=[("a", 1, 1, 2)], mu=[], order=["a"])


def _expand_by_target(table, symbols, N):
    """The t-power expansion by target chord: for every output chord at
    power P, each distribution of P over the entry's letters that gives
    every letter a chord."""
    out = defaultdict(lambda: defaultdict(Fraction))
    for word, hits in table.items():
        for out_sym, coeff in hits.items():
            for total in range(symbols[out_sym].p_min, N + 1):
                for powers in itertools.product(range(total + 1), repeat=len(word)):
                    if sum(powers) != total:
                        continue
                    if any(p < symbols[s].p_min for s, p in zip(word, powers)):
                        continue
                    letters = [_chord_name(s, p) for s, p in zip(word, powers)]
                    out[_chord_name(out_sym, total)][Word.of(letters)] += coeff
    return out


def _nonzero(acc):
    return {
        name: terms
        for name, hits in acc.items()
        if (terms := {w: c for w, c in hits.items() if c})
    }


def _arbitrary_table(rng, symbols):
    """Entries over any symbols, ports and gradings ignored: outputs of
    positive p_min can then follow words of p_min 0."""
    syms = sorted(symbols, key=repr)
    table = defaultdict(dict)
    for _ in range(rng.randint(1, 6)):
        word = tuple(rng.choice(syms) for _ in range(rng.randint(1, 3)))
        table[word][rng.choice(syms)] = Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2, 3]))
    return table


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(0, 3),
    st.sampled_from(["spec", "fractional", "n2-wings", "arbitrary"]),
)
def test_expand_matches_enumeration_by_target(seed, N, source):
    rng = random.Random(seed)
    if source == "n2-wings":
        D = _unvalidated_category(N2_SPEC, N)
    else:
        make = fractional_ainf_spec if source == "fractional" else random_ainf_spec
        D = build_curved_category(make(rng), N)
    table = _arbitrary_table(rng, D.symbols) if source == "arbitrary" else D.table
    words, den = _expand(table, D.symbols, N)
    if source != "arbitrary":
        # the category's own expansion, made once on first read
        assert D.expansion == (words, den) and D.expansion is D.expansion
    # numerators over the lcm of the table's denominators
    assert den == math.lcm(*(c.denominator for hits in table.values() for c in hits.values()))
    assert all(isinstance(v, int) for outs in words.values() for _, v in outs)
    got = defaultdict(dict)
    for letters, outs in words.items():
        for name, v in outs:
            got[name][Word.of(letters)] = Fraction(v, den)
    assert _nonzero(got) == _nonzero(_expand_by_target(table, D.symbols, N))


def _with_user(spec, user):
    """The unvalidated category of spec with the user table of its mu plus
    the given {path-order word: {output: coefficient}} entries."""
    table = defaultdict(lambda: defaultdict(Fraction))
    for out, inputs, coeff in spec.mu:
        table[tuple(reversed(inputs))][out] += coeff
    for word, hits in user.items():
        for out, coeff in hits.items():
            table[word][out] += coeff
    return _unvalidated_category(spec, 2, table)


def _homogeneous_entries(symbols):
    """Every word of 1-3 composable letters other than units, with each
    output of the right grading and ports."""
    syms = sorted((s for s in symbols if s[0] != "e"), key=repr)
    return [
        (word, out)
        for word in ref.composable_words(syms, symbols, 3)
        for out in syms
        if symbols[out].base == sum(symbols[s].base for s in word) + 1
        and symbols[out].dst == symbols[word[0]].dst
        and symbols[out].src == symbols[word[-1]].src
    ]


def _broken_category(rng, how):
    """A random_ainf_spec with one more user coefficient: on an entry of
    its table (perturbed), on a homogeneous entry whose output the point
    pairings consume (extra), or on arbitrary words (arbitrary)."""
    coeff = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 3]))
    for _ in range(10):
        spec = fractional_ainf_spec(rng) if rng.random() < 0.5 else random_ainf_spec(rng)
        D = _with_user(spec, {})
        if how == "perturbed":
            word = rng.choice(sorted(D.table, key=repr))
            return _with_user(spec, {word: {rng.choice(sorted(D.table[word], key=repr)): coeff}})
        if how == "arbitrary":
            return _with_user(spec, _arbitrary_table(rng, D.symbols))
        entries = [e for e in _homogeneous_entries(D.symbols) if e[1][0] in "fb"]
        if entries:
            word, out = rng.choice(entries)
            return _with_user(spec, {word: {out: coeff}})
    return D


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from(["spec", "fractional", "n2-ordered", "perturbed", "extra", "arbitrary"]),
)
def test_check_curved_ainf_matches_the_word_scan(seed, source):
    # the same problem strings in the same order, failures included
    rng = random.Random(seed)
    if source == "spec":
        D = _with_user(random_ainf_spec(rng), {})
    elif source == "fractional":
        D = _with_user(fractional_ainf_spec(rng), {})
    elif source == "n2-ordered":
        D = _unvalidated_category(_ordered_n2_spec(rng), 2)
    else:
        D = _broken_category(rng, source)
    assert check_curved_ainf(D) == ref.check_curved_ainf_reference(D)


def test_check_curved_ainf_reports_broken_identities_in_lowest_terms():
    # a half more of the unit term e_1.m_1 -> m_1 breaks the unit identity
    # on m_1 and the square-zero identity; the square-zero sums run over
    # den * den = 4 and print reduced
    D = _with_user(minimal_ainf_spec(), {(("e", 1), ("m", 1)): {("m", 1): Fraction(1, 2)}})
    got = check_curved_ainf(D)
    assert got == ref.check_curved_ainf_reference(D)
    assert got[0] == "unit identity fails on ('m', 1): ('m', 1) has 1/2"
    assert (
        "square-zero identity fails on (('e', 1), ('e', 1), ('m', 1)): output ('m', 1) has -3/4"
        in got
    )


def test_empty_structure_constant_rejected():
    spec = DirectedAinfSpec(k=2, n=3, points=[("a", 0, 1, 2)], mu=[(("m", 1), (), Fraction(1))])
    with pytest.raises(AinfValidationError, match=r"^entry \(\) has no inputs$"):
        build_curved_category(spec, 2)
    assert check_curved_ainf(_with_user(spec, {})) == ["entry () has no inputs"]


# holomorphic counts that are no valid table entry, on lefschetz_min (the
# point a has grading 0 and joins component 1 to component 2)
_BAD_COUNTS = {
    "grading": (
        {(("f", "a"),): {("f", "a"): 1}},
        "entry (('f', 'a'),) -> ('f', 'a') violates grading: 0+1 != 0",
    ),
    "no-inputs": ({(): {("m", 1): 1}}, "entry () has no inputs"),
    "unknown-input": ({(("f", "zz"),): {("m", 1): 1}}, "unknown input symbol ('f', 'zz')"),
    "unknown-output": (
        {(("f", "a"), ("b", "a")): {("m", 7): 1}},
        "unknown output symbol ('m', 7)",
    ),
    "not-composable": (
        {(("f", "a"), ("f", "a")): {("m", 2): 1}},
        "entry (('f', 'a'), ('f', 'a')) is not port-composable",
    ),
    "ports": (
        {(("f", "a"), ("b", "a")): {("m", 1): 1}},
        "entry (('f', 'a'), ('b', 'a')) -> ('m', 1) violates ports",
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_COUNTS))
def test_lefschetz_dga_refuses_counts_that_are_no_valid_entry(case):
    counts, problem = _BAD_COUNTS[case]
    spec = minimal_ainf_spec()
    with pytest.raises(AinfValidationError) as err:
        lefschetz_dga(spec, counts, spec.n, 2)
    assert str(err.value) == problem
    # check_curved_ainf reports the same entry of a table in the same words
    assert check_curved_ainf(_with_user(spec, counts)) == [problem]


@pytest.mark.parametrize(
    "mu,problem",
    [
        ([(("m", 1), (("f", "zz"),), Fraction(1))], "unknown input symbol ('f', 'zz')"),
        ([(("m", 7), (("f", "a"), ("b", "a")), Fraction(1))], "unknown output symbol ('m', 7)"),
    ],
    ids=["input", "output"],
)
def test_unknown_structure_constant_symbol_rejected(mu, problem):
    spec = DirectedAinfSpec(k=2, n=3, points=[("a", 0, 1, 2)], mu=mu)
    with pytest.raises(AinfValidationError) as err:
        build_curved_category(spec, 2)
    assert str(err.value) == problem


def test_table_is_the_entrywise_sum_of_its_parts():
    spec = minimal_ainf_spec()
    # a user constant that cancels the pairing f.b -> m_2 drops that entry
    D = _unvalidated_category(spec, 2, user={(("f", "a"), ("b", "a")): {("m", 2): Fraction(-1)}})
    expected = defaultdict(lambda: defaultdict(Fraction))
    for part in (D.units, D.pairings, D.user):
        for word, hits in part.items():
            for out, v in hits.items():
                expected[word][out] += v
    assert D.table == _nonzero(expected)
    assert (("f", "a"), ("b", "a")) not in D.table
    assert (("b", "a"), ("f", "a")) in D.table


def test_hochschild_complex_does_not_dualize(monkeypatch):
    D = build_curved_category(minimal_ainf_spec(), 2)
    before = hochschild_complex(D, (0, 3), 6)

    def refuse(_D):
        raise AssertionError("the cyclic tensor complex dualized the category")

    monkeypatch.setattr(lefschetz, "dualize_tensor_algebra", refuse)
    after = hochschild_complex(D, (0, 3), 6)
    assert (after.basis, after.diffs, after.verdict) == (before.basis, before.diffs, before.verdict)


def _ordered_n2_spec(rng: random.Random) -> DirectedAinfSpec:
    """An n = 2 spec with 1-3 points in a random global order, so that
    lefschetz_dga adds the wing series to the minimum and point chords."""
    k = rng.choice([2, 3])
    points = []
    for t in range(rng.randint(1, 3)):
        i = rng.randint(1, k - 1)
        points.append((f"p{t}", rng.randint(-1, 2), i, rng.randint(i + 1, k)))
    order = [name for name, *_ in points]
    rng.shuffle(order)
    return DirectedAinfSpec(k=k, n=2, points=points, mu=[], order=order)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10**6), st.integers(0, 3), st.sampled_from(["spec", "fractional", "n2-ordered"])
)
def test_direct_dga_matches_the_series_reference(seed, N, source):
    rng = random.Random(seed)
    if source == "n2-ordered":
        spec, D, counts = _ordered_n2_spec(rng), None, None
    else:
        spec = (fractional_ainf_spec if source == "fractional" else random_ainf_spec)(rng)
        D = build_curved_category(spec, N)
        counts = user_counts(D)
    want = ref.lefschetz_dga_reference(spec, counts, spec.n, N)
    assert dgas_equal(lefschetz_dga(spec, counts, spec.n, N), want)
    if D is not None:
        # the dual DGA builds the same differential from the whole table
        assert dgas_equal(dualize_tensor_algebra(D), want)


def test_series_product_keeps_only_words_whose_ports_compose():
    # x runs from component 1 to 2 and y from 2 to 2: of x.x, x.y and y.x
    # only y.x composes; t^1 * t^1 lies above the order
    src, dst = {"x": 1, "y": 2}, {"x": 2, "y": 2}
    a = {0: {("x",): 1}, 1: {("y",): 2}}
    b = {0: {("x",): 3}, 1: {("y",): -1}}
    got = lefschetz._series_mul(a, b, 1, src, dst)
    assert {p: words for p, words in got.items() if words} == {1: {("y", "x"): 6}}


def test_hochschild_complex_reads_blocks_of_the_maximal_arity():
    # a 3-input constant, b_c . f_b . f_a -> m_1 in path order, makes the
    # table's maximal arity 3; the image scans blocks up to that length
    spec = DirectedAinfSpec(
        k=3,
        n=3,
        points=[("a", 1, 1, 2), ("b", 1, 2, 3), ("c", 2, 1, 3)],
        mu=[(("m", 1), (("f", "a"), ("f", "b"), ("b", "c")), Fraction(2))],
    )
    D = build_curved_category(spec, 2)
    assert max(map(len, D.table)) == 3
    window, max_len = (0, 3), 4
    got = hochschild_complex(D, window, max_len)
    want = ref.hochschild_reference(D, window, max_len)
    assert got.basis == want.basis and got.diffs == want.diffs


def test_random_specs_validate_and_agree():
    rng = random.Random(23)
    for _ in range(8):
        spec = random_ainf_spec(rng)
        D = build_curved_category(spec, 3)
        dual = dualize_tensor_algebra(D)
        assert check_d_squared(dual).ok
        direct = lefschetz_dga(spec, user_counts(D), spec.n, 3)
        assert dgas_equal(dual, direct)


def test_invalid_spec_rejected():
    # an output that another constant consumes breaks the square-zero identity
    spec = DirectedAinfSpec(
        k=2,
        n=3,
        points=[("p0", 1, 1, 2), ("p1", 2, 1, 2)],
        mu=[
            (("b", "p0"), (("b", "p1"), ("f", "p1"), ("b", "p1")), Fraction(2)),
        ],
    )
    with pytest.raises(AinfValidationError):
        build_curved_category(spec, 3)


def test_broken_unit_direction_rejected():
    spec = DirectedAinfSpec(
        k=2, n=3, points=[("a", 0, 1, 2)],
        mu=[(("m", 1), (("e", 1), ("f", "a")), Fraction(1))],
    )
    with pytest.raises(AinfValidationError):
        build_curved_category(spec, 3)


def test_n2_without_order_rejected():
    # an n = 2 spec needs a global order, and any order lists every point
    # exactly once, so the builders read a rank for each point
    with pytest.raises(ValueError, match="global order"):
        DirectedAinfSpec(k=2, n=2, points=[("a", 1, 1, 2)], mu=[])
    points = [("a", 1, 1, 2), ("b", 1, 1, 2)]
    for n, order in [(2, ["a"]), (2, ["a", "a"]), (2, ["a", "b", "a"]), (3, ["b"])]:
        with pytest.raises(ValueError, match="exactly once"):
            DirectedAinfSpec(k=2, n=n, points=points, mu=[], order=order)


@pytest.mark.parametrize(
    "make,error,message",
    [
        (
            lambda: DirectedAinfSpec(k=2, n=3, points=[("a", 0, 1, 2), ("a", 1, 1, 2)]),
            ValueError,
            "duplicate intersection point a",
        ),
        (
            lambda: DirectedAinfSpec(k=2, n=3, points=[("a", 0, 2, 1)]),
            ValueError,
            "point a must join distinct ordered components",
        ),
        (
            lambda: DirectedAinfSpec(k=2, n=3, points=[("a", 0, 1, 1)]),
            ValueError,
            "point a must join distinct ordered components",
        ),
        (lambda: minimal_ainf_spec().point("z"), KeyError, "unknown intersection point z"),
        (
            lambda: build_curved_category(
                replace(minimal_ainf_spec(), mu=[(("e", 1), (("b", "a"), ("f", "a")), 1)]), 2
            ),
            AinfValidationError,
            "structure constants may not output a unit",
        ),
        (
            lambda: lefschetz_dga(minimal_ainf_spec(), None, 4, 2),
            ValueError,
            "dimension parameter disagrees with the basis data",
        ),
        (
            lambda: lefschetz_dga(minimal_ainf_spec(), None, 3, -1),
            ValueError,
            "the truncation order must be nonnegative",
        ),
    ],
    ids=["repeated-point", "reversed-point", "loop-point", "unknown-point", "unit-output",
         "dimension", "negative-t-order"],
)
def test_directed_data_refusals(make, error, message):
    with pytest.raises(error, match=re.escape(message)):
        make()


def test_both_constructions_refuse_a_negative_truncation_order_alike():
    spec = minimal_ainf_spec()
    with pytest.raises(ValueError) as direct:
        lefschetz_dga(spec, None, 3, -1)
    with pytest.raises(ValueError) as dual:
        build_curved_category(spec, -1)
    assert str(direct.value) == str(dual.value)


def test_n2_without_points_runs_end_to_end():
    spec = DirectedAinfSpec(k=2, n=2, points=[], mu=[], order=[])
    D = build_curved_category(spec, 3)
    dual = dualize_tensor_algebra(D)
    assert check_d_squared(dual).ok
    direct = lefschetz_dga(spec, user_counts(D), 2, 3)
    assert dgas_equal(dual, direct)
    cc = hochschild_complex(D, (0, 4), 8)
    ho = build_ho_complex(dual, (0, 4), 8)
    assert not cc.d_squared_report() and not ho.d_squared_report()
    assert verify_dictionary(cc, ho)


def test_n2_with_points_flags_perturbation_sensitivity():
    # the stated n = 2 cubic corrections do not close the square-zero
    # identity on their own; the validator locates the failure and the
    # directly built differential reports it through the d^2 check
    spec = DirectedAinfSpec(k=2, n=2, points=[("a", 1, 1, 2)], mu=[], order=["a"])
    with pytest.raises(AinfValidationError):
        build_curved_category(spec, 3)
    direct = lefschetz_dga(spec, None, 2, 3)
    report = check_d_squared(direct)
    assert not report.ok and report.d2_issues


def test_hochschild_diagonal_condition():
    spec = minimal_ainf_spec()
    D = build_curved_category(spec, 2)
    cc = hochschild_complex(D, (0, 4), 8)
    dual = dualize_tensor_algebra(D)
    alg = dual.algebra
    for d, labels in cc.basis.items():
        for kind, letters in labels:
            if kind != "tau":
                assert alg.gen(letters[-1]).src == alg.gen(letters[0]).dst


def test_hochschild_seed_of_component_classes():
    spec = minimal_ainf_spec()
    D = build_curved_category(spec, 2)
    cc = hochschild_complex(D, (0, 3), 6)
    # stored degrees are negated; the component classes sit at 0
    labels0 = cc.labels(0)
    assert ("tau", 1) in labels0 and ("tau", 2) in labels0
    idx = {lab: i for i, lab in enumerate(labels0)}
    col = idx[("tau", 1)]
    hits = {
        cc.labels(-1)[r]: v for (r, c), v in cc.matrix(0).items() if c == col
    }
    assert hits == {("chk", ("q1-(1)",)): Fraction(1)}


def test_dictionary_on_minimal_example():
    spec = minimal_ainf_spec()
    D = build_curved_category(spec, 3)
    dual = dualize_tensor_algebra(D)
    window = (0, 5)
    cc = hochschild_complex(D, window, 12)
    ho = build_ho_complex(dual, window, 12)
    assert not cc.d_squared_report()
    assert verify_dictionary(cc, ho)
    tc = betti(cc)
    th = betti(ho)
    assert {(-d): r for d, r in tc.ranks.items()} == dict(th.ranks)


def test_dictionary_rejects_changed_entries():
    spec = minimal_ainf_spec()
    D = build_curved_category(spec, 2)
    cc = hochschild_complex(D, (0, 3), 6)
    ho = build_ho_complex(dualize_tensor_algebra(D), (0, 3), 6)
    assert verify_dictionary(cc, ho)
    # the bases pair one to one here, so every position of cc's matrices
    # lies in the ho-labelled block
    assert all(cc.dim(-d) == ho.dim(d) for d in range(-1, 5))
    stored = cc.matrix(-3)
    (pos, v), *_ = stored.items()
    free = next(
        (r, c) for r in range(cc.dim(-4)) for c in range(cc.dim(-3)) if (r, c) not in stored
    )

    def with_matrix(matrix):
        return replace(cc, diffs={**cc.diffs, -3: matrix})

    assert not verify_dictionary(with_matrix({**stored, pos: v + 1}), ho)
    assert not verify_dictionary(with_matrix({k: w for k, w in stored.items() if k != pos}), ho)
    assert not verify_dictionary(with_matrix({**stored, free: Fraction(1)}), ho)
    dropped = replace(cc, basis={**cc.basis, 0: cc.labels(0)[1:]})
    held = r"the first complex holds \('tau', 2\) at degree 0, the second \('tau', 1\)"
    with pytest.raises(ValueError, match=r"degree 0, position 0: " + held):
        verify_dictionary(dropped, ho)


def test_dictionary_requires_a_bijection_in_both_directions():
    # with a longer length bound the cyclic tensor complex has more labels
    # than ho: its longer check words come before ho's hat words
    D = build_curved_category(minimal_ainf_spec(), 3)
    dual = dualize_tensor_algebra(D)
    window = (0, 6)
    long_cc, short_ho = hochschild_complex(D, window, 8), build_ho_complex(dual, window, 4)
    assert long_cc.dim(-5) > short_ho.dim(5)
    first = r"the first complex holds \('chk'.* at degree -5, the second \('hat'"
    with pytest.raises(ValueError, match=r"degree 5, position 40: " + first):
        verify_dictionary(long_cc, short_ho)
    short_cc, long_ho = hochschild_complex(D, window, 4), build_ho_complex(dual, window, 8)
    second = r"the first complex holds \('hat'.* at degree -5, the second \('chk'"
    with pytest.raises(ValueError, match=r"degree 5, position 40: " + second):
        verify_dictionary(short_cc, long_ho)
    # a repeated ho label sits past the end of cc's labels
    cc, ho = hochschild_complex(D, window, 4), build_ho_complex(dual, window, 4)
    repeated = replace(ho, basis={**ho.basis, 0: ho.labels(0) + ho.labels(0)[:1]})
    held = r"the first complex holds no label at degree 0, the second \('tau', 1\)"
    with pytest.raises(ValueError, match=r"degree 0, position 2: " + held):
        verify_dictionary(cc, repeated)


def test_dictionary_refuses_a_consistent_relabelling_of_ho():
    # swapping two labels of one degree together with their columns in its
    # boundary and their rows in the boundary above gives an isomorphic
    # complex, but the dictionary pairs positions, so it is refused
    D = build_curved_category(minimal_ainf_spec(), 2)
    cc = hochschild_complex(D, (0, 3), 6)
    ho = build_ho_complex(dualize_tensor_algebra(D), (0, 3), 6)
    d, (i, j) = 3, (1, 4)
    swap = {i: j, j: i}
    labels = list(ho.labels(d))
    labels[i], labels[j] = labels[j], labels[i]
    columns = {(r, swap.get(c, c)): v for (r, c), v in ho.matrix(d).items()}
    rows = {(swap.get(r, r), c): v for (r, c), v in ho.matrix(d + 1).items()}
    assert any(c in swap for _, c in ho.matrix(d)) and any(r in swap for r, _ in ho.matrix(d + 1))
    relabelled = replace(
        ho, basis={**ho.basis, d: labels}, diffs={**ho.diffs, d: columns, d + 1: rows}
    )
    assert not relabelled.d_squared_report()
    with pytest.raises(ValueError, match=r"degree 3, position 1: the first complex holds"):
        verify_dictionary(cc, relabelled)


def test_dictionary_reads_either_argument_order():
    D = build_curved_category(minimal_ainf_spec(), 2)
    cc = hochschild_complex(D, (0, 3), 6)
    ho = build_ho_complex(dualize_tensor_algebra(D), (0, 3), 6)
    changed_cc = replace(cc, diffs={**cc.diffs, -3: {k: 2 * v for k, v in cc.matrix(-3).items()}})
    changed_ho = replace(ho, diffs={**ho.diffs, 3: {k: -v for k, v in ho.matrix(3).items()}})
    for a, b, same in ((cc, ho, True), (changed_cc, ho, False), (cc, changed_ho, False)):
        assert verify_dictionary(a, b) is verify_dictionary(b, a) is same


def scaled(cx, q=Fraction(5, 3)):
    """A copy of cx with every matrix scaled by q, through diffs."""
    return replace(cx, diffs={d: {k: v * q for k, v in m.items()} for d, m in cx.diffs.items()})


def perturbed_copies(cx, rng: random.Random) -> list:
    """(copy of cx, True when it still equals cx): one entry changed, one
    dropped, one added at a free position of the window's matrices, and
    every matrix scaled by 5/3, all through diffs."""
    lo, hi = cx.window
    degrees = [d for d in range(lo, hi + 2) if cx.matrix(d)]
    copies = []
    if degrees:
        d = rng.choice(degrees)
        matrix = cx.matrix(d)
        pos, v = rng.choice(list(matrix.items()))
        changed = {**matrix, pos: v + 1 or Fraction(2)}
        dropped = {k: w for k, w in matrix.items() if k != pos}
        copies += [(replace(cx, diffs={**cx.diffs, d: m}), False) for m in (changed, dropped)]
    free = [
        (d, (r, c))
        for d in range(lo, hi + 2)
        for r in range(cx.dim(d - 1))
        for c in range(cx.dim(d))
        if (r, c) not in cx.matrix(d)
    ]
    if free:
        d, pos = rng.choice(free)
        added = {**cx.matrix(d), pos: Fraction(rng.choice([1, -2, 3]), rng.choice([1, 2, 7]))}
        copies.append((replace(cx, diffs={**cx.diffs, d: added}), False))
    copies.append((scaled(cx), not degrees))
    return copies


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([1, 2, 3]), st.booleans())
def test_dictionary_comparison_matches_the_dict_reference(seed, t_order, fractional):
    # stored pairs from dictionary_check, then copies of either side with
    # one entry changed, dropped or added, or every matrix scaled (so the
    # denominators differ), both scaled together; every pair in both orders
    rng = random.Random(seed)
    spec = (fractional_ainf_spec if fractional else random_ainf_spec)(rng)
    _, ho, cc = dictionary_check(build_curved_category(spec, t_order), (0, 4), 5)
    # on the stored columns, before a copy reads diffs
    assert verify_dictionary(ho, cc)
    assert ref.dictionary_entries_match(cc, ho) and ref.dictionary_entries_match(ho, cc)
    pairs = [(cc, ho, True), (scaled(cc), scaled(ho), True)]
    pairs += [(x, ho, same) for x, same in perturbed_copies(cc, rng)]
    pairs += [(cc, x, same) for x, same in perturbed_copies(ho, rng)]
    for a, b, same in pairs:
        assert verify_dictionary(a, b) is verify_dictionary(b, a) is same
        assert ref.dictionary_entries_match(a, b) is ref.dictionary_entries_match(b, a) is same


def test_dictionary_refuses_a_cyclic_complex():
    D = build_curved_category(minimal_ainf_spec(), 2)
    dual = dualize_tensor_algebra(D)
    cc, cyc = hochschild_complex(D, (0, 3), 6), build_cyclic_complex(dual, (0, 3), 6)
    # no cyc label is a check/hat label, so the first degree that holds a
    # label of either complex is refused, in either order
    held = r"position 0: the first complex holds \('tau', 1\) at degree 0, the second no label"
    with pytest.raises(ValueError, match=r"degree 0, " + held):
        verify_dictionary(cc, cyc)
    held = r"position 0: the first complex holds \('cyc', .* at degree 4, the second \('chk', "
    with pytest.raises(ValueError, match=r"degree -4, " + held):
        verify_dictionary(cyc, cc)


@pytest.mark.parametrize("t_order,window,max_len", [(2, (0, 3), 6), (3, (-1, 5), 8)])
def test_cyclic_tensor_basis_is_ho_basis_negated(t_order, window, max_len):
    D = build_curved_category(minimal_ainf_spec(), t_order)
    cc = hochschild_complex(D, window, max_len)
    ho = build_ho_complex(dualize_tensor_algebra(D), window, max_len)
    lo, hi = window
    assert any(ho.labels(d) for d in range(lo - 1, hi + 2))
    for d in range(lo - 1, hi + 2):
        assert cc.labels(-d) == ho.labels(d), d


@pytest.mark.parametrize("t_order,window,max_len", [(2, (0, 3), 6), (3, (-1, 5), 8)])
def test_dictionary_check_returns_the_library_complexes(t_order, window, max_len):
    # the cyclic tensor complex built on ho's basis is the one
    # hochschild_complex builds on its own: same labels, order and entries
    D = build_curved_category(minimal_ainf_spec(), t_order)
    dual, ho, cc = dictionary_check(D, window, max_len)
    assert dgas_equal(dual, dualize_tensor_algebra(D))
    alone = build_ho_complex(dual, window, max_len), hochschild_complex(D, window, max_len)
    for built, reference in zip((ho, cc), alone):
        assert (built.basis, built.diffs, built.window, built.verdict) == (
            reference.basis, reference.diffs, reference.window, reference.verdict
        )


@pytest.mark.parametrize("change", ["coefficient", "grading"])
def test_dictionary_check_refuses_a_direct_dga_that_differs(monkeypatch, change):
    # same generator names either way; a grading change passes a check that
    # compares names and differentials only
    D = build_curved_category(minimal_ainf_spec(), 2)
    direct = lefschetz_dga(D.spec, user_counts(D), D.spec.n, D.order)
    name = next(n for n, el in direct.differential.items() if el.terms)
    gens, diff = direct.generators, direct.differential
    if change == "coefficient":
        diff = {**diff, name: 2 * diff[name]}
    else:
        gens = [replace(g, grading=g.grading + 2) if g.name == name else g for g in gens]
    other = DGASpec(direct.ring, gens, diff, direct.ambient_dim)
    monkeypatch.setattr(lefschetz, "lefschetz_dga", lambda *args: other)
    with pytest.raises(ValueError, match="^dual and direct differentials disagree$"):
        dictionary_check(D, (0, 3), 6)


def test_cyclic_tensor_images_hold_no_cancelled_sums(monkeypatch):
    # the column sums that cancel are dropped, not handed to build_complex
    values = []

    def recording(bases, columns, *args, **kwargs):
        def recorded(labels, rows):
            cols, den = columns(labels, rows)
            values.extend(v for col in cols.values() for v in col.values())
            return cols, den
        return build_complex(bases, recorded, *args, **kwargs)

    monkeypatch.setattr(lefschetz, "build_complex", recording)
    hochschild_complex(build_curved_category(minimal_ainf_spec(), 2), (0, 3), 6)
    assert values and all(values)


def test_document_round_trip_spec():
    doc = example_document("lefschetz_min")
    spec = ainf_from_document(doc)
    assert spec.k == 2 and spec.n == 3
    assert spec.points == [("a", 0, 1, 2)]
