import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordhom.algebra import BaseRing, Element, Generator, Word
from chordhom.dga import (
    Augmentation,
    DGAMorphism,
    DGASpec,
    RelQError,
    _leibniz_word,
    adjoin_q,
    check_d_squared,
    check_morphism,
    compose_morphisms,
    enumerate_augmentations,
    extend_leibniz,
    is_valid_augmentation,
    linearize,
    rel_q_construction,
)
from chordhom.documents import dga_from_document, morphism_from_document
from chordhom.examples import example_document
from chordhom.homology import betti

import reference_images as ref
from conftest import fractional_dga, random_dga, random_fraction


def one_gen_unit_dga():
    ring = BaseRing(1)
    return DGASpec(
        ring=ring,
        generators=[Generator("c", 1)],
        differential={"c": Element.monomial(Word.idem(1))},
        ambient_dim=2,
    )


def test_leibniz_on_units_and_cubes():
    dga = one_gen_unit_dga()
    assert extend_leibniz(dga, Element.monomial(Word.idem(1))).is_zero()
    d3 = extend_leibniz(dga, Element.monomial(Word.of(["c"] * 3)))
    assert d3 == Element.monomial(Word.of(["c", "c"]))


def test_leibniz_on_squares_of_closed_generators():
    ring = BaseRing(1)
    dga = DGASpec(ring, [Generator("a", 2)], {}, 3)
    assert extend_leibniz(dga, Element.monomial(Word.of(["a", "a"]))).is_zero()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3), st.integers(1, 3))
def test_leibniz_product_rule(seed, la, lb):
    rng = random.Random(seed)
    dga = random_dga(rng)
    names = sorted(dga.algebra.generators)
    alg = dga.algebra

    def rand_word(length):
        letters = [rng.choice(names)]
        for _ in range(length - 1):
            cands = [n for n in names if alg.gen(n).dst == alg.gen(letters[-1]).src]
            if not cands:
                return None
            letters.append(rng.choice(cands))
        return Word.of(letters)

    wa, wb = rand_word(la), rand_word(lb)
    if wa is None or wb is None:
        return
    x = Element.monomial(wa)
    y = Element.monomial(wb)
    xy = ref.multiply(alg, x, y)
    lhs = extend_leibniz(dga, xy)
    sign = -1 if alg.grading(wa) % 2 else 1
    rhs = ref.multiply(alg, extend_leibniz(dga, x), y) + ref.multiply(
        alg, x, extend_leibniz(dga, y)
    ).scale(sign)
    assert lhs == rhs


def leibniz_reference(dga: DGASpec, x: Element) -> Element:
    """The Leibniz rule as products of Elements: prefix * d(c_j) * suffix
    through the reference product, summed one product at a time."""
    alg = dga.algebra
    out = Element.zero()
    for word, coeff in x.terms.items():
        if word.is_idem:
            continue
        letters = word.letters
        sign_deg = 0
        for j, name in enumerate(letters):
            piece = dga.d_gen(name)
            if not piece.is_zero():
                if j > 0:
                    piece = ref.multiply(alg, Element.monomial(Word.of(letters[:j])), piece)
                if j < len(letters) - 1:
                    piece = ref.multiply(alg, piece, Element.monomial(Word.of(letters[j + 1:])))
                out = out + piece.scale(coeff * (-1 if sign_deg % 2 else 1))
            sign_deg += alg.gen(name).grading
    return out


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3, 4]))


def _random_composable(rng: random.Random, gens: list[Generator], length: int):
    letters = [rng.choice(gens)]
    for _ in range(length - 1):
        cands = [g for g in gens if g.dst == letters[-1].src]
        if not cands:
            break
        letters.append(rng.choice(cands))
    return Word.of(g.name for g in letters)


def _random_word(rng: random.Random, gens: list[Generator], k: int, unit_share: float) -> Word:
    """A unit at any of k components with probability unit_share, else a
    composable word of 1-3 letters."""
    if rng.random() < unit_share:
        return Word.idem(rng.randint(1, k))
    return _random_composable(rng, gens, rng.randint(1, 3))


def free_dga(rng: random.Random) -> DGASpec:
    """A DGA with no d^2 = 0 and no grading or port conditions: unit terms at
    any component, differential words whose ports need not match their
    generator's (validation reports them), rational coefficients."""
    k = rng.randint(1, 3)
    gens = [
        Generator(f"g{i}", rng.randint(-1, 3), rng.randint(1, k), rng.randint(1, k))
        for i in range(rng.randint(1, 4))
    ]
    diff = {}
    for g in gens:
        terms = {}
        for _ in range(rng.randint(0, 3)):
            terms[_random_word(rng, gens, k, 0.25)] = _random_rational(rng)
        diff[g.name] = Element(terms)
    return DGASpec(ring=BaseRing(k), generators=gens, differential=diff)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_leibniz_kernel_matches_element_products(seed):
    rng = random.Random(seed)
    dga = free_dga(rng)
    names = [g.name for g in dga.generators]
    terms = {}
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.1:
            w = Word.idem(rng.randint(1, dga.ring.k))
        elif rng.random() < 0.5:
            # any letters, composable or not: only the junctions with d(c_j) are tested
            w = Word.of(rng.choice(names) for _ in range(rng.randint(1, 4)))
        else:
            w = _random_composable(rng, dga.generators, rng.randint(1, 4))
        terms[w] = _random_rational(rng)
    x = Element(terms)
    got = extend_leibniz(dga, x)
    want = leibniz_reference(dga, x)
    assert got == want
    assert list(got.terms) == list(want.terms)  # same terms in the same order
    assert all(type(c) is Fraction for c in got.terms.values())
    # the generator differentials themselves, as check_d_squared applies it
    for g in dga.generators:
        assert list(extend_leibniz(dga, dga.d_gen(g.name)).terms.items()) == list(
            leibniz_reference(dga, dga.d_gen(g.name)).terms.items()
        )


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_leibniz_word_matches_extend_leibniz(seed):
    # the integer kernel is d(w) in numerators over dga._denom, keyed by
    # letter tuples and idempotent components, in extend_leibniz's order
    rng = random.Random(seed)
    dga = free_dga(rng)
    names = [g.name for g in dga.generators]
    for _ in range(4):
        if rng.random() < 0.5:
            letters = tuple(rng.choice(names) for _ in range(rng.randint(1, 4)))
        else:
            letters = _random_composable(rng, dga.generators, rng.randint(1, 4)).letters
        got = _leibniz_word(dga, letters)
        want = extend_leibniz(dga, Element.monomial(Word.of(letters))).terms
        scaled = [
            (Word(key) if type(key) is tuple else Word.idem(key), Fraction(v, dga._denom))
            for key, v in got.items()
        ]
        assert scaled == list(want.items())
        assert all(type(v) is int and v for v in got.values())


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(["free", 1, 0, -1]))
def test_capped_leibniz_word_is_the_image_restricted_to_short_keys(seed, source):
    # a capped image keeps the keys of at most cap letters, an idempotent
    # counting as none, in the order of the uncapped image
    rng = random.Random(seed)
    dga = free_dga(rng) if source == "free" else fractional_dga(rng, source)
    names = [g.name for g in dga.generators]
    for _ in range(4):
        if rng.random() < 0.5:
            letters = tuple(rng.choice(names) for _ in range(rng.randint(1, 4)))
        else:
            letters = _random_composable(rng, dga.generators, rng.randint(1, 4)).letters
        full = _leibniz_word(dga, letters)
        for cap in range(7):
            want = [
                (key, v) for key, v in full.items()
                if (len(key) if type(key) is tuple else 0) <= cap
            ]
            assert list(_leibniz_word(dga, letters, cap=cap).items()) == want


def test_leibniz_drops_port_mismatched_terms():
    # d(b) = e_2 + a: both terms break b's ports (1 -> 1), so neither
    # composes with the neighbours of b in a.b.a
    ring = BaseRing(2)
    gens = [Generator("a", 1, 1, 1), Generator("b", 1, 1, 1), Generator("c", 0, 2, 2)]
    diff = {"b": Element({Word.idem(2): Fraction(1), Word.of(["c"]): Fraction(1, 2)})}
    dga = DGASpec(ring, gens, diff)
    assert check_d_squared(dga).port_issues
    x = Element.monomial(Word.of(["a", "b", "a"]))
    assert extend_leibniz(dga, x).is_zero()
    assert leibniz_reference(dga, x).is_zero()
    # alone, b's differential survives, unit term included
    assert extend_leibniz(dga, Element.monomial(Word.of(["b"]))) == diff["b"]


def test_check_d_squared_passes_bundled(chekanov_a, unknot3):
    assert check_d_squared(chekanov_a).ok
    assert check_d_squared(unknot3).ok


def test_check_d_squared_reports_grading_violation():
    ring = BaseRing(1)
    dga = DGASpec(
        ring,
        [Generator("a", 1)],
        {"a": Element.monomial(Word.of(["a", "a"]))},
        2,
    )
    report = check_d_squared(dga)
    assert not report.ok
    assert report.grading_issues


def test_morphism_identity_and_composition(chekanov_a):
    ident = DGAMorphism(
        source=chekanov_a,
        target=chekanov_a,
        assignment={
            g.name: Element.monomial(Word.of([g.name])) for g in chekanov_a.generators
        },
    )
    ok, _ = check_morphism(ident)
    assert ok
    phi = morphism_from_document(example_document("chekanov_phi"))
    ok, _ = check_morphism(phi)
    assert ok
    comp = compose_morphisms(phi, ident)
    ok, _ = check_morphism(comp)
    assert ok
    assert comp.value("a8") == phi.value("a8")


def test_morphism_counterexample(chekanov_a):
    doc = example_document("chekanov_phi")
    doc["assignment"]["a8"] = [{"coeff": "1", "word": "e_1"}]
    bad = morphism_from_document(doc)
    ok, counter = check_morphism(bad)
    assert not ok and counter == "a3"


def test_augmentations_chekanov(chekanov_a):
    found = enumerate_augmentations(chekanov_a, ["-1", "0", "1"])
    assert len(found) == 1
    eps = found[0]
    assert eps.values == {
        "a7": Fraction(1),
        "a8": Fraction(-1),
        "a9": Fraction(1),
    }


def test_augmentations_search_a_repeated_value_once(chekanov_a):
    # each augmentation is found once, whatever the values repeat
    found = enumerate_augmentations(chekanov_a, ["1", "1", "-1", "0", "2/2"])
    assert found == enumerate_augmentations(chekanov_a, ["1", "-1", "0"])
    assert len(found) == 1


def test_augmentations_unknot_trivial(unknot3):
    found = enumerate_augmentations(unknot3, ["-1", "0", "1"])
    assert len(found) == 1 and not found[0].values


def test_augmentation_impossible_for_unit_differential(dc1):
    # the unit-killing chord has grading 1, so the only candidate is the
    # trivial map, which fails eps(dc) = 0
    assert enumerate_augmentations(dc1, ["-1", "0", "1"]) == []
    assert not is_valid_augmentation(dc1, Augmentation(values={}))


def augmentation_draw(seed: int, fractional: bool, min_grading: int):
    """A random or fractional DGA; grading 0 and below gives grading-0
    chords, unit terms in the differentials of grading-1 chords, and,
    with two components, mixed ports."""
    rng = random.Random(seed)
    if fractional:
        return rng, fractional_dga(rng, min_grading)
    return rng, random_dga(rng, min_grading=min_grading)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.booleans(), st.sampled_from([0, -1]))
def test_augmentations_match_the_element_reference(seed, fractional, min_grading):
    rng, dga = augmentation_draw(seed, fractional, min_grading)
    values = ["-1", "0", "1/2", "2"]
    found = enumerate_augmentations(dga, values)
    assert found == ref.enumerate_augmentations_reference(dga, values)
    # values off the grading-0 chords with src = dst are gated to 0
    gated = [g.name for g in dga.generators if g.grading or g.src != g.dst]
    for eps in found[:3]:
        eps = Augmentation({**{n: random_fraction(rng) for n in gated}, **eps.values})
        assert is_valid_augmentation(dga, eps) and ref.is_valid_augmentation_reference(dga, eps)
    eps = Augmentation({g.name: random_fraction(rng) for g in dga.generators})
    assert is_valid_augmentation(dga, eps) == ref.is_valid_augmentation_reference(dga, eps)


def test_augmentation_draws_reach_units_mixed_ports_and_gated_letters():
    # the draws of the test above are not vacuous: some differential has a
    # unit term, some grading-0 chord has mixed ports, and some valid
    # augmentation's differential reads a gated letter
    units = mixed = gated = False
    for seed in range(300):
        _, dga = augmentation_draw(seed, seed % 2 == 1, -1 if seed % 3 == 0 else 0)
        rows = [row for rs in dga._rows.values() for row in rs]
        units |= any(not piece for piece, _, _, _ in rows)
        mixed |= any(g.grading == 0 and g.src != g.dst for g in dga.generators)
        letters = {x for piece, _, _, _ in rows for x in piece}
        gated |= bool(enumerate_augmentations(dga, ["-1", "0", "1/2", "2"])) and any(
            g.name in letters for g in dga.generators if g.grading or g.src != g.dst
        )
    assert units and mixed and gated


def test_linearize_unknot_trivial(unknot3):
    complex = linearize(unknot3, Augmentation(values={}))
    assert not complex.d_squared_report()
    assert complex.labels(2) == ["a"]


def test_linearize_chekanov(chekanov_a):
    eps = Augmentation({"a7": Fraction(1), "a8": Fraction(-1), "a9": Fraction(1)})
    complex = linearize(chekanov_a, eps)
    assert not complex.d_squared_report()
    col = complex.labels(1).index("a3")
    hits = {
        complex.labels(0)[r]: v
        for (r, c), v in complex.matrix(1).items()
        if c == col
    }
    assert set(hits) == {"a7", "a8"}


def test_linearized_betti_flags_no_generator_degree(chekanov_a):
    # the linearized complex holds every generator, so nothing is cut and
    # no degree that holds one is a window edge
    eps = Augmentation({"a7": Fraction(1), "a8": Fraction(-1), "a9": Fraction(1)})
    table = betti(linearize(chekanov_a, eps))
    degrees = {g.grading for g in chekanov_a.generators}
    assert (min(degrees), max(degrees)) == (-2, 2)
    assert not table.flagged & set(range(-2, 3))
    assert [table.rank(d) for d in range(-2, 3)] == [1, 0, 0, 1, 1]


def test_linearize_rejects_invalid_augmentation(chekanov_a):
    with pytest.raises(ValueError):
        linearize(chekanov_a, Augmentation(values={}))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_linearize_squares_to_zero_on_randoms(seed):
    rng = random.Random(seed)
    dga = random_dga(rng, min_grading=0)
    if not check_d_squared(dga).ok:
        return
    for eps in enumerate_augmentations(dga, ["-1", "0", "1"])[:3]:
        complex = linearize(dga, eps)
        assert not complex.d_squared_report()


def test_adjoin_q_keeps_differential(unknot3):
    dq = adjoin_q(unknot3, q_grading=1)
    assert check_d_squared(dq).ok
    assert dq.d_gen("q").is_zero()
    assert dq.algebra.gen("q").grading == 1


def test_adjoin_q_deformed_grading_check(unknot3):
    # a supplied deformed term is validated for grading bookkeeping
    good = adjoin_q(
        unknot3, q_grading=1, deformed={"a": Element.monomial(Word.of(["q"]))}
    )
    assert check_d_squared(good).ok  # |a|-1 = 1 = |q|
    bad = adjoin_q(
        unknot3, q_grading=0, deformed={"a": Element.monomial(Word.of(["q"]))}
    )
    report = check_d_squared(bad)
    assert not report.ok and report.grading_issues


def test_rel_q_unknot():
    unknot = dga_from_document(example_document("unknot"))
    dq = adjoin_q(unknot, q_grading=1)  # n = 3: point class grading n-2 = 1
    res = rel_q_construction(dq, "q", max_len=2)
    assert check_d_squared(res.B).ok
    assert check_d_squared(res.target).ok
    ok, _ = check_morphism(res.phi)
    assert ok
    # Phi(q) = the empty-word generator, which bounds the filler
    filler = [g for g in res.target.generators if g.name == "a[fill]"][0]
    assert filler.grading == res.target.ambient_dim - 1
    assert res.target.d_gen("a[fill]") == Element.monomial(Word.of(["y[]"]))
    # gradings |y_w| = |w| + (n - 2)
    n = res.target.ambient_dim
    for g in res.target.generators:
        if g.name.startswith("y["):
            inner = g.name[2:-1]
            length = 0 if not inner else len(inner.split("."))
            assert g.grading == 2 * length + (n - 2)


def test_rel_q_with_deformation():
    # n = 3, point class q of grading 1; d(v) = u.q.w descends to the
    # two-block word on the v-block generator
    ring = BaseRing(1)
    dga_q = DGASpec(
        ring=ring,
        generators=[
            Generator("u", 1),
            Generator("v", 4),
            Generator("w", 1),
            Generator("q", 1),
        ],
        differential={"v": Element.monomial(Word.of(["u", "q", "w"]))},
        ambient_dim=3,
    )
    assert check_d_squared(dga_q).ok
    res = rel_q_construction(dga_q, "q", max_len=2)
    assert res.B.d_gen("b[v]") == Element.monomial(Word.of(["b[u]", "b[w]"]))
    assert check_d_squared(res.B).ok
    assert check_d_squared(res.target).ok
    ok, _ = check_morphism(res.phi)
    assert ok
    # q-adjacent collapses are killed by the relation
    dq2 = adjoin_q(
        dga_from_document(example_document("unknot")),
        q_grading=1,
        deformed={"a": Element.monomial(Word.of(["q"]))},
    )
    res2 = rel_q_construction(dq2, "q", max_len=1)
    assert res2.B.d_gen("b[a]").is_zero()


def test_rel_q_requires_point_class_grading():
    unknot = dga_from_document(example_document("unknot"))
    dq = adjoin_q(unknot, q_grading=0)
    with pytest.raises(ValueError):
        rel_q_construction(dq, "q", max_len=2)


def test_rel_q_rejects_unit_producing_differential(dc1):
    dqa = adjoin_q(dc1, q_grading=0)  # n = 2: |q| = 0
    with pytest.raises(RelQError):
        rel_q_construction(dqa, "q", max_len=2)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_random_morphism_composition(seed):
    rng = random.Random(seed)
    dga = random_dga(rng)
    ident = DGAMorphism(
        source=dga,
        target=dga,
        assignment={g.name: Element.monomial(Word.of([g.name])) for g in dga.generators},
    )
    ok, _ = check_morphism(ident)
    assert ok
    ok, _ = check_morphism(compose_morphisms(ident, ident))
    assert ok


def broken_dga(rng: random.Random) -> DGASpec:
    """A random_dga whose differential gains, on a few generators, a term
    of any grading and ports with a fractional coefficient: a unit or a
    composable word.  Gradings, ports and d^2 = 0 may all fail."""
    dga = random_dga(rng, min_grading=0)
    diff = dict(dga.differential)
    for g in rng.sample(dga.generators, rng.randint(1, len(dga.generators))):
        w = _random_word(rng, dga.generators, dga.ring.k, 0.3)
        diff[g.name] = diff.get(g.name, Element.zero()) + Element({w: _random_rational(rng)})
    return DGASpec(dga.ring, dga.generators, diff)


def validation_draw(seed: int, broken: bool) -> DGASpec:
    rng = random.Random(seed)
    return broken_dga(rng) if broken else random_dga(rng, min_grading=0)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9), st.booleans())
def test_validation_report_matches_the_element_reference(seed, broken):
    dga = validation_draw(seed, broken)
    assert check_d_squared(dga).lines() == ref.d_squared_lines_reference(dga)


def test_validation_draws_reach_fractional_and_unit_d2_failures():
    # the broken draws of the test above fail in every way, and some d^2
    # failure has a fractional and some a unit term
    lines = [
        line for seed in range(200) for line in check_d_squared(validation_draw(seed, True)).lines()
    ]
    d2 = [line for line in lines if line.startswith("d^2(")]
    assert any("has grading" in line for line in lines)
    assert any("has ports" in line for line in lines)
    assert any("/" in line for line in d2) and any("*e_" in line for line in d2)


def random_morphism(rng: random.Random, dga: DGASpec, kind: str) -> DGAMorphism:
    """An endomorphism of dga.  The identity; an elementary automorphism
    x -> x + c u, with u a unit or a word of x's grading and ports in the
    closed generators other than x; or a broken map that sends a few
    generators to terms of any grading and ports.  Coefficients are
    fractional."""
    gens = dga.generators
    assignment = {g.name: Element.monomial(Word.of([g.name])) for g in gens}
    if kind == "elementary":
        x = rng.choice(gens)
        closed = [g for g in gens if g.name not in dga._rows and g != x]
        cands = [
            Word.of(c.name for c in combo)
            for length in (1, 2)
            for combo in itertools.product(closed, repeat=length)
            if sum(c.grading for c in combo) == x.grading
            and all(a.src == b.dst for a, b in zip(combo, combo[1:]))
            and (combo[0].dst, combo[-1].src) == (x.dst, x.src)
        ]
        if x.grading == 0 and x.src == x.dst:
            cands.append(Word.idem(x.src))
        if cands:
            u = Element({rng.choice(cands): random_fraction(rng)})
            assignment[x.name] = assignment[x.name] + u
    elif kind == "broken":
        for g in rng.sample(gens, rng.randint(1, len(gens))):
            terms = {
                _random_word(rng, gens, dga.ring.k, 0.2): _random_rational(rng)
                for _ in range(rng.randint(0, 2))
            }
            assignment[g.name] = Element(terms)
    return DGAMorphism(dga, dga, assignment)


KINDS = ["identity", "elementary", "broken"]


def morphism_draw(seed: int, kind: str) -> tuple[DGAMorphism, DGAMorphism]:
    """f of the given kind and g of any kind on one random or fractional DGA."""
    rng = random.Random(seed)
    dga = fractional_dga(rng, 0) if rng.random() < 0.5 else random_dga(rng, min_grading=0)
    return random_morphism(rng, dga, kind), random_morphism(rng, dga, rng.choice(KINDS))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(KINDS))
def test_morphisms_match_the_element_reference(seed, kind):
    f, g = morphism_draw(seed, kind)
    assert check_morphism(f) == ref.check_morphism_reference(f)
    comp = compose_morphisms(g, f)
    assert comp.assignment == ref.compose_reference(g, f)
    assert check_morphism(comp) == ref.check_morphism_reference(comp)


def test_morphism_draws_reach_every_verdict():
    # the draws of the test above are not vacuous: elementary maps that
    # move a generator pass and fail the chain-map check, and broken ones
    # fail it at a generator and on an image term's grading and ports
    def moved(f):
        return any(f.value(n) != Element.monomial(Word.of([n])) for n in f.source.gen_names())

    elementary = [f for seed in range(200) if moved(f := morphism_draw(seed, "elementary")[0])]
    verdicts = [check_morphism(f) for f in elementary]
    assert (True, None) in verdicts and any(not ok for ok, _ in verdicts)
    broken = [check_morphism(morphism_draw(seed, "broken")[0])[1] for seed in range(200)]
    assert any(c and c.endswith("breaks the grading") for c in broken)
    assert any(c and c.endswith("breaks the ports") for c in broken)
    assert any(c and ":" not in c for c in broken)


def test_rel_q_special_element_is_closed():
    unknot = dga_from_document(example_document("unknot"))
    res = rel_q_construction(adjoin_q(unknot, q_grading=1), "q", max_len=2)
    assert res.B.d_gen("b[]").is_zero()
    assert res.target.d_gen("y[]").is_zero()


def random_dga_with_q(rng: random.Random) -> DGASpec:
    """A fractional_dga of ambient dimension n in 2..4 with the point class q
    of grading n - 2 adjoined at a random component.  Half the time every
    generator with a differential gets up to two deformed terms: words in q
    and the closed generators of its grading and ports, with q in each, so
    d^2 = 0 still holds."""
    base = fractional_dga(rng, rng.choice([1, 0]))
    n = rng.randint(2, 4)
    dga = DGASpec(base.ring, base.generators, base.differential, n)
    q = Generator("q", n - 2, *[rng.randint(1, base.ring.k)] * 2)
    deformed = {}
    if rng.random() < 0.5:
        pool = [g for g in base.generators if g.name not in base.differential] + [q]
        for g in base.generators:
            if g.name not in base.differential:
                continue
            cands = [
                Word.of(c.name for c in combo)
                for length in (1, 2, 3)
                for combo in itertools.product(pool, repeat=length)
                if q in combo
                and sum(c.grading for c in combo) == g.grading - 1
                and all(a.src == b.dst for a, b in zip(combo, combo[1:]))
                and (combo[0].dst, combo[-1].src) == (g.dst, g.src)
            ]
            rng.shuffle(cands)
            extra = {w: random_fraction(rng) for w in cands[: rng.randint(0, 2)]}
            deformed[g.name] = Element({**base.differential[g.name].terms, **extra})
    return adjoin_q(dga, n - 2, q.src, deformed)


def dga_form(dga: DGASpec) -> tuple:
    """A DGA's generators, differential (terms in order), dimension and meta."""
    terms = [(name, list(el.terms.items())) for name, el in dga.differential.items()]
    return dga.ring, dga.generators, terms, dga.ambient_dim, dga.meta


def rel_q_outcome(construct, dga_q: DGASpec, max_len: int) -> tuple:
    """B, the target and phi's assignment (terms in order) of a relative
    construction, or the type and message of its refusal."""
    try:
        res = construct(dga_q, "q", max_len)
    except ValueError as exc:
        return type(exc), str(exc)
    assert res.phi.source is res.B and res.phi.target is res.target
    phi = [(name, list(el.terms.items())) for name, el in res.phi.assignment.items()]
    return dga_form(res.B), dga_form(res.target), phi


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_rel_q_matches_the_element_reference(seed, max_len):
    dga_q = random_dga_with_q(random.Random(seed))
    want = rel_q_outcome(ref.rel_q_reference, dga_q, max_len)
    assert rel_q_outcome(rel_q_construction, dga_q, max_len) == want


def point_class_dga(d_v: list[str]) -> DGASpec:
    """n = 3: u of grading 1, the point class q, and v with d(v) the word
    d_v, of grading |d_v| + 1."""
    gens = [Generator("u", 1), Generator("q", 1), Generator("v", len(d_v) + 1)]
    return DGASpec(BaseRing(1), gens, {"v": Element.monomial(Word.of(d_v))}, ambient_dim=3)


@pytest.mark.parametrize(
    "d_v,message",
    [
        (["q", "u"], "differential does not descend: term q.u.q starts with q"),
        (["u", "u", "u"], "differential leaves the length-2 truncation at u.u.u.q"),
    ],
    ids=["starts-with-q", "truncation"],
)
def test_rel_q_refuses_a_term_that_does_not_descend(d_v, message):
    dga_q = point_class_dga(d_v)
    assert check_d_squared(dga_q).ok
    with pytest.raises(RelQError) as exc:
        rel_q_construction(dga_q, "q", max_len=2)
    assert str(exc.value) == message
    assert rel_q_outcome(ref.rel_q_reference, dga_q, 2) == (RelQError, message)


# ---- refusals ---------------------------------------------------------------------


def test_dga_refuses_a_differential_word_that_does_not_compose():
    # a runs from component 1 to 2, so a.a does not compose
    gens = [Generator("a", 1, 1, 2), Generator("b", 3, 1, 2)]
    with pytest.raises(ValueError, match="differential of b has a non-composable word a.a"):
        DGASpec(BaseRing(2), gens, {"b": Element.monomial(Word.of(["a", "a"]))})


def identity(dga: DGASpec) -> DGAMorphism:
    assignment = {g.name: Element.monomial(Word.of([g.name])) for g in dga.generators}
    return DGAMorphism(dga, dga, assignment)


def test_morphism_refuses_another_base_ring():
    one = DGASpec(BaseRing(1), [Generator("a", 1)], {})
    two = DGASpec(BaseRing(2), [Generator("a", 1)], {})
    with pytest.raises(ValueError, match="source and target must share the base ring"):
        DGAMorphism(one, two, {})


def test_morphism_check_names_an_image_term_that_breaks_the_grading():
    # a and b are closed, so a -> b commutes with d but moves the grading
    dga = DGASpec(BaseRing(1), [Generator("a", 1), Generator("b", 2)], {})
    f = DGAMorphism(dga, dga, {"a": Element.monomial(Word.of(["b"]))})
    assert check_morphism(f) == (False, "a: image term b breaks the grading")


def test_morphism_check_names_an_image_term_that_breaks_the_ports():
    # b has a's grading but runs 2 -> 2, so f(a.a) = b.b while f(dc) = 0
    source = DGASpec(
        BaseRing(2),
        [Generator("a", 2, 1, 1), Generator("c", 5, 1, 1)],
        {"c": Element.monomial(Word.of(["a", "a"]))},
    )
    target = DGASpec(BaseRing(2), [Generator("b", 2, 2, 2), Generator("x", 1, 1, 2)], {})
    f = DGAMorphism(source, target, {"a": Element.monomial(Word.of(["b"]))})
    assert check_morphism(f) == (False, "a: image term b breaks the ports")


def test_compose_refuses_morphisms_that_do_not_compose():
    a = DGASpec(BaseRing(1), [Generator("a", 1)], {})
    b = DGASpec(BaseRing(1), [Generator("b", 1)], {})
    with pytest.raises(ValueError, match="morphisms do not compose"):
        compose_morphisms(identity(a), identity(b))


def test_adjoin_q_refuses_a_name_already_present(unknot3):
    with pytest.raises(ValueError, match="generator named a already present"):
        adjoin_q(unknot3, q_grading=1, name="a")


def test_adjoin_q_refuses_a_deformation_of_an_unknown_generator(unknot3):
    deformed = {"z": Element.monomial(Word.of(["q"]))}
    with pytest.raises(ValueError, match="deformed differential for unknown generators {'z'}"):
        adjoin_q(unknot3, q_grading=1, deformed=deformed)


def test_rel_q_refuses_a_point_class_that_is_not_pure():
    dga_q = DGASpec(BaseRing(2), [Generator("u", 1), Generator("q", 0, 1, 2)], {})
    with pytest.raises(ValueError, match="q must be a pure chord"):
        rel_q_construction(dga_q, "q", max_len=2)


def test_rel_q_refuses_a_point_class_that_is_not_closed():
    gens = [Generator("u", 0), Generator("q", 1)]
    dga_q = DGASpec(BaseRing(1), gens, {"q": Element.monomial(Word.of(["u"]))}, ambient_dim=3)
    with pytest.raises(RelQError, match="q must be closed"):
        rel_q_construction(dga_q, "q", max_len=2)
