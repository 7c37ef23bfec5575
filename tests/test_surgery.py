import copy
from collections import defaultdict
from fractions import Fraction

import pytest

import chordhom.surgery as surgery
from chordhom.algebra import BaseRing, Generator, Word
from chordhom.complexes import (
    build_cyclic_complex,
    build_ho_complex,
    build_hoplus_complex,
    cyclic_class,
)
from chordhom.dga import DGASpec
from chordhom.documents import dga_from_document
from chordhom.examples import example_document
from chordhom.homology import betti
from chordhom.surgery import (
    CobordismCounts,
    CountGradingError,
    FillingModel,
    Orbit,
    SurgeryCountTable,
    assemble_cobordism_map,
    build_ch_complex,
    build_lch_surgery,
    build_sh_surgery,
    build_shplus_surgery,
    builtin_ball_filling,
    empty_filling,
    verify_kappa_isomorphism,
)

UNKNOT_DOCS = {2: "unknot_n2", 3: "unknot", 4: "unknot_n4", 5: "unknot_n5"}


def sphere_sh_ranks(n: int, top: int) -> list[int]:
    """Loop-space homology ranks of the n-sphere cotangent bundle."""
    out = [0] * (top + 1)
    out[0] = 1
    if n % 2 == 1:
        m = (n - 1) // 2
        r = 1
        while 2 * r * m <= top:
            out[2 * r * m] = 1
            if 2 * r * m + 1 <= top:
                out[2 * r * m + 1] = 1
            r += 1
    else:
        m = n // 2
        r = 1
        while r * (2 * m - 1) <= top:
            out[r * (2 * m - 1)] = 1
            if r * (2 * m - 1) + 1 <= top:
                out[r * (2 * m - 1) + 1] = 1
            r += 2
    return out


def test_ball_model_basics():
    ball = builtin_ball_filling(3)
    orbits = ball.orbits_up_to(12)
    assert [(o.label, o.grading, o.multiplicity) for o in orbits[:3]] == [
        ("g1", 4, 1),
        ("g2", 6, 2),
        ("g3", 8, 3),
    ]
    assert all(not o.bad for o in orbits)
    with pytest.raises(ValueError):
        builtin_ball_filling(1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_ball_acyclicity(n):
    ball = builtin_ball_filling(n)
    sh = betti(build_sh_surgery(ball, None, SurgeryCountTable.zero(), (0, 14), 2))
    assert all(sh.rank(d) == 0 for d in range(0, 15))
    shp = betti(build_shplus_surgery(ball, None, SurgeryCountTable.zero(), (0, 14), 2))
    assert all(shp.rank(d) == (1 if d == n + 1 else 0) for d in range(0, 15))


@pytest.mark.parametrize("n", [2, 3])
def test_ball_orbit_only_window_above_degree_200(n):
    # the ball's orbits g<k> go on for every k: a window far past g64 reads
    # one CH class per orbit degree n-1+2k, and SH and SH+ vanish
    ball, zero, window = builtin_ball_filling(n), SurgeryCountTable.zero(), (201, 221)
    ch = betti(build_lch_surgery(ball, None, zero, window))
    assert [ch.rank(d) for d in range(202, 221)] == [
        1 if (d - n + 1) % 2 == 0 else 0 for d in range(202, 221)
    ]
    for build in (build_shplus_surgery, build_sh_surgery):
        table = betti(build(ball, None, zero, window))
        assert all(table.rank(d) == 0 for d in range(202, 221))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sphere_cotangent_sh(n):
    dga = dga_from_document(example_document(UNKNOT_DOCS[n]))
    ball = builtin_ball_filling(n)
    complex = build_sh_surgery(ball, dga, SurgeryCountTable.zero(), (-1, 11), 12)
    assert not complex.d_squared_report()
    table = betti(complex)
    assert [table.rank(d) for d in range(0, 11)] == sphere_sh_ranks(n, 10)


@pytest.mark.parametrize("n", [2, 3])
def test_sphere_cotangent_ch_basis_and_zero_differential(n):
    dga = dga_from_document(example_document(UNKNOT_DOCS[n]))
    ball = builtin_ball_filling(n)
    complex = build_lch_surgery(ball, dga, SurgeryCountTable.zero(), (0, 10), 11)
    assert all(not m for m in complex.diffs.values())
    for d in range(0, 11):
        expected = set()
        k = (d - (n - 1)) // 2
        if d >= n + 1 and (d - (n - 1)) % 2 == 0 and k >= 1:
            expected.add(("orb", f"g{k}"))
        if d % (n - 1) == 0 and d > 0:
            j = d // (n - 1)
            if n % 2 == 1 or j % 2 == 1:
                expected.add(("cyc", ("a",) * j))
        assert set(complex.labels(d)) == expected, (n, d)


# each surgery builder with the chord builder its chord block comes from
SURGERY_CHORD_PAIRS = [
    (build_lch_surgery, build_cyclic_complex),
    (build_shplus_surgery, build_hoplus_complex),
    (build_sh_surgery, build_ho_complex),
]


def assert_empty_filling_gives_chord_complexes(dga, window, max_len):
    for surgery, chord in SURGERY_CHORD_PAIRS:
        empty = empty_filling(dga.ambient_dim)
        cx = surgery(empty, dga, SurgeryCountTable.zero(), window, max_len)
        plain = chord(dga, window, max_len)
        assert cx.verdict == plain.verdict
        assert cx.basis == plain.basis and cx.diffs == plain.diffs
        assert betti(cx).ranks == betti(plain).ranks


def test_zero_filling_reduces_to_chord_complexes(unknot2):
    # EXACT, then TRUNCATED by a chord of negative grading and by a max-len
    # below the window top: the surgery verdict is the chord one
    assert_empty_filling_gives_chord_complexes(unknot2, (0, 6), 8)
    chekanov_c = dga_from_document(example_document("chekanov_c"))
    assert_empty_filling_gives_chord_complexes(chekanov_c, (-4, 0), 3)
    assert_empty_filling_gives_chord_complexes(unknot2, (0, 6), 3)


def test_bad_orbit_doubling():
    filling = FillingModel(
        n=2,
        orbits=[Orbit("b1", 3, multiplicity=2, bad=True)],
    )
    complex = build_shplus_surgery(
        filling, None, SurgeryCountTable.zero(), (0, 6), 2
    )
    index = {
        d: {lab: i for i, lab in enumerate(complex.labels(d))}
        for d in complex.basis
    }
    col = index[4][("ohat", "b1")]
    hits = {
        complex.labels(3)[r]: v for (r, c), v in complex.matrix(4).items() if c == col
    }
    assert hits == {("ochk", "b1"): Fraction(2)}
    table = betti(complex)
    assert table.rank(3) == 0 and table.rank(4) == 0


def test_count_grading_validation(unknot2):
    ball = builtin_ball_filling(2)
    counts = SurgeryCountTable(mixed_cyc={("g1", ("a",)): Fraction(1)})
    # |g1| = 3, |a| = 1: difference 2, not 1
    with pytest.raises(CountGradingError):
        build_lch_surgery(ball, unknot2, counts, (0, 6), 6)
    counts = SurgeryCountTable(nhat={("g1", ("a",)): Fraction(1)})
    # |g1| - |a| = 2 is right for the hat block
    build_shplus_surgery(ball, unknot2, counts, (0, 6), 6)


@pytest.mark.parametrize("grading", [10, 70])
def test_count_grading_checked_at_every_orbit_of_the_window(unknot2, grading):
    filling = FillingModel(n=2, orbits=[Orbit("h", grading)])
    counts = SurgeryCountTable(mixed_cyc={("h", ("a",)): Fraction(1)})
    with pytest.raises(CountGradingError, match=r"violates \|gamma\|-\|w\|=1"):
        build_lch_surgery(filling, unknot2, counts, (0, 71), 4)


def test_mixed_counts_enter_with_multiplicity_division(unknot2):
    ball = builtin_ball_filling(2)
    counts = SurgeryCountTable(mixed_cyc={("g2", ("a",) * 4): Fraction(1)})
    # |g2| = 5, |a^4| = 4: the class (a^4) is bad, so the entry is dropped
    complex = build_lch_surgery(ball, unknot2, counts, (0, 6), 6)
    col_index = {
        d: {lab: i for i, lab in enumerate(complex.labels(d))}
        for d in complex.basis
    }
    col = col_index[5][("orb", "g2")]
    hits = {r: v for (r, c), v in complex.matrix(5).items() if c == col}
    assert not hits
    # an even-graded chord gives good even powers; kappa divides the count
    even = DGASpec(BaseRing(1), [Generator("a", 2)], {}, 2)
    counts2 = SurgeryCountTable(mixed_cyc={("g2", ("a", "a")): Fraction(6)})
    complex2 = build_lch_surgery(ball, even, counts2, (0, 8), 8)
    idx = {d: {lab: i for i, lab in enumerate(complex2.labels(d))} for d in complex2.basis}
    col = idx[5][("orb", "g2")]
    hits = {
        complex2.labels(4)[r]: v
        for (r, c), v in complex2.matrix(5).items()
        if c == col
    }
    # kappa((a^2)) = 2 divides the count 6
    assert hits == {("cyc", ("a", "a")): Fraction(3)}


def test_builders_leave_the_count_table_alone():
    # (v, u) and (u, v) are rotations of one cyclic class
    dga = DGASpec(BaseRing(2), [Generator("u", 1, 2, 1), Generator("v", 1, 1, 2)], {}, 2)
    ball = builtin_ball_filling(2)
    raw = {("g1", ("v", "u")): Fraction(1), ("g1", ("u", "v")): Fraction(2)}
    folded: dict = defaultdict(Fraction)
    for (g, w), c in raw.items():
        cls = cyclic_class(dga.algebra, Word.of(w))
        folded[(g, cls.representative)] += c * cls.sign
    assert len(folded) == 1 and all(folded.values())
    for build in (build_lch_surgery, build_shplus_surgery, build_sh_surgery):
        counts = SurgeryCountTable(mixed_cyc=dict(raw))
        before = copy.deepcopy(counts)
        cx = build(ball, dga, counts, (0, 4), 4)
        assert counts == before
        ref = build(ball, dga, SurgeryCountTable(mixed_cyc=dict(folded)), (0, 4), 4)
        assert cx.basis == ref.basis and cx.diffs == ref.diffs
        assert cx.matrix(3)  # the folded count couples g1 to its class


def test_kappa_isomorphism_ball_and_synthetic():
    assert verify_kappa_isomorphism(builtin_ball_filling(3), (0, 12))
    filling = FillingModel(
        n=2,
        orbits=[Orbit("u", 4, multiplicity=6), Orbit("v", 3, multiplicity=4)],
        orbit_diff={("u", "v"): Fraction(5)},
    )
    assert verify_kappa_isomorphism(filling, (0, 6))
    src = build_lch_surgery(filling, None, SurgeryCountTable.zero(), (0, 6))
    assert src.matrix(4) == {(0, 0): Fraction(5, 4)}
    tgt = build_ch_complex(filling, (0, 6))
    assert tgt.matrix(4) == {(0, 0): Fraction(5, 6)}


def test_kappa_isomorphism_refuses_the_target_divided_complex(monkeypatch):
    # the rescaling does not intertwine the target-divided differential with
    # itself; at window top 3 the refused boundary, out of degree 4 = hi + 1,
    # is still checked
    filling = FillingModel(
        n=2,
        orbits=[Orbit("u", 4, multiplicity=6), Orbit("v", 3, multiplicity=4)],
        orbit_diff={("u", "v"): Fraction(5)},
    )
    monkeypatch.setattr(
        surgery, "build_ch_complex",
        lambda filling, window: build_lch_surgery(filling, None, SurgeryCountTable.zero(), window),
    )
    assert not verify_kappa_isomorphism(filling, (0, 6))
    assert not verify_kappa_isomorphism(filling, (0, 3))


def test_identity_cobordism_map(unknot2):
    ball = builtin_ball_filling(2)
    complex = build_sh_surgery(ball, unknot2, SurgeryCountTable.zero(), (0, 8), 9)
    kappa = {o.label: o.multiplicity for o in ball.orbits_up_to(12)}
    counts = CobordismCounts(
        orbit_orbit={
            (o.label, o.label): Fraction(o.multiplicity)
            for o in ball.orbits_up_to(12)
        },
        morse_morse={("min", "min"): Fraction(1)},
    )
    report = assemble_cobordism_map(
        counts, complex, complex, target_kappa=kappa, source_kappa=kappa
    )
    assert report.ok
    for lab, image in report.mapping.items():
        if lab[0] in ("ochk", "ohat", "mrs"):
            assert image == {lab: Fraction(1)}


def test_cobordism_defect_detected(unknot2):
    ball = builtin_ball_filling(2)
    complex = build_sh_surgery(ball, unknot2, SurgeryCountTable.zero(), (0, 8), 9)
    kappa = {o.label: o.multiplicity for o in ball.orbits_up_to(12)}
    counts = CobordismCounts(
        orbit_orbit={("g1", "g1"): Fraction(1)},  # g2, g3 ... dropped
        morse_morse={("min", "min"): Fraction(1)},
    )
    report = assemble_cobordism_map(
        counts, complex, complex, target_kappa=kappa, source_kappa=kappa
    )
    assert not report.ok


def test_subcritical_shortcut(dc1):
    # no orbits at all: the full complex equals the completed chord complex
    empty = empty_filling(2)
    sh = build_sh_surgery(empty, dc1, SurgeryCountTable.zero(), (0, 6), 8)
    assert betti(sh).ranks == betti(build_ho_complex(dc1, (0, 6), 8)).ranks


def test_direct_sum_property(unknot3):
    # zero mixed counts and an acyclic filling: surgery homology equals the
    # chord-side homology degree by degree
    ball = builtin_ball_filling(3)
    sh = betti(build_sh_surgery(ball, unknot3, SurgeryCountTable.zero(), (0, 10), 11))
    ho = betti(build_ho_complex(unknot3, (0, 10), 11))
    assert sh.ranks == ho.ranks


def test_les_ranks_for_the_surgery_triangle(unknot3):
    # the surgered complex against the filling and chord sides with zero
    # connecting maps
    from chordhom.homology import verify_les_ranks

    ball = builtin_ball_filling(3)
    t1 = betti(build_lch_surgery(ball, unknot3, SurgeryCountTable.zero(), (-1, 11), 12))
    t2 = betti(build_lch_surgery(ball, None, SurgeryCountTable.zero(), (-1, 11)))
    t3 = betti(build_cyclic_complex(unknot3, (-1, 11), 12))
    assert verify_les_ranks(t1, t2, t3, (0, 10))


def test_cobordism_kappa_division_conventions():
    # the minimum-decorated block divides by the target multiplicity, the
    # maximum-decorated block by the source multiplicity
    filling = FillingModel(
        n=2,
        orbits=[Orbit("u", 5, multiplicity=6), Orbit("v", 5, multiplicity=4)],
    )
    complex = build_shplus_surgery(filling, None, SurgeryCountTable.zero(), (0, 8), 2)
    counts = CobordismCounts(orbit_orbit={("u", "v"): Fraction(1)})
    report = assemble_cobordism_map(
        counts,
        complex,
        complex,
        target_kappa={"u": 6, "v": 4},
        source_kappa={"u": 6, "v": 4},
    )
    assert report.mapping[("ochk", "u")] == {("ochk", "v"): Fraction(1, 4)}
    assert report.mapping[("ohat", "u")] == {("ohat", "v"): Fraction(1, 6)}
    assert report.ok  # both differentials vanish, so any block map is a chain map


def test_empty_filling_reduces_orbit_cyclic_theory(unknot3):
    assert_empty_filling_gives_chord_complexes(unknot3, (0, 8), 9)


def test_component_class_count_from_an_orbit_of_grading_other_than_1(unknot2):
    # |g1| = 3 on the ball of dimension 2
    counts = SurgeryCountTable(orbit_tau={("g1", 1): Fraction(1)})
    message = r"component-class count from g1 violates \|gamma\|=1"
    with pytest.raises(CountGradingError, match=message):
        build_sh_surgery(builtin_ball_filling(2), unknot2, counts, (0, 6), 6)


def test_cobordism_cyclic_counts_need_the_chord_algebra():
    ball = builtin_ball_filling(2)
    complex = build_lch_surgery(ball, None, SurgeryCountTable.zero(), (0, 6))
    counts = CobordismCounts(orbit_cyc={("g1", ("a",)): Fraction(1)})
    with pytest.raises(ValueError, match="cyclic counts need the chord algebra"):
        assemble_cobordism_map(counts, complex, complex)


def _fractions(tables: dict) -> dict:
    """The same count tables with every count a Fraction."""
    return {name: {key: Fraction(c) for key, c in t.items()} for name, t in tables.items()}


def test_integer_counts_build_what_fraction_counts_build():
    # an int count divided by an int multiplicity made a float, which no
    # join could read; every count is a Fraction once it is indexed
    dga = DGASpec(BaseRing(1), [Generator("a", 2)], {}, 2)
    orbits = [Orbit("u", 5, 6), Orbit("v", 4, 4), Orbit("w", 3, 2), Orbit("t", 1)]
    morse = [("p", 3), ("q", 2), ("r", 1)]
    filling_tables = dict(
        orbit_diff={("u", "v"): 5, ("v", "w"): 3},
        bott_diff={("u", "w"): 2},
        to_morse={("v", "p"): 2},
        morse_diff={("p", "q"): 3},
        morse_tau={("r", 1): 2},
    )
    count_tables = dict(
        mixed_cyc={("u", ("a", "a")): 6},
        ncheck={("u", ("a", "a")): 3},
        nhat={("v", ("a",)): 5},
        orbit_tau={("t", 1): 3},
    )
    ints = FillingModel(2, orbits, morse, **filling_tables)
    fractions = FillingModel(2, orbits, morse, **_fractions(filling_tables))
    int_counts = SurgeryCountTable(**count_tables)
    fraction_counts = SurgeryCountTable(**_fractions(count_tables))
    for build in (build_lch_surgery, build_shplus_surgery, build_sh_surgery):
        got = build(ints, dga, int_counts, (0, 6), 4)
        want = build(fractions, dga, fraction_counts, (0, 6), 4)
        assert (got.basis, got.diffs, got.verdict) == (want.basis, want.diffs, want.verdict)
        assert any(got.diffs.values())
    got, want = build_ch_complex(ints, (0, 6)), build_ch_complex(fractions, (0, 6))
    assert (got.basis, got.diffs) == (want.basis, want.diffs)
    assert got.matrix(5) == {(0, 0): Fraction(5, 6)}
    complex = build_sh_surgery(fractions, dga, fraction_counts, (0, 6), 4)
    kappa = {o.label: o.multiplicity for o in orbits}
    map_tables = dict(
        orbit_orbit={(o.label, o.label): o.multiplicity for o in orbits},
        orbit_cyc={("u", ("a", "a")): 6},
        morse_morse={(p, p): 1 for p, _ in morse},
    )
    reports = [
        assemble_cobordism_map(
            CobordismCounts(**tables), complex, complex, kappa, kappa, dga.algebra
        )
        for tables in (map_tables, _fractions(map_tables))
    ]
    assert reports[0].mapping == reports[1].mapping and reports[0].mapping
    assert all(type(v) is Fraction for image in reports[0].mapping.values() for v in image.values())
    assert reports[0].defects == reports[1].defects


def test_float_count_refused():
    filling = FillingModel(2, [Orbit("u", 4, 6), Orbit("v", 3, 4)], orbit_diff={("u", "v"): 0.5})
    with pytest.raises(TypeError, match="not an exact rational: 0.5"):
        build_ch_complex(filling, (0, 6))
    with pytest.raises(TypeError, match="not an exact rational: 0.5"):
        build_lch_surgery(filling, None, SurgeryCountTable.zero(), (0, 6))
