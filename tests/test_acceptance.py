"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All arithmetic is exact, so every comparison is equality.  Criterion 3 is
asserted exactly as stated; see notes/decisions.md at the repository root
of the review bundle for the analysis of the degrees where the stated
table is not attainable from the complex it refers to.
"""

import random
from fractions import Fraction

from chordhom.algebra import Word
from chordhom.complexes import (
    build_cyclic_complex,
    build_ho_complex,
    build_hoplus_complex,
    build_mcyc_complex,
    cyclic_class,
    dc_one_generators,
    ho_vanishes_by_unit_differential,
    verify_en_isomorphism,
)
from chordhom.dga import check_d_squared, check_morphism
from chordhom.documents import ParseError, dga_from_document, morphism_from_document
from chordhom.examples import example_document, minimal_ainf_spec
from chordhom.homology import betti, is_boundary
from chordhom.lefschetz import (
    build_curved_category,
    dualize_tensor_algebra,
    hochschild_complex,
    lefschetz_dga,
    user_counts,
    verify_dictionary,
)
from chordhom.surgery import (
    SurgeryCountTable,
    build_lch_surgery,
    build_sh_surgery,
    build_shplus_surgery,
    builtin_ball_filling,
    verify_kappa_isomorphism,
)

from conftest import random_ainf_spec, random_dga

UNKNOT = {2: "unknot_n2", 3: "unknot", 4: "unknot_n4", 5: "unknot_n5"}


def report(criterion: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def unknot(n):
    return dga_from_document(example_document(UNKNOT[n]))


def sphere_sh_ranks(n: int, top: int) -> list[int]:
    out = [0] * (top + 1)
    out[0] = 1
    if n % 2 == 1:
        m = (n - 1) // 2
        step, parities = 2 * m, range(1, 10_000)
        for r in parities:
            if 2 * r * m > top:
                break
            out[2 * r * m] = 1
            if 2 * r * m + 1 <= top:
                out[2 * r * m + 1] = 1
    else:
        m = n // 2
        r = 1
        while r * (2 * m - 1) <= top:
            out[r * (2 * m - 1)] = 1
            if r * (2 * m - 1) + 1 <= top:
                out[r * (2 * m - 1) + 1] = 1
            r += 2
    return out


def test_criterion_1_unknot_tables():
    """Generators, gradings, and arrows of the cyclic and completed
    complexes match the four tables in degrees <= 12."""
    ok = True
    details = []
    for n in (2, 3, 4, 5):
        dga = unknot(n)
        cyc = build_cyclic_complex(dga, (0, 12), 13)
        for d in range(0, 13):
            expected = []
            if d > 0 and d % (n - 1) == 0:
                k = d // (n - 1)
                if n % 2 == 1 or k % 2 == 1:
                    expected = [("cyc", ("a",) * k)]
            if cyc.labels(d) != expected:
                ok, details = False, details + [f"cyc n={n} deg {d}"]
        if any(m for m in cyc.diffs.values()):
            ok, details = False, details + [f"cyc n={n} differential"]
        ho = build_ho_complex(dga, (0, 12), 13)
        for d in range(0, 13):
            expected = set()
            if d == 0:
                expected.add(("tau", 1))
            if d > 0 and d % (n - 1) == 0:
                expected.add(("chk", ("a",) * (d // (n - 1))))
            if d > 1 and (d - 1) % (n - 1) == 0:
                expected.add(("hat", ("a",) * ((d - 1) // (n - 1))))
            if set(ho.labels(d)) != expected:
                ok, details = False, details + [f"ho n={n} deg {d}"]
        index = {
            d: {lab: i for i, lab in enumerate(ho.labels(d))} for d in ho.basis
        }
        for d in range(1, 14):
            for col, lab in enumerate(ho.labels(d)):
                hits = {
                    ho.labels(d - 1)[r]: v
                    for (r, c), v in ho.matrix(d).items()
                    if c == col
                }
                if lab[0] == "hat" and n % 2 == 0 and len(lab[1]) % 2 == 0:
                    want = {("chk", lab[1]): Fraction(2)}
                else:
                    want = {}
                if hits != want:
                    ok, details = False, details + [f"arrow n={n} {lab}"]
        table = betti(ho)
        ranks = [table.rank(d) for d in range(0, 12)]
        want = sphere_sh_ranks(n, 11)[:12]
        if ranks != want:
            ok, details = False, details + [f"ho ranks n={n}"]
    report("criterion 1: unknot tables", ok, "; ".join(details[:4]))


def test_criterion_2_sphere_sh():
    ok = True
    details = []
    for n in (2, 3, 4, 5):
        complex = build_sh_surgery(
            builtin_ball_filling(n), unknot(n), SurgeryCountTable.zero(), (-1, 11), 12
        )
        table = betti(complex)
        got = [table.rank(d) for d in range(0, 11)]
        want = sphere_sh_ranks(n, 10)
        if got != want:
            ok = False
            details.append(f"n={n}: {got} != {want}")
    report("criterion 2: full surgery homology of the sphere bundles", ok, "; ".join(details))


def test_criterion_3_sphere_sh_plus():
    """Asserted exactly as stated: reduced ranks equal the full ranks except
    rank 1 at degree n+1 and rank 0 at degree 0."""
    mismatches = []
    for n in (2, 3, 4, 5):
        complex = build_shplus_surgery(
            builtin_ball_filling(n), unknot(n), SurgeryCountTable.zero(), (-1, 11), 12
        )
        table = betti(complex)
        sh = sphere_sh_ranks(n, 10)
        for d in range(0, 11):
            want = 1 if d == n + 1 else (0 if d == 0 else sh[d])
            got = table.rank(d)
            if got != want:
                mismatches.append(f"n={n} deg {d}: got {got}, stated {want}")
    report(
        "criterion 3: reduced surgery homology of the sphere bundles",
        not mismatches,
        "; ".join(mismatches),
    )


def test_criterion_4_sphere_ch():
    ok = True
    details = []
    for n in (2, 3):
        complex = build_lch_surgery(
            builtin_ball_filling(n), unknot(n), SurgeryCountTable.zero(), (0, 10), 11
        )
        if any(m for m in complex.diffs.values()):
            ok = False
            details.append(f"n={n}: nonzero differential")
        table = betti(complex)
        for d in range(0, 11):
            expected = 0
            if d >= n + 1 and (d - (n - 1)) % 2 == 0 and (d - (n - 1)) // 2 >= 1:
                expected += 1
            if d > 0 and d % (n - 1) == 0:
                j = d // (n - 1)
                if n % 2 == 1 or j % 2 == 1:
                    expected += 1
            if table.rank(d) != expected:
                ok = False
                details.append(f"n={n} deg {d}")
    report("criterion 4: orbit/cyclic surgery complex of the sphere bundles", ok, "; ".join(details))


def test_criterion_5_ball_acyclicity():
    ok = True
    details = []
    for n in range(2, 7):
        ball = builtin_ball_filling(n)
        sh = betti(build_sh_surgery(ball, None, SurgeryCountTable.zero(), (0, 14), 2))
        if any(sh.rank(d) for d in range(0, 15)):
            ok = False
            details.append(f"sh n={n}")
        shp = betti(
            build_shplus_surgery(ball, None, SurgeryCountTable.zero(), (0, 14), 2)
        )
        for d in range(0, 15):
            if shp.rank(d) != (1 if d == n + 1 else 0):
                ok = False
                details.append(f"sh+ n={n} deg {d}")
    report("criterion 5: ball acyclicity", ok, "; ".join(details))


def test_criterion_6_marked_module_equivalence():
    ok = all(
        verify_en_isomorphism(unknot(n), (0, 8), 10) for n in (2, 3)
    )
    report("criterion 6: marked-module / completed-complex equivalence", ok)


def test_criterion_7_unit_differential_vanishing():
    dc1 = dga_from_document(example_document("dc1_vanishing"))
    stable = []
    for max_len in (8, 10):
        table = betti(build_ho_complex(dc1, (0, 6), max_len))
        stable.append(tuple(table.rank(d) for d in range(0, 7)))
    ok = stable[0] == stable[1] == (0,) * 7
    # the partial document is excluded from rank computations and certified
    # through the unit-differential property instead
    lam = dga_from_document(example_document("lambda_t"), allow_partial=True)
    ok = ok and sorted(dc_one_generators(lam)) == ["b1_min", "b2_min"]
    ok = ok and ho_vanishes_by_unit_differential(lam)
    ok = ok and ho_vanishes_by_unit_differential(dc1)
    try:
        dga_from_document(example_document("lambda_t"))
        ok = False
    except ParseError:
        pass
    report("criterion 7: unit-differential vanishing", ok)


def test_criterion_8_chekanov_distinction():
    phi = morphism_from_document(example_document("chekanov_phi"))
    ok, counter = check_morphism(phi)
    details = [] if ok else [f"phi fails at {counter}"]

    dga_a = dga_from_document(example_document("chekanov_a"))
    alg = dga_a.algebra
    cls = cyclic_class(alg, Word.of(["a6"]))
    if alg.grading["a6"] != -2 or cls.is_zero:
        ok = False
        details.append("a6 class")
    cyc_a = build_cyclic_complex(dga_a, (-4, 0), 4)
    idx = {lab: i for i, lab in enumerate(cyc_a.labels(-2))}
    col = idx[("cyc", ("a6",))]
    if any(c == col for (r, c) in cyc_a.matrix(-2)):
        ok = False
        details.append("a6 is not a cycle")

    # its image generates a nonzero class downstream
    target = dga_from_document(example_document("chekanov_a6_target"))
    img = phi.value("a6")
    cyc_t = build_cyclic_complex(target, (-4, 0), 4)
    tidx = {lab: i for i, lab in enumerate(cyc_t.labels(-2))}
    vector = {}
    for w, coeff in img.terms.items():
        tcls = cyclic_class(target.algebra, w)
        if not tcls.is_zero:
            row = tidx[("cyc", tcls.representative)]
            vector[row] = vector.get(row, Fraction(0)) + coeff * tcls.sign
    if not vector or is_boundary(cyc_t, -2, vector):
        ok = False
        details.append("image class dies")

    dga_c = dga_from_document(example_document("chekanov_c"))
    lch_c = build_lch_surgery(
        builtin_ball_filling(2), dga_c, SurgeryCountTable.zero(), (-6, 4), 5
    )
    for d in range(-6, 0):
        if lch_c.labels(d):
            ok = False
            details.append(f"negative-degree basis at {d}")
    report("criterion 8: the two famous knots are distinguished", ok, "; ".join(details))


def test_criterion_9_d_squared_sweep():
    ok = True
    details = []

    def check(complex, name):
        nonlocal ok
        if complex.d_squared_report():
            ok = False
            details.append(name)

    for n in (2, 3, 4, 5):
        dga = unknot(n)
        check(build_cyclic_complex(dga, (0, 12), 13), f"cyc unknot {n}")
        check(build_hoplus_complex(dga, (0, 12), 13), f"hoplus unknot {n}")
        check(build_ho_complex(dga, (0, 12), 13), f"ho unknot {n}")
        check(build_mcyc_complex(dga, (0, 10), 12), f"mcyc unknot {n}")
        ball = builtin_ball_filling(n)
        zero = SurgeryCountTable.zero()
        check(build_lch_surgery(ball, dga, zero, (0, 10), 11), f"lch {n}")
        check(build_shplus_surgery(ball, dga, zero, (0, 10), 11), f"slh+ {n}")
        check(build_sh_surgery(ball, dga, zero, (0, 10), 11), f"slh {n}")
    # The knot algebras carry grading-zero letters, so no length-truncated
    # window of their word complexes is a subcomplex: a dropped over-length
    # intermediate can re-enter the window through unit absorption, and the
    # matrix-level square of the truncation is then nonzero by construction.
    # The sweep therefore runs on exact-verdict outputs; truncated outputs
    # are labeled and carry no exactness claim.
    dc1 = dga_from_document(example_document("dc1_vanishing"))
    check(build_cyclic_complex(dc1, (0, 6), 8), "cyc dc1")
    check(build_hoplus_complex(dc1, (0, 6), 8), "hoplus dc1")
    check(build_ho_complex(dc1, (0, 6), 8), "ho dc1")
    check(build_mcyc_complex(dc1, (0, 6), 8), "mcyc dc1")

    spec = minimal_ainf_spec()
    D = build_curved_category(spec, 3)
    dual = dualize_tensor_algebra(D)
    if not check_d_squared(dual).ok:
        ok = False
        details.append("lefschetz dga")
    check(hochschild_complex(D, (0, 5), 12), "hochschild")

    rng = random.Random(20_260_808)
    for trial in range(200):
        dga = random_dga(rng)
        if not check_d_squared(dga).ok:
            ok = False
            details.append(f"random dga {trial}")
            continue
        for builder, nm in (
            (build_cyclic_complex, "cyc"),
            (build_hoplus_complex, "hoplus"),
            (build_ho_complex, "ho"),
            (build_mcyc_complex, "mcyc"),
        ):
            if builder(dga, (0, 5), 6).d_squared_report():
                ok = False
                details.append(f"random {trial} {nm}")
    report("criterion 9: square-zero sweep", ok, "; ".join(details[:5]))


def test_criterion_10_lefschetz_dictionary():
    ok = True
    details = []

    def run_case(spec, window, max_len, name):
        nonlocal ok
        D = build_curved_category(spec, 3)
        dual = dualize_tensor_algebra(D)
        direct = lefschetz_dga(spec, user_counts(D), spec.n, 3)
        same = [g.name for g in dual.generators] == [
            g.name for g in direct.generators
        ] and all(dual.d_gen(g.name) == direct.d_gen(g.name) for g in dual.generators)
        if not same:
            ok = False
            details.append(f"{name}: dual != direct")
            return
        cc = hochschild_complex(D, window, max_len)
        ho = build_ho_complex(dual, window, max_len)
        if cc.d_squared_report() or ho.d_squared_report():
            ok = False
            details.append(f"{name}: d^2")
            return
        if not verify_dictionary(cc, ho):
            ok = False
            details.append(f"{name}: dictionary")

    run_case(minimal_ainf_spec(), (0, 5), 12, "minimal")
    rng = random.Random(31)
    for trial in range(20):
        run_case(random_ainf_spec(rng), (0, 4), 8, f"random {trial}")
    report("criterion 10: vanishing-cycle dictionary", ok, "; ".join(details[:4]))


def test_criterion_11_multiplicity_convention_isomorphism():
    ok = verify_kappa_isomorphism(builtin_ball_filling(2), (0, 12))
    ok = ok and verify_kappa_isomorphism(builtin_ball_filling(3), (0, 12))
    report("criterion 11: multiplicity-rescaling chain isomorphism", ok)
