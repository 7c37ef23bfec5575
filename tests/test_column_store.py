"""Boundary matrices stored as integer columns, against their Fraction view.

A complex from build_complex keeps each degree as integer columns over one
denominator and builds diffs only when it is read.  On inputs whose
coefficients have denominators 2-4, the stored form and the same complex
given its diffs must read the same d^2 report, Betti table, boundaries and
dictionary; the readers must leave the stored columns as they are; reading
diffs must drop them; and an edit of diffs is what the readers see.
"""

import copy
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from chordhom.complexes import (
    build_cyclic_complex,
    build_ho_complex,
    build_hoplus_complex,
    build_mcyc_complex,
)
from chordhom.homology import DSquareError, GradedChainComplex, betti, is_boundary
from chordhom.lefschetz import (
    build_curved_category,
    dualize_tensor_algebra,
    hochschild_complex,
    verify_dictionary,
)
from chordhom.surgery import SurgeryCountTable, build_sh_surgery, builtin_ball_filling

from conftest import fractional_ainf_spec, fractional_dga, random_fraction
from reference_images import d_squared_report as reference_report, fraction_entries


def _betti(cx):
    try:
        return betti(cx)
    except DSquareError as exc:
        return str(exc)


def _vectors(cx):
    """(degree, vector) pairs to test with is_boundary: the last column of
    the boundary into each window degree, and the first basis vector."""
    lo, hi = cx.window
    for d in range(lo, hi + 1):
        columns: dict = {}
        for (r, c), v in cx.matrix(d + 1).items():
            columns.setdefault(c, {})[r] = v
        if columns:
            yield d, columns[max(columns)]
        if cx.dim(d):
            yield d, {0: Fraction(1)}


def read_view(cx) -> GradedChainComplex:
    """Read cx.diffs and return the complex rebuilt from it; check that the
    view holds the stored columns, in order, and that cx keeps no column."""
    columns = copy.deepcopy(cx._store)
    shallow = copy.copy(cx)
    view = cx.diffs
    assert "_store" not in vars(cx)
    assert shallow.diffs == view  # a shallow copy keeps its own view
    assert list(view) == list(columns)
    for d, (cols, den) in columns.items():
        want = {(r, c): Fraction(v, den) for c, col in cols.items() for r, v in col.items()}
        assert list(view[d].items()) == list(want.items())
    return GradedChainComplex(cx.basis, diffs=view, window=cx.window, verdict=cx.verdict)


def check_both_forms(cx) -> tuple[GradedChainComplex, GradedChainComplex]:
    """Compare a stored complex with its view form; returns both."""
    stored = copy.deepcopy(cx)
    columns = copy.deepcopy(stored._store)
    viewed = read_view(cx)
    report = stored.d_squared_report()
    assert viewed.d_squared_report() == report
    assert fraction_entries(report) == reference_report(stored)
    table = _betti(stored)
    assert _betti(stored) == table == _betti(viewed)
    for d, vector in _vectors(viewed):
        assert is_boundary(stored, d, vector) == is_boundary(viewed, d, vector)
    assert stored._store == columns  # no reader touched the stored columns
    return stored, viewed


def composable_entry(cx):
    """A stored entry (d, (r, c)) of boundary(d), d in the range the d^2
    report reads, whose row r is a nonzero column of boundary(d-1)."""
    lo, hi = cx.window
    for d in range(lo + 1, hi + 2):
        lower_cols = {c for (_, c) in cx.matrix(d - 1)}
        for r, c in cx.matrix(d):
            if r in lower_cols:
                return d, (r, c)
    return None


def check_view_edit(viewed):
    """Negating one entry of diffs in place changes the d^2 report."""
    found = composable_entry(viewed)
    if found is None:
        return False
    d, pos = found
    before = viewed.d_squared_report()
    viewed.diffs[d][pos] = -viewed.diffs[d][pos]
    assert viewed.d_squared_report() != before
    return True


def fractional_ball(rng: random.Random):
    """The ball model on n = 2 with fractional connecting counts, so that
    orbit columns and chord columns of one degree have other denominators.
    The connecting counts run up to g64, past any window built here, so the
    ball keeps them and adds none of its own."""
    filling = builtin_ball_filling(2)
    filling.bott_diff = {(f"g{k + 1}", f"g{k}"): random_fraction(rng) for k in range(1, 64)}
    filling.to_morse = {k: random_fraction(rng) for k in filling.to_morse}
    return filling


CHORD_BUILDERS = (build_cyclic_complex, build_hoplus_complex, build_ho_complex, build_mcyc_complex)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([1, 0, -1]))
def test_chord_and_surgery_columns_match_their_view(seed, min_grading):
    rng = random.Random(seed)
    dga = fractional_dga(rng, min_grading)
    window, max_len = (0, 3), 3
    complexes = [builder(dga, window, max_len) for builder in CHORD_BUILDERS]
    complexes.append(
        build_sh_surgery(fractional_ball(rng), dga, SurgeryCountTable.zero(), window, max_len)
    )
    for cx in complexes:
        _, viewed = check_both_forms(cx)
        check_view_edit(viewed)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_hochschild_columns_match_their_view(seed, t_order):
    D = build_curved_category(fractional_ainf_spec(random.Random(seed)), t_order)
    window, max_len = (0, 4), 5
    cc = hochschild_complex(D, window, max_len)
    ho = build_ho_complex(dualize_tensor_algebra(D), window, max_len)
    stored_cc, stored_ho = copy.deepcopy(cc), copy.deepcopy(ho)
    assert verify_dictionary(stored_cc, stored_ho)
    _, viewed_cc = check_both_forms(cc)
    _, viewed_ho = check_both_forms(ho)
    assert verify_dictionary(viewed_cc, viewed_ho)
    assert verify_dictionary(stored_cc, viewed_ho) and verify_dictionary(viewed_cc, stored_ho)
    check_view_edit(viewed_cc)
