"""Self-test of the output checkers: every checker accepts a real output
and rejects the same output after one deliberate corruption.

    python3 perfbench/selftest.py

Run it from the repository root.  Exits 0 when every checker passes its
real output and rejects its corrupted one, 1 otherwise.
"""

from __future__ import annotations

import copy
import os
import random
import sys

SRC = os.path.join(os.getcwd(), "src")
if not os.path.isfile(os.path.join(SRC, "chordhom", "__init__.py")):
    sys.exit(f"selftest: no chordhom sources under {SRC}; run from the repository root")
sys.path.insert(0, SRC)

import checks  # noqa: E402
import workloads as wl  # noqa: E402


def drop_label(cx, kinds):
    """Remove the first label of one of the given kinds from the basis."""
    for d in sorted(cx.basis):
        for i, lab in enumerate(cx.basis[d]):
            if lab[0] in kinds:
                del cx.basis[d][i]
                return cx
    raise LookupError(f"no {kinds} label to drop")


def flip_entry(cx):
    """Negate one boundary entry (mid, c) of d_d whose row mid is hit by
    d_{d-1}: every product through it then changes by twice its value."""
    for d in sorted(cx.diffs):
        lower = cx.diffs.get(d - 1, {})
        used = {c for (_, c) in lower}
        for key, v in cx.diffs[d].items():
            if key[0] in used:
                cx.diffs[d][key] = -v
                return cx
    raise LookupError("no composable pair of entries to flip")


def shift(ranks: dict, degree: int) -> dict:
    out = dict(ranks)
    out[degree] = out.get(degree, 0) + 1
    return out


class FakeReport:
    ok = True


def cases(m):
    cx, sg, hom, lf = m["complexes"], m["surgery"], m["homology"], m["lefschetz"]
    rng = random.Random(1)
    dga = wl.unit_killing_dga(m, (1, 1, 2), {"c0": (), "c2": ("c1",)}, rng)
    window, max_len = (0, 4), 5
    gens = [(g.grading, g.src, g.dst) for g in dga.generators]
    hoplus = cx.build_hoplus_complex(dga, window, max_len)
    ho = cx.build_ho_complex(dga, window, max_len)
    mcyc = cx.build_mcyc_complex(dga, window, max_len)
    cyc = cx.build_cyclic_complex(dga, window, max_len)
    zero = sg.SurgeryCountTable.zero
    ball = sg.builtin_ball_filling
    shp = sg.build_shplus_surgery(ball(2), dga, zero(), window, max_len)
    sh = sg.build_sh_surgery(ball(2), dga, zero(), window, max_len)
    ch = sg.build_lch_surgery(ball(2), dga, zero(), window, max_len)
    b = {name: dict(hom.betti(c).ranks) for name, c in
         (("hoplus", hoplus), ("ho", ho), ("mcyc", mcyc), ("cyc", cyc), ("sh+", shp), ("sh", sh), ("ch", ch))}
    table = hom.betti(ho)
    bad_table = copy.deepcopy(table)
    bad_table.ranks = shift(table.ranks, 2)
    dec = checks.decorated_sizes(gens, 1, window, max_len, with_tau=True)
    marked = checks.marked_sizes(gens, 1, window, max_len)
    orbits = checks.ball_orbit_sizes(2, window, decorated=True, with_morse=True)
    unknot = wl.example_dga(m, "unknot_n2")
    u_ho = cx.build_ho_complex(unknot, (0, 12), 13)
    bad_u_ho = copy.deepcopy(u_ho)
    for d, mat in bad_u_ho.diffs.items():
        for key in mat:
            mat[key] = -mat[key]
    spec = wl.round_trip_ainf(m, wl.ainf_document(*wl.ainf_structures()[0], rng))
    D = lf.build_curved_category(spec, wl.T_ORDER)
    dual = lf.dualize_tensor_algebra(D)
    direct = lf.lefschetz_dga(spec, lf.user_counts(D), spec.n, wl.T_ORDER)
    bad_direct = copy.deepcopy(direct)
    name = next(g.name for g in bad_direct.generators if not bad_direct.d_gen(g.name).is_zero())
    bad_direct.differential[name] = bad_direct.differential[name].scale(2)
    cc = lf.hochschild_complex(D, (0, 4), 8)
    dho = cx.build_ho_complex(dual, (0, 4), 8)
    alg = m["algebra"]
    nilpotent = m["dga"].DGASpec(
        ring=alg.BaseRing(1),
        generators=[alg.Generator("a", 3), alg.Generator("b", 2), alg.Generator("c", 1)],
        differential={"a": alg.Element.monomial(alg.Word.of(["b"])),
                      "b": alg.Element.monomial(alg.Word.of(["c"]))},
    )
    return [
        ("Betti ranks mod p", "a shifted Betti rank",
         lambda: checks.check_betti(ho, table), lambda: checks.check_betti(ho, bad_table)),
        ("check/hat basis count", "a dropped basis label",
         lambda: checks.check_sizes(ho, dec, kinds={"chk", "hat", "tau"}),
         lambda: checks.check_sizes(drop_label(copy.deepcopy(ho), {"hat"}), dec, kinds={"chk", "hat", "tau"})),
        ("marked-word basis count", "a dropped basis label",
         lambda: checks.check_sizes(mcyc, marked),
         lambda: checks.check_sizes(drop_label(copy.deepcopy(mcyc), {"mc"}), marked)),
        ("ball orbit basis count", "a dropped basis label",
         lambda: checks.check_sizes(sh, orbits, kinds={"orb", "ochk", "ohat", "mrs"}),
         lambda: checks.check_sizes(drop_label(copy.deepcopy(sh), {"ohat"}), orbits, kinds={"orb", "ochk", "ohat", "mrs"})),
        ("unknot closed form: labels", "a dropped basis label",
         lambda: checks.check_unknot(u_ho, 2, "ho", (0, 12), 13),
         lambda: checks.check_unknot(drop_label(copy.deepcopy(u_ho), {"chk"}), 2, "ho", (0, 12), 13)),
        ("unknot closed form: arrows", "flipped matrix entries",
         lambda: checks.check_unknot(u_ho, 2, "ho", (0, 12), 13),
         lambda: checks.check_unknot(bad_u_ho, 2, "ho", (0, 12), 13)),
        ("mcyc Betti = ho Betti", "a shifted Betti rank",
         lambda: checks.check_shifted_betti(b["ho"], b["mcyc"], {}, window, "mcyc/ho"),
         lambda: checks.check_shifted_betti(b["ho"], shift(b["mcyc"], 2), {}, window, "mcyc/ho")),
        ("SH = ho", "a shifted Betti rank",
         lambda: checks.check_shifted_betti(b["ho"], b["sh"], {}, window, "SH/ho"),
         lambda: checks.check_shifted_betti(b["ho"], shift(b["sh"], 1), {}, window, "SH/ho")),
        ("SH+ = hoplus + [n+1]", "a shifted Betti rank",
         lambda: checks.check_shifted_betti(b["hoplus"], b["sh+"], {3: 1}, window, "SH+/hoplus"),
         lambda: checks.check_shifted_betti(b["hoplus"], shift(b["sh+"], 3), {3: 1}, window, "SH+/hoplus")),
        ("CH = cyc + orbit degrees", "a shifted Betti rank",
         lambda: checks.check_shifted_betti(b["cyc"], b["ch"], checks.ball_orbit_degrees(2, window), window, "CH/cyc"),
         lambda: checks.check_shifted_betti(b["cyc"], shift(b["ch"], 3), checks.ball_orbit_degrees(2, window), window, "CH/cyc")),
        ("EXACT has d^2 = 0", "a flipped matrix entry",
         lambda: checks.check_exact_d_squared(hoplus, hoplus.d_squared_report()),
         lambda: checks.check_exact_d_squared(flip_entry(copy.deepcopy(hoplus)), [])),
        ("guard-rule verdict", "a flipped verdict",
         lambda: checks.check_verdict(ho, (1, 1, 2), window, max_len),
         lambda: checks.check_verdict(_with(copy.deepcopy(ho), verdict="TRUNCATED"), (1, 1, 2), window, max_len)),
        ("DGA validation", "a report that passes d^2 != 0",
         lambda: checks.check_validation(nilpotent, m["dga"].check_d_squared(nilpotent)),
         lambda: checks.check_validation(nilpotent, FakeReport())),
        ("dual = direct", "a scaled differential",
         lambda: checks.check_same_dga(dual, direct),
         lambda: checks.check_same_dga(dual, bad_direct)),
        ("transposed ranks mod p", "a dropped basis label",
         lambda: checks.check_transposed_ranks(cc, dho),
         lambda: checks.check_transposed_ranks(cc, drop_label(copy.deepcopy(dho), {"hat"}))),
        ("round digest", "a flipped matrix entry",
         lambda: [] if wl.complex_digest(hoplus) == wl.complex_digest(copy.deepcopy(hoplus)) else ["digest unstable"],
         lambda: [] if wl.complex_digest(hoplus) == wl.complex_digest(flip_entry(copy.deepcopy(hoplus))) else ["digest moved"]),
    ]


def _with(cx, **fields):
    for key, value in fields.items():
        setattr(cx, key, value)
    return cx


def main() -> int:
    m = wl.modules()
    failures = 0
    for checker, corruption, good, bad in cases(m):
        accepted = good()
        rejected = bad()
        ok = not accepted and bool(rejected)
        failures += not ok
        tag = "ok  " if ok else "FAIL"
        detail = rejected[0] if rejected else "accepted the corrupted output"
        if accepted:
            detail = f"rejected the real output: {accepted[0]}"
        print(f"[{tag}] {checker}: rejects {corruption} ({detail})")
    print(f"{failures} checker(s) failed the self-test")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
