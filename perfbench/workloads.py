"""The three workloads: their inputs, made from a seed, and their
operations.

An operation is one instance put through one builder (d2-sweep,
betti-tables) or one Lefschetz spec put through the whole vanishing-cycle
pipeline (lefschetz-dict).  Each operation carries the program call that
is timed, a check that runs the independent checkers of checks.py on its
output, and a digest of the output used to compare later rounds with the
checked first one.

The program is reached only through module attributes looked up at call
time, so a tracer that wraps those attributes sees every call.

Seeded inputs are stratified: the structure of every random instance
(component count, generator gradings and ports, which generators are
closed, which words each differential uses, where the intersection points
of a directed spec sit, which higher operations it has) comes from a
fixed list drawn once from the shapes the test suite samples, and the
seed draws every coefficient.  The structure decides most of an
instance's cost; with it fixed, the cost of a run does not swing with the
draw, while the seed still changes the numbers the exact arithmetic
works on.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import checks

WORKLOADS = ("d2-sweep", "betti-tables", "lefschetz-dict")

# d2-sweep: the criterion-9 shapes
UNKNOTS = {2: "unknot_n2", 3: "unknot", 4: "unknot_n4", 5: "unknot_n5"}
UNKNOT_WINDOWS = {
    "cyc": ((0, 12), 13), "hoplus": ((0, 12), 13), "ho": ((0, 12), 13),
    "mcyc": ((0, 10), 12), "ch": ((0, 10), 11), "sh+": ((0, 10), 11), "sh": ((0, 10), 11),
}
DC1_WINDOW = ((0, 6), 8)
RANDOM_DGA_COUNT = 60
RANDOM_DGA_WINDOW = ((0, 5), 6)
CHEKANOV_WINDOW = ((-4, 0), 4)
STRUCTURE_SEED = 20_260_808  # the fixed structure list; the run's --seed draws the coefficients

# betti-tables: one component, 3-4 chords of grading 1-2, at least one of
# grading 1 so that a chord can kill the unit
BETTI_GRADINGS = [(1, 1, 1), (1, 1, 2), (1, 2, 2), (1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 2), (1, 2, 2, 2)]
BETTI_TOP_CELLS = 40_000  # largest rows x cols of the top check/hat boundary matrix
# (degrees below the largest window, instances): the smaller instances
# spread the operation times, so that the percentiles do not sit in a gap
BETTI_LADDER = ((0, 1), (1, 1))
BETTI_BALL = 2

# lefschetz-dict
LEFSCHETZ_MIN_WINDOW = ((0, 6), 8)
LEFSCHETZ_RANDOM_WINDOW = ((0, 4), 8)
LEFSCHETZ_POINT_GRADINGS = [(1,), (2,), (1, 1), (1, 2), (2, 2)]
LEFSCHETZ_SPECS_PER_SHAPE = 2
T_ORDER = 3

CHORD_BUILDERS = ("cyc", "hoplus", "ho", "mcyc")
SURGERY_BUILDERS = ("ch", "sh+", "sh")


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], list[str]]
    digest: Callable[[Any], str]


def modules():
    names = ("algebra", "complexes", "dga", "documents", "examples", "homology", "lefschetz", "surgery")
    return {n: importlib.import_module(f"chordhom.{n}") for n in names}


# ---- digests -----------------------------------------------------------------------


def _h(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


def complex_digest(cx) -> str:
    """Basis labels, boundary entries and verdict of a complex."""
    return _h(
        cx.verdict,
        cx.window,
        sorted((d, repr(labs)) for d, labs in cx.basis.items()),
        sorted((d, sorted(m.items())) for d, m in cx.diffs.items()),
    )


# ---- document round trips -----------------------------------------------------------


def round_trip_dga(m, dga):
    docs = m["documents"]
    return docs.dga_from_document(docs.loads(docs.dumps(docs.dga_to_document(dga))))


def round_trip_ainf(m, doc: dict):
    docs = m["documents"]
    return docs.ainf_from_document(docs.loads(docs.dumps(doc)))


def example_dga(m, name: str):
    docs = m["documents"]
    return docs.dga_from_document(docs.loads(docs.dumps(m["examples"].example_document(name))))


# ---- seeded instances -------------------------------------------------------------


def random_dga_structures(count: int) -> list[dict]:
    """The structural draws of the random positive-grading DGA shape used
    by the square-zero sweep of the test suite, taken from a fixed stream:
    1 or 2 components, 1-4 generators of grading 1-3 with random ports, a
    closed prefix, and for every other generator 0-3 words of grading one
    less in the closed generators (a component unit counts as a word of
    grading 0).  A differential that only hits closed words squares to 0."""
    rng = random.Random(STRUCTURE_SEED)
    out = []
    for _ in range(count):
        k = rng.choice([1, 1, 2])
        n_gens = rng.randint(1, 4)
        gens = [
            (f"g{i}", rng.randint(1, 3), rng.randint(1, k), rng.randint(1, k))
            for i in range(n_gens)
        ]
        closed = gens[: rng.randint(1, n_gens)]
        words = {}
        for name, grading, src, dst in gens[len(closed):]:
            cands: list = [src] if grading == 1 and src == dst else []
            for length in range(1, 4):
                for combo in itertools.product(closed, repeat=length):
                    if sum(c[1] for c in combo) != grading - 1:
                        continue
                    if any(a[2] != b[3] for a, b in zip(combo, combo[1:])):
                        continue
                    if combo[0][3] != dst or combo[-1][2] != src:
                        continue
                    cands.append(tuple(c[0] for c in combo))
            rng.shuffle(cands)
            words[name] = cands[: rng.randint(0, 3)]
        out.append({"k": k, "gens": gens, "words": words})
    return out


def random_dga(m, structure: dict, rng: random.Random):
    """The DGA of a structure, with coefficients drawn by the seed."""
    alg_mod = m["algebra"]
    Word, Element = alg_mod.Word, alg_mod.Element
    diff = {
        name: Element({
            (Word.idem(w) if isinstance(w, int) else Word.of(w)): Fraction(rng.choice([-2, -1, 1, 2]))
            for w in words
        })
        for name, words in structure["words"].items()
    }
    dga = m["dga"].DGASpec(
        ring=alg_mod.BaseRing(structure["k"]),
        generators=[alg_mod.Generator(*g) for g in structure["gens"]],
        differential=diff,
        ambient_dim=2,
    )
    return round_trip_dga(m, dga)


def unit_killing_dga(m, gradings: tuple[int, ...], structure: dict, rng: random.Random):
    """One component, chords c0.. of the given gradings.  c0 kills the
    unit; a grading-1 chord that is not closed is sent to a multiple of
    the unit, and a grading-2 one to a combination of the closed grading-1
    chords its structure lists.  The seed draws the coefficients."""
    alg_mod = m["algebra"]
    Generator, Word, Element = alg_mod.Generator, alg_mod.Word, alg_mod.Element
    gens = [Generator(f"c{i}", g) for i, g in enumerate(gradings)]
    diff = {}
    for g in gens:
        if g.name not in structure:
            continue
        if g.grading == 1:
            coeff = Fraction(1) if g.name == "c0" else Fraction(rng.choice([-2, -1, 1, 2]))
            diff[g.name] = Element({Word.idem(1): coeff})
        else:
            diff[g.name] = Element(
                {Word.of([c]): Fraction(rng.choice([-2, -1, 1, 2])) for c in structure[g.name]}
            )
    dga = m["dga"].DGASpec(
        ring=alg_mod.BaseRing(1), generators=gens, differential=diff, ambient_dim=BETTI_BALL
    )
    return round_trip_dga(m, dga)


def betti_structures(gradings: tuple[int, ...], count: int) -> list[dict]:
    """From a fixed stream: which chords are not closed (c0 never is; each
    other chord by a coin flip), mapped to the closed grading-1 chords
    that may appear in their differentials."""
    rng = random.Random(f"{STRUCTURE_SEED}:{gradings}")
    out = []
    for _ in range(count):
        closed = [i > 0 and rng.random() < 0.5 for i in range(len(gradings))]
        ones = [f"c{i}" for i, g in enumerate(gradings) if closed[i] and g == 1]
        out.append({
            f"c{i}": tuple(c for c in ones if rng.random() < 0.7)
            for i in range(len(gradings)) if not closed[i]
        })
    return out


def betti_window(gradings) -> tuple[tuple[int, int], int]:
    """The largest window (0, hi) whose top check/hat boundary matrix
    (degree hi+1 -> hi, with max-len hi+1) has at most BETTI_TOP_CELLS
    entries; max-len hi+1 keeps mcyc EXACT as well."""
    gens = [(g, 1, 1) for g in gradings]
    hi = 2
    while True:
        nxt = hi + 1
        sizes = checks.decorated_sizes(gens, 1, (0, nxt), nxt + 1, with_tau=False)
        if sizes[nxt] * sizes[nxt + 1] > BETTI_TOP_CELLS:
            return (0, hi), hi + 1
        hi = nxt


def ainf_symbols(k: int, n: int, points) -> dict:
    """(base grading, src, dst) of every symbol of a directed spec."""
    table = {}
    for i in range(1, k + 1):
        table[f"e:{i}"] = (-1, i, i)
        table[f"m:{i}"] = (n - 2, i, i)
    for name, g, i, j in points:
        table[f"f:{name}"] = (g, i, j)
        table[f"b:{name}"] = ((n - 3) - g, j, i)
    return table


def ainf_structures() -> list[tuple[int, int, list, list]]:
    """(components, dimension, points, operations) of the random directed
    specs of the test suite's shape, from a fixed stream: every component
    count 2-3, dimension 3-4 and point-grading pattern,
    LEFSCHETZ_SPECS_PER_SHAPE times each, with the points placed at random
    and 1-3 operations whose outputs are maximum classes (consumed only by
    units, so the square-zero identities close)."""
    rng = random.Random(STRUCTURE_SEED)
    out = []
    for k in (2, 3):
        for n in (3, 4):
            for point_gradings in LEFSCHETZ_POINT_GRADINGS:
                for _ in range(LEFSCHETZ_SPECS_PER_SHAPE):
                    points = []
                    for t, g in enumerate(point_gradings):
                        i = rng.randint(1, k - 1)
                        points.append((f"p{t}", g, i, rng.randint(i + 1, k)))
                    sym = ainf_symbols(k, n, points)
                    fb = [s for s in sym if s[0] in "fb"]
                    cands = []
                    for length in (1, 2, 3):
                        for combo in itertools.product(fb, repeat=length):
                            if any(sym[a][1] != sym[b][2] for a, b in zip(combo, combo[1:])):
                                continue
                            base = sum(sym[s][0] for s in combo)
                            for target in sym:
                                if target[0] == "m" and sym[target] == (base + 1, sym[combo[-1]][1], sym[combo[0]][2]):
                                    cands.append((target, combo))
                    rng.shuffle(cands)
                    out.append((k, n, points, cands[: rng.randint(1, 3)]))
    return out


def ainf_document(k: int, n: int, points, operations, rng: random.Random) -> dict:
    """The directed spec document of a structure, with coefficients drawn
    by the seed."""
    return {
        "format": "ainf/1",
        "components": k,
        "fiber_dim_param": n,
        "points": [{"name": nm, "grading": g, "from": i, "to": j} for nm, g, i, j in points],
        "mu": [
            {"out": target, "inputs": list(reversed(combo)), "coeff": str(rng.choice([-2, -1, 1, 2]))}
            for target, combo in operations
        ],
        "order": None,
        "metadata": {},
    }


# ---- chord-complex operations ----------------------------------------------------------


def builder_call(m, builder: str, ball_n: int):
    cx, sg = m["complexes"], m["surgery"]
    if builder in CHORD_BUILDERS:
        fn = {
            "cyc": "build_cyclic_complex", "hoplus": "build_hoplus_complex",
            "ho": "build_ho_complex", "mcyc": "build_mcyc_complex",
        }[builder]
        return lambda dga, window, max_len: getattr(cx, fn)(dga, window, max_len)
    fn = {"ch": "build_lch_surgery", "sh+": "build_shplus_surgery", "sh": "build_sh_surgery"}[builder]
    return lambda dga, window, max_len: getattr(sg, fn)(
        sg.builtin_ball_filling(ball_n), dga, sg.SurgeryCountTable.zero(), window, max_len
    )


def structural_checks(cx, dga, builder: str, window, max_len: int, ball_n: int) -> list[str]:
    """Verdict by the guard rule and, where a transfer-matrix count
    exists, the per-degree basis sizes."""
    gens = [(g.grading, g.src, g.dst) for g in dga.generators]
    k = dga.ring.k
    allowance = 1 if builder == "mcyc" else 0
    problems = checks.check_verdict(cx, (g for g, _, _ in gens), window, max_len, allowance)
    if builder in ("hoplus", "ho", "sh+", "sh"):
        want = checks.decorated_sizes(gens, k, window, max_len, with_tau=builder in ("ho", "sh"))
        problems += checks.check_sizes(cx, want, kinds={"chk", "hat", "tau"})
    if builder == "mcyc":
        problems += checks.check_sizes(cx, checks.marked_sizes(gens, k, window, max_len))
    if builder in SURGERY_BUILDERS:
        orbits = checks.ball_orbit_sizes(ball_n, window, decorated=builder != "ch", with_morse=builder == "sh")
        problems += checks.check_sizes(cx, orbits, kinds={"orb", "ochk", "ohat", "mrs"})
    return problems


def d2_op(m, inst: str, dga, builder: str, window, max_len: int, ball_n: int, unknot_n=None) -> Op:
    build = builder_call(m, builder, ball_n)

    def run():
        cx = build(dga, window, max_len)
        return cx, cx.d_squared_report()

    def check(out, ctx):
        cx, report = out
        problems = structural_checks(cx, dga, builder, window, max_len, ball_n)
        problems += checks.check_exact_d_squared(cx, report)
        if unknot_n is not None:
            problems += checks.check_unknot(cx, unknot_n, builder, window, max_len)
        return problems

    return Op(f"{inst}/{builder}", run, check, lambda out: _h(complex_digest(out[0]), len(out[1])))


def validate_op(m, inst: str, dga) -> Op:
    dga_mod = m["dga"]
    return Op(
        f"{inst}/validate",
        lambda: dga_mod.check_d_squared(dga),
        lambda report, ctx: checks.check_validation(dga, report),
        lambda report: _h(report.ok, report.lines()),
    )


def betti_op(m, inst: str, dga, builder: str, window, max_len: int) -> Op:
    build = builder_call(m, builder, BETTI_BALL)
    homology = m["homology"]

    def run():
        cx = build(dga, window, max_len)
        return cx, homology.betti(cx)

    def check(out, ctx):
        cx, table = out
        problems = structural_checks(cx, dga, builder, window, max_len, BETTI_BALL)
        problems += checks.check_exact_d_squared(cx, [])  # betti raised on a nonempty report
        problems += checks.check_betti(cx, table)
        seen = ctx.setdefault(inst, {})
        seen[builder] = dict(table.ranks)
        # relations with the builders run earlier on the same instance
        pairs = {
            "mcyc": ("ho", {}, "mcyc and ho Betti numbers"),
            "ch": ("cyc", checks.ball_orbit_degrees(BETTI_BALL, window), "CH = cyc + one class per orbit degree"),
            "sh+": ("hoplus", {BETTI_BALL + 1: 1}, "SH+ = hoplus + one class in degree n+1"),
            "sh": ("ho", {}, "SH = ho"),
        }
        if builder in pairs:
            base, extra, what = pairs[builder]
            if base in seen:
                problems += checks.check_shifted_betti(seen[base], seen[builder], extra, window, what)
            else:
                problems.append(f"{what}: no {base} table to compare with")
        return problems

    return Op(
        f"{inst}/{builder}", run, check,
        lambda out: _h(complex_digest(out[0]), sorted(out[1].ranks.items())),
    )


# ---- the Lefschetz pipeline -------------------------------------------------------------


def lefschetz_op(m, inst: str, spec, window, max_len: int) -> Op:
    lf, cx_mod = m["lefschetz"], m["complexes"]

    def run():
        D = lf.build_curved_category(spec, T_ORDER)
        dual = lf.dualize_tensor_algebra(D)
        direct = lf.lefschetz_dga(spec, lf.user_counts(D), spec.n, T_ORDER)
        same = [g.name for g in dual.generators] == [g.name for g in direct.generators] and all(
            dual.d_gen(g.name) == direct.d_gen(g.name) for g in dual.generators
        )
        cc = lf.hochschild_complex(D, window, max_len)
        ho = cx_mod.build_ho_complex(dual, window, max_len)
        reports = (cc.d_squared_report(), ho.d_squared_report())
        return {"dual": dual, "direct": direct, "same": same, "cc": cc, "ho": ho,
                "reports": reports, "dictionary": lf.verify_dictionary(cc, ho)}

    def check(out, ctx):
        problems = []
        if not out["same"]:
            problems.append("the pipeline found dual != direct")
        problems += checks.check_same_dga(out["dual"], out["direct"])
        if any(out["reports"]):
            problems.append("d^2 != 0 on the cyclic tensor complex or on ho")
        if out["dictionary"] is not True:
            problems.append("verify_dictionary rejected the pair")
        grads = checks.dual_gradings(spec.k, spec.n, spec.points, T_ORDER)
        problems += checks.check_verdict(out["ho"], grads, window, max_len)
        problems += checks.check_verdict(out["cc"], grads, window, max_len)
        gens = [(g.grading, g.src, g.dst) for g in out["dual"].generators]
        if sorted(g for g, _, _ in gens) != sorted(grads):
            problems.append("dual chord gradings differ from the closed form")
        problems += checks.check_sizes(
            out["ho"], checks.decorated_sizes(gens, spec.k, window, max_len, with_tau=True)
        )
        problems += checks.check_transposed_ranks(out["cc"], out["ho"])
        return problems

    def digest(out):
        return _h(
            out["same"], out["dictionary"], [len(r) for r in out["reports"]],
            complex_digest(out["cc"]), complex_digest(out["ho"]),
        )

    return Op(f"{inst}/pipeline", run, check, digest)


# ---- the workloads ---------------------------------------------------------------------


def d2_sweep(m, seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    for n, name in UNKNOTS.items():
        dga = example_dga(m, name)
        ops.append(validate_op(m, name, dga))
        for builder, (window, max_len) in UNKNOT_WINDOWS.items():
            ops.append(d2_op(m, name, dga, builder, window, max_len, n, unknot_n=n))
    dc1 = example_dga(m, "dc1_vanishing")
    ops.append(validate_op(m, "dc1_vanishing", dc1))
    for builder in CHORD_BUILDERS:
        ops.append(d2_op(m, "dc1_vanishing", dc1, builder, *DC1_WINDOW, 2))
    for idx, structure in enumerate(random_dga_structures(RANDOM_DGA_COUNT)):
        dga = random_dga(m, structure, rng)
        ops.append(validate_op(m, f"random{idx}", dga))
        for builder in CHORD_BUILDERS:
            ops.append(d2_op(m, f"random{idx}", dga, builder, *RANDOM_DGA_WINDOW, 2))
    chek = example_dga(m, "chekanov_a")
    ops.append(validate_op(m, "chekanov_a", chek))
    for builder in CHORD_BUILDERS:
        ops.append(d2_op(m, "chekanov_a", chek, builder, *CHEKANOV_WINDOW, 2))
    return ops


def betti_tables(m, seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    for gradings in BETTI_GRADINGS:
        (_, top), _ = betti_window(gradings)
        structures = iter(betti_structures(gradings, sum(n for _, n in BETTI_LADDER)))
        for drop, count in BETTI_LADDER:
            window, max_len = (0, top - drop), top - drop + 1
            for rep in range(count):
                dga = unit_killing_dga(m, gradings, next(structures), rng)
                inst = "u" + "".join(map(str, gradings)) + f"_{window[1]}_{rep}"
                for builder in CHORD_BUILDERS + SURGERY_BUILDERS:
                    ops.append(betti_op(m, inst, dga, builder, window, max_len))
    return ops


def lefschetz_dict(m, seed: int) -> list[Op]:
    rng = random.Random(seed)
    spec = round_trip_ainf(m, m["examples"].example_document("lefschetz_min"))
    ops = [lefschetz_op(m, "lefschetz_min", spec, *LEFSCHETZ_MIN_WINDOW)]
    for idx, structure in enumerate(ainf_structures()):
        spec = round_trip_ainf(m, ainf_document(*structure, rng))
        ops.append(lefschetz_op(m, f"spec{idx}", spec, *LEFSCHETZ_RANDOM_WINDOW))
    return ops


def interleave(ops: list[Op]) -> list[Op]:
    """A fixed random interleaving of the instances' operations that keeps
    each instance's own order (betti-tables checks a builder's table
    against those built before it on the same instance).  In the order
    they are made, operations of one kind sit together, so a class of
    them (the unknot and random-DGA builds around op_s.p50 of d2-sweep) would
    be timed in one stretch of the round, at whatever speed the machine
    had then; interleaved, every class is timed across the whole round."""
    queues: dict[str, list[Op]] = {}
    for op in ops:
        queues.setdefault(op.label.split("/")[0], []).append(op)
    pending = [list(reversed(q)) for q in queues.values()]
    rng = random.Random(STRUCTURE_SEED)
    out = []
    while pending:
        i = rng.choices(range(len(pending)), [len(q) for q in pending])[0]
        out.append(pending[i].pop())
        if not pending[i]:
            del pending[i]
    return out


def make(name: str, seed: int) -> list[Op]:
    """The operations of one round of the named workload, interleaved."""
    m = modules()
    build = {"d2-sweep": d2_sweep, "betti-tables": betti_tables, "lefschetz-dict": lefschetz_dict}[name]
    return interleave(build(m, seed))
