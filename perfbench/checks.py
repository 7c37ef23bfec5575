"""Output checks computed independently of chordhom.

Nothing here imports the package.  The checks read the public attributes
of what the program returns (a complex's ``basis``, ``diffs``, ``window``,
``verdict`` and ``max_len``; a Betti table's ``ranks``; a DGA's
``generators`` and ``differential``) and recompute what those outputs
must satisfy with code of their own: ranks by sparse elimination modulo a
fixed large prime, basis sizes by transfer-matrix path counts over the
port quiver, closed forms for the unknot, and the guard rule for the
EXACT / TRUNCATED verdict.

Every check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

P = (1 << 61) - 1  # a Mersenne prime; ranks mod P equal ranks over Q unless P divides a minor


def _mod(v) -> int:
    if isinstance(v, int):
        return v % P
    return v.numerator % P * pow(v.denominator % P, P - 2, P) % P


# ---- linear algebra mod P ------------------------------------------------------


def rank_mod_p(entries: dict, nrows: int, ncols: int) -> int:
    """Rank of a sparse {(row, col): value} matrix over GF(P), by row
    reduction against pivot rows kept in normalised form."""
    rows: dict[int, dict[int, int]] = defaultdict(dict)
    for (r, c), v in entries.items():
        if not (0 <= r < nrows and 0 <= c < ncols):
            raise ValueError(f"entry ({r}, {c}) outside a {nrows}x{ncols} matrix")
        x = _mod(v)
        if x:
            rows[r][c] = x
    pivots: dict[int, dict[int, int]] = {}
    for vec in rows.values():
        vec = dict(vec)
        while vec:
            lead = min(vec)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(vec[lead], P - 2, P)
                pivots[lead] = {c: x * inv % P for c, x in vec.items()}
                break
            f = vec[lead]
            for c, x in piv.items():
                y = (vec.get(c, 0) - f * x) % P
                if y:
                    vec[c] = y
                else:
                    vec.pop(c, None)
    return len(pivots)


def _dim(cx, d: int) -> int:
    return len(cx.basis.get(d, []))


def check_betti(cx, table) -> list[str]:
    """The Betti table equals dim - rank(d_d) - rank(d_{d+1}) with every
    rank taken mod P, degree by degree on the window."""
    lo, hi = cx.window
    rk = {d: rank_mod_p(cx.diffs.get(d, {}), _dim(cx, d - 1), _dim(cx, d)) for d in range(lo, hi + 2)}
    problems = []
    for d in range(lo, hi + 1):
        want = _dim(cx, d) - rk[d] - rk[d + 1]
        got = table.ranks.get(d)
        if got != want:
            problems.append(f"betti degree {d}: program {got}, mod-p elimination {want}")
    extra = set(table.ranks) - set(range(lo, hi + 1))
    if extra:
        problems.append(f"betti ranks outside the window: {sorted(extra)}")
    return problems


def d_squared_mod_p(cx) -> list[tuple[int, int, int]]:
    """Nonzero entries of d_{d-1} d_d mod P over the degrees the program's
    own report covers."""
    lo, hi = cx.window
    bad = []
    for d in range(lo + 1, hi + 2):
        upper, lower = cx.diffs.get(d, {}), cx.diffs.get(d - 1, {})
        if not upper or not lower:
            continue
        lower_cols: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for (r, c), v in lower.items():
            lower_cols[c].append((r, _mod(v)))
        acc: dict[tuple[int, int], int] = defaultdict(int)
        for (mid, c), v in upper.items():
            x = _mod(v)
            for r, y in lower_cols.get(mid, ()):
                acc[(r, c)] = (acc[(r, c)] + x * y) % P
        bad.extend((d, r, c) for (r, c), v in acc.items() if v)
    return bad


def check_exact_d_squared(cx, report) -> list[str]:
    """An EXACT complex has an empty d^2 report, and the product of its
    boundary matrices vanishes mod P."""
    if cx.verdict != "EXACT":
        return []
    problems = []
    if report:
        problems.append(f"EXACT complex has a nonempty d^2 report ({len(report)} entries)")
    bad = d_squared_mod_p(cx)
    if bad:
        problems.append(f"EXACT complex: d^2 != 0 mod p at {len(bad)} entries, first {bad[0]}")
    return problems


# ---- the guard rule ------------------------------------------------------------


def guard_rule(gradings, window, max_len, mark_allowance=0) -> str:
    gradings = list(gradings)
    if not gradings:
        return "EXACT"
    if min(gradings) >= 1 and max_len >= window[1] + mark_allowance:
        return "EXACT"
    return "TRUNCATED"


def check_verdict(cx, gradings, window, max_len, mark_allowance=0) -> list[str]:
    want = guard_rule(gradings, window, max_len, mark_allowance)
    if cx.verdict != want:
        return [f"verdict {cx.verdict}, guard rule gives {want}"]
    return []


# ---- transfer-matrix basis counts -------------------------------------------------


def path_counts(gens, max_len: int) -> dict[tuple[int, int, int], int]:
    """Number of composable words of length 1..max_len, keyed by (dst of
    the first letter, src of the last letter, degree).  gens is a list of
    (grading, src, dst); adjacent letters compose when the src of a
    letter equals the dst of the next one."""
    out: dict[tuple[int, int, int], int] = defaultdict(int)
    ports = {p for _, s, t in gens for p in (s, t)}
    for start in ports:
        state: dict[tuple[int, int], int] = defaultdict(int)
        for g, s, t in gens:
            if t == start:
                state[(s, g)] += 1
        for length in range(1, max_len + 1):
            for (port, deg), n in state.items():
                out[(start, port, deg)] += n
            if length == max_len:
                break
            nxt: dict[tuple[int, int], int] = defaultdict(int)
            for (port, deg), n in state.items():
                for g, s, t in gens:
                    if t == port:
                        nxt[(s, deg + g)] += n
            state = nxt
    return out


def cyclic_word_counts(gens, max_len: int) -> dict[int, int]:
    """Cyclically composable words (last src = first dst) by degree."""
    out: dict[int, int] = defaultdict(int)
    for (a, b, deg), n in path_counts(gens, max_len).items():
        if a == b:
            out[deg] += n
    return out


def decorated_sizes(gens, k: int, window, max_len: int, with_tau: bool) -> dict[int, int]:
    """Check/hat basis sizes: a check copy of every cyclic word in its
    degree, a hat copy one degree up, and one class per component in
    degree 0 when with_tau; degrees lo-1..hi+1."""
    lo, hi = window
    words = cyclic_word_counts(gens, max_len)
    sizes = {}
    for d in range(lo - 1, hi + 2):
        sizes[d] = words.get(d, 0) + words.get(d - 1, 0) + (k if with_tau and d == 0 else 0)
    return sizes


def marked_sizes(gens, k: int, window, max_len: int) -> dict[int, int]:
    """Marked cyclic words: a component mark x_i followed by a word from
    component i back to it (or nothing), or a hat chord c followed by a
    word closing c's ports (or nothing when c is pure)."""
    lo, hi = window
    paths = path_counts(gens, max_len)
    sizes: dict[int, int] = defaultdict(int)
    for i in range(1, k + 1):
        sizes[0] += 1
    for (a, b, deg), n in paths.items():
        if a == b:
            sizes[deg] += n
    for g, s, t in gens:
        shift = g + 1
        if s == t:
            sizes[shift] += 1
        for (a, b, deg), n in paths.items():
            if a == s and b == t:
                sizes[shift + deg] += n
    return {d: sizes.get(d, 0) for d in range(lo - 1, hi + 2)}


def ball_orbit_sizes(n: int, window, decorated: bool, with_morse: bool) -> dict[int, int]:
    """Orbit-side basis of the built-in ball filling: orbits g^k of
    grading n-1+2k (k >= 1) listed up to degree hi+2, with check and hat
    copies when decorated, plus the Morse minimum in degree n."""
    lo, hi = window
    sizes: dict[int, int] = defaultdict(int)
    k = 1
    while n - 1 + 2 * k <= hi + 2:
        g = n - 1 + 2 * k
        if decorated:
            sizes[g] += 1
            sizes[g + 1] += 1
        else:
            sizes[g] += 1
        k += 1
    if with_morse:
        sizes[n] += 1
    return {d: sizes.get(d, 0) for d in range(lo - 1, hi + 2)}


def check_sizes(cx, want: dict[int, int], kinds=None) -> list[str]:
    """Per-degree basis sizes, counting only labels whose kind (first
    entry) is in kinds when given."""
    problems = []
    for d in sorted(set(want) | set(cx.basis)):
        labels = cx.basis.get(d, [])
        got = len(labels) if kinds is None else sum(1 for lab in labels if lab[0] in kinds)
        if got != want.get(d, 0):
            problems.append(f"basis degree {d}: {got} labels, count gives {want.get(d, 0)}")
    return problems


# ---- the unknot closed forms --------------------------------------------------------


def unknot_labels(n: int, builder: str, window, max_len: int) -> dict[int, set]:
    """Labels of the one-chord algebra (grading n-1, zero differential):
    a^k survives the cyclic quotient unless n is even and k is even;
    check/hat copies of every a^k; the marked words x.a^k and a^.a^j;
    surgery complexes add the ball orbits (and the Morse minimum and tau
    for sh)."""
    lo, hi = window
    g = n - 1
    labels: dict[int, set] = defaultdict(set)

    def put(d, lab):
        if lo - 1 <= d <= hi + 1:
            labels[d].add(lab)

    for k in range(1, max_len + 1):
        a = ("a",) * k
        if builder in ("cyc", "ch") and (n % 2 == 1 or k % 2 == 1):
            put(k * g, ("cyc", a))
        if builder in ("hoplus", "ho", "sh+", "sh"):
            put(k * g, ("chk", a))
            put(k * g + 1, ("hat", a))
    if builder in ("ho", "sh"):
        put(0, ("tau", 1))
    if builder == "mcyc":
        for k in range(0, max_len + 1):
            put(k * g, ("mx", 1, ("a",) * k))
            put(g + 1 + k * g, ("mc", "a", ("a",) * k))
    if builder in ("ch", "sh+", "sh"):
        k = 1
        while n - 1 + 2 * k <= hi + 2:
            o = n - 1 + 2 * k
            if builder == "ch":
                put(o, ("orb", f"g{k}"))
            else:
                put(o, ("ochk", f"g{k}"))
                put(o + 1, ("ohat", f"g{k}"))
            k += 1
    if builder == "sh":
        put(n, ("mrs", "min"))
    return labels


def unknot_arrows(n: int, builder: str, cx) -> dict[tuple, Fraction]:
    """Nonzero differential entries of the unknot complexes: hat a^k hits
    check a^k with coefficient 2 exactly when n and k are even, and
    likewise the marked word a^.a^j hits x.a^(j+1) when j+1 is; for the
    surgery complexes the ball adds g^(k+1) check -> g^k hat and
    g^1 check -> the Morse minimum."""
    out: dict[tuple, Fraction] = {}
    if builder in ("hoplus", "ho", "sh+", "sh") and n % 2 == 0:
        for labs in cx.basis.values():
            for lab in labs:
                if lab[0] == "hat" and len(lab[1]) % 2 == 0:
                    out[(lab, ("chk", lab[1]))] = Fraction(2)
    if builder == "mcyc" and n % 2 == 0:
        for labs in cx.basis.values():
            for lab in labs:
                if lab[0] == "mc" and len(lab[2]) % 2 == 1:
                    out[(lab, ("mx", 1, ("a",) * (len(lab[2]) + 1)))] = Fraction(2)
    if builder in ("sh+", "sh"):
        for labs in cx.basis.values():
            for lab in labs:
                if lab[0] == "ochk" and lab[1] != "g1":
                    out[(lab, ("ohat", f"g{int(lab[1][1:]) - 1}"))] = Fraction(1)
        if builder == "sh":
            out[(("ochk", "g1"), ("mrs", "min"))] = Fraction(1)
    return out


def check_unknot(cx, n: int, builder: str, window, max_len: int) -> list[str]:
    problems = []
    want = unknot_labels(n, builder, window, max_len)
    for d in sorted(set(want) | set(cx.basis)):
        got = set(cx.basis.get(d, []))
        if got != want.get(d, set()):
            problems.append(f"unknot n={n} {builder} degree {d}: labels differ from the closed form")
    arrows = {}
    for d, mat in cx.diffs.items():
        cols, rows = cx.basis.get(d, []), cx.basis.get(d - 1, [])
        for (r, c), v in mat.items():
            if v:
                arrows[(cols[c], rows[r])] = v
    stored = {
        key: v for key, v in unknot_arrows(n, builder, cx).items() if _arrow_stored(cx, *key)
    }
    if arrows != stored:
        problems.append(f"unknot n={n} {builder}: differential differs from the closed form")
    return problems


def _arrow_stored(cx, src, dst) -> bool:
    lo, hi = cx.window
    for d, labs in cx.basis.items():
        if src in labs:
            return lo <= d <= hi + 1 and dst in cx.basis.get(d - 1, [])
    return False


# ---- relations between Betti tables ---------------------------------------------------


def interior(window):
    return range(window[0] + 1, window[1])


def check_shifted_betti(base: dict, got: dict, extra: dict, window, what: str) -> list[str]:
    bad = [
        d for d in interior(window) if got.get(d, 0) != base.get(d, 0) + extra.get(d, 0)
    ]
    return [f"{what} fails at degrees {bad}"] if bad else []


def ball_orbit_degrees(n: int, window) -> dict[int, int]:
    """One class per orbit degree n-1+2k of the ball (zero counts)."""
    out: dict[int, int] = defaultdict(int)
    k = 1
    while n - 1 + 2 * k <= window[1] + 2:
        out[n - 1 + 2 * k] += 1
        k += 1
    return out


# ---- DGA-level checks -----------------------------------------------------------------


def plain_dga(dga) -> tuple[list, dict]:
    """(generators as (name, grading, src, dst), {name: {word key: coeff}})
    with a word key of (letters, component)."""
    gens = [(g.name, g.grading, g.src, g.dst) for g in dga.generators]
    diff = {}
    for name, el in dga.differential.items():
        terms = {(w.letters, w.comp): Fraction(c) for w, c in el.terms.items() if c}
        if terms:
            diff[name] = terms
    return gens, diff


def dga_d_squared(gens, diff) -> list[str]:
    """d(d(c)) for every generator with the graded Leibniz rule, written
    out here on plain tuples: units inside a word are absorbed, and
    d(c1...cm) = sum_j (-1)^|c1...c(j-1)| c1...d(cj)...cm."""
    grading = {name: g for name, g, _, _ in gens}
    problems = []
    for name, _, _, _ in gens:
        out: dict[tuple, Fraction] = defaultdict(Fraction)
        for (letters, comp), coeff in diff.get(name, {}).items():
            prefix_deg = 0
            for j, letter in enumerate(letters):
                sign = -1 if prefix_deg % 2 else 1
                for (inner, icomp), c2 in diff.get(letter, {}).items():
                    word = letters[:j] + inner + letters[j + 1:]
                    key = (word, 0) if word else ((), icomp)
                    out[key] += sign * coeff * c2
                prefix_deg += grading[letter]
        if any(out.values()):
            problems.append(f"d^2({name}) != 0")
    return problems


def check_dga_terms(gens, diff) -> list[str]:
    """Every term of d(c) has grading |c|-1 and the ports of c."""
    info = {name: (g, s, t) for name, g, s, t in gens}
    problems = []
    for name, terms in diff.items():
        g, s, t = info[name]
        for letters, comp in terms:
            if letters:
                deg = sum(info[x][0] for x in letters)
                src, dst = info[letters[-1]][1], info[letters[0]][2]
            else:
                deg, src, dst = 0, comp, comp
            if deg != g - 1 or (src, dst) != (s, t):
                problems.append(f"d({name}) has an inhomogeneous term {letters or comp}")
    return problems


def check_validation(dga, report) -> list[str]:
    gens, diff = plain_dga(dga)
    expected_ok = not dga_d_squared(gens, diff) and not check_dga_terms(gens, diff)
    if report.ok != expected_ok:
        return [f"validation says ok={report.ok}, recomputation says ok={expected_ok}"]
    return []


def check_same_dga(a, b) -> list[str]:
    if plain_dga(a) != plain_dga(b):
        return ["dual and direct DGAs differ"]
    return []


# ---- the Lefschetz pipeline --------------------------------------------------------------


def dual_gradings(k: int, n: int, points, t_order: int) -> list[int]:
    """Chord gradings of the dual tensor algebra: e_i^(p) at -1+2p and
    m_i^(p) at n-2+2p for p >= 1; for a point of grading g, f^(p) at
    g+2p (p >= 0) and b^(p) at n-3-g+2p (p >= 1); p up to the t-order."""
    out = []
    for _ in range(k):
        out += [-1 + 2 * p for p in range(1, t_order + 1)]
        out += [n - 2 + 2 * p for p in range(1, t_order + 1)]
    for _, g, _, _ in points:
        out += [g + 2 * p for p in range(0, t_order + 1)]
        out += [n - 3 - g + 2 * p for p in range(1, t_order + 1)]
    return out


def check_transposed_ranks(cc, ho) -> list[str]:
    """The cyclic tensor complex is stored with negated degrees and its
    boundary is the transpose of ho's: matching dimensions and equal
    ranks mod P, degree by degree."""
    lo, hi = ho.window
    problems = []
    for d in range(lo - 1, hi + 2):
        if _dim(ho, d) != _dim(cc, -d):
            problems.append(f"degree {d}: ho has {_dim(ho, d)} labels, cc has {_dim(cc, -d)}")
    if problems:
        return problems
    for d in range(lo, hi + 2):
        r_ho = rank_mod_p(ho.diffs.get(d, {}), _dim(ho, d - 1), _dim(ho, d))
        r_cc = rank_mod_p(cc.diffs.get(-(d - 1), {}), _dim(cc, -d), _dim(cc, -(d - 1)))
        if r_ho != r_cc:
            problems.append(f"degree {d}: rank {r_ho} in ho, {r_cc} in the transposed partner")
    return problems
