"""Element-based boundary images: a test-side reference for the integer
images of complexes.py and lefschetz.py.

Every image here wraps its word in an Element, expands it with
extend_leibniz and sums Fraction coefficients label by label, keeping the
labels in the order of their first term.  The library images accumulate
integer numerators instead; built on the same bases, the two must give the
same matrices, entry for entry and in stored order.  build_complex hands
a kernel the labels of a degree and the row index of the degree below and
takes the degree's columns over one denominator, so a reference image is
handed to it through on_rows, which maps each label's sums through the
index and joins the columns as the library joins its per-label images
(homology._joined); Numbering is a row index that drops no label, for
calling a library kernel on labels of its own.

It also keeps the references that only the tests read: the parity-form
zero-class criterion, the cyclic basis by a rotation filter over every
cyclic word (the library reads the good necklaces straight off its
walk), the spread operator S as a dict of decorated words
(DecoratedWord), the marked module M itself with its marks (the
library builds only its cyclic quotient, mcyc, and reads its labels off
the cyclic words), the composable words listed by brute force, the
curved category's relation check over every composable symbol word (the
library checks only the words the table can reach, in integers), and the
direct vanishing-cycle DGA with its Morse--Bott terms as t-adic series of
Elements and its holomorphic terms expanded in Fractions (the library
multiplies integer series and expands integer numerators), and the two
DGA constructions by Element arithmetic: the linearized image over
d_gen's terms and the relative point-class construction through
extend_leibniz and a product by q (the library reads the compiled rows
and the Leibniz kernel), and the checks that read d_gen's Elements where
the library reads the rows: eps(d c) = 0 with the augmentation search
over it, and the generators whose differential is a component unit.
The chord algebra's product lives only here (mul_words, multiply, unit,
generator_element; the library has none), with validation and the
morphisms by Element arithmetic on top of it: the d^2 report's lines over
d_gen's terms and extend_leibniz, evaluate_morphism letter by letter, and
the chain-map check and the composite through it (the library sums all
three in integers over the compiled rows of the differential and of the
assignment).  Last, the two whole-complex checks as the library ran them before they
stopped building a container per entry: the d^2 products column by
column, with the report and betti's message read off them (the library
goes a degree at a time), and the dictionary's entry comparison by two
dicts keyed by position (the library compares in place).
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from operator import countOf

from chordhom import complexes
from chordhom.algebra import BaseRing, ChordAlgebra, Element, Generator, Word
from chordhom.complexes import cyclic_class
from chordhom.dga import (
    Augmentation,
    DGAMorphism,
    DGASpec,
    RelQError,
    RelQResult,
    _bname,
    _yname,
    extend_leibniz,
)
from chordhom.homology import (
    GradedChainComplex,
    _cyclic_words,
    _FractionPool,
    _joined,
    _Numerators,
    _numerators,
    build_complex,
    enumerate_cyclic_words,
)
from chordhom.lefschetz import (
    CurvedAinf,
    DirectedAinfSpec,
    Symbol,
    _chord_generators,
    _chord_name,
    _symbol_table,
    _word_composable,
)

_ONE = Fraction(1)

CHECK = "check"
HAT = "hat"


@dataclass(frozen=True)
class DecoratedWord:
    """Cyclic word with one marked letter, mark stored at position 0."""

    word: tuple[str, ...]
    decoration: str  # CHECK or HAT

    def __str__(self) -> str:
        mark = "v" if self.decoration == CHECK else "^"
        head = f"{self.word[0]}{mark}"
        return ".".join((head,) + self.word[1:])


def on_rows(image):
    """A label-keyed image as the kernel build_complex takes: each label's
    sums mapped through the row index in their order, the labels the index
    lacks and the zero sums left out, and the columns joined over the lcm
    of their denominators."""

    def columns(labels, rows):
        by_row = [{rows[k]: v for k, v in image(label).items() if k in rows} for label in labels]
        return _joined([_numerators(terms) for terms in by_row])

    return columns


class Numbering(dict):
    """A row index that numbers every label on its first lookup, so an
    image called with it leaves out no target."""

    def get(self, label, default=None):
        row = super().get(label)
        if row is None:
            row = self[label] = len(self)
        return row

    def labelled(self, column: dict) -> list:
        """column's entries as (label, value), in its order."""
        labels = list(self)
        return [(labels[r], v) for r, v in column.items()]


class _Sum(dict):
    """Coefficient sums; labels keep the order of their first term, and a
    label whose sum reaches zero keeps its place."""

    def add(self, label, coeff: Fraction) -> None:
        prev = self.get(label)
        self[label] = coeff if prev is None else prev + coeff


def _d(dga: DGASpec, letters: tuple[str, ...]) -> Element:
    return extend_leibniz(dga, Element.monomial(Word.of(letters)))


def canonicalize_hat(alg: ChordAlgebra, letters, mark: int):
    """Rotate a hat mark to the front.  Moving the prefix past the marked
    suffix contributes the Koszul sign with the decorated degree of the
    suffix (the marked letter counts |c| plus one for the hat)."""
    prefix, suffix = letters[:mark], letters[mark:]
    gp = sum(alg.gen(n).grading for n in prefix)
    gs = sum(alg.gen(n).grading for n in suffix) + 1
    return suffix + prefix, -1 if gp * gs % 2 else 1


def _s_terms(alg: ChordAlgebra, letters, tail=()):
    odd = 0
    for j, name in enumerate(letters):
        word, rot = canonicalize_hat(alg, letters + tail, j)
        yield word, -rot if odd else rot
        odd ^= alg.gen(name).grading % 2


def is_bad_by_parity(algebra: ChordAlgebra, word: Word) -> bool:
    """The parity-form criterion: some rotation is an even power of an
    odd-graded monomial.  Equivalent to CyclicWord.is_zero; kept separate
    as a cross-check."""
    for rotated, _ in algebra.rotations(word):
        letters = rotated.letters
        length = len(letters)
        for k in range(2, length + 1, 2):
            if length % k:
                continue
            period = length // k
            if letters == letters[:period] * k:
                base = Word.of(letters[:period])
                if algebra.grading(base) % 2:
                    return True
    return False


def cyclic_bases_reference(
    alg: ChordAlgebra, window: tuple[int, int], max_len: int
) -> dict[int, list]:
    """One label per good cyclic class by filtering every cyclic word: the
    words that no rotation sorts before (a filter that stops at the first
    smaller rotation) and whose class is not zero by complexes._cyclic_rep,
    in letter order."""
    lo, hi = window
    parity = alg.parity
    bases: dict[int, list] = {}
    for deg, words in _cyclic_words(alg.generators, max_len, (lo - 1, hi + 1)).items():
        labs = [
            ("cyc", w)
            for w in words
            if not any(w[i:] + w[:i] < w for i in range(1, len(w)))
            and complexes._cyclic_rep(parity, w)[1]
        ]
        if labs:
            labs.sort()
            bases[deg] = labs
    return bases


def s_operator(algebra: ChordAlgebra, word: Word) -> dict[DecoratedWord, Fraction]:
    """S(c_1...c_l) = sum_j (-1)^(|c_1...c_{j-1}|) c_1...hat(c_j)...c_l,
    normalized to mark-first form, from the library's complexes._s_terms.
    S of an idempotent is zero."""
    out: dict[DecoratedWord, Fraction] = defaultdict(Fraction)
    for letters, sign in complexes._s_terms(algebra, word.letters):
        out[DecoratedWord(letters, HAT)] += sign
    return {k: v for k, v in out.items() if v}


def cyclic_image(dga: DGASpec, label) -> dict:
    alg = dga.algebra
    out = _Sum()
    for term, coeff in _d(dga, label[1]).terms.items():
        if term.is_idem:
            continue
        cls = cyclic_class(alg, term)
        if not cls.is_zero:
            out.add(("cyc", cls.representative), coeff if cls.sign > 0 else -coeff)
    return out


def _rot1(letters):
    return (letters[-1],) + letters[:-1]


def hat_image(dga: DGASpec, letters) -> dict:
    alg = dga.algebra
    out = _Sum()
    parity = alg.parity
    head, tail = letters[0], letters[1:]
    head_odd = parity[head]
    out.add(("chk", _rot1((head,) + tail)), _ONE)
    odd = head_odd and sum(parity[x] for x in tail) & 1
    out.add(("chk", _rot1(tail + (head,))), _ONE if odd else -_ONE)
    for term, coeff in dga.d_gen(head).terms.items():
        if term.is_idem:
            continue
        for word, sign in _s_terms(alg, term.letters, tail):
            out.add(("hat", word), -coeff if sign > 0 else coeff)
    if tail:
        head_src = alg.gen(head).src
        for term, coeff in _d(dga, tail).terms.items():
            if alg.dst(term) != head_src:
                continue
            out.add(("hat", (head,) + term.letters), coeff if head_odd else -coeff)
    return out


def decorated_image(dga: DGASpec, label) -> dict:
    kind = label[0]
    if kind == "hat":
        return hat_image(dga, label[1])
    if kind == "tau":
        return {}
    letters = label[1]
    out = _Sum()
    for term, coeff in _d(dga, letters[1:] + (letters[0],)).terms.items():
        if not term.is_idem:
            out.add(("chk", _rot1(term.letters)), coeff)
        else:
            out.add(("tau", term.comp), coeff)
    return out


def mark_terms(dga: DGASpec, cname: str) -> list[tuple]:
    c = dga.algebra.gen(cname)
    parity = dga.algebra.parity
    terms = [((), ("mx", c.dst), (cname,), _ONE), ((cname,), ("mx", c.src), (), -_ONE)]
    for term, coeff in dga.d_gen(cname).terms.items():
        letters = term.letters
        odd = 0
        for j, name in enumerate(letters):
            terms.append(
                (letters[:j], ("mc", name), letters[j + 1:], coeff if odd else -coeff)
            )
            odd ^= parity[name]
    return terms


def _mcyc_reduce(
    alg: ChordAlgebra, prefix: tuple[str, ...], mark, suffix: tuple[str, ...]
) -> tuple[tuple, int]:
    """Reduce a marked cyclic word to mark-first form.  mark is ('mx', i) or
    ('mc', name); the moved prefix picks up the Koszul sign against the
    decorated degree of everything from the mark on, each degree summed
    over its letters."""
    parity = alg.parity
    gp = sum(parity[n] for n in prefix)
    gm = 0 if mark[0] == "mx" else parity[mark[1]] + 1
    gs = sum(parity[n] for n in suffix)
    sign = -1 if gp & (gm + gs) & 1 else 1
    return (mark, suffix + prefix), sign


def mcyc_image(dga: DGASpec, label) -> dict:
    alg = dga.algebra
    out = _Sum()
    kind, name, word = label
    odd = False
    if kind == "mc":
        for before, mark, after, coeff in mark_terms(dga, name):
            if before:
                (mark, rest), rot = _mcyc_reduce(alg, before, mark, after + word)
                out.add(mark + (rest,), coeff if rot > 0 else -coeff)
            else:
                out.add(mark + (after + word,), coeff)
        odd = not alg.parity[name]
    if word:
        for term, coeff in _d(dga, word).terms.items():
            out.add((kind, name, term.letters), -coeff if odd else coeff)
    return out


def composable_words(alphabet, letters, max_len: int) -> list[tuple]:
    """Every nonempty word of length at most max_len over the alphabet whose
    neighbours compose (src of a letter == dst of the next, read off
    letters[a].src and .dst): shortest first, then in lexicographic order
    of the alphabet positions.  Each length is the product of the words
    one shorter with the alphabet, filtered by composability."""
    words: list[tuple] = []
    layer: list[tuple] = [()]
    for _ in range(max_len):
        layer = [
            w + (a,)
            for w, a in itertools.product(layer, alphabet)
            if not w or letters[w[-1]].src == letters[a].dst
        ]
        words += layer
    return words


def marks(dga: DGASpec) -> list[tuple]:
    """The marks with their ports and degree shift, as (mark, src, dst,
    shift): a component class ('mx', i) of degree 0 and a hat chord
    ('mc', name) of degree |c| + 1."""
    return [(("mx", i), i, i, 0) for i in dga.ring.components] + [
        (("mc", g.name), g.src, g.dst, g.grading + 1) for g in dga.generators
    ]


def module_M_bases(dga: DGASpec, window: tuple[int, int], max_len: int) -> dict[int, list]:
    """Every composable left word paired with every right word, filtered
    afterwards by ports, total length and degree."""
    alg = dga.algebra
    lo, hi = window
    words = [()] + composable_words(sorted(alg.generators), alg.generators, max_len)
    bases: dict[int, list] = {}
    for mark, msrc, mdst, mdeg in marks(dga):
        for left in words:
            if left and alg.gen(left[-1]).src != mdst:
                continue
            ldeg = sum(alg.gen(n).grading for n in left)
            for right in words:
                if len(left) + len(right) > max_len:
                    continue
                if right and alg.gen(right[0]).dst != msrc:
                    continue
                deg = ldeg + mdeg + sum(alg.gen(n).grading for n in right)
                if lo - 1 <= deg <= hi + 1:
                    bases.setdefault(deg, []).append(("M", left, mark, right))
    for labs in bases.values():
        labs.sort()
    return bases


def module_M_image(dga: DGASpec, label) -> dict:
    parity = dga.algebra.parity
    _, left, mark, right = label
    out = _Sum()
    if left:
        for term, coeff in _d(dga, left).terms.items():
            out.add(("M", term.letters, mark, right), coeff)
    odd = sum(parity[n] for n in left) & 1
    if mark[0] == "mc":
        for before, mk, after, coeff in mark_terms(dga, mark[1]):
            out.add(("M", left + before, mk, after + right), -coeff if odd else coeff)
        odd ^= not parity[mark[1]]
    if right:
        for term, coeff in _d(dga, right).terms.items():
            out.add(("M", left, mark, term.letters), -coeff if odd else coeff)
    return out


def module_M_reference(dga: DGASpec, window: tuple[int, int], max_len: int):
    """The marked module: labels (left word, mark, right word), no rotations
    applied, with d(left m right) = d(left) m right + (-1)^|left| left d(m)
    right + (-1)^(|left|+|m|) left m d(right).  max_len bounds the length
    of left and right together."""
    return build_complex(
        module_M_bases(dga, window, max_len),
        on_rows(lambda label: module_M_image(dga, label)),
        window, "reference",
    )


def hochschild_reference(D: CurvedAinf, window: tuple[int, int], max_len: int):
    """The cyclic tensor complex with Fraction coefficients, summed over
    every prefix grading as written."""
    lo, hi = window
    stored, image = hochschild_reference_image(D, window, max_len)
    return build_complex(stored, on_rows(image), (-hi, -lo), "reference")


def chords(symbols, N: int) -> list[tuple[Symbol, int]]:
    """Every chord (symbol, t-power p) with p_min <= p <= N."""
    return [(sym, p) for sym, info in symbols.items() for p in range(info.p_min, N + 1)]


def hochschild_reference_image(D: CurvedAinf, window: tuple[int, int], max_len: int):
    """The bases of the cyclic tensor complex, stored with degrees negated,
    and its label-keyed image with Fraction coefficients."""
    symbols, table, N = D.symbols, D.table, D.order
    gens = _chord_generators(symbols, N)
    alg = ChordAlgebra(BaseRing(D.spec.k), gens)
    name_to_chord = {_chord_name(*sp): sp for sp in chords(symbols, N)}
    lo, hi = window

    def sigma_sum(letters) -> int:
        return sum(alg.gen(x).grading for x in letters)

    bases: dict[int, list] = {}
    if lo - 1 <= 0 <= hi + 1:
        for i in range(1, D.spec.k + 1):
            bases.setdefault(0, []).append(("tau", i))
    for w in enumerate_cyclic_words(alg, (lo - 2, hi + 1), max_len):
        deg = alg.grading(w)
        if lo - 1 <= deg <= hi + 1:
            bases.setdefault(deg, []).append(("chk", w.letters))
        if lo - 1 <= deg + 1 <= hi + 1:
            bases.setdefault(deg + 1, []).append(("hat", w.letters))

    def sort_key(label):
        # ho's order: component classes, then check words and then hat
        # words, each shortest first
        kind, x = label
        if kind == "tau":
            return (0, x, ())
        return (1 if kind == "chk" else 2, len(x), x)

    stored: dict[int, list] = {}
    for deg, labs in bases.items():
        labs.sort(key=sort_key)
        stored[-deg] = labs

    def blocks_of(block):
        hits = table.get(tuple(name_to_chord[x][0] for x in block))
        if not hits:
            return
        total = sum(name_to_chord[x][1] for x in block)
        if total > N:
            return
        for out, coeff in hits.items():
            if symbols[out].p_min <= total:
                yield _chord_name(out, total), coeff

    def image(label) -> dict:
        out: dict = defaultdict(Fraction)
        kind = label[0]
        if kind == "tau":
            i = label[1]
            out[("chk", (_chord_name(("e", i), 1),))] += 1
            return out
        if kind == "chk":
            letters = label[1]
            slot_word = letters[1:] + (letters[0],)
            s = len(slot_word)

            def emit(new_word, coeff):
                out[("chk", (new_word[-1],) + new_word[:-1])] += coeff

            for t in range(s):
                psign = -1 if sigma_sum(slot_word[:t]) % 2 else 1
                for m in range(1, s - t + 1):
                    for out_name, coeff in blocks_of(slot_word[t : t + m]):
                        emit(slot_word[:t] + (out_name,) + slot_word[t + m :], psign * coeff)
            for slot in range(s + 1):
                comp = alg.gen(slot_word[slot - 1]).src if slot else alg.gen(slot_word[0]).dst
                psign = -1 if sigma_sum(slot_word[:slot]) % 2 else 1
                emit(slot_word[:slot] + (_chord_name(("e", comp), 1),) + slot_word[slot:], psign)
            out[("hat", slot_word)] += 1
            rsign = -1 if (sigma_sum(letters[:1]) * sigma_sum(letters[1:])) % 2 else 1
            out[("hat", letters)] -= rsign
            return out
        letters = label[1]
        s = len(letters)
        hat_sign = sigma_sum(letters[:1]) + 1
        for j in range(1, s):
            psign = -1 if (hat_sign + sigma_sum(letters[1:j])) % 2 else 1
            for m in range(1, s - j + 1):
                for out_name, coeff in blocks_of(letters[j : j + m]):
                    out[("hat", letters[:j] + (out_name,) + letters[j + m :])] += psign * coeff
        for t in range(0, s):
            enm = _chord_name(("e", alg.gen(letters[t]).src), 1)
            psign = -1 if (hat_sign + sigma_sum(letters[1 : t + 1])) % 2 else 1
            out[("hat", letters[: t + 1] + (enm,) + letters[t + 1 :])] += psign
        for h in range(1, s + 1):
            for t in range(0, s - h + 1):
                middle = letters[h : s - t]
                tail = letters[s - t :] if t else ()
                for out_name, coeff in blocks_of(tail + letters[:h]):
                    sign_exp = sigma_sum(tail) * (sigma_sum(letters[:h]) + sigma_sum(middle))
                    sgn = -1 if sign_exp % 2 else 1
                    out[("hat", (out_name,) + middle)] -= sgn * coeff
        return out

    return stored, image


# ---- the curved category's relations ---------------------------------------------


def check_curved_ainf_reference(D: CurvedAinf) -> list[str]:
    """check_curved_ainf over every composable symbol word of length at
    most 2 * max_arity - 1, summing Fractions: the same problems, in the
    same order."""
    problems: list[str] = []
    table = D.table
    symbols = D.symbols

    for word, hits in table.items():
        if not _word_composable(symbols, word):
            problems.append(f"entry {word} is not port-composable")
            continue
        base_sum = sum(symbols[s].base for s in word)
        for out, coeff in hits.items():
            if not coeff:
                continue
            info = symbols[out]
            if info.base != base_sum + 1:
                problems.append(
                    f"entry {word} -> {out} violates grading: {base_sum}+1 != {info.base}"
                )
            if info.dst != symbols[word[0]].dst or info.src != symbols[word[-1]].src:
                problems.append(f"entry {word} -> {out} violates ports")
        if len(word) >= 3 and any(s[0] == "e" for s in word):
            problems.append(f"strict unitality broken by {word}")
    if problems:
        return problems

    # curvature/unit identity on single letters
    for sym, info in symbols.items():
        acc: dict[Symbol, Fraction] = defaultdict(Fraction)
        left = table.get((("e", info.dst), sym), {})
        right = table.get((sym, ("e", info.src)), {})
        sgn = -1 if info.base % 2 else 1
        for c, v in left.items():
            acc[c] += v
        for c, v in right.items():
            acc[c] += sgn * v
        for c, v in acc.items():
            if v:
                problems.append(f"unit identity fails on {sym}: {c} has {v}")

    max_arity = max((len(w) for w in table), default=1)
    syms = sorted(symbols, key=repr)

    # the single-symbol output of the squared coderivation on each word
    for word in composable_words(syms, symbols, 2 * max_arity - 1):
        length = len(word)
        acc = defaultdict(Fraction)
        for i in range(length):
            prefix_deg = sum(symbols[s].base for s in word[:i])
            psign = -1 if prefix_deg % 2 else 1
            for j in range(1, max_arity + 1):
                if i + j > length:
                    break
                hits = table.get(word[i : i + j])
                if not hits:
                    continue
                for mid, coeff in hits.items():
                    outer = word[:i] + (mid,) + word[i + j :]
                    for out, c2 in table.get(outer, {}).items():
                        acc[out] += psign * coeff * c2
        for out, v in acc.items():
            if v:
                problems.append(
                    f"square-zero identity fails on {word}: output {out} has {v}"
                )
                break
    return problems


# ---- the direct vanishing-cycle construction -------------------------------------


@dataclass
class TruncatedSeries:
    """t-adic series with Element coefficients, truncated above order."""

    order: int
    coeffs: dict[int, Element] = field(default_factory=dict)

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("truncation order must be nonnegative")
        clean = {}
        for p, el in self.coeffs.items():
            if p < 0:
                raise ValueError("negative t-power")
            if p <= self.order and not el.is_zero():
                clean[p] = el
        self.coeffs = clean

    def coeff(self, p: int) -> Element:
        return self.coeffs.get(p, Element.zero())

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.order != other.order:
            raise ValueError("mismatched truncation orders")
        out = dict(self.coeffs)
        for p, el in other.coeffs.items():
            out[p] = out.get(p, Element.zero()) + el
        return TruncatedSeries(self.order, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )


def series_multiply(
    algebra: ChordAlgebra, s1: TruncatedSeries, s2: TruncatedSeries
) -> TruncatedSeries:
    """Cauchy product of truncated series; powers above the order are dropped."""
    if s1.order != s2.order:
        raise ValueError("mismatched truncation orders")
    out: dict[int, Element] = {}
    for p, a in s1.coeffs.items():
        for q, b in s2.coeffs.items():
            if p + q > s1.order:
                continue
            prod = multiply(algebra, a, b)
            if prod.is_zero():
                continue
            out[p + q] = out.get(p + q, Element.zero()) + prod
    return TruncatedSeries(s1.order, out)


def expand_reference(
    table: dict[tuple[Symbol, ...], dict[Symbol, Fraction]],
    symbols: dict,
    N: int,
    into: dict[str, dict[Word, Fraction]],
) -> None:
    """Add an operation table to the differentials into[chord name][word]
    over every t-power distribution, in Fractions."""
    for word, hits in table.items():
        for powers in itertools.product(*(range(symbols[s].p_min, N + 1) for s in word)):
            total = sum(powers)
            if total > N:
                continue
            target = Word.of(_chord_name(s, p) for s, p in zip(word, powers))
            for out, coeff in hits.items():
                if symbols[out].p_min <= total:
                    into[_chord_name(out, total)][target] += coeff


def lefschetz_dga_reference(
    basis: DirectedAinfSpec,
    h_counts: dict[tuple[Symbol, ...], dict[Symbol, Fraction]] | None,
    n: int,
    t_order: int,
) -> DGASpec:
    """lefschetz_dga with the Morse--Bott series as TruncatedSeries of
    Elements, multiplied by series_multiply."""
    spec = basis
    if spec.n != n:
        raise ValueError("dimension parameter disagrees with the basis data")
    symbols = _symbol_table(spec)
    N = t_order
    gens = _chord_generators(symbols, N)
    ring = BaseRing(spec.k)
    alg = ChordAlgebra(ring, gens)

    def series(sym: Symbol) -> TruncatedSeries:
        info = symbols[sym]
        return TruncatedSeries(
            N,
            {
                p: Element.monomial(Word.of([_chord_name(sym, p)]))
                for p in range(info.p_min, N + 1)
            },
        )

    def smul(*ss: TruncatedSeries) -> TruncatedSeries:
        acc = ss[0]
        for s in ss[1:]:
            acc = series_multiply(alg, acc, s)
        return acc

    def sscale(s: TruncatedSeries, c: int) -> TruncatedSeries:
        return TruncatedSeries(N, {p: el.scale(c) for p, el in s.coeffs.items()})

    diff_series: dict[Symbol, TruncatedSeries] = {
        sym: TruncatedSeries(N, {}) for sym in symbols
    }

    # d_MB
    for i in range(1, spec.k + 1):
        e, m = ("e", i), ("m", i)
        diff_series[e] = diff_series[e] + smul(series(e), series(e))
        msign = -1 if (n - 1) % 2 else 1
        diff_series[m] = (
            diff_series[m]
            + smul(series(e), series(m))
            + sscale(smul(series(m), series(e)), msign)
        )
        for nm, _g, pi, pj in spec.points:
            f, b = ("f", nm), ("b", nm)
            if pj == i:
                diff_series[m] = diff_series[m] + smul(series(f), series(b))
            if pi == i:
                diff_series[m] = diff_series[m] + smul(series(b), series(f))
    for nm, ga, i, j in spec.points:
        f, b = ("f", nm), ("b", nm)
        fsign = -1 if (ga - 1) % 2 else 1
        bsign = -1 if ((n - 2) - ga) % 2 else 1
        diff_series[f] = (
            diff_series[f]
            + smul(series(("e", j)), series(f))
            + sscale(smul(series(f), series(("e", i))), fsign)
        )
        diff_series[b] = (
            diff_series[b]
            + smul(series(("e", i)), series(b))
            + sscale(smul(series(b), series(("e", j))), bsign)
        )

    if n == 2:
        if spec.order is None:
            raise ValueError("n = 2 requires a global order on the intersection points")
        rank = {nm: r for r, nm in enumerate(spec.order)}

        def wing_series(point: str, comp: int) -> TruncatedSeries:
            _nm, _g, pi, pj = spec.point(point)
            if comp == pj:
                return smul(series(("f", point)), series(("b", point)))
            return smul(series(("b", point)), series(("f", point)))

        for i in range(1, spec.k + 1):
            m = ("m", i)
            for nm, _g, pi, pj in spec.points:
                if i not in (pi, pj):
                    continue
                diff_series[m] = diff_series[m] + smul(series(m), wing_series(nm, i))
        for nm, ga, i, j in spec.points:
            f, b = ("f", nm), ("b", nm)
            fsign = -1 if (ga - 1) % 2 else 1
            bsign = -1 if ga % 2 else 1
            for other, _g2, oi, oj in spec.points:
                if other == nm or rank[other] >= rank[nm]:
                    continue
                if i in (oi, oj):
                    diff_series[f] = diff_series[f] + sscale(
                        smul(series(f), wing_series(other, i)), fsign
                    )
                    diff_series[b] = diff_series[b] + sscale(
                        smul(wing_series(other, i), series(b)), -1
                    )
                if j in (oi, oj):
                    diff_series[f] = diff_series[f] + sscale(
                        smul(wing_series(other, j), series(f)), -1
                    )
                    diff_series[b] = diff_series[b] + sscale(
                        smul(series(b), wing_series(other, j)), bsign
                    )

    acc: dict[str, dict[Word, Fraction]] = {}
    for sym, info in symbols.items():
        s = diff_series[sym]
        for p in range(info.p_min, N + 1):
            acc[_chord_name(sym, p)] = defaultdict(Fraction, s.coeff(p).terms)

    # d_const
    if N >= 1:
        for i in range(1, spec.k + 1):
            acc[_chord_name(("e", i), 1)][Word.idem(i)] += 1

    # d_h
    if h_counts:
        expand_reference(h_counts, symbols, N, acc)

    return DGASpec(
        ring=ring,
        generators=gens,
        differential={g.name: Element(acc[g.name]) for g in gens},
        ambient_dim=n,
        meta={"kind": "lefschetz-dga", "t_order": N},
    )


# ---- the chord algebra product; validation and morphisms ---------------------------


def mul_words(alg: ChordAlgebra, a: Word, b: Word) -> Word | None:
    """Concatenation product of basis words; None means zero."""
    if a.is_idem and b.is_idem:
        return a if a.comp == b.comp else None
    if a.is_idem:
        return b if alg.dst(b) == a.comp else None
    if b.is_idem:
        return a if alg.src(a) == b.comp else None
    if alg.src(a) != alg.dst(b):
        return None
    return Word.of(a.letters + b.letters)


def multiply(alg: ChordAlgebra, x: Element, y: Element) -> Element:
    out: dict[Word, Fraction] = defaultdict(Fraction)
    for wa, ca in x.terms.items():
        for wb, cb in y.terms.items():
            w = mul_words(alg, wa, wb)
            if w is not None:
                out[w] += ca * cb
    return Element(out)


def unit(comp: int) -> Element:
    return Element.monomial(Word.idem(comp))


def generator_element(alg: ChordAlgebra, name: str) -> Element:
    alg.gen(name)
    return Element.monomial(Word.of([name]))


def d_squared_lines_reference(dga: DGASpec) -> list[str]:
    """check_d_squared(dga).lines() by Element arithmetic: gradings and
    ports of d_gen's terms, then d(d g) by extend_leibniz."""
    alg = dga.algebra
    grading, ports, d2 = [], [], []
    for g in dga.generators:
        dg = dga.d_gen(g.name)
        for w in dg.terms:
            deg = alg.grading(w)
            if deg != g.grading - 1:
                grading.append(f"d({g.name}): term {w} has grading {deg}, expected {g.grading - 1}")
            if alg.dst(w) != g.dst or alg.src(w) != g.src:
                ports.append(
                    f"d({g.name}): term {w} has ports ({alg.src(w)},{alg.dst(w)}), "
                    f"expected ({g.src},{g.dst})"
                )
        dd = extend_leibniz(dga, dg)
        if not dd.is_zero():
            d2.append(f"d^2({g.name}) = {dd!r} != 0")
    return grading + ports + d2


def evaluate_morphism(f: DGAMorphism, x: Element) -> Element:
    """f(x): each word's images multiplied letter by letter from the unit
    at its left port."""
    alg = f.target.algebra
    out = Element.zero()
    for word, coeff in x.terms.items():
        if word.is_idem:
            out = out + unit(word.comp).scale(coeff)
            continue
        acc = unit(f.source.algebra.dst(word))
        for name in word.letters:
            acc = multiply(alg, acc, f.value(name))
            if acc.is_zero():
                break
        out = out + acc.scale(coeff)
    return out


def check_morphism_reference(f: DGAMorphism) -> tuple[bool, str | None]:
    """check_morphism with f(dc) by evaluate_morphism and d(f(c)) by
    extend_leibniz."""
    alg = f.target.algebra
    for g in f.source.generators:
        img = f.value(g.name)
        for w in img.terms:
            if alg.grading(w) != g.grading:
                return False, f"{g.name}: image term {w} breaks the grading"
            if (alg.src(w), alg.dst(w)) != (g.src, g.dst):
                return False, f"{g.name}: image term {w} breaks the ports"
        if evaluate_morphism(f, f.source.d_gen(g.name)) != extend_leibniz(f.target, img):
            return False, g.name
    return True, None


def compose_reference(g: DGAMorphism, f: DGAMorphism) -> dict[str, Element]:
    """The assignment of g o f by evaluate_morphism."""
    return {name: evaluate_morphism(g, f.value(name)) for name in f.source.gen_names()}


# ---- the DGA constructions -------------------------------------------------------


def linearize_image(dga: DGASpec, eps: Augmentation):
    """The image of dga.linearize's complex, read off d_gen's Elements:
    for a word b_1...b_m of d(c), position j adds the product of eps over
    the other letters, times the word's coefficient, to b_j; the product
    stops at the first letter eps does not reach."""

    def image(label) -> dict:
        out: dict = defaultdict(Fraction)
        for w, coeff in dga.d_gen(label).terms.items():
            if w.is_idem:
                continue
            letters = w.letters
            vals = [eps.value(dga, n) for n in letters]
            for j, name in enumerate(letters):
                prod = coeff
                for i, v in enumerate(vals):
                    if i == j:
                        continue
                    if not v:
                        prod = Fraction(0)
                        break
                    prod *= v
                if prod:
                    out[name] += prod
        return out

    return on_rows(image)


def augmentation_value(dga: DGASpec, eps: Augmentation, x: Element) -> Fraction:
    """eps(x) as a scalar: an idempotent counts its coefficient, any other
    word the product of eps over its letters, which eps.value gates (so
    mixed-port words evaluate to zero componentwise)."""
    total = Fraction(0)
    for w, coeff in x.terms.items():
        if w.is_idem:
            total += coeff
            continue
        prod = coeff
        for name in w.letters:
            v = eps.value(dga, name)
            if not v:
                prod = Fraction(0)
                break
            prod *= v
        total += prod
    return total


def is_valid_augmentation_reference(dga: DGASpec, eps: Augmentation) -> bool:
    return all(augmentation_value(dga, eps, dga.d_gen(g.name)) == 0 for g in dga.generators)


def enumerate_augmentations_reference(dga: DGASpec, value_set) -> list[Augmentation]:
    """The brute-force search of enumerate_augmentations over the reference
    check, in itertools.product order of the distinct values."""
    values = list(dict.fromkeys(Fraction(v) for v in value_set))
    gens = [g.name for g in dga.grading0_pure_gens()]
    candidates = (
        Augmentation({n: v for n, v in zip(gens, combo) if v})
        for combo in itertools.product(values, repeat=len(gens))
    )
    return [eps for eps in candidates if is_valid_augmentation_reference(dga, eps)]


def dc_one_reference(dga: DGASpec) -> list[str]:
    """dc_one_generators by Element equality with the component unit."""
    return [
        g.name for g in dga.generators
        if g.src == g.dst and dga.d_gen(g.name) == Element.monomial(Word.idem(g.src))
    ]


def rel_q_reference(dga_q: DGASpec, q_name: str = "q", max_len: int = 3) -> RelQResult:
    """rel_q_construction by Element arithmetic: d(w) by extend_leibniz,
    multiplied by q in the chord algebra, each term split at its q letters
    into words, and B's differential renamed letter by letter into the
    target's."""
    alg = dga_q.algebra
    q = alg.gen(q_name)
    n = dga_q.ambient_dim
    if q.src != q.dst:
        raise ValueError("q must be a pure chord")
    if q.grading != n - 2:
        raise ValueError(
            f"point class must have grading n-2 = {n - 2}, got {q.grading}"
        )
    if not dga_q.d_gen(q_name).is_zero():
        raise RelQError("q must be closed")
    comp = q.src

    plain = {name: g for name, g in alg.generators.items() if name != q_name}
    words: list[tuple[str, ...]] = [()] + [
        w for group in _cyclic_words(plain, max_len).values() for w in group
        if dga_q._dst[w[0]] == comp
    ]

    def split_at_q(word: Word) -> tuple[tuple[str, ...], ...] | None:
        """Split a word ending in q into q-free blocks; None when it
        contains q^2 (killed by the relation)."""
        blocks: list[tuple[str, ...]] = []
        cur: list[str] = []
        for letter in word.letters:
            if letter == q_name:
                blocks.append(tuple(cur))
                cur = []
            else:
                cur.append(letter)
        if cur:
            raise RelQError(f"word {word} does not end with q")
        for b in blocks[1:]:
            if not b:
                return None
        return tuple(blocks)

    b_ring = BaseRing(1)
    word_set = set(words)
    b_gens = []
    b_diff: dict[str, Element] = {}
    for w in words:
        grading = (sum(alg.gen(x).grading for x in w) if w else 0) + q.grading
        b_gens.append(Generator(_bname(w), grading, src=1, dst=1))
    for w in words:
        if not w:
            b_diff[_bname(w)] = Element.zero()
            continue
        dw = extend_leibniz(dga_q, Element.monomial(Word.of(w)))
        image: dict[Word, Fraction] = defaultdict(Fraction)
        for term, coeff in multiply(alg, dw, generator_element(alg, q_name)).terms.items():
            blocks = split_at_q(term)
            if blocks is None:
                continue  # adjacent q pair, killed by the relation
            if not blocks[0]:
                if len(blocks) == 1:
                    raise RelQError(
                        f"d({'.'.join(w)}) has a unit term; q^2 = 0 descent fails"
                    )
                raise RelQError(
                    f"differential does not descend: term {term} starts with q"
                )
            for b in blocks:
                if b not in word_set:
                    raise RelQError(
                        f"differential leaves the length-{max_len} truncation at {term}"
                    )
            bword = Word.of(tuple(_bname(b) for b in blocks))
            image[bword] += coeff
        b_diff[_bname(w)] = Element(image)
    B = DGASpec(
        ring=b_ring,
        generators=b_gens,
        differential=b_diff,
        ambient_dim=n,
        meta={"relative_to": q_name, "max_len": max_len},
    )

    filler = "a[fill]"
    t_gens = [Generator(_yname(w), g.grading, 1, 1) for w, g in zip(words, b_gens)]
    t_gens.append(Generator(filler, n - 1, 1, 1))
    rename = {_bname(w): _yname(w) for w in words}

    def to_target(el: Element) -> Element:
        out: dict[Word, Fraction] = defaultdict(Fraction)
        for wd, c in el.terms.items():
            nw = wd if wd.is_idem else Word.of(tuple(rename[x] for x in wd.letters))
            out[nw] += c
        return Element(out)

    t_diff = {_yname(w): to_target(b_diff[_bname(w)]) for w in words}
    t_diff[filler] = Element.monomial(Word.of([_yname(())]))
    target = DGASpec(
        ring=b_ring,
        generators=t_gens,
        differential=t_diff,
        ambient_dim=n,
        meta={"relative_to": q_name, "filler": filler},
    )

    phi = DGAMorphism(
        source=B,
        target=target,
        assignment={
            _bname(w): Element.monomial(Word.of([_yname(w)])) for w in words
        },
    )
    ok, counter = check_morphism_reference(phi)
    if not ok:
        raise RelQError(f"relative construction failed the chain-map check at {counter}")
    return RelQResult(B=B, target=target, phi=phi)


# ---- the whole-complex checks, column by column ---------------------------------


def d_squared_products(cx: GradedChainComplex):
    """The per-column product loop the library ran before it went a degree
    at a time: the nonzero columns of boundary(d-1) * boundary(d) as (d,
    col, den, entries), a single-entry column with factor 1 handing out
    the stored column it meets."""
    lo, hi = cx.window
    lower, lden = cx._integer(lo)
    for d in range(lo + 1, hi + 2):
        upper, uden = cx._integer(d)
        den = uden * lden
        for c, col in upper.items():
            if len(col) == 1:
                (mid, v), = col.items()
                if below := lower.get(mid):
                    yield d, c, den, below if v == 1 else {r: v * w for r, w in below.items()}
                continue
            acc: dict[int, int] = {}
            for mid, v in col.items():
                below = lower.get(mid)
                if below:
                    for r, w in below.items():
                        acc[r] = acc.get(r, 0) + v * w
            if any(acc.values()):
                yield d, c, den, acc
        lower, lden = upper, uden


def d_squared_report(cx: GradedChainComplex) -> list:
    """The d^2 report from d_squared_products, a column at a time, its equal
    values one Fraction object each."""
    bad = []
    pool = _FractionPool()
    values = _Numerators(pool, 1)
    for d, c, den, entries in d_squared_products(cx):
        if values.den != den:
            values = _Numerators(pool, den)
        bad.extend((d, (r, c), values[w]) for r, w in entries.items() if w)
    return bad


def d_squared_message(cx: GradedChainComplex) -> str | None:
    """The DSquareError message betti gives, from d_squared_products: the
    first nonzero entry and the count of them all; None when d^2 = 0."""
    products = d_squared_products(cx)
    first = next(products, None)
    if first is None:
        return None
    d, c, den, entries = first
    r, w = next((r, w) for r, w in entries.items() if w)
    count = sum(len(e) - countOf(e.values(), 0) for *_, e in itertools.chain([first], products))
    return (
        f"d^2 != 0 at degree {d}, entry {(r, c)} = {Fraction(w, den)} "
        f"({count} nonzero entries total)"
    )


def dictionary_entries_match(a: GradedChainComplex, b: GradedChainComplex) -> bool:
    """The entry comparison of verify_dictionary by two dicts keyed by
    position, one per degree: b's entries transposed and scaled by a's
    denominator against a's scaled by b's; the labels are not read."""
    lo, hi = b.window
    for d in range(lo, hi + 2):
        b_columns, b_den = b._integer(d)
        a_columns, a_den = a._integer(-(d - 1))
        transposed = {(c, r): v * a_den for c, col in b_columns.items() for r, v in col.items()}
        block = {(r, c): v * b_den for c, col in a_columns.items() for r, v in col.items()}
        if transposed != block:
            return False
    return True
