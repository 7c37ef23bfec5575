"""Differential graded algebra specifications and the constructions that
consume them directly: validation, morphisms, augmentations, linearized
complexes, and the point-class deformation (adjoined degree-(n-2) element
with its relative construction).

One routine, _compile, turns a differential or a morphism assignment into
integer rows over one denominator.  Validation sums d(d g) by the Leibniz
kernel over g's rows, a morphism applies its rows letter by letter
(_evaluate), the linearized columns and eps(d c) = 0 read each
generator's rows, and the relative construction reads d(wq) = d(w) q off
the Leibniz kernel.  Element stays the input form and the printed form of
a d^2 failure; numerators over one denominator become Elements through
one converter, _differential.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .algebra import BaseRing, ChordAlgebra, Element, Generator, Word, rat
from .homology import (
    EXACT, GradedChainComplex, _cyclic_words, _FractionPool, _joined, build_complex
)


class RelQError(ValueError):
    """The supplied differential is inconsistent with the q^2 = 0 descent."""


@dataclass
class DGASpec:
    """A free DGA presentation: generators plus the differential on them.

    The differential of a generator is an Element; idempotent words encode
    unit terms.  ambient_dim is the sphere-dimension parameter n used by
    grading conventions of the derived constructions.  The differential is
    compiled for the Leibniz rule at construction, so a changed
    differential needs a new DGASpec.
    """

    ring: BaseRing
    generators: list[Generator]
    differential: dict[str, Element]
    ambient_dim: int = 2
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        """Validate the differential and compile it for the Leibniz kernel:
        each generator's rows, over the algebra's letter tables."""
        self.algebra = ChordAlgebra(self.ring, self.generators)
        self._rows, self._denom = _compile(self.differential, self.algebra, self, "differential")

    def d_gen(self, name: str) -> Element:
        return self.differential.get(name, Element.zero())

    def gen_names(self) -> list[str]:
        return [g.name for g in self.generators]

    def grading0_pure_gens(self) -> list[Generator]:
        return [g for g in self.generators if g.grading == 0 and g.src == g.dst]


def _compile(images: Mapping[str, Element], keys: ChordAlgebra, target: DGASpec, what: str):
    """The rows of a differential, or of a morphism assignment (keys in the
    source, letters in the target), with their one denominator: per name
    with a nonzero image, (letters, dst port, src port, numerator) for each
    term in order, an idempotent e_i as ((), i, i, numerator).  A name not
    in keys, a letter not in the target and a word that does not compose
    are refused."""
    alg = target.algebra
    src, dst = alg.src, alg.dst
    denom = math.lcm(*(c.denominator for el in images.values() for c in el.terms.values()))
    compiled = {}
    for name, el in images.items():
        keys.gen(name)
        rows = []
        for w, c in el.terms.items():
            ls = w.letters
            for letter in ls:
                alg.gen(letter)
            if not alg.composable(ls):
                raise ValueError(f"{what} of {name} has a non-composable word {w}")
            num = c.numerator * (denom // c.denominator)
            rows.append((ls, dst[ls[0]], src[ls[-1]], num) if ls else ((), w.comp, w.comp, num))
        if rows:
            compiled[name] = rows
    return compiled, denom


def _word(key) -> Word:
    """The Word of a kernel key: a letter tuple, or an idempotent's component."""
    return Word(key) if key.__class__ is tuple else Word.idem(key)


def _element(terms: dict, den: int, pool: _FractionPool) -> Element:
    """The Element of {kernel key: numerator} over den, Fractions from pool."""
    return Element._normalized({_word(key): pool[v, den] for key, v in terms.items() if v})


def _differential(terms: dict[str, dict], names: list[str], den: int) -> dict[str, Element]:
    """A differential or morphism assignment, {name: Element} for each name,
    from {name: {kernel key: numerator}} over den; equal numerators share
    one Fraction."""
    pool = _FractionPool()
    return {name: _element(terms.get(name, {}), den, pool) for name in names}


def _leibniz_word(
    dga: DGASpec,
    letters: tuple[str, ...],
    a: int = 1,
    acc: dict | None = None,
    cap: int | None = None,
) -> dict:
    """The graded Leibniz rule on one nonempty word, in integers.

    d(c_1...c_m) = sum_j (-1)^(|c_1...c_{j-1}|) c_1...d(c_j)...c_m, with
    units produced inside a word absorbed multiplicatively.  A row of
    d(c_j) survives where its ports meet the neighbouring letters (an
    idempotent's ports are its component).  Adds a times d(letters) to acc
    (a new dict by default) and returns it: keys are letter tuples, or the
    component of an idempotent, and values are numerators over dga._denom.
    A running sum that reaches zero drops its key, so the keys come out in
    the order of the product-by-product Element sum.  A word with no letter
    that has a differential row returns acc at once.

    With a cap, a row whose piece would make the word longer than cap
    letters is skipped (an idempotent counts as length 0).  Every term of
    one key has the same length, so the result is the uncapped image
    restricted to the keys of length <= cap, in the same order.
    """
    rows = dga._rows
    if acc is None:
        acc = {}
    if rows.keys().isdisjoint(letters):
        return acc
    # the longest piece that keeps the word within the cap
    room = sys.maxsize if cap is None else cap - len(letters) + 1
    alg = dga.algebra
    parity, src, dst = alg.parity, alg.src, alg.dst
    last = len(letters) - 1
    odd = 0
    for j, name in enumerate(letters):
        drows = rows.get(name)
        if drows:
            left = src[letters[j - 1]] if j else None
            right = dst[letters[j + 1]] if j < last else None
            prefix, suffix = letters[:j], letters[j + 1:]
            sa = -a if odd else a
            for piece, pdst, psrc, c in drows:
                if left is not None and left != pdst:
                    continue
                if len(piece) > room:
                    continue
                if right is not None and right != psrc:
                    continue
                # an empty product is the idempotent, keyed by its component
                key = prefix + piece + suffix or pdst
                v = acc.get(key, 0) + sa * c
                if v:
                    acc[key] = v
                else:  # only a stored sum can cancel: sa * c != 0
                    del acc[key]
        odd ^= parity[name]
    return acc


def extend_leibniz(dga: DGASpec, x: Element) -> Element:
    """The Leibniz rule on an Element: _leibniz_word over its words in one
    running sum of numerators, so the terms come in the order of the
    Element sum.  Only the tests call it; the benchmark's tracer wraps it."""
    scale = math.lcm(*(c.denominator for c in x.terms.values()))
    acc: dict = {}
    for word, coeff in x.terms.items():
        if word.letters:
            _leibniz_word(dga, word.letters, coeff.numerator * (scale // coeff.denominator), acc)
    return _element(acc, scale * dga._denom, _FractionPool())


@dataclass
class ValidationReport:
    """A DGA's issues; a d^2 failure is (name, d(d name)) in numerators over denom."""

    grading_issues: list[str] = field(default_factory=list)
    port_issues: list[str] = field(default_factory=list)
    d2_issues: list[tuple[str, dict]] = field(default_factory=list)
    denom: int = 1

    @property
    def ok(self) -> bool:
        return not (self.grading_issues or self.port_issues or self.d2_issues)

    def lines(self) -> list[str]:
        out = list(self.grading_issues) + list(self.port_issues)
        for name, dd in self.d2_issues:
            out.append(f"d^2({name}) = {_element(dd, self.denom, _FractionPool())!r} != 0")
        return out


def check_d_squared(dga: DGASpec) -> ValidationReport:
    """Full validation: gradings and ports of every differential row, then
    d^2 = 0 generator by generator, d(d g) summed over g's rows."""
    grading = dga.algebra.grading
    report = ValidationReport(denom=dga._denom ** 2)
    for g in dga.generators:
        dd: dict = {}
        for piece, pdst, psrc, c in dga._rows.get(g.name, ()):
            deg = sum(grading[x] for x in piece)
            if deg != g.grading - 1:
                report.grading_issues.append(
                    f"d({g.name}): term {_word(piece or pdst)} has grading {deg}, "
                    f"expected {g.grading - 1}"
                )
            if (pdst, psrc) != (g.dst, g.src):
                report.port_issues.append(
                    f"d({g.name}): term {_word(piece or pdst)} has ports ({psrc},{pdst}), "
                    f"expected ({g.src},{g.dst})"
                )
            _leibniz_word(dga, piece, c, dd)
        if dd:
            report.d2_issues.append((g.name, dd))
    return report


@dataclass
class DGAMorphism:
    """Algebra morphism determined by a grading-preserving assignment on
    generators; idempotents map to idempotents of the same component.  The
    assignment is compiled at construction, as a differential is."""

    source: DGASpec
    target: DGASpec
    assignment: dict[str, Element]

    def __post_init__(self):
        if self.source.ring.k != self.target.ring.k:
            raise ValueError("source and target must share the base ring")
        keys = self.source.algebra
        self._rows, self._denom = _compile(self.assignment, keys, self.target, "image")

    def value(self, name: str) -> Element:
        return self.assignment.get(name, Element.zero())


def _evaluate(f: DGAMorphism, rows: Sequence, a: int, length: int) -> dict:
    """a times f of the element with these rows, keyed as by _leibniz_word,
    in numerators over the rows' denominator times f._denom ** length
    (length >= every word's length).  A word's value is the product of its
    letters' images, left to right from e_{dst}; a term of the running
    product meets a row of the next image whose dst port is its src port."""
    src = f.target.algebra.src
    acc: dict = {}
    for letters, dst, _, c in rows:
        terms = {(): a * c * f._denom ** (length - len(letters))}
        for name in letters:
            step: dict = {}
            for left, v in terms.items():
                port = src[left[-1]] if left else dst
                for piece, pdst, _, b in f._rows.get(name, ()):
                    if port == pdst:
                        key = left + piece
                        step[key] = step.get(key, 0) + v * b
            terms = {key: v for key, v in step.items() if v}
        for key, v in terms.items():
            acc[key or dst] = acc.get(key or dst, 0) + v
    return {key: v for key, v in acc.items() if v}


def check_morphism(f: DGAMorphism) -> tuple[bool, str | None]:
    """Chain-map check f(dc) = d(f(c)) on every source generator, after
    the gradings and ports of its image terms, in integers over the rows;
    the returned counterexample names the first failing generator."""
    source, target = f.source, f.target
    grading = target.algebra.grading
    for g in source.generators:
        image = f._rows.get(g.name, ())
        for piece, pdst, psrc, _ in image:
            if sum(grading[x] for x in piece) != g.grading:
                return False, f"{g.name}: image term {_word(piece or pdst)} breaks the grading"
            if (psrc, pdst) != (g.src, g.dst):
                return False, f"{g.name}: image term {_word(piece or pdst)} breaks the ports"
        # both sides over source._denom * target._denom * f._denom ** length
        drows = source._rows.get(g.name, ())
        length = 1 + max((len(piece) for piece, _, _, _ in drows), default=0)
        rhs: dict = {}
        for piece, _, _, c in image:
            _leibniz_word(target, piece, c * source._denom * f._denom ** (length - 1), rhs)
        if _evaluate(f, drows, target._denom, length) != rhs:
            return False, g.name
    return True, None


def compose_morphisms(g: DGAMorphism, f: DGAMorphism) -> DGAMorphism:
    """The composite g o f, each f(c) carried through g by _evaluate."""
    if f.target is not g.source and f.target.gen_names() != g.source.gen_names():
        raise ValueError("morphisms do not compose")
    length = max((len(piece) for rows in f._rows.values() for piece, _, _, _ in rows), default=0)
    names = f.source.gen_names()
    terms = {name: _evaluate(g, f._rows.get(name, ()), 1, length) for name in names}
    den = f._denom * g._denom ** length
    return DGAMorphism(f.source, g.target, _differential(terms, names, den))


@dataclass
class Augmentation:
    """Grading-0 algebra map to the base ring annihilating the differential."""

    values: dict[str, Fraction]

    def value(self, dga: DGASpec, name: str) -> Fraction:
        g = dga.algebra.gen(name)
        if g.grading != 0 or g.src != g.dst:
            return Fraction(0)
        return self.values.get(name, Fraction(0))


def is_valid_augmentation(dga: DGASpec, eps: Augmentation) -> bool:
    """eps(d c) = 0 for every generator c, summed over c's rows: a unit
    row's empty word counts 1, any other word the product of eps."""
    return not any(
        sum(c * math.prod(eps.value(dga, x) for x in piece) for piece, _, _, c in rows)
        for rows in dga._rows.values()
    )


def enumerate_augmentations(
    dga: DGASpec, value_set: Sequence
) -> list[Augmentation]:
    """Brute-force search over the finite value set on grading-0 pure
    generators; exhaustive over the set, not over Q.  A repeated value is
    searched once, in the place it first takes."""
    values = list(dict.fromkeys(rat(v) for v in value_set))
    gens = [g.name for g in dga.grading0_pure_gens()]
    found = []
    for combo in itertools.product(values, repeat=len(gens)):
        eps = Augmentation({n: v for n, v in zip(gens, combo) if v})
        if is_valid_augmentation(dga, eps):
            found.append(eps)
    return found


def linearize(dga: DGASpec, eps: Augmentation) -> GradedChainComplex:
    """Chekanov linearization after the change of variables c -> c + eps(c).

    The complex is spanned by the generators; for a word b_1...b_m in d(c),
    position j contributes (prod_{i<j} eps(b_i)) (prod_{i>j} eps(b_i)) b_j.
    A value on a name that is not a grading-0 chord with src = dst is refused.
    """
    for name in eps.values:
        g = dga.algebra.generators.get(name)
        if g is None or g.grading != 0 or g.src != g.dst:
            raise ValueError(
                f"augmentation value on {name!r}: not a grading-0 chord with src = dst"
            )
    if not is_valid_augmentation(dga, eps):
        raise ValueError("invalid augmentation")
    # the window reaches one degree past the generators on each side, so
    # the flagged edge degrees hold none: nothing of the complex is cut
    degs = sorted({g.grading for g in dga.generators})
    window = (min(degs) - 1, max(degs) + 1) if degs else (0, 0)
    bases: dict[int, list] = {}
    for g in sorted(dga.generators, key=lambda g: g.name):
        bases.setdefault(g.grading, []).append(g.name)

    def columns(labels, rows) -> tuple[dict[int, dict[int, int]], int]:
        images = []
        for label in labels:
            out: dict[int, Fraction] = defaultdict(Fraction)
            for piece, _, _, c in dga._rows.get(label, ()):
                vals = [eps.values.get(x, 0) for x in piece]
                for j, name in enumerate(piece):
                    prod = Fraction(c, dga._denom) * math.prod(vals[:j]) * math.prod(vals[j + 1:])
                    if prod and (row := rows.get(name)) is not None:
                        out[row] += prod
            images.append(out)
        return _joined(images)

    return build_complex(bases, columns, window, EXACT)


def adjoin_q(
    dga: DGASpec,
    q_grading: int,
    component: int = 1,
    deformed: Mapping[str, Element] | None = None,
    name: str = "q",
) -> DGASpec:
    """Adjoin the closed special element q of the given grading (n - k - 2
    for a degree-k cycle class).  A deformed differential for the old
    generators may be supplied; it is validated for gradings and ports by
    check_d_squared downstream.
    """
    if name in {g.name for g in dga.generators}:
        raise ValueError(f"generator named {name} already present")
    gens = list(dga.generators) + [
        Generator(name, q_grading, src=component, dst=component)
    ]
    diff = dict(dga.differential)
    if deformed:
        missing = set(deformed) - {g.name for g in dga.generators}
        if missing:
            raise ValueError(f"deformed differential for unknown generators {missing}")
        diff.update({k: v for k, v in deformed.items()})
    diff[name] = Element.zero()
    return DGASpec(
        ring=dga.ring,
        generators=gens,
        differential=diff,
        ambient_dim=dga.ambient_dim,
        meta=dict(dga.meta, adjoined=name),
    )


@dataclass
class RelQResult:
    B: DGASpec
    target: DGASpec
    phi: DGAMorphism


def _bname(letters: tuple[str, ...]) -> str:
    return "b[" + ".".join(letters) + "]"


def _yname(letters: tuple[str, ...]) -> str:
    return "y[" + ".".join(letters) + "]"


def rel_q_construction(
    dga_q: DGASpec, q_name: str = "q", max_len: int = 3
) -> RelQResult:
    """The relative construction at a point class q of grading n-2.

    B is free on generators b_w = wq for q-free words w (the empty word
    gives b_[] = q itself) with the differential descended through q^2 = 0;
    the target is free on y_w of grading |w| + (n-2) together with a filler
    of grading n-1 whose differential is y_[].  Phi maps b_w to y_w.  As q
    is closed, d(wq) = d(w) q is the Leibniz kernel's image of the word wq;
    each of its terms is cut at its q letters into the blocks of a word in
    the b_w (or the y_w).
    """
    alg = dga_q.algebra
    q = alg.gen(q_name)
    n = dga_q.ambient_dim
    if q.src != q.dst:
        raise ValueError("q must be a pure chord")
    if q.grading != n - 2:
        raise ValueError(
            f"point class must have grading n-2 = {n - 2}, got {q.grading}"
        )
    if q_name in dga_q._rows:
        raise RelQError("q must be closed")
    comp = q.src

    plain = {name: g for name, g in alg.generators.items() if name != q_name}
    words: list[tuple[str, ...]] = [()] + [
        w for group in _cyclic_words(plain, max_len).values() for w in group
        if alg.dst[w[0]] == comp
    ]
    word_set = set(words)
    # d(wq) by word: {q-free blocks: numerator over dga_q._denom}
    table: dict[tuple[str, ...], dict[tuple[tuple[str, ...], ...], int]] = {(): {}}
    for w in words[1:]:
        image = table[w] = {}
        for key, c in _leibniz_word(dga_q, w + (q_name,)).items():
            cuts = [i for i, x in enumerate(key) if x == q_name]
            blocks = tuple(key[i + 1:j] for i, j in zip([-1] + cuts, cuts))
            if not all(blocks[1:]):
                continue  # adjacent q pair, killed by the relation
            if not blocks[0]:
                if len(blocks) == 1:
                    # a unit term in d(w) descends to a bare q, which the
                    # free presentation of B cannot carry consistently
                    raise RelQError(
                        f"d({'.'.join(w)}) has a unit term; q^2 = 0 descent fails"
                    )
                raise RelQError(
                    f"differential does not descend: term {Word(key)} starts with q"
                )
            for b in blocks:
                if b not in word_set:
                    raise RelQError(
                        f"differential leaves the length-{max_len} truncation at {Word(key)}"
                    )
            image[blocks] = c

    def descended(name) -> dict[str, Element]:
        """The differential of the generators name(w), from the table."""
        terms = {
            name(w): {tuple(map(name, blocks)): c for blocks, c in image.items()}
            for w, image in table.items()
        }
        return _differential(terms, list(terms), dga_q._denom)

    b_ring = BaseRing(1)
    b_gens = [
        Generator(_bname(w), sum(alg.grading[x] for x in w) + q.grading, src=1, dst=1)
        for w in words
    ]
    B = DGASpec(
        ring=b_ring,
        generators=b_gens,
        differential=descended(_bname),
        ambient_dim=n,
        meta={"relative_to": q_name, "max_len": max_len},
    )

    filler = "a[fill]"
    t_gens = [Generator(_yname(w), g.grading, 1, 1) for w, g in zip(words, b_gens)]
    t_gens.append(Generator(filler, n - 1, 1, 1))
    t_diff = descended(_yname)
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
    ok, counter = check_morphism(phi)
    if not ok:
        raise RelQError(f"relative construction failed the chain-map check at {counter}")
    return RelQResult(B=B, target=target, phi=phi)
