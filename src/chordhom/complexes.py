"""Complexes derived from a chord DGA: the cyclic quotient, the two-copy
check/hat complex, its completion by the per-component classes tau_i, and
the cyclic quotient of the marked module (mcyc), an independent model for
the latter.

Every basis reads the words of one walk of homology._cyclic_words, which
hands out the cyclic words of all components grouped by degree, shortest
first, so no builder recomputes a degree.  The cyclic basis asks the
walk for its necklaces only, each with its least period, and tells the
good ones by the number of repeats and the parity of the period's
degree, so it rotates no word.  The mcyc basis reads its marked words
off the same walk one letter longer: a word w gives x_i.w, and a word
c.w gives c^.w one degree up.  The check/hat basis, labels included,
also serves the cyclic tensor complex of lefschetz.py.

Decorated words are stored with the mark on the first letter; a mark drawn
elsewhere is rotated to the front by the graded cyclic permutation, whose
Koszul sign weights the marked letter with its decorated degree (hat adds
one to the degree, check adds nothing).

A check mark is equivalent to a degree-zero slot in the cyclic word placed
just before the marked letter.  The check differential is computed in
those slot coordinates (rotate the marked letter to the end, apply the
plain algebra differential, rotate back): this is the one convention under
which unit absorptions transport the mark consistently, the square of the
differential vanishes, and the marked-module dictionary is sign-free.
The slot word of c.w is w.c, so its image is read off the Leibniz image
of the tail w: the tail terms whose last port meets c, c behind them,
then the rows of d(c) after w.  The hat image of c.w reads the same tail
image, so one build computes it once for every head and both marks
(_word_image).  No image builds a term whose word is longer than
max_len, which no basis label is: the tail image is capped at max_len - 1
letters, and a row of d(c) is skipped when it would pass the cap.

The cyclic quotient of the marked module (mcyc) reads the mark
differential d(x_i) = 0 and d(c^) = x_dst c - c x_src - S(dc)
(_mark_terms); each term keeps the grading parities of the letters before
and after its mark, so the Koszul sign of rotating it to mark-first form
is read in constant time, and one build computes each word's Leibniz
image and parity once for all its marks (_word_image), the image capped
at max_len letters like the mark terms.  The marked module itself, on
the same mark differential, is a reference in the tests.  The check/hat side computes
its own, so mcyc against the completed check/hat complex compares two
constructions.

Every boundary image runs in integers: the Leibniz terms come from
dga._leibniz_word on letter tuples, and the differential rows and unit
terms are numerators over the DGA's common denominator dga._denom.  Each
image takes the row index of the degree below from build_complex, looks
every target label up there once, leaves out the targets the basis
lacks, sums on the rows and returns (numerators by row, dga._denom) with
the sums that cancelled left out, which build_complex stores as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

from .algebra import ChordAlgebra, Element, Word
from .dga import DGASpec, _leibniz_word
from .homology import (
    GradedChainComplex,
    _cyclic_words,
    betti,
    build_complex,
    guard_verdict,
)

@dataclass(frozen=True)
class CyclicWord:
    """Canonical cyclic equivalence class of a word.

    representative is the sort-minimal rotation; sign relates the input to
    the representative; multiplicity is the largest k with the class a
    k-th power; is_zero marks bad words (a rotation returns the word with
    sign -1).
    """

    representative: tuple[str, ...]
    sign: int
    multiplicity: int
    is_zero: bool


def _cyclic_rep(
    parity: dict[str, int], letters: tuple[str, ...]
) -> tuple[tuple[str, ...], int]:
    """The sort-minimal rotation of a nonempty cyclically composable word
    and the sign relating the word to it; the sign is 0 when the class is
    zero (a rotation returns the word with sign -1)."""
    # rotating a prefix of parity p past the rest gives (-1)^(p (total - p)),
    # which is (-1)^p for an even word and +1 for an odd one
    even = not sum(parity[n] for n in letters) & 1
    best, best_sign = letters, 1
    bad = False
    p = 0
    for i in range(1, len(letters)):
        p ^= parity[letters[i - 1]]
        rotated = letters[i:] + letters[:i]
        sign = -1 if p and even else 1
        if rotated == letters and sign == -1:
            bad = True
        if rotated < best:
            best, best_sign = rotated, sign
    return best, 0 if bad else best_sign


def cyclic_class(algebra: ChordAlgebra, word: Word) -> CyclicWord:
    if word.is_idem or not word.letters:
        raise ValueError("cyclic classes are classes of nonempty words")
    if not algebra.cyclically_composable(word):
        raise ValueError(f"word {word} is not cyclically composable")
    best, sign = _cyclic_rep(algebra.parity, word.letters)
    n = len(best)
    # the largest k with best a k-th power; k = 1 always is
    kappa = next(k for k in range(n, 0, -1) if not n % k and best == best[:n // k] * k)
    return CyclicWord(
        representative=best,
        sign=sign,
        multiplicity=kappa,
        is_zero=not sign,
    )


def _s_terms(
    algebra: ChordAlgebra, letters: tuple[str, ...], tail: tuple[str, ...] = ()
) -> Iterator[tuple[tuple[str, ...], int]]:
    """The terms of S(letters) * tail as (hat word, sign): each letter of
    `letters` hatted in turn with the sign (-1)^p, p the degree of the
    letters before it, and rotated to mark-first form.  Moving the prefix
    past the marked suffix adds the Koszul sign (-1)^(p (q + 1)), q the
    degree of the suffix and the hat adding one; the product is -1 exactly
    when p is odd and the whole word even."""
    parity = algebra.parity
    word = letters + tail
    even = not sum(parity[n] for n in word) & 1
    odd = 0
    for j, name in enumerate(letters):
        yield word[j:] + word[:j], -1 if odd and even else 1
        odd ^= parity[name]


# ---- the cyclic complex ------------------------------------------------------


def _cyclic_bases(
    alg: ChordAlgebra, window: tuple[int, int], max_len: int
) -> dict[int, list]:
    """One label per good cyclic class, in letter order: the necklaces
    (the words that no rotation sorts before) read straight off the walk,
    with their least periods.  A necklace r^k, r its least period, is a
    zero class exactly when |r| is odd and k even: the rotations that
    return it are those by r^j, with the Koszul sign (-1)^(|r| j (k - j)),
    and j = 1 gives -1 exactly then."""
    lo, hi = window
    bases: dict[int, list] = {}
    walk = _cyclic_words(alg.generators, max_len, (lo - 1, hi + 1), necklaces=True)
    for deg, necklaces in walk.items():
        # w = r^k is zero when k is even and |r| = deg / k odd
        labs = [
            ("cyc", w)
            for w, p in necklaces
            if (k := len(w) // p) & 1 or not deg // k & 1
        ]
        if labs:
            labs.sort()
            bases[deg] = labs
    return bases


def _nonzero(column: dict[int, int]) -> dict[int, int]:
    """column less its entries that summed to zero, in order."""
    return {r: v for r, v in column.items() if v} if 0 in column.values() else column


def _cyclic_image(dga: DGASpec, max_len: int, label, rows) -> tuple[dict, int]:
    """The letterwise Leibniz differential followed by projection to the
    cyclic classes; length-zero collapses are dropped, and so are the
    words longer than max_len, which no class of the basis holds."""
    parity = dga.algebra.parity
    out: dict = {}
    for key, v in _leibniz_word(dga, label[1], cap=max_len).items():
        if key.__class__ is not tuple:
            continue
        rep, sign = _cyclic_rep(parity, key)
        if sign and (row := rows.get(("cyc", rep))) is not None:
            out[row] = out.get(row, 0) + (v if sign > 0 else -v)
    return _nonzero(out), dga._denom


# ---- the check/hat complex and its completion --------------------------------


def _rot1(letters: tuple[str, ...]) -> tuple[str, ...]:
    """Translate a mark-slot word into mark-first lettering: the mark sits
    after the last letter, so that letter carries the check."""
    return (letters[-1],) + letters[:-1]


def _word_image(
    dga: DGASpec, cap: int, images: dict, word: tuple[str, ...]
) -> tuple[dict, int]:
    """The Leibniz image of a word, capped at cap letters (empty for the
    empty word), and the parity of the word's degree; images maps each
    word met so far in the build to both."""
    entry = images.get(word)
    if entry is None:
        parity = dga.algebra.parity
        image = _leibniz_word(dga, word, cap=cap) if word else {}
        entry = images[word] = image, sum(parity[x] for x in word) & 1
    return entry


def _hat_image(
    dga: DGASpec, max_len: int, tails: dict, letters: tuple[str, ...], rows
) -> tuple[dict, int]:
    """Differential of a hat word, in the marked-module normal form: the
    two mark-slot commutator terms land in check words, the marked letter
    feeds the spread operator with a minus sign, and the remainder carries
    the full algebra differential with units absorbed into the hat letter.
    Terms longer than max_len are left out.
    """
    alg = dga.algebra
    den = dga._denom
    parity = alg.parity
    head, tail = letters[0], letters[1:]
    head_odd = parity[head]
    # the tail is capped at max_len - 1 letters so that the head fits in front
    image, tail_odd = _word_image(dga, max_len - 1, tails, tail)

    # mark slot moved through the marked letter: + (slot, c, tail) and
    # - (-1)^(|c| |tail|) (slot, tail, c), translated to check lettering
    out: dict = {}
    if (row := rows.get(("chk", _rot1(letters)))) is not None:
        out[row] = den
    if (row := rows.get(("chk", _rot1(tail + (head,))))) is not None:
        out[row] = out.get(row, 0) + (den if head_odd and tail_odd else -den)

    # -S(d(head)) * tail
    room = max_len - len(tail)
    for piece, _, _, c in dga._rows.get(head, ()):
        if len(piece) > room:
            continue
        for word, sign in _s_terms(alg, piece, tail):
            if (row := rows.get(("hat", word))) is not None:
                out[row] = out.get(row, 0) + (-c if sign > 0 else c)

    # (-1)^(|head|+1) head^ * d(tail), units absorbed into the hat letter
    head_src, dst = dga._src[head], dga._dst
    for key, v in image.items():
        if key.__class__ is tuple:
            if dst[key[0]] != head_src:
                continue
            row = rows.get(("hat", (head,) + key))
        elif key == head_src:
            row = rows.get(("hat", (head,)))
        else:
            continue
        if row is not None:
            out[row] = out.get(row, 0) + (v if head_odd else -v)

    return _nonzero(out), den


def _check_image(
    dga: DGASpec, max_len: int, tails: dict, letters: tuple[str, ...], rows
) -> tuple[dict, int]:
    """The Leibniz image of the slot word tail.head of the check word
    head^ tail, read off the image of tail: the tail terms whose last port
    meets head keep head behind them, then head's own rows follow with the
    sign (-1)^|tail|, a running sum that reaches zero dropping its row.
    Key for key and in order, this is _leibniz_word of tail.head with the
    keys rotated to check lettering and the unit term of a single letter
    sent to its component class, ("tau", i), each looked up in rows; the
    unit term drops out where the basis holds no component class."""
    head, tail = letters[0], letters[1:]
    head_dst = dga._dst[head]
    out: dict = {}
    left, odd = None, 0
    if tail:
        image, odd = _word_image(dga, max_len - 1, tails, tail)
        src = dga._src
        for key, v in image.items():
            if key.__class__ is tuple:
                if src[key[-1]] != head_dst:
                    continue
                row = rows.get(("chk", (head,) + key))
            elif key == head_dst:
                row = rows.get(("chk", (head,)))
            else:
                continue
            if row is not None:
                out[row] = v
        left = src[tail[-1]]
    room = max_len - len(tail)
    for piece, pdst, _, c in dga._rows.get(head, ()):
        if left is not None and left != pdst or len(piece) > room:
            continue
        word = tail + piece
        if (row := rows.get(("chk", _rot1(word)) if word else ("tau", pdst))) is None:
            continue
        v = out.get(row, 0) + (-c if odd else c)
        if v:
            out[row] = v
        else:
            del out[row]
    return out, dga._denom


def _decorated_bases(
    alg: ChordAlgebra, window: tuple[int, int], max_len: int, tau: bool = False
) -> dict[int, list]:
    """Check and hat copies of the cyclically composable words; with tau,
    one degree-0 class per component as well.  Degree d holds the
    component classes, then the check words of degree d, then the hat
    words of degree d - 1, the words shortest first and then in letter
    order."""
    lo, hi = window
    groups = _cyclic_words(alg.generators, max_len, (lo - 2, hi + 1))
    bases: dict[int, list] = {}
    for d in range(lo - 1, hi + 2):
        labs = [("tau", i) for i in alg.ring.components] if tau and d == 0 else []
        labs += [("chk", w) for w in groups.get(d, ())]
        labs += [("hat", w) for w in groups.get(d - 1, ())]
        if labs:
            bases[d] = labs
    return bases


def _decorated_image(
    dga: DGASpec, max_len: int, tails: dict, label, rows
) -> tuple[dict, int]:
    """The matrix differential on check and hat words.

    The check word c1^ c2 ... cm is the marked cyclic word whose mark slot
    precedes c1; in slot coordinates its differential is the plain algebra
    differential of the rotated word (c2 ... cm c1), units absorbed.  Full
    collapses of single letters (the unit term n e_i of d(c)) are sent to
    the component class of e_i, which the basis may lack.  Both images read
    the Leibniz image of c2 ... cm from tails, which lives for one build,
    and leave out the words longer than max_len.
    """
    kind, letters = label
    if kind == "hat":
        return _hat_image(dga, max_len, tails, letters, rows)
    if kind == "tau":
        return {}, 1
    # a check word with no differential letter is closed; its tail image
    # is left to the hat word that needs it
    if dga._rows.keys().isdisjoint(letters):
        return {}, dga._denom
    return _check_image(dga, max_len, tails, letters, rows)


# ---- the cyclic quotient of the marked module ---------------------------------


def _mark_terms(dga: DGASpec, cname: str) -> list[tuple]:
    """The mark differential d(c^) = x_dst c - c x_src - S(dc), as terms
    (before, mark, after, coeff, before parity, after parity) with coeff a
    numerator over dga._denom and the parities those of the letters'
    gradings; S hats each letter of each term of dc in turn with the sign
    (-1)^(degree of the letters before it).  The component classes are
    closed."""
    c = dga.algebra.gen(cname)
    parity = dga.algebra.parity
    den, p = dga._denom, parity[cname]
    terms = [((), ("mx", c.dst), (cname,), den, 0, p), ((cname,), ("mx", c.src), (), -den, p, 0)]
    for letters, _, _, coeff in dga._rows.get(cname, ()):
        odd, rest = 0, sum(parity[n] for n in letters) & 1
        for j, name in enumerate(letters):
            rest ^= parity[name]
            terms.append(
                (letters[:j], ("mc", name), letters[j + 1:], coeff if odd else -coeff, odd, rest)
            )
            odd ^= parity[name]
    return terms


def _enumerate_marked_words(
    dga: DGASpec, window: tuple[int, int], max_len: int
) -> dict[int, list]:
    """Mark-first cyclic words u.w with u a component class x_i or a hat
    chord; max_len bounds the length of the unmarked part.  They are read
    off one walk of the cyclic words c_1...c_m up to length max_len + 1:
    each gives x_i.c_1...c_m with i = dst(c_1) when m <= max_len, and
    c_1^.c_2...c_m one degree up; x_i alone has degree 0."""
    lo, hi = window
    dst = dga._dst
    bases: dict[int, list] = {}
    if lo - 1 <= 0 <= hi + 1:
        bases[0] = [("mx", i, ()) for i in dga.ring.components]
    walk = _cyclic_words(dga.algebra.generators, max_len + 1, (lo - 2, hi + 1))
    for deg, words in walk.items():
        if deg >= lo - 1:
            mx = [("mx", dst[w[0]], w) for w in words if len(w) <= max_len]
            bases.setdefault(deg, []).extend(mx)
        if deg <= hi:
            bases.setdefault(deg + 1, []).extend(("mc", w[0], w[1:]) for w in words)
    return {d: sorted(labs) for d, labs in bases.items() if labs}


def _mcyc_image(
    dga: DGASpec, max_len: int, mark_terms: dict, images: dict, label, rows
) -> tuple[dict, int]:
    """Differential on the marked cyclic quotient: the mark differential
    rotated to mark-first form, then (-1)^|m| m d(w) with units absorbed.
    mark_terms maps each chord to its _mark_terms, and images each word
    met so far to its _leibniz_word image and parity (_word_image).  Terms
    whose unmarked word is longer than max_len are left out."""
    parity = dga.algebra.parity
    out: dict = {}
    kind, name, word = label
    image, odd_w = _word_image(dga, max_len, images, word)
    odd = False
    if kind == "mc":
        room = max_len - len(word)
        for before, mark, after, coeff, odd_b, odd_a in mark_terms[name]:
            if len(before) + len(after) > room:
                continue
            if (row := rows.get(mark + (after + word + before,))) is None:
                continue
            # a hat mark on c has degree |c| + 1, a component class 0
            if odd_b and odd_a ^ odd_w ^ (mark[0] == "mc" and not parity[mark[1]]):
                coeff = -coeff
            out[row] = out.get(row, 0) + coeff
        odd = not parity[name]
    for key, v in image.items():
        if (row := rows.get((kind, name, key if key.__class__ is tuple else ()))) is not None:
            out[row] = out.get(row, 0) + (-v if odd else v)
    return _nonzero(out), dga._denom


# ---- the chord builders --------------------------------------------------------


def _chord_block(
    kind: str, dga: DGASpec, window: tuple[int, int], max_len: int
) -> tuple[dict[int, list], Callable, str]:
    """The chord complex of a kind (cyc, hoplus, ho or mcyc) as its bases,
    boundary image and verdict, the image bound to the caches of one build;
    the chord builders build it and the surgery complexes take it as their
    chord side.  The mcyc mark takes one letter of max_len."""
    verdict = guard_verdict((g.grading for g in dga.generators), window, max_len - (kind == "mcyc"))
    if kind == "cyc":
        bases = _cyclic_bases(dga.algebra, window, max_len)
        return bases, partial(_cyclic_image, dga, max_len), verdict
    if kind == "mcyc":
        mark_terms = {g.name: _mark_terms(dga, g.name) for g in dga.generators}
        bases = _enumerate_marked_words(dga, window, max_len)
        return bases, partial(_mcyc_image, dga, max_len, mark_terms, {}), verdict
    bases = _decorated_bases(dga.algebra, window, max_len, tau={"hoplus": False, "ho": True}[kind])
    return bases, partial(_decorated_image, dga, max_len, {}), verdict


def build_cyclic_complex(
    dga: DGASpec, window: tuple[int, int], max_len: int
) -> GradedChainComplex:
    """Good cyclic classes with the letterwise Leibniz differential followed
    by projection; length-zero collapses are dropped."""
    bases, image, verdict = _chord_block("cyc", dga, window, max_len)
    return build_complex(bases, image, window, verdict)


def build_hoplus_complex(
    dga: DGASpec, window: tuple[int, int], max_len: int
) -> GradedChainComplex:
    """Check and hat copies of the cyclically composable monomials with the
    matrix differential; no tau classes, so the unit terms drop out."""
    bases, image, verdict = _chord_block("hoplus", dga, window, max_len)
    return build_complex(bases, image, window, verdict)


def build_ho_complex(
    dga: DGASpec, window: tuple[int, int], max_len: int
) -> GradedChainComplex:
    """The completed complex: check/hat words plus one degree-0 class per
    component; single-letter check words feed the classes through the unit
    terms of their differentials."""
    bases, image, verdict = _chord_block("ho", dga, window, max_len)
    return build_complex(bases, image, window, verdict)


def build_mcyc_complex(
    dga: DGASpec, window: tuple[int, int], max_len: int
) -> GradedChainComplex:
    """The cyclic quotient of the marked module."""
    bases, image, verdict = _chord_block("mcyc", dga, window, max_len)
    return build_complex(bases, image, window, verdict)


def verify_en_isomorphism(
    dga: DGASpec, window: tuple[int, int], max_len: int
) -> bool:
    """Betti tables of the marked cyclic quotient and the completed
    check/hat complex agree degree by degree on the window."""
    t_m = betti(build_mcyc_complex(dga, window, max_len))
    t_h = betti(build_ho_complex(dga, window, max_len))
    return all(t_m.rank(d) == t_h.rank(d) for d in range(window[0], window[1] + 1))


def dc_one_generators(dga: DGASpec) -> list[str]:
    """Generators whose differential is exactly the component unit."""
    out = []
    for g in dga.generators:
        if g.src != g.dst:
            continue
        if dga.d_gen(g.name) == Element.monomial(Word.idem(g.src)):
            out.append(g.name)
    return out


def ho_vanishes_by_unit_differential(dga: DGASpec) -> bool:
    """True when some chord has differential exactly a unit, which forces
    the completed complex to be acyclic in every degree."""
    return bool(dc_one_generators(dga))
