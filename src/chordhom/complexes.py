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
image, so one build computes it once for every head and both marks.  No
image builds a term whose word is longer than max_len, which no basis
label is: the tail image is capped at max_len - 1 letters, and a row of
d(c) is skipped when it would pass the cap.

The cyclic quotient of the marked module (mcyc) reads the mark
differential d(x_i) = 0 and d(c^) = x_{dst c} c - c x_{src c} - S(dc)
(_mark_terms); each term carries its coefficient for an even and for an
odd word, so the Koszul sign of rotating it to mark-first form is read
in constant time, and one build computes each word's Leibniz image and
parity once for all its marks, the image capped at max_len letters like
the mark terms.  The marked module itself, on the same mark
differential, is a reference in the tests.  The check/hat side computes
its own, so mcyc against the completed check/hat complex compares two
constructions.

Each complex has one boundary kernel (_cyclic_kernel, _decorated_kernel,
_mcyc_kernel), made per build: it compiles the DGA's rows into the
shapes its terms take, keeps the build's Leibniz images, and is called
by build_complex once per degree with the degree's labels and the row
index of the degree below.  The check/hat and mcyc kernels keep their
images in one _ImageTable each, which reads the image of a word c.u off
the image of its tail u when it holds it, by the Leibniz rule d(c.u) =
d(c).u + (-1)^|c| c.d(u), and asks dga._leibniz_word otherwise; the
cyclic kernel asks dga._leibniz_word for each class, whose tails the
build rarely holds.  Every term runs in integers: the Leibniz terms are
keyed by letter tuples, and they, the differential rows and the unit
terms are numerators over the DGA's common denominator dga._denom.  A
kernel looks every target label up in the row index once, leaves out the
targets the basis lacks, sums on the rows and returns the nonzero
columns by label position over dga._denom, with the sums that cancelled
left out, which build_complex stores as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .algebra import ChordAlgebra, Word
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
    algebra: ChordAlgebra, letters: tuple[str, ...]
) -> Iterator[tuple[tuple[str, ...], int]]:
    """The terms of S(letters) as (hat word, sign): each letter hatted in
    turn with the sign (-1)^p, p the degree of the letters before it, and
    rotated to mark-first form.  Moving the prefix past the marked suffix
    adds the Koszul sign (-1)^(p (q + 1)), q the degree of the suffix and
    the hat adding one; the product is -1 exactly when p is odd and the
    whole word even."""
    parity = algebra.parity
    even = not sum(parity[n] for n in letters) & 1
    odd = 0
    for j, name in enumerate(letters):
        yield letters[j:] + letters[:j], -1 if odd and even else 1
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


class _ImageTable(dict):
    """The Leibniz images of the composable words one build asks for,
    capped at cap letters: word -> (_leibniz_word(dga, word, cap=cap),
    parity of the word), the empty word ({}, 0).

    A word c.u whose tail u the table holds is read off u's entry by
    d(c.u) = d(c).u + (-1)^|c| c.d(u): the rows of d(c) whose last port
    meets u[0] and that keep the word within the cap, then c in front of
    each key of u's image shorter than the cap whose first letter meets
    c, a unit key at src(c) giving (c,).  The two sums cannot meet unless
    a term of d(c).u starts with c; then the running sum decides the key
    order, and the entry is _leibniz_word's.  So is the entry of a word
    whose tail the table lacks: no suffix the build did not ask for is
    computed."""

    def __init__(self, dga: DGASpec, cap: int):
        super().__init__({(): ({}, 0)})
        self.dga, self.cap = dga, cap

    def __missing__(self, word: tuple[str, ...]) -> tuple[dict, int]:
        dga, cap = self.dga, self.cap
        parity = dga.algebra.parity
        head, tail = word[0], word[1:]
        held = self.get(tail)
        image = None if held is None else self._extended(head, tail, held[0])
        if image is None:
            image = _leibniz_word(dga, word, cap=cap)
        odd = sum(parity[x] for x in word) & 1 if held is None else parity[head] ^ held[1]
        entry = self[word] = image, odd
        return entry

    def _extended(self, head: str, tail: tuple[str, ...], tail_image: dict) -> dict | None:
        """The image of head.tail off the image of tail, or None when a
        term of d(head).tail starts with head and the tail's image is not
        empty."""
        dga, cap = self.dga, self.cap
        alg = dga.algebra
        dst = alg.dst
        out: dict = {}
        room = cap - len(tail)
        right = dst[tail[0]] if tail else None
        for piece, pdst, psrc, c in dga._rows.get(head, ()):
            if len(piece) > room or right is not None and right != psrc:
                continue
            # an empty product is the idempotent, keyed by its component;
            # the rows are distinct words, so no two keys are one
            key = piece + tail or pdst
            if tail_image and key[0] == head:
                return None
            out[key] = c
        src_head = alg.src[head]
        neg = alg.parity[head]
        for key, v in tail_image.items():
            if key.__class__ is tuple:
                if len(key) >= cap or dst[key[0]] != src_head:
                    continue
                out[(head,) + key] = -v if neg else v
            # a unit key at src(head) leaves the head alone, one letter long
            elif key == src_head and cap > 0:
                out[(head,)] = -v if neg else v
        return out


def _cyclic_kernel(dga: DGASpec, max_len: int) -> Callable:
    """The boundary columns of the cyclic complex, a degree at a time: the
    letterwise Leibniz differential followed by projection to the cyclic
    classes; length-zero collapses are dropped, and so are the words longer
    than max_len, which no class of the basis holds."""
    parity, den = dga.algebra.parity, dga._denom

    def columns(labels, rows) -> tuple[dict, int]:
        cols = {}
        for col, (_, word) in enumerate(labels):
            out: dict = {}
            for key, v in _leibniz_word(dga, word, cap=max_len).items():
                if key.__class__ is not tuple:
                    continue
                rep, sign = _cyclic_rep(parity, key)
                if sign and (row := rows.get(("cyc", rep))) is not None:
                    out[row] = out.get(row, 0) + (v if sign > 0 else -v)
            out = _nonzero(out)
            if out:
                cols[col] = out
        return cols, den

    return columns


# ---- the check/hat complex and its completion --------------------------------


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


def _decorated_kernel(dga: DGASpec, max_len: int) -> Callable:
    """The boundary columns of the check/hat complex, a degree at a time.

    The check word c1^ c2 ... cm is the marked cyclic word whose mark slot
    precedes c1; in slot coordinates its differential is the plain algebra
    differential of the rotated word (c2 ... cm c1), units absorbed.  It is
    read off the Leibniz image of the tail c2 ... cm: the tail terms whose
    last port meets c1 keep c1 in front, then c1's own rows follow with the
    sign (-1)^|tail|, a running sum that reaches zero dropping its row.  Key
    for key and in order, this is _leibniz_word of the slot word with the
    keys rotated to check lettering and the unit term of a single letter
    sent to its component class, ("tau", i), which the basis may lack.  A
    check word with no differential letter is closed.

    The hat word c^ tail has the differential of the marked-module normal
    form: the two mark-slot commutator terms land in check words, the
    marked letter feeds the spread operator S with a minus sign, and the
    remainder carries the full algebra differential of the tail with units
    absorbed into the hat letter.

    Compiled once per build: each row of d(c) as the check row (dst port,
    length, its last letter, the letters before it, numerator), whose
    target is last + tail + init, and as the hat row (length, parity,
    numerator, spread terms), a spread term (piece[j:], piece[:j], parity
    of piece[:j]) hatting the letter j.  The Leibniz image of each tail met
    in the build is kept once, with its parity, in the build's image table
    (_ImageTable), capped at max_len - 1 letters so that the head fits in
    front; a row of d(c) is skipped when it would pass max_len, so no term
    is longer than any basis label.
    """
    alg, den = dga.algebra, dga._denom
    parity, src, dst = alg.parity, alg.src, alg.dst
    chk_rows, hat_rows = {}, {}
    for head, drows in dga._rows.items():
        chk_rows[head] = [(pdst, len(p), p[-1:], p[:-1], c) for p, pdst, _, c in drows]
        compiled = []
        for piece, _, _, c in drows:
            terms, odd = [], 0
            for j, name in enumerate(piece):
                terms.append((piece[j:], piece[:j], odd))
                odd ^= parity[name]
            compiled.append((len(piece), odd, c, terms))
        hat_rows[head] = compiled
    closed = chk_rows.keys().isdisjoint
    images = _ImageTable(dga, max_len - 1)

    def columns(labels, rows) -> tuple[dict, int]:
        cols = {}
        for col, (kind, letters) in enumerate(labels):
            if kind == "tau" or kind == "chk" and closed(letters):
                continue
            head, lead, tail = letters[0], letters[:1], letters[1:]
            image, tail_odd = images[tail]
            room = max_len - len(tail)
            out: dict = {}
            if kind == "chk":
                dst_head = dst[head]
                for key, v in image.items():
                    if key.__class__ is tuple:
                        if src[key[-1]] != dst_head:
                            continue
                        row = rows.get(("chk", lead + key))
                    elif key == dst_head:
                        row = rows.get(("chk", lead))
                    else:
                        continue
                    if row is not None:
                        out[row] = v
                left = src[tail[-1]] if tail else None
                for pdst, n, last, init, c in chk_rows.get(head, ()):
                    if left is not None and left != pdst or n > room:
                        continue
                    if last:
                        target = ("chk", last + tail + init)
                    else:
                        target = ("chk", tail[-1:] + tail[:-1]) if tail else ("tau", pdst)
                    if (row := rows.get(target)) is None:
                        continue
                    v = out.get(row, 0) + (-c if tail_odd else c)
                    if v:
                        out[row] = v
                    else:
                        del out[row]
            else:
                head_odd = parity[head]
                # mark slot moved through the marked letter: + (slot, c, tail)
                # and - (-1)^(|c| |tail|) (slot, tail, c), in check lettering
                if (row := rows.get(("chk", letters[-1:] + letters[:-1]))) is not None:
                    out[row] = den
                if (row := rows.get(("chk", letters))) is not None:
                    out[row] = out.get(row, 0) + (den if head_odd and tail_odd else -den)
                # -S(d(head)) * tail: the sign is flipped when the letters
                # before the hat are odd and the whole word even
                for n, piece_odd, c, terms in hat_rows.get(head, ()):
                    if n > room:
                        continue
                    even = piece_odd == tail_odd
                    for suffix, prefix, odd in terms:
                        if (row := rows.get(("hat", suffix + tail + prefix))) is not None:
                            out[row] = out.get(row, 0) + (c if odd and even else -c)
                # (-1)^(|head|+1) head^ * d(tail), units absorbed into the hat letter
                src_head = src[head]
                for key, v in image.items():
                    if key.__class__ is tuple:
                        if dst[key[0]] != src_head:
                            continue
                        row = rows.get(("hat", lead + key))
                    elif key == src_head:
                        row = rows.get(("hat", lead))
                    else:
                        continue
                    if row is not None:
                        out[row] = out.get(row, 0) + (v if head_odd else -v)
                out = _nonzero(out)
            if out:
                cols[col] = out
        return cols, den

    return columns


# ---- the cyclic quotient of the marked module ---------------------------------


def _mark_terms(dga: DGASpec, cname: str) -> list[tuple]:
    """The mark differential d(c^) = x_{dst c} c - c x_{src c} - S(dc), as terms
    (length, mark, after, before, coefficients) with length that of before
    and after together; S hats each letter of each term of dc in turn with
    the sign (-1)^(degree of the letters before it).  A term rotated to
    mark-first form over a word w, mark + (after + w + before,), takes the
    Koszul sign (-1)^(|before| (|mark| + |after| + |w|)), a hat mark on c
    having degree |c| + 1 and a component class 0, so coefficients holds
    its numerator over dga._denom for an even w and for an odd one.  The
    component classes are closed."""
    alg, den = dga.algebra, dga._denom
    parity, src, dst = alg.parity, alg.src, alg.dst
    terms = [((), ("mx", dst[cname]), (cname,), den), ((cname,), ("mx", src[cname]), (), -den)]
    for letters, _, _, coeff in dga._rows.get(cname, ()):
        odd = 0
        for j, name in enumerate(letters):
            terms.append((letters[:j], ("mc", name), letters[j + 1:], coeff if odd else -coeff))
            odd ^= parity[name]
    compiled = []
    for before, mark, after, coeff in terms:
        odd_b = sum(parity[x] for x in before)
        rest = sum(parity[x] for x in after) + (mark[0] == "mc" and parity[mark[1]] + 1)
        coeffs = tuple(-coeff if odd_b * (rest + w) & 1 else coeff for w in (0, 1))
        compiled.append((len(before) + len(after), mark, after, before, coeffs))
    return compiled


def _enumerate_marked_words(
    dga: DGASpec, window: tuple[int, int], max_len: int
) -> dict[int, list]:
    """Mark-first cyclic words u.w with u a component class x_i or a hat
    chord; max_len bounds the length of the unmarked part.  They are read
    off one walk of the cyclic words c_1...c_m up to length max_len + 1:
    each gives x_i.c_1...c_m with i = dst(c_1) when m <= max_len, and
    c_1^.c_2...c_m one degree up; x_i alone has degree 0."""
    lo, hi = window
    dst = dga.algebra.dst
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


def _mcyc_kernel(dga: DGASpec, max_len: int) -> Callable:
    """The boundary columns of the marked cyclic quotient, a degree at a
    time: the mark differential rotated to mark-first form (_mark_terms,
    compiled once per build), then (-1)^|m| m d(w) with units absorbed.
    The Leibniz image of each word met in the build is kept once, with its
    parity, in the build's image table (_ImageTable), capped at max_len
    letters; terms whose unmarked word is longer than max_len are left
    out."""
    parity, den = dga.algebra.parity, dga._denom
    mark_terms = {g.name: _mark_terms(dga, g.name) for g in dga.generators}
    images = _ImageTable(dga, max_len)

    def columns(labels, rows) -> tuple[dict, int]:
        cols = {}
        for col, (kind, name, word) in enumerate(labels):
            image, odd_w = images[word]
            out: dict = {}
            odd = False
            if kind == "mc":
                room = max_len - len(word)
                for n, mark, after, before, coeffs in mark_terms[name]:
                    if n > room:
                        continue
                    if (row := rows.get(mark + (after + word + before,))) is not None:
                        out[row] = out.get(row, 0) + coeffs[odd_w]
                odd = not parity[name]
            for key, v in image.items():
                target = (kind, name, key if key.__class__ is tuple else ())
                if (row := rows.get(target)) is not None:
                    out[row] = out.get(row, 0) + (-v if odd else v)
            out = _nonzero(out)
            if out:
                cols[col] = out
        return cols, den

    return columns


# ---- the chord builders --------------------------------------------------------


def _chord_block(
    kind: str, dga: DGASpec, window: tuple[int, int], max_len: int
) -> tuple[dict[int, list], Callable, str]:
    """The chord complex of a kind (cyc, hoplus, ho or mcyc) as its bases,
    boundary kernel and verdict, the kernel compiled for one build; the
    chord builders build it and the surgery complexes take it as their
    chord side.  The mcyc mark takes one letter of max_len."""
    verdict = guard_verdict(dga.algebra.grading.values(), window, max_len - (kind == "mcyc"))
    if kind == "cyc":
        return _cyclic_bases(dga.algebra, window, max_len), _cyclic_kernel(dga, max_len), verdict
    if kind == "mcyc":
        bases = _enumerate_marked_words(dga, window, max_len)
        return bases, _mcyc_kernel(dga, max_len), verdict
    bases = _decorated_bases(dga.algebra, window, max_len, tau={"hoplus": False, "ho": True}[kind])
    return bases, _decorated_kernel(dga, max_len), verdict


def build_cyclic_complex(
    dga: DGASpec, window: tuple[int, int], max_len: int
) -> GradedChainComplex:
    """Good cyclic classes with the letterwise Leibniz differential followed
    by projection; length-zero collapses are dropped."""
    bases, columns, verdict = _chord_block("cyc", dga, window, max_len)
    return build_complex(bases, columns, window, verdict)


def build_hoplus_complex(
    dga: DGASpec, window: tuple[int, int], max_len: int
) -> GradedChainComplex:
    """Check and hat copies of the cyclically composable monomials with the
    matrix differential; no tau classes, so the unit terms drop out."""
    bases, columns, verdict = _chord_block("hoplus", dga, window, max_len)
    return build_complex(bases, columns, window, verdict)


def build_ho_complex(
    dga: DGASpec, window: tuple[int, int], max_len: int
) -> GradedChainComplex:
    """The completed complex: check/hat words plus one degree-0 class per
    component; single-letter check words feed the classes through the unit
    terms of their differentials."""
    bases, columns, verdict = _chord_block("ho", dga, window, max_len)
    return build_complex(bases, columns, window, verdict)


def build_mcyc_complex(
    dga: DGASpec, window: tuple[int, int], max_len: int
) -> GradedChainComplex:
    """The cyclic quotient of the marked module."""
    bases, columns, verdict = _chord_block("mcyc", dga, window, max_len)
    return build_complex(bases, columns, window, verdict)


def verify_en_isomorphism(
    dga: DGASpec, window: tuple[int, int], max_len: int
) -> bool:
    """Betti tables of the marked cyclic quotient and the completed
    check/hat complex agree degree by degree on the window."""
    t_m = betti(build_mcyc_complex(dga, window, max_len))
    t_h = betti(build_ho_complex(dga, window, max_len))
    return all(t_m.rank(d) == t_h.rank(d) for d in range(window[0], window[1] + 1))


def dc_one_generators(dga: DGASpec) -> list[str]:
    """Generators whose differential is exactly the component unit: one
    unit row at the generator's ports (so src = dst) with coefficient 1."""
    return [
        g.name for g in dga.generators
        if dga._rows.get(g.name) == [((), g.dst, g.src, dga._denom)]
    ]


def ho_vanishes_by_unit_differential(dga: DGASpec) -> bool:
    """True when some chord has differential exactly a unit, which forces
    the completed complex to be acyclic in every degree."""
    return bool(dc_one_generators(dga))
