"""Free graded path algebra over a semisimple idempotent base ring.

Words are sequences of named chord generators.  Each generator carries an
integer grading and two component ports (src = component of the chord
origin, dst = component of the chord end).  Adjacent letters of a word must
compose: src of a letter equals dst of the letter to its right.  The empty
word at component i is the idempotent e_i.  Coefficients are exact
rationals throughout; nothing in this package touches floating point.

Element and Word are the input form: the package computes on compiled
integer rows (dga.py) and defines no Element product, which the tests
keep as a reference (tests/reference_images.py).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping


def rat(x) -> Fraction:
    """Coerce ints, strings like '-3/2', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


@dataclass(frozen=True)
class BaseRing:
    """Semisimple ring K<e_1,...,e_k> with e_i * e_j = delta_ij e_i."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("base ring needs at least one component")

    @property
    def components(self) -> range:
        return range(1, self.k + 1)


@dataclass(frozen=True)
class Generator:
    """Named chord generator with integer grading and component ports."""

    name: str
    grading: int
    src: int = 1
    dst: int = 1


@dataclass(frozen=True, order=False)
class Word:
    """A basis word: either letters of generator names, or an idempotent.

    comp is 0 for nonempty words and the component index for idempotents.
    """

    letters: tuple[str, ...]
    comp: int = 0

    def __post_init__(self):
        if self.letters and self.comp != 0:
            raise ValueError("nonempty word must not carry an idempotent index")
        if not self.letters and self.comp <= 0:
            raise ValueError("empty word needs a component index")

    @staticmethod
    def idem(i: int) -> "Word":
        return Word((), i)

    @staticmethod
    def of(letters: Iterable[str]) -> "Word":
        letters = tuple(letters)
        if not letters:
            raise ValueError("use Word.idem for empty words")
        return Word(letters)

    @property
    def is_idem(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def sort_key(self):
        return (len(self.letters), self.comp, self.letters)

    def __str__(self) -> str:
        if self.is_idem:
            return f"e_{self.comp}"
        return ".".join(self.letters)


class Element:
    """Normalized finite linear combination of words over Q.

    Zero coefficients are dropped on construction, so equality of the
    underlying mappings is equality of elements.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, Fraction] | None = None):
        clean: dict[Word, Fraction] = {}
        if terms:
            for w, c in terms.items():
                c = rat(c)
                if c:
                    clean[w] = c
        self.terms = clean

    @staticmethod
    def zero() -> "Element":
        return Element()

    @classmethod
    def _normalized(cls, terms: dict[Word, Fraction]) -> "Element":
        """An element over terms that are already nonzero Fractions: no
        copy and no check, for the inner loops that build them so."""
        el = cls.__new__(cls)
        el.terms = terms
        return el

    @staticmethod
    def monomial(word: Word, coeff=1) -> "Element":
        return Element({word: rat(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def items(self) -> Iterator[tuple[Word, Fraction]]:
        return iter(sorted(self.terms.items(), key=lambda t: t[0].sort_key()))

    def coeff(self, word: Word) -> Fraction:
        return self.terms.get(word, Fraction(0))

    def __add__(self, other: "Element") -> "Element":
        out = defaultdict(Fraction, self.terms)
        for w, c in other.terms.items():
            out[w] += c
        return Element(out)

    def __sub__(self, other: "Element") -> "Element":
        out = defaultdict(Fraction, self.terms)
        for w, c in other.terms.items():
            out[w] -= c
        return Element(out)

    def __neg__(self) -> "Element":
        return Element({w: -c for w, c in self.terms.items()})

    def scale(self, c) -> "Element":
        c = rat(c)
        if not c:
            return Element()
        return Element({w: c * v for w, v in self.terms.items()})

    def __rmul__(self, c) -> "Element":
        return self.scale(c)

    def __eq__(self, other) -> bool:
        return isinstance(other, Element) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items(), key=lambda t: t[0].sort_key())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for w, c in self.items():
            bits.append(f"{c}*{w}")
        return " + ".join(bits)


class ChordAlgebra:
    """The free path algebra on a generator set over a BaseRing."""

    def __init__(self, ring: BaseRing, generators: Iterable[Generator]):
        self.ring = ring
        self.generators: dict[str, Generator] = {}
        for g in generators:
            if g.name in self.generators:
                raise ValueError(f"duplicate generator {g.name}")
            if not (1 <= g.src <= ring.k and 1 <= g.dst <= ring.k):
                raise ValueError(f"generator {g.name} has ports outside the ring")
            self.generators[g.name] = g
        # grading parity of every letter: the Koszul signs of the hot loops
        # read this table instead of summing gradings term by term
        self.parity: dict[str, int] = {
            name: g.grading & 1 for name, g in self.generators.items()
        }

    # ---- ports and gradings -------------------------------------------------

    def gen(self, name: str) -> Generator:
        try:
            return self.generators[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def grading(self, word: Word) -> int:
        if word.is_idem:
            return 0
        return sum(self.gen(n).grading for n in word.letters)

    def dst(self, word: Word) -> int:
        """Left port of the word (component of the end of the first chord)."""
        if word.is_idem:
            return word.comp
        return self.gen(word.letters[0]).dst

    def src(self, word: Word) -> int:
        """Right port of the word (component of the origin of the last chord)."""
        if word.is_idem:
            return word.comp
        return self.gen(word.letters[-1]).src

    def composable(self, letters: tuple[str, ...]) -> bool:
        return all(
            self.gen(a).src == self.gen(b).dst
            for a, b in zip(letters, letters[1:])
        )

    def cyclically_composable(self, word: Word) -> bool:
        if word.is_idem:
            return True
        return self.composable(word.letters) and self.src(word) == self.dst(word)

    # ---- graded cyclic rotation ----------------------------------------------

    def koszul_rotate(self, word: Word) -> tuple[Word, int]:
        """Rotate c1 c2 ... cl to c2 ... cl c1 with the Koszul sign.

        The sign is (-1)^(|c1| * |c2...cl|).  The word must be nonempty and
        cyclically composable.
        """
        if word.is_idem:
            raise ValueError("cannot rotate an idempotent")
        if not self.cyclically_composable(word):
            raise ValueError(f"word {word} is not cyclically composable")
        letters = word.letters
        if len(letters) == 1:
            return word, 1
        g0 = self.gen(letters[0]).grading
        rest = sum(self.gen(n).grading for n in letters[1:])
        sign = -1 if (g0 * rest) % 2 else 1
        return Word.of(letters[1:] + letters[:1]), sign

    def rotations(self, word: Word) -> Iterator[tuple[Word, int]]:
        """All rotations of a cyclically composable word with signs.

        Yields (rotated_word, sign) starting from (word, +1); l entries for a
        length-l word.
        """
        cur, sign = word, 1
        for _ in range(len(word)):
            yield cur, sign
            cur, s = self.koszul_rotate(cur)
            sign *= s
