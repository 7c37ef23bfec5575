"""Shared fixtures and random-instance generators for the test suite."""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from chordhom.algebra import BaseRing, ChordAlgebra, Element, Generator, Word
from chordhom.dga import DGASpec
from chordhom.documents import dga_from_document
from chordhom.examples import example_document
from chordhom.lefschetz import DirectedAinfSpec, _symbol_table


def random_dga(rng: random.Random, max_gens: int = 4, min_grading: int = 1) -> DGASpec:
    """A small DGA with d^2 = 0 by construction: differentials only hit
    words in generators that are themselves closed."""
    k = rng.choice([1, 1, 2])
    n_gens = rng.randint(1, max_gens)
    gens = []
    for i in range(n_gens):
        gens.append(
            Generator(
                f"g{i}",
                rng.randint(min_grading, 3),
                rng.randint(1, k),
                rng.randint(1, k),
            )
        )
    ring = BaseRing(k)
    alg = ChordAlgebra(ring, gens)
    # a list, not a set: the pool below is drawn in generator order, so a
    # seed gives the same DGA whatever the string hash seed
    closed = [g.name for g in gens[: rng.randint(1, n_gens)]]
    diff: dict[str, Element] = {}
    for g in gens:
        if g.name in closed:
            continue
        target_deg = g.grading - 1
        cands: list[Word] = []
        if target_deg == 0 and g.src == g.dst:
            cands.append(Word.idem(g.src))
        pool = [alg.gen(nm) for nm in closed]
        for length in range(1, 4):
            for combo in itertools.product(pool, repeat=length):
                if sum(c.grading for c in combo) != target_deg:
                    continue
                letters = tuple(c.name for c in combo)
                if not alg.composable(letters):
                    continue
                if combo[0].dst != g.dst or combo[-1].src != g.src:
                    continue
                cands.append(Word.of(letters))
        rng.shuffle(cands)
        terms = {
            w: Fraction(rng.choice([-2, -1, 1, 2]))
            for w in cands[: rng.randint(0, 3)]
        }
        diff[g.name] = Element(terms)
    return DGASpec(ring=ring, generators=gens, differential=diff, ambient_dim=2)


def random_ainf_spec(rng: random.Random) -> DirectedAinfSpec:
    """A valid directed spec: random points, plus operation constants whose
    outputs are maximum classes (consumed only by units, so the square-zero
    identities close)."""
    k = rng.choice([2, 2, 3])
    n = rng.choice([3, 4])
    pts = []
    for t in range(rng.randint(1, 2)):
        i = rng.randint(1, k - 1)
        j = rng.randint(i + 1, k)
        pts.append((f"p{t}", rng.randint(1, 2), i, j))
    skeleton = DirectedAinfSpec(k=k, n=n, points=pts, mu=[])
    symbols = _symbol_table(skeleton)
    fb = [s for s in symbols if s[0] in ("f", "b")]
    cands = []
    for length in (1, 2, 3):
        for combo in itertools.product(fb, repeat=length):
            if not all(
                symbols[a].src == symbols[b].dst for a, b in zip(combo, combo[1:])
            ):
                continue
            base = sum(symbols[s].base for s in combo)
            for out in symbols:
                if out[0] != "m":
                    continue
                info = symbols[out]
                if info.base != base + 1:
                    continue
                if info.dst != symbols[combo[0]].dst or info.src != symbols[combo[-1]].src:
                    continue
                cands.append((out, combo))
    rng.shuffle(cands)
    mu = [
        (out, tuple(reversed(combo)), Fraction(rng.choice([-2, -1, 1, 2])))
        for out, combo in cands[: rng.randint(1, 3)]
    ]
    return DirectedAinfSpec(k=k, n=n, points=pts, mu=mu)


def random_fraction(rng: random.Random) -> Fraction:
    """A coefficient of denominator 2, 3 or 4; the numerators are prime to
    every denominator, so each term keeps its denominator."""
    return Fraction(rng.choice([-7, -5, -1, 1, 5, 7]), rng.choice([2, 3, 4]))


def fractional_dga(rng: random.Random, min_grading: int) -> DGASpec:
    """A random_dga with a nonzero differential and every coefficient
    replaced by a fraction of denominator 2-4; d^2 = 0 still holds, since
    each differential hits words in closed generators only."""
    base = random_dga(rng, max_gens=5, min_grading=min_grading)
    while not any(el.terms for el in base.differential.values()):
        base = random_dga(rng, max_gens=5, min_grading=min_grading)
    diff = {
        name: Element({w: random_fraction(rng) for w in el.terms})
        for name, el in base.differential.items()
    }
    return DGASpec(base.ring, base.generators, diff, base.ambient_dim)


def fractional_ainf_spec(rng: random.Random) -> DirectedAinfSpec:
    """A random_ainf_spec whose operation constants have denominators 2-4."""
    spec = random_ainf_spec(rng)
    return replace(spec, mu=[(out, combo, random_fraction(rng)) for out, combo, _ in spec.mu])


@pytest.fixture
def unknot3():
    return dga_from_document(example_document("unknot"))


@pytest.fixture
def unknot2():
    return dga_from_document(example_document("unknot_n2"))


@pytest.fixture
def chekanov_a():
    return dga_from_document(example_document("chekanov_a"))


@pytest.fixture
def dc1():
    return dga_from_document(example_document("dc1_vanishing"))
