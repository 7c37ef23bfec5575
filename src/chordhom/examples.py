"""Bundled example documents.

Every entry is a canonical document (a plain dict) produced by a builder,
so the corpus is usable both from the library and through the command
line.  Sign choices that the sources leave open are recorded in each
document's metadata.
"""

from __future__ import annotations

from .documents import ainf_from_document
from .lefschetz import DirectedAinfSpec


def _dga(n: int, gradings: dict[str, int], differential: dict, **metadata) -> dict:
    """A one-component dga/1 document: a chord from component 1 to itself
    for each name of gradings, in its order."""
    return {
        "format": "dga/1",
        "field": "Q",
        "components": 1,
        "ambient_dim": n,
        "generators": [
            {"name": name, "grading": grading, "src": 1, "dst": 1}
            for name, grading in gradings.items()
        ],
        "differential": differential,
        "metadata": metadata,
    }


def unknot_document(n: int = 3) -> dict:
    return _dga(
        n, {"a": n - 1}, {},
        name=f"unknot(n={n})",
        notes="one chord of grading n-1 with trivial differential",
    )


def chekanov_a_document() -> dict:
    gradings = {
        "a1": 1, "a2": 1, "a3": 1, "a4": 1,
        "a5": 2, "a6": -2, "a7": 0, "a8": 0, "a9": 0,
    }
    diff = {
        "a1": [
            {"coeff": "1", "word": "e_1"},
            {"coeff": "-1", "word": ["a7"]},
            {"coeff": "-1", "word": ["a7", "a6", "a5"]},
        ],
        "a2": [
            {"coeff": "1", "word": "e_1"},
            {"coeff": "-1", "word": ["a9"]},
            {"coeff": "-1", "word": ["a5", "a6", "a9"]},
        ],
        "a3": [
            {"coeff": "1", "word": "e_1"},
            {"coeff": "1", "word": ["a8", "a7"]},
        ],
        "a4": [
            {"coeff": "1", "word": "e_1"},
            {"coeff": "1", "word": ["a8", "a9"]},
        ],
    }
    return _dga(
        2, gradings, diff,
        name="chekanov_a",
        sign_provenance=(
            "the source lists the differential only up to signs; the signs "
            "here are chosen so that the comparison map onto the one-"
            "generator algebra is a chain map and an augmentation with "
            "values in {-1,0,1} exists; the d^2=0 validator certifies the "
            "choice"
        ),
    )


def chekanov_c_document() -> dict:
    return _dga(
        2, {f"c{j}": 1 if j <= 4 else 0 for j in range(1, 10)}, {},
        name="chekanov_c",
        notes=(
            "only the generator gradings are meaningful here: the source "
            "does not list this differential, and the bundled zero "
            "differential supports basis-level statements only"
        ),
    )


def chekanov_a6_target_document() -> dict:
    return _dga(2, {"a6": -2}, {}, name="chekanov_a6_target")


def chekanov_phi_document() -> dict:
    return {
        "format": "morphism/1",
        "source": {"example": "chekanov_a"},
        "target": {"example": "chekanov_a6_target"},
        "assignment": {
            "a1": [], "a2": [], "a3": [], "a4": [], "a5": [],
            "a6": [{"coeff": "1", "word": ["a6"]}],
            "a7": [{"coeff": "1", "word": "e_1"}],
            "a8": [{"coeff": "-1", "word": "e_1"}],
            "a9": [{"coeff": "1", "word": "e_1"}],
        },
        "metadata": {
            "name": "chekanov_phi",
            "notes": "kills a1..a5, sends a7,a9 to 1 and a8 to -1",
        },
    }


def dc1_vanishing_document() -> dict:
    return _dga(
        2, {"c": 1}, {"c": [{"coeff": "1", "word": "e_1"}]},
        name="dc1_vanishing",
        notes="one chord of grading 1 killing the unit",
    )


def lambda_t_document(n: int = 3) -> dict:
    gradings = {"a": n - 1}
    for piece in ("c", "b1", "b2"):
        gradings |= {f"{piece}_min": 1, f"{piece}_max": n - 1}
    for j in (1, 2, 3):
        gradings |= {f"e{j}_min": 0, f"e{j}_max": n - 2}
    diff = {
        "b1_min": [{"coeff": "1", "word": "e_1"}],
        "b2_min": [{"coeff": "1", "word": "e_1"}],
    }
    return _dga(
        n, gradings, diff,
        name=f"lambda_t(n={n})",
        partial=True,
        unknown_differentials=[name for name in gradings if name not in diff],
        notes=(
            "partial data: only the two unit-killing differentials are "
            "listed; excluded from homology commands and usable only "
            "through the unit-differential vanishing property"
        ),
    )


def lefschetz_min_document() -> dict:
    return {
        "format": "ainf/1",
        "components": 2,
        "fiber_dim_param": 3,
        "points": [{"name": "a", "grading": 0, "from": 1, "to": 2}],
        "mu": [],
        "order": None,
        "metadata": {
            "name": "lefschetz_min",
            "notes": "two objects, one intersection point, no higher operations",
        },
    }


_REGISTRY = {
    "unknot": lambda: unknot_document(3),
    "unknot_n2": lambda: unknot_document(2),
    "unknot_n4": lambda: unknot_document(4),
    "unknot_n5": lambda: unknot_document(5),
    "chekanov_a": chekanov_a_document,
    "chekanov_c": chekanov_c_document,
    "chekanov_a6_target": chekanov_a6_target_document,
    "chekanov_phi": chekanov_phi_document,
    "dc1_vanishing": dc1_vanishing_document,
    "lambda_t": lambda: lambda_t_document(3),
    "lefschetz_min": lefschetz_min_document,
}


def example_names() -> list[str]:
    return sorted(_REGISTRY)


def example_document(name: str) -> dict:
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise KeyError(f"unknown example {name!r}") from None


def minimal_ainf_spec() -> DirectedAinfSpec:
    return ainf_from_document(lefschetz_min_document())
