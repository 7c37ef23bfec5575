"""Distinguish the two classical five-two knots through the engine: the
first algebra's degree -2 cyclic class survives under the comparison map,
while the second one's surgery complex has no basis below degree zero."""

from chordhom.algebra import Word
from chordhom.complexes import build_cyclic_complex, cyclic_class
from chordhom.dga import check_d_squared, check_morphism, enumerate_augmentations
from chordhom.documents import dga_from_document, morphism_from_document
from chordhom.examples import example_document
from chordhom.surgery import SurgeryCountTable, build_lch_surgery, builtin_ball_filling


def main() -> None:
    dga_a = dga_from_document(example_document("chekanov_a"))
    dga_c = dga_from_document(example_document("chekanov_c"))
    print("first algebra validates:", check_d_squared(dga_a).ok)
    augs = enumerate_augmentations(dga_a, ["-1", "0", "1"])
    print(
        "augmentations over {-1,0,1}:",
        [dict(sorted((k, str(v)) for k, v in a.values.items())) for a in augs],
    )
    phi = morphism_from_document(example_document("chekanov_phi"))
    ok, _ = check_morphism(phi)
    print("comparison map is a chain map:", ok)
    cls = cyclic_class(dga_a.algebra, Word.of(["a6"]))
    print(
        "cyclic class of a6: degree",
        dga_a.algebra.grading["a6"],
        "good:",
        not cls.is_zero,
    )
    cyc = build_cyclic_complex(dga_a, (-4, 0), 4)
    col = {lab: i for i, lab in enumerate(cyc.labels(-2))}[("cyc", ("a6",))]
    closed = not any(c == col for (_r, c) in cyc.matrix(-2))
    print("a6 class is closed:", closed)

    lch_c = build_lch_surgery(
        builtin_ball_filling(2), dga_c, SurgeryCountTable.zero(), (-6, 4), 5
    )
    negative = [d for d in range(-6, 0) if lch_c.labels(d)]
    print("second knot's surgery basis below degree 0:", negative or "none")
    print(
        "conclusion: the first surgered manifold carries a negative-degree "
        "class, the second cannot -- the two results differ"
    )


if __name__ == "__main__":
    main()
