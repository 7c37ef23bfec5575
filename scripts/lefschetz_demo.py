"""Walk the vanishing-cycle pipeline on the minimal two-object example:
build the curved category, emit the surgery DGA two independent ways,
check they agree, and verify the generator dictionary against the cyclic
tensor complex."""

from chordhom.dga import check_d_squared
from chordhom.documents import dumps, dga_to_document
from chordhom.examples import minimal_ainf_spec
from chordhom.homology import betti
from chordhom.lefschetz import build_curved_category, dictionary_check, dualize_tensor_algebra


def main() -> None:
    spec = minimal_ainf_spec()
    N = 3
    D = build_curved_category(spec, N)
    print(f"curved category on {len(D.symbols)} symbols, truncation {N}: validated")
    # dictionary_check raises ValueError on the first of its checks that fails
    dual, ho, cc = dictionary_check(D, (0, 5), 12)
    print("dual of the tensor coalgebra == direct assembly:", True)
    print("d^2 = 0:", check_d_squared(dual).ok)
    print("dictionary intertwines the differentials:", True)
    print("completed-complex ranks:", {d: r for d, r in betti(ho).ranks.items() if r})
    print(
        "cyclic tensor ranks (by dictionary degree):",
        {-d: r for d, r in betti(cc).ranks.items() if r},
    )
    print()
    print("emitted DGA document:")
    print(dumps(dga_to_document(dualize_tensor_algebra(build_curved_category(spec, 1)))))


if __name__ == "__main__":
    main()
