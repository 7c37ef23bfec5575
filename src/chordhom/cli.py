"""Command line interface.

Exit codes: 0 on success, 1 on mathematical failure (a differential that
does not square to zero, a failed chain-map or dictionary check), 2 on
input errors (unreadable files, schema violations, bad flags).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import documents as docs
from . import examples as corpus
from .complexes import (
    build_cyclic_complex,
    build_ho_complex,
    build_hoplus_complex,
    build_mcyc_complex,
)
from .dga import Augmentation, check_d_squared, check_morphism, enumerate_augmentations, linearize
from .homology import BettiTable, DSquareError, betti
from .lefschetz import (
    AinfValidationError,
    build_curved_category,
    dictionary_check,
    dualize_tensor_algebra,
    hochschild_complex,
)
from .surgery import (
    CountGradingError,
    FillingMismatchError,
    SurgeryCountTable,
    build_lch_surgery,
    build_sh_surgery,
    build_shplus_surgery,
    builtin_ball_filling,
    empty_filling,
)

OK, MATH_FAIL, INPUT_FAIL = 0, 1, 2


class CliInputError(Exception):
    pass


def _load_document(ref: str) -> dict:
    path = Path(ref)
    if path.exists():
        try:
            return docs.loads(path.read_text())
        except (docs.ParseError, OSError) as exc:
            raise CliInputError(f"{ref}: {exc}")
    try:
        return corpus.example_document(ref)
    except KeyError:
        raise CliInputError(f"{ref}: no such file or bundled example")


def _parse(ref: str, parser):
    """Read the document ref with one of the documents parsers; a schema
    violation is an input error."""
    doc = _load_document(ref)
    try:
        return parser(doc)
    except docs.ParseError as exc:
        raise CliInputError(f"{ref}: {exc}")


def _window(args) -> tuple[int, int]:
    """(--min-deg, --max-deg); a negative --max-len or an empty window is an
    input error."""
    if args.max_len < 0:
        raise CliInputError(f"--max-len {args.max_len}: must be at least 0")
    if args.min_deg > args.max_deg:
        raise CliInputError(
            f"--min-deg {args.min_deg} exceeds --max-deg {args.max_deg}"
        )
    return args.min_deg, args.max_deg


def cmd_validate(args) -> int:
    dga = _parse(args.dga, docs.dga_from_document)
    report = check_d_squared(dga)
    if report.ok:
        print(f"{args.dga}: valid ({len(dga.generators)} generators, d^2 = 0)")
        return OK
    print(*report.lines(), sep="\n")
    return MATH_FAIL


def _fails_validation(dga) -> bool:
    """Refuse, as validate reports it, a DGA that fails validation."""
    report = check_d_squared(dga)
    if not report.ok:
        print("mathematical failure: the input DGA fails validation", *report.lines(), sep="\n")
    return not report.ok


def _report(args, complex, view=lambda table: table, heading=None) -> int:
    """The one report path for a Betti table: betti of the built complex,
    then either the refusal or the table that view makes of it (with its
    betti/1 document under --json).  Every input is validated before the
    build, so a d^2 failure is the data's when the window is exact and a
    truncation artefact otherwise."""
    try:
        table = view(betti(complex))
    except DSquareError as exc:
        if complex.verdict == "EXACT":
            print(f"mathematical failure: the differential does not square to zero ({exc})")
        else:
            print(
                "mathematical failure: the length-truncated window is not a "
                f"subcomplex at max-len {args.max_len} ({exc}); truncated "
                "ranks are unavailable here"
            )
        return MATH_FAIL
    if heading:
        print(heading)
    sys.stdout.write(docs.betti_to_text(table))
    if args.json:
        sys.stdout.write(docs.dumps(docs.betti_to_document(table)))
    return OK


def cmd_homology(args) -> int:
    lo, hi = _window(args)
    if args.augmentation is not None and args.complex != "lin":
        raise CliInputError("--augmentation applies only to --complex lin")
    dga = _parse(args.dga, docs.dga_from_document)
    if args.augmentation:
        eps = _parse(args.augmentation, docs.augmentation_from_document)
    else:
        eps = Augmentation(values={})
    if _fails_validation(dga):
        return MATH_FAIL
    if args.complex != "lin":
        builder = {
            "cyc": build_cyclic_complex,
            "hoplus": build_hoplus_complex,
            "ho": build_ho_complex,
            "mcyc": build_mcyc_complex,
        }[args.complex]
        return _report(args, builder(dga, (lo, hi), args.max_len))
    try:
        complex = linearize(dga, eps)
    except ValueError as exc:
        raise CliInputError(str(exc))

    def requested(table: BettiTable) -> BettiTable:
        # the linearized complex holds every generator, so nothing is cut:
        # each requested degree is exact, and has rank 0 without generators
        ranks = {d: table.rank(d) for d in range(lo, hi + 1)}
        return BettiTable(ranks, frozenset(), table.verdict)

    return _report(args, complex, requested)


def _filling_of(ref: str):
    kind, _, text = ref.partition(":")
    builtin = {"ball": builtin_ball_filling, "empty": empty_filling}.get(kind)
    if builtin is None:
        return _parse(ref, docs.filling_from_document)
    n = docs._canonical_int(text)
    if n is None:
        raise CliInputError(
            f"bad filling {ref!r}: expected {kind}:<n> with n an integer, got {text!r}"
        )
    try:
        return builtin(n)
    except ValueError as exc:
        raise CliInputError(f"bad filling {ref!r}: {exc}")


def cmd_surgery(args) -> int:
    window = _window(args)
    dga = _parse(args.dga, docs.dga_from_document)
    filling = _filling_of(args.filling)
    if args.counts:
        counts = _parse(args.counts, docs.counts_from_document)
    else:
        counts = SurgeryCountTable.zero()
    if _fails_validation(dga):
        return MATH_FAIL
    builder = {
        "ch": build_lch_surgery,
        "sh+": build_shplus_surgery,
        "sh": build_sh_surgery,
    }[args.theory]
    try:
        complex = builder(filling, dga, counts, window, args.max_len)
    except CountGradingError as exc:
        raise CliInputError(f"{args.counts}: {exc}")
    except FillingMismatchError as exc:
        raise CliInputError(f"{args.filling}: {exc}")
    return _report(args, complex)


def cmd_augmentations(args) -> int:
    dga = _parse(args.dga, docs.dga_from_document)
    try:
        values = [Fraction(v.strip()) for v in args.values.split(",") if v.strip()]
    except (ValueError, ZeroDivisionError):
        raise CliInputError(f"bad value list {args.values!r}: expected comma-separated rationals")
    if _fails_validation(dga):
        return MATH_FAIL
    found = enumerate_augmentations(dga, values)
    print(f"{len(found)} augmentation(s) over {{{args.values}}}")
    for eps in found:
        items = ", ".join(f"{k}={v}" for k, v in sorted(eps.values.items()))
        print(f"  {{{items}}}" if items else "  {trivial}")
    return OK


def cmd_morphism(args) -> int:
    f = _parse(args.file, docs.morphism_from_document)
    if _fails_validation(f.source) or _fails_validation(f.target):
        return MATH_FAIL
    ok, counter = check_morphism(f)
    if ok:
        print("chain map: OK")
        return OK
    print(f"chain map: FAILED at {counter}")
    return MATH_FAIL


def _dictionary_degrees(table: BettiTable) -> BettiTable:
    """The table of the cyclic tensor complex, stored with degrees negated,
    in dictionary degrees."""
    return BettiTable(
        {-d: r for d, r in table.ranks.items()},
        frozenset(-d for d in table.flagged),
        table.verdict,
    )


def cmd_lefschetz(args) -> int:
    window = _window(args)
    spec = _parse(args.ainf, docs.ainf_from_document)
    try:
        D = build_curved_category(spec, args.t_order)
    except AinfValidationError as exc:
        print(f"mathematical failure: {exc}")
        return MATH_FAIL
    except ValueError as exc:
        raise CliInputError(f"--t-order {args.t_order}: {exc}")
    if args.emit == "dga":
        dga = dualize_tensor_algebra(D)
        report = check_d_squared(dga)
        if not report.ok:
            print("mathematical failure: emitted differential does not square to zero")
            return MATH_FAIL
        sys.stdout.write(docs.dumps(docs.dga_to_document(dga)))
        return OK
    if args.emit == "hochschild":
        cc = hochschild_complex(D, window, args.max_len)
        return _report(args, cc, _dictionary_degrees, "ranks by dictionary degree:")
    # dictionary-check
    try:
        dictionary_check(D, window, args.max_len)
    except ValueError as exc:
        print(f"mathematical failure: {exc}")
        return MATH_FAIL
    print("dictionary: OK (dual DGA, direct DGA, and cyclic tensor complex agree)")
    return OK


def cmd_examples(args) -> int:
    if args.action == "list":
        for name in corpus.example_names():
            print(name)
        return OK
    try:
        doc = corpus.example_document(args.name)
    except KeyError as exc:
        # str() of a KeyError is the repr of its message
        raise CliInputError(exc.args[0])
    sys.stdout.write(docs.dumps(doc))
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chordhom",
        description="exact invariants of chord algebras and surgery complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check gradings, ports, and d^2 = 0")
    p.add_argument("dga")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("homology", help="Betti table of a derived complex")
    p.add_argument("dga")
    p.add_argument("--complex", choices=["lin", "cyc", "hoplus", "ho", "mcyc"], required=True)
    p.add_argument("--min-deg", type=int, default=0)
    p.add_argument("--max-deg", type=int, default=8)
    p.add_argument("--max-len", type=int, default=8)
    p.add_argument("--augmentation", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("surgery", help="Betti table of a surgery complex")
    p.add_argument("dga")
    p.add_argument("--filling", required=True, help="ball:<n>, empty:<n>, or a filling document")
    p.add_argument("--theory", choices=["ch", "sh+", "sh"], required=True)
    p.add_argument("--min-deg", type=int, default=0)
    p.add_argument("--max-deg", type=int, default=8)
    p.add_argument("--max-len", type=int, default=10)
    p.add_argument("--counts", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_surgery)

    p = sub.add_parser("augmentations", help="brute-force augmentation search")
    p.add_argument("dga")
    p.add_argument("--values", required=True, help="comma-separated rationals")
    p.set_defaults(func=cmd_augmentations)

    p = sub.add_parser("morphism", help="verify a chain-map document")
    p.add_argument("file")
    p.set_defaults(func=cmd_morphism)

    p = sub.add_parser("lefschetz", help="vanishing-cycle pipeline")
    p.add_argument("ainf")
    p.add_argument("--t-order", type=int, required=True)
    p.add_argument("--emit", choices=["dga", "hochschild", "dictionary-check"], required=True)
    p.add_argument("--min-deg", type=int, default=0)
    p.add_argument("--max-deg", type=int, default=6)
    p.add_argument("--max-len", type=int, default=8)
    p.set_defaults(func=cmd_lefschetz, json=False)

    p = sub.add_parser("examples", help="bundled document corpus")
    p.add_argument("action", choices=["list", "emit"])
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_examples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "examples" and args.action == "emit" and not args.name:
        print("examples emit needs a name", file=sys.stderr)
        return INPUT_FAIL
    try:
        return args.func(args)
    except CliInputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
