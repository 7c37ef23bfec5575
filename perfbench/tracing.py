"""Per-layer tracing from outside the program.

The tracer replaces public functions of chordhom's modules with timing
wrappers, in every module namespace that binds them, so calls made
inside the package are seen as well as the benchmark's own.  It records:

- spans at layer boundaries (name, start, end, parent span, operation id),
  kept in memory and written out when the run ends;
- hot inner calls (the Leibniz rule, cyclic classes) as call counts and
  times only, since a span for each of their millions of calls would cost
  more than the call;
- counts of the work done (terms, words, basis labels, nonzeros, matrix
  cells).

A layer's self time is its duration minus the time covered by the
wrapped calls made inside it.  Totals are kept per phase (setup, timed)
so that a run can report them per setup and per round of operations.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from time import process_time as clock  # CPU time, as in run.py

# (module, attribute, layer name, record a span?)
TARGETS = [
    ("complexes", "build_cyclic_complex", "complexes.build", True),
    ("complexes", "build_hoplus_complex", "complexes.build", True),
    ("complexes", "build_ho_complex", "complexes.build", True),
    ("complexes", "build_mcyc_complex", "complexes.build", True),
    ("complexes", "cyclic_class", "complexes.cyclic_class", False),
    ("surgery", "build_lch_surgery", "surgery.build", True),
    ("surgery", "build_shplus_surgery", "surgery.build", True),
    ("surgery", "build_sh_surgery", "surgery.build", True),
    ("homology", "enumerate_cyclic_words", "homology.enumerate", True),
    ("homology", "build_complex", "homology.assemble", True),
    ("homology", "rank", "homology.rank", True),
    ("homology", "betti", "homology.betti", True),
    ("dga", "extend_leibniz", "dga.leibniz", False),
    ("dga", "check_d_squared", "dga.validate", True),
    ("documents", "loads", "documents.parse", True),
    ("documents", "dga_from_document", "documents.parse", True),
    ("documents", "ainf_from_document", "documents.parse", True),
    ("documents", "dumps", "documents.emit", True),
    ("documents", "dga_to_document", "documents.emit", True),
    ("lefschetz", "build_curved_category", "lefschetz.category", True),
    ("lefschetz", "dualize_tensor_algebra", "lefschetz.dualize", True),
    ("lefschetz", "lefschetz_dga", "lefschetz.direct", True),
    ("lefschetz", "hochschild_complex", "lefschetz.hochschild", True),
    ("lefschetz", "verify_dictionary", "lefschetz.dictionary", True),
]
# (module, class, method, layer name, record a span?)
METHOD_TARGETS = [
    ("homology", "GradedChainComplex", "d_squared_report", "homology.d2", True),
]


def _count_terms(tr, args, result):
    tr.add("dga.leibniz_terms", len(result.terms))


def _count_words(tr, args, result):
    tr.add("homology.words_enumerated", len(result))


def _count_complex(tr, args, result):
    tr.add("homology.basis", sum(len(labs) for labs in result.basis.values()))
    tr.add("homology.nnz", sum(len(m) for m in result.diffs.values()))


def _count_rank(tr, args, result):
    matrix, nrows, ncols = args
    if matrix and nrows and ncols:
        tr.add("homology.rank_cells", nrows * len({c for (_, c), v in matrix.items() if v}))


def _count_dictionary(tr, args, result):
    ho = args[1]
    lo, hi = ho.window
    tr.add(
        "lefschetz.dictionary_cells",
        sum(ho.dim(d) * ho.dim(d - 1) for d in range(lo, hi + 2)),
    )


COUNTERS = {
    "dga.leibniz": _count_terms,
    "homology.enumerate": _count_words,
    "homology.assemble": _count_complex,
    "homology.rank": _count_rank,
    "lefschetz.dictionary": _count_dictionary,
}

# per-layer metric -> (kind, layer); kind is self time, calls or a count
PER_LAYER = {
    "algebra.rotations_calls": ("calls", "algebra.rotations"),
    "dga.leibniz_s": ("self", "dga.leibniz"),
    "dga.leibniz_calls": ("calls", "dga.leibniz"),
    "dga.leibniz_terms": ("count", "dga.leibniz_terms"),
    "dga.validate_s": ("self", "dga.validate"),
    "homology.enumerate_s": ("self", "homology.enumerate"),
    "homology.words_enumerated": ("count", "homology.words_enumerated"),
    "complexes.cyclic_class_calls": ("calls", "complexes.cyclic_class"),
    "complexes.build_s": ("self", "complexes.build"),
    "homology.assemble_s": ("self", "homology.assemble"),
    "homology.basis": ("count", "homology.basis"),
    "homology.nnz": ("count", "homology.nnz"),
    "homology.d2_s": ("self", "homology.d2"),
    "homology.rank_s": ("self", "homology.rank"),
    "homology.rank_calls": ("calls", "homology.rank"),
    "homology.rank_cells": ("count", "homology.rank_cells"),
    "surgery.build_s": ("self", "surgery.build"),
    "documents.parse_s": ("self", "documents.parse"),
    "documents.emit_s": ("self", "documents.emit"),
    "lefschetz.category_s": ("self", "lefschetz.category"),
    "lefschetz.dualize_s": ("self", "lefschetz.dualize"),
    "lefschetz.direct_s": ("self", "lefschetz.direct"),
    "lefschetz.hochschild_s": ("self", "lefschetz.hochschild"),
    "lefschetz.dictionary_s": ("self", "lefschetz.dictionary"),
    "lefschetz.dictionary_cells": ("count", "lefschetz.dictionary_cells"),
}


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.op: int | None = None
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, phase, op)
        self._stack: list[list] = []  # [child time, span id or None]
        self._totals = defaultdict(lambda: [0, 0.0])  # (phase, layer) -> [calls, self time]
        self._counts = defaultdict(int)  # (phase, counter) -> value

    def add(self, counter: str, value: int) -> None:
        self._counts[(self.phase, counter)] += value

    def _wrap(self, fn, layer: str, record: bool):
        tr = self
        counter = COUNTERS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tr._stack
            span_id = len(tr.spans) if record else None
            if record:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                tr.spans.append(None)  # reserve the id; filled in when the call ends
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                total = tr._totals[(tr.phase, layer)]
                total[0] += 1
                total[1] += duration - frame[0]
                if record:
                    tr.spans[span_id] = (span_id, layer, start, end, parent, tr.phase, tr.op)
            if counter is not None:
                counter(tr, args, result)
            return result

        return wrapper

    def _count_calls(self, fn, layer: str):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tr._totals[(tr.phase, layer)][0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap the targets in the given freshly imported modules, in every
        chordhom namespace that binds them."""
        namespaces = [
            mod for name, mod in sys.modules.items()
            if name == "chordhom" or name.startswith("chordhom.")
        ]
        for modname, attr, layer, record in TARGETS:
            orig = getattr(modules[modname], attr)
            wrapped = self._wrap(orig, layer, record)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, key, wrapped)
        for modname, cls_name, method, layer, record in METHOD_TARGETS:
            cls = getattr(modules[modname], cls_name)
            setattr(cls, method, self._wrap(getattr(cls, method), layer, record))
        alg = modules["algebra"].ChordAlgebra
        alg.rotations = self._count_calls(alg.rotations, "algebra.rotations")

    def begin_op(self, op: int) -> None:
        """Open the root span of one operation."""
        self.op = op
        self._stack.append([0.0, len(self.spans)])
        self.spans.append(None)
        self._op_start = clock()

    def end_op(self, label: str) -> None:
        end = clock()
        _, span_id = self._stack.pop()
        self.spans[span_id] = (span_id, f"op:{label}", self._op_start, end, None, self.phase, self.op)
        self.op = None

    def per_layer(self, divisors: dict[str, int]) -> dict[str, float]:
        """Every per-layer metric, as the sum over phases of the phase
        total divided by that phase's divisor (setup repetitions, rounds)."""
        out = {}
        for metric, (kind, layer) in PER_LAYER.items():
            value = 0.0
            for phase, div in divisors.items():
                if kind == "count":
                    value += self._counts.get((phase, layer), 0) / div
                else:
                    calls, self_time = self._totals.get((phase, layer), (0, 0.0))
                    value += (self_time if kind == "self" else calls) / div
            out[metric] = value
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "phase", "op")
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(dict(zip(keys, span))) + "\n")
