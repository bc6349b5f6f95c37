"""Per-layer tracing of flagcalc from outside the library.

``traced(tracer)`` wraps the public callables of each layer for the duration
of a ``with`` block and restores them afterwards.  Methods are wrapped on
their class, so calls the library makes internally are caught; module
functions are replaced in every flagcalc module that holds them, because
callers look them up there (``flagcalc.cli.parse_polynomial``, for example).

Spans (name, start, end, parent) are kept in memory.  The hot leaf calls
(``HOT``) would produce millions of spans per pass, so they are aggregated
into their nearest recorded ancestor span instead of being recorded one by
one.  Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

# Leaf calls aggregated into their parent span instead of recorded singly.
HOT = frozenset(
    {
        "weylgroup.compose",
        "weylgroup.root_reflection",
        "weylgroup.elements_of_length",
        "polyring.mul",
        "schubert.divided_difference",
        "schubert.chevalley_weight",
        "chowring.classify",
    }
)


class Tracer:
    """Spans and counters of one traced pass, all in memory."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.peak_terms = 0
        # Recorded span: [name, start, end, parent index, self_s, label, agg]
        self.spans: list = []
        # Open frame: [name, start, child time, index of nearest recorded span]
        self._stack: list = []

    def push(self, name: str, label: str | None = None) -> list:
        parent = self._stack[-1][3] if self._stack else None
        start = time.perf_counter()
        if name in HOT:
            frame = [name, start, 0.0, parent]
        else:
            self.spans.append([name, start - self.origin, None, parent, 0.0, label, {}])
            frame = [name, start, 0.0, len(self.spans) - 1]
        self._stack.append(frame)
        return frame

    def pop(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, span = frame
        duration = end - start
        own = duration - child
        self.calls[name] += 1
        self.self_s[name] += own
        if self._stack:
            self._stack[-1][2] += duration
        if name in HOT:
            if span is not None:
                agg = self.spans[span][6].setdefault(name, [0, 0.0])
                agg[0] += 1
                agg[1] += own
        else:
            record = self.spans[span]
            record[2] = end - self.origin
            record[4] = own

    def note_terms(self, key: str, n: int) -> None:
        self.counts[key] += n
        if n > self.peak_terms:
            self.peak_terms = n

    def value(self, metric: str):
        """One per-layer metric of this pass: ``<layer>.calls``, ``.self_s`` or a count."""
        if metric == "polyring.peak_terms":
            return self.peak_terms
        layer, _, field = metric.rpartition(".")
        if field == "calls":
            return self.calls[layer]
        if field == "self_s":
            return self.self_s[layer]
        return self.counts[metric]

    def span_tree(self) -> list:
        """Recorded spans as JSON-ready dicts; ``parent`` indexes this list."""
        return [
            {
                "name": name,
                "label": label,
                "start_s": start,
                "end_s": end,
                "parent": parent,
                "self_s": own,
                "leaf_calls": {k: {"calls": c, "self_s": s} for k, (c, s) in agg.items()},
            }
            for name, start, end, parent, own, label, agg in self.spans
        ]


def _wrapper(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.push(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.pop(frame)
        if after is not None:
            after(tracer, args, result)
        return result

    return traced


def _mul_terms(tracer, args, result):
    tracer.note_terms("polyring.mul.out_terms", len(result.terms))


def _dd_terms(tracer, args, result):
    tracer.note_terms("schubert.divided_difference.in_terms", len(args[2].terms))


def _cokernel_shape(tracer, args, result):
    coker, rows, columns = args[0], args[1], args[2]
    tracer.counts["chowring.cokernel.rows"] += rows
    tracer.counts["chowring.cokernel.cols"] += len(columns)
    tracer.counts["chowring.cokernel.unit_pivots"] += sum(
        1 for d in coker.invariant_factors if d == 1
    )


def _report_checks(tracer, args, result):
    tracer.counts["presentations.checks"] += len(result.checks)


def _targets():
    """(metric prefix, owner, attribute, counter hook) for every wrapped callable."""
    from flagcalc import chowring, cli, exprparse, polyring, presentations, rootdata
    from flagcalc import schubert, weylgroup

    calc = schubert.SchubertCalc
    methods = [
        ("weylgroup.elements_of_length", weylgroup.WeylGroup, "elements_of_length", None),
        ("weylgroup.compose", weylgroup.WeylGroup, "compose", None),
        ("weylgroup.root_reflection", weylgroup.WeylGroup, "root_reflection", None),
        ("polyring.mul", polyring.Polynomial, "__mul__", _mul_terms),
        ("schubert.divided_difference", calc, "divided_difference", _dd_terms),
        ("schubert.schubert_expand", calc, "schubert_expand", None),
        ("schubert.expand_class_poly", calc, "expand_class_poly", None),
        ("schubert.pow_expansion", calc, "pow_expansion", None),
        ("schubert.structure_constants", calc, "structure_constants", None),
        ("schubert.giambelli_poly", calc, "giambelli_poly", None),
        ("schubert.chevalley_weight", calc, "chevalley_weight", None),
        ("chowring.stratum", chowring.ChowComputation, "stratum", None),
        ("chowring.cokernel", chowring.CokernelStratum, "__init__", _cokernel_shape),
        ("chowring.classify", chowring.CokernelStratum, "classify", None),
    ]
    functions = [
        ("rootdata.build_root_datum", rootdata.build_root_datum, None),
        ("presentations.verify_presentations", presentations.verify_presentations, _report_checks),
        ("exprparse.parse_polynomial", exprparse.parse_polynomial, None),
        ("cli.main", cli.main, None),
    ]
    return methods, functions


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route every layer's public callables through ``tracer`` inside the block."""
    methods, functions = _targets()
    saved = []
    try:
        for name, owner, attr, after in methods:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrapper(tracer, name, original, after))
        modules = [
            m for n, m in sys.modules.items() if n.split(".")[0] == "flagcalc"
        ]
        for name, original, after in functions:
            wrapped = _wrapper(tracer, name, original, after)
            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is original]:
                    saved.append((module, attr, original))
                    setattr(module, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
