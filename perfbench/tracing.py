"""Spans and work counts recorded from outside the library.

The tracer replaces the public functions of wsh.cli, wsh.fileio,
wsh.complexes, wsh.homology and wsh.oracle with timing wrappers, at the
module attribute through which the caller looks them up (wsh.cli binds
homology_all, wsh.homology binds cycle_basis, wsh.fileio binds
complete_faces, ...). Nested calls therefore become child spans, and a
span's self time is its duration minus the time its children cover. The
library source is untouched; uninstall() puts every original back.

A timed pass records only the two timestamps of each span. A counting
pass, which is not timed, also reads exact work counts off each span's
arguments and result, and swaps a FieldSpec subclass in for
wsh.cli.FieldSpec, which tallies every field operation under the nearest
enclosing homology or oracle span.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

# binding module -> the public functions looked up through it. Helpers called
# once per simplex (signed_faces) are left out: they are not layer boundaries
# and a span per call would swamp the trace.
BINDINGS = {
    "wsh.cli": (
        "parse_complex_file",
        "render_json_report",
        "render_text_report",
        "homology",
        "homology_all",
        "homology_via_snf",
    ),
    "wsh.fileio": ("build_complex", "complete_faces", "from_maximal"),
    "wsh.complexes": ("build_complex", "boundary_exponent_matrix"),
    "wsh.homology": (
        "boundary_exponent_matrix",
        "cycle_basis",
        "simplex_pairing",
        "lift_cycle",
    ),
    "wsh.oracle": (
        "boundary_exponent_matrix",
        "choose_precision",
        "weighted_boundary_matrix",
        "snf_valuations",
    ),
}

ROOT_SPAN = "cli.main"

# per-layer self-time metric -> the spans whose self time it sums; together
# they cover every span, so the layers of one invocation add up to cli.main
LAYERS = {
    "cli.self_s": (ROOT_SPAN,),
    "fileio.parse_s": ("fileio.parse_complex_file",),
    "fileio.render_s": ("fileio.render_json_report", "fileio.render_text_report"),
    "complexes.build_s": (
        "complexes.build_complex",
        "complexes.complete_faces",
        "complexes.from_maximal",
    ),
    "complexes.boundary_s": ("complexes.boundary_exponent_matrix",),
    "homology.cycle_basis_s": ("homology.cycle_basis",),
    "homology.pairing_s": ("homology.simplex_pairing",),
    "homology.assemble_s": ("homology.homology", "homology.homology_all", "homology.lift_cycle"),
    "oracle.homology_via_snf_s": (
        "oracle.homology_via_snf",
        "oracle.choose_precision",
        "oracle.weighted_boundary_matrix",
    ),
    "oracle.snf_valuations_s": ("oracle.snf_valuations",),
}
LAYER_OF = {span: layer for layer, spans in LAYERS.items() for span in spans}

FIELD_OPS = (
    "zero",
    "one",
    "from_int",
    "add",
    "sub",
    "mul",
    "neg",
    "div",
    "inv",
    "is_zero",
    "is_pm_one",
    "to_str",
)

# scopes that field operations are attributed to
OP_SCOPES = ("homology", "oracle")

COUNTS = (
    "fileio.bytes_in",
    "fileio.bytes_out",
    "complexes.simplices",
    "complexes.boundary_nnz",
    "homology.dependent",
    "homology.independent",
    "homology.pairs",
    "homology.zero_pairs",
    "homology.torsion",
    "homology.free",
    "homology.generator_terms",
    "oracle.calls",
    "oracle.precision_max",
)


def span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('wsh.')}.{fn.__name__}"


def _count_modules(counts, modules):
    for mod in modules:
        counts["homology.free"] += mod.free_rank
        counts["homology.torsion"] += len(mod.torsion)
        for chain in mod.generators or ():
            counts["homology.generator_terms"] += sum(len(t) for t in chain.terms.values())


def _count(counts, name, args, result):
    """Exact work counts read off the arguments and result of one span."""
    if name == "fileio.parse_complex_file":
        counts["fileio.bytes_in"] += len(args[0].encode("utf-8"))
        counts["complexes.simplices"] += len(result)
    elif name in ("fileio.render_json_report", "fileio.render_text_report"):
        counts["fileio.bytes_out"] += len(result.encode("utf-8"))
    elif name == "complexes.boundary_exponent_matrix":
        counts["complexes.boundary_nnz"] += sum(len(c) for c in result.columns)
    elif name == "homology.cycle_basis":
        counts["homology.dependent"] += len(result.dependent)
        counts["homology.independent"] += len(result.independent)
    elif name == "homology.simplex_pairing":
        counts["homology.pairs"] += len(result.pairs)
        counts["homology.zero_pairs"] += sum(1 for p in result.pairs if p.m == 0)
    elif name == "homology.homology":
        _count_modules(counts, [result])
    elif name == "homology.homology_all":
        _count_modules(counts, result)
    elif name == "oracle.homology_via_snf":
        counts["oracle.calls"] += 1
    elif name == "oracle.choose_precision":
        counts["oracle.precision_max"] = max(counts["oracle.precision_max"], result)


class Tracer:
    """Spans of the current pass, kept in memory, plus exact work counts.

    A span is (invocation, span id, parent id or None, name, start, end);
    each root span starts a new invocation. Counts are taken only while
    counting is on, so that a timed span's self time holds no work of the
    tracer's beyond its wrapper.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.ops = Counter()  # (scope, op) -> calls; filled by a counting field
        self.scope = None
        self.invocation = -1
        self.counting = False
        self._stack = []
        self._restore = []

    def span(self, name, fn):
        """fn wrapped so that each call records a span, and its counts when counting."""
        layer = name.partition(".")[0]
        opens_scope = layer in OP_SCOPES

        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            if parent is None:
                self.invocation += 1
            scope = self.scope
            if opens_scope:
                self.scope = layer
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.scope = scope
                self.spans[sid] = (self.invocation, sid, parent, name, start, end)
            if self.counting:
                _count(self.counts, name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, counting=False):
        """Wrap every function in BINDINGS; with counting, also count work and field ops."""
        self.counting = counting
        for modname, names in BINDINGS.items():
            module = importlib.import_module(modname)
            for attr in names:
                fn = getattr(module, attr)
                self._patch(module, attr, self.span(span_name(fn), fn))
        if counting:
            cli = importlib.import_module("wsh.cli")
            self._patch(cli, "FieldSpec", counting_field(self, cli.FieldSpec))

    def _patch(self, module, attr, value):
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self):
        self.counting = False
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self.ops = Counter()
        self.invocation = -1


def counting_field(tracer: Tracer, base):
    """Subclass of base whose operations tally into tracer.ops by scope."""

    def counted(op):
        method = getattr(base, op)

        def wrapper(self, *args):
            tracer.ops[tracer.scope, op] += 1
            return method(self, *args)

        wrapper.__name__ = op
        return wrapper

    return type("CountingFieldSpec", (base,), {op: counted(op) for op in FIELD_OPS})


def self_times(spans):
    """{invocation: {layer metric: self seconds}} and {invocation: root seconds}."""
    child = Counter()
    for _inv, _sid, parent, _name, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    layers, roots = {}, {}
    for inv, sid, parent, name, start, end in spans:
        per = layers.setdefault(inv, Counter())
        per[LAYER_OF[name]] += (end - start) - child[sid]
        if parent is None:
            roots[inv] = roots.get(inv, 0.0) + end - start
    return layers, roots
