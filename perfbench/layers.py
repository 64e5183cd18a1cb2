"""Span tracing of the program's layers, installed from outside the package.

`Tracer.install()` wraps each layer-boundary function listed in TRACED at
every module attribute that binds it: the package imports with
`from .x import f`, so `diagram.ambiguous_triples` and
`enumeration.ambiguous_triples` are separate bindings of one function, and
patching the home module alone would miss calls made through the other.
Function-local imports read the home module at call time, so they are
covered too.  Element-level helpers (generator moves, residue classes) are
left unwrapped: they run millions of times per pass and a span each would
swamp the work.  `Element.__post_init__` is counted, not spanned.

Spans are kept in memory as (name, start, end, parent, job) and written out
when the pass ends; `layer_metrics` derives the per-layer figures from them.
"""

import importlib
import json
import time

# home module -> function names; a span is named "<module>.<function>"
TRACED = {
    "cli": ("dispatch", "build_parser"),
    "enumeration": ("ambiguous_triples", "enumerate_ambiguous"),
    "diagram": ("partition_graph", "closed_path"),
    "cf": ("partition_cf", "cf_expand", "psl_equivalent"),
    "words": ("stabilizer_word", "circuit_from_path", "check_word_fixes"),
    "harness": ("cross_checked_partition", "verify_case", "resolve_rep", "sweep"),
    "classify": ("invariance_audit", "class_occupancy"),
}

MODULES = ("core", "enumeration", "diagram", "cf", "classify", "words",
           "harness", "cli")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, job]
        self.stack = []
        self.job = -1
        self.elements_built = 0
        self.triples = 0
        self.enumerated_n = set()
        self.path_steps = 0
        self.graph_orbits = 0
        self.missing = []

    def _wrap(self, name, fn, on_result=None):
        spans, stack, perf = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            spans.append(span)
            stack.append(idx)
            span[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_enumeration(self, args, kwargs, result):
        self.triples += len(result)
        self.enumerated_n.add(args[0] if args else kwargs["n"])

    def _on_closed_path(self, args, kwargs, result):
        self.path_steps += len(result)

    def _on_partition_graph(self, args, kwargs, result):
        self.graph_orbits += len(result)

    def install(self):
        modules = {m: importlib.import_module(f"ambigraph.{m}") for m in MODULES}
        modules[""] = importlib.import_module("ambigraph")
        hooks = {
            "enumeration.ambiguous_triples": self._on_enumeration,
            "diagram.closed_path": self._on_closed_path,
            "diagram.partition_graph": self._on_partition_graph,
        }
        wrappers = {}
        for home, names in TRACED.items():
            for fname in names:
                fn = getattr(modules[home], fname, None)
                if fn is None:
                    self.missing.append(f"{home}.{fname}")
                    continue
                span = f"{home}.{fname}"
                wrappers[id(fn)] = (fn, self._wrap(span, fn, hooks.get(span)))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

        element = modules["core"].Element
        post_init = element.__post_init__

        def counted(obj):
            self.elements_built += 1
            post_init(obj)

        element.__post_init__ = counted

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _span_stats(spans):
    """name -> [calls, inclusive seconds, self seconds]."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        entry = stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_time[i]
    return stats


def layer_metrics(tracer):
    """The per-layer metrics of one traced pass, by BENCHMARK.json name."""
    stats = _span_stats(tracer.spans)

    def get(span, field):
        return stats.get(span, (0, 0.0, 0.0))[field]

    calls, incl, self_s = 0, 1, 2
    enum_calls = get("enumeration.ambiguous_triples", calls)
    distinct_n = len(tracer.enumerated_n)
    return {
        "cli.calls": get("cli.dispatch", calls),
        "cli.self_s": get("cli.dispatch", self_s),
        "cli.build_parser_s": get("cli.build_parser", incl),
        "enumeration.calls": enum_calls,
        "enumeration.distinct_n": distinct_n,
        "enumeration.calls_per_n": enum_calls / distinct_n if distinct_n else 0.0,
        "enumeration.triples": tracer.triples,
        "enumeration.self_s": get("enumeration.ambiguous_triples", self_s)
        + get("enumeration.enumerate_ambiguous", self_s),
        "diagram.partition_graph.self_s": get("diagram.partition_graph", self_s),
        "diagram.closed_path.calls": get("diagram.closed_path", calls),
        "diagram.closed_path.self_s": get("diagram.closed_path", self_s),
        "diagram.path_steps": tracer.path_steps,
        "diagram.orbits": tracer.graph_orbits,
        "cf.partition_cf.calls": get("cf.partition_cf", calls),
        "cf.partition_cf.self_s": get("cf.partition_cf", self_s),
        "cf.cf_expand.calls": get("cf.cf_expand", calls),
        "cf.cf_expand.s": get("cf.cf_expand", incl),
        "cf.psl_equivalent.s": get("cf.psl_equivalent", incl),
        "words.stabilizer_word.calls": get("words.stabilizer_word", calls),
        "words.stabilizer_word.self_s": get("words.stabilizer_word", self_s),
        "words.circuit_from_path.s": get("words.circuit_from_path", incl),
        "words.check_word_fixes.s": get("words.check_word_fixes", incl),
        "harness.cross_check.calls": get("harness.cross_checked_partition", calls),
        "harness.cross_check.self_s": get("harness.cross_checked_partition", self_s),
        "harness.verify_case.self_s": get("harness.verify_case", self_s),
        "harness.resolve_rep.calls": get("harness.resolve_rep", calls),
        "harness.resolve_rep.s": get("harness.resolve_rep", incl),
        "harness.sweep.s": get("harness.sweep", incl),
        "classify.invariance_audit.s": get("classify.invariance_audit", incl),
        "classify.class_occupancy.calls": get("classify.class_occupancy", calls),
        "classify.class_occupancy.s": get("classify.class_occupancy", incl),
        "core.elements_built": tracer.elements_built,
        "core.elements_per_triple": tracer.elements_built / tracer.triples
        if tracer.triples else 0.0,
    }
