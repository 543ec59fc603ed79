"""Spans around the calls into each hassewitt module, installed from outside
the program.

``install`` wraps every public function of the layer modules, in every
module namespace that binds it (``from .x import y`` makes copies of the
name), plus the suite table, four CLI boundary functions and the hot
methods of the arithmetic types.  A span's self time is its duration minus
the time of the spans it encloses.  Spans are folded into per-name totals in
memory and written out once, when the traced process ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

LAYERS = ("geometry", "algebra", "hasse_witt", "hypergeometric", "suites", "cli")

# CLI functions that bound the layers: config loading and output.
CLI_SPANS = {
    "load_config": "cli.load_config",
    "build_support": "cli.build_support",
    "parse_lambda": "cli.parse_lambda",
    "_emit": "cli.emit",
}


class Tracer:
    def __init__(self):
        self.stack = []  # one child-time accumulator per open span
        self.spans = {}  # span name -> [calls, self seconds]
        self.counts = {}  # counter name -> int
        self.originals = {}  # span name -> the wrapped function

    def add(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name, fn, count=None):
        """Wrap ``fn`` in a span; ``count(args, kwargs, result)`` runs after
        the span closes and feeds the counters."""
        stats = self.spans.setdefault(name, [0, 0.0])
        self.originals[name] = fn
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats[0] += 1
                stats[1] += elapsed - child[0]
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrap ``fn`` so it only counts calls: for methods too hot to span."""
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def dump(self):
        return {"spans": self.spans, "counts": self.counts}


def _counters(tracer, modules):
    """Per-function hooks that turn call results into work counts."""
    add = tracer.add

    def results(name):
        return lambda args, kwargs, result: add(name, len(result))

    def matrix_terms(args, kwargs, result):
        add("hasse_witt.symbolic_matrix.terms",
            sum(len(poly.terms) for row in result.entries for poly in row))

    verify = modules["hypergeometric"].verify_hypergeometric_solution
    signature = inspect.signature(verify)
    nonvacuous = {}  # (id(relations), p) -> (relations, non-vacuous count)

    def relation_usage(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        if bound.arguments["mode"] != "mod-p":
            return
        relations = bound.arguments["relations"]
        p = bound.arguments["f"].modulus
        key = (id(relations), p)
        if key not in nonvacuous:
            # vacuous: both the positive and the negative part reach order p
            useful = sum(1 for l in relations if max(l) < p or max(-x for x in l) < p)
            nonvacuous[key] = (relations, useful)
        add("suites.box_relations.used", len(relations))
        add("suites.box_relations.nonvacuous", nonvacuous[key][1])

    return {
        "geometry.enumerate_representations": results("geometry.enumerate_representations.results"),
        "geometry.enumerate_Li": results("geometry.enumerate_Li.results"),
        "geometry.enumerate_box_relations": results("geometry.enumerate_box_relations.results"),
        "hasse_witt.symbolic_matrix": matrix_terms,
        "hypergeometric.derivative_series": lambda args, kwargs, result: add(
            "hypergeometric.derivative_series.terms", len(result.poly.terms)),
        "hypergeometric.verify_hypergeometric_solution": relation_usage,
    }


def install(tracer):
    """Wrap the program's layer boundaries."""
    modules = {name: importlib.import_module(f"hassewitt.{name}") for name in LAYERS}
    counters = _counters(tracer, modules)
    replacement = {}  # id(original) -> (original, wrapper)

    def wrap(original, name):
        wrapper = tracer.span(name, original, counters.get(name))
        replacement[id(original)] = (original, wrapper)

    for layer in LAYERS[:-1]:
        module = modules[layer]
        for name, obj in vars(module).items():
            if (
                not name.startswith("_")
                and callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__
            ):
                wrap(obj, f"{layer}.{name}")
    for name, span_name in CLI_SPANS.items():
        wrap(getattr(modules["cli"], name), span_name)

    namespaces = [m for name, m in sys.modules.items() if name.split(".")[0] == "hassewitt"]
    for namespace in namespaces:
        for name, obj in list(vars(namespace).items()):
            original, wrapper = replacement.get(id(obj), (None, None))
            if original is obj:
                setattr(namespace, name, wrapper)
    table = modules["suites"]._SUITES
    for key, fn in table.items():
        table[key] = replacement[id(fn)][1]

    algebra = modules["algebra"]
    poly = algebra.SparseLaurentPoly

    def term_pairs(args, kwargs, result):
        a, b = args
        if isinstance(b, poly):
            tracer.add("algebra.poly_mul.term_pairs", len(a.terms) * len(b.terms))

    mul = poly.__mul__
    poly.__mul__ = tracer.span("algebra.poly_mul", mul, term_pairs)
    if poly.__rmul__ is mul:
        poly.__rmul__ = poly.__mul__
    poly.evaluate = tracer.span(
        "algebra.poly_evaluate", poly.evaluate,
        lambda args, kwargs, result: tracer.add("algebra.poly_evaluate.terms", len(args[0].terms)))
    poly.canonical_str = tracer.span(
        "algebra.canonical_str", poly.canonical_str,
        lambda args, kwargs, result: tracer.add("algebra.canonical_str.bytes", len(result)))
    gfq = algebra.ExtensionFieldElement
    gfq.__mul__ = tracer.counter("algebra.gfq_mul.calls", gfq.__mul__)
