"""Spans around the package's functions, installed from outside the package.

``Tracer.install`` replaces module attributes and class methods of
``wedge_crystal`` with wrappers.  A spanned wrapper records one span per
call (name, parent span, start and end on the ``perf_counter_ns`` clock) in
flat in-memory arrays; a counting wrapper only bumps a counter, so the time
of the call stays with its caller.  A layer's self time is the sum of its
spans' durations minus the durations of their direct child spans.

``layer_metrics`` turns the summed summaries of a pass into the per-layer
metrics of the benchmark.  A wrapped name that no longer exists is reported
as missing, and every metric that depends on it is reported as missing.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

# layer -> functions whose spans make up the layer
SPANNED = {
    "crystal.op": ("crystal:e_tilde", "crystal:f_tilde"),
    "crystal.weight": ("crystal:weight",),
    "crystal.component": ("crystal:component",),
    "bicrystal.sigma": ("bicrystal:sigma",),
    "bicrystal.quotient": ("bicrystal:quotient_graph",),
    "theorems.partition": ("theorems:partition_ids",),
    "theorems.suite": tuple(f"theorems:verify_{name}" for name in (
        "component_partition", "classical_branching", "sigma_range",
        "involution_commutes", "sigma_characterization", "multiplicities",
        "spin_decomposition", "delta_shift")),
    "theorems.report": ("theorems:decomposition_report",),
    "laurent.rational": ("laurent:RationalScalar.__init__",),
    "laurent.mul": ("laurent:LaurentScalar.__mul__", "laurent:LaurentScalar.__rmul__"),
    "fock.representation": ("fock:representation",),
    "fock.matmul": ("fock:SparseOperator.__matmul__",),
    "fock.relations": ("fock:verify_relations", "fock:verify_weight_compatibility",
                       "fock:verify_polarization"),
    "fock.kashiwara": ("fock:kashiwara_operators",),
    "fock.crystal_match": ("fock:crystal_match",),
    "fock.highest": ("fock:highest_vectors", "fock:normalized_highest_vector",
                     "fock:_highest_crystal_ids"),
    "fock.null_shift": ("fock:verify_null_shift",),
    "cli.graph_document": ("cli:graph_document",),
    "cli.render": ("cli:render_json", "cli:render_dot"),
    "cli.main": ("cli:main",),
}

# counter -> functions counted without a span
COUNTED = {
    "crystal.elements_built": ("crystal:BinaryVector.__init__",
                               "crystal:BinaryMatrix.__init__"),
    "bicrystal.varsigma_calls": ("bicrystal:varsigma",),
    "theorems.uf_allocations": ("theorems:UnionFind.__init__",),
}


def _op_hit(result, args):
    return "crystal.op_hits", result is not None


def _unit_den(result, args):
    return "laurent.unit_den", args[0].den.items() == [(0, 1)]


def _nnz(result, args):
    return "fock.matmul_out_nnz", len(result.entries)


def _uf_slots(result, args):
    return "theorems.uf_slots", args[1]


# extra counters derived from the arguments or the result of a call
HOOKS = {
    "crystal:e_tilde": _op_hit,
    "crystal:f_tilde": _op_hit,
    "laurent:RationalScalar.__init__": _unit_den,
    "fock:SparseOperator.__matmul__": _nnz,
    "theorems:UnionFind.__init__": _uf_slots,
}


def _resolve(target: str):
    """(owner, attribute, original) for 'module:attr' or 'module:Class.attr'."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(f"wedge_crystal.{module_name}")
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    original = vars(owner)[attr] if classes else getattr(owner, attr)
    return owner, attr, original


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counts = {}
        self.missing = []
        self._stack = [-1]

    def install(self):
        for layer, targets in SPANNED.items():
            for target in targets:
                self._wrap(target, self._spanned)
        for counter, targets in COUNTED.items():
            for target in targets:
                self._wrap(target, functools.partial(self._counted, counter))

    def _wrap(self, target, make):
        try:
            owner, attr, original = _resolve(target)
        except (ImportError, AttributeError, KeyError):
            self.missing.append(target)
            return
        wrapper = make(target, original, HOOKS.get(target))
        setattr(owner, attr, functools.wraps(original)(wrapper))

    def _spanned(self, target, original, hook):
        nid = len(self.names)
        self.names.append(target)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        counts, clock = self.counts, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                key, amount = hook(result, args)
                counts[key] = counts.get(key, 0) + amount
            return result

        return wrapper

    def _counted(self, counter, target, original, hook):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] = counts.get(counter, 0) + 1
            result = original(*args, **kwargs)
            if hook is not None:
                key, amount = hook(result, args)
                counts[key] = counts.get(key, 0) + amount
            return result

        return wrapper

    def summary(self) -> dict:
        """Calls and self time per layer, plus the counters."""
        durations = [e - s for s, e in zip(self.span_start, self.span_end)]
        covered = [0] * len(durations)
        for parent, d in zip(self.span_parent, durations):
            if parent >= 0:
                covered[parent] += d
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for nid, d, c in zip(self.span_name, durations, covered):
            calls[nid] += 1
            self_ns[nid] += d - c
        layer_of = {t: layer for layer, ts in SPANNED.items() for t in ts}
        layers = {}
        for nid, target in enumerate(self.names):
            entry = layers.setdefault(layer_of[target], {"calls": 0, "self_ns": 0})
            entry["calls"] += calls[nid]
            entry["self_ns"] += self_ns[nid]
        return {"layers": layers, "counts": dict(self.counts),
                "missing": list(self.missing)}

    def write(self, path: str):
        """Spans as a JSON header line followed by the raw arrays."""
        header = {"names": self.names, "count": len(self.span_name),
                  "byteorder": sys.byteorder,
                  "arrays": ["name:uint16", "parent:int64", "start_ns:int64",
                             "end_ns:int64"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(fh)


def _layer(name, field):
    return lambda t: t["layers"].get(name, {}).get(field, 0)


def _count(name):
    return lambda t: t["counts"].get(name, 0)


def _seconds(*names):
    return lambda t: sum(t["layers"].get(n, {}).get("self_ns", 0) for n in names) / 1e9


def _ratio(num, den):
    return lambda t: num(t) / den(t) if den(t) else 0.0


# metric -> (unit, derivation from summed summaries, wrapped names it needs)
METRICS = {
    "crystal.op_calls": ("count", _layer("crystal.op", "calls"), ("crystal.op",)),
    "crystal.op_self_s": ("s", _seconds("crystal.op"), ("crystal.op",)),
    "crystal.op_hit_ratio": ("ratio", _ratio(_count("crystal.op_hits"),
                                             _layer("crystal.op", "calls")),
                             ("crystal.op",)),
    "crystal.weight_calls": ("count", _layer("crystal.weight", "calls"),
                             ("crystal.weight",)),
    "crystal.weight_self_s": ("s", _seconds("crystal.weight"), ("crystal.weight",)),
    "crystal.component_calls": ("count", _layer("crystal.component", "calls"),
                                ("crystal.component",)),
    "crystal.component_self_s": ("s", _seconds("crystal.component"),
                                 ("crystal.component",)),
    "crystal.elements_built": ("count", _count("crystal.elements_built"),
                               ("crystal.elements_built",)),
    "bicrystal.sigma_calls": ("count", _layer("bicrystal.sigma", "calls"),
                              ("bicrystal.sigma",)),
    "bicrystal.sigma_self_s": ("s", _seconds("bicrystal.sigma"), ("bicrystal.sigma",)),
    "bicrystal.varsigma_calls": ("count", _count("bicrystal.varsigma_calls"),
                                 ("bicrystal.varsigma_calls",)),
    "bicrystal.quotient_self_s": ("s", _seconds("bicrystal.quotient"),
                                  ("bicrystal.quotient",)),
    "theorems.partition_calls": ("count", _layer("theorems.partition", "calls"),
                                 ("theorems.partition",)),
    "theorems.partition_self_s": ("s", _seconds("theorems.partition"),
                                  ("theorems.partition",)),
    "theorems.uf_slots_per_state": ("ratio", _ratio(_count("theorems.uf_slots"),
                                                    lambda t: t["states"]),
                                    ("theorems.uf_allocations",)),
    "theorems.suite_self_s": ("s", _seconds("theorems.suite"), ("theorems.suite",)),
    "theorems.report_self_s": ("s", _seconds("theorems.report"), ("theorems.report",)),
    "laurent.rational_inits": ("count", _layer("laurent.rational", "calls"),
                               ("laurent.rational",)),
    "laurent.rational_self_s": ("s", _seconds("laurent.rational"),
                                ("laurent.rational",)),
    "laurent.unit_den_ratio": ("ratio", _ratio(_count("laurent.unit_den"),
                                               _layer("laurent.rational", "calls")),
                               ("laurent.rational",)),
    "laurent.mul_calls": ("count", _layer("laurent.mul", "calls"), ("laurent.mul",)),
    "laurent.mul_self_s": ("s", _seconds("laurent.mul"), ("laurent.mul",)),
    "fock.representation_self_s": ("s", _seconds("fock.representation"),
                                   ("fock.representation",)),
    "fock.matmul_calls": ("count", _layer("fock.matmul", "calls"), ("fock.matmul",)),
    "fock.matmul_self_s": ("s", _seconds("fock.matmul"), ("fock.matmul",)),
    "fock.matmul_out_nnz": ("count", _count("fock.matmul_out_nnz"), ("fock.matmul",)),
    "fock.relations_self_s": ("s", _seconds("fock.relations"), ("fock.relations",)),
    "fock.kashiwara_self_s": ("s", _seconds("fock.kashiwara"), ("fock.kashiwara",)),
    "fock.crystal_match_self_s": ("s", _seconds("fock.crystal_match"),
                                  ("fock.crystal_match",)),
    "fock.highest_self_s": ("s", _seconds("fock.highest"), ("fock.highest",)),
    "fock.null_shift_self_s": ("s", _seconds("fock.null_shift"),
                               ("fock.null_shift",)),
    "cli.graph_document_self_s": ("s", _seconds("cli.graph_document"),
                                  ("cli.graph_document",)),
    "cli.render_self_s": ("s", _seconds("cli.render"), ("cli.render",)),
    "cli.main_self_s": ("s", _seconds("cli.main"), ("cli.main",)),
}


def layer_metrics(totals: dict):
    """(values, missing metric names) from the summed summaries of one pass.

    ``totals`` holds "layers", "counts", "missing" (wrapped targets that did
    not resolve) and "states" (ground-set states of the pass's invocations).
    """
    missing_targets = set(totals["missing"])
    gone = {key for key, ts in {**SPANNED, **COUNTED}.items()
            if any(t in missing_targets for t in ts)}
    values, missing = {}, []
    for name, (unit, derive, needs) in METRICS.items():
        if gone.intersection(needs):
            missing.append(name)
            values[name] = 0.0
        else:
            values[name] = derive(totals)
    return values, missing
