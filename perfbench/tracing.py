"""Spans around calls into boolrel's modules, recorded from outside.

install() rebinds public names where the calling module looks them up (for
example boolrel.relevance.evaluate or boolrel.cli.decide_relevant_input) to
wrappers that record a span: name, start, end, parent and query id.  Spans
stay in flat arrays until the run ends; uninstall() puts the originals back.
src/ is not edited.
"""

from __future__ import annotations

import functools
import importlib
import random
import statistics
import time
from array import array

import numpy as np

# (calling module, name it binds, span name).  A span's layer is the part of
# its name before the first dot.
WRAPPED = [
    ("cli", "run", "cli.run"),
    ("cli", "parse", "formula.parse"),
    ("cli", "evaluate", "formula.evaluate"),
    ("cli", "satisfaction_probability", "counting.satisfaction_probability"),
    ("cli", "conditional_agreement_probability",
     "counting.conditional_agreement_probability"),
    ("cli", "decide_relevant_input", "relevance.decide_relevant_input"),
    ("cli", "solve_min_relevant_input", "relevance.solve_min_relevant_input"),
    ("cli", "sample_relevance", "relevance.sample_relevance"),
    ("cli", "decide_gapped", "relevance.decide_gapped"),
    ("cli", "greedy_min_relevant", "relevance.greedy_min_relevant"),
    ("cli", "shapley_values", "shapley.shapley_values"),
    ("cli", "build_pi", "gadgets.build_pi"),
    ("cli", "raise_probability_gadget", "gadgets.raise_probability_gadget"),
    ("cli", "lower_probability_gadget", "gadgets.lower_probability_gadget"),
    ("cli", "reduce_emajsat_to_ip1", "reductions.reduce_emajsat_to_ip1"),
    ("cli", "reduce_ip1_to_ip2", "reductions.reduce_ip1_to_ip2"),
    ("cli", "reduce_ip2_to_relevant_input",
     "reductions.reduce_ip2_to_relevant_input"),
    ("cli", "reduce_sat_to_ip3", "reductions.reduce_sat_to_ip3"),
    ("cli", "verify_reduction", "reductions.verify_reduction"),
    ("relevance", "parse", "formula.parse"),
    ("relevance", "evaluate", "formula.evaluate"),
    ("relevance", "ConditionalEvaluator", "counting.evaluator_init"),
    ("relevance", "is_delta_relevant", "relevance.is_delta_relevant"),
    ("relevance", "sample_relevance", "relevance.sample_relevance"),
    ("relevance", "amplified_sample_relevance",
     "relevance.amplified_sample_relevance"),
    ("counting", "evaluate", "formula.evaluate"),
    ("counting", "ConditionalEvaluator", "counting.evaluator_init"),
    ("counting", "satisfaction_probability", "counting.satisfaction_probability"),
    ("shapley", "ConditionalEvaluator", "counting.evaluator_init"),
    ("shapley", "evaluate", "formula.evaluate"),
    ("shapley", "table_bits", "formula.table_bits"),
    ("gadgets", "satisfaction_probability", "counting.satisfaction_probability"),
    ("reductions", "parse", "formula.parse"),
    ("reductions", "evaluate", "formula.evaluate"),
    ("reductions", "truth_table", "formula.truth_table"),
    ("reductions", "raise_probability_gadget", "gadgets.raise_probability_gadget"),
    ("reductions", "decide_relevant_input", "relevance.decide_relevant_input"),
    ("reductions", "solve_emajsat", "relevance.solve_emajsat"),
    ("reductions", "solve_ip1", "relevance.solve_ip1"),
    ("reductions", "solve_ip2", "relevance.solve_ip2"),
    ("reductions", "solve_ip3", "relevance.solve_ip3"),
]

# (module, class, method, span name): methods are patched on the class.
WRAPPED_METHODS = [
    ("counting", "ConditionalEvaluator", "satisfaction", "counting.satisfaction"),
    ("counting", "ConditionalEvaluator", "agreement", "counting.agreement"),
    ("formula", "Formula", "__str__", "formula.render"),
]

LAYERS = ("cli", "formula", "counting", "relevance", "shapley", "gadgets",
          "reductions")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self.query = array("i")
        self._stack: list[int] = []
        self.query_id = -1
        self.draws = 0
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, span: str):
        nid = self._name_id(span)
        start, end, names = self.start, self.end, self.name
        parent, query, stack = self.parent, self.query, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            query.append(self.query_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self):
        # Methods first: their classes are looked up by the names that the
        # loop below rebinds.
        for mod_name, cls_name, method, span in WRAPPED_METHODS:
            cls = getattr(importlib.import_module("boolrel." + mod_name), cls_name)
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, self.wrap(original, span))
        for mod_name, attr, span in WRAPPED:
            module = importlib.import_module("boolrel." + mod_name)
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            setattr(module, attr, self.wrap(original, span))
        # One getrandbits call per sample is part of the seeded-report
        # contract, so counting the calls counts the draws.
        relevance = importlib.import_module("boolrel.relevance")
        tracer = self

        class CountingRandom(random.Random):
            def getrandbits(self, k):
                tracer.draws += 1
                return super().getrandbits(k)

        shim = type(random)("random")
        shim.Random = CountingRandom
        self._undo.append((relevance, "random", relevance.random))
        relevance.random = shim

    def uninstall(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)


def layer_metrics(tracer: Tracer, query_ns: list) -> dict:
    """Per-layer numbers from the spans of a traced run.

    query_ns holds the harness-measured time of every traced query.  A
    span's self time is its duration minus the durations of its children.
    """
    begin = np.frombuffer(tracer.start, dtype=np.int64).astype(np.float64)
    dur = np.frombuffer(tracer.end, dtype=np.int64) - begin
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    name = np.frombuffer(tracer.name, dtype=np.int32)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_ns = dur - child
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
    ids = {n: i for i, n in enumerate(tracer.names)}

    def of(names, column=name):
        return np.isin(column, [ids[n] for n in names if n in ids])

    def mean(values, scale=1e-6):
        return float(values.mean()) * scale if values.size else 0.0

    queries = len(query_ns) or 1
    roots = of(["cli.run"])
    search = ["relevance.decide_relevant_input",
              "relevance.solve_min_relevant_input"]
    sampling = ["relevance.sample_relevance", "relevance.amplified_sample_relevance",
                "relevance.decide_gapped", "relevance.greedy_min_relevant"]
    satisfaction = of(["counting.satisfaction"])
    evaluate = of(["formula.evaluate"])
    n_search = int(of(search).sum())
    n_deciders = int(of(sampling[2:]).sum())
    n_greedy = int(of(sampling[3:]).sum())
    sample_ns = self_ns[of(sampling)].sum() + dur[evaluate & of(sampling, parent_name)].sum()

    out = {
        "cli.overhead_ms": float(np.median(self_ns[roots])) / 1e6 if roots.any() else 0.0,
        "formula.parse_ms": mean(dur[of(["formula.parse"])]),
        "formula.evaluate_calls": int(evaluate.sum()) / queries,
        "formula.evaluate_us": mean(dur[evaluate], 1e-3),
        "counting.evaluator_init_ms": mean(dur[of(["counting.evaluator_init"])]),
        "counting.satisfaction_calls": int(satisfaction.sum()) / queries,
        "counting.satisfaction_ms": self_ns[satisfaction].sum() / 1e6 / queries,
        "counting.probability_ms": mean(dur[of([
            "counting.satisfaction_probability",
            "counting.conditional_agreement_probability"])]),
        "relevance.search_ms": mean(self_ns[of(search)]),
        "relevance.subsets_per_query": int(
            (satisfaction & of(search, parent_name)).sum()) / (n_search or 1),
        "relevance.samples_drawn": tracer.draws / queries,
        "relevance.sample_us_per_draw": sample_ns / 1e3 / tracer.draws
        if tracer.draws else 0.0,
        "relevance.candidates_tried": int(of(
            ["relevance.amplified_sample_relevance"]).sum()) / (n_deciders or 1),
        "relevance.greedy_verify_ms": dur[
            of(["relevance.is_delta_relevant"]) & of(sampling[3:], parent_name)
        ].sum() / 1e6 / (n_greedy or 1),
        "shapley.values_ms": mean(dur[of(["shapley.shapley_values"])]),
        "reductions.reduce_ms": mean(dur[of([
            "reductions.reduce_emajsat_to_ip1", "reductions.reduce_ip1_to_ip2",
            "reductions.reduce_ip2_to_relevant_input",
            "reductions.reduce_sat_to_ip3"])]),
        "reductions.verify_ms": mean(dur[of(["reductions.verify_reduction"])]),
        "gadgets.build_ms": mean(dur[of([
            "gadgets.build_pi", "gadgets.raise_probability_gadget",
            "gadgets.lower_probability_gadget"])]),
    }
    layer = np.array([n.split(".", 1)[0] for n in tracer.names] or [""])[name]
    accounted = 0.0
    for layer_name in LAYERS:
        total = float(self_ns[layer == layer_name].sum())
        accounted += total
        out[f"{layer_name}.self_ms"] = total / 1e6 / queries
    total = sum(query_ns)
    out["trace.query_p50_ms"] = statistics.median(query_ns) / 1e6 if query_ns else 0.0
    out["trace.query_mean_ms"] = total / 1e6 / queries
    out["trace.accounted_pct"] = 100.0 * accounted / total if total else 0.0
    out["trace.spans_per_query"] = len(dur) / queries
    return {k: float(v) for k, v in out.items()}
