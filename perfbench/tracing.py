"""Spans and counts recorded around calls into toughseq's layers.

The tracer wraps public functions at the point where one layer calls
the next: attributes of the calling module are replaced by timing
wrappers, so ``subposet_report`` reaching ``compute_sinks`` through
``toughseq.subposet``'s globals records a ``subposet.compute_sinks``
span whose parent is the ``subposet.subposet_report`` span.  Nothing
inside the library changes.  Spans and counts stay in memory until the
traced process reports them.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter


def count_len(key: str):
    """Count the items each call returns."""
    def count(counts: Counter, args, result) -> None:
        counts[key] += len(result)
    return count


def count_calls(key: str):
    def count(counts: Counter, args, result) -> None:
        counts[key] += 1
    return count


def count_sinks(counts: Counter, args, result) -> None:
    counts["subposet.compute_sinks.inputs"] += len(args[0])
    counts["subposet.sinks"] += len(result)


def count_table(counts: Counter, args, result) -> None:
    counts["graphs.tough_mask_table.masks"] += len(result)
    counts["graphs.tough_mask_table.tough"] += result.count(1)


def count_verdict(counts: Counter, args, result) -> None:
    counts["checkers.verdicts"] += 1
    counts["checkers.declared"] += bool(result.declared)


# (module, attribute, span name, count) for calls made inside the
# library; the oracle worker's own calls go through Tracer.wrap directly.
LIBRARY_BOUNDARIES = (
    ("cli", "subposet_report", "subposet.subposet_report", None),
    ("cli", "sweep_sinks", "subposet.sweep_sinks", None),
    ("cli", "generate_best_monotone", "subposet.generate_best_monotone", None),
    ("subposet", "enumerate_family", "subposet.enumerate_family",
     count_len("subposet.family_size")),
    ("subposet", "compute_sinks", "subposet.compute_sinks", count_sinks),
    ("subposet", "edge_maximal_tough_sequences", "subposet.edge_maximal",
     count_len("subposet.edge_maximal.seqs")),
    ("subposet", "tough_mask_table", "graphs.tough_mask_table", count_table),
    ("subposet", "blocking_condition", "conditions.blocking_condition", None),
    ("subposet", "enumerate_partitions", "partitions.enumerate",
     count_len("partitions.partitions")),
    ("subposet", "count_partitions", "partitions.count", None),
    ("subposet", "partition_function", "partitions.count", None),
    ("checkers", "is_graphical", "sequences.is_graphical",
     count_calls("sequences.is_graphical.calls")),
)


class Tracer:
    """In-memory span recorder: (name, start, end, parent index, op id)."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def patch_library(self) -> None:
        from toughseq import checkers, cli, subposet

        modules = {"cli": cli, "subposet": subposet, "checkers": checkers}
        for mod, attr, name, count in LIBRARY_BOUNDARIES:
            module = modules[mod]
            setattr(module, attr, self.wrap(name, getattr(module, attr), count))

    def report(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "span_cost_s": span_cost()}


def span_cost(calls: int = 20000) -> float:
    """Seconds one span adds, from wrapped against bare no-op calls."""
    def noop():
        return ()

    wrapped = Tracer().wrap("noop", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(time.perf_counter() - start - bare, 0.0) / calls


# ------------------------------------------------------ per-layer metrics

# name -> (unit, better, how it is computed).  "total" sums span
# durations, "self" subtracts the time covered by direct child spans.
PER_LAYER = {
    "graphs.tough_mask_table_s": ("s", "lower", ("total", "graphs.tough_mask_table")),
    "graphs.tough_mask_table.masks": ("count", "lower", ("count", "graphs.tough_mask_table.masks")),
    "graphs.tough_mask_table.tough": ("count", "higher", ("count", "graphs.tough_mask_table.tough")),
    "subposet.edge_maximal_s": ("s", "lower", ("self", "subposet.edge_maximal")),
    "subposet.edge_maximal.seqs": ("count", "higher", ("count", "subposet.edge_maximal.seqs")),
    "graphs.toughness_s": ("s", "lower", ("total", "graphs.toughness")),
    "graphs.toughness.calls": ("count", "lower", ("count", "graphs.toughness.calls")),
    "graphs.is_t_tough_s": ("s", "lower", ("total", "graphs.is_t_tough")),
    "graphs.is_k_connected_s": ("s", "lower", ("total", "graphs.is_k_connected")),
    "graphs.is_hamiltonian_s": ("s", "lower", ("total", "graphs.is_hamiltonian")),
    "graphs.build_s": ("s", "lower", ("total", "graphs.build")),
    "subposet.enumerate_family_s": ("s", "lower", ("total", "subposet.enumerate_family")),
    "subposet.family_size": ("count", "higher", ("count", "subposet.family_size")),
    "subposet.compute_sinks_s": ("s", "lower", ("total", "subposet.compute_sinks")),
    "subposet.compute_sinks.inputs": ("count", "lower", ("count", "subposet.compute_sinks.inputs")),
    "subposet.sinks": ("count", "higher", ("count", "subposet.sinks")),
    "subposet.sinks_per_input": ("ratio", "higher", ("ratio", "subposet.sinks", "subposet.compute_sinks.inputs")),
    "subposet.claims_s": ("s", "lower", ("self", "subposet.subposet_report")),
    "subposet.generate_best_monotone_s": ("s", "lower", ("total", "subposet.generate_best_monotone")),
    "conditions.blocking_condition_s": ("s", "lower", ("total", "conditions.blocking_condition")),
    "partitions.enumerate_s": ("s", "lower", ("total", "partitions.enumerate")),
    "partitions.count_s": ("s", "lower", ("total", "partitions.count")),
    "partitions.partitions": ("count", "higher", ("count", "partitions.partitions")),
    "checkers.tough_ge1_s": ("s", "lower", ("total", "checkers.tough_ge1")),
    "checkers.tough_le1_s": ("s", "lower", ("total", "checkers.tough_le1")),
    "checkers.hamiltonian_s": ("s", "lower", ("total", "checkers.hamiltonian")),
    "checkers.kconnected_s": ("s", "lower", ("total", "checkers.kconnected")),
    "checkers.declared_ratio": ("ratio", "higher", ("ratio", "checkers.declared", "checkers.verdicts")),
    "sequences.parse_s": ("s", "lower", ("total", "sequences.parse")),
    "sequences.is_graphical_s": ("s", "lower", ("total", "sequences.is_graphical")),
    "sequences.is_graphical.calls": ("count", "lower", ("count", "sequences.is_graphical.calls")),
    "cli.main_s": ("s", "lower", ("total", "cli.main")),
    "cli.self_s": ("s", "lower", ("self", "cli.main")),
    "cli.output_bytes": ("bytes", "lower", ("count", "cli.output_bytes")),
    "trace.op_p50_s": ("s", "lower", ("op_p50",)),
    "trace.overhead_ratio": ("ratio", "lower", ("overhead",)),
}


def span_times(spans) -> tuple[Counter, Counter, Counter]:
    """Total time, self time and span count per span name."""
    total: Counter = Counter()
    self_time: Counter = Counter()
    calls: Counter = Counter()
    for name, start, end, parent, _ in spans:
        dur = end - start
        total[name] += dur
        self_time[name] += dur
        calls[name] += 1
        if parent is not None:
            self_time[spans[parent][0]] -= dur
    return total, self_time, calls


def per_layer_metrics(spans, counts, op_latencies, span_cost_s, probe_spans) -> dict:
    """Per-layer metrics of a traced run.

    A time whose spans never occur in the workload's operations reads
    as the layer probe's time for the same span, so every time is a
    measurement rather than a constant 0; counts never include the probe.
    """
    total, self_time, calls = span_times(spans)
    p_total, p_self, _ = span_times(probe_spans)
    busy = sum(op_latencies)
    out = {}
    for metric, (unit, _, how) in PER_LAYER.items():
        kind = how[0]
        if kind in ("total", "self"):
            name = how[1]
            if calls[name]:
                value = (total if kind == "total" else self_time)[name]
            else:
                value = (p_total if kind == "total" else p_self)[name]
        elif kind == "count":
            value = counts.get(how[1], 0)
        elif kind == "ratio":
            den = counts.get(how[2], 0)
            value = counts.get(how[1], 0) / den if den else 0.0
        elif kind == "op_p50":
            value = statistics.median(op_latencies)
        else:
            value = span_cost_s * len(spans) / busy if busy else 0.0
        out[metric] = {"value": value, "unit": unit}
    return out
