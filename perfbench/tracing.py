"""Traced passes: spans around the calls into each rflcs layer.

``Tracer.install`` wraps every public function defined in a layer module
(plus ``RngStream.generator``) at every ``rflcs`` module attribute that
holds it, so the calls the program actually makes are timed wherever they
were imported by name.  The private ``_RfEngine`` is not wrapped, so a
rewrite of the solver internals cannot break the benchmark.

Spans (name, start, end, parent, run id) are kept in memory and written
out by run.py at the end.  Work counts are computed from call arguments,
so for a given seed they repeat exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

LAYERS = ("cli", "experiments", "solvers", "urns", "generators", "rng", "bounds", "model")


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str  # end-to-end metric this layer metric should move
    workload: str  # workload(s) where it is expected to matter


# The layer-metric -> end-to-end-metric -> workload map.  BENCHMARK.json's
# per_layer list repeats name, unit and better (a test keeps them equal).
PER_LAYER = (
    LayerMetric("solvers.rflcs_exact.calls", "count", "lower", "instances_per_s", "exact-sweep"),
    LayerMetric("solvers.rflcs_exact.busy_s", "s", "lower", "instances_per_s", "exact-sweep"),
    LayerMetric("solvers.rflcs_exact.p50_ms", "ms", "lower", "instances_per_s", "exact-sweep"),
    LayerMetric("solvers.rflcs_exact.states_per_s", "1/s", "higher", "instances_per_s", "exact-sweep"),
    LayerMetric("experiments.uniformity_test_exhaustive.busy_s", "s", "lower", "wall_s", "battery"),
    LayerMetric("experiments.uniformity_test_exhaustive.pairs_per_s", "1/s", "higher", "wall_s", "battery"),
    LayerMetric("solvers.lcs_length.calls", "count", "lower", "instances_per_s", "bracket-sweep"),
    LayerMetric("solvers.lcs_length.busy_s", "s", "lower", "instances_per_s", "bracket-sweep"),
    LayerMetric("solvers.lcs_length.p50_ms", "ms", "lower", "instances_per_s", "bracket-sweep"),
    LayerMetric("solvers.lcs_length.p90_ms", "ms", "lower", "instances_per_s", "bracket-sweep"),
    LayerMetric("solvers.lcs_length.cells_per_s", "1/s", "higher", "instances_per_s", "bracket-sweep"),
    LayerMetric("solvers.segment_merge_heuristic.calls", "count", "lower", "instances_per_s", "bracket-sweep"),
    LayerMetric("solvers.segment_merge_heuristic.busy_s", "s", "lower", "instances_per_s", "bracket-sweep"),
    LayerMetric("solvers.lis_indices.busy_s", "s", "lower", "instances_per_s", "bracket-sweep"),
    LayerMetric("solvers.degree_one_edges.busy_s", "s", "lower", "instances_per_s", "bracket-sweep"),
    LayerMetric("experiments.certified_fraction", "fraction", "higher", "none", "bracket-sweep"),
    LayerMetric("urns.classical_urn_empty_counts.calls", "count", "lower", "wall_s", "battery"),
    LayerMetric("urns.classical_urn_empty_counts.busy_s", "s", "lower", "wall_s,peak_rss_mb", "battery"),
    LayerMetric("urns.classical_urn_empty_counts.draws_per_s", "1/s", "higher", "wall_s", "battery"),
    LayerMetric("urns.grouped_urn_empty_counts.busy_s", "s", "lower", "wall_s", "battery"),
    LayerMetric("urns.grouped_urn_empty_counts.draws_per_s", "1/s", "higher", "wall_s", "battery"),
    LayerMetric("urns.grouped_urn_exact.busy_s", "s", "lower", "wall_s", "battery"),
    LayerMetric("urns.grouped_urn_exact.combinations_per_s", "1/s", "higher", "wall_s", "battery"),
    LayerMetric("urns.classical_urn_exact.busy_s", "s", "lower", "wall_s", "battery"),
    LayerMetric("generators.gen_uniform_pair.calls", "count", "lower", "instances_per_s", "bracket-sweep"),
    LayerMetric("generators.gen_uniform_pair.busy_s", "s", "lower", "instances_per_s", "bracket-sweep"),
    LayerMetric("generators.gen_uniform_pair.symbols_per_s", "1/s", "higher", "instances_per_s", "bracket-sweep"),
    LayerMetric("rng.RngStream.generator.calls", "count", "lower", "instances_per_s", "bracket-sweep"),
    LayerMetric("rng.RngStream.generator.busy_s", "s", "lower", "instances_per_s", "bracket-sweep"),
    LayerMetric("experiments.run_regime_sweep.self_s", "s", "lower", "wall_s", "all"),
    LayerMetric("cli.main.self_s", "s", "lower", "wall_s", "all"),
    LayerMetric("model.matching_from_edges.busy_s", "s", "lower", "wall_s", "all"),
    LayerMetric("bounds.calls", "count", "lower", "wall_s", "all"),
    LayerMetric("bounds.busy_s", "s", "lower", "wall_s", "all"),
    LayerMetric("solvers.capacity_errors", "count", "lower", "failed", "all"),
    LayerMetric("traced_wall_s", "s", "lower", "wall_s", "all"),
    LayerMetric("trace_overhead_s", "s", "lower", "none", "all"),
)

_SWEEP = "experiments.run_regime_sweep"
# Calls whose results pair up into per-trial (lower, upper) brackets.
_PAIRING = ("solvers.rflcs_exact", "solvers.segment_merge_heuristic", "solvers.lcs_length")


def _arg(bound, name):
    return bound.arguments[name]


def _exact_states(bound):
    inst = _arg(bound, "inst")
    return {"states": 2 ** len(set(inst.x) & set(inst.y))}


# Work counted per call, from the call's arguments.
WORK = {
    "solvers.rflcs_exact": _exact_states,
    "solvers.lcs_length": lambda b: {"cells": len(_arg(b, "x")) * len(_arg(b, "y"))},
    "experiments.uniformity_test_exhaustive": lambda b: {
        "pairs": _arg(b, "k") ** (2 * _arg(b, "n"))
    },
    "urns.classical_urn_empty_counts": lambda b: {"draws": _arg(b, "trials") * _arg(b, "s")},
    "urns.grouped_urn_empty_counts": lambda b: {"draws": _arg(b, "trials") * _arg(b, "spec").s},
    "urns.grouped_urn_exact": lambda b: {
        "combinations": math.prod(math.comb(_arg(b, "spec").k, si) for si in _arg(b, "spec").s_vec)
    },
    "generators.gen_uniform_pair": lambda b: {"symbols": 2 * _arg(b, "n")},
}


class Tracer:
    """Wraps rflcs functions and records spans for the current run id."""

    def __init__(self):
        self.runs: dict[str, list[list]] = {}
        self.work: dict[str, Counter] = defaultdict(Counter)
        self.certified: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self.capacity_errors: Counter = Counter()
        self.exact_results: list = []  # (run id, instance, SolveResult) to validate
        self.run_id = None
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._pending_lower = None
        self._patches: list[tuple[object, str, object]] = []

    def start_run(self, run_id: str) -> None:
        self.run_id = run_id
        self._spans = self.runs.setdefault(run_id, [])

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from rflcs.errors import CapacityError
        from rflcs.rng import RngStream

        modules = {name: importlib.import_module(f"rflcs.{name}") for name in LAYERS}
        targets = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    targets[obj] = f"{layer}.{attr}"
        targets[RngStream.generator] = "rng.RngStream.generator"
        wrappers = {fn: self._wrap(name, fn, CapacityError) for fn, name in targets.items()}
        holders = [importlib.import_module("rflcs"), *modules.values()]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        self._patch(RngStream, "generator", wrappers[RngStream.generator])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, fn, capacity_error):
        signature = inspect.signature(fn)
        work = WORK.get(name)
        layer = name.split(".", 1)[0]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            spans = self._spans
            index = len(spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            spans.append(span)
            self._stack.append(index)
            self._active[name] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except capacity_error as exc:
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    self.capacity_errors[f"{layer}.capacity_errors"] += 1
                raise
            finally:
                span[2] = clock()
                self._stack.pop()
                self._active[name] -= 1
            if work is not None or name in _PAIRING:
                self._after(name, signature.bind(*args, **kwargs), result, work)
            return result

        return functools.wraps(fn)(traced)

    def _after(self, name, bound, result, work) -> None:
        if work is not None:
            for key, value in work(bound).items():
                self.work[self.run_id][f"{name}.{key}"] += value
        in_sweep = self._active[_SWEEP] > 0
        certified = self.certified[self.run_id]
        if name == "solvers.rflcs_exact":
            self.exact_results.append((self.run_id, _arg(bound, "inst"), result))
            if in_sweep:  # exact estimator: lower == upper by construction
                certified[0] += 1
                certified[1] += 1
        elif name == "solvers.segment_merge_heuristic" and in_sweep:
            self._pending_lower = (_arg(bound, "inst"), result.length)
        elif name == "solvers.lcs_length" and self._pending_lower is not None:
            inst, lower = self._pending_lower
            self._pending_lower = None
            if _arg(bound, "x") is inst.x and _arg(bound, "y") is inst.y:
                upper = min(result.length, inst.k)
                certified[0] += lower == upper
                certified[1] += 1

    # -- analysis -------------------------------------------------------------

    def spans_record(self) -> dict:
        """All spans; ``parent`` indexes the spans of the same run id."""
        return {
            "fields": ["name", "start", "end", "parent", "run_id"],
            "spans": [
                [s[0], s[1], s[2], s[3], run_id]
                for run_id, spans in self.runs.items()
                for s in spans
            ],
        }


@dataclass
class RunStats:
    """Span totals for one traced pass."""

    calls: Counter
    busy: Counter
    self_time: Counter
    durations: dict
    layer_calls: Counter
    layer_busy: Counter


def run_stats(runs: list[list[list]]) -> RunStats:
    """Totals over the spans of several runs.  Busy time counts a span only
    when no ancestor has the same name (or, per layer, the same layer);
    self time is a span minus its children."""
    stats = RunStats(Counter(), Counter(), Counter(), defaultdict(list), Counter(), Counter())
    for spans in runs:
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            layer = name.split(".", 1)[0]
            ancestors = []
            while parent >= 0:
                ancestors.append(spans[parent][0])
                parent = spans[parent][3]
            stats.calls[name] += 1
            stats.durations[name].append(dur)
            stats.self_time[name] += dur - child_time[i]
            if name not in ancestors:
                stats.busy[name] += dur
            if not any(a.split(".", 1)[0] == layer for a in ancestors):
                stats.layer_calls[layer] += 1
                stats.layer_busy[layer] += dur
    return stats


def _percentile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, traced_ids, traced_walls, overheads) -> dict[str, float]:
    """Per-layer metrics over the traced passes (``traced_ids`` holds each
    pass's run ids): medians of per-pass values, percentiles of pooled call
    durations, pooled ratios and totals."""
    per_pass = [
        (run_stats([tracer.runs.get(r, []) for r in ids]), sum((tracer.work[r] for r in ids), Counter()))
        for ids in traced_ids
    ]
    all_ids = [r for ids in traced_ids for r in ids]
    certified = [sum(tracer.certified[r][i] for r in all_ids) for i in (0, 1)]
    out = {}
    for metric in PER_LAYER:
        name = metric.name
        prefix, _, stat = name.rpartition(".")
        if name == "experiments.certified_fraction":
            value = certified[0] / certified[1] if certified[1] else 0.0
        elif name.endswith(".capacity_errors"):
            value = tracer.capacity_errors[name]
        elif name == "traced_wall_s":
            value = statistics.median(traced_walls)
        elif name == "trace_overhead_s":
            value = statistics.median(overheads)
        elif stat in ("p50_ms", "p90_ms"):
            pooled = [d for st, _ in per_pass for d in st.durations.get(prefix, ())]
            value = 1000.0 * _percentile(pooled, int(stat[1:3]))
        else:
            value = statistics.median(_pass_value(st, work, prefix, stat) for st, work in per_pass)
        out[name] = value
    return out


def _pass_value(st: RunStats, work: Counter, prefix: str, stat: str) -> float:
    if "." not in prefix:  # whole layer, e.g. bounds.calls
        return {"calls": st.layer_calls, "busy_s": st.layer_busy}[stat][prefix]
    if stat == "calls":
        return st.calls[prefix]
    if stat == "busy_s":
        return st.busy[prefix]
    if stat == "self_s":
        return st.self_time[prefix]
    if stat.endswith("_per_s"):
        busy = st.busy[prefix]
        return work[f"{prefix}.{stat[: -len('_per_s')]}"] / busy if busy else 0.0
    raise KeyError(f"unknown layer statistic {stat!r}")
