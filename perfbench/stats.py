"""Metric aggregation: percentiles, spreads, match quality, per-layer table.

Per-layer metrics are normalised *per traced round* (the workload's fixed
unit of work: the three-city table run on ``tables``, one fleet on
``gps-ingest``, one block of requests on ``serve-zipf``), so times and
counts compare across runs of different length.  Ratios are ratios of sums
over all traced rounds, never means of per-round ratios.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from .spans import self_times

__all__ = ["percentile", "quartile_spread", "edge_f1", "ratio",
           "allowed_loss", "quality_floors", "quality_problems",
           "SELF_TIMES", "layer_metrics"]


def percentile(values, q):
    """``q``-th percentile (linear interpolation) of a non-empty sequence."""
    if len(values) == 0:
        raise ValueError("percentile of an empty sequence")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def quartile_spread(values):
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles(n=4)`` gives."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else math.inf


def edge_f1(matched, truth):
    """Edge-level F1 of a matched path against the true path (edge sets)."""
    matched, truth = set(matched), set(truth)
    overlap = len(matched & truth)
    if overlap == 0:
        return 0.0
    precision = overlap / len(matched)
    recall = overlap / len(truth)
    return 2.0 * precision * recall / (precision + recall)


def ratio(numerator, denominator):
    """``numerator / denominator``, 0.0 when nothing was measured."""
    return numerator / denominator if denominator else 0.0


def allowed_loss(limit, reference):
    """How far a quality value may get worse than ``reference``."""
    tolerance = limit["tolerance"]
    return tolerance * abs(reference) if limit.get("relative") else tolerance


def _gain(limit, value, reference):
    """``value - reference`` signed so that positive means better."""
    return value - reference if limit["better"] == "higher" else reference - value


def quality_floors(references, limits):
    """Worst value any seed may reach: the worst reference widened by its loss.

    ``references`` is a list of ``{metric: value}`` dicts, one per seed.
    """
    floors = {}
    for name, limit in limits.items():
        values = [ref[name] for ref in references if name in ref]
        if not values:
            continue
        pick = min if limit["better"] == "higher" else max
        worst = pick(values)
        step = allowed_loss(limit, worst)
        floors[name] = worst - step if limit["better"] == "higher" else worst + step
    return floors


def quality_problems(values, reference, limits, floors):
    """Messages for quality values that are non-finite or got too much worse.

    Each value must be finite and no worse than its floor; when
    ``reference`` (the values recorded for the same workload and seed) is
    given, it may also be no worse than that by more than its tolerance.
    """
    problems = []
    for name, limit in limits.items():
        if name not in values:
            continue
        value = values[name]
        if not math.isfinite(value):
            problems.append(f"{name} is not finite: {value}")
            continue
        if name in floors and _gain(limit, value, floors[name]) < 0:
            problems.append(f"{name} {value:.6g} is worse than the floor "
                            f"{floors[name]:.6g}")
        if reference is not None and name in reference:
            expected = reference[name]
            if _gain(limit, value, expected) < -allowed_loss(limit, expected):
                problems.append(
                    f"{name} {value:.6g} is worse than the reference "
                    f"{expected:.6g} by more than {allowed_loss(limit, expected):.3g}")
    return problems


#: Self-time metric -> span or leaf-timer name.
SELF_TIMES = {
    "roadnet.ksp_s": "roadnet.ksp",
    "roadnet.dijkstra_s": "roadnet.dijkstra",
    "trajectory.simulate_s": "trajectory.simulate",
    "trajectory.match_s": "trajectory.match",
    "graph.walks_s": "graph.walks",
    "graph.sgns_s": "graph.sgns",
    "core.expert_s": "core.expert",
    "core.difficulty_s": "core.difficulty",
    "core.train_step_s": "core.train_step",
    "core.backward_s": "core.backward",
    "core.encode_s": "core.encode",
    "serving.self_s": "serving.embed",
    "downstream.gbm_fit_s": "downstream.gbm_fit",
    "downstream.tree_fit_s": "downstream.tree_fit",
    "downstream.gbm_predict_s": "downstream.gbm_predict",
    "downstream.metrics_s": "downstream.metrics",
    "datasets.build_s": "datasets.build",
    "datasets.tasks_s": "datasets.tasks",
}

#: Call-count metric -> span name.
_SPAN_COUNTS = {
    "roadnet.ksp_calls": "roadnet.ksp",
    "core.train_steps": "core.train_step",
    "core.encode_calls": "core.encode",
    "downstream.trees": "downstream.tree_fit",
}

#: Plain counters reported as they are named.
_COUNTERS = ("roadnet.spur_searches", "trajectory.trips", "trajectory.fixes",
             "trajectory.stitch_searches", "graph.walk_count",
             "core.encode_paths")


def layer_metrics(tracer, rounds, dijkstra, serving, final_loss,
                  overhead_share):
    """Every per-layer metric, per traced round.

    ``dijkstra`` holds the summed ``DijkstraCache`` ``hits``/``misses`` and
    ``serving`` the summed scrape counters (``requests``, ``batches``,
    ``real_steps``, ``padded_steps``, ``cache_hits``, ``cache_misses``,
    ``cache_evictions``) of the traced rounds.  ``bench.remainder_s`` is the
    part of a traced round no named layer covers, so the self times plus
    the remainder add up to ``bench.round_s``.
    """
    if rounds < 1:
        raise ValueError("need at least one traced round")
    own = self_times(tracer.spans, tracer.leaf_totals)
    spans = tracer.span_counts()
    counts = tracer.counts
    metrics = {metric: own.get(source, 0.0) / rounds
               for metric, source in SELF_TIMES.items()}
    metrics.update({metric: spans.get(source, 0) / rounds
                    for metric, source in _SPAN_COUNTS.items()})
    metrics.update({name: counts.get(name, 0) / rounds for name in _COUNTERS})

    lookups = dijkstra["hits"] + dijkstra["misses"]
    metrics["roadnet.dijkstra_lookups"] = lookups / rounds
    metrics["roadnet.dijkstra_hit_rate"] = ratio(dijkstra["hits"], lookups)
    metrics["trajectory.match_empty_share"] = ratio(
        counts.get("trajectory.match_empty", 0),
        counts.get("trajectory.match_traces", 0))

    metrics["serving.requests"] = serving["requests"] / rounds
    metrics["serving.batches"] = serving["batches"] / rounds
    metrics["serving.mean_batch_paths"] = ratio(
        counts.get("serving.batch_paths", 0), serving["batches"])
    metrics["serving.padding_efficiency"] = ratio(
        serving["real_steps"], serving["padded_steps"])
    metrics["serving.cache_hit_rate"] = ratio(
        serving["cache_hits"], serving["cache_hits"] + serving["cache_misses"])
    metrics["serving.cache_evictions"] = serving["cache_evictions"] / rounds

    metrics["core.final_loss"] = final_loss
    metrics["bench.trace_overhead_share"] = overhead_share
    round_s = sum(s.duration for s in tracer.spans if s.parent is None) / rounds
    metrics["bench.round_s"] = round_s
    metrics["bench.remainder_s"] = round_s - sum(
        metrics[metric] for metric in SELF_TIMES)
    return metrics
