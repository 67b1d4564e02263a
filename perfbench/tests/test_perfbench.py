"""Tests of the benchmark's own arithmetic: span self times and aggregation."""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from perfbench.spans import Span, Tracer, instrument, self_times  # noqa: E402
from perfbench.stats import (  # noqa: E402
    SELF_TIMES,
    edge_f1,
    layer_metrics,
    percentile,
    quality_floors,
    quality_problems,
    quartile_spread,
    ratio,
)

NO_DIJKSTRA = {"hits": 0, "misses": 0}
NO_SERVING = dict.fromkeys(("requests", "batches", "real_steps", "padded_steps",
                            "cache_hits", "cache_misses", "cache_evictions"), 0)


def make_span(span_id, name, start, end, parent=None, leaf_s=0.0):
    span = Span(span_id, name, start, parent, "run")
    span.end = end
    span.leaf_s = leaf_s
    return span


def test_self_time_subtracts_children_and_leaf_time():
    spans = [
        make_span(0, "bench.round", 0.0, 10.0),
        make_span(1, "core.train_step", 1.0, 4.0, parent=0, leaf_s=0.5),
        make_span(2, "core.encode", 2.0, 3.0, parent=1),
        make_span(3, "downstream.gbm_fit", 5.0, 9.0, parent=0),
    ]
    own = self_times(spans, {"core.backward": 0.5})
    assert own == pytest.approx({"bench.round": 3.0, "core.train_step": 1.5,
                                 "core.encode": 1.0, "downstream.gbm_fit": 4.0,
                                 "core.backward": 0.5})
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_sums_repeated_names():
    spans = [
        make_span(0, "bench.round", 0.0, 6.0),
        make_span(1, "roadnet.ksp", 0.0, 1.0, parent=0),
        make_span(2, "roadnet.ksp", 2.0, 4.0, parent=0),
    ]
    assert self_times(spans)["roadnet.ksp"] == pytest.approx(3.0)
    assert self_times(spans)["bench.round"] == pytest.approx(3.0)


def test_tracer_links_parents_and_attributes_leaf_time():
    tracer = Tracer()
    tracer.run_id = "r0"
    with tracer.span("outer") as outer:
        assert tracer.innermost == "outer"
        with tracer.span("inner") as inner:
            tracer.leaf("hot", 0.25)
        tracer.leaf("hot", 0.5)
    assert tracer.innermost is None
    assert inner.parent == outer.id and outer.parent is None
    assert inner.leaf_s == 0.25 and outer.leaf_s == 0.5
    assert tracer.leaf_totals["hot"] == 0.75
    assert {s.run_id for s in tracer.spans} == {"r0"}
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_tracer_rejects_out_of_order_close():
    tracer = Tracer()
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def two_round_tracer():
    tracer = Tracer()
    tracer.spans = [
        make_span(0, "bench.round", 0.0, 4.0),
        make_span(1, "roadnet.ksp", 0.5, 1.5, parent=0),
        make_span(2, "downstream.tree_fit", 2.0, 3.0, parent=0, leaf_s=0.25),
        make_span(3, "bench.round", 10.0, 16.0),
        make_span(4, "roadnet.ksp", 10.0, 13.0, parent=3),
    ]
    tracer.leaf_totals["core.backward"] = 0.25
    tracer.counts.update({"roadnet.spur_searches": 30, "trajectory.match_empty": 1,
                          "trajectory.match_traces": 4})
    return tracer


def test_layer_metrics_are_per_round_and_add_up():
    serving = dict(NO_SERVING, requests=10, batches=4, real_steps=30,
                   padded_steps=40, cache_hits=3, cache_misses=1,
                   cache_evictions=2)
    metrics = layer_metrics(two_round_tracer(), 2, {"hits": 9, "misses": 1},
                            serving, final_loss=0.5, overhead_share=0.01)
    assert metrics["bench.round_s"] == pytest.approx(5.0)
    assert metrics["roadnet.ksp_s"] == pytest.approx(2.0)
    assert metrics["roadnet.ksp_calls"] == 1.0
    assert metrics["roadnet.spur_searches"] == 15.0
    assert metrics["downstream.tree_fit_s"] == pytest.approx(0.375)
    assert metrics["core.backward_s"] == pytest.approx(0.125)
    assert metrics["roadnet.dijkstra_lookups"] == 5.0
    assert metrics["roadnet.dijkstra_hit_rate"] == pytest.approx(0.9)
    assert metrics["trajectory.match_empty_share"] == pytest.approx(0.25)
    assert metrics["serving.padding_efficiency"] == pytest.approx(0.75)
    assert metrics["serving.cache_hit_rate"] == pytest.approx(0.75)
    assert metrics["serving.cache_evictions"] == 1.0
    named = sum(metrics[name] for name in SELF_TIMES)
    assert named + metrics["bench.remainder_s"] == pytest.approx(metrics["bench.round_s"])
    assert metrics["bench.remainder_s"] == pytest.approx(2.5)


def test_layer_metrics_report_zero_for_bypassed_layers():
    metrics = layer_metrics(two_round_tracer(), 2, NO_DIJKSTRA, NO_SERVING,
                            final_loss=0.0, overhead_share=0.0)
    assert metrics["serving.cache_hit_rate"] == 0.0
    assert metrics["roadnet.dijkstra_hit_rate"] == 0.0
    assert metrics["graph.sgns_s"] == 0.0
    with pytest.raises(ValueError):
        layer_metrics(Tracer(), 0, NO_DIJKSTRA, NO_SERVING, 0.0, 0.0)


def test_layer_metrics_cover_the_contract():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = layer_metrics(two_round_tracer(), 2, NO_DIJKSTRA, NO_SERVING,
                            final_loss=0.0, overhead_share=0.0)
    assert sorted(metrics) == sorted(m["name"] for m in contract["per_layer"])


def test_spread_and_percentiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / median)
    assert percentile(values, 50) == pytest.approx(5.5)
    assert percentile(list(range(101)), 99) == pytest.approx(99.0)
    with pytest.raises(ValueError):
        percentile([], 50)
    assert ratio(1, 0) == 0.0 and ratio(1, 4) == 0.25


def test_edge_f1():
    assert edge_f1([1, 2, 3], [1, 2, 3]) == 1.0
    assert edge_f1([], [1, 2]) == 0.0
    assert edge_f1([1, 2], [3, 4]) == 0.0
    # precision 2/4, recall 2/2
    assert edge_f1([1, 2, 5, 6], [1, 2]) == pytest.approx(2 * 0.5 / 1.5)


LIMITS = {
    "tt_mae_s": {"better": "lower", "tolerance": 0.2, "relative": True},
    "match_edge_f1": {"better": "higher", "tolerance": 0.02},
}


def test_quality_floors_widen_the_worst_reference():
    references = [{"tt_mae_s": 40.0, "match_edge_f1": 0.97},
                  {"tt_mae_s": 50.0, "match_edge_f1": 0.96}]
    floors = quality_floors(references, LIMITS)
    assert floors == pytest.approx({"tt_mae_s": 60.0, "match_edge_f1": 0.94})


def test_quality_problems_flag_losses_beyond_tolerance_only():
    reference = {"tt_mae_s": 40.0, "match_edge_f1": 0.97}
    floors = {"tt_mae_s": 60.0, "match_edge_f1": 0.94}
    # Within tolerance, or better than the reference: no problem.
    assert quality_problems({"tt_mae_s": 47.9, "match_edge_f1": 0.951},
                            reference, LIMITS, floors) == []
    assert quality_problems({"tt_mae_s": 20.0, "match_edge_f1": 1.0},
                            reference, LIMITS, floors) == []
    # MAE +50% and F1 0.97 -> 0.5 both fail, against reference and floor.
    problems = quality_problems({"tt_mae_s": 60.5, "match_edge_f1": 0.5},
                                reference, LIMITS, floors)
    assert len(problems) == 4
    # Without a reference for the seed only the floors apply.
    assert len(quality_problems({"tt_mae_s": 59.0, "match_edge_f1": 0.5},
                                None, LIMITS, floors)) == 1
    assert quality_problems({"tt_mae_s": float("nan")}, None, LIMITS,
                            floors) == ["tt_mae_s is not finite: nan"]


def test_stored_quality_references_pass_their_own_gate():
    stored = json.loads((ROOT / "perfbench" / "quality.json").read_text())
    assert set(stored["floors"]) == set(stored["limits"])
    for by_seed in stored["reference"].values():
        for values in by_seed.values():
            assert quality_problems(values, values, stored["limits"],
                                    stored["floors"]) == []


def test_instrument_traces_gbm_and_restores_originals():
    from repro.downstream import gbm, tree

    fit, tree_fit = gbm.GradientBoostingRegressor.fit, tree.DecisionTreeRegressor.fit
    rng = np.random.default_rng(0)
    features, targets = rng.normal(size=(40, 3)), rng.normal(size=40)
    tracer = Tracer()
    with instrument(tracer), tracer.span("bench.round"):
        model = gbm.GradientBoostingRegressor(n_estimators=4).fit(features, targets)
        model.predict(features)
    assert gbm.GradientBoostingRegressor.fit is fit
    assert tree.DecisionTreeRegressor.fit is tree_fit
    counts = tracer.span_counts()
    assert counts["downstream.gbm_fit"] == 1
    assert counts["downstream.tree_fit"] == 4
    assert counts["downstream.gbm_predict"] == 1
    fits = [s for s in tracer.spans if s.name == "downstream.tree_fit"]
    parent = next(s for s in tracer.spans if s.name == "downstream.gbm_fit")
    assert all(s.parent == parent.id for s in fits)
    own = self_times(tracer.spans, tracer.leaf_totals)
    assert sum(own.values()) == pytest.approx(tracer.spans[0].duration)


def test_request_stream_head_mixes_lengths_and_follows_the_seed():
    from perfbench.workloads import LENGTH_STRATA, RequestStream
    from repro.datasets import TemporalPath
    from repro.temporal import DepartureTime

    departure = DepartureTime(0, 3600.0)
    items = [TemporalPath(path=tuple(range(length)), departure_time=departure)
             for length in range(1, 81)]
    heads = []
    for seed in (1, 2):
        stream = RequestStream(items, seed)
        head_lengths = sorted(len(tp) for tp in stream.items[:LENGTH_STRATA])
        # One path from each length class, shortest class first.
        stratum = len(items) // LENGTH_STRATA
        assert [(n - 1) // stratum for n in head_lengths] == list(range(LENGTH_STRATA))
        requests = stream.take(50)
        assert all(1 <= len(r) <= 32 for r in requests)
        heads.append([[tp.path for tp in r] for r in requests])
    assert heads[0] != heads[1]
