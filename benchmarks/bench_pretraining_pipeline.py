"""Pretraining data-pipeline throughput: stage x impl.

Times the three stages that feed node2vec and the trip corpus — biased walk
generation, skip-gram corpus extraction (pairs + noise distribution), and
candidate trip pricing — and emits a run-table JSON in the experiment-runner
style.  Rows marked ``impl = "reference"`` run the per-step loop oracles from
``tests/oracles.py``; ``impl = "vectorized"`` is the CSR lockstep walker, the
strided-window corpus and the batched continuous pricing; ``impl = "grid"``
(pricing only) gathers speeds from the per-edge x time-slot matrix.  Each
non-reference row's ``speedup`` is wall time against the reference row of
the same stage.

Run-table schema (``--out`` / stdout)::

    {
      "schema": "pretraining-pipeline-run-table/v1",
      "workload": {"temporal_nodes", "walks_per_node", "walk_length",
                   "window", "pricing_paths", "city"},
      "rows": [{"stage", "impl", "seconds", "items", "items_per_s",
                "peak_rss_mb", "rss_end_mb", "speedup"}]
    }

``--check`` additionally gates the PR's acceptance criteria on the 2016-node
temporal graph: vectorized walk generation >= 5x and corpus extraction >= 5x
the reference loops, SGNS embeddings bit-identical between corpus impls,
batched pricing exactly equal to the per-edge loop, and grid pricing within
2% of it.

Usage::

    PYTHONPATH=src python benchmarks/bench_pretraining_pipeline.py          # full grid
    PYTHONPATH=src python benchmarks/bench_pretraining_pipeline.py --smoke  # CI smoke
    PYTHONPATH=src python benchmarks/bench_pretraining_pipeline.py --check  # assert gates
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from _common import attach_speedups, make_row  # also puts src/ and tests/ on sys.path

import numpy as np
from oracles import engine, reference_path_travel_times

from repro.datasets import DatasetScale, build_city_dataset
from repro.graph import RandomWalker, SkipGramTrainer
from repro.temporal import build_temporal_graph


def bench_walks(graph, walks_per_node, walk_length, seed=0):
    """Walk generation, both impls; returns (rows, vectorized corpus)."""
    rows = []
    corpus = None
    for impl in ("reference", "vectorized"):
        walker = RandomWalker(graph.neighbors, graph.num_nodes, p=2.0, q=0.5,
                              seed=seed)
        with engine(impl, "walks"):
            started = time.perf_counter()
            walks = walker.generate_walks(walks_per_node, walk_length)
            seconds = time.perf_counter() - started
        rows.append(make_row("walks", impl, seconds, len(walks)))
        if impl == "vectorized":
            corpus = walks
    return rows, corpus


def bench_corpus(corpus, num_nodes, window, seed=0):
    """Pair extraction + noise distribution over one fixed walk corpus."""
    rows = []
    for impl in ("reference", "vectorized"):
        trainer = SkipGramTrainer(num_nodes=num_nodes, dim=8, window=window,
                                  seed=seed)
        with engine(impl, "sgns"):
            started = time.perf_counter()
            pairs = trainer._pairs(corpus)
            trainer._noise_counts(corpus)
            seconds = time.perf_counter() - started
        rows.append(make_row("corpus", impl, seconds, int(pairs.shape[0])))
    return rows


def build_pricing_workload(city_name, scale, seed=0):
    """A city plus a bank of real candidate paths and one departure time."""
    city = build_city_dataset(city_name, scale=scale, seed=seed)
    paths = []
    for trip in city.trips:
        paths.append(list(trip.path))
        paths.extend(list(alt) for alt in trip.alternatives)
    departure_time = city.trips[0].departure_time
    return city, paths, departure_time


def bench_pricing(city, paths, departure_time):
    rows = []
    model = city.speed_model
    model.slot_speed_matrix()  # build the grid outside the timed region

    started = time.perf_counter()
    looped = reference_path_travel_times(model, paths, departure_time)
    rows.append(make_row("pricing", "reference",
                         time.perf_counter() - started, len(paths)))

    started = time.perf_counter()
    batched = model.path_travel_times(paths, departure_time)
    rows.append(make_row("pricing", "vectorized",
                         time.perf_counter() - started, len(paths)))

    started = time.perf_counter()
    grid = model.path_travel_times(paths, departure_time, grid=True)
    rows.append(make_row("pricing", "grid",
                         time.perf_counter() - started, len(paths)))
    return rows, looped, batched, grid


def check_sgns_equivalence(corpus, num_nodes, window, seed=0):
    """Oracle vs vectorized corpus must train bit-identical embeddings."""
    sample = corpus[:200]

    def train(impl):
        trainer = SkipGramTrainer(num_nodes=num_nodes, dim=8, window=window,
                                  negatives=3, seed=seed)
        with engine(impl, "sgns"):
            return trainer.train(sample, epochs=1)

    reference = train("reference")
    vectorized = train("vectorized")
    if not np.array_equal(reference, vectorized):
        return ["SGNS embeddings differ between corpus impls"]
    print(f"  SGNS embeddings bit-identical over {len(sample)} walks")
    return []


def format_table(rows):
    header = (f"{'stage':>10} {'impl':>11} {'seconds':>9} {'items':>9} "
              f"{'items/s':>11} {'rss MB':>8} {'speedup':>8}")
    lines = [header, "-" * len(header)]
    for row in rows:
        speedup = f"{row['speedup']:.2f}x" if row.get("speedup") else "(base)"
        lines.append(
            f"{row['stage']:>10} {row['impl']:>11} {row['seconds']:>9.3f} "
            f"{row['items']:>9} {row['items_per_s']:>11.0f} "
            f"{row['rss_end_mb']:>8.1f} {speedup:>8}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced temporal graph and corpus (CI smoke)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the run-table JSON here (stdout otherwise)")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero unless vectorized walks and corpus "
                             "reach 5x the reference on the 2016-node graph "
                             "and the equivalence gates hold")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if args.smoke:
        slots_per_day, walks_per_node, walk_length, window = 48, 1, 15, 4
        scale = DatasetScale.tiny()
    else:
        slots_per_day, walks_per_node, walk_length, window = 288, 2, 20, 5
        scale = DatasetScale.benchmark()
    if args.check and args.smoke:
        print("ERROR: --check needs the full 2016-node temporal graph "
              "(do not combine with --smoke)", file=sys.stderr)
        return 1

    graph = build_temporal_graph(slots_per_day=slots_per_day)
    print(f"temporal graph: {graph.num_nodes} nodes, {graph.num_edges} edges; "
          f"{walks_per_node} walks/node x length {walk_length}", flush=True)

    rows, corpus = bench_walks(graph, walks_per_node, walk_length, seed=args.seed)
    corpus_rows = bench_corpus(corpus, graph.num_nodes, window, seed=args.seed)
    rows.extend(corpus_rows)

    city, paths, departure_time = build_pricing_workload(
        "aalborg", scale, seed=args.seed)
    print(f"pricing workload: {len(paths)} candidate paths over "
          f"{city.network.num_edges} edges ({city.name})", flush=True)
    pricing_rows, looped, batched, grid = bench_pricing(city, paths, departure_time)
    rows.extend(pricing_rows)

    attach_speedups(rows)

    table = {
        "schema": "pretraining-pipeline-run-table/v1",
        "workload": {
            "temporal_nodes": graph.num_nodes,
            "walks_per_node": walks_per_node,
            "walk_length": walk_length,
            "window": window,
            "pricing_paths": len(paths),
            "city": city.name,
        },
        "rows": rows,
    }

    print()
    print(format_table(rows))

    if args.out is not None:
        args.out.write_text(json.dumps(table, indent=2))
        print(f"run table written to {args.out}")
    else:
        print(json.dumps(table, indent=2))

    failures = []
    if not np.array_equal(batched, looped):
        failures.append("batched pricing differs from the per-edge loop")
    grid_rel = np.max(np.abs(grid - looped) / looped) if len(paths) else 0.0
    print(f"\ngrid pricing max relative error vs continuous: {grid_rel:.4f}")
    if grid_rel > 0.02:
        failures.append(f"grid pricing off by {grid_rel:.2%} (expected <= 2%)")

    for stage in ("walks", "corpus"):
        gated = [row for row in rows
                 if row["stage"] == stage and row["impl"] == "vectorized"]
        for row in gated:
            print(f"{stage}: vectorized {row['speedup']:.2f}x over the loop "
                  f"reference")
            if args.check and row["speedup"] < 5.0:
                failures.append(
                    f"vectorized {stage} reached only {row['speedup']:.2f}x "
                    f"(expected >= 5x)")

    if args.check:
        print("\nchecking SGNS corpus-impl equivalence...", flush=True)
        failures.extend(check_sgns_equivalence(corpus, graph.num_nodes, window,
                                               seed=args.seed))

    for failure in failures:
        print(f"WARNING: {failure}", file=sys.stderr)
    if args.check and failures:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
