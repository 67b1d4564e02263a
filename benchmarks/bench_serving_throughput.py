"""Serving throughput benchmark: the service at each batch size vs per-path encoding.

Measures the :class:`~repro.serving.PathEmbeddingService` against the
per-path baseline (one ``model.encode([tp])`` call per request path) on a
synthetic workload, and emits a run-table JSON in the experiment-runner
style: one row per batch size with throughput, latency percentiles, cache
hit rate, padding efficiency and speedup.

Run-table schema (``--out`` / stdout)::

    {
      "schema": "serving-throughput-run-table/v2",
      "workload": {"total_paths", "unique_paths", "num_requests",
                   "request_size", "length_min", "length_mean", "length_max"},
      "baseline": {"label", "seconds", "throughput_paths_per_s"},
      "rows": [{"batch_size", "seconds", "throughput_paths_per_s",
                "latency_p50_ms", "latency_p95_ms", "cache_hit_rate",
                "padding_efficiency", "speedup"}]
    }

Usage::

    PYTHONPATH=src python benchmarks/bench_serving_throughput.py          # full grid
    PYTHONPATH=src python benchmarks/bench_serving_throughput.py --quick  # CI smoke
    PYTHONPATH=src python benchmarks/bench_serving_throughput.py --out table.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core import SharedResources, WSCCLConfig, WSCModel
from repro.datasets import DatasetScale, aalborg
from repro.serving import PathEmbeddingService


def build_workload(total_paths, seed=0):
    """A request stream over the tiny synthetic Aalborg corpus.

    Temporal paths are sampled with replacement, so the stream mixes path
    lengths and repeats requests the way real traffic does (the repeats are
    what the cache serves).
    """
    city = aalborg(scale=DatasetScale.tiny())
    corpus = list(city.unlabeled.temporal_paths)
    rng = np.random.default_rng(seed)
    workload = [corpus[i] for i in rng.integers(0, len(corpus), size=total_paths)]
    model = WSCModel(
        city.network, WSCCLConfig.test_scale(),
        resources=SharedResources(city.network, WSCCLConfig.test_scale()))
    return model, workload


def run_baseline(model, workload):
    """Per-path encoding: the pre-serving behaviour every row is compared to."""
    started = time.perf_counter()
    for tp in workload:
        model.encode([tp])
    seconds = time.perf_counter() - started
    return {
        "label": "per-path model.encode",
        "seconds": seconds,
        "throughput_paths_per_s": len(workload) / seconds,
    }


def run_configuration(model, workload, batch_size, request_size):
    service = PathEmbeddingService(model, max_batch_size=batch_size,
                                   cache_capacity=max(64, len(workload)))
    started = time.perf_counter()
    for start in range(0, len(workload), request_size):
        service.embed(workload[start:start + request_size])
    seconds = time.perf_counter() - started
    scraped = service.scrape()
    return {
        "batch_size": batch_size,
        "seconds": seconds,
        "throughput_paths_per_s": len(workload) / seconds,
        "latency_p50_ms": scraped["latency_p50_ms"],
        "latency_p95_ms": scraped["latency_p95_ms"],
        "cache_hit_rate": scraped["cache_hit_rate"],
        "padding_efficiency": scraped["padding_efficiency"],
    }


def format_table(baseline, rows):
    header = (f"{'batch':>6} {'paths/s':>10} "
              f"{'p50 ms':>8} {'p95 ms':>8} {'hit%':>6} {'pad eff':>8} {'speedup':>8}")
    lines = [header, "-" * len(header)]
    lines.append(f"{'1':>6} "
                 f"{baseline['throughput_paths_per_s']:>10.1f} "
                 f"{'':>8} {'':>8} {'':>6} {'':>8} {'1.00x':>8}  <- per-path baseline")
    for row in rows:
        lines.append(
            f"{row['batch_size']:>6} "
            f"{row['throughput_paths_per_s']:>10.1f} "
            f"{row['latency_p50_ms']:>8.2f} {row['latency_p95_ms']:>8.2f} "
            f"{100 * row['cache_hit_rate']:>5.1f}% "
            f"{row['padding_efficiency']:>8.3f} {row['speedup']:>7.2f}x")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small workload and one batch size (CI smoke)")
    parser.add_argument("--paths", type=int, default=None,
                        help="total request paths (overrides --quick default)")
    parser.add_argument("--request-size", type=int, default=50,
                        help="paths per service request")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the run-table JSON here (stdout otherwise)")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero unless serving reaches "
                             "2x the per-path baseline")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    total_paths = args.paths or (120 if args.quick else 600)
    if total_paths < 1 or args.request_size < 1:
        parser.error("--paths and --request-size must be >= 1")
    batch_sizes = [32] if args.quick else [16, 64]

    print(f"building workload ({total_paths} paths)...", flush=True)
    model, workload = build_workload(total_paths, seed=args.seed)
    lengths = [len(tp) for tp in workload]

    print("timing per-path baseline...", flush=True)
    baseline = run_baseline(model, workload)

    rows = []
    for batch_size in batch_sizes:
        row = run_configuration(model, workload, batch_size, args.request_size)
        row["speedup"] = (row["throughput_paths_per_s"]
                          / baseline["throughput_paths_per_s"])
        rows.append(row)
        print(f"  batch={batch_size:<3} "
              f"-> {row['throughput_paths_per_s']:8.1f} paths/s "
              f"({row['speedup']:.2f}x)", flush=True)

    table = {
        "schema": "serving-throughput-run-table/v2",
        "workload": {
            "total_paths": total_paths,
            "unique_paths": len({(tp.path, tp.departure_time.slot_index)
                                 for tp in workload}),
            "num_requests": -(-total_paths // args.request_size),
            "request_size": args.request_size,
            "length_min": int(min(lengths)),
            "length_mean": float(np.mean(lengths)),
            "length_max": int(max(lengths)),
        },
        "baseline": baseline,
        "rows": rows,
    }

    print()
    print(format_table(baseline, rows))

    best = max(rows, key=lambda row: row["speedup"])
    print(f"\nbest batch size: {best['batch_size']} "
          f"-> {best['speedup']:.2f}x over per-path encoding")

    if args.out is not None:
        args.out.write_text(json.dumps(table, indent=2))
        print(f"run table written to {args.out}")
    else:
        print(json.dumps(table, indent=2))

    if best["speedup"] < 2.0:
        print("WARNING: serving did not reach the expected 2x speedup",
              file=sys.stderr)
        if args.check:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
