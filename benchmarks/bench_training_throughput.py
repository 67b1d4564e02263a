"""Training throughput benchmark: batch size x encoder x dtype x impl.

Times ``WSCTrainer.train_step`` over a synthetic workload and emits a
run-table JSON in the experiment-runner style: one row per configuration
with steps/s, paths/s, per-step latency and memory (``peak_rss_mb`` is the
process-wide monotonic peak; ``rss_end_mb`` is the current RSS after the
row, the one to compare across rows).  Rows marked
``impl = "reference"`` run the loop oracles from ``tests/oracles.py``
(per-head attention, per-query contrastive losses, O(n²) contrast sets) in
float64; ``impl = "vectorized"`` rows run the 4-D attention / matrix-loss
fast path in the given dtype.  Each vectorized row's ``speedup`` is measured against the
loop-reference float64 row with the same encoder and batch size — this is
the perf trajectory that accrues per PR.

Run-table schema (``--out`` / stdout)::

    {
      "schema": "training-throughput-run-table/v1",
      "workload": {"corpus_paths", "steps_timed", "warmup_steps",
                   "length_min", "length_mean", "length_max"},
      "rows": [{"encoder", "batch_size", "dtype", "impl", "steps_timed",
                "seconds", "steps_per_s", "paths_per_s", "step_ms",
                "final_loss", "peak_rss_mb", "rss_end_mb", "speedup"}]
    }

``speedup`` is null on reference rows (they are their own baseline).

Usage::

    PYTHONPATH=src python benchmarks/bench_training_throughput.py          # full grid
    PYTHONPATH=src python benchmarks/bench_training_throughput.py --smoke  # CI smoke
    PYTHONPATH=src python benchmarks/bench_training_throughput.py --check  # assert >= 3x
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from _common import current_rss_mb, peak_rss_mb  # also puts src/ and tests/ on sys.path

import numpy as np
from oracles import engine

from repro import nn
from repro.core import SharedResources, WSCCLConfig, WSCModel, WSCTrainer
from repro.datasets import DatasetScale, aalborg


def build_workload(seed=0):
    """The tiny synthetic Aalborg corpus plus shared frozen embeddings."""
    city = aalborg(scale=DatasetScale.tiny())
    config = WSCCLConfig.test_scale()
    resources = SharedResources(city.network, config)
    samples = list(city.unlabeled)
    rng = np.random.default_rng(seed)
    return city, config, resources, samples, rng


def make_batches(samples, batch_size, num_batches, rng):
    """Pre-drawn minibatches so every configuration times identical data.

    Batches always hold exactly ``batch_size`` samples (drawn with
    replacement when the corpus is smaller), so the reported per-row
    ``batch_size`` and ``paths_per_s`` are what was actually timed.
    """
    batches = []
    for _ in range(num_batches):
        chosen = rng.choice(len(samples), size=batch_size,
                            replace=len(samples) < batch_size)
        batches.append([samples[i] for i in chosen])
    return batches


def run_configuration(city, config, resources, batches, weak_labeler,
                      encoder, batch_size, dtype, impl, warmup=1):
    """Time ``train_step`` over the prepared batches; returns a table row."""
    with nn.default_dtype(dtype), engine(impl, "training"):
        model = WSCModel(city.network, config.with_overrides(batch_size=batch_size),
                         resources=resources, encoder_type=encoder)
        trainer = WSCTrainer(model)

        for batch in batches[:warmup]:
            trainer.train_step(batch, weak_labeler)

        timed = batches[warmup:]
        started = time.perf_counter()
        loss = float("nan")
        for batch in timed:
            loss = trainer.train_step(batch, weak_labeler)
        seconds = time.perf_counter() - started

    steps_per_s = len(timed) / seconds
    return {
        "encoder": encoder,
        "batch_size": batch_size,
        "dtype": dtype,
        "impl": impl,
        "steps_timed": len(timed),
        "seconds": seconds,
        "steps_per_s": steps_per_s,
        "paths_per_s": steps_per_s * batch_size,
        "step_ms": 1000.0 * seconds / len(timed),
        "final_loss": loss,
        "peak_rss_mb": peak_rss_mb(),
        "rss_end_mb": current_rss_mb(),
    }


def format_table(rows):
    header = (f"{'encoder':>12} {'batch':>6} {'dtype':>8} {'impl':>11} "
              f"{'steps/s':>9} {'paths/s':>9} {'step ms':>9} {'rss MB':>8} {'speedup':>8}")
    lines = [header, "-" * len(header)]
    for row in rows:
        speedup = f"{row['speedup']:.2f}x" if row["speedup"] is not None else "(base)"
        lines.append(
            f"{row['encoder']:>12} {row['batch_size']:>6} {row['dtype']:>8} "
            f"{row['impl']:>11} {row['steps_per_s']:>9.2f} {row['paths_per_s']:>9.1f} "
            f"{row['step_ms']:>9.2f} {row['rss_end_mb']:>8.1f} {speedup:>8}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced grid and step count (CI smoke)")
    parser.add_argument("--steps", type=int, default=None,
                        help="timed train steps per configuration")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the run-table JSON here (stdout otherwise)")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero unless vectorized float32 reaches 3x "
                             "the loop-reference float64 transformer at every "
                             "batch size >= 32")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    steps = args.steps or (3 if args.smoke else 8)
    warmup = 1
    batch_sizes = [32] if args.smoke else [16, 32, 64]
    encoders = ["lstm", "transformer"]

    print("building workload (tiny Aalborg corpus + frozen embeddings)...", flush=True)
    city, config, resources, samples, rng = build_workload(seed=args.seed)
    weak_labeler = city.unlabeled.weak_labeler
    lengths = [len(tp) for tp, _ in samples]

    rows = []
    baselines = {}
    for encoder in encoders:
        for batch_size in batch_sizes:
            batches = make_batches(samples, batch_size, steps + warmup, rng)
            configurations = [("float64", "reference"),
                              ("float64", "vectorized"),
                              ("float32", "vectorized")]
            for dtype, impl in configurations:
                row = run_configuration(
                    city, config, resources, batches, weak_labeler,
                    encoder, batch_size, dtype, impl, warmup=warmup)
                if impl == "reference":
                    baselines[(encoder, batch_size)] = row["steps_per_s"]
                    row["speedup"] = None
                else:
                    row["speedup"] = (row["steps_per_s"]
                                      / baselines[(encoder, batch_size)])
                rows.append(row)
                shown = f"{row['speedup']:.2f}x" if row["speedup"] else "baseline"
                print(f"  {encoder:>11} batch={batch_size:<3} {dtype} {impl:<10} "
                      f"-> {row['steps_per_s']:7.2f} steps/s ({shown})", flush=True)

    table = {
        "schema": "training-throughput-run-table/v1",
        "workload": {
            "corpus_paths": len(samples),
            "steps_timed": steps,
            "warmup_steps": warmup,
            "length_min": int(min(lengths)),
            "length_mean": float(np.mean(lengths)),
            "length_max": int(max(lengths)),
        },
        "rows": rows,
    }

    print()
    print(format_table(rows))

    fast = [row for row in rows
            if row["encoder"] == "transformer" and row["batch_size"] >= 32
            and row["impl"] == "vectorized" and row["dtype"] == "float32"]
    best = max(fast, key=lambda row: row["speedup"])
    worst = min(fast, key=lambda row: row["speedup"])
    print(f"\nbest transformer fast path: batch={best['batch_size']} float32 "
          f"-> {best['speedup']:.2f}x over loop-reference float64")

    if args.out is not None:
        args.out.write_text(json.dumps(table, indent=2))
        print(f"run table written to {args.out}")
    else:
        print(json.dumps(table, indent=2))

    if worst["speedup"] < 3.0:
        # Every batch >= 32 row must clear the bound, not just the best one.
        print(f"WARNING: vectorized float32 at batch={worst['batch_size']} "
              f"reached only {worst['speedup']:.2f}x (expected >= 3x)",
              file=sys.stderr)
        if args.check:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
