"""Downstream evaluation throughput: shape x task x n_estimators x impl.

Times gradient-boosting fit + full-matrix predict over synthetic workloads
sized like the paper's downstream evaluations and emits a run-table JSON in
the experiment-runner style.  Two training shapes are run: the throughput
grid (2,500 x 16; 400 x 16 with ``--smoke``) and the paper-table shape
(240 x 32: the tables' GBMs train on 60-215 rows of the 32-wide
``HarnessConfig.benchmark()`` embeddings), where an exact split spends
less of its time in the column sort than at 2,500 rows, so candidate-build
costs show.  Rows marked ``impl = "reference"`` run the loop oracles from
``tests/oracles.py`` (per-threshold split scan, per-row ``predict`` walk);
``impl = "exact"`` is the engine on the same midpoint thresholds
(bit-identical trees, used for the equivalence gates); ``impl =
"histogram"`` is the quantile-binned throughput mode.  Each non-reference
row's ``speedup`` is fit+predict time against the reference row with the
same shape, task and ``n_estimators``.

Run-table schema (``--out`` / stdout)::

    {
      "schema": "downstream-throughput-run-table/v2",
      "workloads": [{"rows_train", "rows_predict", "num_features", "max_depth"}],
      "rows": [{"rows_train", "num_features", "task", "n_estimators", "impl",
                "fit_seconds", "predict_seconds", "fits_per_s",
                "rows_per_s_predicted", "metric", "metric_value",
                "peak_rss_mb", "rss_end_mb", "speedup"}]
    }

``--check`` exits nonzero unless ``run_table3_overall`` /
``run_table4_recommendation`` are metric-equivalent (<= 1e-9) between the
loop oracles and the engine on exact splits; on the full grid it also gates
histogram fit+predict >= 5x the reference at 2,500 rows / n_estimators 40.
The paper-table shape is reported, never gated.

Usage::

    PYTHONPATH=src python benchmarks/bench_downstream_throughput.py          # full grid
    PYTHONPATH=src python benchmarks/bench_downstream_throughput.py --smoke --check  # CI smoke
    PYTHONPATH=src python benchmarks/bench_downstream_throughput.py --check  # all gates
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from _common import current_rss_mb, peak_rss_mb  # also puts src/ and tests/ on sys.path

import numpy as np
from oracles import engine, reference_engines

from repro.downstream import (
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    accuracy,
    mae,
)

# The paper tables' GBM training shape: rows x HarnessConfig.benchmark()
# embedding width.
TABLE_SHAPE = (240, 32)

IMPLS = {
    # impl label -> (engine, binning)
    "reference": ("reference", "exact"),
    "exact": ("vectorized", "exact"),
    "histogram": ("vectorized", "histogram"),
}


def build_workload(rows_train, rows_predict, num_features, seed=0):
    """Synthetic embedding-shaped matrices with learnable regression and
    classification targets (mirrors the frozen-TPR -> label setup)."""
    rng = np.random.default_rng(seed)
    total = rows_train + rows_predict
    features = rng.normal(size=(total, num_features))
    signal = (2.0 * features[:, 0] + np.sin(features[:, 1])
              + 0.5 * features[:, 2 % num_features])
    targets = signal + rng.normal(scale=0.2, size=total)
    labels = (signal + rng.normal(scale=0.5, size=total) > 0).astype(np.int64)
    return {
        "train_x": features[:rows_train],
        "predict_x": features[rows_train:],
        "train_y": targets[:rows_train],
        "predict_y": targets[rows_train:],
        "train_labels": labels[:rows_train],
        "predict_labels": labels[rows_train:],
    }


def run_configuration(workload, task, n_estimators, impl_label, max_depth=3, seed=0):
    """Time one fit + one full predict; returns a run-table row."""
    engine_name, binning = IMPLS[impl_label]
    if task == "recommendation":
        model = GradientBoostingClassifier(
            n_estimators=n_estimators, max_depth=max_depth, seed=seed,
            binning=binning)
        train_y = workload["train_labels"]
    else:
        model = GradientBoostingRegressor(
            n_estimators=n_estimators, max_depth=max_depth, seed=seed,
            binning=binning)
        train_y = workload["train_y"]

    with engine(engine_name, "downstream"):
        started = time.perf_counter()
        model.fit(workload["train_x"], train_y)
        fit_seconds = time.perf_counter() - started

        started = time.perf_counter()
        predictions = model.predict(workload["predict_x"])
        predict_seconds = time.perf_counter() - started

    if task == "recommendation":
        metric_name = "accuracy"
        metric_value = accuracy(workload["predict_labels"], predictions)
    else:
        metric_name = "mae"
        metric_value = mae(workload["predict_y"], predictions)

    return {
        "rows_train": len(workload["train_x"]),
        "num_features": workload["train_x"].shape[1],
        "task": task,
        "n_estimators": n_estimators,
        "impl": impl_label,
        "fit_seconds": fit_seconds,
        "predict_seconds": predict_seconds,
        "fits_per_s": 1.0 / fit_seconds,
        "rows_per_s_predicted": len(predictions) / predict_seconds,
        "metric": metric_name,
        "metric_value": metric_value,
        "peak_rss_mb": peak_rss_mb(),
        "rss_end_mb": current_rss_mb(),
    }


def flatten_metrics(table, prefix=""):
    """Flatten a nested table-runner result into {dotted.key: float}."""
    flat = {}
    for key, value in table.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            flat.update(flatten_metrics(value, path))
        else:
            flat[path] = float(value)
    return flat


def check_table_runner_equivalence(tolerance=1e-9):
    """run_table3_overall / run_table4_recommendation, loop oracles vs the
    engine on exact splits: every metric equal within tolerance.
    """
    from repro.evaluation.experiment import HarnessConfig
    from repro.evaluation.harness import run_table3_overall, run_table4_recommendation

    config = HarnessConfig()
    runners = (
        ("run_table3_overall",
         lambda: run_table3_overall(
             config, methods=("Node2vec",), include_supervised=False,
             include_edge_sum=False)),
        ("run_table4_recommendation",
         lambda: run_table4_recommendation(config, methods=("Node2vec",))),
    )
    failures = []
    for name, runner in runners:
        with reference_engines("downstream"):
            reference = flatten_metrics(runner())
        vectorized = flatten_metrics(runner())
        if set(reference) != set(vectorized):
            failures.append(f"{name}: metric keys differ")
            continue
        for key in sorted(reference):
            difference = abs(reference[key] - vectorized[key])
            if not difference <= tolerance:
                failures.append(f"{name}: {key} differs by {difference:.3e}")
        print(f"  {name}: {len(reference)} metrics equivalent within {tolerance:g}")
    return failures


def format_table(rows):
    header = (f"{'shape':>8} {'task':>15} {'n_est':>6} {'impl':>10} {'fit s':>8} "
              f"{'pred s':>8} {'rows/s':>11} {'metric':>10} {'rss MB':>8} {'speedup':>8}")
    lines = [header, "-" * len(header)]
    for row in rows:
        speedup = f"{row['speedup']:.2f}x" if row.get("speedup") else "(base)"
        shape = f"{row['rows_train']}x{row['num_features']}"
        lines.append(
            f"{shape:>8} {row['task']:>15} {row['n_estimators']:>6} {row['impl']:>10} "
            f"{row['fit_seconds']:>8.3f} {row['predict_seconds']:>8.3f} "
            f"{row['rows_per_s_predicted']:>11.0f} {row['metric_value']:>10.4f} "
            f"{row['rss_end_mb']:>8.1f} {speedup:>8}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced grid and row count (CI smoke)")
    parser.add_argument("--rows", type=int, default=None,
                        help="training rows per configuration")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the run-table JSON here (stdout otherwise)")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero unless the table runners are "
                             "engine-equivalent to 1e-9 and, on the full grid, "
                             "histogram fit+predict reaches 5x the reference "
                             "at every n_estimators >= 40")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rows_train = args.rows or (400 if args.smoke else 2500)
    if args.check and not args.smoke and rows_train < 2000:
        print("ERROR: --check on the full grid needs >= 2000 training rows "
              "(use --smoke --check for the equivalence check alone)",
              file=sys.stderr)
        return 1
    shapes = [(rows_train, 16), TABLE_SHAPE]
    estimator_grid = [10] if args.smoke else [10, 40]
    # A ranking task would fit the same regressor on the same targets as
    # travel_time and repeat its rows.
    tasks = ["travel_time", "recommendation"]

    rows = []
    workloads = []
    for shape_rows, num_features in shapes:
        rows_predict = shape_rows * 2
        print(f"building workload ({shape_rows} train rows, {rows_predict} "
              f"predict rows, {num_features} features)...", flush=True)
        workload = build_workload(shape_rows, rows_predict, num_features,
                                  seed=args.seed)
        workloads.append({"rows_train": shape_rows, "rows_predict": rows_predict,
                          "num_features": num_features, "max_depth": 3})
        for task in tasks:
            for n_estimators in estimator_grid:
                for impl_label in IMPLS:
                    row = run_configuration(workload, task, n_estimators,
                                            impl_label, seed=args.seed)
                    total = row["fit_seconds"] + row["predict_seconds"]
                    if impl_label == "reference":
                        baseline, row["speedup"] = total, None
                    else:
                        row["speedup"] = baseline / total
                    rows.append(row)
                    shown = f"{row['speedup']:.2f}x" if row["speedup"] else "baseline"
                    print(f"  {task:>15} n_est={n_estimators:<3} {impl_label:<10} "
                          f"-> fit {row['fit_seconds']:6.3f}s "
                          f"predict {row['predict_seconds']:6.3f}s ({shown})",
                          flush=True)

    table = {
        "schema": "downstream-throughput-run-table/v2",
        "workloads": workloads,
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
    gated = [row for row in rows
             if row["impl"] == "histogram" and row["n_estimators"] >= 40
             and row["rows_train"] >= 2000]
    for row in gated:
        if row["speedup"] < 5.0:
            failures.append(
                f"histogram {row['task']} n_est={row['n_estimators']} reached "
                f"only {row['speedup']:.2f}x (expected >= 5x)")
    if gated:
        worst = min(gated, key=lambda row: row["speedup"])
        print(f"\nworst gated histogram row: {worst['task']} "
              f"n_est={worst['n_estimators']} -> {worst['speedup']:.2f}x "
              f"over the loop reference")

    if args.check:
        print("\nchecking table-runner engine equivalence "
              "(reference vs vectorized, exact splits)...", flush=True)
        failures.extend(check_table_runner_equivalence())

    for failure in failures:
        print(f"WARNING: {failure}", file=sys.stderr)
    if args.check and failures:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
