"""Run every workload over several seeds and summarise the spread.

Usage (from the repository root)::

    python3 perfbench/record.py --runs 10                 # all workloads
    python3 perfbench/record.py --runs 5 --workloads tables --first-seed 7
    python3 perfbench/record.py --runs 10 --traced --append

Each run is a separate ``perfbench/run.py`` process, one after the other.
One discarded warm-up run comes first, and the runs interleave workloads
within each seed, so a host that speeds up or slows down over time
is not mistaken for a difference between seeds or workloads.  For each
end-to-end metric the summary gives the median over the runs and the
spread, (Q3 - Q1) / median with quartiles from
``statistics.quantiles(n=4)``, next to a third of the metric's bound from
``BENCHMARK.json``.  ``--traced`` adds one traced run per workload (first
seed) for the per-layer numbers.  ``--append`` adds the result as a new
point to ``perfbench/trajectory.json``.  ``--save-quality`` stores each
run's quality values as the reference for its workload and seed in
``perfbench/quality.json`` and recomputes the floors.  Exits 1 if a run
failed or reported ``correct: false``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench.stats import quality_floors, quartile_spread  # noqa: E402

TRAJECTORY = Path(__file__).resolve().parent / "trajectory.json"
QUALITY = Path(__file__).resolve().parent / "quality.json"
RUN_TIMEOUT_S = 400


def run_once(workload, seed, seconds, trace):
    """One benchmark process; returns (last-line result, full result record)."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(command)} printed no result "
                           f"(exit {done.returncode}):\n{done.stderr[-2000:]}")
    record_path = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(record_path.read_text())
    return json.loads(lines[-1]), record


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = quartile_spread(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": spread if math.isfinite(spread) else None,
            "values": values}


def save_quality(runs, seeds):
    """Store the runs' quality values as references and recompute floors."""
    stored = json.loads(QUALITY.read_text())
    limits = stored["limits"]
    for workload, results in runs.items():
        for seed, (_, record) in zip(seeds, results):
            values = {name: record["named"][name] for name in limits
                      if name in record["named"]}
            if values:
                stored["reference"].setdefault(workload, {})[str(seed)] = values
    stored["floors"] = quality_floors(
        [values for by_seed in stored["reference"].values()
         for values in by_seed.values()], limits)
    QUALITY.write_text(json.dumps(stored, indent=1) + "\n")
    print(f"stored quality references of seeds {seeds[0]}-{seeds[-1]} in {QUALITY}")


def main(argv=None):
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in contract["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in contract["workloads"]))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--append", action="store_true")
    parser.add_argument("--save-quality", action="store_true")
    parser.add_argument("--no-warmup", action="store_true")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be >= 2 to compute quartiles")

    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    workloads = args.workloads.split(",")
    point = {"date": datetime.date.today().isoformat(),
             "run_seconds": args.seconds, "seeds": seeds, "workloads": {}}
    if not args.no_warmup:
        run_once(workloads[0], seeds[0], args.seconds, 0)
    all_correct = True
    runs = {workload: [] for workload in workloads}
    for seed in seeds:
        for workload in workloads:
            result, record = run_once(workload, seed, args.seconds, 0)
            runs[workload].append((result, record))
            all_correct &= result["correct"]
            print(f"{workload} seed={seed} correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
            for message in record["failures"] + record["problems"]:
                print(f"  FAILED: {message}", flush=True)
    for workload, results in runs.items():
        point["env"] = results[0][1]["env"]
        entry = {
            "correct": all(r["correct"] for r, _ in results),
            "attempted": sum(r["attempted"] for r, _ in results),
            "failed": sum(r["failed"] for r, _ in results),
            "end_to_end": {}, "named": {},
        }
        for name, meta in bounds.items():
            summary = summarise([r["metrics"][name]["value"] for r, _ in results])
            summary.update(unit=meta["unit"], better=meta["better"],
                           bound=meta["bound"])
            entry["end_to_end"][name] = summary
            steady = summary["spread"] <= meta["bound"] / 3
            print(f"  {workload:<11} {name:<18} median {summary['median']:<12.6g} "
                  f"spread {summary['spread']:.4f} (bound/3 "
                  f"{meta['bound'] / 3:.4f}){'' if steady else '  NOT STEADY'}")
        for name in results[0][1]["named"]:
            entry["named"][name] = summarise(
                [record["named"][name] for _, record in results])
        if args.traced:
            result, record = run_once(workload, seeds[0], args.seconds, 1)
            all_correct &= result["correct"]
            entry["per_layer"] = {"seed": seeds[0], **{
                name: row["value"] for name, row in result["metrics"].items()}}
        point["workloads"][workload] = entry

    if args.save_quality:
        save_quality(runs, seeds)
    if args.append:
        trajectory = json.loads(TRAJECTORY.read_text())
        trajectory["points"].append(point)
        TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")
        print(f"appended point {len(trajectory['points'])} to {TRAJECTORY}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
