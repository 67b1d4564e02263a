"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tables --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # the three in one process

With ``--workload all`` the last line prefixes each metric with its
workload and reports ``peak_rss_mb`` once, for the whole process.

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` traces every second round and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable table.  The full result (environment, workload-level
metrics, checks and, when traced, every span) is written to
``.bench_out/<workload>-seed<seed>-trace<0|1>.json``.  The exit code is 1
when a correctness check failed and 2 when the program cannot be found.
"""

from __future__ import annotations

import os

# Pin numerical-library threads before numpy is imported anywhere.
THREADS = "1"
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_variable] = THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"


def load_contract():
    with open(ROOT / "BENCHMARK.json") as handle:
        contract = json.load(handle)
    return ({m["name"]: m for m in contract["end_to_end"]},
            {m["name"]: m for m in contract["per_layer"]})


def source_commit():
    """The git commit of the checkout, or None when it is not a git clone."""
    if not (ROOT / ".git").exists():
        return None  # do not let git report an enclosing repository
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """sha256 over every file of the package, identifying the code measured."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment():
    import numpy

    return {"nproc": os.cpu_count(), "threads": int(THREADS),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": source_commit(), "source_digest": source_digest()}


def metric_rows(values, spec):
    return {name: {"value": values[name], "unit": spec[name]["unit"]}
            for name in spec if name in values}


def print_table(title, values, spec):
    print(f"# {title}")
    for name, meta in spec.items():
        if name not in values:
            continue
        print(f"  {name:<30} {values[name]:>14.6g} {meta[0]:<10} {meta[1]}")


def report(outcome, trace, env, end_to_end, per_layer):
    from perfbench.workloads import NAMED_METRICS

    print(f"# workload={outcome.workload} seed={outcome.seed} trace={trace} "
          f"env={json.dumps(env, sort_keys=True)}")
    print(f"# inputs={json.dumps(outcome.info, sort_keys=True)}")
    print_table("end-to-end (contract)", outcome.end_to_end,
                {n: (m["unit"], m["better"]) for n, m in end_to_end.items()})
    print_table("end-to-end (workload)", outcome.named,
                {n: NAMED_METRICS[n] for n in outcome.named})
    if trace:
        print_table("per layer, per traced round", outcome.per_layer,
                    {n: (m["unit"], m["better"]) for n, m in per_layer.items()})
    print(f"# ops attempted={outcome.attempted} failed={outcome.failed}")
    for message in outcome.failures + outcome.problems:
        print(f"# FAILED: {message}")


def write_result(outcome, trace, env, metrics):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{outcome.workload}-seed{outcome.seed}-trace{trace}.json"
    record = {
        "workload": outcome.workload, "seed": outcome.seed, "trace": trace,
        "env": env, "correct": outcome.correct, "attempted": outcome.attempted,
        "failed": outcome.failed, "failures": outcome.failures,
        "problems": outcome.problems, "metrics": metrics,
        "named": outcome.named, "info": outcome.info,
        "spans": [span.as_dict() for span in outcome.spans],
    }
    path.write_text(json.dumps(record))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS, peak_rss_mb

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or all")
    end_to_end, per_layer = load_contract()
    env = environment()

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        outcome = WORKLOADS[name](args.seed, args.seconds, bool(args.trace))
        if len(names) > 1:
            # The process peak includes earlier workloads; it is reported once.
            outcome.end_to_end.pop("peak_rss_mb")
            outcome.named.pop("peak_rss_mb")
        if args.trace:
            metrics = metric_rows(outcome.per_layer, per_layer)
        else:
            metrics = metric_rows(outcome.end_to_end, end_to_end)
        report(outcome, args.trace, env, end_to_end, per_layer)
        write_result(outcome, args.trace, env, metrics)
        summary["correct"] = summary["correct"] and outcome.correct
        summary["attempted"] += outcome.attempted
        summary["failed"] += outcome.failed
        if len(names) == 1:
            summary["metrics"] = metrics
        else:
            summary["metrics"].update(
                {f"{name}.{key}": row for key, row in metrics.items()})
    if len(names) > 1 and not args.trace:
        summary["metrics"]["peak_rss_mb"] = {
            "value": peak_rss_mb(), "unit": end_to_end["peak_rss_mb"]["unit"]}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
