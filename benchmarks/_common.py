"""Scaffolding shared by the engine benchmarks.

Importing this module makes ``repro`` importable without ``PYTHONPATH=src``
and puts ``tests/`` on the path, so reference rows can run on the loop
oracles in ``tests/oracles.py``.  It also holds the memory probes and the
``stage x impl`` run-table row helpers.
"""

from __future__ import annotations

import resource
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent

try:
    import repro  # noqa: F401
except ImportError:  # running without PYTHONPATH=src
    sys.path.insert(0, str(_ROOT / "src"))
# Appended, not prepended: tests/ holds plain directories (core, graph, ...)
# that must never shadow an installed module.
sys.path.append(str(_ROOT / "tests"))


def peak_rss_mb():
    """Peak resident set size of this process in MiB (monotonic)."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS
        peak_kb /= 1024.0
    return peak_kb / 1024.0


def current_rss_mb():
    """Current resident set size in MiB (falls back to the peak off Linux)."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1]) / 1024.0
    except OSError:
        pass
    return peak_rss_mb()


def make_row(stage, impl, seconds, items):
    """One ``stage x impl`` run-table row with throughput and memory."""
    return {
        "stage": stage,
        "impl": impl,
        "seconds": seconds,
        "items": items,
        "items_per_s": items / seconds if seconds > 0 else float("inf"),
        "peak_rss_mb": peak_rss_mb(),
        "rss_end_mb": current_rss_mb(),
    }


def attach_speedups(rows):
    """Set each row's ``speedup`` against the reference row of its stage."""
    baselines = {row["stage"]: row["seconds"] for row in rows
                 if row["impl"] == "reference"}
    for row in rows:
        if row["impl"] == "reference":
            row["speedup"] = None
        else:
            row["speedup"] = baselines[row["stage"]] / row["seconds"]
    return rows
