"""Serving metrics: throughput, latency percentiles and padding efficiency.

:class:`ServiceMetrics` follows the experiment-runner scrape idiom: the
service records raw observations (per-request latency and path counts,
per-micro-batch padding stats) and :meth:`ServiceMetrics.scrape` renders one
flat dictionary a monitoring loop or benchmark can collect.

Definitions
-----------
throughput
    Paths embedded per second of wall time spent inside ``embed`` calls.
latency p50 / p95
    Percentiles over the most recent per-request ``embed`` latencies
    (bounded window), in milliseconds.
padding efficiency
    ``real steps / padded steps`` over all model micro-batches: 1.0 means no
    wasted computation, 0.5 means half the encoder steps were padding.
cache hit rate
    Supplied by the cache at scrape time (see
    :class:`~repro.serving.cache.LRUEmbeddingCache`).
"""

from __future__ import annotations

from collections import deque

import numpy as np

__all__ = ["ServiceMetrics"]

#: Number of most recent requests the latency percentiles are taken over.
LATENCY_WINDOW = 4096


class ServiceMetrics:
    """Accumulates serving observations and renders a scrape dictionary.

    Latency percentiles are computed over a bounded window of the most
    recent :data:`LATENCY_WINDOW` requests, so a long-lived service scrapes
    at constant cost and memory regardless of uptime; the counters and
    throughput cover the full lifetime.
    """

    def __init__(self):
        self.reset()

    def reset(self):
        """Drop every recorded observation."""
        self.requests = 0
        self.paths_served = 0
        self.batches = 0
        self.real_steps = 0
        self.padded_steps = 0
        self.elapsed_seconds = 0.0
        self._latencies = deque(maxlen=LATENCY_WINDOW)

    # ------------------------------------------------------------------
    def record_request(self, num_paths, elapsed_seconds):
        """Record one ``embed`` call serving ``num_paths`` paths."""
        self.requests += 1
        self.paths_served += int(num_paths)
        self.elapsed_seconds += float(elapsed_seconds)
        self._latencies.append(float(elapsed_seconds))

    def record_batch(self, num_paths, max_length, total_real_steps):
        """Record one model micro-batch padded to ``max_length`` steps."""
        self.batches += 1
        self.real_steps += int(total_real_steps)
        self.padded_steps += int(num_paths) * int(max_length)

    # ------------------------------------------------------------------
    @property
    def throughput(self):
        """Paths per second across all recorded requests."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.paths_served / self.elapsed_seconds

    @property
    def padding_efficiency(self):
        """real steps / padded steps in [0, 1]; 1.0 when nothing was padded."""
        if self.padded_steps == 0:
            return 1.0
        return self.real_steps / self.padded_steps

    def latency_percentile(self, percentile):
        """Recent-window latency percentile in ms (0.0 with no data)."""
        if not self._latencies:
            return 0.0
        return float(np.percentile(list(self._latencies), percentile)) * 1000.0

    # ------------------------------------------------------------------
    def scrape(self, cache_stats=None):
        """Render the metrics as one flat dictionary.

        ``cache_stats`` (the dict from ``LRUEmbeddingCache.stats()``) is
        merged in under the ``cache_`` prefix when provided.
        """
        scraped = {
            "requests": self.requests,
            "paths_served": self.paths_served,
            "batches": self.batches,
            "throughput_paths_per_s": self.throughput,
            "latency_p50_ms": self.latency_percentile(50),
            "latency_p95_ms": self.latency_percentile(95),
            "real_steps": self.real_steps,
            "padded_steps": self.padded_steps,
            "padding_efficiency": self.padding_efficiency,
        }
        if cache_stats is not None:
            scraped.update({f"cache_{key}": value
                            for key, value in cache_stats.items()})
        return scraped
