"""The batched path-embedding service.

:class:`PathEmbeddingService` fronts any representation model that exposes
``encode(list_of_temporal_paths) -> (N, D) array`` — a trained
:class:`~repro.core.model.WSCModel`, either path encoder, or any baseline
implementing :class:`~repro.baselines.base.RepresentationModel` — and serves
embeddings at batch granularity:

1. **Cache lookup.**  Each requested path is first looked up in an LRU cache
   keyed exactly on ``(edge sequence, day of week, seconds)``, so a hit is
   always correct whatever the model's temporal granularity.
2. **Deduplication.**  Misses are deduplicated within the request: the same
   temporal path requested twice is encoded once.
3. **Arrival-order micro-batching.**  The unique misses are encoded in the
   order they first arrived, in chunks of ``max_batch_size``.
4. **Metrics.**  Per-request latency, throughput, padding efficiency and
   cache counters are recorded in a
   :class:`~repro.serving.metrics.ServiceMetrics` and exposed via
   :meth:`PathEmbeddingService.scrape`.

The service is *bit-faithful*: whatever the batch size or cache state, the
returned matrix matches what one-at-a-time ``model.encode([tp])`` calls
produce (see ``tests/serving/``).
"""

from __future__ import annotations

import inspect
import time

import numpy as np

from .cache import LRUEmbeddingCache
from .metrics import ServiceMetrics

__all__ = ["PathEmbeddingService"]


def _cache_key(temporal_path):
    """``(edge sequence, day of week, seconds)``: the exact departure time, so
    the cache never merges two requests a model could distinguish."""
    departure = temporal_path.departure_time
    return (temporal_path.path, int(departure.day_of_week), float(departure.seconds))


class PathEmbeddingService:
    """Serve path embeddings from a model with batching and caching.

    Parameters
    ----------
    model:
        Any object exposing ``encode(temporal_paths) -> (N, D) array``.
    max_batch_size:
        Upper bound on paths per model micro-batch.
    cache_capacity:
        LRU capacity in entries.
    """

    def __init__(self, model, max_batch_size=64, cache_capacity=4096):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        self.model = model
        self.max_batch_size = int(max_batch_size)
        self.cache = LRUEmbeddingCache(cache_capacity)
        self.metrics = ServiceMetrics()
        self._output_dim = None
        try:
            encode_params = inspect.signature(model.encode).parameters
            self._encode_accepts_batch_size = "batch_size" in encode_params
        except (TypeError, ValueError):
            self._encode_accepts_batch_size = False

    # ------------------------------------------------------------------
    @property
    def output_dim(self):
        """Embedding dimensionality, if known (None before the first batch)."""
        if self._output_dim is not None:
            return self._output_dim
        for attribute in ("representation_dim", "output_dim", "hidden_dim"):
            dim = getattr(self.model, attribute, None)
            if isinstance(dim, (int, np.integer)):
                self._output_dim = int(dim)
                return self._output_dim
        return None

    def _encode_batch(self, temporal_paths):
        """One model call; validates the result and records padding stats."""
        if self._encode_accepts_batch_size:
            # Encoders with an internal default batch_size (e.g. 64) would
            # otherwise re-chunk our micro-batch, invalidating the padding
            # stats and capping the effective batch below max_batch_size.
            raw = self.model.encode(temporal_paths,
                                    batch_size=len(temporal_paths))
        else:
            raw = self.model.encode(temporal_paths)
        embeddings = np.asarray(raw, dtype=np.float64)
        if embeddings.ndim != 2 or len(embeddings) != len(temporal_paths):
            raise ValueError(
                f"model returned shape {embeddings.shape} for "
                f"{len(temporal_paths)} paths")
        lengths = [len(tp) for tp in temporal_paths]
        self.metrics.record_batch(len(temporal_paths), max(lengths), sum(lengths))
        self._output_dim = embeddings.shape[1]
        return embeddings

    # ------------------------------------------------------------------
    def embed(self, temporal_paths):
        """Embeddings for ``temporal_paths`` as an ``(N, D)`` float64 matrix.

        Rows are in request order.  Equivalent to stacking one-at-a-time
        ``model.encode([tp])`` results, but batched and cached.
        """
        temporal_paths = list(temporal_paths)
        started = time.perf_counter()
        count = len(temporal_paths)
        if count == 0:
            dim = self.output_dim or 0
            self.metrics.record_request(0, time.perf_counter() - started)
            return np.zeros((0, dim))

        rows = [None] * count
        # key -> request positions wanting that embedding; dict order is the
        # order each key first missed, which is the encoding order.
        pending = {}
        for position, path in enumerate(temporal_paths):
            key = _cache_key(path)
            cached = self.cache.get(key)
            if cached is not None:
                rows[position] = cached
            else:
                pending.setdefault(key, []).append(position)

        misses = list(pending.items())
        for start in range(0, len(misses), self.max_batch_size):
            chunk = misses[start:start + self.max_batch_size]
            embeddings = self._encode_batch(
                [temporal_paths[positions[0]] for _, positions in chunk])
            for (key, positions), embedding in zip(chunk, embeddings):
                self.cache.put(key, embedding)
                for position in positions:
                    rows[position] = embedding

        result = np.stack(rows, axis=0).astype(np.float64, copy=False)
        self.metrics.record_request(count, time.perf_counter() - started)
        return result

    # ------------------------------------------------------------------
    # RepresentationModel-compatible interface
    # ------------------------------------------------------------------
    def encode(self, temporal_paths):
        """Alias of :meth:`embed` (the downstream evaluators' interface)."""
        return self.embed(temporal_paths)

    def represent(self, temporal_path):
        """Embedding of a single temporal path as a 1-D array."""
        return self.embed([temporal_path])[0]

    # ------------------------------------------------------------------
    def scrape(self):
        """Metrics snapshot: throughput, latency, padding, cache and batch size."""
        scraped = self.metrics.scrape(cache_stats=self.cache.stats())
        scraped["max_batch_size"] = self.max_batch_size
        return scraped

    def reset_metrics(self):
        """Zero serving metrics and cache counters (cache contents stay)."""
        self.metrics.reset()
        self.cache.reset_stats()
