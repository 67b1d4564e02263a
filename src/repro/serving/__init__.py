"""Batched path-embedding serving layer (``repro.serving``).

This package turns a trained representation model into a serving component
sized for the ROADMAP's traffic goals.

Components
----------
:class:`PathEmbeddingService`
    Fronts any ``encode``-capable model with arrival-order micro-batching,
    an LRU embedding cache and a metrics scrape, while remaining numerically
    faithful to one-at-a-time encoding.
:class:`LRUEmbeddingCache`
    Bounded ``(edge sequence, departure time) -> embedding`` store with
    hit/miss/eviction counters.
:class:`ServiceMetrics`
    Throughput, p50/p95 latency, padding efficiency and cache hit rate in
    one scrape dictionary.

Quick start::

    from repro.serving import PathEmbeddingService

    service = PathEmbeddingService(model, max_batch_size=64,
                                   cache_capacity=4096)
    embeddings = service.embed(temporal_paths)   # (N, D), request order
    print(service.scrape())                      # metrics snapshot

``benchmarks/bench_serving_throughput.py`` measures the service against
per-path encoding and emits a run-table JSON (schema documented in the
repository README).
"""

from .cache import LRUEmbeddingCache
from .metrics import ServiceMetrics
from .service import PathEmbeddingService

__all__ = [
    "LRUEmbeddingCache",
    "ServiceMetrics",
    "PathEmbeddingService",
]
