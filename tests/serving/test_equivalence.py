"""Golden equivalence suite for the path-embedding service.

The service must be a pure optimisation: for every batch size and cache
state, its output must match one-at-a-time ``WSCModel.embed`` calls to 1e-10
on a seeded synthetic dataset.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import WSCModel
from repro.serving import PathEmbeddingService

TOLERANCE = 1e-10


@pytest.fixture(scope="module")
def model(tiny_city, tiny_config, shared_resources):
    return WSCModel(tiny_city.network, tiny_config, resources=shared_resources)


@pytest.fixture(scope="module")
def workload(tiny_city):
    """A request mixing path lengths, duplicates and shuffled order."""
    paths = list(tiny_city.unlabeled.temporal_paths[:24])
    rng = np.random.default_rng(7)
    # Inject duplicates so caching/deduplication paths are exercised.
    paths = paths + [paths[i] for i in rng.integers(0, len(paths), size=8)]
    rng.shuffle(paths)
    return paths


@pytest.fixture(scope="module")
def golden(model, workload):
    """One-at-a-time reference embeddings, in request order."""
    return np.stack([model.embed([tp])[0] for tp in workload], axis=0)


@pytest.mark.parametrize("max_batch_size", [1, 3, 8, 64])
def test_service_matches_across_batch_sizes(model, workload, golden,
                                            max_batch_size):
    service = PathEmbeddingService(model, max_batch_size=max_batch_size)
    served = service.embed(workload)
    assert served.shape == golden.shape
    np.testing.assert_allclose(served, golden, atol=TOLERANCE)


def test_hot_cache_matches_cold_cache(model, workload, golden):
    service = PathEmbeddingService(model, cache_capacity=4096)
    cold = service.embed(workload)
    hot = service.embed(workload)
    np.testing.assert_allclose(cold, golden, atol=TOLERANCE)
    np.testing.assert_allclose(hot, golden, atol=TOLERANCE)
    # The second pass must be served entirely from the cache.
    assert service.cache.hits >= len(workload)


def test_request_order_is_preserved(model, workload):
    service = PathEmbeddingService(model)
    forward = service.embed(workload)
    reversed_out = service.embed(list(reversed(workload)))
    np.testing.assert_allclose(forward, reversed_out[::-1], atol=TOLERANCE)


def test_single_path_and_empty_requests(model, workload, golden):
    service = PathEmbeddingService(model)
    np.testing.assert_allclose(service.represent(workload[0]),
                               golden[0], atol=TOLERANCE)
    empty = service.embed([])
    assert empty.shape == (0, model.representation_dim)


def test_transformer_backend_equivalence(tiny_city, tiny_config, shared_resources):
    model = WSCModel(tiny_city.network, tiny_config, resources=shared_resources,
                     encoder_type="transformer")
    paths = list(tiny_city.unlabeled.temporal_paths[:12])
    golden = np.stack([model.embed([tp])[0] for tp in paths], axis=0)
    service = PathEmbeddingService(model, max_batch_size=5)
    np.testing.assert_allclose(service.embed(paths), golden, atol=TOLERANCE)


def test_baseline_encoder_through_shared_interface(tiny_city):
    from repro.baselines import SpatialSequenceEncoder

    encoder = SpatialSequenceEncoder(tiny_city.network)
    paths = list(tiny_city.unlabeled.temporal_paths[:10])
    golden = np.stack([encoder.encode([tp])[0] for tp in paths], axis=0)
    service = PathEmbeddingService(encoder, max_batch_size=4)
    np.testing.assert_allclose(service.embed(paths), golden, atol=TOLERANCE)
