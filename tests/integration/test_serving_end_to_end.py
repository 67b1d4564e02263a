"""End-to-end serving test: train a tiny model, serve the three downstream
tasks through the :class:`~repro.serving.PathEmbeddingService`, and check the
metrics are identical to the direct (unserved) evaluation path."""

from __future__ import annotations

import numpy as np
import pytest
from oracles import reference_engines

from repro.core import WSCCL
from repro.downstream import evaluate_all_tasks
from repro.serving import PathEmbeddingService


@pytest.fixture(scope="module")
def trained_model(tiny_city, tiny_config, shared_resources):
    """A tiny trained WSCCL model shared by the serving integration tests."""
    model = WSCCL(tiny_city.network, config=tiny_config, resources=shared_resources)
    model.fit(tiny_city.unlabeled, batches_per_epoch=2, expert_batches=1)
    return model


@pytest.fixture(scope="module")
def direct(trained_model, tiny_city):
    """Task metrics with every evaluator encoding the raw model directly."""
    with reference_engines("serving"):
        return _flatten(evaluate_all_tasks(trained_model, tiny_city.tasks,
                                           n_estimators=10))


def _flatten(results):
    return {f"{task}.{metric}": value
            for task, result in results.items()
            for metric, value in result.as_row().items()}


class TestServingEndToEnd:
    def test_served_tasks_match_direct_evaluation(self, trained_model, tiny_city,
                                                  direct):
        served = evaluate_all_tasks(
            trained_model, tiny_city.tasks, n_estimators=10)
        assert direct == _flatten(served)

    def test_small_batches_yield_identical_metrics(self, trained_model, tiny_city,
                                                   direct):
        service = PathEmbeddingService(trained_model, max_batch_size=16)
        served = evaluate_all_tasks(service, tiny_city.tasks, n_estimators=10)
        assert direct == _flatten(served)

    def test_service_metrics_reflect_the_evaluation_traffic(
            self, trained_model, tiny_city):
        service = PathEmbeddingService(trained_model, max_batch_size=32)
        evaluate_all_tasks(service, tiny_city.tasks, n_estimators=10)
        scraped = service.scrape()

        total_examples = (len(tiny_city.tasks.travel_time)
                          + len(tiny_city.tasks.ranking)
                          + len(tiny_city.tasks.recommendation))
        assert scraped["paths_served"] == total_examples
        assert scraped["requests"] == 6          # train + test encode per task
        assert scraped["throughput_paths_per_s"] > 0
        assert 0.0 < scraped["padding_efficiency"] <= 1.0
        assert scraped["cache_hits"] + scraped["cache_misses"] >= total_examples
        # Task datasets reuse underlying paths, so the shared cache must see
        # at least some cross-task hits.
        assert scraped["cache_hits"] > 0

    def test_served_embeddings_finite_and_correct_shape(self, trained_model, tiny_city):
        service = PathEmbeddingService(trained_model)
        paths = tiny_city.unlabeled.temporal_paths
        served = service.embed(paths)
        assert served.shape == (len(paths), trained_model.representation_dim)
        assert np.isfinite(served).all()
