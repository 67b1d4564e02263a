"""Unit tests for serving metrics and the service's bookkeeping (batching
plan, padding efficiency, scrape shape, dedup, input validation)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PAD_EDGE_ID, WSCModel
from repro.datasets import TemporalPath
from repro.serving import PathEmbeddingService, ServiceMetrics
from repro.temporal import DepartureTime


class TestServiceMetrics:
    def test_scrape_values(self):
        metrics = ServiceMetrics()
        metrics.record_request(10, 0.5)
        metrics.record_request(30, 1.5)
        metrics.record_batch(4, max_length=10, total_real_steps=25)
        metrics.record_batch(2, max_length=5, total_real_steps=10)

        scraped = metrics.scrape(cache_stats={"hits": 3, "hit_rate": 0.75})
        assert scraped["requests"] == 2
        assert scraped["paths_served"] == 40
        assert scraped["throughput_paths_per_s"] == pytest.approx(20.0)
        assert scraped["padding_efficiency"] == pytest.approx(35 / 50)
        assert scraped["latency_p50_ms"] == pytest.approx(1000.0)
        assert scraped["cache_hits"] == 3
        assert scraped["cache_hit_rate"] == 0.75

    def test_empty_metrics_are_finite(self):
        scraped = ServiceMetrics().scrape()
        assert scraped["throughput_paths_per_s"] == 0.0
        assert scraped["latency_p95_ms"] == 0.0
        assert scraped["padding_efficiency"] == 1.0


class CountingModel:
    """Stub that records every encode call; rows are a pure function of the
    temporal path, so per-path encoding is the golden answer."""

    representation_dim = 3

    def __init__(self):
        self.calls = []

    def encode(self, temporal_paths):
        self.calls.append(list(temporal_paths))
        return np.array([[len(tp), sum(tp.path), tp.departure_time.seconds]
                         for tp in temporal_paths], dtype=np.float64)


#: Distinct temporal paths: edge tuples of lengths 1-9 at one of two times.
distinct_paths = st.lists(
    st.tuples(st.lists(st.integers(0, 80), min_size=1, max_size=9),
              st.sampled_from([0.0, 270.0])),
    min_size=1, max_size=12, unique_by=lambda item: (tuple(item[0]), item[1]),
).map(lambda items: [TemporalPath(path=edges, departure_time=DepartureTime(2, seconds))
                     for edges, seconds in items])


class TestArrivalOrderBatching:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), pool=distinct_paths, max_batch_size=st.integers(1, 8))
    def test_unique_misses_encoded_once_in_arrival_order(self, data, pool,
                                                         max_batch_size):
        requests = data.draw(st.lists(
            st.lists(st.sampled_from(pool), min_size=1, max_size=20),
            min_size=1, max_size=3))
        model = CountingModel()
        service = PathEmbeddingService(model, max_batch_size=max_batch_size)
        seen, padded = [], 0
        for request in requests:
            model.calls.clear()
            served = service.embed(request)
            misses = []
            for tp in request:
                if tp not in seen and tp not in misses:
                    misses.append(tp)
            seen.extend(misses)

            assert [tp for call in model.calls for tp in call] == misses
            assert all(len(call) <= max_batch_size for call in model.calls)
            assert len(model.calls) == math.ceil(len(misses) / max_batch_size)
            padded += sum(len(call) * max(map(len, call)) for call in model.calls)
            assert service.metrics.real_steps == sum(len(tp) for tp in seen)
            assert service.metrics.padded_steps == padded
            golden = np.concatenate([model.encode([tp]) for tp in request])
            np.testing.assert_allclose(served, golden, rtol=0, atol=1e-10)


    def test_chunks_follow_arrival_order_not_length(self):
        lengths = [9, 1, 5, 2, 7]
        request = [TemporalPath(path=range(n), departure_time=DepartureTime(0, 0.0))
                   for n in lengths]
        model = CountingModel()
        PathEmbeddingService(model, max_batch_size=2).embed(request)
        assert [[len(tp) for tp in call] for call in model.calls] == [[9, 1], [5, 2], [7]]

    def test_padding_efficiency_of_arrival_order_chunks(self):
        request = [TemporalPath(path=range(first, first + n),
                                departure_time=DepartureTime(0, 0.0))
                   for first, n in ((0, 4), (0, 2), (0, 3), (1, 3))]
        service = PathEmbeddingService(CountingModel(), max_batch_size=2)
        service.embed(request)
        # Chunks (4, 2) and (3, 3): 12 real steps in 8 + 6 padded steps.
        assert service.scrape()["padding_efficiency"] == pytest.approx(12 / 14)


class TestServiceBookkeeping:
    @pytest.mark.parametrize("max_batch_size", [0, -3])
    def test_non_positive_max_batch_size_rejected(self, max_batch_size):
        with pytest.raises(ValueError, match="max_batch_size"):
            PathEmbeddingService(CountingModel(), max_batch_size=max_batch_size)

    def test_duplicates_encoded_once_per_request_with_cache(self, tiny_city):
        model = CountingModel()
        service = PathEmbeddingService(model)
        path = tiny_city.unlabeled.temporal_paths[0]
        result = service.embed([path, path, path])
        assert model.calls == [[path]]
        assert result.shape == (3, 3)
        np.testing.assert_array_equal(result[0], result[1])

    def test_cache_avoids_re_encoding_across_requests(self, tiny_city):
        model = CountingModel()
        service = PathEmbeddingService(model)
        paths = tiny_city.unlabeled.temporal_paths[:6]
        service.embed(paths)
        encoded_first = len(model.calls)
        service.embed(paths)
        assert len(model.calls) == encoded_first  # all hits, no new encodes
        assert service.cache.hits == len(paths)

    def test_scrape_includes_config_and_counters(self, tiny_city):
        service = PathEmbeddingService(CountingModel(), max_batch_size=4)
        service.embed(tiny_city.unlabeled.temporal_paths[:5])
        scraped = service.scrape()
        assert scraped["max_batch_size"] == 4
        assert scraped["paths_served"] == 5
        assert 0.0 < scraped["padding_efficiency"] <= 1.0
        assert scraped["latency_p95_ms"] >= scraped["latency_p50_ms"] >= 0.0

    def test_malformed_model_output_rejected(self, tiny_city):
        class BadModel:
            def encode(self, temporal_paths):
                return np.zeros(3)

        service = PathEmbeddingService(BadModel())
        with pytest.raises(ValueError):
            service.embed(tiny_city.unlabeled.temporal_paths[:2])

    def test_reset_metrics_keeps_cache_contents(self, tiny_city):
        model = CountingModel()
        service = PathEmbeddingService(model)
        paths = tiny_city.unlabeled.temporal_paths[:4]
        service.embed(paths)
        service.reset_metrics()
        assert service.scrape()["paths_served"] == 0
        service.embed(paths)
        assert service.cache.hits == len(paths)  # still warm


class TestCacheKeys:
    """Regression test: the cache key must never merge departure times a
    served model could distinguish (whatever its slot granularity)."""

    def test_cache_never_serves_stale_embedding_to_time_sensitive_model(
            self, tiny_city):
        class SecondsModel:
            """Embeds the exact departure seconds (finest possible model)."""

            def encode(self, temporal_paths):
                return np.array([[len(tp), tp.departure_time.seconds]
                                 for tp in temporal_paths], dtype=np.float64)

        base = tiny_city.unlabeled.temporal_paths[0]
        early = TemporalPath(path=base.path,
                             departure_time=DepartureTime(0, 0.0))
        late = TemporalPath(path=base.path,
                            departure_time=DepartureTime(0, 270.0))
        service = PathEmbeddingService(SecondsModel())
        service.embed([early])                       # warm the cache
        served = service.embed([late])               # must NOT hit early's entry
        np.testing.assert_array_equal(served[0], [len(late), 270.0])

    def test_key_distinguishes_sub_slot_times(self, tiny_city):
        base = tiny_city.unlabeled.temporal_paths[0]
        model = CountingModel()
        service = PathEmbeddingService(model)
        times = (0.0, 0.5, 59.0)
        assert len({DepartureTime(3, seconds).slot_index for seconds in times}) == 1
        service.embed([TemporalPath(path=base.path,
                                    departure_time=DepartureTime(3, seconds))
                       for seconds in times])
        assert service.cache.hits == 0
        assert [tp.departure_time.seconds for tp in model.calls[0]] == list(times)

    def test_key_distinguishes_days(self, tiny_city):
        base = tiny_city.unlabeled.temporal_paths[0]
        model = CountingModel()
        service = PathEmbeddingService(model)
        for day in (0, 1):
            service.embed([TemporalPath(path=base.path,
                                        departure_time=DepartureTime(day, 100.0))])
        assert service.cache.hits == 0
        assert len(model.calls) == 2

    def test_equal_temporal_paths_share_an_entry(self, tiny_city):
        base = tiny_city.unlabeled.temporal_paths[0]

        def rebuilt():
            return TemporalPath(path=list(base.path), departure_time=DepartureTime(
                base.departure_time.day_of_week, base.departure_time.seconds))

        model = CountingModel()
        service = PathEmbeddingService(model)
        first = service.embed([rebuilt()])
        second = service.embed([rebuilt()])
        assert len(model.calls) == 1
        assert service.cache.hits == 1
        np.testing.assert_array_equal(first, second)


class TestModelBatchSizePassThrough:
    def test_internal_rechunking_is_disabled(self, tiny_city):
        """Models with their own encode(batch_size=...) default must receive
        the micro-batch size, or they would re-chunk internally and the
        padding stats would be wrong."""

        class BatchAwareModel:
            representation_dim = 1

            def __init__(self):
                self.seen = []

            def encode(self, temporal_paths, batch_size=4):
                self.seen.append((len(temporal_paths), batch_size))
                return np.array([[len(tp)] for tp in temporal_paths],
                                dtype=np.float64)

        model = BatchAwareModel()
        service = PathEmbeddingService(model, max_batch_size=16)
        service.embed(tiny_city.unlabeled.temporal_paths[:10])
        assert model.seen == [(10, 10)]


class TestEdgeIdValidation:
    """Ids outside the network raise ValueError instead of returning a
    silently wrong row (negative ids) or a bare numpy IndexError."""

    @pytest.mark.parametrize("path, bad_id", [((0, -5), -5), ((0, PAD_EDGE_ID, 1), -1),
                                              ((0, 81), 81), ((10**6,), 10**6)])
    def test_unknown_edge_ids_are_rejected(self, tiny_city, tiny_config,
                                           shared_resources, path, bad_id):
        assert tiny_city.network.num_edges == 81
        model = WSCModel(tiny_city.network, tiny_config, resources=shared_resources)
        service = PathEmbeddingService(model)
        departure = tiny_city.unlabeled.temporal_paths[0].departure_time
        with pytest.raises(ValueError, match=f"{bad_id}\\b"):
            service.embed([TemporalPath(path=path, departure_time=departure)])
