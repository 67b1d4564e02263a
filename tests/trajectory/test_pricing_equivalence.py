"""Equivalence suites: batched trip pricing vs the per-edge reference loops.

* ``level_batch`` / ``edge_speeds`` / ``edge_travel_time_vector`` /
  ``path_travel_times(grid=False)`` are elementwise the same IEEE operations
  as the scalar reference, so equality is exact (``==``, not approx).
* ``grid=True`` quantises congestion to time slots; it must stay within a
  small relative band of the continuous model.
* The simulator must produce bit-identical trips to the simulator running
  on the per-edge pricing oracles under one seed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import engine

from repro.temporal import DepartureTime
from repro.trajectory import CongestionProfile, SpeedModel, TripSimulator

departure_times = st.tuples(
    st.integers(min_value=0, max_value=6),
    st.floats(min_value=0.0, max_value=23.99, allow_nan=False),
).map(lambda pair: DepartureTime.from_hour(*pair))


def random_paths(network, rng, count, max_edges):
    """Connected random paths over the network (graph-walk construction)."""
    paths = []
    for _ in range(count):
        node = int(rng.integers(0, network.num_nodes))
        path = []
        for _ in range(max_edges):
            edges = network.out_edges(node)
            if not edges:
                break
            edge = int(edges[rng.integers(0, len(edges))])
            path.append(edge)
            node = network.edge_endpoints(edge)[1]
        if path:
            paths.append(path)
    return paths


class TestExactEquivalence:
    @given(departure_times)
    @settings(max_examples=60, deadline=None)
    def test_level_batch_matches_scalar(self, departure_time):
        profile = CongestionProfile()
        batch = profile.level_batch(
            np.array([departure_time.day_of_week]),
            np.array([departure_time.seconds]))
        assert float(batch[0]) == profile.level(departure_time)

    def test_level_batch_matches_scalar_pow_ulp_regression(self):
        """Regression: CPython float ** 2.0 (libm pow) could land one ulp
        away from numpy's array squaring inside ``_bump``, breaking exact
        scalar-vs-batch equality at this Hypothesis-found departure time."""
        profile = CongestionProfile()
        departure_time = DepartureTime.from_hour(5, 4.363320136857637)
        batch = profile.level_batch(
            np.array([departure_time.day_of_week]),
            np.array([departure_time.seconds]))
        assert float(batch[0]) == profile.level(departure_time)

    @given(departure_times)
    @settings(max_examples=30, deadline=None)
    def test_edge_vectors_match_scalar_loop(self, tiny_network, departure_time):
        model = SpeedModel(tiny_network, seed=0)
        speeds = model.edge_speeds(departure_time)
        times = model.edge_travel_time_vector(departure_time)
        for edge in range(tiny_network.num_edges):
            assert float(speeds[edge]) == model.edge_speed(edge, departure_time)
            assert float(times[edge]) == model.edge_travel_time(edge, departure_time)

    @given(departure_times, st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40, deadline=None)
    def test_batched_path_pricing_matches_loop(self, tiny_network, departure_time,
                                               seed):
        model = SpeedModel(tiny_network, seed=0)
        rng = np.random.default_rng(seed)
        paths = random_paths(tiny_network, rng, count=6, max_edges=12)
        batched = model.path_travel_times(paths, departure_time)
        looped = np.array([model.path_travel_time(path, departure_time)
                           for path in paths])
        np.testing.assert_array_equal(batched, looped)

    def test_empty_batch(self, tiny_network):
        model = SpeedModel(tiny_network, seed=0)
        assert model.path_travel_times([], DepartureTime.from_hour(0, 8.0)).shape == (0,)


class TestGridPricing:
    def test_slot_matrix_shape_and_cache(self, tiny_network):
        model = SpeedModel(tiny_network, seed=0)
        matrix = model.slot_speed_matrix(slots_per_day=48)
        assert matrix.shape == (tiny_network.num_edges, 7 * 48)
        assert model.slot_speed_matrix(slots_per_day=48) is matrix
        assert (matrix >= SpeedModel.MIN_SPEED_KMH).all()

    def test_slot_matrix_columns_match_slot_start_speeds(self, tiny_network):
        model = SpeedModel(tiny_network, seed=0)
        matrix = model.slot_speed_matrix(slots_per_day=24)
        departure = DepartureTime.from_hour(2, 17.0)  # start of slot 17, day 2
        column = 2 * 24 + 17
        np.testing.assert_array_equal(matrix[:, column],
                                      model.edge_speeds(departure))

    @given(departure_times, st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_grid_pricing_close_to_continuous(self, tiny_network, departure_time,
                                              seed):
        model = SpeedModel(tiny_network, seed=0)
        rng = np.random.default_rng(seed)
        paths = random_paths(tiny_network, rng, count=5, max_edges=10)
        exact = model.path_travel_times(paths, departure_time)
        grid = model.path_travel_times(paths, departure_time, grid=True)
        # Quantisation error compounds along a path and is amplified on
        # near-floor speeds during peak ramps; adversarial random walks stay
        # within 15% (realistic candidate corpora stay within 2% — gated by
        # bench_pretraining_pipeline --check).
        np.testing.assert_allclose(grid, exact, rtol=0.15)


class TestSimulatorImplEquivalence:
    def test_vectorized_simulator_bit_identical(self, tiny_network):
        def run(impl):
            simulator = TripSimulator(
                tiny_network, speed_model=SpeedModel(tiny_network, seed=0),
                seed=9, min_trip_edges=2)
            with engine(impl, "simulator"):
                return simulator.simulate(12)

        reference = run("reference")
        vectorized = run("vectorized")
        assert len(reference) == len(vectorized) == 12
        for ref_trip, vec_trip in zip(reference, vectorized):
            assert ref_trip.path == vec_trip.path
            assert ref_trip.travel_time == vec_trip.travel_time
            assert ref_trip.departure_time == vec_trip.departure_time
            assert ref_trip.alternatives == vec_trip.alternatives
            assert (ref_trip.origin, ref_trip.destination) == (
                vec_trip.origin, vec_trip.destination)
