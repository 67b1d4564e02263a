"""Tests for shortest path / k-shortest paths / path similarity."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.roadnet import (
    CityConfig,
    DijkstraCache,
    EdgeFeatures,
    RoadNetwork,
    generate_city_network,
    k_shortest_paths,
    path_similarity,
    shortest_path,
)


def features(length):
    return EdgeFeatures(road_type="residential", lanes=1, one_way=False,
                        traffic_signals=False, length=length, speed_limit=36.0)


@pytest.fixture()
def diamond_network():
    """Two routes from 0 to 3: a short one via 1 and a long one via 2."""
    network = RoadNetwork()
    for i in range(4):
        network.add_node(float(i), 0.0)
    network.add_edge(0, 1, features(100.0))   # 0
    network.add_edge(1, 3, features(100.0))   # 1
    network.add_edge(0, 2, features(300.0))   # 2
    network.add_edge(2, 3, features(300.0))   # 3
    return network


class TestShortestPath:
    def test_prefers_cheaper_route(self, diamond_network):
        path = shortest_path(diamond_network, 0, 3)
        assert path == [0, 1]

    def test_same_source_and_target(self, diamond_network):
        assert shortest_path(diamond_network, 2, 2) == []

    def test_unreachable_returns_none(self, diamond_network):
        # Node 3 has no outgoing edges, so 3 -> 0 is unreachable.
        assert shortest_path(diamond_network, 3, 0) is None

    def test_banned_edges_force_detour(self, diamond_network):
        costs = diamond_network.free_flow_times.copy()
        costs[0] = np.inf
        path = shortest_path(diamond_network, 0, 3, edge_costs=costs)
        assert path == [2, 3]

    def test_custom_cost_function(self, diamond_network):
        # Make the short route expensive.
        costs = np.array([1000.0, 1000.0, 1.0, 1.0])
        path = shortest_path(diamond_network, 0, 3, edge_costs=costs)
        assert path == [2, 3]

    def test_negative_cost_rejected(self, diamond_network):
        with pytest.raises(ValueError):
            shortest_path(diamond_network, 0, 3, edge_costs=np.full(4, -1.0))

    def test_matches_networkx_on_generated_city(self):
        network = generate_city_network(
            CityConfig(name="sp", grid_rows=5, grid_cols=5, seed=2))
        graph = network.to_networkx()
        rng = np.random.default_rng(0)
        for _ in range(5):
            source, target = rng.integers(0, network.num_nodes, size=2)
            ours = shortest_path(network, int(source), int(target),
                                 edge_costs=network.edge_lengths)
            try:
                reference = nx.shortest_path_length(
                    graph, int(source), int(target), weight="length")
            except nx.NetworkXNoPath:
                assert ours is None
                continue
            assert ours is not None
            our_length = sum(network.edge_length(e) for e in ours)
            assert our_length == pytest.approx(reference, rel=1e-9)


@pytest.fixture()
def spur_loop_network():
    """A graph where edge-only spur bans let Yen emit a looped path.

    The 0-3 shortest path is 0-1-2-3.  Banning only edge 1->2 in the spur
    search from node 1 leaves the detour 1-4-0-2-3 open, which concatenated
    with the root [0->1] revisits node 0.
    """
    network = RoadNetwork()
    for i in range(5):
        network.add_node(float(i), 0.0)
    network.add_edge(0, 1, features(100.0))   # 0
    network.add_edge(1, 2, features(100.0))   # 1
    network.add_edge(2, 3, features(100.0))   # 2
    network.add_edge(1, 4, features(100.0))   # 3
    network.add_edge(4, 0, features(100.0))   # 4
    network.add_edge(0, 2, features(1000.0))  # 5
    return network


def closed_nodes(network, nodes):
    """Free-flow costs with every in-edge of ``nodes`` closed (``inf``)."""
    costs = network.free_flow_times.copy()
    for node in nodes:
        costs[list(network.in_edges(node))] = np.inf
    return costs


class TestBannedNodes:
    def test_banned_nodes_force_detour(self, diamond_network):
        path = shortest_path(diamond_network, 0, 3,
                             edge_costs=closed_nodes(diamond_network, [1]))
        assert path == [2, 3]

    def test_banned_nodes_can_disconnect(self, diamond_network):
        costs = closed_nodes(diamond_network, [1, 2])
        assert shortest_path(diamond_network, 0, 3, edge_costs=costs) is None


class TestDijkstraCache:
    def test_matches_shortest_path_costs_exactly(self):
        network = generate_city_network(
            CityConfig(name="dc", grid_rows=5, grid_cols=5, seed=6))
        cache = DijkstraCache(network, edge_costs=network.edge_lengths)
        rng = np.random.default_rng(3)
        for _ in range(10):
            source = int(rng.integers(0, network.num_nodes))
            targets = [int(t) for t in rng.integers(0, network.num_nodes, size=5)]
            distances = cache.distances(source, targets)
            for target in targets:
                path = shortest_path(network, source, target,
                                     edge_costs=network.edge_lengths)
                if path is None:
                    assert distances[target] == float("inf")
                else:
                    # Bit-identical to the shortest_path edge-cost sum.
                    assert distances[target] == sum(
                        network.edge_length(e) for e in path)

    @pytest.mark.parametrize("source, expected", [
        (0, {0: 0.0, 1: 100.0, 2: 300.0, 3: 200.0}),   # the source is at zero
        (3, {3: 0.0, 0: float("inf")}),                # 3 has no out-edges
    ])
    def test_resumed_queries_match_fresh_runs(self, diamond_network, source,
                                              expected):
        cache = DijkstraCache(diamond_network,
                              edge_costs=diamond_network.edge_lengths)
        fresh = DijkstraCache(diamond_network,
                              edge_costs=diamond_network.edge_lengths)
        targets = list(expected)
        first = cache.distances(source, targets[1:2])
        second = cache.distances(source, targets)
        assert first == {targets[1]: expected[targets[1]]}
        assert second == fresh.distances(source, targets) == expected

    def test_hit_miss_counters(self, diamond_network):
        cache = DijkstraCache(diamond_network)
        cache.distances(0, [3])
        cache.distances(0, [1])
        cache.distances(1, [3])
        assert cache.misses == 2
        assert cache.hits == 1

    def test_lru_eviction(self, diamond_network):
        cache = DijkstraCache(diamond_network, max_sources=2)
        cache.distances(0, [3])
        cache.distances(1, [3])
        cache.distances(2, [3])
        assert len(cache) == 2
        # Source 0 was least recently used; re-querying it is a miss again.
        cache.distances(0, [3])
        assert cache.misses == 4

    def test_clear(self, diamond_network):
        cache = DijkstraCache(diamond_network)
        cache.distances(0, [3])
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (0, 0)

    def test_invalid_capacity(self, diamond_network):
        with pytest.raises(ValueError):
            DijkstraCache(diamond_network, max_sources=0)


class TestKShortestPaths:
    def test_returns_distinct_ordered_paths(self, diamond_network):
        paths = k_shortest_paths(diamond_network, 0, 3, k=2)
        assert len(paths) == 2
        assert paths[0] == [0, 1]
        assert paths[1] == [2, 3]

    def test_all_paths_are_connected(self):
        network = generate_city_network(
            CityConfig(name="ksp", grid_rows=5, grid_cols=5, seed=4))
        paths = k_shortest_paths(network, 0, network.num_nodes // 2, k=4)
        assert paths
        for path in paths:
            assert network.is_connected_path(path)

    def test_costs_are_nondecreasing(self):
        network = generate_city_network(
            CityConfig(name="ksp2", grid_rows=5, grid_cols=5, seed=8))
        paths = k_shortest_paths(network, 0, network.num_nodes - 5, k=4,
                                 edge_costs=network.edge_lengths)
        costs = [sum(network.edge_length(e) for e in p) for p in paths]
        assert costs == sorted(costs)

    def test_invalid_k(self, diamond_network):
        with pytest.raises(ValueError):
            k_shortest_paths(diamond_network, 0, 3, k=0)

    def test_unreachable_gives_empty_list(self, diamond_network):
        assert k_shortest_paths(diamond_network, 3, 0, k=3) == []

    def test_spur_paths_cannot_revisit_root_nodes(self, spur_loop_network):
        """Regression: edge-only spur bans used to emit looped paths.

        On this graph the old code returned [0, 3, 4, 5, 2] (node sequence
        0-1-4-0-2-3, revisiting node 0) as the third path.
        """
        paths = k_shortest_paths(spur_loop_network, 0, 3, k=3,
                                 edge_costs=spur_loop_network.edge_lengths)
        assert paths == [[0, 1, 2], [5, 2]]
        for path in paths:
            nodes = spur_loop_network.path_nodes(path)
            assert len(nodes) == len(set(nodes))

    def test_all_paths_are_loop_free_on_generated_city(self):
        network = generate_city_network(
            CityConfig(name="ksp3", grid_rows=5, grid_cols=5, seed=13))
        rng = np.random.default_rng(5)
        for _ in range(5):
            source, target = (int(n) for n in
                              rng.integers(0, network.num_nodes, size=2))
            if source == target:
                continue
            for path in k_shortest_paths(network, source, target, k=4,
                                         edge_costs=network.edge_lengths):
                nodes = network.path_nodes(path)
                assert len(nodes) == len(set(nodes))
                assert len(path) == len(set(path))


class TestInputValidation:
    """Bad node ids and bad cost arrays raise ValueError on entry."""

    @pytest.mark.parametrize("source, target", [(-1, 3), (0, 4), (4, 0), (0, -1)])
    def test_out_of_range_nodes_rejected(self, diamond_network, source, target):
        with pytest.raises(ValueError, match="not in the network"):
            shortest_path(diamond_network, source, target)
        with pytest.raises(ValueError, match="not in the network"):
            k_shortest_paths(diamond_network, source, target, k=2)
        with pytest.raises(ValueError, match="not in the network"):
            DijkstraCache(diamond_network).distances(source, [target])

    def test_cache_rejects_before_caching(self, diamond_network):
        cache = DijkstraCache(diamond_network)
        with pytest.raises(ValueError):
            cache.distances(-1, [3])
        assert len(cache) == 0 and cache.misses == 0

    @pytest.mark.parametrize("costs", [
        np.ones(3),                               # too short
        np.ones((4, 1)),                          # wrong shape
        np.array([1.0, np.nan, 1.0, 1.0]),        # NaN
        np.array([1.0, 1.0, -0.5, 1.0]),          # negative
        np.array([1.0, 1.0, 1.0, -np.inf]),       # negative infinity
    ])
    def test_bad_cost_arrays_rejected(self, diamond_network, costs):
        # The NaN and negative entries sit on edges the 0 -> 1 search never
        # relaxes from its settled nodes, so only an up-front check sees them.
        with pytest.raises(ValueError, match="edge"):
            shortest_path(diamond_network, 0, 1, edge_costs=costs)
        with pytest.raises(ValueError, match="edge"):
            k_shortest_paths(diamond_network, 0, 1, k=2, edge_costs=costs)
        with pytest.raises(ValueError, match="edge"):
            DijkstraCache(diamond_network, edge_costs=costs)

    def test_inf_costs_are_accepted(self, diamond_network):
        costs = np.full(4, np.inf)
        assert shortest_path(diamond_network, 0, 3, edge_costs=costs) is None
        assert k_shortest_paths(diamond_network, 0, 3, k=2, edge_costs=costs) == []
        cache = DijkstraCache(diamond_network, edge_costs=costs)
        assert cache.distances(0, [0, 3]) == {0: 0.0, 3: float("inf")}

    def test_caller_costs_are_not_modified(self, diamond_network):
        costs = np.array([1.0, 1.0, 2.0, 2.0])
        k_shortest_paths(diamond_network, 0, 3, k=2, edge_costs=costs)
        assert costs.tolist() == [1.0, 1.0, 2.0, 2.0]


class TestPathSimilarity:
    def test_identical_paths(self, diamond_network):
        assert path_similarity(diamond_network, [0, 1], [0, 1]) == pytest.approx(1.0)

    def test_disjoint_paths(self, diamond_network):
        assert path_similarity(diamond_network, [0, 1], [2, 3]) == pytest.approx(0.0)

    def test_partial_overlap_weighted_by_length(self, diamond_network):
        # Shared edge 0 (100m); union = edges 0,1,2 = 500m.
        value = path_similarity(diamond_network, [0, 1], [0, 2])
        assert value == pytest.approx(100.0 / 500.0)

    def test_symmetry(self, diamond_network):
        a = path_similarity(diamond_network, [0, 1], [0, 2])
        b = path_similarity(diamond_network, [0, 2], [0, 1])
        assert a == pytest.approx(b)

    def test_empty_path_gives_zero(self, diamond_network):
        assert path_similarity(diamond_network, [], [0, 1]) == 0.0
