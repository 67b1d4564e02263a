"""Tests for the RoadNetwork graph model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.roadnet import EdgeFeatures, Path, RoadNetwork


def simple_features(length=100.0):
    return EdgeFeatures(road_type="residential", lanes=1, one_way=False,
                        traffic_signals=False, length=length, speed_limit=36.0)


@pytest.fixture()
def triangle_network():
    """Three nodes connected in a directed cycle 0 -> 1 -> 2 -> 0."""
    network = RoadNetwork(name="triangle")
    for i in range(3):
        network.add_node(i * 100.0, 0.0)
    network.add_edge(0, 1, simple_features(100.0))
    network.add_edge(1, 2, simple_features(200.0))
    network.add_edge(2, 0, simple_features(300.0))
    return network


class TestConstruction:
    def test_node_and_edge_counts(self, triangle_network):
        assert triangle_network.num_nodes == 3
        assert triangle_network.num_edges == 3

    def test_self_loop_rejected(self, triangle_network):
        with pytest.raises(ValueError):
            triangle_network.add_edge(0, 0, simple_features())

    def test_unknown_node_rejected(self, triangle_network):
        with pytest.raises(KeyError):
            triangle_network.add_edge(0, 99, simple_features())

    def test_wrong_feature_type_rejected(self, triangle_network):
        with pytest.raises(TypeError):
            triangle_network.add_edge(0, 2, {"length": 10})

    def test_edge_lookup(self, triangle_network):
        assert triangle_network.edge_id(0, 1) == 0
        assert triangle_network.edge_id(1, 0) is None

    def test_adjacency(self, triangle_network):
        assert triangle_network.out_edges(0) == (0,)
        assert triangle_network.in_edges(0) == (2,)


class TestGeometry:
    def test_edge_midpoint(self, triangle_network):
        x, y = triangle_network.edge_midpoint(0)
        assert x == pytest.approx(50.0)
        assert y == pytest.approx(0.0)

    def test_point_along_edge_clamps_fraction(self, triangle_network):
        start = triangle_network.point_along_edge(0, -1.0)
        end = triangle_network.point_along_edge(0, 2.0)
        assert start == triangle_network.node_coordinates(0)
        assert end == triangle_network.node_coordinates(1)


class TestPaths:
    def test_connected_path_detection(self, triangle_network):
        assert triangle_network.is_connected_path([0, 1, 2])
        assert not triangle_network.is_connected_path([0, 2])
        assert not triangle_network.is_connected_path([])

    def test_path_length_and_time(self, triangle_network):
        assert triangle_network.path_length([0, 1]) == pytest.approx(300.0)
        # 36 km/h = 10 m/s -> 30 seconds.
        assert triangle_network.path_free_flow_time([0, 1]) == pytest.approx(30.0)

    def test_path_nodes(self, triangle_network):
        assert triangle_network.path_nodes([0, 1, 2]) == [0, 1, 2, 0]

    def test_path_object_validation(self):
        with pytest.raises(ValueError):
            Path([])
        path = Path([3, 4, 5])
        assert len(path) == 3
        assert path[1] == 4
        assert Path([3, 4, 5]) == path
        assert hash(Path([3, 4, 5])) == hash(path)


class TestArrayView:
    def test_arrays_match_per_edge_accessors(self, triangle_network):
        network = triangle_network
        for edge in range(network.num_edges):
            source, target = network.edge_endpoints(edge)
            assert network.edge_sources[edge] == source
            assert network.edge_targets[edge] == target
            assert network.edge_lengths[edge] == network.edge_length(edge)
            assert (network.free_flow_times[edge]
                    == network.edge_features(edge).free_flow_time)
        for node in range(network.num_nodes):
            assert tuple(network.node_coords[node]) == network.node_coordinates(node)

    def test_arrays_are_read_only(self, triangle_network):
        with pytest.raises(ValueError):
            triangle_network.edge_lengths[0] = 1.0
        with pytest.raises(ValueError):
            triangle_network.node_coords[0, 0] = 1.0

    def test_arrays_reflect_additions_after_first_read(self, triangle_network):
        network = triangle_network
        assert network.edge_targets.tolist() == [1, 2, 0]
        node = network.add_node(0.0, 50.0)
        assert network.node_coords.shape == (4, 2)
        edge = network.add_edge(2, node, simple_features(400.0))
        assert network.edge_sources.tolist() == [0, 1, 2, 2]
        assert network.edge_targets.tolist() == [1, 2, 0, node]
        assert network.edge_lengths[edge] == 400.0
        assert len(network.free_flow_times) == 4

    def test_empty_network_has_empty_arrays(self):
        network = RoadNetwork()
        assert network.edge_sources.shape == (0,)
        assert network.edge_lengths.shape == (0,)
        assert network.node_coords.shape == (0, 2)


class TestExportsAndStats:
    def test_feature_matrix_shape(self, triangle_network):
        matrix = triangle_network.edge_feature_matrix()
        assert matrix.shape == (3, 4)

    def test_statistics(self, triangle_network):
        stats = triangle_network.statistics()
        assert stats["num_nodes"] == 3
        assert stats["num_edges"] == 3
        assert stats["total_length_km"] == pytest.approx(0.6)

    def test_to_networkx_roundtrip(self, triangle_network):
        graph = triangle_network.to_networkx()
        assert graph.number_of_nodes() == 3
        assert graph.number_of_edges() == 3
        assert graph[0][1]["edge_id"] == 0
        assert graph[0][1]["length"] == pytest.approx(100.0)
