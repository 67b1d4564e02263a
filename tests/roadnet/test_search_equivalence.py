"""Route search on cost arrays pinned to the callable-cost loop oracles.

``shortest_path``, ``k_shortest_paths`` and ``DijkstraCache.distances`` run
one relaxation loop over per-edge cost lists; the oracles in
``tests/oracles.py`` are the original per-call loops over a cost callable
with explicit ban sets.  On generated cities, with random, tie-heavy
(small integer, zeros included) and partly closed (``inf``) cost arrays,
both must return the same paths in the same order and the same distances,
bit for bit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    ReferenceDijkstraCache,
    reference_k_shortest_paths,
    reference_shortest_path,
)

from repro.roadnet import (
    CityConfig,
    DijkstraCache,
    generate_city_network,
    k_shortest_paths,
    shortest_path,
)

city_configs = st.builds(
    CityConfig,
    name=st.just("search-city"),
    grid_rows=st.integers(min_value=3, max_value=6),
    grid_cols=st.integers(min_value=3, max_value=6),
    arterial_every=st.integers(min_value=2, max_value=4),
    highway_ring=st.booleans(),
    one_way_fraction=st.floats(min_value=0.0, max_value=0.4),
    seed=st.integers(min_value=0, max_value=50),
)

cost_kinds = st.sampled_from(["free_flow", "random", "integer", "closed"])


def make_costs(network, kind, rng):
    """A cost array of the given kind (``None``: the free-flow default)."""
    if kind == "free_flow":
        return None
    if kind == "random":
        return rng.uniform(0.0, 100.0, size=network.num_edges)
    costs = rng.integers(0, 4, size=network.num_edges).astype(np.float64)
    if kind == "closed":
        costs[rng.random(network.num_edges) < 0.2] = np.inf
    return costs


def cost_callable(network, costs):
    values = (network.free_flow_times if costs is None else costs).tolist()
    return lambda edge: values[edge]


def random_pairs(network, rng, count):
    return [tuple(int(n) for n in rng.integers(0, network.num_nodes, size=2))
            for _ in range(count)]


@given(city_configs, cost_kinds, st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=40, deadline=None)
def test_shortest_path_matches_oracle(config, kind, seed):
    network = generate_city_network(config)
    rng = np.random.default_rng(seed)
    costs = make_costs(network, kind, rng)
    edge_cost = cost_callable(network, costs)
    for source, target in random_pairs(network, rng, 5):
        assert (shortest_path(network, source, target, edge_costs=costs)
                == reference_shortest_path(network, source, target,
                                           edge_cost=edge_cost))


@given(city_configs, cost_kinds, st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=40, deadline=None)
def test_bans_as_inf_costs_match_oracle_ban_sets(config, kind, seed):
    """Closing banned edges and every in-edge of banned nodes (``inf``)
    is the oracle's ``banned_edges``/``banned_nodes`` search."""
    network = generate_city_network(config)
    rng = np.random.default_rng(seed)
    costs = make_costs(network, kind, rng)
    base = network.free_flow_times if costs is None else costs
    edge_cost = cost_callable(network, costs)
    for source, target in random_pairs(network, rng, 5):
        banned_edges = {int(e) for e in
                        rng.integers(0, network.num_edges, size=3)}
        banned_nodes = {int(n) for n in
                        rng.integers(0, network.num_nodes, size=2)}
        closed = base.copy()
        closed[list(banned_edges)] = np.inf
        for node in banned_nodes - {source}:
            closed[list(network.in_edges(node))] = np.inf
        assert (shortest_path(network, source, target, edge_costs=closed)
                == reference_shortest_path(
                    network, source, target, edge_cost=edge_cost,
                    banned_edges=banned_edges, banned_nodes=banned_nodes))


@given(city_configs, cost_kinds, st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=1, max_value=5))
@settings(max_examples=30, deadline=None)
def test_k_shortest_paths_match_oracle(config, kind, seed, k):
    network = generate_city_network(config)
    rng = np.random.default_rng(seed)
    costs = make_costs(network, kind, rng)
    edge_cost = cost_callable(network, costs)
    for source, target in random_pairs(network, rng, 3):
        assert (k_shortest_paths(network, source, target, k, edge_costs=costs)
                == reference_k_shortest_paths(network, source, target, k,
                                              edge_cost=edge_cost))


@given(city_configs, cost_kinds, st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=30, deadline=None)
def test_cache_distances_match_oracle(config, kind, seed, max_sources):
    """Resumed, evicted and fresh queries give the oracle's distances."""
    network = generate_city_network(config)
    rng = np.random.default_rng(seed)
    costs = make_costs(network, kind, rng)
    cache = DijkstraCache(network, edge_costs=costs, max_sources=max_sources)
    oracle = ReferenceDijkstraCache(network, edge_cost=cost_callable(network, costs),
                                    max_sources=max_sources)
    for _ in range(12):
        source = int(rng.integers(0, min(6, network.num_nodes)))
        targets = [int(t) for t in rng.integers(0, network.num_nodes, size=3)]
        distances = cache.distances(source, targets)
        assert distances == oracle.distances(source, targets)
        for target in targets:
            assert type(distances[target]) is float
    assert (cache.hits, cache.misses, len(cache)) == (
        oracle.hits, oracle.misses, len(oracle))
