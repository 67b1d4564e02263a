"""Path search over road networks.

The path-ranking and path-recommendation downstream tasks (paper §VII-A2)
need, for every observed trajectory path, a set of *alternative* paths
connecting the same source and destination.  The paper uses "a path finding
algorithm" for this; we provide Dijkstra shortest paths and a Yen-style
k-shortest-path enumeration, both expressed over edge travel costs.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict

__all__ = ["shortest_path", "k_shortest_paths", "path_similarity", "DijkstraCache"]


def shortest_path(network, source, target, edge_cost=None, banned_edges=None,
                  banned_nodes=None):
    """Dijkstra shortest path from ``source`` to ``target`` node.

    Parameters
    ----------
    network:
        A :class:`~repro.roadnet.network.RoadNetwork`.
    source, target:
        Node ids.
    edge_cost:
        Optional callable ``edge_id -> cost``.  Defaults to free-flow time.
    banned_edges:
        Optional set of edge ids that must not be used.
    banned_nodes:
        Optional set of node ids that must not be visited (the source itself
        is exempt).  Yen's spur searches use this to stay loop-free.

    Returns
    -------
    list of edge ids, or ``None`` when the target is unreachable.
    """
    if edge_cost is None:
        edge_cost = lambda e: network.edge_features(e).free_flow_time
    banned = banned_edges or frozenset()
    banned_node_set = banned_nodes or frozenset()

    best = {source: 0.0}
    back_edge = {}
    heap = [(0.0, source)]
    visited = set()
    while heap:
        cost, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        if node == target:
            break
        for edge in network.out_edges(node):
            if edge in banned:
                continue
            _, neighbour = network.edge_endpoints(edge)
            if neighbour in banned_node_set:
                continue
            step = edge_cost(edge)
            if step < 0:
                raise ValueError("edge costs must be non-negative for Dijkstra")
            candidate = cost + step
            if candidate < best.get(neighbour, float("inf")):
                best[neighbour] = candidate
                back_edge[neighbour] = edge
                heapq.heappush(heap, (candidate, neighbour))

    if target not in back_edge and source != target:
        return None
    if source == target:
        return []

    # Reconstruct edge sequence.
    edges = []
    node = target
    while node != source:
        edge = back_edge[node]
        edges.append(edge)
        node = network.edge_endpoints(edge)[0]
    edges.reverse()
    return edges


def k_shortest_paths(network, source, target, k, edge_cost=None):
    """Return up to ``k`` loop-free paths ordered by cost (Yen's algorithm).

    The deviation-path construction bans one edge of the current best path at
    a time, which yields genuinely different alternatives — exactly what the
    ranking/recommendation tasks need as negative candidates.  Each spur
    search additionally bans the root path's nodes, so a spur can never
    revisit a node already used by its root — without this, the returned
    "loop-free" paths could repeat nodes and edges.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if edge_cost is None:
        edge_cost = lambda e: network.edge_features(e).free_flow_time

    first = shortest_path(network, source, target, edge_cost=edge_cost)
    if first is None:
        return []

    def cost_of(path):
        return sum(edge_cost(e) for e in path)

    accepted = [first]
    candidates = []
    seen = {tuple(first)}

    while len(accepted) < k:
        previous = accepted[-1]
        for spur_index in range(len(previous)):
            spur_node = network.edge_endpoints(previous[spur_index])[0]
            root = previous[:spur_index]
            banned = set()
            for path in accepted:
                if list(path[:spur_index]) == list(root) and spur_index < len(path):
                    banned.add(path[spur_index])
            # Nodes already visited by the root (everything before the spur
            # node) must stay off-limits, otherwise the spur path can loop
            # back through the root.
            root_nodes = {network.edge_endpoints(edge)[0] for edge in root}
            spur = shortest_path(network, spur_node, target,
                                 edge_cost=edge_cost, banned_edges=banned,
                                 banned_nodes=root_nodes)
            if spur is None:
                continue
            candidate = list(root) + spur
            key = tuple(candidate)
            if key in seen or not network.is_connected_path(candidate):
                continue
            seen.add(key)
            heapq.heappush(candidates, (cost_of(candidate), len(candidates), candidate))
        if not candidates:
            break
        _, _, best_candidate = heapq.heappop(candidates)
        accepted.append(best_candidate)

    # The deviation search can occasionally surface a cheaper alternative after
    # a more expensive one has been accepted; sort so the documented
    # "ordered by cost" contract always holds (the true shortest stays first).
    accepted.sort(key=cost_of)
    return accepted


class _NetworkAdjacency:
    """Lazy per-node ``[(cost, head), ...]`` rows computed from the network.

    Rows are built (and edge costs validated) on first access, so searches
    touch only the nodes they actually relax.
    """

    __slots__ = ("_network", "_edge_cost", "_rows")

    def __init__(self, network, edge_cost):
        self._network = network
        self._edge_cost = edge_cost
        self._rows = {}

    def __getitem__(self, node):
        rows = self._rows.get(node)
        if rows is None:
            rows = []
            for edge in self._network.out_edges(node):
                step = self._edge_cost(edge)
                if step < 0:
                    raise ValueError("edge costs must be non-negative for Dijkstra")
                rows.append((step, self._network.edge_endpoints(edge)[1]))
            self._rows[node] = rows
        return rows


class _DijkstraState:
    """A resumable single-source Dijkstra run over an adjacency table."""

    __slots__ = ("best", "settled", "heap")

    def __init__(self, source):
        self.best = {source: 0.0}
        self.settled = {}
        self.heap = [(0.0, source)]

    def settle(self, targets, adjacency):
        """Pop until every node in ``targets`` is settled (or the heap dries up)."""
        remaining = {t for t in targets if t not in self.settled}
        heap = self.heap
        settled = self.settled
        best = self.best
        while heap and remaining:
            cost, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled[node] = cost
            remaining.discard(node)
            for step, neighbour in adjacency[node]:
                candidate = cost + step
                if candidate < best.get(neighbour, float("inf")):
                    best[neighbour] = candidate
                    heapq.heappush(heap, (candidate, neighbour))


class DijkstraCache:
    """LRU cache of resumable single-source Dijkstra searches.

    The HMM map matcher prices the network distance between every pair of
    consecutive candidate edges; without caching, that is one full Dijkstra
    per Viterbi cell.  This cache keys a resumable search state by source
    node, so each unique source is explored once — later queries (from any
    Viterbi step, or any trajectory in a batch) resume the existing frontier
    only as far as the new targets require.

    Distances are bit-identical to :func:`shortest_path` edge-cost sums: the
    relaxation order (``network.out_edges`` order) and the float accumulation
    (``cost + step`` along the shortest-path tree) are the same.

    Parameters
    ----------
    network:
        A :class:`~repro.roadnet.network.RoadNetwork`.
    edge_cost:
        Optional callable ``edge_id -> cost``.  Defaults to free-flow time.
    max_sources:
        How many source states to keep (least recently used are evicted).
    """

    def __init__(self, network, edge_cost=None, max_sources=4096):
        if max_sources < 1:
            raise ValueError("max_sources must be >= 1")
        if edge_cost is None:
            edge_cost = lambda e: network.edge_features(e).free_flow_time
        self.max_sources = max_sources
        # Adjacency rows — (cost, head) per outgoing edge in out_edges order
        # — are materialised once per touched node and shared by every cached
        # state, keeping resumed relaxations free of per-edge method calls.
        self._adjacency = _NetworkAdjacency(network, edge_cost)
        self._states = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self):
        return len(self._states)

    def distances(self, source, targets):
        """Distances from ``source`` to each node in ``targets``.

        Returns a dict ``target -> distance`` with ``float("inf")`` for
        unreachable targets.
        """
        state = self._states.get(source)
        if state is None:
            self.misses += 1
            state = _DijkstraState(source)
            self._states[source] = state
            if len(self._states) > self.max_sources:
                self._states.popitem(last=False)
        else:
            self.hits += 1
        self._states.move_to_end(source)
        state.settle(targets, self._adjacency)
        infinity = float("inf")
        settled = state.settled
        return {target: settled.get(target, infinity) for target in targets}

    def clear(self):
        """Drop all cached states (and reset the hit/miss counters)."""
        self._states.clear()
        self.hits = 0
        self.misses = 0


def path_similarity(network, path_a, path_b):
    """Length-weighted Jaccard similarity between two paths.

    This is the score the paper uses to rank generated alternatives against
    the observed trajectory path: the trajectory path scores 1.0 against
    itself, and alternatives score according to how much of their length
    they share with it.
    """
    edges_a = set(path_a)
    edges_b = set(path_b)
    if not edges_a or not edges_b:
        return 0.0
    if edges_a == edges_b:
        return 1.0
    # Iterate in sorted order so equal edge sets always sum identically.
    shared = sorted(edges_a & edges_b)
    union = sorted(edges_a | edges_b)
    shared_length = sum(network.edge_length(e) for e in shared)
    union_length = sum(network.edge_length(e) for e in union)
    if union_length <= 0:
        return 0.0
    return float(shared_length / union_length)
