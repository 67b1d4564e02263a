"""Path search over road networks.

The path-ranking and path-recommendation downstream tasks (paper §VII-A2)
need, for every observed trajectory path, a set of *alternative* paths
connecting the same source and destination.  The paper uses "a path finding
algorithm" for this; we provide Dijkstra shortest paths and a Yen-style
k-shortest-path enumeration, both over an array of per-edge costs (one
entry per edge id) and one relaxation loop.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict

import numpy as np

__all__ = ["shortest_path", "k_shortest_paths", "path_similarity", "DijkstraCache"]


def _check_nodes(network, nodes):
    """Raise ``ValueError`` unless every node id is in ``[0, num_nodes)``."""
    num_nodes = network.num_nodes
    for node in nodes:
        if not 0 <= node < num_nodes:
            raise ValueError(
                f"node id {node} is not in the network ({num_nodes} nodes)")


def _cost_list(network, edge_costs):
    """Checked per-edge costs (default: free-flow times) as a list."""
    if edge_costs is None:
        edge_costs = network.free_flow_times
    # The network's own read-only arrays are positive by construction and
    # keep their list form.
    for name in ("free_flow_times", "edge_lengths"):
        if edge_costs is network._array(name):
            return network._list(name)
    costs = np.asarray(edge_costs, dtype=np.float64)
    if costs.shape != (network.num_edges,):
        raise ValueError(f"edge_costs must have shape ({network.num_edges},), "
                         f"got {costs.shape}")
    # ``>= 0`` is False for NaN as well as for negatives.
    if not (costs >= 0).all():
        raise ValueError("edge costs must be non-negative and not NaN for "
                         "Dijkstra (inf closes an edge)")
    return costs.tolist()


class _DijkstraState:
    """A resumable single-source Dijkstra run over a per-edge cost list.

    This is the one relaxation loop of the package.  An ``inf`` cost closes
    its edge: ``cost + inf < best`` is never true, so the edge is never
    relaxed.  Parent edges are recorded so a settled node's path can be
    rebuilt.
    """

    __slots__ = ("network", "source", "costs", "best", "parents", "settled", "heap")

    def __init__(self, network, costs, source):
        self.network = network
        self.source = source
        self.costs = costs
        self.best = {source: 0.0}
        self.parents = {}
        self.settled = set()
        self.heap = [(0.0, source)]

    def settle(self, targets):
        """Pop until every node in ``targets`` is settled (or the heap dries up)."""
        settled = self.settled
        remaining = {t for t in targets if t not in settled}
        heap = self.heap
        best = self.best
        parents = self.parents
        costs = self.costs
        # Per-node out-edge lists in insertion order (read, never modified)
        # and the head node of every edge.
        out_edges = self.network._out_edges
        heads = self.network._list("edge_targets")
        infinity = float("inf")
        while heap and remaining:
            cost, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled.add(node)
            remaining.discard(node)
            for edge in out_edges[node]:
                candidate = cost + costs[edge]
                neighbour = heads[edge]
                if candidate < best.get(neighbour, infinity):
                    best[neighbour] = candidate
                    parents[neighbour] = edge
                    heapq.heappush(heap, (candidate, neighbour))

    def path_to(self, target):
        """Edge ids of the shortest path to a settled ``target`` (else None)."""
        if target not in self.settled:
            return None
        tails = self.network._list("edge_sources")
        edges = []
        node = target
        while node != self.source:
            edges.append(self.parents[node])
            node = tails[edges[-1]]
        edges.reverse()
        return edges


def shortest_path(network, source, target, edge_costs=None):
    """Dijkstra shortest path from ``source`` to ``target`` node.

    Parameters
    ----------
    network:
        A :class:`~repro.roadnet.network.RoadNetwork`.
    source, target:
        Node ids in ``[0, num_nodes)``.
    edge_costs:
        Optional non-negative cost per edge, shape ``(num_edges,)``; an
        ``inf`` entry closes that edge.  Defaults to
        ``network.free_flow_times``.

    Returns
    -------
    list of edge ids (``[]`` when ``source == target``), or ``None`` when
    the target is unreachable.
    """
    _check_nodes(network, (source, target))
    state = _DijkstraState(network, _cost_list(network, edge_costs), source)
    state.settle((target,))
    return state.path_to(target)


def k_shortest_paths(network, source, target, k, edge_costs=None):
    """Return up to ``k`` loop-free paths ordered by cost (Yen's algorithm).

    The deviation-path construction bans one edge of the current best path at
    a time, which yields genuinely different alternatives — exactly what the
    ranking/recommendation tasks need as negative candidates.  Each spur
    search additionally bans the root path's nodes, so a spur can never
    revisit a node already used by its root — without this, the returned
    "loop-free" paths could repeat nodes and edges.  A ban is an ``inf``
    entry in a copy of the costs: the banned edges and every in-edge of a
    banned node (the spur node itself is never banned).

    ``edge_costs`` is as for :func:`shortest_path`.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    cost_list = _cost_list(network, edge_costs)
    first = shortest_path(network, source, target, edge_costs=edge_costs)
    if first is None:
        return []

    costs = np.array(cost_list)
    edge_sources = network._list("edge_sources")

    def cost_of(path):
        return sum(cost_list[e] for e in path)

    accepted = [first]
    candidates = []
    seen = {tuple(first)}

    while len(accepted) < k:
        previous = accepted[-1]
        for spur_index in range(len(previous)):
            spur_node = edge_sources[previous[spur_index]]
            root = previous[:spur_index]
            closed = [path[spur_index] for path in accepted
                      if path[:spur_index] == root and spur_index < len(path)]
            # Nodes already visited by the root (everything before the spur
            # node) must stay off-limits, otherwise the spur path can loop
            # back through the root.
            for node in {edge_sources[edge] for edge in root}:
                closed.extend(network.in_edges(node))
            spur_costs = costs.copy()
            spur_costs[closed] = np.inf
            spur = shortest_path(network, spur_node, target,
                                 edge_costs=spur_costs)
            if spur is None:
                continue
            candidate = root + spur
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


class DijkstraCache:
    """LRU cache of resumable single-source Dijkstra searches.

    The HMM map matcher prices the network distance between every pair of
    consecutive candidate edges; without caching, that is one full Dijkstra
    per Viterbi cell.  This cache keys a resumable search state by source
    node, so each unique source is explored once — later queries (from any
    Viterbi step, or any trajectory in a batch) resume the existing frontier
    only as far as the new targets require.

    Distances are bit-identical to :func:`shortest_path` edge-cost sums: both
    run the same relaxation loop (``_DijkstraState``).  Cached states are
    not updated when the network changes: build a new cache after
    ``add_node``/``add_edge``.

    ``scipy.sparse.csgraph.dijkstra`` gives the same distances bit for bit,
    but it computes whole rows up front: a cache of full rows made
    map-matching slower than this bounded, resumable search on a 2,016-node
    grid, so the search stays.

    Parameters
    ----------
    network:
        A :class:`~repro.roadnet.network.RoadNetwork`.
    edge_costs:
        Optional non-negative cost per edge, shape ``(num_edges,)``.
        Defaults to ``network.free_flow_times``.
    max_sources:
        How many source states to keep (least recently used are evicted).
    """

    def __init__(self, network, edge_costs=None, max_sources=4096):
        if max_sources < 1:
            raise ValueError("max_sources must be >= 1")
        self.max_sources = max_sources
        self._network = network
        # One cost list, shared by every cached state.
        self._costs = _cost_list(network, edge_costs)
        self._states = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self):
        return len(self._states)

    def distances(self, source, targets):
        """Distances from ``source`` to each node in ``targets``.

        Returns a dict ``target -> distance`` with ``float("inf")`` for
        unreachable targets.  Node ids must be in ``[0, num_nodes)``.
        """
        _check_nodes(self._network, (source, *targets))
        state = self._states.get(source)
        if state is None:
            self.misses += 1
            state = _DijkstraState(self._network, self._costs, source)
            self._states[source] = state
            if len(self._states) > self.max_sources:
                self._states.popitem(last=False)
        else:
            self.hits += 1
        self._states.move_to_end(source)
        state.settle(targets)
        infinity = float("inf")
        settled = state.settled
        best = state.best
        return {target: best[target] if target in settled else infinity
                for target in targets}

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
