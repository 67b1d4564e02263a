"""Loop oracles for the equivalence suites and the engine benchmarks.

Every production engine in ``repro`` is a vectorized rewrite of an original
per-item Python loop.  The loops live here, outside the package, as plain
functions that take the production object they stand in for.  The serving
layer's oracle is the model itself, encoded without the service.  The
equivalence suites compare against them directly; whole-pipeline gates run
the production code with the oracles swapped in through
:func:`reference_engines`.
"""

from __future__ import annotations

import contextlib
import heapq
import importlib
from collections import OrderedDict

import numpy as np

from repro import nn
from repro.core.sampling import ContrastSets, EdgeSampleSets
from repro.downstream.metrics import _STATISTICS, _validate
from repro.nn import functional as F
from repro.roadnet.search import shortest_path


# ----------------------------------------------------------------------
# graph: node2vec walks and skip-gram corpus
# ----------------------------------------------------------------------
def reference_walk_from(walker, start, length):
    """One biased walk via the per-step loop (a :class:`RandomWalker` oracle)."""
    walk = [start]
    neighbors = list(walker.neighbors_fn(start))
    if not neighbors:
        return walk
    walk.append(int(walker.rng.choice(neighbors)))
    while len(walk) < length:
        current = walk[-1]
        previous = walk[-2]
        neighbors = list(walker.neighbors_fn(current))
        if not neighbors:
            break
        weights = np.empty(len(neighbors))
        previous_neighbors = set(walker.neighbors_fn(previous))
        for index, candidate in enumerate(neighbors):
            if candidate == previous:
                weights[index] = 1.0 / walker.p
            elif candidate in previous_neighbors:
                weights[index] = 1.0
            else:
                weights[index] = 1.0 / walker.q
        weights /= weights.sum()
        walk.append(int(walker.rng.choice(neighbors, p=weights)))
    return walk


def reference_batched_walks(walker, starts, length):
    """One loop walk per start, in order (stands in for ``_batched_walks``)."""
    return [reference_walk_from(walker, int(start), length) for start in starts]


def pairs_from_walk(trainer, walk):
    """(center, context) pairs within the window along one walk."""
    pairs = []
    for index, center in enumerate(walk):
        low = max(0, index - trainer.window)
        high = min(len(walk), index + trainer.window + 1)
        for context_index in range(low, high):
            if context_index != index:
                pairs.append((center, walk[context_index]))
    return pairs


def reference_pairs(trainer, walks):
    """All pairs of the corpus via the per-walk loops, as a (P, 2) array."""
    pairs = []
    for walk in walks:
        pairs.extend(pairs_from_walk(trainer, walk))
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def reference_noise_counts(trainer, walks):
    """Per-node corpus counts via the per-node loop."""
    counts = np.zeros(trainer.num_nodes)
    for walk in walks:
        for node in walk:
            counts[node] += 1
    return counts


# ----------------------------------------------------------------------
# roadnet: route search over cost callables
# ----------------------------------------------------------------------
def reference_shortest_path(network, source, target, edge_cost=None,
                            banned_edges=None, banned_nodes=None):
    """Dijkstra shortest path over a cost callable, with ban sets.

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


def reference_k_shortest_paths(network, source, target, k, edge_cost=None):
    """Yen's algorithm over a cost callable, with edge and node ban sets.

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

    first = reference_shortest_path(network, source, target, edge_cost=edge_cost)
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
            spur = reference_shortest_path(network, spur_node, target,
                                           edge_cost=edge_cost,
                                           banned_edges=banned,
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


class _ReferenceAdjacency:
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


class _ReferenceDijkstraState:
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


class ReferenceDijkstraCache:
    """LRU cache of resumable Dijkstra searches over lazy ``(cost, head)`` rows.

    The HMM map matcher prices the network distance between every pair of
    consecutive candidate edges; without caching, that is one full Dijkstra
    per Viterbi cell.  This cache keys a resumable search state by source
    node, so each unique source is explored once — later queries (from any
    Viterbi step, or any trajectory in a batch) resume the existing frontier
    only as far as the new targets require.

    Distances are bit-identical to :func:`reference_shortest_path` edge-cost
    sums: the relaxation order (``network.out_edges`` order) and the float
    accumulation (``cost + step`` along the shortest-path tree) are the same.

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
        self._adjacency = _ReferenceAdjacency(network, edge_cost)
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
            state = _ReferenceDijkstraState(source)
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


# ----------------------------------------------------------------------
# trajectory: trip pricing
# ----------------------------------------------------------------------
def reference_edge_travel_time_vector(speed_model, departure_time):
    """Every edge's cost via one scalar ``edge_travel_time`` call each."""
    return np.array([speed_model.edge_travel_time(edge, departure_time)
                     for edge in range(speed_model.network.num_edges)])


def reference_path_travel_times(speed_model, paths, departure_time):
    """Noise-free path prices via one scalar ``path_travel_time`` call each."""
    return np.array([speed_model.path_travel_time(path, departure_time)
                     for path in paths])


# ----------------------------------------------------------------------
# trajectory: HMM map matching
# ----------------------------------------------------------------------
def reference_candidates(matcher, point):
    """Closest candidate edges within the search radius (full scan).

    Returns ``(edges, distances, fractions)`` for the selected candidates,
    falling back to the single closest edge when none is in range.
    """
    distances, fractions = matcher._segment_distances(point)
    order = np.argsort(distances, kind="stable")
    selected = [int(e) for e in order[:matcher.max_candidates]
                if distances[e] <= matcher.candidate_radius]
    if not selected:
        selected = [int(order[0])]
    edges = np.array(selected, dtype=np.int64)
    return edges, distances[edges], fractions[edges]


def reference_candidate_sets(matcher, positions):
    """Per-fix candidates via the full-scan loop."""
    candidate_sets, fraction_sets, emission_sets = [], [], []
    for point in positions:
        edges, distances, fractions = reference_candidates(matcher, point)
        candidate_sets.append(edges)
        fraction_sets.append(fractions)
        emission_sets.append(
            np.array([matcher._emission_log_prob(d) for d in distances]))
    return candidate_sets, fraction_sets, emission_sets


def reference_transition_log_prob(matcher, edge_a, fraction_a, edge_b,
                                  fraction_b, straight_distance):
    """Transition likelihood between two candidates with a fresh Dijkstra.

    The network distance is the driving distance between the two fixes'
    projection points: the rest of ``edge_a``, the shortest path between the
    edges, and ``edge_b`` up to its match point (a forward crawl along one
    edge is the distance crawled).
    """
    network = matcher.network
    length_a = network.edge_length(edge_a)
    if edge_a == edge_b and fraction_b >= fraction_a:
        network_distance = (fraction_b - fraction_a) * length_a
    else:
        target_a = network.edge_endpoints(edge_a)[1]
        source_b = network.edge_endpoints(edge_b)[0]
        if target_a == source_b:
            between = 0.0
        else:
            connecting = shortest_path(network, target_a, source_b,
                                       edge_costs=network.edge_lengths)
            if connecting is None:
                return -np.inf
            between = sum(network.edge_length(e) for e in connecting)
        network_distance = ((1.0 - fraction_a) * length_a + between
                            + fraction_b * network.edge_length(edge_b))
    difference = abs(network_distance - straight_distance)
    return -difference / matcher.transition_beta


def reference_decode(matcher, candidate_sets, fraction_sets, emission_sets,
                     straights):
    """Viterbi with per-pair Python loops and fresh Dijkstras."""
    scores = [emission_sets[0]]
    back_pointers = [np.zeros(len(candidate_sets[0]), dtype=np.int64)]
    break_steps = set()
    for step in range(1, len(candidate_sets)):
        straight = straights[step - 1]
        previous_scores = scores[-1]
        previous_edges = candidate_sets[step - 1]
        previous_fractions = fraction_sets[step - 1]
        current_edges = candidate_sets[step]
        current_fractions = fraction_sets[step]
        best_values = np.full(len(current_edges), -np.inf)
        pointers = np.zeros(len(current_edges), dtype=np.int64)
        for j in range(len(current_edges)):
            best_value = -np.inf
            best_index = 0
            for i in range(len(previous_edges)):
                transition = reference_transition_log_prob(
                    matcher, previous_edges[i], previous_fractions[i],
                    current_edges[j], current_fractions[j], straight)
                value = previous_scores[i] + transition
                if value > best_value:
                    best_value = value
                    best_index = i
            best_values[j] = best_value
            pointers[j] = best_index
        if not np.any(best_values > -np.inf):
            # HMM break: restart decoding from this fix.
            break_steps.add(step)
            scores.append(emission_sets[step])
            back_pointers.append(np.zeros(len(current_edges), dtype=np.int64))
        else:
            scores.append(best_values + emission_sets[step])
            back_pointers.append(pointers)
    return scores, back_pointers, break_steps


# ----------------------------------------------------------------------
# downstream: rank metrics
# ----------------------------------------------------------------------
def reference_kendall_tau(truth, prediction):
    """O(n²) pair-loop Kendall τ-a."""
    truth, prediction = _validate(truth, prediction)
    n = len(truth)
    if n < 2:
        return 0.0
    concordant = 0
    discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            product = np.sign(truth[i] - truth[j]) * np.sign(prediction[i] - prediction[j])
            if product > 0:
                concordant += 1
            elif product < 0:
                discordant += 1
    return float((concordant - discordant) / (n * (n - 1) / 2.0))


def reference_ranks(values):
    """Average ranks (1-based) via a per-tie rescan."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.arange(1, len(values) + 1)
    for value in np.unique(values):
        mask = values == value
        if mask.sum() > 1:
            ranks[mask] = ranks[mask].mean()
    return ranks


def reference_spearman_rho(truth, prediction):
    """The no-ties ``1 − 6Σd²/(n(n²−1))`` shortcut.

    Agrees with :func:`repro.downstream.metrics.spearman_rho` only when both
    inputs are tie-free.
    """
    truth, prediction = _validate(truth, prediction)
    n = len(truth)
    if n < 2:
        return 0.0
    d = reference_ranks(truth) - reference_ranks(prediction)
    return float(1.0 - 6.0 * np.sum(d ** 2) / (n * (n ** 2 - 1)))


def reference_grouped_rank_correlation(truth, prediction, groups,
                                       statistic="kendall"):
    """Mask-per-group averaging over the production per-group statistics."""
    truth = np.asarray(truth, dtype=np.float64)
    prediction = np.asarray(prediction, dtype=np.float64)
    groups = np.asarray(groups)
    func = _STATISTICS[statistic]
    values = []
    for group in np.unique(groups):
        mask = groups == group
        if mask.sum() < 2:
            continue
        values.append(func(truth[mask], prediction[mask]))
    return float(np.mean(values)) if values else 0.0


# ----------------------------------------------------------------------
# downstream: regression trees
# ----------------------------------------------------------------------
class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, value):
        self.feature = None
        self.threshold = None
        self.left = None
        self.right = None
        self.value = value


def tree_thresholds(tree, column):
    """Deduplicated midpoints of adjacent unique values, subsampled."""
    unique = np.unique(column)
    if len(unique) < 2:
        return None
    midpoints = (unique[:-1] + unique[1:]) / 2.0
    if len(midpoints) > tree.max_thresholds:
        indices = np.unique(np.linspace(
            0, len(midpoints) - 1, tree.max_thresholds).astype(int))
        midpoints = midpoints[indices]
    return np.unique(midpoints)


def _best_split(tree, features, targets):
    """Per-feature, per-threshold scan for the best variance reduction."""
    num_samples, num_features = features.shape
    total_sum = targets.sum()
    total_sq = (targets ** 2).sum()
    parent_impurity = total_sq - total_sum ** 2 / num_samples

    best_gain = 1e-12
    best = None
    for feature in tree._candidate_features(num_features):
        column = features[:, feature]
        thresholds = tree_thresholds(tree, column)
        if thresholds is None:
            continue
        order = np.argsort(column, kind="stable")
        sorted_column = column[order]
        sorted_targets = targets[order]
        cum_sum = np.cumsum(sorted_targets)
        cum_sq = np.cumsum(sorted_targets ** 2)
        for threshold in thresholds:
            left_count = int(np.searchsorted(sorted_column, threshold, side="right"))
            right_count = num_samples - left_count
            if left_count < tree.min_samples_leaf or right_count < tree.min_samples_leaf:
                continue
            left_sum = cum_sum[left_count - 1]
            left_sq = cum_sq[left_count - 1]
            right_sum = total_sum - left_sum
            right_sq = total_sq - left_sq
            left_impurity = left_sq - left_sum ** 2 / left_count
            right_impurity = right_sq - right_sum ** 2 / right_count
            gain = parent_impurity - left_impurity - right_impurity
            if gain > best_gain:
                best_gain = gain
                best = (int(feature), float(threshold))
    return best


def _grow(tree, features, targets, depth):
    node = _Node(value=float(targets.mean()))
    if depth >= tree.max_depth or len(targets) < 2 * tree.min_samples_leaf:
        return node
    if np.allclose(targets, targets[0]):
        return node
    split = _best_split(tree, features, targets)
    if split is None:
        return node
    feature, threshold = split
    left_mask = features[:, feature] <= threshold
    node.feature = feature
    node.threshold = threshold
    node.left = _grow(tree, features[left_mask], targets[left_mask], depth + 1)
    node.right = _grow(tree, features[~left_mask], targets[~left_mask], depth + 1)
    return node


def reference_tree_fit(tree, features, targets, binned=None):
    """Grow ``tree`` as a linked node tree with the per-threshold loop.

    Exact binning only: the loop has no histogram path.  The root is kept
    on the tree for :func:`reference_tree_predict`.
    """
    if tree.binning != "exact" or binned is not None:
        raise ValueError("the loop oracle only supports binning='exact'")
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    tree.oracle_root = _grow(tree, features, targets, depth=0)
    return tree


def _predict_row(node, row):
    while node.feature is not None:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.value


def reference_tree_predict(tree, features):
    """Per-row walk of the tree grown by :func:`reference_tree_fit`."""
    root = getattr(tree, "oracle_root", None)
    if root is None:
        raise RuntimeError("tree has not been fitted by the oracle")
    features = np.asarray(features, dtype=np.float64)
    return np.array([_predict_row(root, row) for row in features])


# ----------------------------------------------------------------------
# core: contrast sets and edge sampling
# ----------------------------------------------------------------------
def reference_build_contrast_sets(batch):
    """The O(n²) pairwise scan for ``S_tpi`` / ``N_tpi``."""
    paths = [tuple(tp.path) for tp, _ in batch]
    labels = [label for _, label in batch]
    size = len(batch)
    positives = []
    negatives = []
    for i in range(size):
        positive = [j for j in range(size)
                    if j != i and paths[j] == paths[i] and labels[j] == labels[i]]
        negative = [j for j in range(size) if j != i and j not in positive]
        positives.append(np.asarray(positive, dtype=np.int64))
        negatives.append(np.asarray(negative, dtype=np.int64))
    return ContrastSets(positives=positives, negatives=negatives)


def _draw_edges(path_indices, lengths, rng, edges_per_path):
    rows = []
    cols = []
    for row in path_indices:
        valid = int(lengths[row])
        if valid <= 0:
            continue
        count = min(edges_per_path, valid)
        chosen = rng.choice(valid, size=count, replace=False)
        rows.extend([int(row)] * count)
        cols.extend(int(c) for c in chosen)
    return np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)


def reference_sample_edge_sets(batch, contrast_sets, mask, rng, edges_per_path=2):
    """Per-query ``rng.choice`` sampler (same distribution, other stream)."""
    size = len(batch)
    lengths = mask.sum(axis=1).astype(np.int64)
    positive_rows, positive_cols = [], []
    negative_rows, negative_cols = [], []
    for i in range(size):
        pos_paths = np.concatenate(([i], contrast_sets.positives[i])).astype(np.int64)
        rows_p, cols_p = _draw_edges(pos_paths, lengths, rng, edges_per_path)
        rows_n, cols_n = _draw_edges(contrast_sets.negatives[i], lengths, rng,
                                     edges_per_path)
        positive_rows.append(rows_p)
        positive_cols.append(cols_p)
        negative_rows.append(rows_n)
        negative_cols.append(cols_n)
    return EdgeSampleSets(positive_rows=positive_rows, positive_cols=positive_cols,
                          negative_rows=negative_rows, negative_cols=negative_cols)


# ----------------------------------------------------------------------
# core: attention and losses
# ----------------------------------------------------------------------
def reference_attention_forward(attention, x, mask=None, mask_bias=None):
    """Per-head loop of a :class:`MultiHeadSelfAttention` forward."""
    if mask is None and mask_bias is not None:
        # Recover the (batch, time) key mask from a precomputed bias.
        mask = (np.asarray(mask_bias)[:, 0, 0, :] == 0.0).astype(x.data.dtype)
    queries = attention.query(x)
    keys = attention.key(x)
    values = attention.value(x)
    head_outputs = []
    scale = 1.0 / np.sqrt(attention.head_dim)
    for head in range(attention.num_heads):
        start = head * attention.head_dim
        stop = start + attention.head_dim
        q = queries[:, :, start:stop]
        k = keys[:, :, start:stop]
        v = values[:, :, start:stop]
        scores = (q @ k.transpose(0, 2, 1)) * scale            # (B, T, T)
        if mask is not None:
            bias = (mask[:, None, :] - 1.0) * 1e9              # 0 valid, -1e9 pad
            scores = scores + nn.Tensor(bias.astype(x.data.dtype))
        head_outputs.append(F.softmax(scores, axis=-1) @ v)
    return attention.output(nn.Tensor.concatenate(head_outputs, axis=-1))


def _normalized(tprs, eps=1e-12):
    norm = (tprs * tprs).sum(axis=-1, keepdims=True) ** 0.5
    return tprs / (norm + eps)


def _negated_mean(terms, dtype):
    if not terms:
        return nn.Tensor(np.zeros((), dtype=dtype), requires_grad=False)
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return -(total * (1.0 / len(terms)))


def reference_global_wsc_loss(tprs, contrast_sets, temperature=0.1):
    """Per-query loop implementation of the negated Eq. 10."""
    normalized = _normalized(tprs)
    similarities = (normalized @ normalized.transpose()) * (1.0 / temperature)
    terms = []
    for i in range(len(contrast_sets.positives)):
        positives = contrast_sets.positives[i]
        negatives = contrast_sets.negatives[i]
        if len(positives) == 0 or len(negatives) == 0:
            continue
        denominator = F.logsumexp(similarities[i, negatives], axis=-1)
        terms.append((similarities[i, positives] - denominator).mean())
    return _negated_mean(terms, tprs.data.dtype)


def reference_local_wsc_loss(tprs, edge_representations, edge_sets, temperature=0.1):
    """Per-query loop implementation of the negated Eq. 11."""
    terms = []
    for i in range(tprs.shape[0]):
        pos_rows = edge_sets.positive_rows[i]
        neg_rows = edge_sets.negative_rows[i]
        if len(pos_rows) == 0 or len(neg_rows) == 0:
            continue
        query = tprs[i:i + 1, :]
        positive_edges = edge_representations[pos_rows, edge_sets.positive_cols[i]]
        negative_edges = edge_representations[neg_rows, edge_sets.negative_cols[i]]
        positive_sims = F.cosine_similarity(query, positive_edges) * (1.0 / temperature)
        negative_sims = F.cosine_similarity(query, negative_edges) * (1.0 / temperature)
        terms.append((F.logsumexp(positive_sims, axis=-1)
                      - F.logsumexp(negative_sims, axis=-1)) * (1.0 / len(pos_rows)))
    return _negated_mean(terms, tprs.data.dtype)


def reference_combined_wsc_loss(tprs, edge_representations, contrast_sets,
                                edge_sets, lambda_balance=0.8, temperature=0.1):
    """Negated Eq. 12 built from the per-query loop losses."""
    def global_term():
        return reference_global_wsc_loss(tprs, contrast_sets, temperature=temperature)

    def local_term():
        return reference_local_wsc_loss(tprs, edge_representations, edge_sets,
                                        temperature=temperature)

    if lambda_balance >= 1.0:
        return global_term()
    if lambda_balance <= 0.0:
        return local_term()
    return global_term() * lambda_balance + local_term() * (1.0 - lambda_balance)


# ----------------------------------------------------------------------
# serving: the evaluators' embedding path
# ----------------------------------------------------------------------
def direct_model(model):
    """The model itself, encoded directly (stands in for ``ensure_service``)."""
    return model


# ----------------------------------------------------------------------
# Swapping the oracles into the production pipeline
# ----------------------------------------------------------------------
#: layer -> [(module, attribute path, oracle)]: the names the production
#: code looks up, and the oracle each is replaced with.
LAYERS = {
    "walks": [("graph.walks", "RandomWalker._batched_walks", reference_batched_walks)],
    "sgns": [("graph.skipgram", "SkipGramTrainer._pairs", reference_pairs),
             ("graph.skipgram", "SkipGramTrainer._noise_counts", reference_noise_counts)],
    "simulator": [
        ("trajectory.speeds", "SpeedModel.edge_travel_time_vector",
         reference_edge_travel_time_vector),
        ("trajectory.speeds", "SpeedModel.path_travel_times",
         reference_path_travel_times)],
    "mapmatching": [
        ("trajectory.mapmatching", "HMMMapMatcher._candidate_sets",
         reference_candidate_sets),
        ("trajectory.mapmatching", "HMMMapMatcher._decode", reference_decode)],
    "training": [
        ("core.trainer", "combined_wsc_loss", reference_combined_wsc_loss),
        ("core.trainer", "build_contrast_sets", reference_build_contrast_sets),
        ("core.trainer", "sample_edge_sets", reference_sample_edge_sets),
        ("core.transformer", "MultiHeadSelfAttention.forward",
         reference_attention_forward)],
    "downstream": [("downstream.tree", "DecisionTreeRegressor.fit", reference_tree_fit),
                   ("downstream.tree", "DecisionTreeRegressor.predict",
                    reference_tree_predict)],
    # Both bindings: the harness imported its own ``ensure_service`` name.
    "serving": [("downstream.tasks", "ensure_service", direct_model),
                ("evaluation.harness", "ensure_service", direct_model)],
}


def swap_target(module_name, path):
    """The object holding the last attribute of ``path``, and its name."""
    owner = importlib.import_module(f"repro.{module_name}")
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


@contextlib.contextmanager
def reference_engines(*layers):
    """Run the named :data:`LAYERS` (default: all) on their loop oracles.

    Each oracle replaces the attribute the production code looks up, so the
    whole pipeline runs unchanged around it; everything is restored on
    exit.  A renamed or removed production name raises ``KeyError`` here
    instead of silently comparing the production engine with itself.
    """
    unknown = set(layers) - set(LAYERS)
    if unknown:
        raise ValueError(f"unknown layers {sorted(unknown)}; expected {sorted(LAYERS)}")
    originals = []
    try:
        for layer in layers or LAYERS:
            for module_name, path, oracle in LAYERS[layer]:
                owner, attribute = swap_target(module_name, path)
                originals.append((owner, attribute, owner.__dict__[attribute]))
                setattr(owner, attribute, oracle)
        yield
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


def engine(name, *layers):
    """A context running ``layers`` on the ``"reference"`` oracles or on the
    ``"vectorized"`` production engines, for suites parametrized by engine."""
    if name == "reference":
        return reference_engines(*layers)
    if name != "vectorized":
        raise ValueError(f"unknown engine {name!r}")
    return contextlib.nullcontext()
