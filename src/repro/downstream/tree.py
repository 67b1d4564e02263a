"""CART-style regression trees, the weak learners for gradient boosting.

The paper maps frozen TPRs to task labels with scikit-learn's Gradient
Boosting Regressor / Classifier; scikit-learn is unavailable offline, so
:mod:`repro.downstream.gbm` rebuilds the estimator on top of these trees.

The best split of a node comes from one cumulative-sum scan over *all*
candidate features simultaneously, and the fitted tree is flattened into
``(feature, threshold, left, right, value)`` arrays, so ``predict`` is a
batch traversal with no per-row Python.  With ``binning="exact"`` the scan
covers the deduplicated midpoints of adjacent unique values and the tree is
bit-identical to the original per-threshold loop (kept as a test oracle);
with ``binning="histogram"`` features are quantile-binned once per ``fit``
(or once per *boosting run* — see :class:`HistogramBins`) and every node
split reduces to a weighted ``bincount`` over the bin codes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DecisionTreeRegressor", "HistogramBins"]

_MIN_GAIN = 1e-12


class HistogramBins:
    """Per-feature quantile bin edges and codes, computed once and reused.

    ``codes[i, f]`` is the bin index of ``features[i, f]``: the number of
    edges of feature ``f`` strictly below the value.  A split "code <= b"
    is exactly "value <= edges[f][b]", so fitted trees store real-valued
    thresholds and ``predict`` never needs the binning again.

    Gradient boosting fits one tree per round on the *same* feature matrix,
    so the booster builds this object once and passes it to every
    ``tree.fit`` via ``binned=``.
    """

    def __init__(self, features, max_bins=64):
        if max_bins < 2:
            raise ValueError("max_bins must be >= 2")
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        num_samples, num_features = features.shape
        quantiles = np.arange(1, max_bins) / max_bins
        raw_edges = np.quantile(features, quantiles, axis=0)  # (max_bins-1, D)

        self.num_features = num_features
        self.max_bins = max_bins
        self.codes = np.empty((num_samples, num_features), dtype=np.int64)
        edge_lists = []
        for feature in range(num_features):
            edges = np.unique(raw_edges[:, feature])
            edge_lists.append(edges)
            self.codes[:, feature] = np.searchsorted(
                edges, features[:, feature], side="left")
        self.num_edges = np.array([len(edges) for edges in edge_lists])
        # Padded (D, E_max) edge matrix; +inf pads are masked out of scans.
        width = max(int(self.num_edges.max()), 1)
        self.edges = np.full((num_features, width), np.inf)
        for feature, edges in enumerate(edge_lists):
            self.edges[feature, :len(edges)] = edges

    def take(self, rows):
        """A view of these bins restricted to a row subset (same edges).

        Used by subsampled boosting rounds: the bin edges stay those of the
        full training matrix, only the codes are sliced.
        """
        subset = object.__new__(HistogramBins)
        subset.num_features = self.num_features
        subset.max_bins = self.max_bins
        subset.codes = self.codes[rows]
        subset.num_edges = self.num_edges
        subset.edges = self.edges
        return subset


class DecisionTreeRegressor:
    """Least-squares regression tree with depth / leaf-size limits.

    Split finding uses the classic variance-reduction criterion evaluated on
    a bounded number of candidate thresholds per feature, which keeps fitting
    fast on the small embedding matrices used here.

    binning:
        ``"exact"`` (default) scans midpoints of adjacent unique values;
        ``"histogram"`` pre-bins features into quantile histograms once per
        fit and scans bin edges.
    max_bins:
        Histogram resolution for ``binning="histogram"``.
    """

    def __init__(self, max_depth=3, min_samples_leaf=5, max_thresholds=16,
                 max_features=None, seed=0, binning="exact", max_bins=64):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if binning not in ("exact", "histogram"):
            raise ValueError(f"unknown binning {binning!r}")
        if max_bins < 2:
            raise ValueError("max_bins must be >= 2")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_thresholds = max_thresholds
        self.max_features = max_features
        self.binning = binning
        self.max_bins = max_bins
        self.rng = np.random.default_rng(seed)
        # Flattened tree: feature is -1 at leaves.
        self._feature = None
        self._threshold = None
        self._left = None
        self._right = None
        self._value = None

    # ------------------------------------------------------------------
    def fit(self, features, targets, binned=None):
        """Fit the tree to ``features`` (N, D) and ``targets`` (N,).

        ``binned`` optionally supplies a precomputed :class:`HistogramBins`
        over exactly these features (histogram binning only), so boosting
        rounds share one binning pass.
        """
        features = np.asarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if len(features) != len(targets):
            raise ValueError("features and targets must have the same length")
        if len(features) == 0:
            raise ValueError("cannot fit a tree on zero samples")
        if self.binning == "histogram":
            if binned is None:
                binned = HistogramBins(features, max_bins=self.max_bins)
            elif binned.codes.shape != features.shape:
                raise ValueError("binned features do not match the feature matrix")
        nodes = []
        self._grow(features, targets, np.arange(len(targets)),
                   depth=0, binned=binned, nodes=nodes)
        self._feature = np.array([node[0] for node in nodes], dtype=np.int64)
        self._threshold = np.array([node[1] for node in nodes], dtype=np.float64)
        self._left = np.array([node[2] for node in nodes], dtype=np.int64)
        self._right = np.array([node[3] for node in nodes], dtype=np.int64)
        self._value = np.array([node[4] for node in nodes], dtype=np.float64)
        return self

    def predict(self, features):
        """Predict targets for ``features`` (N, D).

        A batch traversal of the flattened tree: one vector step per level.
        """
        if self._feature is None:
            raise RuntimeError("tree has not been fitted")
        features = np.asarray(features, dtype=np.float64)
        node = np.zeros(len(features), dtype=np.int64)
        for _ in range(self.max_depth):
            split_feature = self._feature[node]
            active = np.flatnonzero(split_feature >= 0)
            if len(active) == 0:
                break
            active_nodes = node[active]
            go_left = (features[active, split_feature[active]]
                       <= self._threshold[active_nodes])
            node[active] = np.where(
                go_left, self._left[active_nodes], self._right[active_nodes])
        return self._value[node]

    def _grow(self, features, targets, rows, depth, binned, nodes):
        """Grow depth-first (left before right, so the ``max_features`` RNG
        draws follow the node order) and append flattened node rows.

        Returns the index of the node created for ``rows``.
        """
        node_targets = targets[rows]
        index = len(nodes)
        nodes.append([-1, np.nan, -1, -1, float(node_targets.mean())])
        if depth >= self.max_depth or len(rows) < 2 * self.min_samples_leaf:
            return index
        if np.allclose(node_targets, node_targets[0]):
            return index

        if binned is None:
            split = self._best_split_exact(features[rows], node_targets)
        else:
            split = self._best_split_histogram(binned, rows, node_targets)
        if split is None:
            return index
        feature, threshold = split
        go_left = features[rows, feature] <= threshold
        nodes[index][0] = feature
        nodes[index][1] = threshold
        nodes[index][2] = self._grow(
            features, targets, rows[go_left], depth + 1, binned, nodes)
        nodes[index][3] = self._grow(
            features, targets, rows[~go_left], depth + 1, binned, nodes)
        return index

    def _best_split_exact(self, features, targets):
        """Best (feature, threshold) via one cumulative-sum scan for all
        candidate features at once, over the deduplicated midpoints of
        adjacent unique values (subsampled to ``max_thresholds``).
        """
        num_samples, _ = features.shape
        candidates = self._candidate_features(features.shape[1])
        columns = features[:, candidates]

        order = np.argsort(columns, axis=0, kind="stable")
        sorted_columns = np.take_along_axis(columns, order, axis=0)
        sorted_targets = targets[order]
        cum_sum = np.cumsum(sorted_targets, axis=0)
        cum_sq = np.cumsum(sorted_targets ** 2, axis=0)

        # Candidate thresholds per feature: midpoints of adjacent unique
        # values, subsampled to max_thresholds, deduplicated.  The left count
        # of the midpoint between unique values u_i and u_{i+1} is the run
        # boundary itself — except when the float midpoint rounds up onto
        # u_{i+1} exactly, where the split "value <= threshold" also takes
        # u_{i+1}'s ties to the left.
        feature_slots = []
        left_count_chunks = []
        threshold_chunks = []
        for slot in range(len(candidates)):
            column = sorted_columns[:, slot]
            boundaries = np.flatnonzero(column[1:] != column[:-1]) + 1
            if len(boundaries) == 0:
                continue
            midpoints = (column[boundaries - 1] + column[boundaries]) / 2.0
            next_boundaries = np.append(boundaries[1:], num_samples)
            left_counts_full = np.where(
                midpoints >= column[boundaries], next_boundaries, boundaries)
            if len(midpoints) > self.max_thresholds:
                keep = np.unique(np.linspace(
                    0, len(midpoints) - 1, self.max_thresholds).astype(int))
                midpoints = midpoints[keep]
                left_counts_full = left_counts_full[keep]
            if len(midpoints) > 1:
                # Dedupe float-rounded midpoint collisions (keep the first,
                # so the earliest candidate wins a tie; equal values carry
                # equal left counts).
                first = np.empty(len(midpoints), dtype=bool)
                first[0] = True
                np.not_equal(midpoints[1:], midpoints[:-1], out=first[1:])
                midpoints = midpoints[first]
                left_counts_full = left_counts_full[first]
            feature_slots.append(np.full(len(midpoints), slot, dtype=np.int64))
            left_count_chunks.append(left_counts_full)
            threshold_chunks.append(midpoints)
        if not feature_slots:
            return None
        slots = np.concatenate(feature_slots)
        left_counts = np.concatenate(left_count_chunks)
        thresholds = np.concatenate(threshold_chunks)

        # Scalar totals use np.sum's pairwise order, not the sequential
        # cumsum tail, so gains are bit-identical to the per-threshold loop
        # and the same split wins every tie.
        total_sum = targets.sum()
        total_sq = (targets ** 2).sum()
        parent_impurity = total_sq - total_sum ** 2 / num_samples
        right_counts = num_samples - left_counts
        left_sum = cum_sum[left_counts - 1, slots]
        left_sq = cum_sq[left_counts - 1, slots]
        # float_power squares through libm pow, as the loop's scalar ``**``
        # does; an array ``** 2`` multiplies, which can land one ulp away
        # and flip a tie between equal-gain splits.
        left_impurity = left_sq - np.float_power(left_sum, 2) / left_counts
        right_impurity = ((total_sq - left_sq)
                          - np.float_power(total_sum - left_sum, 2) / right_counts)
        gains = parent_impurity - left_impurity - right_impurity
        gains[(left_counts < self.min_samples_leaf)
              | (right_counts < self.min_samples_leaf)] = -np.inf
        best = int(np.argmax(gains))
        if gains[best] <= _MIN_GAIN:
            return None
        return int(candidates[slots[best]]), float(thresholds[best])

    def _best_split_histogram(self, binned, rows, targets):
        """Best split from per-(feature, bin) count/sum/sq histograms.

        One flattened ``bincount`` builds the histograms for every candidate
        feature at once; a cumulative sum over the bin axis then yields the
        left-side statistics of every candidate edge simultaneously.
        """
        num_samples = len(rows)
        candidates = self._candidate_features(binned.num_features)
        codes = binned.codes[np.ix_(rows, candidates)]
        num_features = len(candidates)
        bins = binned.max_bins

        offsets = codes + np.arange(num_features, dtype=np.int64) * bins
        flat = offsets.ravel()
        tiled_targets = np.repeat(targets, num_features)
        length = num_features * bins
        counts = np.bincount(flat, minlength=length).reshape(num_features, bins)
        sums = np.bincount(flat, weights=tiled_targets,
                           minlength=length).reshape(num_features, bins)
        squares = np.bincount(flat, weights=tiled_targets * tiled_targets,
                              minlength=length).reshape(num_features, bins)

        cum_counts = np.cumsum(counts, axis=1)
        cum_sums = np.cumsum(sums, axis=1)
        cum_squares = np.cumsum(squares, axis=1)

        total_sum = cum_sums[:, -1:]
        total_sq = cum_squares[:, -1:]
        parent_impurity = total_sq - total_sum ** 2 / num_samples

        # Candidate b means "code <= b goes left", i.e. value <= edges[f][b];
        # only positions with a real edge are valid.
        edge_width = binned.edges.shape[1]
        left_counts = cum_counts[:, :edge_width]
        right_counts = num_samples - left_counts
        left_sums = cum_sums[:, :edge_width]
        left_squares = cum_squares[:, :edge_width]
        with np.errstate(divide="ignore", invalid="ignore"):
            left_impurity = left_squares - left_sums ** 2 / left_counts
            right_impurity = ((total_sq - left_squares)
                              - (total_sum - left_sums) ** 2 / right_counts)
            gains = parent_impurity - left_impurity - right_impurity
        invalid = ((np.arange(edge_width) >= binned.num_edges[candidates, None])
                   | (left_counts < self.min_samples_leaf)
                   | (right_counts < self.min_samples_leaf))
        gains = np.where(invalid, -np.inf, gains)
        best = int(np.argmax(gains))
        if not np.isfinite(gains.ravel()[best]) or gains.ravel()[best] <= _MIN_GAIN:
            return None
        slot, edge = divmod(best, edge_width)
        feature = int(candidates[slot])
        return feature, float(binned.edges[feature, edge])

    def _candidate_features(self, num_features):
        if self.max_features is None or self.max_features >= num_features:
            return np.arange(num_features)
        return self.rng.choice(num_features, size=self.max_features, replace=False)
