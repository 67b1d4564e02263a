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
those candidates come from one segmented pass over all sorted candidate
columns at once (a boundary mask, flat midpoints and left counts, cached
subsample index sets, one duplicate mask), with no per-feature Python;
with ``binning="histogram"`` features are quantile-binned once per ``fit``
(or once per *boosting run* — see :class:`HistogramBins`) and every node
split reduces to a weighted ``bincount`` over the bin codes.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["DecisionTreeRegressor", "HistogramBins"]

_MIN_GAIN = 1e-12


@functools.lru_cache(maxsize=1024)
def _subsample_indices(num_midpoints, max_thresholds):
    """Evenly spaced positions of the midpoints kept when a feature has more
    than ``max_thresholds`` of them (first and last included); read-only,
    since every caller shares the cached array."""
    indices = np.unique(np.linspace(
        0, num_midpoints - 1, max_thresholds).astype(int))
    indices.setflags(write=False)
    return indices


def _training_data(features, targets):
    """``features`` (N, D) and ``targets`` (N,) as float64, checked for a fit."""
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be a 2-D array")
    if targets.ndim != 1:
        raise ValueError("targets must be a 1-D array")
    if len(features) != len(targets):
        raise ValueError("features and targets must have the same length")
    if len(features) == 0:
        raise ValueError("cannot fit on zero samples")
    if not (np.isfinite(features).all() and np.isfinite(targets).all()):
        raise ValueError("features and targets must be finite (no NaN or inf)")
    return features, targets


def _prediction_matrix(features, num_features):
    """``features`` as a finite float64 (N, D) matrix for a model fitted on
    ``num_features`` columns (``None``: not fitted yet)."""
    if num_features is None:
        raise RuntimeError("model has not been fitted")
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != num_features:
        raise ValueError(f"features must be a 2-D array with {num_features} "
                         f"columns, got shape {features.shape}")
    if not np.isfinite(features).all():
        raise ValueError("features must be finite (no NaN or inf)")
    return features


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
        if max_thresholds < 1:
            raise ValueError("max_thresholds must be >= 1")
        if max_features is not None and max_features < 1:
            raise ValueError("max_features must be >= 1 (or None for all)")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_thresholds = max_thresholds
        self.max_features = max_features
        self.binning = binning
        self.max_bins = max_bins
        self.rng = np.random.default_rng(seed)
        self._num_features = None
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
        features, targets = _training_data(features, targets)
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
        self._num_features = features.shape[1]
        return self

    def predict(self, features):
        """Predict targets for ``features`` (N, D).

        A batch traversal of the flattened tree: one vector step per level.
        """
        features = _prediction_matrix(features, self._num_features)
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
        # np.allclose(node_targets, node_targets[0]) on finite targets,
        # without its per-call overhead.
        first = node_targets[0]
        if np.abs(node_targets - first).max() <= 1e-8 + 1e-5 * abs(first):
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

        The candidates come from one segmented pass with no per-feature
        Python: the sorted candidate columns are laid end to end, one
        boundary mask over that flat array (cleared at the seams between
        features) lists every (feature, boundary) pair feature-major, and
        the midpoints, left counts, ``max_thresholds`` subsampling and
        duplicate removal are flat array operations over those pairs.  The
        only loop runs over the distinct midpoint counts of the features
        that need subsampling (one count at a node of continuous features),
        each with a cached index set.  The scanned thresholds are exactly
        those of the per-feature loop.
        """
        num_samples, _ = features.shape
        candidates = self._candidate_features(features.shape[1])
        columns = features[:, candidates].T  # (candidate slot, sample)

        order = np.argsort(columns, axis=1, kind="stable")
        values = np.take_along_axis(columns, order, axis=1).ravel()
        sorted_targets = targets[order]
        cum_sum = np.cumsum(sorted_targets, axis=1).ravel()
        cum_sq = np.cumsum(sorted_targets ** 2, axis=1).ravel()

        # Boundaries between adjacent unique values, as flat positions of
        # the last value below each boundary: feature-major, ascending
        # within each slot.
        changes = values[1:] != values[:-1]
        changes[num_samples - 1::num_samples] = False
        lower = np.flatnonzero(changes)
        if len(lower) == 0:
            return None
        slots = lower // num_samples
        boundaries = lower - slots * num_samples + 1
        next_boundaries = np.append(boundaries[1:], num_samples)
        next_boundaries[:-1][slots[1:] != slots[:-1]] = num_samples

        # Subsample the slots with more than max_thresholds midpoints, with
        # the per-feature loop's evenly spaced index sets.
        per_slot = np.bincount(slots, minlength=len(candidates))
        oversized = per_slot > self.max_thresholds
        if oversized.any():
            starts = np.cumsum(per_slot) - per_slot
            keep = np.repeat(~oversized, per_slot)
            for count in np.unique(per_slot[oversized]):
                indices = _subsample_indices(int(count), self.max_thresholds)
                keep[(starts[per_slot == count, None] + indices).ravel()] = True
            lower = lower[keep]
            slots = slots[keep]
            boundaries = boundaries[keep]
            next_boundaries = next_boundaries[keep]

        # The left count of the midpoint between unique values u_i and
        # u_{i+1} is the boundary itself — except when the float midpoint
        # rounds up onto u_{i+1} exactly, where the split "value <= threshold"
        # also takes u_{i+1}'s ties to the left, up to the slot's next
        # boundary (``num_samples`` after its last one).
        upper = values[lower + 1]
        midpoints = (values[lower] + upper) / 2.0
        left_counts = np.where(midpoints >= upper, next_boundaries, boundaries)

        # Drop float-rounded midpoint collisions within a slot (keep the
        # first, so the earliest candidate wins a tie; equal values carry
        # equal left counts).
        distinct = np.empty(len(slots), dtype=bool)
        distinct[0] = True
        np.not_equal(midpoints[1:], midpoints[:-1], out=distinct[1:])
        distinct[1:] |= slots[1:] != slots[:-1]
        slots = slots[distinct]
        left_counts = left_counts[distinct]
        thresholds = midpoints[distinct]

        # Scalar totals use np.sum's pairwise order, not the sequential
        # cumsum tail, so gains are bit-identical to the per-threshold loop
        # and the same split wins every tie.
        total_sum = targets.sum()
        total_sq = (targets ** 2).sum()
        parent_impurity = total_sq - total_sum ** 2 / num_samples
        right_counts = num_samples - left_counts
        # A midpoint that rounds up onto the column maximum sends every row
        # left; that candidate is masked below, so divide it by 1, not 0.
        right_divisors = np.maximum(right_counts, 1)
        left_end = slots * num_samples + left_counts - 1
        left_sum = cum_sum[left_end]
        left_sq = cum_sq[left_end]
        # float_power squares through libm pow, as the loop's scalar ``**``
        # does; an array ``** 2`` multiplies, which can land one ulp away
        # and flip a tie between equal-gain splits.
        left_impurity = left_sq - np.float_power(left_sum, 2) / left_counts
        right_impurity = ((total_sq - left_sq)
                          - np.float_power(total_sum - left_sum, 2) / right_divisors)
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
