"""Gradient boosting: regressor (GBR) and binary classifier (GBC).

These mirror the scikit-learn estimators the paper uses as its downstream
models on top of frozen TPRs (§VII-A4): squared-error boosting for the two
regression tasks, logistic boosting for path recommendation.

The ``binning`` / ``max_bins`` knobs thread straight through to the
:class:`~repro.downstream.tree.DecisionTreeRegressor` weak learners.  The
fit loop predicts the full training set every round, so the flattened-tree
batch ``predict`` compounds ×``n_estimators``; with
``binning="histogram"`` the feature matrix is additionally quantile-binned
*once per boosting run* (see :class:`~repro.downstream.tree.HistogramBins`)
and shared by every round's tree.
"""

from __future__ import annotations

import numpy as np

from .tree import (
    DecisionTreeRegressor,
    HistogramBins,
    _prediction_matrix,
    _training_data,
)

__all__ = ["GradientBoostingRegressor", "GradientBoostingClassifier"]


class GradientBoostingRegressor:
    """Least-squares gradient boosting over shallow regression trees."""

    def __init__(self, n_estimators=50, learning_rate=0.1, max_depth=3,
                 min_samples_leaf=5, subsample=1.0, seed=0,
                 binning="exact", max_bins=64):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        if binning not in ("exact", "histogram"):
            raise ValueError(f"unknown binning {binning!r}")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.binning = binning
        self.max_bins = max_bins
        self.rng = np.random.default_rng(seed)
        self._trees = []
        self._initial = 0.0
        self._num_features = None

    def _make_tree(self):
        return DecisionTreeRegressor(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            seed=int(self.rng.integers(0, 2 ** 31 - 1)),
            binning=self.binning,
            max_bins=self.max_bins,
        )

    def _prebin(self, features):
        """One histogram-binning pass shared by every boosting round."""
        if self.binning == "histogram":
            return HistogramBins(features, max_bins=self.max_bins)
        return None

    def _fit_tree(self, tree, features, residuals, rows, binned):
        if binned is None:
            tree.fit(features[rows], residuals[rows])
        elif len(rows) == len(features):
            tree.fit(features, residuals, binned=binned)
        else:
            tree.fit(features[rows], residuals[rows], binned=binned.take(rows))

    def fit(self, features, targets):
        """Fit to ``features`` (N, D), ``targets`` (N,); both must be finite."""
        features, targets = _training_data(features, targets)

        self._trees = []
        self._initial = float(targets.mean())
        predictions = np.full(len(targets), self._initial)
        binned = self._prebin(features)

        for round_index in range(self.n_estimators):
            residuals = targets - predictions
            rows = self._sample_rows(len(targets))
            tree = self._make_tree()
            self._fit_tree(tree, features, residuals, rows, binned)
            update = tree.predict(features)
            predictions = predictions + self.learning_rate * update
            self._trees.append(tree)
        self._num_features = features.shape[1]
        return self

    def predict(self, features):
        """Predicted targets for ``features`` (N, D), D as in ``fit``."""
        features = _prediction_matrix(features, self._num_features)
        predictions = np.full(len(features), self._initial)
        for tree in self._trees:
            predictions = predictions + self.learning_rate * tree.predict(features)
        return predictions

    def _sample_rows(self, count):
        if self.subsample >= 1.0:
            return np.arange(count)
        size = max(2, int(round(count * self.subsample)))
        return self.rng.choice(count, size=size, replace=False)


class GradientBoostingClassifier:
    """Binary classifier: boosting on the logistic deviance gradient."""

    def __init__(self, n_estimators=50, learning_rate=0.1, max_depth=3,
                 min_samples_leaf=5, subsample=1.0, seed=0,
                 binning="exact", max_bins=64):
        self._booster = GradientBoostingRegressor(
            n_estimators=n_estimators,
            learning_rate=learning_rate,
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            subsample=subsample,
            seed=seed,
            binning=binning,
            max_bins=max_bins,
        )
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self._trees = []
        self._initial_logit = 0.0
        self._num_features = None

    def fit(self, features, labels):
        """Fit to ``features`` (N, D), binary ``labels`` (N,) in {0, 1}."""
        features, labels = _training_data(features, labels)
        if set(np.unique(labels)) - {0.0, 1.0}:
            raise ValueError("labels must be binary (0/1)")

        positive_rate = float(np.clip(labels.mean(), 1e-6, 1 - 1e-6))
        self._initial_logit = float(np.log(positive_rate / (1.0 - positive_rate)))
        logits = np.full(len(labels), self._initial_logit)
        self._trees = []

        booster = self._booster
        binned = booster._prebin(features)
        for _ in range(self.n_estimators):
            probabilities = _sigmoid(logits)
            residuals = labels - probabilities
            rows = booster._sample_rows(len(labels))
            tree = booster._make_tree()
            booster._fit_tree(tree, features, residuals, rows, binned)
            logits = logits + self.learning_rate * tree.predict(features)
            self._trees.append(tree)
        self._num_features = features.shape[1]
        return self

    def predict_proba(self, features):
        """Probability of the positive class for each row of ``features``
        (N, D), D as in ``fit``."""
        features = _prediction_matrix(features, self._num_features)
        logits = np.full(len(features), self._initial_logit)
        for tree in self._trees:
            logits = logits + self.learning_rate * tree.predict(features)
        return _sigmoid(logits)

    def predict(self, features, threshold=0.5):
        """Hard 0/1 predictions."""
        return (self.predict_proba(features) >= threshold).astype(np.int64)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))
