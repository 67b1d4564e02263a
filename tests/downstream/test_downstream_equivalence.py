"""Equivalence suites: the downstream engine vs the loop oracles.

Three layers, matching the engine:

* metrics — vectorized Kendall/ranks/grouped exactly equal the loop oracles;
  Spearman agrees with the no-ties shortcut on tie-free inputs and with
  Pearson-on-ranks everywhere.
* trees — exact binning reproduces the oracle's loop-grown tree bit for
  bit (flattened-vs-node ``predict`` agrees to 1e-12), including the
  ``max_features`` RNG draws; histogram binning stays statistically
  equivalent on task metrics.
* GBM — identical predictions for identical seeds on exact splits, for both
  the regressor and the classifier.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import (
    reference_engines,
    reference_grouped_rank_correlation,
    reference_kendall_tau,
    reference_ranks,
    reference_spearman_rho,
    reference_tree_fit,
    reference_tree_predict,
)

from repro.downstream import (
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
)
from repro.downstream.metrics import (
    _ranks,
    grouped_rank_correlation,
    kendall_tau,
    spearman_rho,
)

# Tie-heavy by construction: few distinct values over up-to-60 entries.
tied_vectors = st.integers(min_value=2, max_value=60).flatmap(
    lambda n: st.tuples(
        hnp.arrays(dtype=np.float64, shape=n,
                   elements=st.integers(min_value=-4, max_value=4).map(float)),
        hnp.arrays(dtype=np.float64, shape=n,
                   elements=st.integers(min_value=-4, max_value=4).map(float)),
    ))

continuous_vectors = st.integers(min_value=2, max_value=60).flatmap(
    lambda n: st.tuples(
        hnp.arrays(dtype=np.float64, shape=n,
                   elements=st.floats(min_value=-1e3, max_value=1e3,
                                      allow_nan=False, allow_infinity=False)),
        hnp.arrays(dtype=np.float64, shape=n,
                   elements=st.floats(min_value=-1e3, max_value=1e3,
                                      allow_nan=False, allow_infinity=False)),
    ))


class TestMetricEquivalence:
    @given(tied_vectors)
    @settings(max_examples=80, deadline=None)
    def test_kendall_exactly_matches_pair_loop_under_ties(self, pair):
        truth, prediction = pair
        assert kendall_tau(truth, prediction) == reference_kendall_tau(truth, prediction)

    @given(continuous_vectors)
    @settings(max_examples=60, deadline=None)
    def test_kendall_exactly_matches_pair_loop_continuous(self, pair):
        truth, prediction = pair
        assert kendall_tau(truth, prediction) == reference_kendall_tau(truth, prediction)

    @given(tied_vectors)
    @settings(max_examples=80, deadline=None)
    def test_ranks_match_rescan_loop(self, pair):
        values, _ = pair
        np.testing.assert_array_equal(_ranks(values), reference_ranks(values))

    @given(continuous_vectors)
    @settings(max_examples=60, deadline=None)
    def test_spearman_matches_shortcut_when_tie_free(self, pair):
        truth, prediction = pair
        if (len(np.unique(truth)) < len(truth)
                or len(np.unique(prediction)) < len(prediction)):
            return
        assert spearman_rho(truth, prediction) == pytest.approx(
            reference_spearman_rho(truth, prediction), abs=1e-12)

    @given(tied_vectors)
    @settings(max_examples=80, deadline=None)
    def test_spearman_is_pearson_on_ranks(self, pair):
        truth, prediction = pair
        rank_truth = _ranks(truth)
        rank_prediction = _ranks(prediction)
        centered_t = rank_truth - rank_truth.mean()
        centered_p = rank_prediction - rank_prediction.mean()
        denominator = np.sqrt((centered_t ** 2).sum() * (centered_p ** 2).sum())
        expected = 0.0 if denominator == 0 else float(
            (centered_t * centered_p).sum() / denominator)
        assert spearman_rho(truth, prediction) == pytest.approx(expected, abs=1e-12)

    @given(tied_vectors,
           st.sampled_from(["kendall", "spearman"]))
    @settings(max_examples=60, deadline=None)
    def test_grouped_matches_mask_loop(self, pair, statistic):
        truth, prediction = pair
        rng = np.random.default_rng(len(truth))
        groups = rng.integers(0, max(1, len(truth) // 3), size=len(truth))
        assert grouped_rank_correlation(truth, prediction, groups, statistic) == \
            pytest.approx(reference_grouped_rank_correlation(
                truth, prediction, groups, statistic), abs=1e-12)


# Feature matrices with deliberate value collisions (rounded normals), or
# mixed: unrounded continuous columns beside rounded ones and a constant
# last column.
tree_problems = st.tuples(
    st.integers(min_value=12, max_value=120),   # samples
    st.integers(min_value=1, max_value=6),      # features
    st.integers(min_value=1, max_value=5),      # max depth
    st.integers(min_value=1, max_value=5),      # min samples leaf
    st.integers(min_value=1, max_value=20),     # max thresholds
    st.integers(min_value=0, max_value=10_000), # seed
    st.booleans(),                              # restrict max_features
    st.sampled_from(["rounded", "mixed"]),      # feature layout
)


def make_problem(num_samples, num_features, seed, layout="rounded"):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(num_samples, num_features))
    if layout == "rounded":
        features = np.round(features, 1)
    else:
        features[:, ::2] = np.round(features[:, ::2], 1)
        if num_features > 1:
            features[:, -1] = 0.5
    targets = features[:, 0] + rng.normal(scale=0.3, size=num_samples)
    queries = np.round(rng.normal(size=(50, num_features)), 2)
    return features, targets, queries


def assert_same_tree(kwargs, x, y, queries):
    """The engine grows the loop oracle's tree bit for bit."""
    reference = reference_tree_fit(DecisionTreeRegressor(**kwargs), x, y)
    vectorized = DecisionTreeRegressor(**kwargs).fit(x, y)
    for matrix in (x, queries):
        node_walk = reference_tree_predict(reference, matrix)
        flattened = vectorized.predict(matrix)
        np.testing.assert_allclose(flattened, node_walk, atol=1e-12, rtol=0)
        # The exact engine scans the same thresholds: bit-identical.
        np.testing.assert_array_equal(flattened, node_walk)
    return vectorized


class TestTreeEquivalence:
    @given(tree_problems)
    # Two one-row children tie on gain; squaring by multiplication instead of
    # pow once picked the later feature.
    @example((12, 4, 3, 1, 2, 90, False, "rounded"))
    @settings(max_examples=60, deadline=None)
    def test_flattened_predict_matches_node_walk_exactly(self, problem):
        samples, features, depth, leaf, thresholds, seed, restrict, layout = problem
        x, y, queries = make_problem(samples, features, seed, layout)
        max_features = max(1, features - 1) if restrict else None
        kwargs = dict(max_depth=depth, min_samples_leaf=leaf,
                      max_thresholds=thresholds, max_features=max_features,
                      seed=seed)
        assert_same_tree(kwargs, x, y, queries)

    def test_midpoint_rounding_up_takes_upper_ties_left(self):
        # Adjacent floats whose midpoint rounds (half to even) up onto the
        # upper value: "x <= midpoint" also sends the upper value's ties
        # left, so the left count is the next boundary, not this one.
        lower = np.nextafter(1.0, 2.0)
        upper = np.nextafter(lower, 2.0)
        assert (lower + upper) / 2.0 == upper
        column = np.repeat([lower, upper, 2.0], 6)
        noise = np.random.default_rng(0).normal(size=18)
        x = np.column_stack([column, noise])
        y = np.repeat([0.0, 0.0, 10.0], 6)
        queries = np.array([[1.0, 0.0], [upper, 0.0], [1.5, 0.0], [3.0, 0.0]])
        for thresholds in (1, 2, 16):
            tree = assert_same_tree(
                dict(max_depth=2, min_samples_leaf=1, max_thresholds=thresholds),
                x, y, queries)
            # The rounded-up midpoint ties the (upper + 2) / 2 split on gain
            # and comes first.
            assert tree._feature[0] == 0 and tree._threshold[0] == upper
            np.testing.assert_array_equal(tree.predict(queries), [0, 0, 10, 10])

    def test_midpoint_rounding_onto_column_maximum_divides_by_no_zero(self):
        # The rounded-up midpoint of the top two values sends every row
        # left: the candidate's right count is 0, and its (masked) gain must
        # not divide by it, which numpy reports as a RuntimeWarning.
        lower = np.nextafter(1.0, 2.0)
        upper = np.nextafter(lower, 2.0)
        column = np.repeat([lower, upper], 6)
        x = np.column_stack([column, np.arange(12.0)])
        y = np.arange(12.0) ** 2
        queries = np.array([[lower, 3.0], [upper, 8.0], [2.0, 20.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_same_tree(dict(max_depth=2, min_samples_leaf=2), x, y, queries)

    def test_equal_midpoints_in_adjacent_features_both_scanned(self):
        # Feature 0's last midpoint equals feature 1's first (both 0.5):
        # duplicate removal works within a feature, never across features.
        rng = np.random.default_rng(1)
        x = np.column_stack([rng.integers(0, 2, size=40),
                             np.tile([0.0, 1.0, 2.0, 3.0], 10)]).astype(float)
        y = np.where(x[:, 1] == 0.0, 10.0, 0.0)
        queries = np.array([[0.0, 0.25], [1.0, 0.75], [0.0, 2.5]])
        tree = assert_same_tree(dict(max_depth=1, min_samples_leaf=1), x, y, queries)
        assert tree._feature[0] == 1 and tree._threshold[0] == 0.5

    def test_tables_shape_subsamples_every_feature(self):
        # A paper-table GBM round: 215 x 32 continuous embeddings, every
        # column far above max_thresholds=16 midpoints.
        rng = np.random.default_rng(5)
        x = rng.normal(size=(215, 32))
        y = x[:, 3] - 0.5 * x[:, 7] + rng.normal(scale=0.1, size=215)
        queries = rng.normal(size=(50, 32))
        assert min(len(np.unique(column)) for column in x.T) - 1 > 16
        for restrict in (None, 20):
            assert_same_tree(dict(max_thresholds=16, max_features=restrict, seed=3),
                             x, y, queries)

    def test_histogram_tree_statistically_equivalent(self):
        x, y, _ = make_problem(2000, 5, seed=7)
        exact = DecisionTreeRegressor(max_depth=4, binning="exact").fit(x, y)
        histogram = DecisionTreeRegressor(max_depth=4, binning="histogram").fit(x, y)
        exact_mae = np.abs(exact.predict(x) - y).mean()
        histogram_mae = np.abs(histogram.predict(x) - y).mean()
        assert histogram_mae <= exact_mae * 1.25 + 0.05

    def test_prebinned_fit_matches_self_binned(self):
        from repro.downstream import HistogramBins

        x, y, queries = make_problem(500, 4, seed=3)
        bins = HistogramBins(x)
        self_binned = DecisionTreeRegressor(binning="histogram").fit(x, y)
        prebinned = DecisionTreeRegressor(binning="histogram").fit(x, y, binned=bins)
        np.testing.assert_array_equal(
            self_binned.predict(queries), prebinned.predict(queries))

    def test_prebinned_shape_mismatch_rejected(self):
        from repro.downstream import HistogramBins

        x, y, _ = make_problem(100, 4, seed=3)
        bins = HistogramBins(x[:50])
        with pytest.raises(ValueError):
            DecisionTreeRegressor(binning="histogram").fit(x, y, binned=bins)


gbm_problems = st.tuples(
    st.integers(min_value=30, max_value=150),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=12),     # n_estimators
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([1.0, 0.7]),                # subsample
)


class TestGBMEquivalence:
    @given(gbm_problems)
    @settings(max_examples=25, deadline=None)
    def test_regressor_identical_predictions_given_identical_seeds(self, problem):
        samples, features, estimators, seed, subsample = problem
        x, y, queries = make_problem(samples, features, seed)
        kwargs = dict(n_estimators=estimators, subsample=subsample, seed=seed)
        with reference_engines("downstream"):
            reference = GradientBoostingRegressor(**kwargs).fit(x, y).predict(queries)
        vectorized = GradientBoostingRegressor(**kwargs).fit(x, y).predict(queries)
        np.testing.assert_array_equal(reference, vectorized)

    @given(gbm_problems)
    @settings(max_examples=15, deadline=None)
    def test_classifier_identical_probabilities_given_identical_seeds(self, problem):
        samples, features, estimators, seed, subsample = problem
        x, _, queries = make_problem(samples, features, seed)
        labels = (x[:, 0] > 0).astype(np.int64)
        if len(np.unique(labels)) < 2:
            return
        kwargs = dict(n_estimators=estimators, subsample=subsample, seed=seed)
        with reference_engines("downstream"):
            reference = GradientBoostingClassifier(**kwargs).fit(x, labels)
            reference = reference.predict_proba(queries)
        vectorized = GradientBoostingClassifier(**kwargs).fit(x, labels)
        np.testing.assert_array_equal(reference, vectorized.predict_proba(queries))

    def test_histogram_gbm_statistically_equivalent(self):
        x, y, _ = make_problem(2000, 5, seed=11)
        exact = GradientBoostingRegressor(n_estimators=30, seed=0,
                                          binning="exact").fit(x, y)
        histogram = GradientBoostingRegressor(n_estimators=30, seed=0,
                                              binning="histogram").fit(x, y)
        exact_mae = np.abs(exact.predict(x) - y).mean()
        histogram_mae = np.abs(histogram.predict(x) - y).mean()
        assert histogram_mae <= exact_mae * 1.25 + 0.05


class TestEvaluatorEngineEquivalence:
    class LengthModel:
        """Deterministic stand-in representation model (path-shape features)."""

        def __init__(self, network):
            self.network = network

        def encode(self, temporal_paths):
            rows = []
            for tp in temporal_paths:
                rows.append([
                    self.network.path_length(list(tp.path)),
                    len(tp),
                    tp.departure_time.hour,
                    float(tp.departure_time.is_weekday),
                ])
            return np.asarray(rows)

    def test_travel_time_engine_equivalent(self, tiny_city):
        from repro.downstream import evaluate_travel_time

        model = self.LengthModel(tiny_city.network)
        with reference_engines("downstream"):
            reference = evaluate_travel_time(
                model, tiny_city.tasks.travel_time, n_estimators=10)
        vectorized = evaluate_travel_time(
            model, tiny_city.tasks.travel_time, n_estimators=10)
        assert vectorized.mae == pytest.approx(reference.mae, abs=1e-9)
        assert vectorized.mare == pytest.approx(reference.mare, abs=1e-9)
        assert vectorized.mape == pytest.approx(reference.mape, abs=1e-9)
