"""Tests for the decision tree and gradient boosting models."""

from __future__ import annotations

import numpy as np
import pytest
from oracles import tree_thresholds

from repro.downstream import (
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
)


def regression_problem(rng, samples=200, noise=0.1):
    x = rng.uniform(-2, 2, size=(samples, 3))
    y = np.where(x[:, 0] > 0, 2.0, -1.0) + 0.5 * x[:, 1] + rng.normal(0, noise, samples)
    return x, y


class TestDecisionTree:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_leaf=0)

    def test_fit_requires_2d_features(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.ones(5), np.ones(5))

    def test_fit_requires_aligned_lengths(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.ones((5, 2)), np.ones(4))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeRegressor().predict(np.ones((2, 2)))

    def test_constant_target_gives_constant_prediction(self):
        x = np.random.default_rng(0).normal(size=(30, 4))
        y = np.full(30, 7.0)
        tree = DecisionTreeRegressor().fit(x, y)
        np.testing.assert_allclose(tree.predict(x), 7.0)

    def test_learns_simple_threshold(self, rng):
        x, y = regression_problem(rng, noise=0.0)
        tree = DecisionTreeRegressor(max_depth=3, min_samples_leaf=2).fit(x, y)
        predictions = tree.predict(x)
        # A depth-3 tree should explain most of the step function.
        residual = np.abs(predictions - y).mean()
        assert residual < 0.5

    def test_depth_one_uses_single_split(self, rng):
        x, y = regression_problem(rng, noise=0.0)
        stump = DecisionTreeRegressor(max_depth=1, min_samples_leaf=2).fit(x, y)
        assert len(np.unique(stump.predict(x))) <= 2

    def test_deeper_tree_fits_better(self, rng):
        x, y = regression_problem(rng)
        shallow = DecisionTreeRegressor(max_depth=1).fit(x, y).predict(x)
        deep = DecisionTreeRegressor(max_depth=5).fit(x, y).predict(x)
        assert np.abs(deep - y).mean() <= np.abs(shallow - y).mean()

    def test_engine_parameter_validation(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(binning="kmeans")
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_bins=1)
        with pytest.raises(ValueError):
            GradientBoostingRegressor(binning="kmeans")

    def test_thresholds_are_deduplicated(self):
        # Regression: midpoints of near-adjacent unique values can round
        # onto each other in float arithmetic, so the same candidate
        # threshold was scanned twice per node.
        tree = DecisionTreeRegressor(max_thresholds=16)
        base = 1.0
        ulps = [base]
        for _ in range(6):
            ulps.append(np.nextafter(ulps[-1], 2.0))
        column = np.array(ulps + [2.0, 3.0])
        thresholds = tree_thresholds(tree, column)
        assert thresholds is not None
        assert len(thresholds) == len(np.unique(thresholds))
        assert (np.diff(thresholds) > 0).all()
        # A column wide enough to trigger linspace subsampling still dedupes.
        wide = np.arange(40.0)
        thresholds = tree_thresholds(tree, wide)
        assert len(thresholds) <= 16
        assert len(thresholds) == len(np.unique(thresholds))

    def test_histogram_binning_learns_step_function(self, rng):
        x, y = regression_problem(rng, samples=500, noise=0.0)
        tree = DecisionTreeRegressor(max_depth=3, min_samples_leaf=2,
                                     binning="histogram").fit(x, y)
        assert np.abs(tree.predict(x) - y).mean() < 0.5


def fitted_models(rng):
    """A fitted tree, regressor and classifier on 3 features."""
    x, y = regression_problem(rng, samples=60)
    return [DecisionTreeRegressor().fit(x, y),
            GradientBoostingRegressor(n_estimators=3).fit(x, y),
            GradientBoostingClassifier(n_estimators=3).fit(x, (y > 0).astype(int))]


class TestBoundaryErrors:
    """Misuse raises a typed error instead of an IndexError, a NaN model or
    a silently wrong answer."""

    @pytest.mark.parametrize("model", [
        GradientBoostingRegressor(), GradientBoostingClassifier()])
    def test_predict_before_fit_raises(self, model):
        with pytest.raises(RuntimeError):
            model.predict(np.ones((2, 3)))

    def test_predict_proba_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GradientBoostingClassifier().predict_proba(np.ones((2, 3)))

    @pytest.mark.parametrize("shape", [(3,), (2, 2), (2, 4)])
    def test_predict_rejects_wrong_shape(self, rng, shape):
        for model in fitted_models(rng):
            with pytest.raises(ValueError):
                model.predict(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_predict_rejects_non_finite(self, rng, bad):
        queries = np.array([[0.5, 0.0, 0.0], [bad, 0.0, 0.0]])
        tree, regressor, classifier = fitted_models(rng)
        for predict in (tree.predict, regressor.predict,
                        classifier.predict, classifier.predict_proba):
            with pytest.raises(ValueError, match="finite"):
                predict(queries)

    def test_nan_row_is_not_predicted_like_a_large_value(self):
        # "NaN <= threshold" is False at every split, so an unchecked NaN row
        # goes right everywhere and gets the answer of [10, 0, 0].
        x, y = regression_problem(np.random.default_rng(0), samples=60)
        tree = DecisionTreeRegressor().fit(x, y)
        assert np.isfinite(tree.predict([[10.0, 0.0, 0.0]])).all()
        with pytest.raises(ValueError):
            tree.predict([[np.nan, 0.0, 0.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["features", "targets"])
    def test_fit_rejects_non_finite(self, rng, bad, where):
        x, y = regression_problem(rng, samples=60)
        labels = (y > 0).astype(float)
        if where == "features":
            x[7, 1] = bad
        else:
            y[7] = bad
            labels[7] = bad
        for model, targets in ((DecisionTreeRegressor(), y),
                               (GradientBoostingRegressor(n_estimators=3), y),
                               (GradientBoostingClassifier(n_estimators=3), labels)):
            with pytest.raises(ValueError):
                model.fit(x, targets)

    @pytest.mark.parametrize("kwargs", [
        dict(max_thresholds=0), dict(max_thresholds=-1),
        dict(max_features=0), dict(max_features=-2)])
    def test_tree_rejects_empty_candidate_sets(self, kwargs):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(**kwargs)


class TestGradientBoostingRegressor:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(n_estimators=0)
        with pytest.raises(ValueError):
            GradientBoostingRegressor(subsample=0.0)

    def test_fit_rejects_empty(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor().fit(np.zeros((0, 2)), np.zeros(0))

    def test_boosting_improves_over_single_tree(self, rng):
        x, y = regression_problem(rng)
        single = DecisionTreeRegressor(max_depth=2).fit(x, y).predict(x)
        boosted = GradientBoostingRegressor(n_estimators=40, max_depth=2,
                                            seed=0).fit(x, y).predict(x)
        assert np.abs(boosted - y).mean() < np.abs(single - y).mean()

    def test_more_estimators_fit_training_data_better(self, rng):
        x, y = regression_problem(rng)
        few = GradientBoostingRegressor(n_estimators=5, seed=0).fit(x, y).predict(x)
        many = GradientBoostingRegressor(n_estimators=60, seed=0).fit(x, y).predict(x)
        assert np.abs(many - y).mean() < np.abs(few - y).mean()

    def test_generalises_to_held_out_data(self, rng):
        x, y = regression_problem(rng, samples=400, noise=0.05)
        model = GradientBoostingRegressor(n_estimators=50, seed=0).fit(x[:300], y[:300])
        test_error = np.abs(model.predict(x[300:]) - y[300:]).mean()
        baseline_error = np.abs(y[300:] - y[:300].mean()).mean()
        assert test_error < baseline_error * 0.6

    def test_subsample_still_learns(self, rng):
        x, y = regression_problem(rng)
        model = GradientBoostingRegressor(n_estimators=40, subsample=0.5, seed=0).fit(x, y)
        assert np.abs(model.predict(x) - y).mean() < 1.0


class TestGradientBoostingClassifier:
    def classification_problem(self, rng, samples=300):
        x = rng.normal(size=(samples, 4))
        labels = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(int)
        return x, labels

    def test_rejects_non_binary_labels(self, rng):
        x = rng.normal(size=(10, 2))
        with pytest.raises(ValueError):
            GradientBoostingClassifier().fit(x, np.arange(10))

    def test_probabilities_in_unit_interval(self, rng):
        x, y = self.classification_problem(rng)
        model = GradientBoostingClassifier(n_estimators=20, seed=0).fit(x, y)
        probabilities = model.predict_proba(x)
        assert ((probabilities >= 0) & (probabilities <= 1)).all()

    def test_accuracy_beats_chance(self, rng):
        x, y = self.classification_problem(rng)
        model = GradientBoostingClassifier(n_estimators=40, seed=0).fit(x[:200], y[:200])
        predictions = model.predict(x[200:])
        accuracy = (predictions == y[200:]).mean()
        assert accuracy > 0.8

    def test_predict_threshold(self, rng):
        x, y = self.classification_problem(rng)
        model = GradientBoostingClassifier(n_estimators=10, seed=0).fit(x, y)
        strict = model.predict(x, threshold=0.9).sum()
        lenient = model.predict(x, threshold=0.1).sum()
        assert lenient >= strict
