"""Tests for saving and loading trained models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import WSCCL, WSCModel, load_model, save_model
from repro.roadnet import CityConfig, generate_city_network


class TestSaveLoad:
    def test_round_trip_preserves_representations(self, tmp_path, tiny_city, tiny_config,
                                                  shared_resources):
        model = WSCCL(tiny_city.network, config=tiny_config, resources=shared_resources)
        model.fit_without_curriculum(tiny_city.unlabeled, batches_per_epoch=1)
        paths = tiny_city.unlabeled.temporal_paths[:5]
        original = model.encode(paths)

        archive = tmp_path / "wsccl.npz"
        save_model(archive, model)
        restored = load_model(archive, tiny_city.network)
        np.testing.assert_allclose(restored.encode(paths), original, atol=1e-9)

    def test_accepts_wsc_model_directly(self, tmp_path, tiny_city, tiny_config,
                                        shared_resources):
        model = WSCModel(tiny_city.network, config=tiny_config, resources=shared_resources)
        archive = tmp_path / "wsc.npz"
        save_model(archive, model)
        restored = load_model(archive, tiny_city.network)
        paths = tiny_city.unlabeled.temporal_paths[:3]
        np.testing.assert_allclose(restored.encode(paths), model.encode(paths), atol=1e-9)

    def test_rejects_non_model_objects(self, tmp_path):
        with pytest.raises(TypeError):
            save_model(tmp_path / "x.npz", object())

    def test_rejects_mismatched_network(self, tmp_path, tiny_city, tiny_config,
                                        shared_resources):
        model = WSCModel(tiny_city.network, config=tiny_config, resources=shared_resources)
        archive = tmp_path / "wsc.npz"
        save_model(archive, model)
        other_network = generate_city_network(
            CityConfig(name="other", grid_rows=3, grid_cols=3, seed=99))
        with pytest.raises(ValueError):
            load_model(archive, other_network)

    def test_config_round_trip(self, tmp_path, tiny_city, tiny_config, shared_resources):
        model = WSCModel(tiny_city.network, config=tiny_config, resources=shared_resources)
        archive = tmp_path / "wsc.npz"
        save_model(archive, model)
        restored = load_model(archive, tiny_city.network)
        assert restored.config.hidden_dim == tiny_config.hidden_dim
        assert restored.config.lambda_balance == tiny_config.lambda_balance
        assert restored.config.slots_per_day == tiny_config.slots_per_day


def rewrite_config(archive, **extra_fields):
    """Re-save ``archive`` with ``extra_fields`` added to its config JSON."""
    import json

    with np.load(archive, allow_pickle=False) as stored:
        arrays = {name: stored[name] for name in stored.files}
    config = json.loads(str(arrays["config_json"]))
    config.update(extra_fields)
    arrays["config_json"] = np.array(json.dumps(config))
    np.savez_compressed(archive, **arrays)


class TestArchiveCompatibility:
    def test_loads_archive_carrying_retired_node2vec_impl(
            self, tmp_path, tiny_city, tiny_config, shared_resources):
        # Archives written before the node2vec engine switch was retired
        # carry ``"node2vec_impl": "vectorized"`` in their config.
        model = WSCModel(tiny_city.network, config=tiny_config, resources=shared_resources)
        archive = tmp_path / "old.npz"
        save_model(archive, model)
        rewrite_config(archive, node2vec_impl="vectorized")
        restored = load_model(archive, tiny_city.network)
        paths = tiny_city.unlabeled.temporal_paths[:3]
        np.testing.assert_allclose(restored.encode(paths), model.encode(paths), atol=1e-9)

    def test_other_unknown_config_keys_still_raise(
            self, tmp_path, tiny_city, tiny_config, shared_resources):
        model = WSCModel(tiny_city.network, config=tiny_config, resources=shared_resources)
        archive = tmp_path / "bad.npz"
        save_model(archive, model)
        rewrite_config(archive, node2vec_engine="vectorized")
        with pytest.raises(TypeError):
            load_model(archive, tiny_city.network)
