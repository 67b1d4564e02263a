"""Model persistence: save and load trained WSCCL encoders.

The encoder state (all trainable parameters), the frozen node2vec features and
the configuration are stored in a single ``.npz`` archive so a trained model
can be shipped to downstream users without retraining node2vec or the
contrastive objective — the deployment mode the paper's "generic TPR" pitch
implies.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .config import WSCCLConfig
from .model import SharedResources, WSCModel

__all__ = ["save_model", "load_model"]

_STATE_PREFIX = "state::"
_RESOURCE_TOPOLOGY = "resource::topology"
_RESOURCE_TEMPORAL = "resource::temporal"
_CONFIG_KEY = "config_json"
_META_KEY = "meta_json"
#: Config fields older archives carry that no longer exist; dropped on load.
_RETIRED_CONFIG_KEYS = ("node2vec_impl",)


def save_model(path, model):
    """Persist a trained :class:`WSCModel` (or a ``WSCCL`` wrapper's model).

    Parameters
    ----------
    path:
        Destination ``.npz`` file path.
    model:
        A :class:`WSCModel`, or any object with a ``model`` attribute holding
        one (e.g. :class:`~repro.core.wsccl.WSCCL`).
    """
    if not isinstance(model, WSCModel):
        model = getattr(model, "model", None)
        if not isinstance(model, WSCModel):
            raise TypeError("save_model expects a WSCModel or a WSCCL instance")

    arrays = {
        _RESOURCE_TOPOLOGY: model.resources.topology_features,
        _RESOURCE_TEMPORAL: model.resources.temporal_embeddings,
    }
    for name, value in model.encoder.state_dict().items():
        arrays[_STATE_PREFIX + name] = value

    config_json = json.dumps(dataclasses.asdict(model.config))
    meta_json = json.dumps({
        "encoder_type": getattr(model, "encoder_type", "lstm"),
        "use_temporal": model.encoder.use_temporal,
        "num_network_edges": model.network.num_edges,
    })
    np.savez_compressed(path, **arrays,
                        **{_CONFIG_KEY: np.array(config_json),
                           _META_KEY: np.array(meta_json)})
    return path


def load_model(path, network):
    """Load a model saved with :func:`save_model` onto ``network``.

    The road network must be the same one the model was trained on (checked
    via its edge count); the frozen node2vec features stored in the archive
    are reused, so no walks are re-run.  Config keys of retired options are
    ignored; any other unknown key raises ``TypeError``.
    """
    archive = np.load(path, allow_pickle=False)
    config_fields = json.loads(str(archive[_CONFIG_KEY]))
    for key in _RETIRED_CONFIG_KEYS:
        config_fields.pop(key, None)
    config = WSCCLConfig(**config_fields)
    meta = json.loads(str(archive[_META_KEY]))

    if network.num_edges != meta["num_network_edges"]:
        raise ValueError(
            f"network mismatch: archive was trained on {meta['num_network_edges']} "
            f"edges, got a network with {network.num_edges}")

    resources = SharedResources(
        network,
        config=config,
        topology_features=archive[_RESOURCE_TOPOLOGY],
        temporal_embeddings=archive[_RESOURCE_TEMPORAL],
    )
    model = WSCModel(
        network,
        config=config,
        resources=resources,
        use_temporal=meta["use_temporal"],
        encoder_type=meta.get("encoder_type", "lstm"),
    )
    state = {
        name[len(_STATE_PREFIX):]: archive[name]
        for name in archive.files if name.startswith(_STATE_PREFIX)
    }
    model.encoder.load_state_dict(state)
    return model
