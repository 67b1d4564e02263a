"""HMTRL baseline — Liu et al., VLDB 2020 (simplified).

HMTRL learns unified route representations that exploit spatio-temporal
dependencies in the road network and the coherence of historical routes.  The
reproduction keeps its two distinguishing ingredients relative to PathRank:

* the path representation combines mean- and max-pooled edge states, and
* an auxiliary *route coherence* loss encourages consecutive edges of a route
  to have similar hidden states.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..core.config import WSCCLConfig
from ..core.encoder import pad_paths
from ..core.spatial import SpatialEmbedding
from ..core.temporal_embedding import TemporalEmbedding
from .supervised_base import SupervisedSequenceModel

__all__ = ["HMTRLModel"]


class _HMTRLEncoder(nn.Module):
    """LSTM over spatio-temporal edge features with mean+max pooling."""

    def __init__(self, network, config, resources=None, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.config = config
        if resources is not None:
            self.spatial = resources.new_spatial_embedding(rng=rng)
            self.temporal = resources.new_temporal_embedding()
        else:
            self.spatial = SpatialEmbedding(network, config, rng=rng)
            self.temporal = TemporalEmbedding(config)
        self.lstm = nn.LSTM(config.encoder_input_dim, config.hidden_dim, rng=rng)
        self.mix = nn.Linear(2 * config.hidden_dim, config.hidden_dim, rng=rng)

    def forward(self, temporal_paths):
        edge_ids, mask = pad_paths(temporal_paths)
        spatial = self.spatial(edge_ids)
        temporal = self.temporal([tp.departure_time for tp in temporal_paths])
        steps = nn.Tensor(np.repeat(temporal.data[:, None, :], edge_ids.shape[1], axis=1))
        inputs = nn.Tensor.concatenate([steps, spatial], axis=-1)
        outputs, _ = self.lstm(inputs, mask=mask)

        mask_tensor = nn.Tensor(mask[:, :, None])
        counts = nn.Tensor(np.maximum(mask.sum(axis=1, keepdims=True), 1.0))
        mean_pooled = (outputs * mask_tensor).sum(axis=1) / counts
        # Max over valid steps: push padded entries far down before max.
        shifted = outputs + nn.Tensor((mask[:, :, None] - 1.0) * 1e6)
        max_pooled = shifted.max(axis=1)
        pooled = self.mix(nn.Tensor.concatenate([mean_pooled, max_pooled], axis=-1)).tanh()
        return pooled, outputs, mask

    def encode(self, temporal_paths, batch_size=64):
        chunks = []
        with nn.no_grad():
            for start in range(0, len(temporal_paths), batch_size):
                chunk = temporal_paths[start:start + batch_size]
                if not chunk:
                    continue
                pooled, _, _ = self.forward(chunk)
                chunks.append(pooled.data.copy())
        if not chunks:
            return np.zeros((0, self.config.hidden_dim))
        return np.concatenate(chunks, axis=0)


class HMTRLModel(SupervisedSequenceModel):
    """Unified route representation learning with a coherence auxiliary loss."""

    def __init__(self, config=None, epochs=3, batch_size=16, lr=1e-3, seed=0,
                 coherence_weight=0.1):
        self.config = config or WSCCLConfig.test_scale()
        super().__init__(dim=self.config.hidden_dim, epochs=epochs,
                         batch_size=batch_size, lr=lr, seed=seed)
        self.coherence_weight = coherence_weight

    def build_encoder(self, city, resources=None, **kwargs):
        self._encoder = _HMTRLEncoder(
            city.network, self.config, resources=resources, seed=self.seed,
        )
        return self._encoder

    def auxiliary_loss(self, pooled, outputs, mask, batch_paths):
        """Route coherence: consecutive edge states should be similar."""
        if outputs.shape[1] < 2:
            return None
        current = outputs[:, 1:, :]
        previous = outputs[:, :-1, :]
        pair_mask = nn.Tensor((mask[:, 1:] * mask[:, :-1])[:, :, None])
        difference = (current - previous) * pair_mask
        return (difference * difference).mean() * self.coherence_weight
