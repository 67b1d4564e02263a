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
from ..core.encoder import batched_no_grad, masked_mean, spatio_temporal_inputs
from ..core.spatial import SpatialEmbedding
from ..core.temporal_embedding import TemporalEmbedding
from .supervised_base import SupervisedSequenceModel

__all__ = ["HMTRLModel"]


class _HMTRLEncoder(nn.Module):
    """LSTM over spatio-temporal edge features with mean+max pooling."""

    def __init__(self, network, config, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.config = config
        self.spatial = SpatialEmbedding(network, config, rng=rng)
        self.temporal = TemporalEmbedding(config)
        self.lstm = nn.LSTM(config.encoder_input_dim, config.hidden_dim, rng=rng)
        self.mix = nn.Linear(2 * config.hidden_dim, config.hidden_dim, rng=rng)

    def forward(self, temporal_paths):
        inputs, _, mask = spatio_temporal_inputs(self.spatial, self.temporal, temporal_paths)
        outputs, _ = self.lstm(inputs, mask=mask)

        mean_pooled = masked_mean(outputs, mask)
        # Max over valid steps: push padded entries far down before max.
        shifted = outputs + nn.Tensor((mask[:, :, None] - 1.0) * 1e6)
        max_pooled = shifted.max(axis=1)
        pooled = self.mix(nn.Tensor.concatenate([mean_pooled, max_pooled], axis=-1)).tanh()
        return pooled, outputs, mask

    def encode(self, temporal_paths, batch_size=64):
        return batched_no_grad(lambda chunk: self.forward(chunk)[0], temporal_paths,
                               (0, self.config.hidden_dim), batch_size)


class HMTRLModel(SupervisedSequenceModel):
    """Unified route representation learning with a coherence auxiliary loss."""

    def __init__(self, config=None, epochs=3, batch_size=16, lr=1e-3, seed=0,
                 coherence_weight=0.1):
        self.config = config or WSCCLConfig.test_scale()
        super().__init__(dim=self.config.hidden_dim, epochs=epochs,
                         batch_size=batch_size, lr=lr, seed=seed)
        self.coherence_weight = coherence_weight

    def build_encoder(self, city):
        self._encoder = _HMTRLEncoder(city.network, self.config, seed=self.seed)
        return self._encoder

    def _batch_loss(self, pooled, outputs, mask, targets):
        """MSE plus route coherence: consecutive edge states should be similar."""
        loss = super()._batch_loss(pooled, outputs, mask, targets)
        if outputs.shape[1] < 2:
            return loss
        current = outputs[:, 1:, :]
        previous = outputs[:, :-1, :]
        pair_mask = nn.Tensor((mask[:, 1:] * mask[:, :-1])[:, :, None])
        difference = (current - previous) * pair_mask
        return loss + (difference * difference).mean() * self.coherence_weight
