"""Shared spatial-only sequence encoder used by several baselines.

MB, InfoGraph, PIM and BERT all encode a path as a sequence of *spatial* edge
features (no temporal information) — this module provides that encoder so the
baselines differ only in their training objective, as in the paper.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..core.config import WSCCLConfig
from ..core.encoder import batched_no_grad, masked_mean, pad_paths
from ..core.spatial import SpatialEmbedding

__all__ = ["SpatialSequenceEncoder"]


class SpatialSequenceEncoder(nn.Module):
    """LSTM over spatial edge embeddings with masked mean pooling.

    Parameters
    ----------
    network:
        Road network the paths live on.
    hidden_dim:
        Encoder output dimensionality; the spatial embedding sizes are those
        of :meth:`WSCCLConfig.test_scale`.
    """

    def __init__(self, network, hidden_dim=16, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.config = WSCCLConfig.test_scale().with_overrides(hidden_dim=hidden_dim)
        self.hidden_dim = hidden_dim
        self.spatial = SpatialEmbedding(network, self.config, rng=rng)
        self.lstm = nn.LSTM(self.config.spatial_dim, hidden_dim, rng=rng)

    def forward(self, temporal_paths):
        """Return (path_representations, edge_representations, mask)."""
        edge_ids, mask = pad_paths(temporal_paths)
        spatial = self.spatial(edge_ids)
        outputs, _ = self.lstm(spatial, mask=mask)
        return masked_mean(outputs, mask), outputs, mask

    def encode(self, temporal_paths, batch_size=64):
        """Frozen numpy representations for a list of paths."""
        return batched_no_grad(lambda chunk: self.forward(chunk)[0], temporal_paths,
                               (0, self.hidden_dim), batch_size)
