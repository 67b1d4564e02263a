"""Memory Bank (MB) baseline — Wu et al., CVPR 2018, adapted to paths.

Instance discrimination: every unlabeled path is its own class.  The encoder
is trained to make a path's representation similar to its stored memory-bank
entry and dissimilar to randomly drawn entries of other paths.  As in the
paper's re-implementation, the encoder is an LSTM over spatial edge features
(no temporal information).
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import functional as F
from ..datasets.temporal_paths import minibatches
from .base import RepresentationModel
from .sequence_encoder import SpatialSequenceEncoder

__all__ = ["MemoryBankModel"]


class MemoryBankModel(RepresentationModel):
    """Instance-discrimination training with a representation memory bank."""

    def __init__(self, dim=16, epochs=2, batch_size=16, negatives=8,
                 lr=1e-3, momentum=0.5, temperature=0.1, seed=0):
        self.dim = dim
        self.epochs = epochs
        self.batch_size = batch_size
        self.negatives = negatives
        self.lr = lr
        self.momentum = momentum
        self.temperature = temperature
        self.seed = seed

    def fit(self, city, max_batches=None):
        rng = np.random.default_rng(self.seed)
        paths = city.unlabeled.temporal_paths
        encoder = SpatialSequenceEncoder(city.network, hidden_dim=self.dim, seed=self.seed)
        optimizer = nn.Adam(encoder.parameters(), lr=self.lr)

        # Memory bank initialised with random unit vectors.
        bank = rng.normal(size=(len(paths), self.dim))
        bank /= np.maximum(np.linalg.norm(bank, axis=1, keepdims=True), 1e-12)

        for indices in minibatches(rng, len(paths), self.batch_size, self.epochs, max_batches):
            batch_paths = [paths[i] for i in indices]
            pooled, _, _ = encoder(batch_paths)

            negative_indices = rng.choice(len(paths), size=self.negatives, replace=False)
            positives = nn.Tensor(bank[indices])
            negatives = nn.Tensor(bank[negative_indices])

            pos_sims = F.cosine_similarity(pooled, positives) * (1.0 / self.temperature)
            # (B, K) similarities against the shared negative set.
            pooled_norm = F.normalize(pooled, axis=-1)
            negatives_norm = F.normalize(negatives, axis=-1)
            neg_sims = (pooled_norm @ negatives_norm.transpose()) * (1.0 / self.temperature)

            denominator = F.logsumexp(
                nn.Tensor.concatenate([pos_sims.reshape(-1, 1), neg_sims], axis=1), axis=-1
            )
            loss = (denominator - pos_sims).mean()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()

            # Momentum update of the bank entries for this batch.
            fresh = encoder.encode(batch_paths)
            fresh /= np.maximum(np.linalg.norm(fresh, axis=1, keepdims=True), 1e-12)
            bank[indices] = self.momentum * bank[indices] + (1.0 - self.momentum) * fresh
            bank[indices] /= np.maximum(
                np.linalg.norm(bank[indices], axis=1, keepdims=True), 1e-12
            )

        self._encoder = encoder
        return self
