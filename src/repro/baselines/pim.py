"""PIM baseline — Yang et al., IJCAI 2021 — and its temporal extension.

PIM (Path InfoMax) learns unsupervised path representations by maximising
mutual information (i) globally, between a path's representation and the
representations of its own sub-paths against *negative* paths obtained via
curriculum negative sampling (edge-perturbed variants of the path), and
(ii) locally, between the path representation and its own edge
representations.  No temporal information is used.

:class:`PIMTemporalModel` (Table IX) concatenates the frozen temporal slot
embedding of the departure time onto PIM's path representation — the paper's
"PIM-Temporal" comparison showing that bolting a temporal vector onto a
non-temporal PR is inferior to learning a coupled TPR.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..core.temporal_embedding import TemporalEmbedding
from ..datasets.temporal_paths import TemporalPath
from ..datasets.temporal_paths import minibatches
from .base import RepresentationModel
from .sequence_encoder import SpatialSequenceEncoder

__all__ = ["PIMModel", "PIMTemporalModel"]


class PIMModel(RepresentationModel):
    """Unsupervised path representation learning via global/local InfoMax."""

    def __init__(self, dim=16, epochs=2, batch_size=16, lr=1e-3, seed=0,
                 negative_perturbation=0.4):
        self.dim = dim
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.seed = seed
        self.negative_perturbation = negative_perturbation

    # ------------------------------------------------------------------
    def _curriculum_negative(self, path, network, rng, difficulty):
        """Curriculum negative sampling: perturb a fraction of the path's edges.

        Early in training (low difficulty) most edges are replaced with
        random edges, giving easy negatives; later only a few are replaced,
        giving hard negatives — PIM's curriculum schedule.
        """
        edges = list(path.path)
        replace_fraction = max(0.1, self.negative_perturbation * (1.0 - difficulty))
        count = max(1, int(round(len(edges) * replace_fraction)))
        positions = rng.choice(len(edges), size=min(count, len(edges)), replace=False)
        for position in positions:
            edges[position] = int(rng.integers(0, network.num_edges))
        return TemporalPath(path=edges, departure_time=path.departure_time)

    def fit(self, city, max_batches=None):
        rng = np.random.default_rng(self.seed)
        paths = city.unlabeled.temporal_paths
        network = city.network
        encoder = SpatialSequenceEncoder(network, hidden_dim=self.dim, seed=self.seed)
        optimizer = nn.Adam(encoder.parameters(), lr=self.lr)

        total_steps = max(1, self.epochs * (len(paths) // max(1, self.batch_size)))
        batches = minibatches(rng, len(paths), self.batch_size, self.epochs, max_batches)
        for step, indices in enumerate(batches):
            batch_paths = [paths[i] for i in indices]
            difficulty = min(1.0, step / total_steps)
            negatives = [
                self._curriculum_negative(p, network, rng, difficulty)
                for p in batch_paths
            ]

            pos_pooled, pos_outputs, pos_mask = encoder(batch_paths)
            neg_pooled, _, _ = encoder(negatives)

            loss = self._infomax_loss(pos_pooled, pos_outputs, pos_mask, neg_pooled)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()

        self._encoder = encoder
        return self

    def _infomax_loss(self, pooled, outputs, mask, negative_pooled):
        """Global (path vs negative path) + local (path vs own edges) JSD MI."""
        batch = pooled.shape[0]
        lengths = mask.sum(axis=1).astype(np.int64)

        # Global: the path representation should score higher against itself
        # than against its curriculum negative.
        pos_scores = (pooled * pooled).sum(axis=-1)
        neg_scores = (pooled * negative_pooled).sum(axis=-1)
        global_loss = (
            ((-pos_scores).exp() + 1.0).log().mean()
            + (neg_scores.exp() + 1.0).log().mean()
        )

        # Local: path representation vs its own edge representations.
        local_terms = []
        for i in range(batch):
            own_edges = outputs[i, :int(lengths[i]), :]
            scores = (own_edges * pooled[i:i + 1, :]).sum(axis=-1)
            local_terms.append(((-scores).exp() + 1.0).log().mean())
        local_loss = local_terms[0]
        for term in local_terms[1:]:
            local_loss = local_loss + term
        local_loss = local_loss * (1.0 / batch)

        return global_loss + local_loss


class PIMTemporalModel(PIMModel):
    """PIM with a frozen temporal embedding concatenated onto its PR (Table IX)."""

    def __init__(self, dim=16, temporal_dim=8, slots_per_day=48, **kwargs):
        super().__init__(dim=dim, **kwargs)
        self.temporal_dim = temporal_dim
        self.slots_per_day = slots_per_day
        self._temporal = None

    def fit(self, city, max_batches=None):
        super().fit(city, max_batches=max_batches)
        from ..core.config import WSCCLConfig

        config = WSCCLConfig.test_scale().with_overrides(
            temporal_dim=self.temporal_dim, slots_per_day=self.slots_per_day,
        )
        self._temporal = TemporalEmbedding(config)
        return self

    def encode(self, temporal_paths):
        base = super().encode(temporal_paths)
        if self._temporal is None:
            raise RuntimeError("model has not been fitted")
        temporal = self._temporal([tp.departure_time for tp in temporal_paths]).data
        return np.concatenate([base, temporal], axis=1)
