"""DeepGTT baseline — Li et al., WWW 2019 (simplified).

DeepGTT is a deep generative model of travel-time *distributions*: given a
path and a departure time it predicts the parameters of an inverse Gaussian
over the travel time.  The reproduction keeps that structure — a
non-recurrent edge-feature encoder conditioned on the departure-time slot,
predicting a positive mean via softplus and trained by maximising the
inverse-Gaussian log-likelihood — while dropping the amortised-inference
machinery that only matters at the paper's original scale.

Because the model is built around travel-time likelihoods, it transfers
poorly to ranking (the paper's Table III/X observation), which this
implementation reproduces naturally.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..core.config import WSCCLConfig
from ..core.encoder import pad_paths
from ..core.spatial import SpatialEmbedding
from ..core.temporal_embedding import TemporalEmbedding
from .supervised_base import SupervisedSequenceModel

__all__ = ["DeepGTTModel"]


class _DeepGTTEncoder(nn.Module):
    """Mean-pooled edge features conditioned on the departure time slot."""

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
        self.edge_projection = nn.Linear(config.spatial_dim, config.hidden_dim, rng=rng)
        self.time_projection = nn.Linear(config.temporal_dim, config.hidden_dim, rng=rng)
        self.combine = nn.Linear(2 * config.hidden_dim, config.hidden_dim, rng=rng)

    def forward(self, temporal_paths):
        edge_ids, mask = pad_paths(temporal_paths)
        spatial = self.spatial(edge_ids)
        edge_states = self.edge_projection(spatial).relu()

        mask_tensor = nn.Tensor(mask[:, :, None])
        counts = nn.Tensor(np.maximum(mask.sum(axis=1, keepdims=True), 1.0))
        pooled_edges = (edge_states * mask_tensor).sum(axis=1) / counts

        temporal = self.temporal([tp.departure_time for tp in temporal_paths])
        time_state = self.time_projection(temporal).relu()
        pooled = self.combine(
            nn.Tensor.concatenate([pooled_edges, time_state], axis=-1)
        ).tanh()
        return pooled, edge_states, mask

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


class DeepGTTModel(SupervisedSequenceModel):
    """Travel-time distribution estimation with an inverse-Gaussian head."""

    def __init__(self, config=None, epochs=3, batch_size=16, lr=1e-3, seed=0):
        self.config = config or WSCCLConfig.test_scale()
        super().__init__(dim=self.config.hidden_dim, epochs=epochs,
                         batch_size=batch_size, lr=lr, seed=seed)
        self._mu_head = None
        self._lambda_head = None
        self._scale = 1.0

    def build_encoder(self, city, resources=None, **kwargs):
        self._encoder = _DeepGTTEncoder(
            city.network, self.config, resources=resources, seed=self.seed,
        )
        return self._encoder

    # DeepGTT replaces the generic MSE head with an inverse-Gaussian likelihood.
    def fit_supervised(self, examples, task, city=None, max_batches=None, **kwargs):
        if self._encoder is None:
            if city is None:
                raise ValueError("pass city= the first time fit_supervised is called")
            self.build_encoder(city, **kwargs)
        self.task = task

        paths = [e.temporal_path for e in examples]
        targets = np.array([self._target_of(e, task) for e in examples], dtype=np.float64)
        # Scale targets to O(1) so the likelihood is well conditioned; ranking
        # scores are already in [0, 1], travel times are divided by their mean.
        self._scale = float(max(targets.mean(), 1e-6))
        scaled = np.maximum(targets / self._scale, 1e-3)

        rng = np.random.default_rng(self.seed)
        self._mu_head = nn.Linear(self.dim, 1, rng=rng)
        self._lambda_head = nn.Linear(self.dim, 1, rng=rng)
        params = (list(self._encoder.parameters()) + list(self._mu_head.parameters())
                  + list(self._lambda_head.parameters()))
        optimizer = nn.Adam(params, lr=self.lr)

        for _ in range(self.epochs):
            order = rng.permutation(len(paths))
            batches = 0
            for start in range(0, len(order), self.batch_size):
                if max_batches is not None and batches >= max_batches:
                    break
                indices = order[start:start + self.batch_size]
                if len(indices) < 2:
                    continue
                batch_paths = [paths[i] for i in indices]
                observed = nn.Tensor(scaled[indices])

                pooled, _, _ = self._encoder(batch_paths)
                mu = _softplus(self._mu_head(pooled).reshape(-1)) + 1e-3
                lam = _softplus(self._lambda_head(pooled).reshape(-1)) + 1e-3
                # Negative inverse-Gaussian log-likelihood (up to constants):
                #   -0.5*log(lam) + lam*(x-mu)^2 / (2*mu^2*x)
                residual = observed - mu
                loss = (
                    (lam * residual * residual) / (mu * mu * observed * 2.0)
                    - lam.log() * 0.5
                ).mean()

                optimizer.zero_grad()
                loss.backward()
                nn.clip_grad_norm(params, 5.0)
                optimizer.step()
                batches += 1
        return self

    def predict(self, temporal_paths, batch_size=64):
        """Predicted mean of the inverse-Gaussian, rescaled to target units."""
        if self._encoder is None or self._mu_head is None:
            raise RuntimeError("model has not been trained with fit_supervised")
        outputs = []
        with nn.no_grad():
            for start in range(0, len(temporal_paths), batch_size):
                chunk = temporal_paths[start:start + batch_size]
                if not chunk:
                    continue
                pooled, _, _ = self._encoder(chunk)
                mu = _softplus(self._mu_head(pooled).reshape(-1)) + 1e-3
                outputs.append(mu.data.copy())
        flat = np.concatenate(outputs) if outputs else np.zeros(0)
        return flat * self._scale


def _softplus(x):
    return ((x.clip(-30.0, 30.0)).exp() + 1.0).log()
