"""GCN and STGCN baselines (edge-level travel-time estimation).

Both methods estimate the travel time of every *edge* in the road network and
score a path as the sum of its edges' predicted times (paper §VII-A3), which
is why they only appear in the travel-time columns of Table III.

* :class:`GCNTravelTimeModel` — a two-layer graph convolution over the road
  network's nodes; an edge's time is predicted from its endpoint embeddings
  and its own features, ignoring the departure time.
* :class:`STGCNTravelTimeModel` — the same spatial backbone with a temporal
  branch: the departure-time slot embedding modulates the edge-time
  prediction, giving the model the spatio-temporal structure of STGCN at a
  fraction of its original size.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..core.config import WSCCLConfig
from ..core.encoder import batched_no_grad
from ..core.temporal_embedding import TemporalEmbedding
from ..datasets.temporal_paths import minibatches
from .base import SupervisedModel, path_edge_ids, require_training_examples
from .graph_embedding import _node_input_features, _normalized_adjacency

__all__ = ["GCNTravelTimeModel", "STGCNTravelTimeModel"]


class _EdgeTimeBackbone(nn.Module):
    """Two-layer GCN over nodes + an edge-level regression head."""

    def __init__(self, network, hidden_dim, extra_dim=0, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.network = network
        self.node_features = _node_input_features(network)
        self.adjacency = _normalized_adjacency(network)
        feature_dim = self.node_features.shape[1]

        self.gcn1 = nn.Linear(feature_dim, hidden_dim, rng=rng)
        self.gcn2 = nn.Linear(hidden_dim, hidden_dim, rng=rng)
        edge_feature_dim = len(network.feature_encoder.one_hot(network.edge_features(0)))
        self.edge_head = nn.Linear(2 * hidden_dim + edge_feature_dim + extra_dim, 1, rng=rng)

        self._edge_one_hots = np.stack([
            network.feature_encoder.one_hot(network.edge_features(e))
            for e in range(network.num_edges)
        ])

    def node_embeddings(self):
        adjacency = nn.Tensor(self.adjacency)
        features = nn.Tensor(self.node_features)
        hidden = (adjacency @ self.gcn1(features)).relu()
        return (adjacency @ self.gcn2(hidden)).relu()

    def edge_times(self, extra_per_edge=None):
        """Predicted traversal time (seconds) for every edge.

        ``extra_per_edge`` optionally appends a feature block (the temporal
        branch of STGCN).  Times are positive via softplus and scaled by the
        edge length so long edges naturally take longer.
        """
        nodes = self.node_embeddings()
        sources = nodes[self.network.edge_sources]
        targets = nodes[self.network.edge_targets]
        pieces = [sources, targets, nn.Tensor(self._edge_one_hots)]
        if extra_per_edge is not None:
            pieces.append(extra_per_edge)
        stacked = nn.Tensor.concatenate(pieces, axis=-1)
        raw = self.edge_head(stacked).reshape(-1)
        # softplus(raw) gives seconds-per-100-metres; multiply by length/100.
        softplus = ((raw.clip(-30.0, 30.0)).exp() + 1.0).log()
        return softplus * nn.Tensor(self.network.edge_lengths / 100.0)


class GCNTravelTimeModel(SupervisedModel):
    """Sum of GCN-predicted edge travel times (no temporal information)."""

    supports_ranking = False

    def __init__(self, hidden_dim=16, epochs=20, batch_size=16, lr=5e-3, seed=0):
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.seed = seed
        self._backbone = None

    def fit(self, city):
        self._backbone = _EdgeTimeBackbone(city.network, self.hidden_dim, seed=self.seed)
        return self

    def _extra_for_batch(self, temporal_paths):
        return None

    def fit_supervised(self, examples, task, city=None, max_batches=None):
        if task != "travel_time":
            raise ValueError("GCN/STGCN baselines only support the travel_time task")
        require_training_examples(examples)
        if self._backbone is None:
            if city is None:
                raise ValueError("pass city= the first time fit_supervised is called")
            self.fit(city)

        paths = [e.temporal_path for e in examples]
        targets = np.array([e.travel_time for e in examples], dtype=np.float64)
        scale = float(max(targets.mean(), 1e-6))

        rng = np.random.default_rng(self.seed)
        optimizer = nn.Adam(self._backbone.parameters(), lr=self.lr)

        for indices in minibatches(rng, len(paths), self.batch_size, self.epochs, max_batches):
            batch_targets = nn.Tensor(targets[indices] / scale)
            predictions = self._predict_batch_tensor([paths[i] for i in indices]) * (1.0 / scale)
            loss = nn.functional.mse_loss(predictions, batch_targets)
            optimizer.zero_grad()
            loss.backward()
            nn.clip_grad_norm(self._backbone.parameters(), 5.0)
            optimizer.step()
        return self

    def _predict_batch_tensor(self, temporal_paths):
        edge_times = self._backbone.edge_times(self._extra_for_batch(temporal_paths))
        num_edges = self._backbone.network.num_edges
        rows = [edge_times[path_edge_ids(tp, num_edges)].sum().reshape(1)
                for tp in temporal_paths]
        return nn.Tensor.concatenate(rows, axis=0)

    def predict(self, temporal_paths, batch_size=64):
        if self._backbone is None:
            raise RuntimeError("model has not been trained")
        return batched_no_grad(self._predict_batch_tensor, temporal_paths, (0,), batch_size)

    def encode(self, temporal_paths):
        """Per-path mean of endpoint node embeddings (rarely used)."""
        if self._backbone is None:
            raise RuntimeError("model has not been fitted")
        with nn.no_grad():
            nodes = self._backbone.node_embeddings().data
        network = self._backbone.network
        outputs = np.zeros((len(temporal_paths), nodes.shape[1]))
        for row, tp in enumerate(temporal_paths):
            edges = path_edge_ids(tp, network.num_edges)
            endpoint_nodes = np.stack(
                (network.edge_sources[edges], network.edge_targets[edges]), axis=1)
            outputs[row] = nodes[endpoint_nodes.reshape(-1)].mean(axis=0)
        return outputs


class STGCNTravelTimeModel(GCNTravelTimeModel):
    """GCN backbone plus a temporal branch conditioned on the departure slot."""

    def __init__(self, hidden_dim=16, temporal_dim=8, slots_per_day=48, **kwargs):
        super().__init__(hidden_dim=hidden_dim, **kwargs)
        self.temporal_dim = temporal_dim
        self.slots_per_day = slots_per_day
        self._temporal = None

    def fit(self, city):
        self._backbone = _EdgeTimeBackbone(
            city.network, self.hidden_dim, extra_dim=self.temporal_dim, seed=self.seed,
        )
        config = WSCCLConfig.test_scale().with_overrides(
            temporal_dim=self.temporal_dim, slots_per_day=self.slots_per_day,
        )
        self._temporal = TemporalEmbedding(config)
        return self

    def _extra_for_batch(self, temporal_paths):
        # Every path in the chunk contributes one departure time; edges get
        # the batch-mean temporal embedding (a cheap stand-in for STGCN's
        # temporal convolution over the shared network state).
        temporal = self._temporal([tp.departure_time for tp in temporal_paths]).data
        mean_vector = temporal.mean(axis=0, keepdims=True)
        repeated = np.repeat(mean_vector, self._backbone.network.num_edges, axis=0)
        return nn.Tensor(repeated)
