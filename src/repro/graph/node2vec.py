"""Node2vec front-end: walks + skip-gram, for arbitrary graphs.

``Node2Vec.fit_temporal_graph`` and ``Node2Vec.fit_road_network`` are thin
adapters for the two graphs WSCCL embeds (paper Eq. 2 and Eq. 5).
"""

from __future__ import annotations

import numpy as np

from .skipgram import SkipGramTrainer
from .walks import RandomWalker

__all__ = ["Node2Vec", "Node2VecConfig"]


class Node2VecConfig:
    """Hyper-parameters for one node2vec run.

    ``lr_decay`` enables the word2vec-style linear learning-rate schedule.
    """

    def __init__(self, dim=128, walks_per_node=10, walk_length=20, window=5,
                 negatives=5, epochs=2, p=1.0, q=1.0, lr=0.025, seed=0,
                 lr_decay=True):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if walk_length < 2:
            raise ValueError("walk_length must be >= 2")
        self.dim = dim
        self.walks_per_node = walks_per_node
        self.walk_length = walk_length
        self.window = window
        self.negatives = negatives
        self.epochs = epochs
        self.p = p
        self.q = q
        self.lr = lr
        self.seed = seed
        self.lr_decay = lr_decay


class Node2Vec:
    """Fit node2vec embeddings for a graph given its adjacency."""

    def __init__(self, config=None):
        self.config = config or Node2VecConfig()
        self._embeddings = None

    # ------------------------------------------------------------------
    def fit(self, neighbors_fn, num_nodes):
        """Fit embeddings for a generic graph.

        Parameters
        ----------
        neighbors_fn:
            Callable ``node -> sequence of neighbours``.
        num_nodes:
            Number of nodes in the graph.
        """
        cfg = self.config
        walker = RandomWalker(neighbors_fn, num_nodes, p=cfg.p, q=cfg.q,
                              seed=cfg.seed)
        walks = walker.generate_walks(cfg.walks_per_node, cfg.walk_length)
        trainer = SkipGramTrainer(
            num_nodes=num_nodes,
            dim=cfg.dim,
            window=cfg.window,
            negatives=cfg.negatives,
            lr=cfg.lr,
            seed=cfg.seed,
            lr_decay=cfg.lr_decay,
        )
        self._embeddings = trainer.train(walks, epochs=cfg.epochs)
        return self._embeddings

    def fit_temporal_graph(self, temporal_graph):
        """Embeddings for the 2016-node temporal graph (paper Eq. 2)."""
        return self.fit(temporal_graph.neighbors, temporal_graph.num_nodes)

    def fit_road_network(self, network):
        """Embeddings for road-network nodes.

        The road network is directed; node2vec walks use the undirected
        neighbourhood (union of out- and in-neighbours), matching how the
        paper applies a generic graph embedding to the network topology.
        """
        def undirected_neighbors(node):
            neighbours = set()
            for edge in network.out_edges(node):
                neighbours.add(network.edge_endpoints(edge)[1])
            for edge in network.in_edges(node):
                neighbours.add(network.edge_endpoints(edge)[0])
            return sorted(neighbours)

        return self.fit(undirected_neighbors, network.num_nodes)

    # ------------------------------------------------------------------
    @property
    def embeddings(self):
        """Node embedding matrix from the last :meth:`fit` call."""
        if self._embeddings is None:
            raise RuntimeError("Node2Vec has not been fitted")
        return self._embeddings

    def edge_topology_embeddings(self, network):
        """Per-edge topology feature: concatenation of endpoint embeddings (Eq. 5)."""
        return endpoint_concat(network, self.embeddings)


def endpoint_concat(network, node_vectors):
    """Per-edge rows ``[node_vectors[source], node_vectors[target]]``, shape (E, 2D)."""
    return np.concatenate(
        (node_vectors[network.edge_sources], node_vectors[network.edge_targets]),
        axis=1)
