"""Common interfaces for the baseline methods (paper §VII-A3).

Two kinds of baselines exist:

* **Unsupervised representation models** — learn path representations from
  the unlabeled corpus; a GBR/GBC is then fitted on the frozen
  representations per task (same harness as WSCCL).
* **Supervised models** — train end-to-end on the labels of one task.  They
  also expose their internal path representation, which the cross-task
  experiment (Table X) reuses on the secondary task.

Every model implements ``encode(temporal_paths) -> (N, D) array`` so the
downstream evaluators treat WSCCL and all baselines uniformly.

Every minibatch training loop draws its batches from
:func:`repro.datasets.temporal_paths.minibatches`.
"""

from __future__ import annotations

import numpy as np

from ..core.spatial import check_edge_ids

__all__ = ["RepresentationModel", "SupervisedModel"]


def require_training_examples(examples):
    """Reject labelled training sets too small for one minibatch."""
    if len(examples) < 2:
        raise ValueError(f"supervised training needs at least 2 labelled "
                         f"examples, got {len(examples)}")


def path_edge_ids(temporal_path, num_edges):
    """The path's edge ids as an int array, checked against ``num_edges``."""
    indices = np.asarray(list(temporal_path.path), dtype=np.int64)
    check_edge_ids(indices, num_edges)
    return indices


class RepresentationModel:
    """Interface for unsupervised path-representation baselines."""

    #: Fitted module with ``encode(paths) -> numpy``, for models that have one.
    _encoder = None

    def fit(self, city, **kwargs):
        """Learn representations from a :class:`~repro.datasets.synthetic.CityDataset`.

        Implementations use only the road network and the unlabeled temporal
        paths — never the task labels.
        """
        raise NotImplementedError

    def encode(self, temporal_paths):
        """Return an ``(N, D)`` representation matrix for the given paths.

        By default the fitted ``self._encoder`` computes it.
        """
        if self._encoder is None:
            raise RuntimeError("model has not been fitted")
        return self._encoder.encode(temporal_paths)

    def represent(self, temporal_path):
        """Representation of a single temporal path."""
        return self.encode([temporal_path])[0]


class SupervisedModel(RepresentationModel):
    """Interface for supervised baselines (trained on one task's labels)."""

    def fit_supervised(self, examples, task, **kwargs):
        """Train on labelled examples of ``task`` ('travel_time' or 'ranking')."""
        raise NotImplementedError

    def predict(self, temporal_paths):
        """Direct predictions of the trained task for the given paths."""
        raise NotImplementedError

