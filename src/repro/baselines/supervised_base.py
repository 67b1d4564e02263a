"""Shared machinery for the supervised sequence baselines.

DeepGTT, HMTRL and PathRank all follow the same supervised pattern: a path
encoder produces a representation, a regression head maps it to the task
label (travel time or ranking score), and everything is trained end-to-end
on a rescaled target.  :class:`SupervisedSequenceModel` owns that trainer —
the minibatch loop, Adam, the gradient clip and the chunked ``predict`` — and
subclasses provide their encoder plus whatever they change about the target
scaling, the heads or the loss.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..core.encoder import batched_no_grad
from ..datasets.temporal_paths import minibatches
from .base import SupervisedModel, require_training_examples

__all__ = ["SupervisedSequenceModel"]


class SupervisedSequenceModel(SupervisedModel):
    """Base class: encoder + linear head trained on one task's labels.

    Subclasses must set ``self._encoder`` (a module with
    ``forward(paths) -> (pooled Tensor, outputs Tensor, mask)`` and
    ``encode(paths) -> numpy``) inside :meth:`build_encoder`.  The default
    objective is MSE on the standardised target; subclasses may override
    :meth:`_scale_targets`, :meth:`_output` and :meth:`_batch_loss`, and set
    ``_num_heads`` for extra ``Linear(dim, 1)`` heads.
    """

    #: Number of ``Linear(dim, 1)`` heads on the pooled representation.
    _num_heads = 1

    def __init__(self, dim=16, epochs=3, batch_size=16, lr=1e-3, seed=0):
        self.dim = dim
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.seed = seed
        self._heads = None
        self._target_offset = 0.0
        self._target_scale = 1.0
        self.task = None

    # ------------------------------------------------------------------
    def build_encoder(self, city, **kwargs):
        """Create ``self._encoder`` for the given city dataset."""
        raise NotImplementedError

    def _scale_targets(self, targets):
        """Set ``_target_offset``/``_target_scale`` and return training targets."""
        self._target_offset = float(targets.mean())
        self._target_scale = float(max(targets.std(), 1e-6))
        return (targets - self._target_offset) / self._target_scale

    def _output(self, pooled):
        """Point prediction, in training-target units, from pooled representations."""
        return self._heads[0](pooled).reshape(-1)

    def _batch_loss(self, pooled, outputs, mask, targets):
        """Training loss of one batch against its (scaled) targets."""
        return nn.functional.mse_loss(self._output(pooled), targets)

    # ------------------------------------------------------------------
    def fit(self, city, **kwargs):
        """Unsupervised ``fit`` only builds the encoder (used before encode)."""
        self.build_encoder(city, **kwargs)
        return self

    def fit_supervised(self, examples, task, city=None, max_batches=None, **kwargs):
        """Train end-to-end on labelled examples of ``task``.

        ``examples`` carry ``temporal_path`` plus ``travel_time`` (task
        'travel_time') or ``score`` (task 'ranking'); at least 2 are needed.
        """
        require_training_examples(examples)
        if self._encoder is None:
            if city is None:
                raise ValueError("pass city= the first time fit_supervised is called")
            self.build_encoder(city, **kwargs)
        self.task = task

        paths = [e.temporal_path for e in examples]
        targets = np.array([self._target_of(e, task) for e in examples], dtype=np.float64)
        scaled = self._scale_targets(targets)

        rng = np.random.default_rng(self.seed)
        self._heads = [nn.Linear(self.dim, 1, rng=rng) for _ in range(self._num_heads)]
        params = list(self._encoder.parameters())
        for head in self._heads:
            params += list(head.parameters())
        optimizer = nn.Adam(params, lr=self.lr)

        for indices in minibatches(rng, len(paths), self.batch_size, self.epochs, max_batches):
            batch_targets = nn.Tensor(scaled[indices])
            pooled, outputs, mask = self._encoder([paths[i] for i in indices])
            loss = self._batch_loss(pooled, outputs, mask, batch_targets)
            optimizer.zero_grad()
            loss.backward()
            nn.clip_grad_norm(params, 5.0)
            optimizer.step()
        return self

    @staticmethod
    def _target_of(example, task):
        if task == "travel_time":
            return example.travel_time
        if task == "ranking":
            return example.score
        raise ValueError(f"unsupported task {task!r}")

    # ------------------------------------------------------------------
    def predict(self, temporal_paths, batch_size=64):
        """Direct predictions of the trained task, in target units."""
        if self._encoder is None or self._heads is None:
            raise RuntimeError("model has not been trained with fit_supervised")
        flat = batched_no_grad(lambda chunk: self._output(self._encoder(chunk)[0]),
                               temporal_paths, (0,), batch_size)
        return flat * self._target_scale + self._target_offset
