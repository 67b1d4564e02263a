"""Training loops for the WSC (basic) framework.

:class:`WSCTrainer` trains one :class:`~repro.core.model.WSCModel` with the
combined global/local weakly-supervised contrastive loss over minibatches of
temporal paths.  It is reused by the curriculum stage (to train experts and
to run the staged curriculum) and by the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..datasets.temporal_paths import minibatches
from .losses import combined_wsc_loss
from .sampling import augment_with_positive_views, build_contrast_sets, sample_edge_sets

__all__ = ["TrainingHistory", "WSCTrainer"]


@dataclass
class TrainingHistory:
    """Per-epoch average loss values recorded during training."""

    epoch_losses: list = field(default_factory=list)

    def record(self, value):
        self.epoch_losses.append(float(value))

    @property
    def final_loss(self):
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")


class WSCTrainer:
    """Minibatch trainer for the weakly-supervised contrastive objective.

    Parameters
    ----------
    model:
        The :class:`~repro.core.model.WSCModel` to train.
    config:
        Hyper-parameters (λ, temperature, batch size, learning rate, ...).
        Defaults to the model's own config.
    """

    def __init__(self, model, config=None, seed=None):
        self.model = model
        self.config = config or model.config
        self.rng = np.random.default_rng(self.config.seed if seed is None else seed)
        self.optimizer = nn.Adam(model.parameters(), lr=self.config.learning_rate)
        self.history = TrainingHistory()

    # ------------------------------------------------------------------
    def train_step(self, batch, weak_labeler):
        """One optimisation step on a minibatch of ``(TemporalPath, label)``.

        Returns the scalar loss value of the step.
        """
        augmented = augment_with_positive_views(batch, weak_labeler, self.rng)
        temporal_paths = [tp for tp, _ in augmented]
        contrast_sets = build_contrast_sets(augmented)

        self.model.train()
        encoded = self.model(temporal_paths)
        edge_sets = sample_edge_sets(
            augmented, contrast_sets, encoded.mask, self.rng,
            edges_per_path=self.config.local_edges_per_path,
        )
        loss = combined_wsc_loss(
            encoded.tprs,
            encoded.edge_representations,
            contrast_sets,
            edge_sets,
            lambda_balance=self.config.lambda_balance,
            temperature=self.config.temperature,
        )
        if not loss.requires_grad:
            return float(loss.data)

        self.optimizer.zero_grad()
        loss.backward()
        nn.clip_grad_norm(self.model.parameters(), self.config.grad_clip)
        self.optimizer.step()
        return float(loss.data)

    # ------------------------------------------------------------------
    def train_epoch(self, dataset, batches=None):
        """One pass over a :class:`~repro.datasets.temporal_paths.TemporalPathDataset`.

        ``batches`` optionally limits the number of minibatches (useful for
        smoke tests and benchmarks).  Returns the mean step loss.
        """
        losses = []
        for index, batch in enumerate(
            dataset.minibatches(self.config.batch_size, rng=self.rng)
        ):
            if batches is not None and index >= batches:
                break
            losses.append(self.train_step(batch, dataset.weak_labeler))
        mean_loss = float(np.mean(losses)) if losses else float("nan")
        self.history.record(mean_loss)
        return mean_loss

    def fit(self, dataset, epochs=None, batches_per_epoch=None):
        """Train for ``epochs`` passes (default: the config's epoch count)."""
        epochs = self.config.epochs if epochs is None else epochs
        for _ in range(epochs):
            self.train_epoch(dataset, batches=batches_per_epoch)
        return self.history

    def fit_on_samples(self, samples, weak_labeler, epochs=1, batches_per_epoch=None):
        """Train on a plain list of ``(TemporalPath, label)`` pairs.

        Used by the curriculum stages, which operate on explicit sample lists
        rather than dataset objects.
        """
        samples = list(samples)
        losses = []
        for _ in range(epochs):
            for indices in minibatches(self.rng, len(samples), self.config.batch_size, 1,
                                       batches_per_epoch):
                losses.append(self.train_step([samples[i] for i in indices], weak_labeler))
            if losses:
                self.history.record(float(np.mean(losses)))
        return self.history
