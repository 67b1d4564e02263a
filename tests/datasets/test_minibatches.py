"""Contract of the shared minibatch loop used by every minibatch trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.temporal_paths import minibatches


def _reference_permutations(seed, count, epochs):
    rng = np.random.default_rng(seed)
    return [rng.permutation(count) for _ in range(epochs)], rng


@pytest.mark.parametrize("count, batch_size, epochs, max_batches", [
    (10, 4, 2, None),    # chunks 4, 4, 2: a tail of 2 is kept
    (9, 4, 3, None),     # tail of 1 is dropped
    (17, 4, 2, 2),       # capped at 2 batches per epoch
    (1, 4, 2, None),     # nothing to yield
    (0, 4, 1, None),
    (12, 4, 2, 0),
])
def test_batches_are_chunks_of_each_epochs_permutation(count, batch_size, epochs, max_batches):
    orders, reference = _reference_permutations(3, count, epochs)
    expected = []
    for order in orders:
        chunks = [order[s:s + batch_size] for s in range(0, count, batch_size)]
        chunks = [chunk for chunk in chunks if len(chunk) >= 2]
        expected.extend(chunks if max_batches is None else chunks[:max_batches])

    rng = np.random.default_rng(3)
    batches = list(minibatches(rng, count, batch_size, epochs, max_batches))

    assert len(batches) == len(expected)
    for batch, chunk in zip(batches, expected):
        np.testing.assert_array_equal(batch, chunk)
    # The generator draws exactly `epochs` permutations and nothing else.
    assert rng.bit_generator.state == reference.bit_generator.state


def test_caller_draws_interleave_with_epoch_permutations():
    """Lazy generation: epoch 2's permutation is drawn after epoch 1's body."""
    rng = np.random.default_rng(5)
    seen = []
    for indices in minibatches(rng, 6, 3, 2):
        seen.append((indices.copy(), rng.random()))

    reference = np.random.default_rng(5)
    expected = []
    for _ in range(2):
        order = reference.permutation(6)
        for start in (0, 3):
            expected.append((order[start:start + 3], reference.random()))
    for (batch, draw), (chunk, reference_draw) in zip(seen, expected, strict=True):
        np.testing.assert_array_equal(batch, chunk)
        assert draw == reference_draw


def test_without_rng_batches_keep_item_order():
    batches = list(minibatches(None, 7, 3, 2, max_batches=2))
    expected = [[0, 1, 2], [3, 4, 5]] * 2
    assert [batch.tolist() for batch in batches] == expected
