"""Tests for the LSTM recurrent layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn


class TestLSTMCell:
    def test_step_shapes(self):
        cell = nn.LSTMCell(5, 7, rng=np.random.default_rng(0))
        h, c = cell.initial_state(batch_size=3)
        h_new, c_new = cell(nn.Tensor(np.ones((3, 5))), (h, c))
        assert h_new.shape == (3, 7)
        assert c_new.shape == (3, 7)

    def test_state_changes_with_input(self, rng):
        cell = nn.LSTMCell(4, 4, rng=np.random.default_rng(0))
        state = cell.initial_state(2)
        h1, _ = cell(nn.Tensor(rng.normal(size=(2, 4))), state)
        h2, _ = cell(nn.Tensor(rng.normal(size=(2, 4))), state)
        assert not np.allclose(h1.data, h2.data)


class TestLSTM:
    def test_output_shapes(self, rng):
        lstm = nn.LSTM(input_size=6, hidden_size=8, num_layers=2, rng=np.random.default_rng(0))
        x = nn.Tensor(rng.normal(size=(3, 5, 6)))
        outputs, final = lstm(x)
        assert outputs.shape == (3, 5, 8)
        assert final.shape == (3, 8)

    def test_mask_freezes_state_on_padding(self, rng):
        lstm = nn.LSTM(input_size=3, hidden_size=4, rng=np.random.default_rng(0))
        x = rng.normal(size=(1, 4, 3))
        mask = np.array([[1.0, 1.0, 0.0, 0.0]])
        outputs, _ = lstm(nn.Tensor(x), mask=mask)
        # Hidden state on padded steps equals the last valid hidden state.
        np.testing.assert_allclose(outputs.data[0, 2], outputs.data[0, 1])
        np.testing.assert_allclose(outputs.data[0, 3], outputs.data[0, 1])

    def test_variable_length_equivalence(self, rng):
        """A short sequence padded inside a batch gives the same final state
        as running it alone."""
        lstm = nn.LSTM(input_size=3, hidden_size=5, rng=np.random.default_rng(0))
        short = rng.normal(size=(1, 2, 3))
        padded = np.concatenate([short, np.zeros((1, 2, 3))], axis=1)
        mask = np.array([[1.0, 1.0, 0.0, 0.0]])

        alone_outputs, alone_final = lstm(nn.Tensor(short))
        padded_outputs, padded_final = lstm(nn.Tensor(padded), mask=mask)
        np.testing.assert_allclose(alone_final.data, padded_final.data, atol=1e-10)

    def test_gradients_reach_parameters(self, rng):
        lstm = nn.LSTM(input_size=2, hidden_size=3, rng=np.random.default_rng(0))
        x = nn.Tensor(rng.normal(size=(2, 4, 2)))
        outputs, final = lstm(x)
        final.sum().backward()
        grads = [p.grad for p in lstm.parameters()]
        assert all(g is not None for g in grads)
        assert any(np.abs(g).sum() > 0 for g in grads)

    def test_rejects_zero_layers(self):
        with pytest.raises(ValueError):
            nn.LSTM(4, 4, num_layers=0)

