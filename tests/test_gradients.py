"""BPTT gradients against the central finite-difference oracle."""

import numpy as np
import pytest

from edgenet.lstm_net import backward, forward_batch, init_params

from oracles import finite_difference_gradients, gradient_agreement


def check_net(seed: int, layer_sizes, seq_len: int, dropout: float,
              tied: bool = False, batch: int = 2) -> float:
    rng = np.random.default_rng(seed)
    net = init_params(layer_sizes, seed=seed, dropout_rate=dropout,
                      tied_output_gate=tied)
    x = rng.random((batch, seq_len, layer_sizes[0]))
    y = rng.integers(0, 2, size=batch).astype(np.float64)
    mask_seed = seed + 10_000
    _, cache = forward_batch(net, x, mode="train",
                             rng=np.random.default_rng(mask_seed))
    analytic = backward(net, cache, y).tensors()
    numeric = finite_difference_gradients(net, x, y, mask_seed)
    worst, ok, _ = gradient_agreement(analytic, numeric)
    assert ok, f"worst relative error {worst:.3e} for seed {seed}"
    return worst


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_two_layer_reference_net(seed):
    check_net(seed, (3, 4, 4), seq_len=2, dropout=0.0)


def test_single_layer_longer_sequence():
    check_net(7, (5, 6), seq_len=4, dropout=0.0)


def test_three_layer_stack():
    check_net(11, (4, 5, 5, 5), seq_len=2, dropout=0.0)


@pytest.mark.parametrize("seed", [21, 22])
def test_gradients_through_frozen_dropout_masks(seed):
    check_net(seed, (3, 4, 4), seq_len=2, dropout=0.37)


@pytest.mark.parametrize("seed", [31, 32])
def test_tied_output_gate_gradients(seed):
    check_net(seed, (3, 4, 4), seq_len=2, dropout=0.0, tied=True)


def test_tied_output_gate_leaves_w_o_gradient_zero():
    rng = np.random.default_rng(41)
    net = init_params((3, 4), seed=41, dropout_rate=0.0, tied_output_gate=True)
    x = rng.random((2, 1, 3))
    _, cache = forward_batch(net, x, mode="train")
    grads = backward(net, cache, np.array([1.0, 0.0])).tensors()
    np.testing.assert_array_equal(grads["layer0.w_o"], np.zeros_like(grads["layer0.w_o"]))
    np.testing.assert_array_equal(grads["layer0.b_o"], np.zeros_like(grads["layer0.b_o"]))
