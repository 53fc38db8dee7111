"""BPTT gradients against the central finite-difference oracle."""

import numpy as np
import pytest

from edgenet.config import Phase, Phases, RunConfig
from edgenet.data_pipeline import DatasetSplit
from edgenet.dsd_trainer import PHASE_DENSE, TrainRun, _run_phase
from edgenet.lstm_net import backward, forward_batch, init_params
from edgenet.optimizer import l2_term

from oracles import finite_difference_gradients, gradient_agreement


def check_net(seed: int, layer_sizes, seq_len: int, dropout: float,
              batch: int = 2) -> float:
    rng = np.random.default_rng(seed)
    net = init_params(layer_sizes, seed=seed, dropout_rate=dropout)
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


@pytest.mark.parametrize("dropout", [0.0, 0.37])
def test_zero_state_step_alone_at_seq_len_1(dropout):
    check_net(61, (3, 4, 4), seq_len=1, dropout=dropout, batch=3)


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


def test_seq_len_1_moves_forget_gate_and_recurrent_columns_by_l2_alone():
    rng = np.random.default_rng(43)
    net = init_params((3, 4, 4), seed=43, dropout_rate=0.2)
    x = rng.random((5, 3))
    y = rng.integers(0, 2, size=5)
    _, cache = forward_batch(net, x[:, None, :], mode="train", rng=np.random.default_rng(1))
    grads = backward(net, cache, y)
    for g, layer in zip(grads.layers, net.layers):
        h = layer.hidden_size
        assert not np.any(g.w[:h]) and not np.any(g.b[:h]) and not np.any(g.w[:, :h])
        assert np.all(g.w[h:, h:].any(axis=1))

    # One dense step (one epoch of one batch, no clipping) is plain SGD on the
    # L2 gradient alone there; biases get no L2, so b_f stays put.
    before = net.copy()
    cfg = RunConfig(phases=Phases(dense=Phase(learning_rate=0.05, epochs=1, batch_size=64)),
                    grad_clip_norm=None)
    run = TrainRun(cfg=cfg, val=None, dropout_rng=np.random.default_rng(2),
                   shuffle_rng=np.random.default_rng(3))
    _run_phase(net, DatasetSplit(features=x, labels=y), run, PHASE_DENSE)
    for old, new in zip(before.layers, net.layers):
        h = new.hidden_size
        for rows, cols in ((slice(0, h), slice(None)), (slice(None), slice(0, h))):
            w0 = old.w[rows, cols]
            assert np.all(new.w[rows, cols] != w0)
            np.testing.assert_array_equal(
                new.w[rows, cols], w0 - 0.05 * l2_term(w0, cfg.pruning.mu)[1])
        np.testing.assert_array_equal(new.b[:h], old.b[:h])
