import itertools
import json
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from edgenet import lstm_net
from edgenet.cli import main
from edgenet.errors import CacheMismatch, ConfigError, DimensionMismatch
from edgenet.lstm_net import (EVAL_BLOCK_ROWS, GATES, LstmLayerParams, NetworkParams,
                              _cell_math, backward, bce_loss, forward_batch, init_params,
                              is_weight_name, scores, sigmoid, stack_rows, zeros_params)
from edgenet.model_store import save_dense
from edgenet.quantizer import dequantized_net, quantize_model
from oracles import whole_batch_scores


def zero_layer(h=1, d=1, b=None):
    return LstmLayerParams(w=np.zeros((4 * h, h + d)),
                           b=np.zeros(4 * h) if b is None else np.asarray(b, dtype=float))


def cell(layer, x_t, h_prev, c_prev):
    """One step on single vectors; returns (h, c, gates) with the gate
    blocks split out as f, i, j, o plus tanh(c)."""
    step_in = np.concatenate([np.atleast_2d(h_prev), np.atleast_2d(x_t)], axis=1)
    h, c, gates, tanh_c = _cell_math(layer, step_in, np.atleast_2d(c_prev))
    f, i, j, o = np.split(gates[0], 4)
    return h[0], c[0], {"f": f, "i": i, "j": j, "o": o, "tanh_c": tanh_c[0]}


def prob(net, sequence, mode="eval", rng=None):
    """Probability for a single (T, D) sequence."""
    p, cache = forward_batch(net, np.asarray(sequence)[None, :, :], mode=mode, rng=rng)
    return float(p[0]), cache


def output_h(records, t):
    """h_t of a cached layer's step records: the output gate block, the last
    H columns of either gate layout, times tanh(c_t)."""
    _, _, gates, tanh_c, _ = records[t]
    return gates[:, -tanh_c.shape[1]:] * tanh_c


class TestInit:
    def test_deterministic(self):
        a = init_params((10, 32, 32), seed=5)
        b = init_params((10, 32, 32), seed=5)
        for (n1, t1), (n2, t2) in zip(a.tensors().items(), b.tensors().items()):
            assert n1 == n2
            np.testing.assert_array_equal(t1, t2)

    def test_shapes(self):
        net = init_params((10, 32), seed=0)
        assert net.layers[0].w.shape == (128, 42)
        assert net.layers[0].b.shape == (128,)
        assert net.tensors()["layer0.w_f"].shape == (32, 42)
        assert net.tensors()["layer0.b_o"].shape == (32,)
        assert net.head_w.shape == (32,)
        assert net.head_b.shape == ()

    def test_empirical_std_near_glorot(self):
        net = init_params((10, 32), seed=1)
        target = np.sqrt(2.0 / (42 + 32))
        measured = net.tensors()["layer0.w_f"].std()
        assert abs(measured - target) / target < 0.20

    def test_biases_start_zero(self):
        net = init_params((4, 8, 8), seed=2)
        for name, arr in net.tensors().items():
            if not is_weight_name(name):
                assert np.all(arr == 0.0)

    def test_layer_chaining(self):
        net = init_params((7, 5, 3), seed=0)
        assert net.layers[1].input_size == 5
        assert net.layers[1].hidden_size == 3


class TestCellForward:
    def test_all_zero_params_and_state(self):
        h, c, g = cell(zero_layer(), np.zeros(1), np.zeros(1), np.zeros(1))
        assert g["f"] == pytest.approx(0.5)
        assert g["i"] == pytest.approx(0.5)
        assert g["o"] == pytest.approx(0.5)
        assert g["j"] == pytest.approx(0.0)
        assert c == pytest.approx(0.0) and h == pytest.approx(0.0)

    def test_memory_passthrough_hand_evaluated(self):
        h, c, _ = cell(zero_layer(), np.zeros(1), np.zeros(1), np.ones(1))
        assert c == pytest.approx(0.5)
        assert h == pytest.approx(0.5 * np.tanh(0.5), abs=1e-6)  # ~0.231059

    def test_saturated_forget_gate_preserves_memory(self):
        layer = zero_layer(b=[100.0, 0.0, 0.0, 0.0])  # forget-gate bias
        h, c, _ = cell(layer, np.zeros(1), np.zeros(1), np.array([0.8]))
        assert c == pytest.approx(0.8, abs=1e-10)

    def test_gate_ranges_random(self):
        rng = np.random.default_rng(0)
        net = init_params((6, 9), seed=3)
        for _ in range(100):
            x = rng.normal(size=6) * 5
            hp = rng.normal(size=9)
            cp = rng.normal(size=9)
            _, c, g = cell(net.layers[0], x, hp, cp)
            assert np.all((g["f"] > 0) & (g["f"] < 1))
            assert np.all((g["i"] > 0) & (g["i"] < 1))
            assert np.all((g["o"] > 0) & (g["o"] < 1))
            assert np.all((g["j"] > -1) & (g["j"] < 1))
            assert np.all(np.abs(c) <= np.abs(cp) + 1.0 + 1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):  # 6 rows: not four gate blocks
            LstmLayerParams(w=np.zeros((6, 5)), b=np.zeros(6))
        with pytest.raises(DimensionMismatch):
            LstmLayerParams(w=np.zeros((8, 5)), b=np.zeros(2))
        with pytest.raises(DimensionMismatch):  # H=2 leaves no input columns
            LstmLayerParams(w=np.zeros((8, 2)), b=np.zeros(8))

    def test_gates_match_the_textbook_cell(self):
        rng = np.random.default_rng(1)
        layer = init_params((3, 4), seed=5).layers[0]
        layer.b[...] = rng.normal(size=16)
        x, hp, cp = rng.normal(size=3), rng.normal(size=4), rng.normal(size=4)
        pre = np.concatenate([hp, x]) @ layer.w.T + layer.b
        f, i, j, o = np.split(pre, 4)

        def logistic(v):
            return 1.0 / (1.0 + np.exp(-v))

        h, c, g = cell(layer, x, hp, cp)
        np.testing.assert_allclose(g["f"], logistic(f), rtol=1e-13)
        np.testing.assert_allclose(g["i"], logistic(i), rtol=1e-13)
        np.testing.assert_allclose(g["j"], np.tanh(j), rtol=1e-13)
        np.testing.assert_allclose(g["o"], logistic(o), rtol=1e-13)
        c_ref = logistic(f) * cp + logistic(i) * np.tanh(j)
        np.testing.assert_allclose(c, c_ref, rtol=1e-13)
        np.testing.assert_allclose(h, logistic(o) * np.tanh(c_ref), rtol=1e-13)

    def test_zero_state_step_equals_the_general_step_on_zeros(self):
        rng = np.random.default_rng(2)
        layer = init_params((5, 6), seed=7).layers[0]
        layer.b[...] = rng.normal(size=24)
        x, zeros = rng.normal(size=(3, 5)), np.zeros((3, 6))
        h0, c0, gates0, tanh_c0 = _cell_math(layer, x, None)
        h, c, gates, tanh_c = _cell_math(layer, np.concatenate([zeros, x], axis=1), zeros)
        assert gates0.shape == (3, 18) and gates.shape == (3, 24)
        np.testing.assert_allclose(gates0, gates[:, 6:], rtol=1e-12)  # i, j, o blocks
        np.testing.assert_allclose(c0, c, rtol=1e-12)
        np.testing.assert_allclose(h0, h, rtol=1e-12)
        np.testing.assert_allclose(tanh_c0, tanh_c, rtol=1e-12)

    def test_first_step_caches_no_zero_state(self):
        net = init_params((2, 3), seed=1, dropout_rate=0.0)
        _, cache = forward_batch(net, np.ones((4, 2, 2)), mode="train")
        records = cache.steps[0]
        assert records[0][1] is None and records[1][1] is not None  # c_prev
        assert [r[0].shape for r in records] == [(4, 2), (4, 5)]  # x_0, then [h_0, x_1]
        assert [r[2].shape for r in records] == [(4, 9), (4, 12)]  # gates


class TestForward:
    def test_all_zero_net_is_half(self):
        net = zeros_params((3, 4), dropout_rate=0.0)
        p, _ = prob(net, np.zeros((1, 3)))
        assert p == 0.5

    def test_train_equals_eval_without_dropout(self):
        # bit for bit: eval skips only the cache, not any arithmetic
        for seq_len in (1, 3):
            net = init_params((3, 4, 4), seed=9, dropout_rate=0.0)
            x = np.random.default_rng(seq_len).random((5, seq_len, 3))
            p_eval, _ = forward_batch(net, x, mode="eval")
            p_train, _ = forward_batch(net, x, mode="train")
            np.testing.assert_array_equal(p_eval, p_train)

    def test_eval_mode_bit_identical(self):
        net = init_params((5, 8), seed=11)
        x = np.random.default_rng(2).random((3, 5))
        p1, _ = prob(net, x, mode="eval")
        p2, _ = prob(net, x, mode="eval")
        assert p1 == p2

    def test_inverted_dropout_mean_matches_eval(self):
        # Monte-Carlo oracle: E[mask * h / keep] = h, the undropped output
        # that eval mode feeds the head
        net = init_params((4, 6), seed=21, dropout_rate=0.3)
        x = np.random.default_rng(3).random((1, 4))
        p_eval, _ = prob(net, x, mode="eval")

        reps = 10_000
        xb = np.repeat(x[None, :, :], reps, axis=0)
        _, cache = forward_batch(net, xb, mode="train", rng=np.random.default_rng(77))
        h = output_h(cache.steps[0], 0)
        np.testing.assert_array_equal(h, np.broadcast_to(h[0], h.shape))
        assert float(sigmoid(h[:1] @ net.head_w + net.head_b)[0]) == pytest.approx(
            p_eval, rel=1e-12)
        dropped = h * cache.steps[0][0][4]
        mc_mean = dropped.mean(axis=0)
        mc_sem = dropped.std(axis=0) / np.sqrt(reps)
        np.testing.assert_array_less(np.abs(mc_mean - h[0]), 5 * mc_sem + 1e-12)

    @pytest.mark.parametrize("int8", [False, True], ids=["float", "int8"])
    @pytest.mark.parametrize("seq_len", [1, 6])
    @pytest.mark.parametrize("rows", [0, EVAL_BLOCK_ROWS, 2 * EVAL_BLOCK_ROWS,
                                      2 * EVAL_BLOCK_ROWS + 3, 4 * EVAL_BLOCK_ROWS + 3])
    def test_blocked_eval_equals_whole_batch(self, rows, seq_len, int8):
        # rows are independent, so scoring in blocks changes no bit
        net = init_params((7, 32, 32, 32), seed=1)
        if int8:
            net = dequantized_net(quantize_model(net))
        x = np.random.default_rng(rows + seq_len).random((rows, seq_len, 7))
        p, cache = forward_batch(net, x, mode="eval")
        assert p.shape == (rows,) and cache.head_input is None
        assert p.tobytes() == whole_batch_scores(net, x).tobytes()

    @pytest.mark.parametrize("rows,blocks", [
        (0, [0]), (2 * EVAL_BLOCK_ROWS + 3, [EVAL_BLOCK_ROWS, EVAL_BLOCK_ROWS + 3]),
        (4 * EVAL_BLOCK_ROWS, [EVAL_BLOCK_ROWS] * 4),
        (6 * EVAL_BLOCK_ROWS - 1, [EVAL_BLOCK_ROWS] * 4 + [2 * EVAL_BLOCK_ROWS - 1]),
        (EVAL_BLOCK_ROWS + 3, [EVAL_BLOCK_ROWS + 3]),
    ])
    def test_last_eval_block_takes_the_remainder(self, monkeypatch, rows, blocks):
        # never a block of a few rows, which BLAS sums in another order; one
        # worker, so that the blocks are seen in order on any host
        monkeypatch.setattr(lstm_net, "_cpu_count", lambda: 1)
        seen, run_layers = [], lstm_net._run_layers
        monkeypatch.setattr(lstm_net, "_run_layers",
                            lambda net, x: seen.append(len(x)) or run_layers(net, x))
        forward_batch(init_params((3, 4), seed=0), np.zeros((rows, 2, 3)), mode="eval")
        assert seen == blocks

    @staticmethod
    def eval_forward_peak(monkeypatch, cpus):
        """tracemalloc peak of an (8000, 6, 7) eval forward through 3x32."""
        monkeypatch.setattr(lstm_net, "_cpu_count", lambda: cpus)
        net = init_params((7, 32, 32, 32), seed=1)
        x = np.random.default_rng(2).random((8000, 6, 7))
        tracemalloc.start()
        try:
            forward_batch(net, x, mode="eval")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_eval_forward_peak_memory(self, monkeypatch):
        # The train-mode cache of this batch holds about 240 MB, and scoring
        # it in one pass over all rows peaked at 30.8 MB. In blocks it needs
        # per block in flight that block's layer sequence, h and c plus one
        # step (step_in, gates and the new c and h). Two workers, as on a
        # 2-CPU host: the last block, 256 + 64 rows, and one other 256-row
        # block in flight take about 2.4 MB with the scores.
        assert self.eval_forward_peak(monkeypatch, 2) < 4e6

    def test_eval_forward_peak_memory_at_eight_workers(self, monkeypatch):
        # every worker holds one block in flight, about 0.9 MB here: eight
        # workers took 6.3-7.7 MB, still far under the 30.8 MB of one pass
        # over all rows (31 workers, one per block, took about 28 MB)
        assert self.eval_forward_peak(monkeypatch, 8) < 10e6

    def test_threaded_eval_equals_whole_batch(self, monkeypatch, deadline):
        # more workers than cores, and a thread switch as often as the
        # interpreter allows: every block lands in its place with its bits
        monkeypatch.setattr(lstm_net, "_cpu_count", lambda: 8)
        net = init_params((7, 32, 32, 32), seed=1)
        nets = {"float": net, "int8": dequantized_net(quantize_model(net))}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        deadline(60)
        try:
            for (kind, net), rows, seq_len in itertools.product(
                    nets.items(), (1, 256, 257, 767, 4000), (1, 6)):
                x = np.random.default_rng(rows + seq_len).random((rows, seq_len, 7))
                p, _ = forward_batch(net, x, mode="eval")
                assert p.tobytes() == whole_batch_scores(net, x).tobytes(), (kind, rows, seq_len)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cpus,rows,helpers", [
        (8, 1, 0), (8, 2 * EVAL_BLOCK_ROWS - 1, 0), (8, 2 * EVAL_BLOCK_ROWS, 1),
        (8, 4000, 7), (2, 4000, 1), (1, 4000, 0),
    ])
    def test_eval_helper_threads(self, monkeypatch, cpus, rows, helpers):
        # one helper per CPU beyond the caller's, at most one per block
        # beyond the first: a one-block batch starts no thread
        monkeypatch.setattr(lstm_net, "_cpu_count", lambda: cpus)
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        forward_batch(init_params((3, 4), seed=0), np.zeros((rows, 2, 3)), mode="eval")
        assert len(started) == helpers
        assert not any(thread.is_alive() for thread in started)

    def test_threaded_eval_keeps_the_callers_error_state(self, monkeypatch):
        # numpy's error state is per context, and a new thread starts from
        # the default one: each block must run under the caller's
        monkeypatch.setattr(lstm_net, "_cpu_count", lambda: 2)
        net = init_params((7, 32), seed=1)
        net.layers[0].w[...] = net.layers[0].b[...] = 1e308
        x = np.full((600, 1, 7), 0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with np.errstate(over="ignore"):
                p, _ = forward_batch(net, x, mode="eval")
        assert p.shape == (600,)

    def test_error_in_a_worker_is_raised_after_every_helper_returns(self, monkeypatch):
        # the same overflow with numpy's default error state: each block
        # warns, which is an error here, and the caller raises it
        monkeypatch.setattr(lstm_net, "_cpu_count", lambda: 2)
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        net = init_params((7, 32), seed=1)
        net.layers[0].w[...] = net.layers[0].b[...] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="overflow"):
                forward_batch(net, np.full((600, 1, 7), 0.3), mode="eval")
        assert len(started) == 1
        assert not any(thread.is_alive() for thread in started)

    def test_interrupt_in_the_caller_stops_the_helpers(self, monkeypatch, deadline):
        # Ctrl-C (or a deadline) in the calling thread: the helper takes no
        # block after it, and the interrupt is raised once the helper returns
        monkeypatch.setattr(lstm_net, "_cpu_count", lambda: 2)
        caller, joined, taken = threading.current_thread(), threading.Event(), []

        def score_block(net, block):
            taken.append(threading.current_thread())
            if threading.current_thread() is caller:
                raise KeyboardInterrupt
            joined.wait(10)  # the helper's block ends once the caller joins it
            return np.zeros(len(block))

        join = threading.Thread.join
        monkeypatch.setattr(threading.Thread, "join", lambda thread: joined.set() or join(thread))
        monkeypatch.setattr(lstm_net, "_score_block", score_block)
        deadline(30)
        with pytest.raises(KeyboardInterrupt):
            forward_batch(init_params((3, 4), seed=0),
                          np.zeros((16 * EVAL_BLOCK_ROWS, 2, 3)), mode="eval")
        assert taken.count(caller) == 1 and len(taken) <= 2

    def test_train_mode_without_rng_rejected(self):
        net = init_params((3, 4), seed=0, dropout_rate=0.1)
        with pytest.raises(ConfigError):
            prob(net, np.zeros((1, 3)), mode="train")

    def test_wrong_feature_count(self):
        net = init_params((3, 4), seed=0)
        with pytest.raises(DimensionMismatch):
            prob(net, np.zeros((1, 5)), mode="eval")


class TestBce:
    def test_half_probability(self):
        assert bce_loss(0.5, 1) == pytest.approx(np.log(2.0), abs=1e-9)

    def test_clamped_perfect_prediction(self):
        assert bce_loss(1.0, 1) == pytest.approx(1e-7, rel=1e-3)

    def test_confident_mistake(self):
        assert bce_loss(0.9, 0) == pytest.approx(-np.log(0.1), abs=1e-9)

    def test_vectorized(self):
        out = bce_loss(np.array([0.5, 0.9]), np.array([1.0, 0.0]))
        assert out.shape == (2,)


class TestBackward:
    def test_head_bias_gradient_is_p_minus_y(self):
        net = init_params((3, 4, 4), seed=13, dropout_rate=0.0)
        x = np.random.default_rng(4).random((1, 2, 3))
        p, cache = forward_batch(net, x, mode="train")
        grads = backward(net, cache, np.array([1.0])).tensors()
        assert grads["head.b"] == pytest.approx(p[0] - 1.0, abs=1e-12)

    def test_zero_head_kills_all_layer_gradients(self):
        net = init_params((3, 4), seed=13, dropout_rate=0.0)
        net.head_w[:] = 0.0
        x = np.random.default_rng(5).random((1, 1, 3))
        _, cache = forward_batch(net, x, mode="train")
        grads = backward(net, cache, np.array([0.0])).tensors()
        for name, g in grads.items():
            if name.startswith("layer"):
                np.testing.assert_array_equal(g, np.zeros_like(g))
        assert grads["head.b"] != 0.0

    def test_gradients_are_shaped_like_the_network(self):
        net = init_params((3, 4, 4), seed=13, dropout_rate=0.3)
        _, cache = forward_batch(net, np.ones((2, 1, 3)), mode="train",
                                 rng=np.random.default_rng(0))
        grads = backward(net, cache, np.array([1.0, 0.0]))
        assert isinstance(grads, NetworkParams) and grads.dropout_rate == 0.3
        assert grads.layer_sizes == net.layer_sizes

    def test_eval_cache_rejected(self):
        # eval mode records no step cache at all
        net = init_params((3, 4, 4), seed=0, dropout_rate=0.0)
        p, cache = forward_batch(net, np.zeros((2, 3, 3)), mode="eval")
        assert cache.steps == [] and cache.p is p
        with pytest.raises(CacheMismatch):
            backward(net, cache, np.array([1.0, 0.0]))

    def test_architecture_mismatch_rejected(self):
        net = init_params((3, 4), seed=0, dropout_rate=0.0)
        other = init_params((3, 4, 4), seed=0, dropout_rate=0.0)
        _, cache = forward_batch(net, np.zeros((1, 1, 3)), mode="train")
        with pytest.raises(CacheMismatch):
            backward(other, cache, np.array([1.0]))


def predict_label(tmp_path, capsys, net, features, threshold):
    """Label printed by the `predict` command for a saved float model."""
    path = str(tmp_path / "m.eidm")
    save_dense(net, path)
    argv = ["predict", path, "--features", ",".join(map(repr, features)),
            "--threshold", repr(threshold)]
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)["label"]


class TestPredict:
    def test_above_threshold(self, tmp_path, capsys):
        net = zeros_params((2, 3), dropout_rate=0.0)
        net.head_b[...] = np.log(0.7 / 0.3)  # p = 0.7
        assert predict_label(tmp_path, capsys, net, [0.0, 0.0], 0.5) == 1

    def test_tie_goes_positive(self, tmp_path, capsys):
        net = zeros_params((2, 3), dropout_rate=0.0)  # p = 0.5 exactly
        assert scores(net, np.zeros((1, 2)))[0] == 0.5
        assert predict_label(tmp_path, capsys, net, [0.0, 0.0], 0.5) == 1

    def test_low_threshold(self, tmp_path, capsys):
        net = zeros_params((2, 3), dropout_rate=0.0)
        net.head_b[...] = np.log(0.2 / 0.8)  # p = 0.2
        assert predict_label(tmp_path, capsys, net, [0.0, 0.0], 0.1) == 1
        assert predict_label(tmp_path, capsys, net, [0.0, 0.0], 0.5) == 0

    def test_scores_matrix_input(self):
        net = init_params((3, 4), seed=2, dropout_rate=0.0)
        x = np.random.default_rng(0).random((5, 3))
        p = scores(net, x)
        assert p.shape == (5,)
        assert np.all((p > 0) & (p < 1))


class TestParamsTree:
    def test_roundtrip(self):
        net = init_params((3, 4, 5), seed=8)
        rebuilt = net.with_tensors(net.tensors())
        for (n1, a), (n2, b) in zip(net.tensors().items(), rebuilt.tensors().items()):
            assert n1 == n2
            np.testing.assert_array_equal(a, b)

    def test_weight_names(self):
        net = init_params((3, 4), seed=0)
        names = net.weight_names()
        assert "layer0.w_f" in names and "head.w" in names
        assert not any(n.endswith(".b_f") or n == "head.b" for n in names)

    def test_tensors_are_views_into_the_stacked_gates(self):
        net = init_params((3, 4, 2), seed=4)
        tree = net.tensors()
        assert list(tree)[:8] == [f"layer0.{k}_{g}" for k in "wb" for g in "fijo"]
        assert list(tree)[-2:] == ["head.w", "head.b"]
        np.testing.assert_array_equal(tree["layer1.w_j"], net.layers[1].w[4:6])
        tree["layer1.w_j"][...] = 7.0
        tree["layer0.b_o"][...] = -1.0
        tree["head.b"][...] = 0.25
        assert np.all(net.layers[1].w[4:6] == 7.0)
        assert np.all(net.layers[0].b[12:] == -1.0)
        assert net.head_b == 0.25

    def test_rows_hold_one_gate_tensor_each_in_tensors_order(self):
        net = init_params((3, 4, 2), seed=6)
        rows, tree = net.rows(), net.tensors()
        assert list(rows) == ["layer0.w", "layer0.b", "layer1.w", "layer1.b",
                              "head.w", "head.b"]
        assert [r.shape for r in rows.values()] == [(4, 28), (4, 4), (4, 12), (4, 2),
                                                    (1, 2), (1, 1)]
        for k, gate in enumerate(GATES):
            np.testing.assert_array_equal(rows["layer1.w"][k], tree[f"layer1.w_{gate}"].ravel())
        assert (np.concatenate([r.ravel() for r in rows.values()]).tobytes()
                == np.concatenate([t.ravel() for t in tree.values()]).tobytes())
        assert [is_weight_name(k) for k in rows] == [True, False] * 3

    def test_rows_are_views(self):
        net = init_params((3, 4), seed=6)
        rows = net.rows()
        rows["layer0.w"][1, 0] = 7.0
        rows["head.b"][0, 0] = 0.25
        assert net.tensors()["layer0.w_i"][0, 0] == 7.0
        assert net.head_b == 0.25

    def test_stack_rows_regroups_gate_tensors(self):
        net = init_params((3, 4, 2), seed=6)
        stacked = stack_rows(net.tensors())
        assert list(stacked) == list(net.rows())
        for name, row in net.rows().items():
            np.testing.assert_array_equal(stacked[name], row)

    def test_with_tensors_copies(self):
        net = init_params((3, 4), seed=1)
        snap = net.copy()
        net.tensors()["layer0.w_f"][...] = 0.0
        assert np.all(snap.tensors()["layer0.w_f"] != 0.0)

    def test_with_tensors_rejects_a_misshapen_gate(self):
        net = init_params((3, 4), seed=1)
        tree = net.tensors()
        tree["layer0.w_i"] = np.zeros((4, 6))
        with pytest.raises(DimensionMismatch):
            net.with_tensors(tree)
