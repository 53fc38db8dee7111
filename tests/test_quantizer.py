import contextlib
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgenet.cli import main
from edgenet.errors import ConfigError, EmptyTensor
from edgenet.lstm_net import init_params, scores, zeros_params
from edgenet.model_store import save_dense, save_quantized
from edgenet.pruning import apply_masks, compute_masks
from edgenet.quantizer import (Q_MAX, Q_MIN, QuantParams, dequantize, dequantized_net,
                               quant_params, quantize, quantize_model, quantized_scores)


def qp_of(f_min: float, f_max: float) -> QuantParams:
    """The parameters calibrated on a tensor whose range is [f_min, f_max]."""
    return quant_params(np.array([f_min, f_max]))


class TestCalibrate:
    """The range is widened to include 0 and its ends map onto -128 and 127."""

    def test_spanning_zero(self):
        qp = quant_params(np.array([-0.5, 0.25, 0.75]))
        assert qp.scale == 1.25 / 255
        assert qp.zero_point == round(-128 + 0.5 / qp.scale)  # -26

    def test_all_positive_widens_to_zero(self):
        qp = quant_params(np.array([0.2, 0.9]))
        assert (qp.scale, qp.zero_point) == (0.9 / 255, -128)

    def test_all_negative_widens_to_zero(self):
        qp = quant_params(np.array([-0.2, -0.9]))
        assert (qp.scale, qp.zero_point) == (0.9 / 255, 127)

    def test_constant_zero_tensor(self):
        qp = quant_params(np.zeros(3))
        assert (qp.scale, qp.zero_point) == (1.0, 0)

    def test_empty(self):
        with pytest.raises(EmptyTensor):
            quant_params(np.array([]))


class TestQuantParams:
    def test_symmetric_unit_range(self):
        qp = qp_of(-1.0, 1.0)
        assert qp.scale == pytest.approx(2.0 / 255.0)
        assert qp.zero_point == 0  # round-half-even of -0.5

    def test_unit_interval(self):
        qp = qp_of(0.0, 1.0)
        assert qp.scale == pytest.approx(1.0 / 255.0)
        assert qp.zero_point == -128

    def test_degenerate_range(self):
        qp = qp_of(-0.0, 0.0)  # widened, only an all-zero range is degenerate
        assert qp.scale == 1.0 and qp.zero_point == 0

    def test_scale_that_is_zero_in_float32_maps_like_an_empty_range(self, tmp_path):
        """The container stores S as float32; a range so narrow that S
        rounds to 0 there takes S=1, Z=0, so the saved model loads."""
        qp = qp_of(-0.5e-44, 1e-44)
        assert (qp.scale, qp.zero_point) == (1.0, 0)
        assert qp_of(0.0, 255 * 1.5e-45).scale == 1.5e-45  # float32 > 0

        net = init_params((3, 4), seed=0)
        net.head_w[...] = 1e-44 * np.array([1.0, -0.5, 0.25, 0.0])
        dense, int8 = str(tmp_path / "f.eidm"), str(tmp_path / "q.eidm")
        save_dense(net, dense)
        assert main(["quantize", dense, int8]) == 0
        assert main(["predict", int8, "--features", "0.1,0.2,0.3"]) == 0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.integers(-320, 37),
           st.sampled_from(["mixed", "positive", "negative"]))
    def test_zero_point_in_range_and_round_trip_within_scale(self, a, b, exp, sign):
        """Z lands in [-128, 127] with no clip, and every value comes back
        within S, for one-signed, tiny and huge (up to float32) tensors alike."""
        t = np.array([a, b, 0.5 * (a + b)]) * 10.0 ** exp
        if sign != "mixed":
            t = np.abs(t) if sign == "positive" else -np.abs(t)
        qp = quant_params(t)
        assert Q_MIN <= qp.zero_point <= Q_MAX
        assert np.all(np.abs(dequantize(quantize(t, qp)) - t) <= qp.scale)


class TestQuantizeDequantize:
    def test_zero_maps_to_zero_point(self):
        qp = qp_of(-1.0, 1.0)
        qt = quantize(np.array([0.0]), qp)
        assert qt.values[0] == qp.zero_point
        assert dequantize(qt)[0] == 0.0

    def test_range_top_clamps(self):
        qp = qp_of(-1.0, 1.0)
        # 1.0 / (2/255) = 127.5 rounds half-even to 128, then clamps to 127
        assert quantize(np.array([1.0]), qp).values[0] == 127

    def test_exact_integer_zero_point_hits_q_min(self):
        qp = qp_of(0.0, 1.0)  # Z = -128 exactly
        assert quantize(np.array([0.0]), qp).values[0] == -128

    def test_dequantize_hand_value(self):
        qp = qp_of(-1.0, 1.0)
        qt = quantize(np.array([1.0]), qp)
        assert dequantize(qt)[0] == pytest.approx(254.0 / 255.0)

    def test_round_trip_grid_half_scale_bound(self):
        # integer-exact zero point: error bounded by S/2
        qp = qp_of(0.0, 1.0)
        r = np.linspace(0.0, 1.0, 10_000)
        back = dequantize(quantize(r, qp))
        assert np.max(np.abs(back - r)) <= qp.scale / 2 + 1e-15

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-100, 100), st.floats(1e-6, 100))
    def test_round_trip_bound_general(self, lo, width):
        f_min, f_max = min(lo, 0.0), max(lo + width, 0.0)
        qp = qp_of(lo, lo + width)
        r = np.linspace(f_min, f_max, 257)
        back = dequantize(quantize(r, qp))
        assert np.max(np.abs(back - r)) <= qp.scale + 1e-12

    def test_monotonicity(self):
        qp = qp_of(-3.0, 2.0)
        r = np.sort(np.random.default_rng(0).uniform(-4, 3, size=1000))
        q = quantize(r, qp).values
        assert np.all(np.diff(q.astype(int)) >= 0)

    def test_idempotent_at_8_bit(self):
        qp = qp_of(-1.0, 1.0)
        r = np.random.default_rng(1).uniform(-1, 1, size=500)
        q1 = quantize(r, qp)
        q2 = quantize(dequantize(q1), qp)
        np.testing.assert_array_equal(q1.values, q2.values)


class TestQuantizeModel:
    def test_all_zero_model_round_trips_exactly(self):
        net = zeros_params((3, 4), dropout_rate=0.0)
        qm = quantize_model(net)
        for qt in qm.weights.values():
            assert np.all(qt.values == qt.params.zero_point)
        back = dequantized_net(qm)
        for arr in back.tensors().values():
            np.testing.assert_array_equal(arr, np.zeros_like(arr))
        assert quantized_scores(qm, np.zeros((1, 3)))[0] == 0.5

    def test_biases_stay_float(self):
        net = init_params((3, 4), seed=0)
        net.tensors()["layer0.b_f"][...] = 0.123456789
        qm = quantize_model(net)
        assert qm.biases["layer0.b_f"].dtype == np.float32
        assert qm.biases["layer0.b_f"][0] == np.float32(0.123456789)

    def test_pruned_zeros_survive_round_trip(self):
        net = init_params((4, 8, 8), seed=5)
        tree = net.tensors()
        weights = {n: tree[n] for n in net.weight_names()}
        mask = compute_masks(weights, 0.8)
        net = net.with_tensors(apply_masks(tree, mask))
        qm = quantize_model(net, mask=mask)
        back = dequantized_net(qm)
        for name, m in mask.masks.items():
            vals = back.tensors()[name]
            assert np.all(vals[~m.astype(bool)] == 0.0)

    def test_quantized_close_to_float_on_random_nets(self):
        rng = np.random.default_rng(123)
        worst = 0.0
        for i in range(1000):
            net = init_params((4, 5), seed=i, dropout_rate=0.0)
            x = rng.random((1, 4))
            p_float = scores(net, x[None, 0:1, :].reshape(1, 1, 4))[0]
            p_quant = quantized_scores(quantize_model(net), x)[0]
            worst = max(worst, abs(p_quant - p_float))
        assert worst <= 0.05

    def test_quantized_scores_batch(self):
        net = init_params((3, 4), seed=2, dropout_rate=0.0)
        x = np.random.default_rng(0).random((6, 3))
        qm = quantize_model(net)
        p = quantized_scores(qm, x)
        assert p.shape == (6,)

    def test_quant_params_validation(self):
        with pytest.raises(ConfigError):
            QuantParams(scale=0.0, zero_point=0)


class TestRequantize:
    """`quantize` of an int8 container goes through calibration like any
    other input; on a container this quantizer wrote that is the identity."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.integers(1, 5), min_size=2, max_size=4), st.integers(0, 2**16),
           st.integers(-6, 3), st.sampled_from([0.0, 0.5, 0.8, 0.95]), st.booleans())
    def test_requantizing_a_saved_container_reproduces_its_bytes(
            self, sizes, seed, exp, sparsity, one_signed_head):
        net = init_params(sizes, seed=seed, dropout_rate=0.0)
        tree = {name: arr * 10.0 ** exp for name, arr in net.tensors().items()}
        if one_signed_head:
            tree["head.w"] = np.abs(tree["head.w"])
        mask = None
        if sparsity:
            mask = compute_masks({n: tree[n] for n in net.weight_names()}, sparsity)
            tree = apply_masks(tree, mask)
        with tempfile.TemporaryDirectory() as tmp:
            first, again = os.path.join(tmp, "q.eidm"), os.path.join(tmp, "q2.eidm")
            save_quantized(quantize_model(net.with_tensors(tree), mask=mask), first)
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["quantize", first, again]) == 0
            with open(first, "rb") as a, open(again, "rb") as b:
                assert a.read() == b.read()
