import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgenet.config import Pruning
from edgenet.errors import ConfigError, DimensionMismatch, EmptyTensor
from edgenet.lstm_net import init_params
from edgenet.pruning import (apply_mask, compute_mask, compute_masks,
                             schedule_a, schedule_sparsity, select_swd_subset,
                             total_weight_decay)

from oracles import lowest_quantile_subset

W_EXAMPLE = np.array([0.5, -0.1, 0.3, -0.7, 0.05])


class TestMask:
    def test_example_mask(self):
        np.testing.assert_array_equal(compute_mask(W_EXAMPLE, 0.4), [1, 0, 1, 1, 0])

    def test_zero_sparsity_all_ones(self):
        np.testing.assert_array_equal(compute_mask(W_EXAMPLE, 0.0), np.ones(5))

    def test_tie_demotion_keeps_lowest_indices(self):
        np.testing.assert_array_equal(compute_mask(np.ones(4), 0.5), [1, 1, 0, 0])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.99), st.integers(1, 400))
    def test_survivor_count_exact(self, seed, sparsity, n):
        w = np.random.default_rng(seed).normal(size=n)
        mask = compute_mask(w, sparsity)
        expected = max(int(np.ceil(n * (1.0 - sparsity))), 1)
        assert int(mask.sum()) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_pruned_never_outweighs_survivor(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=64)
        mask = compute_mask(w, float(rng.uniform(0, 0.95))).astype(bool)
        if mask.all() or not mask.any():
            return
        assert np.abs(w[~mask]).max() <= np.abs(w[mask]).min() + 1e-15

    def test_empty_tensor(self):
        with pytest.raises(EmptyTensor):
            compute_mask(np.array([]), 0.5)

    def test_signed_zeros_tie_in_flat_order(self):
        w = np.array([-0.0, 0.5, 0.0, -0.0])
        np.testing.assert_array_equal(compute_mask(w, 0.5), [1, 1, 0, 0])

    def test_2d_masks_use_flat_order(self):
        w = np.array([[1.0, 1.0], [1.0, 1.0]])
        np.testing.assert_array_equal(compute_mask(w, 0.5), [[1, 1], [0, 0]])

    def test_compute_masks_tree(self):
        sm = compute_masks({"a": W_EXAMPLE, "b": np.ones(4)}, 0.5)
        # ceil keeps 3 of 5 and 2 of 4, so 4 of the 9 entries are pruned
        assert sm.zero_fraction() == pytest.approx(4 / 9)
        assert set(sm.masks) == {"a", "b"}


class TestApplyMask:
    def test_zeroes_and_keeps(self):
        np.testing.assert_array_equal(apply_mask(np.array([0.5, 0.2]), np.array([1, 0])),
                                      [0.5, 0.0])

    def test_identity_mask(self):
        w = np.array([1.5, -2.0])
        np.testing.assert_array_equal(apply_mask(w, np.ones(2)), w)

    def test_idempotent(self):
        w = np.array([0.4, -0.3, 0.0, 2.0])
        m = np.array([1, 0, 1, 0])
        once = apply_mask(w, m)
        np.testing.assert_array_equal(apply_mask(once, m), once)

    def test_masked_negatives_become_positive_zero(self):
        out = apply_mask(np.array([-0.7]), np.array([0]))
        assert np.signbit(out[0]) == False  # noqa: E712  (bitwise +0.0, not -0.0)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_mask(np.ones(3), np.ones(4))


class TestSwdSubset:
    def test_quantile_oracle_on_survivors(self):
        w = np.array([[0.9, 0.0, 0.6, 0.3, 0.0, 0.2]])  # two pruned entries at +0.0
        sel = select_swd_subset(w, a=0.1, t=0.5)
        np.testing.assert_array_equal(sorted(w[sel]), [0.2, 0.3])

    def test_large_a_empties_subset(self):
        sel = select_swd_subset(np.array([[0.3, 0.2]]), a=1.0, t=0.5)
        assert not sel.any()

    def test_full_quantile_takes_all_survivors(self):
        w = np.array([[0.9, -0.6, 0.3, 0.2]])
        sel = select_swd_subset(w, a=0.0, t=1.0)
        assert sel.all()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 1.0), st.floats(0.0, 0.5))
    def test_subset_properties(self, seed, t, a):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=40)
        mask = compute_mask(w, float(rng.uniform(0, 0.8)))
        w = np.where(mask.astype(bool), w, 0.0)  # pruned, as training leaves them
        sel = select_swd_subset(w[None], a=a, t=t)[0]
        survivors = mask.astype(bool)
        # subset of the above-a survivors
        assert np.all(~sel | survivors)
        assert np.all(np.abs(w[sel]) > a)
        m = int((survivors & (np.abs(w) > a)).sum())
        assert sel.sum() <= np.ceil(t * m)
        # agrees with the brute-force lowest-quantile oracle on the candidates
        cand = np.flatnonzero(survivors & (np.abs(w) > a))
        expect = set(cand[lowest_quantile_subset(np.abs(w[cand]), t)])
        assert set(np.flatnonzero(sel)) == expect

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 1.0), st.floats(0.0, 0.5))
    def test_ties_match_the_oracle(self, seed, t, a):
        # one decimal leaves about 25 distinct magnitudes for 40 weights,
        # so the k-th smallest is often tied and the lowest indices win
        rng = np.random.default_rng(seed)
        w = np.round(rng.normal(size=40), 1)
        mask = compute_mask(w, float(rng.uniform(0, 0.8)))
        w = np.where(mask.astype(bool), w, 0.0)
        sel = select_swd_subset(w[None], a=a, t=t)[0]
        cand = np.flatnonzero(mask.astype(bool) & (np.abs(w) > a))
        expect = cand[lowest_quantile_subset(np.abs(w[cand]), t)]
        np.testing.assert_array_equal(np.flatnonzero(sel), np.sort(expect))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 1.0), st.floats(0.0, 0.5))
    def test_each_row_is_its_own_tensor(self, seed, t, a):
        rng = np.random.default_rng(seed)
        w = np.round(rng.normal(size=(4, 30)), 1)  # ties within rows
        mask = np.stack([compute_mask(r, float(rng.uniform(0, 0.8))) for r in w])
        w = np.where(mask.astype(bool), w, 0.0)
        sel = select_swd_subset(w, a=a, t=t)
        for r in range(4):
            np.testing.assert_array_equal(sel[r], select_swd_subset(w[r:r + 1], a=a, t=t)[0])

    def test_row_view_selects_per_gate_tensor(self):
        net = init_params((3, 5, 1), seed=4)
        rows, tree = net.rows(), net.tensors()
        sel = select_swd_subset(rows["layer0.w"], a=0.05, t=0.3)
        for g, name in enumerate(["layer0.w_f", "layer0.w_i", "layer0.w_j", "layer0.w_o"]):
            gate = tree[name]  # (H, H+D): flattened to one row, it is one tensor
            flat = select_swd_subset(gate.reshape(1, -1), a=0.05, t=0.3)[0]
            np.testing.assert_array_equal(sel[g], flat)
            assert gate.ndim == 2 and not np.array_equal(
                select_swd_subset(gate, a=0.05, t=0.3).ravel(), flat)


class TestTotalWeightDecay:
    def test_hand_worked(self):
        w = np.array([[0.2, 0.9, -0.1]])
        twd, grad = total_weight_decay(w, np.array([[True, False, True]]), mu=0.01)
        assert twd.shape == (1,) and twd[0] == pytest.approx(5e-4)
        np.testing.assert_allclose(grad, [0.004, -0.002])

    def test_empty_subset(self):
        twd, grad = total_weight_decay(np.array([[0.3, -0.4]]), np.zeros((1, 2), dtype=bool),
                                       mu=0.01)
        assert twd[0] == 0.0 and grad.size == 0

    def test_mu_zero(self):
        twd, grad = total_weight_decay(np.array([[0.5]]), np.array([[True]]), mu=0.0)
        assert twd[0] == 0.0
        np.testing.assert_array_equal(grad, [0.0])

    def test_scaled_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(9)
        vals = rng.normal(size=(1, 8))
        sel = np.ones((1, 8), dtype=bool)
        mu, a = 0.013, 0.7
        _, grad = total_weight_decay(vals, sel, mu)
        eps = 1e-6
        for i in range(vals.size):
            vp, vm = vals.copy(), vals.copy()
            vp[0, i] += eps
            vm[0, i] -= eps
            fd = a * (total_weight_decay(vp, sel, mu)[0][0]
                      - total_weight_decay(vm, sel, mu)[0][0]) / (2 * eps)
            assert abs(fd - a * grad[i]) <= 1e-8

    def test_rows_sum_their_own_selection_in_flat_order(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(4, 257))
        sel = rng.random((4, 257)) < 0.4
        sel[2] = False
        twd, grad = total_weight_decay(w, sel, mu=0.3)
        assert twd.shape == (4,)
        for r in range(4):
            vals = w[r][sel[r]]
            assert twd[r] == 0.3 * np.sum(vals * vals)  # bit for bit
        np.testing.assert_array_equal(grad, 2.0 * 0.3 * w[sel])


class TestSchedules:
    def test_ramp_endpoints(self):
        ramp = Pruning(initial_sparsity=0.25, final_sparsity=0.8)
        assert schedule_sparsity(0, ramp, 10) == pytest.approx(0.25)
        assert schedule_sparsity(9, ramp, 10) == pytest.approx(0.80)

    def test_ramp_interior(self):
        ramp = Pruning(initial_sparsity=0.25, final_sparsity=0.8)
        assert schedule_sparsity(4, ramp, 10) == pytest.approx(0.25 + 0.55 * 4 / 9)

    def test_single_epoch_jumps_to_final(self):
        assert schedule_sparsity(0, Pruning(final_sparsity=0.8), 1) == pytest.approx(0.8)

    def test_a_growth(self):
        cfg = Pruning(a0=0.001, a_growth=1.2, target_threshold=0.5)
        assert schedule_a(0, cfg) == pytest.approx(0.001)
        assert schedule_a(1, cfg) == pytest.approx(0.0012)
        assert schedule_a(500, cfg) == pytest.approx(0.5)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            Pruning(a0=0.0)
        with pytest.raises(ConfigError):
            Pruning(initial_sparsity=0.5, final_sparsity=0.4)
