import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from edgenet.errors import DimensionMismatch
from edgenet.optimizer import l2_term, sgdm_step

finite_arrays = arrays(np.float64, st.integers(1, 8),
                       elements=st.floats(-10, 10, allow_nan=False))


def tree(**kw):
    return {k: np.asarray(v, dtype=np.float64) for k, v in kw.items()}


def zeros(theta):
    """Fresh momentum buffers for ``theta``."""
    return {k: np.zeros_like(v) for k, v in theta.items()}


def sgd(theta, grad, eta):
    """Plain SGD: one momentum step with alpha 0, in place on theta."""
    sgdm_step(theta, grad, zeros(theta), alpha=0.0, eta=eta)
    return theta


class TestSgd:
    def test_single_step(self):
        out = sgd(tree(w=[1.0]), tree(w=[0.5]), eta=0.1)
        assert out["w"] == pytest.approx([0.95])

    def test_zero_gradient_fixed_point(self):
        theta = tree(w=[1.0, -2.0])
        out = sgd({"w": theta["w"].copy()}, tree(w=[0.0, 0.0]), eta=0.7)
        np.testing.assert_array_equal(out["w"], theta["w"])

    def test_vector_step_to_zero(self):
        out = sgd(tree(w=[1.0, -1.0]), tree(w=[2.0, -2.0]), eta=0.5)
        np.testing.assert_allclose(out["w"], [0.0, 0.0])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sgd(tree(w=[1.0]), tree(w=[1.0, 2.0]), eta=0.1)

    @pytest.mark.parametrize("delta", [{"w": np.zeros(2)}, {"v": np.zeros(1)}])
    def test_momentum_buffers_must_match(self, delta):
        with pytest.raises(DimensionMismatch):
            sgdm_step(tree(w=[1.0]), tree(w=[0.5]), delta, alpha=0.9, eta=0.1)


class TestSgdm:
    def test_first_step_reduces_to_sgd(self):
        theta = tree(w=[1.0])
        delta = zeros(theta)
        sgdm_step(theta, tree(w=[0.5]), delta, alpha=0.9, eta=0.1)
        assert theta["w"] == pytest.approx([0.95])
        assert delta["w"] == pytest.approx([-0.05])

    def test_second_step_accumulates_momentum(self):
        theta = tree(w=[1.0])
        grad = tree(w=[0.5])
        delta = zeros(theta)
        sgdm_step(theta, grad, delta, alpha=0.9, eta=0.1)
        sgdm_step(theta, grad, delta, alpha=0.9, eta=0.1)
        assert theta["w"] == pytest.approx([0.855])

    def test_coasting_update_is_geometric(self):
        theta = tree(w=[1.0])
        delta = tree(w=[-0.05])
        sgdm_step(theta, tree(w=[0.0]), delta, alpha=0.9, eta=0.1)
        assert delta["w"] == pytest.approx([-0.045])
        for _ in range(50):
            prev = abs(delta["w"][0])
            sgdm_step(theta, tree(w=[0.0]), delta, alpha=0.9, eta=0.1)
            assert abs(delta["w"][0]) == pytest.approx(0.9 * prev)

    @settings(max_examples=100, deadline=None)
    @given(finite_arrays, finite_arrays, st.floats(1e-4, 1.0))
    def test_alpha_zero_equals_sgd(self, th, g, eta):
        if th.shape != g.shape:
            g = np.resize(g, th.shape)
        out = sgd({"w": th.copy()}, {"w": g}, eta)
        np.testing.assert_array_equal(out["w"], th - eta * g)

    def test_permutation_of_entries_is_immaterial(self):
        rng = np.random.default_rng(1)
        th, g = rng.normal(size=6), rng.normal(size=6)
        perm = rng.permutation(6)
        direct = {"w": th.copy()}
        sgdm_step(direct, {"w": g}, zeros(direct), alpha=0.5, eta=0.2)
        permuted = {"w": th[perm]}
        sgdm_step(permuted, {"w": g[perm]}, zeros(permuted), alpha=0.5, eta=0.2)
        inv = np.empty(6, dtype=int)
        inv[perm] = np.arange(6)
        np.testing.assert_array_equal(permuted["w"][inv], direct["w"])

    def test_updates_views_in_place(self):
        stacked = np.array([[1.0, 2.0], [3.0, 4.0]])
        theta = {"a": stacked[:1], "b": stacked[1:]}
        sgdm_step(theta, tree(a=[[1.0, 1.0]], b=[[0.0, 2.0]]), zeros(theta), alpha=0.9, eta=0.5)
        np.testing.assert_array_equal(stacked, [[0.5, 1.5], [3.0, 3.0]])


class TestL2:
    def test_hand_worked(self):
        pen, grad = l2_term(np.array([[3.0, 4.0]]), mu=1.0)
        assert pen.shape == (1,) and pen[0] == pytest.approx(25.0)
        np.testing.assert_allclose(grad, [[6.0, 8.0]])

    def test_mu_zero(self):
        pen, grad = l2_term(np.array([[1.0, 2.0]]), mu=0.0)
        assert pen[0] == 0.0
        np.testing.assert_array_equal(grad, [[0.0, 0.0]])

    def test_small_weight(self):
        pen, grad = l2_term(np.array([[0.5]]), mu=0.01)
        assert pen[0] == pytest.approx(0.0025)
        np.testing.assert_allclose(grad, [[0.01]])

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(1, 12))
        mu = 0.37
        _, grad = l2_term(w, mu)
        eps = 1e-6
        for i in range(w.size):
            wp, wm = w.copy(), w.copy()
            wp[0, i] += eps
            wm[0, i] -= eps
            fd = (l2_term(wp, mu)[0][0] - l2_term(wm, mu)[0][0]) / (2 * eps)
            assert abs(fd - grad[0, i]) <= 1e-8

    @pytest.mark.parametrize("shape", [(4, 1), (4, 7), (4, 130), (1, 33), (1, 1), (4, 1057)])
    def test_one_penalty_per_row_bit_for_bit(self, shape):
        w = np.random.default_rng(shape[1]).normal(size=shape)
        pen, grad = l2_term(w, mu=1e-4)
        assert pen.shape == (shape[0],)
        for r in range(shape[0]):
            assert pen[r] == 1e-4 * np.sum(w[r] * w[r])
        np.testing.assert_array_equal(grad, 2.0 * 1e-4 * w)
