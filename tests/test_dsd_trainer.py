from dataclasses import replace

import numpy as np
import pytest

from edgenet import dsd_trainer
from edgenet.config import Architecture, EarlyStop, Phase, Phases, Pruning, RunConfig
from edgenet.data_pipeline import DatasetSplit, split_indices
from edgenet.dsd_trainer import (PHASE_DENSE, PHASE_REDENSE, PHASE_SPARSE,
                                 TrainRun, _run_phase, train_dsd)
from edgenet.errors import ConfigError, NonFiniteLoss
from edgenet.lstm_net import (NetworkParams, backward, bce_loss, forward_batch,
                              init_params, scores, stack_rows, to_sequences)
from edgenet.optimizer import SgdmState, sgdm_step
from edgenet.pruning import compute_masks
from edgenet.synthetic import make_synthetic

from oracles import lowest_quantile_subset


def toy_data(n=200, seed=0):
    x, y = make_synthetic(n_rows=n, seed=seed)
    return tuple(DatasetSplit(features=x[i], labels=y[i])
                 for i in split_indices(n, (0.6, 0.2, 0.2), seed=5))


def separable_data(n=200):
    rng = np.random.default_rng(12)
    x = rng.random((n, 2))
    keep = np.abs(x[:, 0] - x[:, 1]) > 0.1
    x = x[keep]
    y = (x[:, 0] > x[:, 1]).astype(np.int64)
    return DatasetSplit(features=x, labels=y)


def make_run(seed, clip=5.0, pruning=Pruning(), **phases):
    """Run record with the default config but for the clipping norm, the
    pruning section and the phase settings ``phases`` (e.g.
    ``dense=Phase(...)``), and two PRNG streams spawned from ``seed``; no
    validation data."""
    cfg = RunConfig(phases=replace(Phases(), **phases), pruning=pruning, grad_clip_norm=clip)
    drop_ss, shuf_ss = np.random.SeedSequence(seed).spawn(2)
    return TrainRun(cfg=cfg, val=None, dropout_rng=np.random.default_rng(drop_ss),
                    shuffle_rng=np.random.default_rng(shuf_ss))


def small_cfg(seed, early_stop=EarlyStop(), **phases):
    base = dict(dense=Phase(learning_rate=0.1, epochs=4, batch_size=64),
                sparse=Phase(learning_rate=0.01, epochs=4, batch_size=64),
                redense=Phase(learning_rate=0.001, epochs=3, batch_size=64))
    return RunConfig(seed=seed, architecture=Architecture(layers=2, hidden=8),
                     phases=Phases(**{**base, **phases}), early_stop=early_stop)


class TestHelpers:
    def test_to_sequences_shape(self):
        x = np.arange(24, dtype=np.float64).reshape(4, 6)
        seq = to_sequences(x, 2)
        assert seq.shape == (4, 3, 2)
        np.testing.assert_array_equal(seq[0, 0], [0, 1])
        assert to_sequences(seq, 2) is seq  # a (B, T, D) batch passes unchanged

    def test_to_sequences_divisibility(self):
        with pytest.raises(ConfigError, match="5 features; model expects a multiple of 2"):
            to_sequences(np.zeros((2, 5)), 2)

    def test_phase_config_validation(self):
        with pytest.raises(ConfigError):
            Phase(learning_rate=-0.1, epochs=1)
        with pytest.raises(ConfigError):
            Phase(learning_rate=0.1, epochs=0)

    def test_early_stop_validation(self):
        with pytest.raises(ConfigError):
            EarlyStop(patience=0)


class TestDensePhase:
    def test_zero_learning_rate_is_fixed_point(self):
        tr, va, te = toy_data()
        net = init_params((10, 8), seed=1, dropout_rate=0.1)
        before = net.copy()
        run = make_run(3, dense=Phase(learning_rate=0.0, epochs=2, batch_size=64))
        _run_phase(net, tr, run, PHASE_DENSE)
        for name, arr in before.tensors().items():
            np.testing.assert_array_equal(net.tensors()[name], arr)

    def test_one_epoch_one_batch_is_one_sgdm_step(self):
        tr, _, _ = toy_data(n=80)
        net = init_params((10, 8), seed=2, dropout_rate=0.1)
        start = net.copy()
        cfg = Phase(learning_rate=0.05, epochs=1, batch_size=10_000)
        mu = Pruning().mu
        _run_phase(net, tr, make_run(9, clip=None, dense=cfg), PHASE_DENSE)
        # identical PRNG streams reproduce the exact batch order and masks
        ref = make_run(9)
        order = ref.shuffle_rng.permutation(len(tr))
        x_seq = to_sequences(tr.features, start.input_size)[order]
        y = tr.labels.astype(np.float64)[order]
        _, cache = forward_batch(start, x_seq, mode="train", rng=ref.dropout_rng)
        grads = backward(start, cache, y).tensors()
        theta = start.tensors()
        for name in start.weight_names():
            grads[name] = grads[name] + 2.0 * mu * theta[name]
        sgdm_step(theta, grads, SgdmState.init(theta, alpha=0.9, eta=0.05))
        for name, arr in start.tensors().items():
            np.testing.assert_array_equal(net.tensors()[name], arr)

    def test_loss_strictly_decreases_on_separable_data(self):
        data = separable_data()
        net = init_params((2, 8, 8), seed=4, dropout_rate=0.0)
        run = make_run(1, dense=Phase(learning_rate=0.1, epochs=5, batch_size=10_000))
        _run_phase(net, data, run, PHASE_DENSE)
        losses = [r.train_loss for r in run.records]
        assert len(losses) == 5
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_trains_in_place_without_rebuilding(self, monkeypatch):
        tr, _, _ = toy_data()
        net = init_params((10, 8), seed=1, dropout_rate=0.1)
        stacked = net.layers[0].w
        before = stacked.copy()
        rebuilds = []
        original = NetworkParams.with_tensors

        def counted(self, tree):
            rebuilds.append(tree)
            return original(self, tree)

        monkeypatch.setattr(NetworkParams, "with_tensors", counted)
        run = make_run(3, dense=Phase(learning_rate=0.1, epochs=2, batch_size=64))
        _run_phase(net, tr, run, PHASE_DENSE)
        assert rebuilds == []
        assert net.layers[0].w is stacked and not np.array_equal(stacked, before)


class TestSparsePhase:
    def test_survivor_counts_and_bitwise_zeros(self):
        tr, va, _ = toy_data()
        net = init_params((10, 8, 8), seed=5, dropout_rate=0.1)
        run = make_run(11, sparse=Phase(0.01, 4, 64))
        _run_phase(net, tr, run, PHASE_SPARSE)
        mask = run.final_mask
        assert run.mask_violations == 0
        for name, m in mask.masks.items():
            arr = net.tensors()[name]
            n = arr.size
            assert int(m.sum()) == int(np.ceil(0.2 * n))
            pruned = arr[~m.astype(bool)]
            assert np.all(pruned == 0.0)
            assert not np.any(np.signbit(pruned))  # +0.0, not -0.0

    def test_swd_sees_pruned_entries_at_positive_zero(self, monkeypatch):
        """SWD reads no mask: at every call its pruned entries are +0.0 and its
        selection is the masked rule, the ceil(t * m) smallest of the m
        survivors with |w| > a, ties to the lowest flat index."""
        tr, _, _ = toy_data()
        net = init_params((10, 8, 8), seed=5, dropout_rate=0.1)
        swd = Pruning(initial_sparsity=0.3, final_sparsity=0.7, a0=0.2, a_growth=1.5)
        run = make_run(11, pruning=swd, sparse=Phase(0.5, 4, 32))  # 4 batches an epoch
        rows = net.rows()
        seen = {"calls": 0, "selected": 0, "survivors at or below a": 0}

        def checked(w, a, t):
            sel = select(w, a, t)
            (name,) = [k for k, r in rows.items() if np.shares_memory(w, r)]
            keep = stack_rows(run.final_mask.masks)[name].astype(bool)
            pruned = w[~keep]
            assert np.all(pruned == 0.0) and not np.any(np.signbit(pruned))
            for r in range(w.shape[0]):
                cand = np.flatnonzero(keep[r] & (np.abs(w[r]) > a))
                expect = np.zeros(w.shape[1], dtype=bool)
                expect[cand[lowest_quantile_subset(np.abs(w[r][cand]), t)]] = True
                np.testing.assert_array_equal(sel[r], expect)
            seen["calls"] += 1
            seen["selected"] += int(np.count_nonzero(sel))
            seen["survivors at or below a"] += int(np.count_nonzero(keep & (np.abs(w) <= a)))
            return sel

        select = dsd_trainer.select_swd_subset
        monkeypatch.setattr(dsd_trainer, "select_swd_subset", checked)
        _run_phase(net, tr, run, PHASE_SPARSE)
        assert seen["calls"] == 4 * 4 * 3  # epochs x batches x (layer0.w, layer1.w, head.w)
        assert seen["selected"] > 0 and seen["survivors at or below a"] > 0
        assert run.mask_violations == 0

    def test_mu_zero_constant_schedule_has_no_twd(self):
        tr, _, _ = toy_data()
        net = init_params((10, 8), seed=6, dropout_rate=0.1)
        pruning = Pruning(initial_sparsity=0.5, final_sparsity=0.5, mu=0.0)
        run = make_run(2, pruning=pruning, sparse=Phase(0.01, 3, 64))
        _run_phase(net, tr, run, PHASE_SPARSE)
        assert all(r.a_twd == 0.0 for r in run.records)
        assert all(r.a > 0.0 for r in run.records)  # a still advances

    def test_sparsity_column_follows_ramp(self):
        tr, _, _ = toy_data()
        net = init_params((10, 8), seed=6, dropout_rate=0.1)
        run = make_run(2, sparse=Phase(0.01, 4, 64))
        _run_phase(net, tr, run, PHASE_SPARSE)
        ramps = [r.sparsity for r in run.records]
        np.testing.assert_allclose(ramps, [0.25, 0.25 + 0.55 / 3,
                                           0.25 + 2 * 0.55 / 3, 0.8])


class TestReductionOrder:
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_sparse_batch_matches_a_per_gate_reference_step(self, seed):
        """One sparse-phase batch with SWD active and clipping firing equals,
        bit for bit, the step taken one gate tensor at a time, with every
        penalty and norm summed tensor by tensor in ``tensors()`` order."""
        tr, _, _ = toy_data(n=80)
        net = init_params((10, 32, 32, 32), seed=seed, dropout_rate=0.1)
        start = net.copy()
        lr, mu, clip, sparsity = 20.0, 1e-3, 1e-3, 0.5
        swd = Pruning(initial_sparsity=sparsity, final_sparsity=sparsity, a0=0.05, mu=mu)
        run = make_run(17, clip=clip, pruning=swd, sparse=Phase(lr, 1, 10_000))
        _run_phase(net, tr, run, PHASE_SPARSE)
        mask = run.final_mask

        theta = start.tensors()
        weights = start.weight_names()
        keep = compute_masks({n: theta[n] for n in weights}, sparsity).masks
        for n in weights:
            theta[n][...] = np.where(keep[n].astype(bool), theta[n], 0.0)
        ref = make_run(17)
        order = ref.shuffle_rng.permutation(len(tr))
        y = tr.labels.astype(np.float64)[order]
        p, cache = forward_batch(start, to_sequences(tr.features, start.input_size)[order],
                                 mode="train", rng=ref.dropout_rng)
        err = float(np.mean(bce_loss(p, y)))
        grads = {k: v.copy() for k, v in backward(start, cache, y).tensors().items()}
        wd = 0.0
        for n in weights:
            wd += float(mu * np.sum(theta[n] * theta[n]))
            grads[n] += 2.0 * mu * theta[n]
        a = swd.a0
        twd = 0.0
        for n in weights:
            flat = theta[n].ravel()
            cand = np.flatnonzero(keep[n].astype(bool).ravel() & (np.abs(flat) > a))
            take = int(np.ceil(swd.target_threshold * cand.size))
            sel = np.zeros(flat.size, dtype=bool)
            sel[cand[np.lexsort((cand, np.abs(flat[cand])))[:take]]] = True
            sel = sel.reshape(theta[n].shape)
            vals = theta[n][sel]
            assert 0 < vals.size < flat.size
            twd += float(mu * np.sum(vals * vals))
            grads[n][sel] += a * (2.0 * mu * vals)
        sq = 0.0
        for g in grads.values():
            sq += float(np.sum(g * g))
        norm = np.sqrt(sq)
        assert norm > clip
        for name, g in grads.items():
            g *= clip / norm
            delta = np.zeros_like(g)
            delta *= 0.9
            delta -= lr * g
            theta[name] += delta
        for n in weights:
            theta[n][...] = np.where(keep[n].astype(bool), theta[n], 0.0)

        (rec,) = run.records
        assert (rec.err, rec.wd, rec.a_twd, rec.a) == (err, wd, a * twd, a)
        assert rec.train_loss == err + wd + a * twd
        assert run.mask_violations == 0
        for n in weights:
            np.testing.assert_array_equal(mask.masks[n], keep[n])
        for name, arr in start.tensors().items():
            assert net.tensors()[name].tobytes() == arr.tobytes(), name


class TestRedensePhase:
    def test_pruned_weights_resume_from_zero(self):
        tr, _, _ = toy_data()
        net = init_params((10, 8), seed=7, dropout_rate=0.1)
        run = make_run(3, pruning=Pruning(initial_sparsity=0.6, final_sparsity=0.6),
                       sparse=Phase(0.01, 2, 64), redense=Phase(0.001, 2, 64))
        _run_phase(net, tr, run, PHASE_SPARSE)
        mask = run.final_mask
        sparse_net = net.copy()
        _run_phase(net, tr, run, PHASE_REDENSE)
        assert run.final_mask is mask
        revived = 0
        for name, m in mask.masks.items():
            pruned_before = sparse_net.tensors()[name][~m.astype(bool)]
            after = net.tensors()[name][~m.astype(bool)]
            assert np.all(pruned_before == 0.0)
            revived += int(np.count_nonzero(after))
        assert revived > 0  # masks lifted, formerly-pruned weights moved

    def test_reports_frozen_mask_sparsity(self):
        tr, _, _ = toy_data()
        net = init_params((10, 8), seed=7, dropout_rate=0.1)
        run = make_run(3, redense=Phase(0.001, 2, 64))
        tree = net.tensors()
        run.final_mask = compute_masks({k: tree[k] for k in net.weight_names()}, 0.3)
        assert run.final_mask.zero_fraction() > 0.0
        _run_phase(net, tr, run, PHASE_REDENSE)
        assert len(run.records) == 2
        for r in run.records:
            assert r.sparsity == pytest.approx(run.final_mask.zero_fraction())
            assert r.a == 0.0


class TestTrainDsd:
    def test_deterministic_repeat(self):
        tr, va, _ = toy_data()
        cfg = small_cfg(seed=21)
        net1, run1 = train_dsd(cfg, tr, va)
        net2, run2 = train_dsd(cfg, tr, va)
        for name, arr in net1.tensors().items():
            np.testing.assert_array_equal(net2.tensors()[name], arr)
        assert run1.csv() == run2.csv()

    def test_different_seed_differs(self):
        tr, va, _ = toy_data()
        net1, _ = train_dsd(small_cfg(seed=21), tr, va)
        net2, _ = train_dsd(small_cfg(seed=22), tr, va)
        assert any(not np.array_equal(net1.tensors()[n], net2.tensors()[n])
                   for n in net1.tensors())

    def test_phase_sequence_and_decomposition(self):
        tr, va, _ = toy_data()
        net, run = train_dsd(small_cfg(seed=8), tr, va)
        phases = [r.phase for r in run.records]
        assert phases == ["dense"] * 4 + ["sparse"] * 4 + ["redense"] * 3
        for r in run.records:
            assert r.train_loss == pytest.approx(r.err + r.wd + r.a_twd, abs=1e-12)
            assert r.err >= 0.0 and r.wd >= 0.0 and r.a_twd >= 0.0
            if r.phase == "dense":
                assert r.sparsity == 0.0 and r.a == 0.0
            if r.phase == "redense":
                assert r.a == 0.0

    def test_csv_header_and_rows(self):
        tr, va, _ = toy_data()
        _, run = train_dsd(small_cfg(seed=8), tr, va)
        lines = run.csv().strip().split("\n")
        assert lines[0] == "epoch,phase,train_loss,err,wd,a_twd,val_loss,val_auc,sparsity,a"
        assert len(lines) == len(run.records) + 1

    def test_early_stop_cuts_phase_and_restores_best(self):
        tr, va, _ = toy_data(n=400)
        cfg = small_cfg(
            seed=3,
            dense=Phase(learning_rate=0.1, epochs=40, batch_size=64),
            sparse=Phase(learning_rate=0.01, epochs=2, batch_size=64),
            redense=Phase(learning_rate=0.001, epochs=25, batch_size=64),
            early_stop=EarlyStop(patience=2),
        )
        net, run = train_dsd(cfg, tr, va)
        n_dense = sum(r.phase == "dense" for r in run.records)
        n_redense = sum(r.phase == "redense" for r in run.records)
        assert n_dense < 40 or n_redense < 25  # some phase stopped early
        # the sparse phase never stops early: its ramp reaches final_sparsity
        assert [r.sparsity for r in run.records if r.phase == "sparse"] == [0.25, 0.8]
        assert run.final_mask.zero_fraction() == pytest.approx(0.8, abs=0.01)
        # restored parameters reproduce the best recorded validation AUC
        redense_aucs = [r.val_auc for r in run.records if r.phase == "redense"]
        from edgenet.metrics import roc_curve
        p = scores(net, va.features)
        assert roc_curve(p, va.labels).auc == pytest.approx(max(redense_aucs), abs=1e-12)

    def test_snapshots_present(self):
        tr, va, _ = toy_data()
        net, run = train_dsd(small_cfg(seed=4), tr, va)
        assert run.dense_params is not None
        assert run.sparse_params is not None
        assert run.final_mask is not None
        assert run.mask_violations == 0
        # the sparse snapshot honors its mask
        for name, m in run.final_mask.masks.items():
            assert np.all(run.sparse_params.tensors()[name][~m.astype(bool)] == 0.0)

    def test_divergence_guard(self):
        tr, va, _ = toy_data()
        # one step at this rate sends weights ~1e200, so the squared penalty
        # overflows to inf on the next batch
        cfg = small_cfg(seed=1, dense=Phase(learning_rate=1e200, epochs=2, batch_size=64))
        with pytest.raises(NonFiniteLoss):
            train_dsd(cfg, tr, va)

    def test_empty_split_rejected(self):
        tr, va, _ = toy_data()
        empty = DatasetSplit(features=np.zeros((0, 10)), labels=np.zeros(0, dtype=int))
        with pytest.raises(ConfigError):
            train_dsd(small_cfg(seed=0), empty, va)
