import numpy as np
import pytest

from edgenet.data_pipeline import DatasetSplit, split_indices
from edgenet.dsd_trainer import (PHASE_DENSE, PHASE_REDENSE, PHASE_SPARSE,
                                 ArchConfig, EarlyStopPolicy, PhaseConfig,
                                 TrainContext, TrainerConfig, _run_phase,
                                 to_sequences, train_dsd)
from edgenet.errors import ConfigError, NonFiniteLoss
from edgenet.lstm_net import (NetworkParams, backward, bce_loss, forward_batch,
                              init_params, scores)
from edgenet.optimizer import SgdmState, l2_term, sgdm_step
from edgenet.pruning import SparsitySchedule, SwdConfig, compute_masks
from edgenet.synthetic import make_synthetic


def toy_data(n=200, seed=0):
    x, y = make_synthetic(n_rows=n, seed=seed)
    return tuple(DatasetSplit(features=x[i], labels=y[i], row_ids=i)
                 for i in split_indices(n, (0.6, 0.2, 0.2), seed=5))


def separable_data(n=200):
    rng = np.random.default_rng(12)
    x = rng.random((n, 2))
    keep = np.abs(x[:, 0] - x[:, 1]) > 0.1
    x = x[keep]
    y = (x[:, 0] > x[:, 1]).astype(np.int64)
    return DatasetSplit(features=x, labels=y, row_ids=np.arange(len(y)))


def make_ctx(seed, mu=1e-4, clip=5.0, swd=None, sched=None, **phases):
    """Context with the trainer's default hyperparameters, the phase configs
    ``phases`` (e.g. ``dense=PhaseConfig(...)``), the sparsity ramp ``sched``
    and two PRNG streams spawned from ``seed``; no validation data."""
    ramp = {}
    if sched is not None:
        assert sched.epochs == phases["sparse"].epochs
        ramp = dict(sparsity_initial=sched.initial, sparsity_final=sched.final)
    cfg = TrainerConfig(swd=swd or SwdConfig(mu=mu), grad_clip_norm=clip, **ramp, **phases)
    drop_ss, shuf_ss = np.random.SeedSequence(seed).spawn(2)
    return TrainContext(cfg=cfg, val=None, dropout_rng=np.random.default_rng(drop_ss),
                        shuffle_rng=np.random.default_rng(shuf_ss))


def small_cfg(**overrides):
    base = dict(
        arch=ArchConfig(n_layers=2, hidden_size=8),
        dense=PhaseConfig(learning_rate=0.1, epochs=4, batch_size=64),
        sparse=PhaseConfig(learning_rate=0.01, epochs=4, batch_size=64),
        redense=PhaseConfig(learning_rate=0.001, epochs=3, batch_size=64),
    )
    base.update(overrides)
    return TrainerConfig(**base)


class TestHelpers:
    def test_to_sequences_shape(self):
        x = np.arange(24, dtype=np.float64).reshape(4, 6)
        seq = to_sequences(x, 3)
        assert seq.shape == (4, 3, 2)
        np.testing.assert_array_equal(seq[0, 0], [0, 1])

    def test_to_sequences_divisibility(self):
        with pytest.raises(ConfigError):
            to_sequences(np.zeros((2, 5)), 2)

    def test_phase_config_validation(self):
        with pytest.raises(ConfigError):
            PhaseConfig(learning_rate=-0.1, epochs=1)
        with pytest.raises(ConfigError):
            PhaseConfig(learning_rate=0.1, epochs=0)

    def test_early_stop_validation(self):
        with pytest.raises(ConfigError):
            EarlyStopPolicy(patience=0)


class TestDensePhase:
    def test_zero_learning_rate_is_fixed_point(self):
        tr, va, te = toy_data()
        net = init_params((10, 8), seed=1, dropout_rate=0.1)
        before = net.copy()
        ctx = make_ctx(3, dense=PhaseConfig(learning_rate=0.0, epochs=2, batch_size=64))
        _run_phase(net, tr, ctx, PHASE_DENSE)
        for name, arr in before.tensors().items():
            np.testing.assert_array_equal(net.tensors()[name], arr)

    def test_one_epoch_one_batch_is_one_sgdm_step(self):
        tr, _, _ = toy_data(n=80)
        net = init_params((10, 8), seed=2, dropout_rate=0.1)
        start = net.copy()
        cfg = PhaseConfig(learning_rate=0.05, epochs=1, batch_size=10_000)
        mu = 1e-4
        _run_phase(net, tr, make_ctx(9, mu=mu, clip=None, dense=cfg), PHASE_DENSE)
        # identical PRNG streams reproduce the exact batch order and masks
        ctx2 = make_ctx(9)
        order = ctx2.shuffle_rng.permutation(len(tr))
        x_seq = to_sequences(tr.features, 1)[order]
        y = tr.labels.astype(np.float64)[order]
        _, cache = forward_batch(start, x_seq, mode="train", rng=ctx2.dropout_rng)
        grads = backward(start, cache, y).tensors()
        theta = start.tensors()
        for name in start.weight_names():
            grads[name] = grads[name] + l2_term(theta[name], mu)[1]
        sgdm_step(theta, grads, SgdmState.init(theta, alpha=0.9, eta=0.05))
        for name, arr in start.tensors().items():
            np.testing.assert_array_equal(net.tensors()[name], arr)

    def test_loss_strictly_decreases_on_separable_data(self):
        data = separable_data()
        net = init_params((2, 8, 8), seed=4, dropout_rate=0.0)
        ctx = make_ctx(1, dense=PhaseConfig(learning_rate=0.1, epochs=5, batch_size=10_000))
        _run_phase(net, data, ctx, PHASE_DENSE)
        losses = [r.train_loss for r in ctx.records]
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
        ctx = make_ctx(3, dense=PhaseConfig(learning_rate=0.1, epochs=2, batch_size=64))
        _run_phase(net, tr, ctx, PHASE_DENSE)
        assert rebuilds == []
        assert net.layers[0].w is stacked and not np.array_equal(stacked, before)


class TestSparsePhase:
    def test_survivor_counts_and_bitwise_zeros(self):
        tr, va, _ = toy_data()
        net = init_params((10, 8, 8), seed=5, dropout_rate=0.1)
        sched = SparsitySchedule(initial=0.25, final=0.8, epochs=4)
        ctx = make_ctx(11, sched=sched, sparse=PhaseConfig(0.01, 4, 64))
        mask = _run_phase(net, tr, ctx, PHASE_SPARSE)
        assert ctx.mask_violations == 0
        for name, m in mask.masks.items():
            arr = net.tensors()[name]
            n = arr.size
            assert int(m.sum()) == int(np.ceil(0.2 * n))
            pruned = arr[~m.astype(bool)]
            assert np.all(pruned == 0.0)
            assert not np.any(np.signbit(pruned))  # +0.0, not -0.0

    def test_mu_zero_constant_schedule_has_no_twd(self):
        tr, _, _ = toy_data()
        net = init_params((10, 8), seed=6, dropout_rate=0.1)
        sched = SparsitySchedule(initial=0.5, final=0.5, epochs=3)
        ctx = make_ctx(2, swd=SwdConfig(mu=0.0), sched=sched, sparse=PhaseConfig(0.01, 3, 64))
        _run_phase(net, tr, ctx, PHASE_SPARSE)
        assert all(r.a_twd == 0.0 for r in ctx.records)
        assert all(r.a > 0.0 for r in ctx.records)  # a still advances

    def test_sparsity_column_follows_ramp(self):
        tr, _, _ = toy_data()
        net = init_params((10, 8), seed=6, dropout_rate=0.1)
        sched = SparsitySchedule(initial=0.25, final=0.8, epochs=4)
        ctx = make_ctx(2, sched=sched, sparse=PhaseConfig(0.01, 4, 64))
        _run_phase(net, tr, ctx, PHASE_SPARSE)
        ramps = [r.sparsity for r in ctx.records]
        np.testing.assert_allclose(ramps, [0.25, 0.25 + 0.55 / 3,
                                           0.25 + 2 * 0.55 / 3, 0.8])


class TestReductionOrder:
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_sparse_batch_matches_a_per_gate_reference_step(self, seed):
        """One sparse-phase batch with SWD active, clipping firing and a tied
        output gate equals, bit for bit, the step taken one gate tensor at a
        time, with every penalty and norm summed tensor by tensor in
        ``tensors()`` order."""
        tr, _, _ = toy_data(n=80)
        net = init_params((10, 32, 32, 32), seed=seed, dropout_rate=0.1,
                          tied_output_gate=True)
        start = net.copy()
        lr, mu, clip, sparsity = 20.0, 1e-3, 1e-3, 0.5
        swd = SwdConfig(a0=0.05, mu=mu)
        ctx = make_ctx(17, clip=clip, swd=swd, sched=SparsitySchedule(sparsity, sparsity, 1),
                       sparse=PhaseConfig(lr, 1, 10_000))
        mask = _run_phase(net, tr, ctx, PHASE_SPARSE)

        theta = start.tensors()
        weights = start.weight_names()
        keep = compute_masks({n: theta[n] for n in weights}, sparsity).masks
        for n in weights:
            theta[n][...] = np.where(keep[n].astype(bool), theta[n], 0.0)
        ref = make_ctx(17)
        order = ref.shuffle_rng.permutation(len(tr))
        y = tr.labels.astype(np.float64)[order]
        p, cache = forward_batch(start, to_sequences(tr.features, 1)[order], mode="train",
                                 rng=ref.dropout_rng)
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
        norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        assert norm > clip
        for name, g in grads.items():
            g *= clip / norm
            delta = np.zeros_like(g)
            delta *= 0.9
            delta -= lr * g
            theta[name] += delta
        for n in weights:
            theta[n][...] = np.where(keep[n].astype(bool), theta[n], 0.0)

        (rec,) = ctx.records
        assert (rec.err, rec.wd, rec.a_twd, rec.a) == (err, wd, a * twd, a)
        assert rec.train_loss == err + wd + a * twd
        assert ctx.mask_violations == 0
        for n in weights:
            np.testing.assert_array_equal(mask.masks[n], keep[n])
        for name, arr in start.tensors().items():
            assert net.tensors()[name].tobytes() == arr.tobytes(), name


class TestRedensePhase:
    def test_pruned_weights_resume_from_zero(self):
        tr, _, _ = toy_data()
        net = init_params((10, 8), seed=7, dropout_rate=0.1)
        sched = SparsitySchedule(initial=0.6, final=0.6, epochs=2)
        ctx = make_ctx(3, sched=sched, sparse=PhaseConfig(0.01, 2, 64),
                       redense=PhaseConfig(0.001, 2, 64))
        mask = _run_phase(net, tr, ctx, PHASE_SPARSE)
        sparse_net = net.copy()
        _run_phase(net, tr, ctx, PHASE_REDENSE, frozen_mask=mask)
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
        sched = SparsitySchedule(initial=0.6, final=0.6, epochs=2)
        ctx = make_ctx(3, sched=sched, sparse=PhaseConfig(0.01, 2, 64),
                       redense=PhaseConfig(0.001, 2, 64))
        mask = _run_phase(net, tr, ctx, PHASE_SPARSE)
        n_before = len(ctx.records)
        _run_phase(net, tr, ctx, PHASE_REDENSE, frozen_mask=mask)
        for r in ctx.records[n_before:]:
            assert r.sparsity == pytest.approx(mask.zero_fraction())
            assert r.a == 0.0


class TestTrainDsd:
    def test_deterministic_repeat(self):
        tr, va, _ = toy_data()
        cfg = small_cfg()
        net1, run1 = train_dsd(cfg, tr, va, seed=21)
        net2, run2 = train_dsd(cfg, tr, va, seed=21)
        for name, arr in net1.tensors().items():
            np.testing.assert_array_equal(net2.tensors()[name], arr)
        assert run1.csv() == run2.csv()

    def test_different_seed_differs(self):
        tr, va, _ = toy_data()
        cfg = small_cfg()
        net1, _ = train_dsd(cfg, tr, va, seed=21)
        net2, _ = train_dsd(cfg, tr, va, seed=22)
        assert any(not np.array_equal(net1.tensors()[n], net2.tensors()[n])
                   for n in net1.tensors())

    def test_phase_sequence_and_decomposition(self):
        tr, va, _ = toy_data()
        net, run = train_dsd(small_cfg(), tr, va, seed=8)
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
        _, run = train_dsd(small_cfg(), tr, va, seed=8)
        lines = run.csv().strip().split("\n")
        assert lines[0] == "epoch,phase,train_loss,err,wd,a_twd,val_loss,val_auc,sparsity,a"
        assert len(lines) == len(run.records) + 1

    def test_early_stop_cuts_phase_and_restores_best(self):
        tr, va, _ = toy_data(n=400)
        cfg = small_cfg(
            dense=PhaseConfig(learning_rate=0.1, epochs=40, batch_size=64),
            sparse=PhaseConfig(learning_rate=0.01, epochs=2, batch_size=64),
            redense=PhaseConfig(learning_rate=0.001, epochs=25, batch_size=64),
            early_stop=EarlyStopPolicy(patience=2, dense=True, sparse=False,
                                       redense=True),
        )
        net, run = train_dsd(cfg, tr, va, seed=3)
        n_dense = sum(r.phase == "dense" for r in run.records)
        n_redense = sum(r.phase == "redense" for r in run.records)
        assert n_dense < 40 or n_redense < 25  # some phase stopped early
        # restored parameters reproduce the best recorded validation AUC
        redense_aucs = [r.val_auc for r in run.records if r.phase == "redense"]
        from edgenet.metrics import roc_curve
        p = scores(net, va.features)
        assert roc_curve(p, va.labels).auc == pytest.approx(max(redense_aucs), abs=1e-12)

    def test_snapshots_present(self):
        tr, va, _ = toy_data()
        net, run = train_dsd(small_cfg(), tr, va, seed=4)
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
        cfg = small_cfg(dense=PhaseConfig(learning_rate=1e200, epochs=2, batch_size=64))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteLoss):
            train_dsd(cfg, tr, va, seed=1)

    def test_empty_split_rejected(self):
        tr, va, _ = toy_data()
        empty = DatasetSplit(features=np.zeros((0, 10)), labels=np.zeros(0, dtype=int),
                             row_ids=np.zeros(0, dtype=int))
        with pytest.raises(ConfigError):
            train_dsd(small_cfg(), empty, va, seed=0)
