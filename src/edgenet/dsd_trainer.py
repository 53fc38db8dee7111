"""Three-phase training: dense, sparse with selective weight decay, re-dense.

One epoch loop, ``_run_phase``, serves all three phases. Every batch step
runs in place on the network's 2L+2 stacked arrays (``NetworkParams.rows()``,
one row per gate tensor); penalties and the clipping norm are reduced row by
row and added in ``tensors()`` order, which keeps outputs byte-identical to
a loop over the gate tensors. Each phase runs momentum SGD at its own
learning rate with a shared momentum and fresh momentum buffers. The sparse
phase recomputes the per-gate magnitude mask every epoch along a linear
sparsity ramp, re-applies it after every optimizer step, and adds the
selective penalty a*TWD on the sub-threshold survivor subset. The re-dense
phase lifts the mask so pruned weights resume training from zero.

Reported train loss per epoch decomposes as err + wd + a_twd (batch means).
Validation loss is plain BCE. Early stopping watches validation AUC and
restores the best epoch's weights; it is off by default in the sparse phase
so the ramp always reaches its final sparsity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .data_pipeline import DatasetSplit
from .errors import ConfigError, NonFiniteLoss, SingleClassInput
from .lstm_net import (NetworkParams, backward, bce_loss, forward_batch,
                       init_params, is_weight_name, stack_rows)
from .metrics import roc_curve
from .optimizer import ParamTree, SgdmState, l2_term, sgdm_step
from .pruning import (SparsityMask, apply_masks, compute_masks, schedule_a,
                      schedule_sparsity, select_swd_subset, total_weight_decay)

PHASE_DENSE = "dense"
PHASE_SPARSE = "sparse"
PHASE_REDENSE = "redense"


@dataclass
class EpochRecord:
    epoch: int
    phase: str
    train_loss: float
    err: float
    wd: float
    a_twd: float
    val_loss: float
    val_auc: float
    sparsity: float
    a: float


@dataclass
class TrainRun:
    records: list[EpochRecord] = field(default_factory=list)
    final_mask: SparsityMask | None = None
    dense_params: NetworkParams | None = None
    sparse_params: NetworkParams | None = None
    mask_violations: int = 0

    def csv(self) -> str:
        lines = ["epoch,phase,train_loss,err,wd,a_twd,val_loss,val_auc,sparsity,a"]
        for r in self.records:
            lines.append(f"{r.epoch},{r.phase},{r.train_loss!r},{r.err!r},{r.wd!r},"
                         f"{r.a_twd!r},{r.val_loss!r},{r.val_auc!r},{r.sparsity!r},{r.a!r}")
        return "\n".join(lines) + "\n"


@dataclass
class TrainContext:
    """Shared per-run state: config, PRNG streams, validation data, records."""

    cfg: RunConfig
    val: DatasetSplit | None
    dropout_rng: np.random.Generator
    shuffle_rng: np.random.Generator
    records: list[EpochRecord] = field(default_factory=list)
    mask_violations: int = 0


def to_sequences(features: np.ndarray, seq_len: int) -> np.ndarray:
    """Reshape (n, F) feature rows into (n, T, F/T) sequences."""
    n, f = features.shape
    if f % seq_len != 0:
        raise ConfigError(f"{f} features not divisible by sequence length {seq_len}")
    return features.reshape(n, seq_len, f // seq_len)


def _clip_global_norm(grads: ParamTree, clip: float) -> None:
    """Scale the gradients in place so their global L2 norm is at most ``clip``."""
    total = np.sqrt(sum(v for g in grads.values() for v in np.sum(g * g, axis=1).tolist()))
    if total > clip:
        for g in grads.values():
            g *= clip / total


def _validate(net: NetworkParams, ctx: TrainContext) -> tuple[float, float]:
    if ctx.val is None or len(ctx.val) == 0:
        return float("nan"), float("nan")
    x = to_sequences(ctx.val.features, ctx.cfg.architecture.seq_len)
    p, _ = forward_batch(net, x, mode="eval")
    loss = float(np.mean(bce_loss(p, ctx.val.labels.astype(np.float64))))
    try:
        auc = roc_curve(p, ctx.val.labels).auc
    except SingleClassInput:
        auc = float("nan")
    return loss, auc


def _run_phase(net: NetworkParams, data: DatasetSplit, ctx: TrainContext, phase: str,
               frozen_mask: SparsityMask | None = None) -> SparsityMask | None:
    """Shared epoch loop; trains ``net`` in place with the settings
    ``ctx.cfg`` gives ``phase``. Returns the sparse phase's final mask, None
    in the other phases."""
    cfg, swd = getattr(ctx.cfg.phases, phase), ctx.cfg.pruning
    early_enabled = getattr(ctx.cfg.early_stop, phase)
    rows = net.rows()
    weights = [k for k in rows if is_weight_name(k)]
    state = SgdmState.init(rows, alpha=ctx.cfg.phases.momentum, eta=cfg.learning_rate)
    x_seq = to_sequences(data.features, ctx.cfg.architecture.seq_len)
    y = data.labels.astype(np.float64)
    n = len(y)

    best_metric = -np.inf
    best_rows = None
    best_mask = None
    stall = 0
    cur_mask: SparsityMask | None = None

    for e in range(cfg.epochs):
        a = 0.0
        if phase == PHASE_SPARSE:
            sparsity = schedule_sparsity(e, swd, cfg.epochs)
            tree = net.tensors()
            cur_mask = compute_masks({k: tree[k] for k in net.weight_names()}, sparsity)
            keep = SparsityMask(stack_rows(cur_mask.masks))
            apply_masks(rows, keep)
            a = schedule_a(e, swd)
            report_sparsity = sparsity
        elif phase == PHASE_REDENSE:
            report_sparsity = frozen_mask.zero_fraction() if frozen_mask else 0.0
        else:
            report_sparsity = 0.0

        order = ctx.shuffle_rng.permutation(n)
        err_sum = wd_sum = twd_sum = 0.0
        n_batches = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            p, cache = forward_batch(net, x_seq[idx], mode="train", rng=ctx.dropout_rng)
            err = float(np.mean(bce_loss(p, y[idx])))
            grads = backward(net, cache, y[idx]).rows()

            wd_pen = 0.0
            for k in weights:
                pens, g = l2_term(rows[k], swd.mu)
                grads[k] += g
                for pen in pens.tolist():
                    wd_pen += pen

            twd_pen = 0.0
            if phase == PHASE_SPARSE and a > 0.0:
                for k in weights:
                    sel = select_swd_subset(rows[k], keep.masks[k], a, swd.target_threshold)
                    twd, gvals = total_weight_decay(rows[k], sel, swd.mu)
                    grads[k][sel] += a * gvals
                    for pen in twd.tolist():
                        twd_pen += pen

            loss = err + wd_pen + a * twd_pen
            if not np.isfinite(loss):
                raise NonFiniteLoss(f"{phase} phase diverged at epoch {e} (loss={loss})")

            if ctx.cfg.grad_clip_norm is not None:
                _clip_global_norm(grads, ctx.cfg.grad_clip_norm)
            sgdm_step(rows, grads, state)
            if phase == PHASE_SPARSE:
                apply_masks(rows, keep)
                for k, m in keep.masks.items():
                    # one violation per gate tensor (row) with a nonzero pruned entry
                    stray = (rows[k] != 0.0) & (m == 0)
                    ctx.mask_violations += int(np.count_nonzero(stray.any(axis=1)))

            err_sum += err
            wd_sum += wd_pen
            twd_sum += a * twd_pen
            n_batches += 1

        val_loss, val_auc = _validate(net, ctx)
        err_m, wd_m, twd_m = err_sum / n_batches, wd_sum / n_batches, twd_sum / n_batches
        ctx.records.append(EpochRecord(
            epoch=len(ctx.records), phase=phase, train_loss=err_m + wd_m + twd_m,
            err=err_m, wd=wd_m, a_twd=twd_m, val_loss=val_loss, val_auc=val_auc,
            sparsity=report_sparsity, a=a))

        if early_enabled and ctx.val is not None:
            metric = val_auc if np.isfinite(val_auc) else -np.inf
            if metric > best_metric:
                best_metric = metric
                best_rows = {k: v.copy() for k, v in rows.items()}
                best_mask = cur_mask
                stall = 0
            else:
                stall += 1
                if stall >= ctx.cfg.early_stop.patience:
                    break

    if early_enabled and best_rows is not None and best_metric > -np.inf:
        for k, v in best_rows.items():
            rows[k][...] = v
        cur_mask = best_mask
    return cur_mask


def train_dsd(cfg: RunConfig, train_split: DatasetSplit,
              val_split: DatasetSplit) -> tuple[NetworkParams, TrainRun]:
    """Run all three phases in order; fully deterministic given ``cfg.seed``."""
    if len(train_split) == 0 or len(val_split) == 0:
        raise ConfigError("train and validation splits must be non-empty")
    arch = cfg.architecture
    n_features = train_split.features.shape[1]
    if n_features % arch.seq_len != 0:
        raise ConfigError(f"{n_features} features not divisible by seq_len {arch.seq_len}")
    input_dim = n_features // arch.seq_len

    root = np.random.SeedSequence(cfg.seed)
    init_ss, drop_ss, shuf_ss = root.spawn(3)
    layer_sizes = [input_dim] + [arch.hidden] * arch.layers
    net = init_params(layer_sizes, seed=int(init_ss.generate_state(1)[0]),
                      dropout_rate=arch.dropout, tied_output_gate=arch.tied_output_gate)

    ctx = TrainContext(cfg=cfg, val=val_split, dropout_rng=np.random.default_rng(drop_ss),
                       shuffle_rng=np.random.default_rng(shuf_ss))

    run = TrainRun()
    _run_phase(net, train_split, ctx, PHASE_DENSE)
    run.dense_params = net.copy()
    run.final_mask = _run_phase(net, train_split, ctx, PHASE_SPARSE)
    run.sparse_params = net.copy()
    _run_phase(net, train_split, ctx, PHASE_REDENSE, frozen_mask=run.final_mask)

    run.records = ctx.records
    run.mask_violations = ctx.mask_violations
    return net, run
