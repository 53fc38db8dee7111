"""Three-phase training: dense, sparse with selective weight decay, re-dense.

One epoch loop, ``_run_phase``, serves all three phases, and one
``TrainRun`` record carries the run's state through them: config, PRNG
streams, epoch records, checkpoints and the sparse phase's final mask,
whose sparsity the re-dense phase reports. Every batch step runs in place on
the network's 2L+2 stacked arrays (``NetworkParams.rows()``, one row per
gate tensor); penalties and the clipping norm are reduced row by row and
added in ``tensors()`` order, which keeps outputs byte-identical to a loop
over the gate tensors. Each phase runs momentum SGD at its own learning
rate with a shared momentum and fresh momentum buffers. The sparse phase
recomputes the per-gate magnitude mask every epoch along a linear sparsity
ramp, re-applies it after every optimizer step, and adds the selective
penalty a*TWD on the sub-threshold survivor subset. The re-dense phase
lifts the mask so pruned weights resume training from zero.

Reported train loss per epoch decomposes as err + wd + a_twd (batch means).
Validation loss is plain BCE. Early stopping on validation AUC restores the
best epoch's weights in the dense and re-dense phases; the sparse phase
always runs its whole ramp to the final sparsity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .data_pipeline import DatasetSplit
from .errors import ConfigError, NonFiniteLoss, SingleClassInput
from .lstm_net import (NetworkParams, backward, bce_loss, forward_batch,
                       init_params, is_weight_name, scores, stack_rows, to_sequences)
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
    """One run's state: config, validation split, PRNG streams, the epoch
    records, the sparse phase's final mask, the two checkpoints and the
    mask-violation count."""

    cfg: RunConfig
    val: DatasetSplit | None
    dropout_rng: np.random.Generator
    shuffle_rng: np.random.Generator
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


def _clip_global_norm(grads: ParamTree, clip: float) -> float:
    """Scale the gradients in place so their global L2 norm is at most
    ``clip``, and return the norm before scaling. Squares that overflow give
    an inf norm, which the caller must report as divergence; such a norm
    scales nothing, since ``clip / inf`` would zero every gradient and
    freeze training silently."""
    sq = 0.0  # a plain loop: the built-in sum() of floats is compensated from Python 3.12 on
    for g in grads.values():
        for v in np.sum(g * g, axis=1).tolist():
            sq += v
    total = np.sqrt(sq)
    if np.isfinite(total) and total > clip:
        for g in grads.values():
            g *= clip / total
    return total


def _validate(net: NetworkParams, run: TrainRun) -> tuple[float, float]:
    if run.val is None or len(run.val) == 0:
        return float("nan"), float("nan")
    p = scores(net, run.val.features)
    loss = float(np.mean(bce_loss(p, run.val.labels.astype(np.float64))))
    try:
        auc = roc_curve(p, run.val.labels).auc
    except SingleClassInput:
        auc = float("nan")
    return loss, auc


def _run_phase(net: NetworkParams, data: DatasetSplit, run: TrainRun, phase: str) -> None:
    """Shared epoch loop; trains ``net`` in place with the settings
    ``run.cfg`` gives ``phase``. The sparse phase leaves its final mask in
    ``run.final_mask``; the re-dense phase reports that mask's sparsity."""
    cfg, swd = getattr(run.cfg.phases, phase), run.cfg.pruning
    rows = net.rows()
    weights = [k for k in rows if is_weight_name(k)]
    state = SgdmState.init(rows, alpha=run.cfg.phases.momentum, eta=cfg.learning_rate)
    x_seq = to_sequences(data.features, net.input_size)
    y = data.labels.astype(np.float64)
    n = len(y)

    best_metric = -np.inf
    best_rows = None
    stall = 0

    for e in range(cfg.epochs):
        a = 0.0
        if phase == PHASE_SPARSE:
            sparsity = schedule_sparsity(e, swd, cfg.epochs)
            tree = net.tensors()
            run.final_mask = compute_masks({k: tree[k] for k in net.weight_names()}, sparsity)
            keep = SparsityMask(stack_rows(run.final_mask.masks))
            apply_masks(rows, keep)
            a = schedule_a(e, swd)
            report_sparsity = sparsity
        elif phase == PHASE_REDENSE:
            report_sparsity = run.final_mask.zero_fraction() if run.final_mask else 0.0
        else:
            report_sparsity = 0.0

        order = run.shuffle_rng.permutation(n)
        err_sum = wd_sum = twd_sum = 0.0
        n_batches = 0
        for start in range(0, n, cfg.batch_size):
            # overflow only shows as a non-finite loss or clip norm, checked below
            with np.errstate(over="ignore", invalid="ignore"):
                idx = order[start:start + cfg.batch_size]
                p, cache = forward_batch(net, x_seq[idx], mode="train", rng=run.dropout_rng)
                err = float(np.mean(bce_loss(p, y[idx])))
                grads = backward(net, cache, y[idx]).rows()

                wd_pen = 0.0
                for k in weights:
                    pens, g = l2_term(rows[k], swd.mu)
                    grads[k] += g
                    for pen in pens.tolist():
                        wd_pen += pen

                twd_pen = 0.0
                if phase == PHASE_SPARSE:
                    for k in weights:
                        sel = select_swd_subset(rows[k], a, swd.target_threshold)
                        twd, gvals = total_weight_decay(rows[k], sel, swd.mu)
                        grads[k][sel] += a * gvals
                        for pen in twd.tolist():
                            twd_pen += pen

                loss = err + wd_pen + a * twd_pen
                if not np.isfinite(loss):
                    raise NonFiniteLoss(f"{phase} phase diverged at epoch {e} (loss={loss})")

                if run.cfg.grad_clip_norm is not None:
                    norm = _clip_global_norm(grads, run.cfg.grad_clip_norm)
                    if not np.isfinite(norm):
                        raise NonFiniteLoss(f"{phase} phase diverged at epoch {e} "
                                            f"(gradient norm={norm})")
                sgdm_step(rows, grads, state)
                if phase == PHASE_SPARSE:
                    apply_masks(rows, keep)
                    for k, m in keep.masks.items():
                        # one violation per gate tensor (row) with a nonzero pruned entry
                        stray = (rows[k] != 0.0) & (m == 0)
                        run.mask_violations += int(np.count_nonzero(stray.any(axis=1)))

            err_sum += err
            wd_sum += wd_pen
            twd_sum += a * twd_pen
            n_batches += 1

        val_loss, val_auc = _validate(net, run)
        err_m, wd_m, twd_m = err_sum / n_batches, wd_sum / n_batches, twd_sum / n_batches
        run.records.append(EpochRecord(
            epoch=len(run.records), phase=phase, train_loss=err_m + wd_m + twd_m,
            err=err_m, wd=wd_m, a_twd=twd_m, val_loss=val_loss, val_auc=val_auc,
            sparsity=report_sparsity, a=a))

        if phase != PHASE_SPARSE and run.val is not None:
            metric = val_auc if np.isfinite(val_auc) else -np.inf
            if metric > best_metric:
                best_metric = metric
                best_rows = {k: v.copy() for k, v in rows.items()}
                stall = 0
            else:
                stall += 1
                if stall >= run.cfg.early_stop.patience:
                    break

    if best_rows is not None:
        for k, v in best_rows.items():
            rows[k][...] = v


def train_dsd(cfg: RunConfig, train_split: DatasetSplit,
              val_split: DatasetSplit) -> tuple[NetworkParams, TrainRun]:
    """Run all three phases in order; fully deterministic given ``cfg.seed``."""
    if len(train_split) == 0 or len(val_split) == 0:
        raise ConfigError("train and validation splits must be non-empty")
    arch = cfg.architecture
    n_features = train_split.features.shape[1]
    if val_split.features.shape[1] != n_features:
        raise ConfigError(f"validation split has {val_split.features.shape[1]} features, "
                          f"train split {n_features}")
    if n_features % arch.seq_len != 0:
        raise ConfigError(f"{n_features} features not divisible by seq_len {arch.seq_len}")
    input_dim = n_features // arch.seq_len

    root = np.random.SeedSequence(cfg.seed)
    init_ss, drop_ss, shuf_ss = root.spawn(3)
    layer_sizes = [input_dim] + [arch.hidden] * arch.layers
    net = init_params(layer_sizes, seed=int(init_ss.generate_state(1)[0]),
                      dropout_rate=arch.dropout)

    run = TrainRun(cfg=cfg, val=val_split, dropout_rng=np.random.default_rng(drop_ss),
                   shuffle_rng=np.random.default_rng(shuf_ss))
    _run_phase(net, train_split, run, PHASE_DENSE)
    run.dense_params = net.copy()
    _run_phase(net, train_split, run, PHASE_SPARSE)
    run.sparse_params = net.copy()
    _run_phase(net, train_split, run, PHASE_REDENSE)
    return net, run
