"""Magnitude pruning and the selective-weight-decay penalty.

A tensor with N entries at sparsity s keeps its k = ceil(N * (1 - s))
largest magnitudes, floored at 1 so at least one weight always survives.
Among equal magnitudes the lowest flat indices survive; ``compute_mask``
takes any shape as one tensor. The selective-weight-decay functions take
rows (2-D: one tensor per row, as ``NetworkParams.rows()``; 1-D: one tensor),
so flatten a per-gate matrix first. Each row is summed on its own, in flat
order, which keeps training byte-identical to a loop over the gate tensors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import Pruning
from .errors import ConfigError, DimensionMismatch, EmptyTensor, EpochOutOfRange

ParamTree = dict[str, np.ndarray]


@dataclass
class SparsityMask:
    """Binary keep-masks (1 = survivor) for each prunable tensor."""

    masks: dict[str, np.ndarray] = field(default_factory=dict)

    def zero_fraction(self) -> float:
        total = sum(m.size for m in self.masks.values())
        zeros = sum(m.size - int(m.sum()) for m in self.masks.values())
        return zeros / total if total else 0.0


def _survivor_count(n: int, sparsity: float) -> int:
    k = int(np.ceil(n * (1.0 - sparsity)))
    return max(k, 1)


def compute_mask(w: np.ndarray, sparsity: float) -> np.ndarray:
    """Keep-mask of the ceil(N * (1 - sparsity)) largest |w|; among equal
    magnitudes the lowest flat indices survive."""
    w = np.asarray(w)
    if w.size == 0:
        raise EmptyTensor("cannot prune an empty tensor")
    if not 0.0 <= sparsity < 1.0:
        raise ConfigError(f"sparsity must be in [0, 1), got {sparsity}")
    k = _survivor_count(w.size, sparsity)
    mask = np.zeros(w.size, dtype=np.uint8)
    mask[np.argsort(-np.abs(w), axis=None, kind="stable")[:k]] = 1
    return mask.reshape(w.shape)


def compute_masks(weights: ParamTree, sparsity: float) -> SparsityMask:
    """Per-tensor masks at one uniform sparsity across all prunable tensors."""
    masks = {name: compute_mask(w, sparsity) for name, w in weights.items()}
    return SparsityMask(masks=masks)


def apply_mask(w: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Zero the pruned entries. Uses where() so results are bitwise +0.0."""
    w = np.asarray(w)
    mask = np.asarray(mask)
    if w.shape != mask.shape:
        raise DimensionMismatch(f"weight {w.shape} vs mask {mask.shape}")
    return np.where(mask.astype(bool), w, 0.0)


def apply_masks(tree: ParamTree, sm: SparsityMask) -> ParamTree:
    """Zero the pruned entries of every masked tensor in place; returns the tree."""
    for name, mask in sm.masks.items():
        tree[name][...] = apply_mask(tree[name], mask)
    return tree


def _rows(w: np.ndarray) -> np.ndarray:
    if w.ndim not in (1, 2):
        raise DimensionMismatch(f"need one tensor (1-D) or rows (2-D), got shape {w.shape}")
    return w.reshape(-1, w.shape[-1])


def select_swd_subset(w: np.ndarray, mask: np.ndarray, a: float,
                      t: float) -> np.ndarray:
    """Selection mask of the decay target W* in each row of ``w``: of the m
    survivors with |w| > a, the ceil(t * m) smallest magnitudes (ties broken
    by flat index), which SWD pushes to 0.
    """
    if a < 0.0:
        raise ConfigError(f"a must be >= 0, got {a}")
    if not 0.0 < t <= 1.0:
        raise ConfigError(f"t must be in (0, 1], got {t}")
    w = np.asarray(w)
    mask = np.asarray(mask)
    if w.shape != mask.shape:
        raise DimensionMismatch(f"weight {w.shape} vs mask {mask.shape}")

    mag = np.abs(_rows(w))
    candidates = mask.astype(bool).reshape(mag.shape) & (mag > a)
    sel = np.zeros_like(candidates)
    for row, cand, out in zip(mag, candidates, sel):
        idx = np.flatnonzero(cand)
        out[idx[np.argsort(row[idx], kind="stable")[:int(np.ceil(t * idx.size))]]] = True
    return sel.reshape(w.shape)


def total_weight_decay(w: np.ndarray, sel: np.ndarray,
                       mu: float) -> tuple[np.ndarray, np.ndarray]:
    """TWD = mu * sum(w^2) over each row's selection, and its gradient 2*mu*w
    at ``w[sel]``. The caller scales both by a and adds the rows in order."""
    if mu < 0.0:
        raise ConfigError(f"mu must be >= 0, got {mu}")
    w = np.asarray(w, dtype=np.float64)
    sel = np.asarray(sel, dtype=bool)
    sq = _rows(w * w)
    sums = np.array([np.sum(q[k]) for q, k in zip(sq, sel.reshape(sq.shape))])
    return mu * sums.reshape(w.shape[:-1]), 2.0 * mu * w[sel]


def schedule_sparsity(epoch: int, pruning: Pruning, epochs: int) -> float:
    """Linear ramp from initial to final sparsity over ``epochs`` epochs."""
    if not 0 <= epoch < epochs:
        raise EpochOutOfRange(f"epoch {epoch} outside [0, {epochs})")
    if epochs == 1:
        return pruning.final_sparsity
    return (pruning.initial_sparsity
            + (pruning.final_sparsity - pruning.initial_sparsity) * epoch / (epochs - 1))


def schedule_a(epoch: int, pruning: Pruning) -> float:
    """Geometric growth a0 * growth^epoch, capped at the target threshold T."""
    if epoch < 0:
        raise EpochOutOfRange(f"epoch must be >= 0, got {epoch}")
    return min(pruning.a0 * pruning.a_growth ** epoch, pruning.target_threshold)
