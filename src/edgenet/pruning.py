"""Magnitude pruning and the selective-weight-decay penalty.

The threshold for a tensor with N entries at sparsity s is the k-th largest
absolute value, k = ceil(N * (1 - s)), floored at 1 so at least one weight
always survives. Ties at the threshold are resolved deterministically: the
lowest flat indices keep their spot, later ties are demoted until exactly k
survive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionMismatch, EmptyTensor, EpochOutOfRange

ParamTree = dict[str, np.ndarray]


@dataclass
class SparsityMask:
    """Binary keep-masks (1 = survivor) for each prunable tensor."""

    masks: dict[str, np.ndarray] = field(default_factory=dict)
    current_sparsity: float = 0.0

    def survivor_counts(self) -> dict[str, int]:
        return {name: int(m.sum()) for name, m in self.masks.items()}

    def zero_fraction(self) -> float:
        total = sum(m.size for m in self.masks.values())
        zeros = sum(m.size - int(m.sum()) for m in self.masks.values())
        return zeros / total if total else 0.0


@dataclass(frozen=True)
class SwdConfig:
    """Selective-weight-decay knobs: a grows geometrically, capped at T."""

    a0: float = 0.001
    a_growth: float = 1.2
    target_threshold: float = 0.5  # T
    mu: float = 1e-4

    def __post_init__(self):
        if self.a0 <= 0.0:
            raise ConfigError(f"a0 must be > 0, got {self.a0}")
        if self.a_growth <= 1.0:
            raise ConfigError(f"a_growth must be > 1, got {self.a_growth}")
        if not 0.0 < self.target_threshold <= 1.0:
            raise ConfigError(f"T must be in (0, 1], got {self.target_threshold}")
        if self.mu < 0.0:
            raise ConfigError(f"mu must be >= 0, got {self.mu}")


@dataclass(frozen=True)
class SparsitySchedule:
    """Linear ramp of the pruned fraction across the sparse-phase epochs."""

    initial: float = 0.25
    final: float = 0.8
    epochs: int = 30

    def __post_init__(self):
        if not 0.0 <= self.initial <= self.final < 1.0:
            raise ConfigError(
                f"need 0 <= initial <= final < 1, got ({self.initial}, {self.final})")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")


def _survivor_count(n: int, sparsity: float) -> int:
    k = int(np.ceil(n * (1.0 - sparsity)))
    return max(k, 1)


def magnitude_threshold(w: np.ndarray, sparsity: float) -> float:
    """k-th largest |w| with k = ceil(N * (1 - sparsity)); weights below it prune."""
    w = np.asarray(w)
    if w.size == 0:
        raise EmptyTensor("cannot threshold an empty tensor")
    if not 0.0 <= sparsity < 1.0:
        raise ConfigError(f"sparsity must be in [0, 1), got {sparsity}")
    k = _survivor_count(w.size, sparsity)
    mags = np.sort(np.abs(w), axis=None)[::-1]
    return float(mags[k - 1])


def compute_mask(w: np.ndarray, sparsity: float) -> np.ndarray:
    """Keep-mask with exactly ceil(N * (1 - sparsity)) survivors.

    Survivors are |w| >= threshold; ties at the threshold keep the lowest
    flat indices and demote the rest.
    """
    w = np.asarray(w)
    lam = magnitude_threshold(w, sparsity)  # validates inputs
    k = _survivor_count(w.size, sparsity)
    flat_mag = np.abs(w).ravel()
    mask = (flat_mag >= lam)
    excess = int(mask.sum()) - k
    if excess > 0:
        tied = np.flatnonzero(flat_mag == lam)
        mask[tied[-excess:]] = False
    return mask.astype(np.uint8).reshape(w.shape)


def compute_masks(weights: ParamTree, sparsity: float) -> SparsityMask:
    """Per-tensor masks at one uniform sparsity across all prunable tensors."""
    masks = {name: compute_mask(w, sparsity) for name, w in weights.items()}
    return SparsityMask(masks=masks, current_sparsity=sparsity)


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


def select_swd_subset(w: np.ndarray, mask: np.ndarray, a: float,
                      t: float) -> tuple[np.ndarray, np.ndarray]:
    """Pick the decay target W*: survivors with |w| > a, lower t-quantile.

    Returns (selection mask, selected values). Of the m survivors that pass
    the |w| > a sub-mask, the ceil(t * m) smallest magnitudes are selected
    (ties broken by flat index), i.e. the weights SWD pushes toward zero.
    """
    if a < 0.0:
        raise ConfigError(f"a must be >= 0, got {a}")
    if not 0.0 < t <= 1.0:
        raise ConfigError(f"t must be in (0, 1], got {t}")
    w = np.asarray(w)
    mask = np.asarray(mask)
    if w.shape != mask.shape:
        raise DimensionMismatch(f"weight {w.shape} vs mask {mask.shape}")

    flat_w = w.ravel()
    candidates = np.flatnonzero(mask.astype(bool).ravel() & (np.abs(flat_w) > a))
    sel = np.zeros(w.size, dtype=bool)
    if candidates.size:
        take = int(np.ceil(t * candidates.size))
        order = np.lexsort((candidates, np.abs(flat_w[candidates])))
        sel[candidates[order[:take]]] = True
    sel = sel.reshape(w.shape)
    return sel, w[sel]


def total_weight_decay(w_star: np.ndarray, mu: float) -> tuple[float, np.ndarray]:
    """TWD = mu * sum(w^2) over the selected subset, with gradient 2*mu*w.

    The caller scales both by the coefficient a before adding them to the
    loss and gradient.
    """
    if mu < 0.0:
        raise ConfigError(f"mu must be >= 0, got {mu}")
    vals = np.asarray(w_star, dtype=np.float64)
    twd = float(mu * np.sum(vals * vals))
    return twd, 2.0 * mu * vals


def schedule_sparsity(epoch: int, sched: SparsitySchedule) -> float:
    """Linear ramp from initial to final over the scheduled epochs."""
    if not 0 <= epoch < sched.epochs:
        raise EpochOutOfRange(f"epoch {epoch} outside [0, {sched.epochs})")
    if sched.epochs == 1:
        return sched.final
    return sched.initial + (sched.final - sched.initial) * epoch / (sched.epochs - 1)


def schedule_a(epoch: int, cfg: SwdConfig) -> float:
    """Geometric growth a0 * growth^epoch, capped at the target threshold T."""
    if epoch < 0:
        raise EpochOutOfRange(f"epoch must be >= 0, got {epoch}")
    return min(cfg.a0 * cfg.a_growth ** epoch, cfg.target_threshold)
