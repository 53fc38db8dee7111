"""Parameter updates: SGD with momentum and the L2 weight-decay term.

Functions operate on "parameter trees": ordered dicts mapping names to numpy
arrays. Training passes the network's row view (``NetworkParams.rows()``,
one row per gate tensor), and ``l2_term`` takes one of its 2-D arrays only.
The momentum step updates the parameter arrays and the momentum buffers in
place, so a tree of views trains its network directly. It stores the
previous parameter change and applies

    update = -eta * grad + alpha * previous_update

so a first step (or alpha=0) reduces to plain SGD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

ParamTree = dict[str, np.ndarray]


def _check_congruent(a: ParamTree, b: ParamTree, what: str) -> None:
    if a.keys() != b.keys():
        raise DimensionMismatch(f"{what}: key sets differ")
    for name in a:
        if a[name].shape != b[name].shape:
            raise DimensionMismatch(
                f"{what}: shape mismatch for '{name}': {a[name].shape} vs {b[name].shape}")


@dataclass
class SgdmState:
    """Momentum state: the previous per-tensor parameter change."""

    delta_prev: ParamTree
    alpha: float
    eta: float

    @classmethod
    def init(cls, params: ParamTree, alpha: float, eta: float) -> "SgdmState":
        return cls(delta_prev={name: np.zeros_like(arr) for name, arr in params.items()},
                   alpha=alpha, eta=eta)


def sgdm_step(theta: ParamTree, grad: ParamTree, state: SgdmState) -> None:
    """Momentum step, in place on ``theta`` and ``state.delta_prev``."""
    _check_congruent(theta, grad, "sgdm_step")
    _check_congruent(theta, state.delta_prev, "sgdm_step state")
    for name, delta in state.delta_prev.items():
        delta *= state.alpha
        delta -= state.eta * grad[name]
        theta[name] += delta


def l2_term(weights: np.ndarray, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """L2 penalty mu * sum(w^2) of each row of the 2-D ``weights`` and its
    gradient 2*mu*w. Each row is summed on its own, bit for bit its gate
    tensor's sum; the caller adds the rows in order and leaves out biases."""
    return mu * np.sum(weights * weights, axis=1), 2.0 * mu * weights
