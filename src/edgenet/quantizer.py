"""Post-training dynamic-range quantization of weights to signed int8.

Per-tensor affine mapping r ~ S * (q - Z) onto the full int8 range
[-128, 127]. Calibration widens each tensor's observed range to include 0
and maps its ends onto q = -128 and 127, so real 0 is exactly the zero
point (pruned weights stay exactly zero). As the container stores S as
float32, S * (q - Z) is exact in float64 and calibrates back to the same
S, Z and q: requantizing this module's int8 output reproduces its bytes.
Rounding is half-to-even. Biases are never quantized; activations and the
cell state stay in floating point at inference time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyTensor
from .lstm_net import (NetworkParams, forward_batch, is_weight_name, to_sequences,
                       zeros_params)
from .pruning import SparsityMask

Q_MIN = -128
Q_MAX = 127


@dataclass(frozen=True)
class QuantParams:
    scale: float
    zero_point: int

    def __post_init__(self):
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ConfigError(f"scale must be finite and > 0, got {self.scale}")
        if not Q_MIN <= self.zero_point <= Q_MAX:
            raise ConfigError(f"zero point {self.zero_point} outside [{Q_MIN}, {Q_MAX}]")


@dataclass
class QuantizedTensor:
    values: np.ndarray  # int8
    params: QuantParams


@dataclass
class QuantizedModel:
    """Int8 weight tensors plus float32 biases and the architecture shape."""

    weights: dict[str, QuantizedTensor]
    biases: dict[str, np.ndarray]
    layer_sizes: list[int]          # (input_dim, hidden_1, ..., hidden_L)
    dropout_rate: float = 0.1
    mask: SparsityMask | None = None


def quant_params(tensor: np.ndarray) -> QuantParams:
    """S = (f_max - f_min) / 255 and Z = round(-128 - f_min / S) over the range widened to
    include 0, so Z needs no clip; S = 0 in the file's float32 maps to S=1, Z=0."""
    if np.size(tensor) == 0:
        raise EmptyTensor("cannot calibrate an empty tensor")
    f_min, f_max = min(float(np.min(tensor)), 0.0), max(float(np.max(tensor)), 0.0)
    scale = (f_max - f_min) / (Q_MAX - Q_MIN)
    if np.float32(scale) == 0.0:
        return QuantParams(scale=1.0, zero_point=0)
    return QuantParams(scale=scale, zero_point=int(np.rint(Q_MIN - f_min / scale)))


def quantize(tensor: np.ndarray, params: QuantParams) -> QuantizedTensor:
    """q = clamp(round_half_even(r / S + Z), -128, 127)."""
    r = np.asarray(tensor, dtype=np.float64)
    q = np.rint(r / params.scale + params.zero_point)
    q = np.clip(q, Q_MIN, Q_MAX).astype(np.int8)
    return QuantizedTensor(values=q, params=params)


def dequantize(qt: QuantizedTensor) -> np.ndarray:
    """r = S * (q - Z), elementwise, in float64."""
    q = qt.values.astype(np.float64)
    return qt.params.scale * (q - qt.params.zero_point)


def quantize_model(net: NetworkParams, mask: SparsityMask | None = None) -> QuantizedModel:
    """Quantize every weight matrix per-tensor; keep biases as float32.

    A mask, when given, travels with the model so sparse containers can keep
    the bitmap encoding. A tensor holding NaN or +-inf is a ConfigError.
    """
    weights: dict[str, QuantizedTensor] = {}
    biases: dict[str, np.ndarray] = {}
    for name, arr in net.tensors().items():
        if not np.isfinite(arr).all():
            raise ConfigError(f"cannot quantize tensor '{name}': it holds NaN or inf")
        if is_weight_name(name):
            weights[name] = quantize(arr, quant_params(arr))
        else:
            biases[name] = np.asarray(arr, dtype=np.float32)
    return QuantizedModel(weights=weights, biases=biases, layer_sizes=net.layer_sizes,
                          dropout_rate=net.dropout_rate, mask=mask)


def dequantized_net(qm: QuantizedModel) -> NetworkParams:
    """Float network with weights r = S * (q - Z); the reference for load_model's."""
    template = zeros_params(qm.layer_sizes, dropout_rate=qm.dropout_rate)
    return template.with_tensors({name: dequantize(qt) for name, qt in qm.weights.items()}
                                 | qm.biases)


def quantized_scores(qm: QuantizedModel, x: np.ndarray) -> np.ndarray:
    """Eval probabilities for rows (B, F) or a batch (B, T, D); the int8 reference."""
    x = to_sequences(x, qm.layer_sizes[0])
    p, _ = forward_batch(dequantized_net(qm), x, mode="eval")
    return p
