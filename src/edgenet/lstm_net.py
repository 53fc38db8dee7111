"""Stacked LSTM with a sigmoid head: forward, BCE loss, and exact BPTT.

Each layer keeps its four gates in one stacked weight ``w`` [4H x (H+D)]
acting on the concatenation [h_prev, x_t], with row blocks forget f, input i,
candidate j and output o, plus one stacked bias ``b`` [4H]. A step is one
matmul forward and one pair of matmuls backward. Every gate, the output
gate included, has its own rows.

Every sequence starts from the zero state h_prev = c_prev = 0, so its first
step (t = 0, and at the default ``seq_len`` 1 the only step) is computed
without the forget gate, which multiplies c_prev, and without the recurrent
columns W[:, :H], which multiply h_prev: the step is
``x_0 @ W[H:, H:].T + b[H:]`` into a [B, 3H] gate array (i, j, o), and its
cache holds that array and no h_prev or c_prev. Backward at t = 0 likewise
touches only rows i, j, o and the input columns, so the f rows and W[:, :H]
get an exactly zero loss gradient from that step (at ``seq_len`` 1 only L2
and SWD move them). Steps t >= 1 use the full [4H] gate array.

``NetworkParams.tensors()`` views each gate block as ``layer{i}.w_{gate}``
and ``layer{i}.b_{gate}``, then ``head.w``, ``head.b``: the names containers,
masks and the quantizer store. ``NetworkParams.rows()``, which training runs
on, views one row per gate tensor in that order (``layer{i}.w`` (4, H*(H+D)),
``layer{i}.b`` (4, H), ``head.w`` (1, H), ``head.b`` (1, 1)). A row reduced
on its own gives its gate tensor's result bit for bit.

Dropout is the inverted kind and is applied to each layer's output stream
(the values fed upward to the next layer or the head), not to the in-layer
recurrence. Training math is float64 end to end.

Only a train-mode forward records the per-step cache that ``backward`` reads
(inputs, h_prev, c_prev, gates, tanh_c and dropout scales for every layer and
step). Eval mode, which every scoring path uses, records none of it and drops
each step's input once the step has used it, so it never holds more than one
layer's output sequence plus the step in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CacheMismatch, ConfigError, DimensionMismatch

ParamTree = dict[str, np.ndarray]

GATES = "fijo"  # row-block order of the stacked weight and bias

BCE_CLAMP = 1e-7


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function in its tanh form, stable for any input."""
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=np.float64)))


@dataclass
class LstmLayerParams:
    """One layer's stacked gate weights [4H x (H+D)] and biases [4H]."""

    w: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if self.w.ndim != 2 or self.w.shape[0] % 4 or self.w.shape[0] == 0:
            raise DimensionMismatch(f"stacked weight shape {self.w.shape} is not [4H x (H+D)]")
        if self.b.shape != (self.w.shape[0],):
            raise DimensionMismatch(f"bias shape {self.b.shape} != ({self.w.shape[0]},)")
        if self.w.shape[1] <= self.hidden_size:
            raise DimensionMismatch(
                f"weight matrix {self.w.shape} leaves no input columns for H={self.hidden_size}")

    @property
    def hidden_size(self) -> int:
        return self.w.shape[0] // 4

    @property
    def input_size(self) -> int:
        return self.w.shape[1] - self.hidden_size


@dataclass
class NetworkParams:
    """Full parameter set: stacked LSTM layers plus the sigmoid head."""

    layers: list[LstmLayerParams]
    head_w: np.ndarray  # [H_last]
    head_b: np.ndarray  # scalar, shape ()
    dropout_rate: float = 0.1

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("need at least one LSTM layer")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        for lo, hi in zip(self.layers, self.layers[1:]):
            if hi.input_size != lo.hidden_size:
                raise DimensionMismatch(
                    f"layer input {hi.input_size} != previous hidden {lo.hidden_size}")
        if self.head_w.shape != (self.layers[-1].hidden_size,):
            raise DimensionMismatch(
                f"head_w {self.head_w.shape} != ({self.layers[-1].hidden_size},)")
        self.head_b = np.asarray(self.head_b, dtype=np.float64).reshape(())

    @property
    def input_size(self) -> int:
        return self.layers[0].input_size

    @property
    def layer_sizes(self) -> list[int]:
        return [self.input_size] + [l.hidden_size for l in self.layers]

    def tensors(self) -> ParamTree:
        """All parameters as an ordered name -> array tree of views."""
        tree: ParamTree = {}
        for idx, layer in enumerate(self.layers):
            h = layer.hidden_size
            for kind, stacked in (("w", layer.w), ("b", layer.b)):
                for k, gate in enumerate(GATES):
                    tree[f"layer{idx}.{kind}_{gate}"] = stacked[k * h:(k + 1) * h]
        tree["head.w"] = self.head_w
        tree["head.b"] = self.head_b
        return tree

    def rows(self) -> ParamTree:
        """2-D views, one row per gate tensor in ``tensors()`` order."""
        tree = {f"layer{idx}.{k}": getattr(layer, k).reshape(4, -1)
                for idx, layer in enumerate(self.layers) for k in ("w", "b")}
        return tree | {"head.w": self.head_w.reshape(1, -1), "head.b": self.head_b.reshape(1, 1)}

    def with_tensors(self, tree: ParamTree) -> "NetworkParams":
        """New NetworkParams of this shape holding copies of a congruent tree."""
        net = zeros_params(self.layer_sizes, dropout_rate=self.dropout_rate)
        for name, view in net.tensors().items():
            if np.shape(tree[name]) != view.shape:
                raise DimensionMismatch(
                    f"'{name}' has shape {np.shape(tree[name])}, expected {view.shape}")
            view[...] = tree[name]
        return net

    def copy(self) -> "NetworkParams":
        return self.with_tensors(self.tensors())

    def weight_names(self) -> list[str]:
        """Names of the prunable tensors: every weight matrix plus head.w."""
        return [n for n in self.tensors() if is_weight_name(n)]


def is_weight_name(name: str) -> bool:  # layer0.w_f, layer0.w or head.w
    leaf = name.rsplit(".", 1)[-1]
    return leaf.startswith("w")


def stack_rows(tree: ParamTree) -> ParamTree:
    """Per-gate arrays (e.g. masks) in the ``rows()`` layout, rows in tree order."""
    rows: dict[str, list] = {}
    for name, arr in tree.items():
        rows.setdefault(name.split("_")[0], []).append(np.ravel(arr))
    return {name: np.stack(group) for name, group in rows.items()}


def zeros_params(layer_sizes, dropout_rate: float = 0.1) -> NetworkParams:
    """All-zero parameter set; ``layer_sizes`` is (input_dim, hidden_1, ..., hidden_L)."""
    sizes = list(layer_sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ConfigError(f"layer_sizes needs input plus >=1 positive hidden size, got {sizes}")
    layers = [LstmLayerParams(w=np.zeros((4 * h, h + d)), b=np.zeros(4 * h))
              for d, h in zip(sizes[:-1], sizes[1:])]
    return NetworkParams(layers=layers, head_w=np.zeros(sizes[-1]), head_b=np.zeros(()),
                         dropout_rate=dropout_rate)


def init_params(layer_sizes, seed: int, dropout_rate: float = 0.1) -> NetworkParams:
    """Glorot-normal weights, std = sqrt(2 / (fan_in + fan_out)) per gate
    block and for the head; biases start at zero."""
    net = zeros_params(layer_sizes, dropout_rate=dropout_rate)
    rng = np.random.default_rng(seed)
    for layer in net.layers:
        fan_in, fan_out = layer.w.shape[1], layer.hidden_size
        layer.w[...] = rng.normal(0.0, np.sqrt(2.0 / (fan_in + fan_out)), size=layer.w.shape)
    h_last = net.head_w.size
    net.head_w[...] = rng.normal(0.0, np.sqrt(2.0 / (h_last + 1)), size=h_last)
    return net


# --- forward ---

@dataclass
class LayerCache:
    inputs: list = field(default_factory=list)    # x_t after lower dropout, (B, D)
    h_prev: list = field(default_factory=list)    # (B, H); undropped recurrence, None at t = 0
    c_prev: list = field(default_factory=list)
    gates: list = field(default_factory=list)     # activated f, i, j, o (B, 4H); i, j, o (B, 3H) at t = 0
    tanh_c: list = field(default_factory=list)
    out_scale: list = field(default_factory=list)  # inverted-dropout mask or None


@dataclass
class ForwardCache:
    mode: str
    layers: list[LayerCache]  # one per layer in train mode, empty in eval mode
    head_input: np.ndarray  # (B, H_last), post-dropout
    p: np.ndarray           # (B,)
    batch_size: int
    seq_len: int


def _gate_scale(hdim: int) -> np.ndarray:
    """0.5 on the sigmoid blocks (f, i, o) and 1 on the tanh block j, so that
    s * tanh(s * x) + (1 - s) is sigmoid(x) = 0.5 * (1 + tanh(x / 2)) or tanh(x)."""
    s = np.full(4 * hdim, 0.5)
    s[2 * hdim:3 * hdim] = 1.0
    return s


def _cell_math(layer: LstmLayerParams, x_t, h_prev, c_prev):
    """One step for a batch. Returns (h, c, gates, tanh_c) with ``gates`` the
    activated [B, 4H] array: blocks f, i, j and o.

    ``h_prev = c_prev = None`` is the zero state of a sequence's first step:
    the forget gate multiplies c_prev = 0 and the recurrent columns W[:, :H]
    multiply h_prev = 0, so only the i, j and o rows are computed, from the
    input columns, and ``gates`` is [B, 3H] with blocks i, j, o.
    """
    hdim = layer.hidden_size
    s = _gate_scale(hdim)
    if h_prev is None:
        s = s[hdim:]
        gates = x_t @ layer.w[hdim:, hdim:].T
        gates += layer.b[hdim:]
    else:
        gates = np.concatenate([h_prev, x_t], axis=1) @ layer.w.T
        gates += layer.b
    gates *= s
    np.tanh(gates, out=gates)
    gates *= s
    gates += 1.0 - s
    i, j, o = np.split(gates[:, -3 * hdim:], 3, axis=1)
    c = i * j
    # f * c_prev + i * j; on the zero state + 0.0 still turns -0 into +0.
    c += 0.0 if c_prev is None else gates[:, :hdim] * c_prev
    tanh_c = np.tanh(c)
    return o * tanh_c, c, gates, tanh_c


def forward_batch(net: NetworkParams, x: np.ndarray, mode: str = "eval",
                  rng: np.random.Generator | None = None) -> tuple[np.ndarray, ForwardCache]:
    """Run a batch of sequences (B, T, D) through the stack and head.

    Initial hidden and cell states are zero. In train mode each layer's
    output stream gets an independent inverted dropout mask per element,
    drawn from ``rng``, and the returned cache holds every layer's per-step
    values for ``backward``. Eval mode records no step cache (its
    ``ForwardCache.layers`` is empty, which ``backward`` rejects) and drops
    each layer's input sequence step by step as it is consumed.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise DimensionMismatch(f"expected (batch, time, features), got shape {x.shape}")
    if x.shape[2] != net.input_size:
        raise DimensionMismatch(f"{x.shape[2]} features, network wants {net.input_size}")
    batch, seq_len = x.shape[0], x.shape[1]
    rate = net.dropout_rate if mode == "train" else 0.0
    if rate > 0.0 and rng is None:
        raise ConfigError("train-mode forward with dropout needs an rng")

    caches: list[LayerCache] = []
    cur = [x[:, t, :] for t in range(seq_len)]
    for layer in net.layers:
        lc = LayerCache()
        hdim = layer.hidden_size
        h = c = None  # zero state
        outs = []
        for t in range(seq_len):
            inp, cur[t] = cur[t], None  # the cache, if any, holds the only reference
            h_prev, c_prev = h, c
            h, c, gates, tanh_c = _cell_math(layer, inp, h, c)
            scale = None
            if rate > 0.0:
                keep = (rng.random((batch, hdim)) >= rate)
                scale = keep / (1.0 - rate)
            if mode == "train":
                lc.inputs.append(inp)
                lc.h_prev.append(h_prev)
                lc.c_prev.append(c_prev)
                lc.gates.append(gates)
                lc.tanh_c.append(tanh_c)
                lc.out_scale.append(scale)
            outs.append(h if scale is None else h * scale)
        if mode == "train":
            caches.append(lc)
        cur = outs

    head_input = cur[-1]
    p = sigmoid(head_input @ net.head_w + net.head_b)
    cache = ForwardCache(mode=mode, layers=caches, head_input=head_input, p=p,
                         batch_size=batch, seq_len=seq_len)
    return p, cache


def bce_loss(p, y):
    """Binary cross-entropy with probabilities clamped to [1e-7, 1 - 1e-7]."""
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    pc = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    loss = -(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))
    return float(loss) if loss.ndim == 0 else loss


def backward(net: NetworkParams, cache: ForwardCache, y) -> NetworkParams:
    """Gradients of the mean BCE loss over the cached batch, as a network.

    The cache must come from a train-mode forward on this architecture.
    """
    if cache.mode != "train":
        raise CacheMismatch("backward needs a train-mode forward cache")
    if len(cache.layers) != len(net.layers):
        raise CacheMismatch("cache does not match the network architecture")
    for lc, layer in zip(cache.layers, net.layers):
        if lc.tanh_c[0].shape[1] != layer.hidden_size:
            raise CacheMismatch("cache hidden sizes do not match the network")

    batch = cache.batch_size
    seq_len = cache.seq_len
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if y.shape != (batch,):
        raise DimensionMismatch(f"labels shape {y.shape} != ({batch},)")

    grads = zeros_params(net.layer_sizes, dropout_rate=net.dropout_rate)

    # Head: d(mean loss)/d(pre-sigmoid) collapses to (p - y) / B wherever the
    # clamp is inactive; a clamped probability contributes zero gradient.
    p = cache.p
    live = (p > BCE_CLAMP) & (p < 1.0 - BCE_CLAMP)
    du = np.where(live, p - y, 0.0) / batch  # (B,)
    grads.head_w[...] = du @ cache.head_input
    grads.head_b[...] = np.sum(du)
    d_out_top = np.outer(du, net.head_w)  # (B, H_last)

    # Gradient flowing into each layer's output stream, per timestep.
    d_out = [np.zeros_like(d_out_top) for _ in range(seq_len)]
    d_out[seq_len - 1] = d_out_top

    for idx in range(len(net.layers) - 1, -1, -1):
        layer, lc, g_layer = net.layers[idx], cache.layers[idx], grads.layers[idx]
        hdim = layer.hidden_size
        d_inputs = [None] * seq_len
        dh_rec = np.zeros((batch, hdim))
        dc_next = np.zeros((batch, hdim))
        for t in range(seq_len - 1, -1, -1):
            scale = lc.out_scale[t]
            dh = (d_out[t] * scale if scale is not None else d_out[t]) + dh_rec
            gates, tanh_c = lc.gates[t], lc.tanh_c[t]
            # H at t = 0, whose zero state reached only rows i, j, o through
            # the input columns: f and W[:, :H] get no loss gradient there.
            skip = 4 * hdim - gates.shape[1]
            i_, j_, o_ = (slice(k * hdim - skip, (k + 1) * hdim - skip) for k in (1, 2, 3))
            dc = dc_next + dh * gates[:, o_] * (1.0 - tanh_c * tanh_c)
            # d(loss)/d(gate activation), then through sigmoid or tanh
            d_pre = np.empty_like(gates)
            d_pre[:, i_] = dc * gates[:, j_]
            d_pre[:, j_] = dc * gates[:, i_]
            d_pre[:, o_] = dh * tanh_c
            if t:
                d_pre[:, :hdim] = dc * lc.c_prev[t]
                dc_next = dc * gates[:, :hdim]
                step_in = np.concatenate([lc.h_prev[t], lc.inputs[t]], axis=1)
            else:
                step_in = lc.inputs[0]
            slope = gates * (1.0 - gates)
            slope[:, j_] = 1.0 - gates[:, j_] * gates[:, j_]
            d_pre *= slope
            g_layer.w[skip:, skip:] += d_pre.T @ step_in
            g_layer.b[skip:] += d_pre.sum(axis=0)
            d_step_in = d_pre @ layer.w[skip:, skip:]
            dh_rec, d_inputs[t] = d_step_in[:, :hdim - skip], d_step_in[:, hdim - skip:]
        d_out = d_inputs
    return grads


def scores(net: NetworkParams, x: np.ndarray) -> np.ndarray:
    """Eval-mode probabilities for a batch (B, T, D) or feature matrix (B, D)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:
        x = x[:, None, :]
    p, _ = forward_batch(net, x, mode="eval")
    return p
