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
``x_0 @ W[H:, H:].T + b[H:]`` into a [B, 3H] gate array (i, j, o). Backward
at t = 0 likewise touches only rows i, j, o and the input columns, so the f
rows and W[:, :H] get an exactly zero loss gradient from that step (at
``seq_len`` 1 only L2 and SWD move them). Steps t >= 1 use the full [4H]
gate array. Forward and backward both know the zero state by
``c_prev is None`` and slice the same H rows and columns off.

``NetworkParams.tensors()`` views each gate block as ``layer{i}.w_{gate}``
and ``layer{i}.b_{gate}``, then ``head.w``, ``head.b``: the names containers,
masks and the quantizer store. ``NetworkParams.rows()``, which training runs
on, views one row per gate tensor in that order (``layer{i}.w`` (4, H*(H+D)),
``layer{i}.b`` (4, H), ``head.w`` (1, H), ``head.b`` (1, 1)). A row reduced
on its own gives its gate tensor's result bit for bit.

Dropout is the inverted kind and is applied to each layer's output stream
(the values fed upward to the next layer or the head), not to the in-layer
recurrence. Training math is float64 end to end.

Only a train-mode forward records what ``backward`` reads: one tuple
(step_in, c_prev, gates, tanh_c, out_scale) per layer and step, where
step_in is the very array the step multiplied by the stacked weight (x_0,
then [h_prev, x_t]), and the head input. Eval mode, which every scoring path
uses, records none of it (no step records, no head input). It scores a batch
in blocks of ``EVAL_BLOCK_ROWS`` rows, replaces each layer's input sequence
of a block step by step with its output and carries only h and c from one
step to the next, so each block in flight holds only its layer sequence
plus the step being computed, whatever the batch size. A batch of more than
one block is scored on the CPUs the process may use: the calling thread and
up to one helper thread per further CPU each take the next unscored block,
and the block scores are joined in block order. Rows are independent and
each block's arithmetic is the same on any thread, so the scores are those
of the whole batch, bit for bit, on any number of CPUs.
"""

from __future__ import annotations

import contextvars
import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import CacheMismatch, ConfigError, DimensionMismatch

ParamTree = dict[str, np.ndarray]

GATES = "fijo"  # row-block order of the stacked weight and bias

BCE_CLAMP = 1e-7

# Rows per block of an eval forward. Scoring an (8000, 6, 7) batch through a
# 3x32 net on a 2-vCPU VM (one BLAS thread, two workers, 21 interleaved runs)
# took a median 128 ms in blocks of 128 rows, 98 ms at 256, 93 ms at 512 and
# 107 ms at 1024; the quartiles of 256 and 512 overlap (95-111 and 88-107
# ms). The tracemalloc peak was 1.4, 2.4, 5.0-5.4 and 8.7-11 MB, and 3.3 MB
# at 512 on one thread: two 256-row blocks in flight hold less than one
# 512-row block did. On one CPU the two sizes were within noise (medians of
# 10 alternating processes, 154-165 ms for either). Each further worker
# holds one more block. The last block takes the remainder (256 to 511 rows),
# because OpenBLAS multiplies a block of a dozen rows or fewer with kernels
# that sum in another order; block starts at multiples of 256 group rows as
# the whole batch does, so every score keeps its bits.
EVAL_BLOCK_ROWS = 256


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
    try:
        layers = [LstmLayerParams(w=np.zeros((4 * h, h + d)), b=np.zeros(4 * h))
                  for d, h in zip(sizes[:-1], sizes[1:])]
    except (MemoryError, ValueError) as exc:  # ValueError: "array is too big"
        raise ConfigError(f"cannot allocate layer sizes {sizes}: {exc}") from None
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
class ForwardCache:
    # train mode: per layer, per step (step_in, c_prev, gates, tanh_c, out_scale);
    # step_in is the array the stacked weight multiplied, c_prev None at t = 0
    # and out_scale the inverted-dropout mask or None. Eval mode, which holds
    # one block of rows at a time and keeps none of it: [].
    steps: list[list[tuple]]
    head_input: np.ndarray | None  # (B, H_last), post-dropout; None in eval mode
    p: np.ndarray                  # (B,)


@functools.cache
def _gate_scale(hdim: int) -> tuple[np.ndarray, np.ndarray]:
    """(s, 1 - s) with s 0.5 on the sigmoid blocks (f, i, o) and 1 on the
    tanh block j, so that s * tanh(s * x) + (1 - s) is sigmoid(x) =
    0.5 * (1 + tanh(x / 2)) or tanh(x). Built once per hidden size, read-only."""
    s = np.full(4 * hdim, 0.5)
    s[2 * hdim:3 * hdim] = 1.0
    shift = 1.0 - s
    s.flags.writeable = shift.flags.writeable = False
    return s, shift


def _cell_math(layer: LstmLayerParams, step_in, c_prev):
    """One step for a batch. ``step_in`` is [h_prev, x_t], or x_t alone on
    the zero state ``c_prev = None``. Returns (h, c, gates, tanh_c) with
    ``gates`` the activated [B, 4H] array: blocks f, i, j and o.

    On the zero state the forget gate multiplies c_prev = 0 and the recurrent
    columns W[:, :H] multiply h_prev = 0, so only the i, j and o rows are
    computed, from the input columns, and ``gates`` is [B, 3H] with blocks
    i, j, o.
    """
    hdim = layer.hidden_size
    skip = hdim if c_prev is None else 0
    s, shift = _gate_scale(hdim)
    s, shift = s[skip:], shift[skip:]
    gates = step_in @ layer.w[skip:, skip:].T
    gates += layer.b[skip:]
    gates *= s
    np.tanh(gates, out=gates)
    gates *= s
    gates += shift
    i0 = hdim - skip  # the i block starts after f, or at 0 on the zero state
    i, j, o = (gates[:, i0:i0 + hdim], gates[:, i0 + hdim:i0 + 2 * hdim],
               gates[:, i0 + 2 * hdim:])
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
    drawn from ``rng``, and ``ForwardCache.steps`` holds one record per
    layer and step for ``backward``. Eval mode records none (``steps`` is
    empty, which ``backward`` rejects, and ``head_input`` is None) and runs
    the rows ``EVAL_BLOCK_ROWS`` at a time, on up to one thread per CPU the
    process may use; rows are independent, so the scores are those of the
    whole batch, bit for bit. A one-block batch starts no thread.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise DimensionMismatch(f"expected (batch, time, features), got shape {x.shape}")
    if x.shape[2] != net.input_size:
        raise DimensionMismatch(f"{x.shape[2]} features, network wants {net.input_size}")

    if mode == "eval":
        # B // EVAL_BLOCK_ROWS blocks (at least one); the last runs to the end
        n_blocks = max(len(x) // EVAL_BLOCK_ROWS, 1)
        bounds = [k * EVAL_BLOCK_ROWS for k in range(n_blocks)] + [len(x)]
        blocks = [x[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        p = np.concatenate(_score_blocks(net, blocks))
        return p, ForwardCache(steps=[], head_input=None, p=p)
    if net.dropout_rate > 0.0 and rng is None:
        raise ConfigError("train-mode forward with dropout needs an rng")
    steps: list[list[tuple]] = []
    head_input = _run_layers(net, x, net.dropout_rate, rng, steps)
    p = _head(net, head_input)
    return p, ForwardCache(steps=steps, head_input=head_input, p=p)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _score_blocks(net: NetworkParams, blocks: list[np.ndarray]) -> list:
    """Eval scores of each block, in block order. With W = min(CPUs, blocks)
    workers, the calling thread and W - 1 helper threads each take the next
    unscored block; with one worker no thread starts.

    numpy's error state is a context variable, which a new thread does not
    inherit, so each block runs in a copy of the calling thread's context.
    Helpers call only untraced code (``_run_layers``, ``_head``). The first
    exception in any worker, an interrupt of the calling thread included,
    stops every worker from taking another block and is raised here once
    every helper has returned.
    """
    workers = min(_cpu_count(), len(blocks))
    contexts = [contextvars.copy_context() for _ in blocks]
    scored: list = [None] * len(blocks)
    todo, lock, errors = iter(range(len(blocks))), threading.Lock(), []

    def work():
        try:
            while True:
                with lock:
                    k = None if errors else next(todo, None)
                if k is None:
                    return
                scored[k] = contexts[k].run(_score_block, net, blocks[k])
        except BaseException as exc:  # raised again in the calling thread
            with lock:
                errors.append(exc)

    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for thread in helpers:
        thread.start()
    try:
        work()
    finally:
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[0]
    return scored


def _run_layers(net: NetworkParams, x: np.ndarray, rate: float = 0.0,
                rng: np.random.Generator | None = None,
                steps: list | None = None) -> np.ndarray:
    """The layer and step loop over (B, T, D): the top layer's last output
    stream (B, H_last). Each layer's input sequence is replaced step by step
    with its output, and only h and c carry from one step to the next. With a
    ``steps`` list (train mode) one record per layer and step is appended."""
    cur = [x[:, t, :] for t in range(x.shape[1])]
    for layer in net.layers:
        records = []
        h = c = None  # zero state
        for t in range(len(cur)):
            step_in = cur[t] if c is None else np.concatenate([h, cur[t]], axis=1)
            cur[t], c_prev = None, c  # step_in holds the input from here on
            h, c, gates, tanh_c = _cell_math(layer, step_in, c_prev)
            scale = None
            if rate > 0.0:
                scale = (rng.random(h.shape) >= rate) / (1.0 - rate)
            if steps is not None:
                records.append((step_in, c_prev, gates, tanh_c, scale))
            cur[t] = h if scale is None else h * scale
            # past this step only the record, if any, holds these arrays
            step_in = c_prev = gates = tanh_c = None
        if steps is not None:
            steps.append(records)
    return cur[-1]


def _head(net: NetworkParams, head_input: np.ndarray) -> np.ndarray:
    return sigmoid(head_input @ net.head_w + net.head_b)


def _score_block(net: NetworkParams, block: np.ndarray) -> np.ndarray:
    return _head(net, _run_layers(net, block))


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
    if not cache.steps:
        raise CacheMismatch("backward needs a train-mode forward cache")
    if len(cache.steps) != len(net.layers):
        raise CacheMismatch("cache does not match the network architecture")
    for records, layer in zip(cache.steps, net.layers):
        if records[0][3].shape[1] != layer.hidden_size:
            raise CacheMismatch("cache hidden sizes do not match the network")

    batch, seq_len = len(cache.p), len(cache.steps[0])
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
        layer, records, g_layer = net.layers[idx], cache.steps[idx], grads.layers[idx]
        hdim = layer.hidden_size
        d_inputs = [None] * seq_len
        dh_rec = np.zeros((batch, hdim))
        dc_next = np.zeros((batch, hdim))
        for t in range(seq_len - 1, -1, -1):
            step_in, c_prev, gates, tanh_c, scale = records[t]
            dh = (d_out[t] * scale if scale is not None else d_out[t]) + dh_rec
            # H on the zero state, which reached only rows i, j, o through
            # the input columns: f and W[:, :H] get no loss gradient there.
            skip = hdim if c_prev is None else 0
            i_, j_, o_ = (slice(k * hdim - skip, (k + 1) * hdim - skip) for k in (1, 2, 3))
            dc = dc_next + dh * gates[:, o_] * (1.0 - tanh_c * tanh_c)
            # d(loss)/d(gate activation), then through sigmoid or tanh
            d_pre = np.empty_like(gates)
            d_pre[:, i_] = dc * gates[:, j_]
            d_pre[:, j_] = dc * gates[:, i_]
            d_pre[:, o_] = dh * tanh_c
            if c_prev is not None:
                d_pre[:, :hdim] = dc * c_prev
                dc_next = dc * gates[:, :hdim]
            slope = gates * (1.0 - gates)
            slope[:, j_] = 1.0 - gates[:, j_] * gates[:, j_]
            d_pre *= slope
            g_layer.w[skip:, skip:] += d_pre.T @ step_in
            g_layer.b[skip:] += d_pre.sum(axis=0)
            d_step_in = d_pre @ layer.w[skip:, skip:]
            dh_rec, d_inputs[t] = d_step_in[:, :hdim - skip], d_step_in[:, hdim - skip:]
        d_out = d_inputs
    return grads


def to_sequences(x: np.ndarray, input_size: int) -> np.ndarray:
    """Feature rows (B, F) as T = F / input_size steps of ``input_size``
    inputs, shape (B, T, input_size); a batch (B, T, D) passes unchanged."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        return x
    n_feat = x.shape[1]
    if n_feat % input_size != 0:
        raise ConfigError(f"dataset has {n_feat} features; model expects a "
                          f"multiple of {input_size}")
    return x.reshape(len(x), n_feat // input_size, input_size)


def scores(net: NetworkParams, x: np.ndarray) -> np.ndarray:
    """Eval-mode probabilities for feature rows (B, F) or a batch (B, T, D)."""
    p, _ = forward_batch(net, to_sequences(x, net.input_size), mode="eval")
    return p
