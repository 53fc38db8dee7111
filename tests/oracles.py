"""Independent oracles the tests check the implementation against.

Each oracle is deliberately naive (loops, brute force, direct formula
transcription) and shares no code with the implementation paths it judges.
"""

from __future__ import annotations

import csv
import math
import struct

import numpy as np

from edgenet.errors import BadCsv, EmptyFile, MissingColumn, ParseError
from edgenet.lstm_net import _cell_math, bce_loss, forward_batch, sigmoid


def finite_difference_gradients(net, x, y, mask_seed: int, eps: float = 1e-5):
    """Central finite differences of mean BCE over every parameter entry.

    Dropout masks are frozen by re-seeding the generator identically for
    each evaluation.
    """

    def loss() -> float:
        p, _ = forward_batch(net, x, mode="train",
                             rng=np.random.default_rng(mask_seed))
        return float(np.mean(bce_loss(p, np.asarray(y, dtype=np.float64))))

    grads = {}
    for name, arr in net.tensors().items():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"], op_flags=["readwrite"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            lp = loss()
            arr[idx] = orig - eps
            lm = loss()
            arr[idx] = orig
            g[idx] = (lp - lm) / (2.0 * eps)
        grads[name] = g
    return grads


def whole_batch_scores(net, x):
    """Eval-mode scores of a (B, T, D) batch in one pass over all its rows:
    the layer and step loop that ``forward_batch`` ran before it scored a
    batch in blocks. It calls ``_cell_math`` on purpose: what it judges is
    the blocking, and equal bits need the same step arithmetic."""
    cur = [x[:, t, :] for t in range(x.shape[1])]
    for layer in net.layers:
        h = c = None  # zero state
        for t in range(len(cur)):
            step_in = cur[t] if c is None else np.concatenate([h, cur[t]], axis=1)
            h, c, _, _ = _cell_math(layer, step_in, c)
            cur[t] = h
    return sigmoid(cur[-1] @ net.head_w + net.head_b)


def gradient_agreement(analytic, numeric, rel_tol: float = 1e-4,
                       abs_escape: float = 1e-8):
    """Worst relative error |a-f| / max(|a|,|f|); entries with |a-f| below
    the absolute escape count as agreeing (finite-difference noise floor).

    Returns (worst_rel, ok, max_abs_diff); worst_rel covers only entries
    above the escape, max_abs_diff covers everything.
    """
    worst = 0.0
    max_abs = 0.0
    for name in analytic:
        a = analytic[name].ravel()
        f = numeric[name].ravel()
        diff = np.abs(a - f)
        max_abs = max(max_abs, float(diff.max(initial=0.0)))
        denom = np.maximum(np.abs(a), np.abs(f))
        live = diff > abs_escape
        if np.any(live):
            worst = max(worst, float(np.max(diff[live] / denom[live])))
    return worst, worst < rel_tol, max_abs


def pairwise_auc(scores, labels) -> float:
    """Mann-Whitney statistic: P(score_pos > score_neg) with half-credit ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    pos = scores[labels]
    neg = scores[~labels]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def brute_metrics(tp: int, tn: int, fp: int, fn: int) -> dict:
    """Direct transcription of the five rate formulas, zero on 0/0."""
    total = tp + tn + fp + fn
    acc = (tp + tn) / total
    far = fp / (fp + tn) if fp + tn else 0.0
    prec = tp / (tp + fp) if tp + fp else 0.0
    dr = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * prec * dr / (prec + dr) if prec + dr else 0.0
    return {"accuracy": acc, "far": far, "precision": prec,
            "detection_rate": dr, "f1": f1}


def lowest_quantile_subset(magnitudes, t: float):
    """Indices of the ceil(t*m) smallest magnitudes (stable order)."""
    mags = np.asarray(magnitudes, dtype=np.float64)
    if mags.size == 0:
        return np.array([], dtype=int)
    take = int(np.ceil(t * mags.size))
    return np.argsort(mags, kind="stable")[:take]


def naive_container(path: str) -> dict:
    """Every tensor of a model container, decoded field by field with
    ``struct.unpack`` on slices: name -> dtype, encoding, shape, scale,
    zero_point, values (float32 or int8, absent entries 0.0 or the zero
    point) and keep (uint8 0/1 from ``np.unpackbits``, None when dense)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    pos = 0

    def read(fmt):
        nonlocal pos
        size = struct.calcsize(fmt)
        out = struct.unpack(fmt, blob[pos:pos + size])
        pos += size
        return out

    assert blob[:4] == b"EIDM"
    pos = 4
    _, count, arch_len = read("<HHI")
    pos += arch_len
    tensors = {}
    for _ in range(count):
        (name_len,) = read("<H")
        name = blob[pos:pos + name_len].decode("utf-8")
        pos += name_len
        dtype, encoding, rank = read("<BBB")
        shape = read(f"<{rank}I")
        scale, zero_point = read("<fi") if dtype == 1 else (None, None)
        (payload_len,) = read("<I")
        payload = blob[pos:pos + payload_len]
        pos += payload_len + 4  # the CRC
        np_dtype = np.dtype("<f4") if dtype == 0 else np.dtype("i1")
        n = int(np.prod(shape))
        if encoding == 0:
            values, keep = np.frombuffer(payload, np_dtype).reshape(shape), None
        else:
            bitmap_len = (n + 7) // 8
            bits = np.unpackbits(np.frombuffer(payload[:bitmap_len], np.uint8),
                                 bitorder="little")[:n].astype(bool)
            values = np.full(n, 0.0 if dtype == 0 else zero_point, np_dtype)
            values[bits] = np.frombuffer(payload[bitmap_len:], np_dtype)
            values, keep = values.reshape(shape), bits.astype(np.uint8).reshape(shape)
        tensors[name] = {"dtype": dtype, "encoding": encoding, "shape": shape, "scale": scale,
                         "zero_point": zero_point, "values": values, "keep": keep}
    assert pos == len(blob)
    return tensors


def whole_file_table(path: str, schema) -> dict:
    """The typed columns of a CSV, read whole: every record first, then each
    cell parsed on its own with ``float()`` (stripped, for a categorical
    column). Returns ``{name: array}`` in schema order, or raises the error
    ``load_csv`` must raise, with the same message; the first bad cell is
    found by a row-major scan."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            if fh.read(1) != "\ufeff":
                fh.seek(0)
            header = [h.strip() for h in next(reader)]
            missing = [c.name for c in schema.columns if c.name not in header]
            if missing:
                raise MissingColumn(missing)
            twice = [c.name for c in schema.columns if header.count(c.name) > 1]
            if twice:
                raise BadCsv(f"{path}: CSV header names column(s) twice: {', '.join(twice)}")
            records = list(reader)
        except StopIteration:
            raise EmptyFile(f"{path} is empty") from None
        except UnicodeDecodeError as exc:
            raise BadCsv(f"{path} is not UTF-8 text: {exc.reason}") from None
        except csv.Error as exc:
            raise BadCsv(f"{path}, line {reader.line_num}: {exc}") from None
    if not records:
        raise EmptyFile(f"{path} has a header but no data rows")
    values = {c.name: [] for c in schema.columns}
    for row, record in enumerate(records, start=1):
        for col in schema.columns:
            i = header.index(col.name)
            cell = record[i] if i < len(record) else ""
            text = cell.strip()
            if col.kind == "categorical":
                value, ok = text, text != ""
            else:
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                ok = value in (0.0, 1.0) if col.kind == "label" else math.isfinite(value)
            if not ok:
                raise ParseError(row, col.name,
                                 "missing value" if text == "" else
                                 f"label must be 0 or 1, got {text!r}" if col.kind == "label"
                                 else f"{text!r} is not a finite number")
            values[col.name].append(int(value) if col.kind == "label" else value)
    dtypes = {"numeric": np.float64, "categorical": str, "label": np.int64}
    return {c.name: np.array(values[c.name], dtype=dtypes[c.kind]) for c in schema.columns}
