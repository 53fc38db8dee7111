"""Bit-exact binary container for dense, bitmap-sparse, and int8 tensors.

Layout (all integers little-endian):

    magic "EIDM" | u16 version=1 | u16 tensor_count
    u32 arch_json_len | arch JSON (UTF-8)
    per tensor:
        u16 name_len | name UTF-8
        u8 dtype   (0 = float32, 1 = int8)
        u8 encoding (0 = dense, 1 = bitmap-sparse)
        u8 rank | u32 dims[rank]
        int8 only: f32 scale | i32 zero_point
        u32 payload_len | payload | u32 CRC-32 (IEEE) of payload

Bitmap-sparse payloads hold ceil(N/8) bitmap bytes (flat C order, LSB-first
within each byte, bit 1 = value present) followed by the present values
packed in index order. Files are written to a temp path and renamed, so
readers never see partial files.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import (BadMagic, CrcMismatch, EdgenetError, MaskViolation,
                     StoreError, VersionUnsupported)
from .lstm_net import NetworkParams, zeros_params
from .pruning import SparsityMask
from .quantizer import QuantizedModel, QuantizedTensor, QuantParams

MAGIC = b"EIDM"
VERSION = 1
DTYPE_F32 = 0
DTYPE_I8 = 1
ENC_DENSE = 0
ENC_BITMAP = 1


@dataclass(frozen=True)
class TensorRecord:
    """Per-tensor metadata as stored in the container (for `dump`/tests)."""

    name: str
    dtype: int
    encoding: int
    shape: tuple[int, ...]
    payload_len: int
    crc_ok: bool
    scale: float | None = None
    zero_point: int | None = None


@dataclass
class LoadedModel:
    kind: str  # "float" | "quantized"
    params: NetworkParams | None = None
    qmodel: QuantizedModel | None = None
    mask: SparsityMask | None = None


@dataclass(frozen=True)
class SizeRow:
    name: str
    size_bytes: int
    ratio: float  # baseline_size / this_size
    accuracy: float | None = None


@dataclass
class SizeReport:
    baseline: str
    rows: list[SizeRow]

    def csv(self) -> str:
        lines = ["name,accuracy,size_bytes,ratio"]
        for r in self.rows:
            acc = f"{100.0 * r.accuracy:.4f}" if r.accuracy is not None else ""
            lines.append(f"{r.name},{acc},{r.size_bytes},{r.ratio:.4f}")
        return "\n".join(lines) + "\n"


def _pack_bitmap(mask_flat: np.ndarray) -> bytes:
    return np.packbits(mask_flat.astype(np.uint8), bitorder="little").tobytes()


def _unpack_bitmap(buf: bytes, n: int) -> np.ndarray:
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8), count=n, bitorder="little")
    return bits.astype(bool)


def _encode_payload(arr: np.ndarray, dtype: int, keep: np.ndarray | None) -> bytes:
    np_dtype = "<f4" if dtype == DTYPE_F32 else "i1"
    flat = np.ascontiguousarray(arr).ravel()
    if keep is None:
        return flat.astype(np_dtype).tobytes()
    keep = keep.ravel().astype(bool)
    return _pack_bitmap(keep) + flat[keep].astype(np_dtype).tobytes()


def _decode_payload(payload: bytes, dtype: int, encoding: int,
                    shape: tuple[int, ...], zero_q: int = 0):
    np_dtype = np.dtype("<f4") if dtype == DTYPE_F32 else np.dtype("i1")
    n = int(np.prod(shape)) if shape else 1
    if encoding == ENC_DENSE:
        if len(payload) != n * np_dtype.itemsize:
            raise StoreError(f"dense payload length {len(payload)} != {n * np_dtype.itemsize}")
        values = np.frombuffer(payload, dtype=np_dtype, count=n).reshape(shape)
        return values, None
    bitmap_len = (n + 7) // 8
    keep = _unpack_bitmap(payload[:bitmap_len], n)
    packed = np.frombuffer(payload[bitmap_len:], dtype=np_dtype)
    if packed.size != int(keep.sum()):
        raise StoreError(f"sparse payload holds {packed.size} values, bitmap says {keep.sum()}")
    fill = 0.0 if dtype == DTYPE_F32 else zero_q
    values = np.full(n, fill, dtype=np_dtype)
    values[keep] = packed
    return values.reshape(shape), keep.reshape(shape)


@dataclass
class _TensorSpec:
    name: str
    dtype: int
    encoding: int
    arr: np.ndarray
    keep: np.ndarray | None = None
    scale: float | None = None
    zero_point: int | None = None


def _write_container(path: str, arch: dict, tensors: list[_TensorSpec]) -> None:
    names = [t.name for t in tensors]
    if len(set(names)) != len(names):
        raise StoreError("tensor names must be unique")
    arch_json = json.dumps(arch, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [MAGIC, struct.pack("<HH", VERSION, len(tensors)),
             struct.pack("<I", len(arch_json)), arch_json]
    for t in tensors:
        name_b = t.name.encode("utf-8")
        dims = t.arr.shape
        parts.append(struct.pack("<H", len(name_b)))
        parts.append(name_b)
        parts.append(struct.pack("<BBB", t.dtype, t.encoding, len(dims)))
        parts.append(struct.pack(f"<{len(dims)}I", *dims) if dims else b"")
        if t.dtype == DTYPE_I8:
            parts.append(struct.pack("<fi", t.scale, t.zero_point))
        payload = _encode_payload(t.arr, t.dtype, t.keep)
        parts.append(struct.pack("<I", len(payload)))
        parts.append(payload)
        parts.append(struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))
    blob = b"".join(parts)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    os.replace(tmp, path)


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.buf):
            raise StoreError("truncated file")
        out = self.buf[self.off:self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _read_container(path: str):
    with open(path, "rb") as fh:
        rd = _Reader(fh.read())
    if rd.take(4) != MAGIC:
        raise BadMagic(f"{path} is not a model container")
    version, count = rd.unpack("<HH")
    if version != VERSION:
        raise VersionUnsupported(f"container version {version}, expected {VERSION}")
    (arch_len,) = rd.unpack("<I")
    arch = json.loads(rd.take(arch_len).decode("utf-8"))
    entries = []
    for _ in range(count):
        (name_len,) = rd.unpack("<H")
        name = rd.take(name_len).decode("utf-8")
        dtype, encoding, rank = rd.unpack("<BBB")
        shape = tuple(rd.unpack(f"<{rank}I")) if rank else ()
        scale = zero_point = None
        if dtype == DTYPE_I8:
            scale, zero_point = rd.unpack("<fi")
        (payload_len,) = rd.unpack("<I")
        payload = rd.take(payload_len)
        (crc,) = rd.unpack("<I")
        crc_ok = (zlib.crc32(payload) & 0xFFFFFFFF) == crc
        entries.append({"name": name, "dtype": dtype, "encoding": encoding,
                        "shape": shape, "scale": scale, "zero_point": zero_point,
                        "payload": payload, "crc_ok": crc_ok})
    names = [e["name"] for e in entries]
    if len(set(names)) != len(names):
        raise StoreError("duplicate tensor names in container")
    return arch, entries


def _arch_dict(layer_sizes, dropout_rate, tied, quant_range=None) -> dict:
    arch = {"layer_sizes": list(layer_sizes), "dropout_rate": dropout_rate,
            "tied_output_gate": tied}
    if quant_range is not None:
        arch["quant_range"] = list(quant_range)
    return arch


def save_dense(net: NetworkParams, path: str) -> None:
    """Float32 container with every tensor stored dense."""
    tensors = [_TensorSpec(name=name, dtype=DTYPE_F32, encoding=ENC_DENSE, arr=arr)
               for name, arr in net.tensors().items()]
    _write_container(path, _arch_dict(net.layer_sizes, net.dropout_rate,
                                      net.tied_output_gate), tensors)


def save_sparse(net: NetworkParams, mask: SparsityMask, path: str) -> None:
    """Bitmap-sparse container; masked entries must already be exactly zero."""
    tensors = []
    for name, arr in net.tensors().items():
        keep = mask.masks.get(name)
        if keep is not None:
            if np.any(arr[~keep.astype(bool)] != 0.0):
                raise MaskViolation(name)
            tensors.append(_TensorSpec(name=name, dtype=DTYPE_F32,
                                       encoding=ENC_BITMAP, arr=arr, keep=keep))
        else:
            tensors.append(_TensorSpec(name=name, dtype=DTYPE_F32, encoding=ENC_DENSE, arr=arr))
    _write_container(path, _arch_dict(net.layer_sizes, net.dropout_rate,
                                      net.tied_output_gate), tensors)


def save_quantized(qm: QuantizedModel, path: str) -> None:
    """Int8 weights (bitmap-sparse when the model carries a mask), f32 biases."""
    q_range = None
    tensors = []
    for name, qt in qm.weights.items():
        q_range = (qt.params.q_min, qt.params.q_max)
        keep = qm.mask.masks.get(name) if qm.mask is not None else None
        tensors.append(_TensorSpec(name=name, dtype=DTYPE_I8,
                                   encoding=ENC_BITMAP if keep is not None else ENC_DENSE,
                                   arr=qt.values, keep=keep,
                                   scale=float(qt.params.scale),
                                   zero_point=int(qt.params.zero_point)))
    for name, arr in qm.biases.items():
        tensors.append(_TensorSpec(name=name, dtype=DTYPE_F32, encoding=ENC_DENSE, arr=arr))
    _write_container(path, _arch_dict(qm.layer_sizes, qm.dropout_rate,
                                      qm.tied_output_gate, quant_range=q_range), tensors)


def load_model(path: str) -> LoadedModel:
    """Load any container, auto-detecting float vs quantized payloads.

    Contents that cannot form a valid model (bad architecture, tensor names
    or shapes that do not fit it, invalid quantization parameters) raise
    StoreError.
    """
    arch, entries = _read_container(path)
    for e in entries:
        if not e["crc_ok"]:
            raise CrcMismatch(e["name"])
    try:
        return _assemble_model(arch, entries)
    except (EdgenetError, KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"{path}: malformed container contents ({exc})") from exc


def _assemble_model(arch: dict, entries: list) -> LoadedModel:
    template = zeros_params(arch["layer_sizes"], dropout_rate=arch["dropout_rate"],
                            tied_output_gate=arch["tied_output_gate"])
    expected = {name: arr.shape for name, arr in template.tensors().items()}
    found = {e["name"]: e["shape"] for e in entries}
    if found != expected:
        raise StoreError("tensor names or shapes do not fit the architecture")
    quantized = any(e["dtype"] == DTYPE_I8 for e in entries)
    masks: dict[str, np.ndarray] = {}

    if not quantized:
        tree = {}
        for e in entries:
            values, keep = _decode_payload(e["payload"], e["dtype"], e["encoding"], e["shape"])
            tree[e["name"]] = values
            if keep is not None:
                masks[e["name"]] = keep.astype(np.uint8)
        mask = _mask_from(masks) if masks else None
        return LoadedModel(kind="float", params=template.with_tensors(tree), mask=mask)

    q_min, q_max = arch.get("quant_range", [-128, 127])
    weights: dict[str, QuantizedTensor] = {}
    biases: dict[str, np.ndarray] = {}
    for e in entries:
        if e["dtype"] == DTYPE_I8:
            z = e["zero_point"]
            scale = float(e["scale"])
            values, keep = _decode_payload(e["payload"], DTYPE_I8, e["encoding"],
                                           e["shape"], zero_q=z)
            params = QuantParams(scale=scale, zero_point=z, q_min=q_min, q_max=q_max,
                                 f_min=scale * (q_min - z), f_max=scale * (q_max - z))
            weights[e["name"]] = QuantizedTensor(values=values.astype(np.int8), params=params)
            if keep is not None:
                masks[e["name"]] = keep.astype(np.uint8)
        else:
            values, _ = _decode_payload(e["payload"], DTYPE_F32, e["encoding"], e["shape"])
            biases[e["name"]] = values.astype(np.float32)
    mask = _mask_from(masks) if masks else None
    qm = QuantizedModel(weights=weights, biases=biases, layer_sizes=template.layer_sizes,
                        dropout_rate=template.dropout_rate,
                        tied_output_gate=template.tied_output_gate, mask=mask)
    return LoadedModel(kind="quantized", qmodel=qm, mask=mask)


def _mask_from(masks: dict[str, np.ndarray]) -> SparsityMask:
    total = sum(m.size for m in masks.values())
    zeros = sum(m.size - int(m.sum()) for m in masks.values())
    return SparsityMask(masks=masks, current_sparsity=zeros / total if total else 0.0)


def inspect(path: str) -> list[TensorRecord]:
    """Tensor table without materializing the model (CRC verified per payload)."""
    _, entries = _read_container(path)
    return [TensorRecord(name=e["name"], dtype=e["dtype"], encoding=e["encoding"],
                         shape=e["shape"], payload_len=len(e["payload"]),
                         crc_ok=e["crc_ok"], scale=e["scale"], zero_point=e["zero_point"])
            for e in entries]


def size_report(paths: list[str], baseline: str,
                accuracies: dict[str, float] | None = None) -> SizeReport:
    """Byte sizes and baseline/this ratios for a set of model files."""
    base_size = os.path.getsize(baseline)
    accuracies = accuracies or {}
    rows = []
    seen = [baseline] + [p for p in paths if os.path.abspath(p) != os.path.abspath(baseline)]
    for p in seen:
        size = os.path.getsize(p)
        name = os.path.splitext(os.path.basename(p))[0]
        rows.append(SizeRow(name=name, size_bytes=size, ratio=base_size / size,
                            accuracy=accuracies.get(name)))
    return SizeReport(baseline=os.path.basename(baseline), rows=rows)
