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

Writers and readers share one ``TensorRecord`` per tensor. Only payloads
carry a CRC: a header that does not parse raises StoreError, but one that
parses to other valid values loads as a different model.

``load_model`` decodes every record, int8 weights dequantized, into the one
float64 network that is scored; ``quantizer.dequantized_net`` is its reference.
"""

from __future__ import annotations

import functools
import json
import math
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .data_pipeline import write_atomic
from .errors import (BadMagic, CrcMismatch, EdgenetError, MaskViolation,
                     StoreError, VersionUnsupported)
from .lstm_net import NetworkParams, zeros_params
from .pruning import SparsityMask
from .quantizer import Q_MAX, Q_MIN, QuantizedModel, QuantizedTensor, QuantParams, dequantize

MAGIC = b"EIDM"
VERSION = 1
DTYPE_F32 = 0
DTYPE_I8 = 1
ENC_DENSE = 0
ENC_BITMAP = 1
_NP_DTYPES = {DTYPE_F32: np.dtype("<f4"), DTYPE_I8: np.dtype("i1")}
DTYPE_NAMES = {code: dt.name for code, dt in _NP_DTYPES.items()}
ENCODING_NAMES = {ENC_DENSE: "dense", ENC_BITMAP: "bitmap-sparse"}

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_VERSION_COUNT = struct.Struct("<HH")
_TENSOR_HEAD = struct.Struct("<BBB")  # dtype, encoding, rank
_INT8_PARAMS_LEN = struct.Struct("<fiI")  # scale, zero point, payload length


@functools.cache
def _dims(rank: int) -> struct.Struct:
    return struct.Struct(f"<{rank}I")


@dataclass(frozen=True, slots=True)
class TensorRecord:
    """One stored tensor: its header fields and its raw payload."""

    name: str
    dtype: int
    encoding: int
    shape: tuple[int, ...]
    payload: bytes = field(repr=False)
    crc_ok: bool = True
    scale: float | None = None
    zero_point: int | None = None

    @property
    def payload_len(self) -> int:
        return len(self.payload)

    def decode(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(values, keep): the tensor in ``shape``, and for a bitmap-sparse
        payload its keep-mask as a uint8 array of 0s and 1s (None when dense).
        Absent entries read 0.0, or the zero point for int8 so that they
        dequantize to exactly 0."""
        np_dtype = _NP_DTYPES[self.dtype]
        n = math.prod(self.shape)
        if self.encoding == ENC_DENSE:
            if len(self.payload) != n * np_dtype.itemsize:
                raise StoreError(f"dense payload length {len(self.payload)} != "
                                 f"{n * np_dtype.itemsize}")
            return np.frombuffer(self.payload, np_dtype).reshape(self.shape).copy(), None
        bitmap_len = (n + 7) // 8
        bits = np.frombuffer(self.payload, np.uint8, count=bitmap_len)
        keep = np.unpackbits(bits, count=n, bitorder="little")
        packed = np.frombuffer(self.payload, np_dtype, offset=bitmap_len)
        present = np.count_nonzero(keep)
        if packed.size != present:
            raise StoreError(f"sparse payload holds {packed.size} values, "
                             f"bitmap says {present}")
        values = np.empty(n, np_dtype)
        values.fill(self.zero_point if self.dtype == DTYPE_I8 else 0.0)
        np.place(values, keep.view(bool), packed)
        return values.reshape(self.shape), keep.reshape(self.shape)


@dataclass
class LoadedModel:
    """A decoded container: ``params`` is always the float64 network to score
    (dequantized for int8), ``qmodel`` an int8 container's tensors as stored."""

    params: NetworkParams
    qmodel: QuantizedModel | None = None
    mask: SparsityMask | None = None

    @property
    def kind(self) -> str:
        return "float" if self.qmodel is None else "quantized"


def _encode_payload(arr: np.ndarray, dtype: int, keep: np.ndarray | None) -> bytes:
    flat = np.ascontiguousarray(arr).ravel()
    if keep is None:
        return flat.astype(_NP_DTYPES[dtype]).tobytes()
    keep = keep.ravel().astype(bool)
    return (np.packbits(keep, bitorder="little").tobytes()
            + flat[keep].astype(_NP_DTYPES[dtype]).tobytes())


def _record(name: str, arr: np.ndarray, dtype: int = DTYPE_F32,
            keep: np.ndarray | None = None, scale: float | None = None,
            zero_point: int | None = None) -> TensorRecord:
    return TensorRecord(name=name, dtype=dtype,
                        encoding=ENC_DENSE if keep is None else ENC_BITMAP,
                        shape=arr.shape, payload=_encode_payload(arr, dtype, keep),
                        scale=scale, zero_point=zero_point)


def _write_container(path: str, arch: dict, records: list[TensorRecord]) -> None:
    names = [r.name for r in records]
    if len(set(names)) != len(names):
        raise StoreError("tensor names must be unique")
    arch_json = json.dumps(arch, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [MAGIC, _VERSION_COUNT.pack(VERSION, len(records)), _U32.pack(len(arch_json)),
             arch_json]
    for r in records:
        name_b = r.name.encode("utf-8")
        parts += [_U16.pack(len(name_b)), name_b,
                  _TENSOR_HEAD.pack(r.dtype, r.encoding, len(r.shape)),
                  _dims(len(r.shape)).pack(*r.shape)]
        parts.append(_INT8_PARAMS_LEN.pack(r.scale, r.zero_point, len(r.payload))
                     if r.dtype == DTYPE_I8 else _U32.pack(len(r.payload)))
        parts += [r.payload, _U32.pack(zlib.crc32(r.payload))]
    write_atomic(path, b"".join(parts))


def _text(buf: bytes, start: int, n: int, path: str) -> str:
    if start + n > len(buf):
        raise StoreError(f"{path}: truncated file")
    try:
        return buf[start:start + n].decode("utf-8")
    except UnicodeDecodeError:
        raise StoreError(f"{path}: header text at byte {start} is not UTF-8") from None


def _read_container(path: str) -> tuple[dict, list[TensorRecord]]:
    """The architecture and the tensor records; any header fault is a StoreError.

    Fixed-size fields are unpacked in place with precompiled structs. One
    that runs past the end raises struct.error, reported as a truncated
    file; so is a payload cut short, because the CRC after it then starts
    past the end.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    try:
        if len(buf) >= 4 and buf[:4] != MAGIC:
            raise BadMagic(f"{path} is not a model container")
        version, count = _VERSION_COUNT.unpack_from(buf, 4)
        if version != VERSION:
            raise VersionUnsupported(f"{path}: container version {version}, "
                                     f"expected {VERSION}")
        (arch_len,) = _U32.unpack_from(buf, 8)
        try:
            arch = json.loads(_text(buf, 12, arch_len, path))
        except json.JSONDecodeError as exc:
            raise StoreError(f"{path}: architecture is not valid JSON ({exc})") from None
        if not isinstance(arch, dict):
            raise StoreError(f"{path}: architecture must be a JSON object")
        off = 12 + arch_len
        records = []
        for _ in range(count):
            (name_len,) = _U16.unpack_from(buf, off)
            name = _text(buf, off + 2, name_len, path)
            off += 2 + name_len
            dtype, encoding, rank = _TENSOR_HEAD.unpack_from(buf, off)
            if dtype not in DTYPE_NAMES or encoding not in ENCODING_NAMES:
                raise StoreError(f"{path}: tensor '{name}' has unknown dtype {dtype} "
                                 f"or encoding {encoding}")
            dims = _dims(rank)
            shape = dims.unpack_from(buf, off + 3)
            off += 3 + dims.size
            if dtype == DTYPE_I8:
                scale, zero_point, payload_len = _INT8_PARAMS_LEN.unpack_from(buf, off)
                off += _INT8_PARAMS_LEN.size
            else:
                scale = zero_point = None
                (payload_len,) = _U32.unpack_from(buf, off)
                off += 4
            payload = buf[off:off + payload_len]
            (crc,) = _U32.unpack_from(buf, off + payload_len)
            off += payload_len + 4
            records.append(TensorRecord(name, dtype, encoding, shape, payload,
                                        zlib.crc32(payload) == crc, scale, zero_point))
    except struct.error:  # a field starts or ends past the last byte
        raise StoreError(f"{path}: truncated file") from None
    if off != len(buf):
        raise StoreError(f"{path}: {len(buf) - off} bytes after the last record")
    if len({r.name for r in records}) != len(records):
        raise StoreError(f"{path}: duplicate tensor names in container")
    return arch, records


def _arch_dict(layer_sizes, dropout_rate, int8: bool = False) -> dict:
    """The v1 architecture object, with its two fixed values."""
    arch = {"layer_sizes": list(layer_sizes), "dropout_rate": dropout_rate,
            "tied_output_gate": False}
    if int8:
        arch["quant_range"] = [Q_MIN, Q_MAX]
    return arch


def _save_float(net: NetworkParams, mask: SparsityMask | None, path: str) -> None:
    records = []
    for name, arr in net.tensors().items():
        keep = mask.masks.get(name) if mask is not None else None
        if keep is not None and np.any(arr[~keep.astype(bool)] != 0.0):
            raise MaskViolation(name)
        records.append(_record(name, arr, keep=keep))
    _write_container(path, _arch_dict(net.layer_sizes, net.dropout_rate), records)


def save_dense(net: NetworkParams, path: str) -> None:
    """Float32 container with every tensor stored dense."""
    _save_float(net, None, path)


def save_sparse(net: NetworkParams, mask: SparsityMask, path: str) -> None:
    """Bitmap-sparse container; masked entries must already be exactly zero."""
    _save_float(net, mask, path)


def save_quantized(qm: QuantizedModel, path: str) -> None:
    """Int8 weights (bitmap-sparse when the model carries a mask), f32 biases."""
    records = []
    for name, qt in qm.weights.items():
        keep = qm.mask.masks.get(name) if qm.mask is not None else None
        records.append(_record(name, qt.values, DTYPE_I8, keep, scale=float(qt.params.scale),
                               zero_point=int(qt.params.zero_point)))
    records += [_record(name, arr) for name, arr in qm.biases.items()]
    _write_container(path, _arch_dict(qm.layer_sizes, qm.dropout_rate, int8=True), records)


def load_model(path: str) -> LoadedModel:
    """Load any container as the float64 network it scores (int8 dequantized).

    Contents that cannot form a valid model (bad architecture, tensor names
    or shapes that do not fit it, invalid quantization parameters) raise
    StoreError, and so does an architecture that implies more or fewer
    entries than the records hold, before anything of its size is allocated.
    """
    arch, records = _read_container(path)
    for r in records:
        if not r.crc_ok:
            raise CrcMismatch(path, r.name)
    try:
        return _assemble_model(arch, records)
    except (EdgenetError, LookupError, TypeError, ValueError, OverflowError) as exc:
        raise StoreError(f"{path}: malformed container contents ({exc})") from exc


def _assemble_model(arch: dict, records: list[TensorRecord]) -> LoadedModel:
    sizes = arch["layer_sizes"]
    implied = sum(4 * h * (h + d) + 4 * h for d, h in zip(sizes[:-1], sizes[1:])) + sizes[-1] + 1
    stored = sum(math.prod(r.shape) for r in records)
    if implied != stored:
        raise StoreError(f"layer_sizes {sizes} imply {implied} entries, the records hold {stored}")
    if arch["tied_output_gate"] is not False:
        raise StoreError(f"tied_output_gate must be false, got {arch['tied_output_gate']!r}")
    net = zeros_params(sizes, dropout_rate=arch["dropout_rate"])
    views = net.tensors()
    if {r.name: r.shape for r in records} != {name: v.shape for name, v in views.items()}:
        raise StoreError("tensor names or shapes do not fit the architecture")
    int8 = any(r.dtype == DTYPE_I8 for r in records)
    if int8 and arch.get("quant_range", [Q_MIN, Q_MAX]) != [Q_MIN, Q_MAX]:
        raise StoreError(f"quant_range must be [{Q_MIN}, {Q_MAX}], got {arch['quant_range']!r}")
    masks, weights, biases = {}, {}, {}
    for r in records:
        values, keep = r.decode()
        if keep is not None:
            masks[r.name] = keep
        if r.dtype == DTYPE_I8:
            qt = weights[r.name] = QuantizedTensor(values, QuantParams(r.scale, r.zero_point))
            values = dequantize(qt)
        elif int8:
            if not np.isfinite(values).all():  # a bad container, not a bad score
                raise StoreError(f"float32 tensor '{r.name}' of an int8 model holds NaN or inf")
            biases[r.name] = values
        views[r.name][...] = values  # the cast with_tensors applies: -0.0 stays -0.0
    mask = SparsityMask(masks) if masks else None
    qm = QuantizedModel(weights=weights, biases=biases, layer_sizes=net.layer_sizes,
                        dropout_rate=net.dropout_rate, mask=mask) if int8 else None
    return LoadedModel(params=net, qmodel=qm, mask=mask)


def inspect(path: str) -> list[TensorRecord]:
    """Tensor records without materializing the model (CRC verified per payload)."""
    return _read_container(path)[1]

