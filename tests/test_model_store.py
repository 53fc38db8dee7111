import hashlib
import os
import struct

import numpy as np
import pytest

from edgenet.errors import (BadMagic, CrcMismatch, MaskViolation, StoreError,
                            VersionUnsupported)
from edgenet.cli import main
from edgenet.lstm_net import init_params
from edgenet.model_store import (ENC_BITMAP, ENC_DENSE, DTYPE_F32, DTYPE_I8,
                                 inspect, load_model, save_dense,
                                 save_quantized, save_sparse)
from edgenet.pruning import apply_masks, compute_masks
from edgenet.quantizer import dequantized_net, quantize_model
from oracles import naive_container


def small_net(seed=0, sizes=(3, 4, 4)):
    return init_params(sizes, seed=seed, dropout_rate=0.0)


def pruned_net(seed=0, sparsity=0.8, sizes=(3, 4, 4)):
    net = small_net(seed, sizes)
    tree = net.tensors()
    weights = {n: tree[n] for n in net.weight_names()}
    mask = compute_masks(weights, sparsity)
    return net.with_tensors(apply_masks(tree, mask)), mask


def float_params(path):
    loaded = load_model(path)
    assert loaded.kind == "float" and loaded.mask is None
    return loaded.params


def int8_model(path):
    loaded = load_model(path)
    assert loaded.kind == "quantized"
    return loaded.qmodel


class TestDense:
    def test_round_trip_at_float32(self, tmp_path):
        net = small_net(7)
        path = str(tmp_path / "m.eidm")
        save_dense(net, path)
        back = float_params(path)
        for name, arr in net.tensors().items():
            np.testing.assert_array_equal(back.tensors()[name],
                                          arr.astype(np.float32).astype(np.float64))
        assert back.dropout_rate == net.dropout_rate

    def test_payload_is_four_bytes_per_weight(self, tmp_path):
        net = small_net()
        path = str(tmp_path / "m.eidm")
        save_dense(net, path)
        for rec in inspect(path):
            n = int(np.prod(rec.shape)) if rec.shape else 1
            assert rec.payload_len == 4 * n
            assert rec.dtype == DTYPE_F32 and rec.encoding == ENC_DENSE

    def test_corrupted_payload_fails_crc(self, tmp_path):
        net = small_net()
        path = str(tmp_path / "m.eidm")
        save_dense(net, path)
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF  # inside some payload
        open(path, "wb").write(bytes(blob))
        with pytest.raises((CrcMismatch, StoreError)) as exc:
            load_model(path)
        assert str(exc.value).count(path) == 1

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "junk.eidm")
        open(path, "wb").write(b"NOPE" + b"\x00" * 64)
        with pytest.raises(BadMagic):
            load_model(path)

    def test_unsupported_version(self, tmp_path):
        net = small_net()
        path = str(tmp_path / "m.eidm")
        save_dense(net, path)
        blob = bytearray(open(path, "rb").read())
        blob[4] = 99
        open(path, "wb").write(bytes(blob))
        with pytest.raises(VersionUnsupported) as exc:
            load_model(path)
        assert str(exc.value).count(path) == 1

    def test_truncated_file(self, tmp_path, capsys):
        net = small_net()
        path = str(tmp_path / "m.eidm")
        save_dense(net, path)
        save_dense(net, str(tmp_path / "base.eidm"))
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) - 7])
        with pytest.raises(StoreError) as exc:
            load_model(path)
        assert str(exc.value).count(path) == 1
        # a report over several files says which one is short
        assert main(["size-report", "--baseline", str(tmp_path / "base.eidm"), path]) == 3
        assert capsys.readouterr().err == f"error: {path}: truncated file\n"

    def test_no_temp_file_left_behind(self, tmp_path):
        net = small_net()
        path = str(tmp_path / "m.eidm")
        save_dense(net, path)
        assert os.listdir(tmp_path) == ["m.eidm"]

    def test_byte_identical_rewrites(self, tmp_path):
        net = small_net(3)
        p1, p2 = str(tmp_path / "a.eidm"), str(tmp_path / "b.eidm")
        save_dense(net, p1)
        save_dense(net, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()


class TestSparse:
    def test_round_trip_preserves_zero_positions(self, tmp_path):
        net, mask = pruned_net(5)
        path = str(tmp_path / "s.eidm")
        save_sparse(net, mask, path)
        loaded = load_model(path)
        back, back_mask = loaded.params, loaded.mask
        assert loaded.kind == "float"
        for name, arr in net.tensors().items():
            np.testing.assert_array_equal(back.tensors()[name],
                                          arr.astype(np.float32).astype(np.float64))
        for name, m in mask.masks.items():
            np.testing.assert_array_equal(back_mask.masks[name], m)

    def test_mask_violation_rejected(self, tmp_path):
        net, mask = pruned_net(5)
        name = net.weight_names()[0]
        bad = {n: a.copy() for n, a in net.tensors().items()}
        pruned_positions = np.flatnonzero(~mask.masks[name].astype(bool).ravel())
        bad[name].ravel()[pruned_positions[0]] = 0.5
        with pytest.raises(MaskViolation):
            save_sparse(net.with_tensors(bad), mask, str(tmp_path / "x.eidm"))

    def test_payload_arithmetic_at_80_percent(self, tmp_path):
        # 1000 weights, 800 pruned: 125 bitmap bytes + 200 * 4 value bytes
        rng = np.random.default_rng(0)
        arr = rng.normal(size=1000)
        mask = compute_masks({"w": arr}, 0.8)
        from edgenet.model_store import _encode_payload
        payload = _encode_payload(np.where(mask.masks["w"].astype(bool), arr, 0.0),
                                  DTYPE_F32, mask.masks["w"])
        assert len(payload) == 125 + 200 * 4

    def test_payload_arithmetic_at_zero_sparsity(self):
        arr = np.random.default_rng(1).normal(size=1000)
        from edgenet.model_store import _encode_payload
        payload = _encode_payload(arr, DTYPE_F32, np.ones(1000, dtype=np.uint8))
        assert len(payload) == 125 + 4000

    def test_surviving_exact_zero_keeps_mask_bit(self, tmp_path):
        net, mask = pruned_net(9)
        name = net.weight_names()[0]
        tree = {n: a.copy() for n, a in net.tensors().items()}
        survivor = np.flatnonzero(mask.masks[name].astype(bool).ravel())[0]
        tree[name].ravel()[survivor] = 0.0  # survivor that happens to be zero
        path = str(tmp_path / "z.eidm")
        save_sparse(net.with_tensors(tree), mask, path)
        back_mask = load_model(path).mask
        assert back_mask.masks[name].ravel()[survivor] == 1


class TestQuantized:
    def test_round_trip_q_values_and_params(self, tmp_path):
        net = small_net(11)
        qm = quantize_model(net)
        path = str(tmp_path / "q.eidm")
        save_quantized(qm, path)
        back = int8_model(path)
        for name, qt in qm.weights.items():
            np.testing.assert_array_equal(back.weights[name].values, qt.values)
            assert back.weights[name].params.scale == np.float32(qt.params.scale)
            assert back.weights[name].params.zero_point == qt.params.zero_point
        for name, b in qm.biases.items():
            np.testing.assert_array_equal(back.biases[name], b)

    def test_int8_payload_is_quarter_of_float(self, tmp_path):
        net = small_net(2)
        dense_path = str(tmp_path / "d.eidm")
        quant_path = str(tmp_path / "q.eidm")
        save_dense(net, dense_path)
        save_quantized(quantize_model(net), quant_path)
        dense_sizes = {r.name: r.payload_len for r in inspect(dense_path)}
        for rec in inspect(quant_path):
            if rec.dtype == DTYPE_I8:
                assert rec.payload_len * 4 == dense_sizes[rec.name]

    def test_sparse_quantized_keeps_bitmap(self, tmp_path):
        net, mask = pruned_net(3)
        qm = quantize_model(net, mask=mask)
        path = str(tmp_path / "pq.eidm")
        save_quantized(qm, path)
        back = int8_model(path)
        assert back.mask is not None
        for name, m in mask.masks.items():
            np.testing.assert_array_equal(back.mask.masks[name], m)
            np.testing.assert_array_equal(back.weights[name].values, qm.weights[name].values)
        for rec in inspect(path):
            if rec.dtype == DTYPE_I8:
                assert rec.encoding == ENC_BITMAP

    def test_kind_detection(self, tmp_path):
        net = small_net()
        d = str(tmp_path / "d.eidm")
        q = str(tmp_path / "q.eidm")
        save_dense(net, d)
        save_quantized(quantize_model(net), q)
        dense, quantized = load_model(d), load_model(q)
        assert (dense.kind, dense.mask, dense.qmodel) == ("float", None, None)
        assert quantized.kind == "quantized" and quantized.mask is None
        # an int8 load holds the reference dequantization, byte for byte
        got, ref = quantized.params.tensors(), dequantized_net(quantized.qmodel).tensors()
        assert list(got) == list(ref)
        for name, arr in got.items():
            assert arr.dtype == np.float64 and arr.tobytes() == ref[name].tobytes(), name


def oracle_containers(tmp_path) -> dict[str, str]:
    """Dense, sparse, int8 and sparse int8 containers of one pruned net that
    holds a surviving -0.0 weight and a -0.0 bias."""
    net, mask = pruned_net(12, sizes=(3, 5, 4))
    tree = net.tensors()  # views: writes change the net
    name = net.weight_names()[1]
    survivor = np.flatnonzero(mask.masks[name])[0]
    tree[name][np.unravel_index(survivor, tree[name].shape)] = -0.0
    tree["layer0.b_i"][2] = -0.0
    paths = {kind: str(tmp_path / f"{kind}.eidm")
             for kind in ("dense", "sparse", "int8", "sparse_int8")}
    save_dense(net, paths["dense"])
    save_sparse(net, mask, paths["sparse"])
    save_quantized(quantize_model(net), paths["int8"])
    save_quantized(quantize_model(net, mask=mask), paths["sparse_int8"])
    return paths


class TestDecodeOracle:
    """load_model's network (and, for int8, dequantized_net) against a
    field-by-field decode of the same bytes, compared byte for byte so that
    signed zeros count."""

    @pytest.mark.parametrize("kind", ["dense", "sparse", "int8", "sparse_int8"])
    def test_load_matches_the_reference_decode(self, tmp_path, kind):
        path = oracle_containers(tmp_path)[kind]
        ref = naive_container(path)
        loaded = load_model(path)

        masks = loaded.mask.masks if loaded.mask is not None else {}
        assert set(masks) == {name for name, r in ref.items() if r["keep"] is not None}
        assert bool(masks) == kind.startswith("sparse")
        for name, m in masks.items():
            assert m.dtype == np.uint8 and m.shape == ref[name]["shape"]
            assert m.tobytes() == ref[name]["keep"].tobytes()

        nets = [loaded.params.tensors()]
        if loaded.kind == "quantized":
            qm = loaded.qmodel
            assert set(qm.weights) | set(qm.biases) == set(ref)
            for name, qt in qm.weights.items():
                r = ref[name]
                assert qt.values.dtype == np.int8 and qt.values.shape == r["shape"]
                assert qt.values.tobytes() == r["values"].tobytes()
                assert (qt.params.scale, qt.params.zero_point) == (r["scale"], r["zero_point"])
            for name, b in qm.biases.items():
                assert b.dtype == np.float32 and b.tobytes() == ref[name]["values"].tobytes()
            nets.append(dequantized_net(qm).tensors())
        assert loaded.kind == ("float" if kind in ("dense", "sparse") else "quantized")
        for tensors in nets:
            assert set(tensors) == set(ref)
            for name, r in ref.items():
                if r["dtype"] == DTYPE_I8:  # r = S * (q - Z), per gate tensor
                    expected = r["scale"] * (r["values"].astype(np.float64) - r["zero_point"])
                else:
                    expected = r["values"].astype(np.float64)
                assert tensors[name].dtype == np.float64 and tensors[name].shape == r["shape"]
                assert tensors[name].tobytes() == expected.tobytes(), name

    def test_fixture_holds_negative_zeros(self, tmp_path):
        ref = naive_container(oracle_containers(tmp_path)["dense"])
        signed = {name for name, r in ref.items()
                  if np.any((r["values"] == 0.0) & np.signbit(r["values"]))}
        assert signed == {"layer0.w_i", "layer0.b_i"}


class TestCompatibility:
    """The container bytes of a fixed network, pinned across code changes."""

    SHA256 = {
        "dense": "c2af81826780c96d12545474b7bf4e060e47e592804194b09448594a4ffb51c8",
        "int8": "483d3ba397ad7e29d2dd2d8436a4af1599c5ccdaccddbfb50f08ef57045689ba",
        "sparse": "3295e27310729da7813b955a50cd99a9e0a707de1ba52a5ce8359a3efaedc295",
    }

    def test_container_bytes_are_pinned(self, tmp_path):
        net = init_params((3, 2, 2), seed=0)
        paths = {kind: str(tmp_path / f"{kind}.eidm") for kind in self.SHA256}
        save_dense(net, paths["dense"])
        save_quantized(quantize_model(net), paths["int8"])
        weights = {n: a for n, a in net.tensors().items() if n in net.weight_names()}
        mask = compute_masks(weights, 0.5)
        save_sparse(net.with_tensors(apply_masks(net.tensors(), mask)), mask, paths["sparse"])
        for kind, path in paths.items():
            with open(path, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == self.SHA256[kind], kind


def _patch_after(blob: bytes, marker: bytes, skip: int, new: bytes) -> bytes:
    """Overwrite len(new) bytes starting ``skip`` bytes after the first
    occurrence of ``marker``. Headers carry no CRC, so the result loads."""
    at = blob.index(marker) + len(marker) + skip
    return blob[:at] + new + blob[at + len(new):]


# (saved kind, marker, bytes to skip past it, replacement). Tensor headers are
# u8 dtype, u8 encoding, u8 rank, u32 dims[rank], then f32 scale for int8.
MALFORMED = {
    "dropout_rate_1.5": ("dense", b'"dropout_rate":0.0', -3, b"1.5"),
    "zero_hidden_size": ("dense", b'"layer_sizes":[3,4,4]', -2, b"0"),
    "negative_int8_scale": ("int8", b"layer0.w_f", 3 + 4 * 2, struct.pack("<f", -1.0)),
    "nan_int8_scale": ("int8", b"layer0.w_f", 3 + 4 * 2, struct.pack("<f", float("nan"))),
    "gate_shape_mismatch": ("dense", b"layer0.w_i", 3, struct.pack("<2I", 7, 4)),
    # the v1 header's two fixed values: any other one is refused, not ignored
    "tied_output_gate_true": ("dense", b'"tied_output_gate":', 0, b"true "),
    "int8_quant_range_narrowed": ("int8", b'"quant_range":[', 0, b"-100,100"),
    "int8_quant_range_symmetric": ("int8", b'"quant_range":[', 0, b"-127,127"),
}


class TestMalformedContents:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_store_error_and_exit_3(self, tmp_path, case):
        kind, marker, skip, new = MALFORMED[case]
        net = small_net(4)
        path = str(tmp_path / "m.eidm")
        if kind == "dense":
            save_dense(net, path)
        else:
            save_quantized(quantize_model(net), path)
        with open(path, "rb") as fh:
            blob = _patch_after(fh.read(), marker, skip, new)
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(StoreError):
            load_model(path)
        assert main(["predict", path, "--features", "0.1,0.2,0.3"]) == 3

    @pytest.mark.parametrize("sizes", ["[3,4,9999999]", "[]", "[3,4,4,4]"])
    def test_layer_sizes_that_do_not_fit_the_records(self, tmp_path, sizes):
        """The entry count layer_sizes implies is checked against the records
        before the template is built, so a header cannot make the loader
        allocate what it only claims."""
        path = tmp_path / "m.eidm"
        save_dense(small_net(4), str(path))
        arch = f'{{"dropout_rate":0.0,"layer_sizes":{sizes},"tied_output_gate":false}}'
        path.write_bytes(_with_arch(path.read_bytes(), arch.encode()))
        with pytest.raises(StoreError):
            load_model(str(path))
        assert main(["predict", str(path), "--features", "0.1,0.2,0.3"]) == 3

    def test_missing_tensor_in_int8_container(self, tmp_path):
        qm = quantize_model(small_net(4))
        del qm.biases["head.b"]
        path = str(tmp_path / "q.eidm")
        save_quantized(qm, path)
        with pytest.raises(StoreError):
            load_model(path)
        assert main(["predict", path, "--features", "0.1,0.2,0.3"]) == 3


def _with_arch(blob: bytes, arch: bytes) -> bytes:
    """The container with its architecture bytes (and their length) replaced."""
    (old_len,) = struct.unpack_from("<I", blob, 8)
    return blob[:8] + struct.pack("<I", len(arch)) + arch + blob[12 + old_len:]


# Header faults that no CRC covers; every one must end in StoreError.
HEADER_FAULTS = {
    "dtype_7": lambda b: _patch_after(b, b"layer0.b_f", 0, b"\x07"),
    "encoding_9": lambda b: _patch_after(b, b"layer0.w_f", 1, b"\x09"),
    "name_not_utf8": lambda b: _patch_after(b, b"layer0.w_f", -4, b"\xff"),
    "arch_not_utf8": lambda b: _with_arch(b, b'{"\xff":1}'),
    "arch_not_json": lambda b: _with_arch(b, b"{layer_sizes"),
    "arch_not_object": lambda b: _with_arch(b, b"[3,4,4]"),
    "duplicate_name": lambda b: _patch_after(b, b"layer0.w_i", -1, b"f"),
}


# architecture objects the writer never produces; only load_model reads the object
ARCH_FAULTS = {
    "int8_without_quant_range": ("int8", '"layer_sizes":[3,4,4],"tied_output_gate":false',
                                 "quant_range"),
    "float_with_quant_range": ("dense", '"layer_sizes":[3,4,4],"quant_range":[-128,127],'
                               '"tied_output_gate":false', "quant_range"),
    "extra_key": ("int8", '"layer_sizes":[3,4,4],"quant_range":[-128,127],'
                  '"tied_output_gate":false,"zz":1', "zz"),
    "tied_output_gate_zero": ("dense", '"layer_sizes":[3,4,4],"tied_output_gate":0',
                              "tied_output_gate"),
}


class TestHeaderFaults:
    @staticmethod
    def pruned_int8(tmp_path) -> str:
        net, mask = pruned_net(6)
        path = str(tmp_path / "pq.eidm")
        save_quantized(quantize_model(net, mask=mask), path)
        return path

    @pytest.mark.parametrize("case", sorted(HEADER_FAULTS))
    def test_store_error_and_exit_3(self, tmp_path, capsys, case):
        path = self.pruned_int8(tmp_path)
        with open(path, "rb") as fh:
            blob = HEADER_FAULTS[case](fh.read())
        with open(path, "wb") as fh:
            fh.write(blob)
        for read in (load_model, inspect):
            with pytest.raises(StoreError) as exc:
                read(path)
            assert str(exc.value).count(path) == 1
        assert main(["dump", path]) == 3
        assert main(["predict", path, "--features", "0.1,0.2,0.3"]) == 3
        err = capsys.readouterr().err
        assert err.count("error: ") == 2 and err.count(path) == 2

    @pytest.mark.parametrize("case", sorted(ARCH_FAULTS))
    def test_architecture_other_than_the_writers_exit_3(self, tmp_path, capsys, case):
        kind, rest, key = ARCH_FAULTS[case]
        path = tmp_path / "m.eidm"
        net = small_net(4)
        if kind == "int8":
            save_quantized(quantize_model(net), str(path))
        else:
            save_dense(net, str(path))
        path.write_bytes(_with_arch(path.read_bytes(), f'{{"dropout_rate":0.0,{rest}}}'.encode()))
        assert len(inspect(str(path))) == len(net.tensors())
        with pytest.raises(StoreError, match=f"architecture keys {key} differ"):
            load_model(str(path))
        for command in (["predict", str(path), "--features", "0.1,0.2,0.3"],
                        ["quantize", str(path), str(tmp_path / "q.eidm")]):
            assert main(command) == 3
        assert f"architecture keys {key} differ" in capsys.readouterr().err
        assert not (tmp_path / "q.eidm").exists()

    def test_every_byte_flip_is_a_store_error_or_a_model(self, tmp_path):
        path = self.pruned_int8(tmp_path)
        with open(path, "rb") as fh:
            blob = fh.read()
        escapes = set()
        for at in range(len(blob)):
            for flip in (0x01, 0x80, 0xFF):
                mutated = bytearray(blob)
                mutated[at] ^= flip
                with open(path, "wb") as fh:
                    fh.write(mutated)
                for read in (load_model, inspect):
                    try:
                        read(path)
                    except StoreError:
                        pass
                    except Exception as exc:  # any other type is an escape
                        escapes.add((read.__name__, type(exc).__name__, at, flip))
        assert sorted(escapes) == []


def three_containers(tmp_path) -> dict[str, str]:
    """Paths of a dense, a sparse and a sparse int8 container of one small net."""
    net, mask = pruned_net(8)
    paths = {kind: str(tmp_path / f"{kind}.eidm") for kind in ("dense", "sparse", "sparse_int8")}
    save_dense(small_net(8), paths["dense"])
    save_sparse(net, mask, paths["sparse"])
    save_quantized(quantize_model(net, mask=mask), paths["sparse_int8"])
    return paths


class TestContainerLength:
    @pytest.mark.parametrize("kind", ["dense", "sparse", "sparse_int8"])
    def test_trailing_bytes_exit_3(self, tmp_path, capsys, kind):
        path = three_containers(tmp_path)[kind]
        load_model(path)
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        for read in (load_model, inspect):
            with pytest.raises(StoreError, match="1 bytes after the last record"):
                read(path)
        assert main(["dump", path]) == 3
        assert main(["predict", path, "--features", "0.1,0.2,0.3"]) == 3
        assert capsys.readouterr().err.count("error: ") == 2

    @pytest.mark.parametrize("kind", ["dense", "sparse", "sparse_int8"])
    def test_every_truncation_is_a_store_error(self, tmp_path, kind):
        path = three_containers(tmp_path)[kind]
        with open(path, "rb") as fh:
            blob = fh.read()
        for cut in range(len(blob)):
            with open(path, "wb") as fh:
                fh.write(blob[:cut])
            for read in (load_model, inspect):
                with pytest.raises(StoreError):
                    read(path)


class TestSizeReport:
    @pytest.mark.parametrize("sparsity", [0.25, 0.5, 0.8])
    def test_ordering_dense_sparse_quantized(self, tmp_path, sparsity):
        net, mask = pruned_net(1, sparsity=sparsity, sizes=(10, 32, 32, 32))
        dense = str(tmp_path / "dense.eidm")
        sparse = str(tmp_path / "sparse.eidm")
        quant = str(tmp_path / "quant.eidm")
        pq = str(tmp_path / "pq.eidm")
        save_dense(net, dense)
        save_sparse(net, mask, sparse)
        save_quantized(quantize_model(net), quant)
        save_quantized(quantize_model(net, mask=mask), pq)
        sizes = {os.path.basename(p): os.path.getsize(p) for p in (dense, sparse, quant, pq)}
        assert sizes["pq.eidm"] < sizes["quant.eidm"] < sizes["dense.eidm"]
        assert sizes["pq.eidm"] < sizes["sparse.eidm"] < sizes["dense.eidm"]
