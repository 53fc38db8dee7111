import json
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgenet.data_pipeline import (ColumnSpec, DatasetSplit, EncodingMap,
                                   FeatureSchema, NormStats, RawTable, apply_transform,
                                   fit_label_encoding, fit_minmax, load_csv,
                                   load_dataset, save_dataset,
                                   save_sidecar, split_indices)
from edgenet.errors import (ConfigError, EmptyFile, MissingColumn,
                            ParseError, ScaleOverflow, StoreError, UnknownCategory)


def schema_dur_proto():
    return FeatureSchema(
        columns=[ColumnSpec("dur", "numeric"), ColumnSpec("proto", "categorical"),
                 ColumnSpec("label", "label")],
        selected_features=["dur", "proto"])


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


CSV_OK = "dur,proto,label\n1.0,tcp,0\n2.0,udp,1\n6.0,icmp,0\n"


class TestSchema:
    def test_exactly_one_label_required(self):
        with pytest.raises(ConfigError):
            FeatureSchema(columns=[ColumnSpec("a", "numeric")], selected_features=["a"])

    def test_selected_must_be_non_label(self):
        with pytest.raises(ConfigError):
            FeatureSchema(columns=[ColumnSpec("a", "numeric"), ColumnSpec("y", "label")],
                          selected_features=["y"])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ConfigError):
            FeatureSchema(columns=[ColumnSpec("a", "numeric"), ColumnSpec("a", "numeric"),
                                   ColumnSpec("y", "label")],
                          selected_features=["a"])

    def test_json_round_trip(self):
        s = schema_dur_proto()
        assert FeatureSchema.from_json(s.to_json()).to_json() == s.to_json()


class TestLoadCsv:
    def test_three_rows_read_back(self, tmp_path):
        table = load_csv(write(tmp_path, CSV_OK), schema_dur_proto())
        assert len(table) == 3
        assert table.columns == ["dur", "proto", "label"]
        dur, proto, label = (table.arrays[c] for c in table.columns)
        assert dur.dtype == np.float64 and dur.tolist() == [1.0, 2.0, 6.0]
        assert proto.dtype.kind == "U" and proto.tolist() == ["tcp", "udp", "icmp"]
        assert label.dtype == np.int64 and label.tolist() == [0, 1, 0]

    def test_missing_schema_column(self, tmp_path):
        path = write(tmp_path, "dur,label\n1.0,0\n")
        with pytest.raises(MissingColumn) as err:
            load_csv(path, schema_dur_proto())
        assert "proto" in str(err.value)

    def test_parse_error_reports_row_and_column(self, tmp_path):
        path = write(tmp_path, "dur,proto,label\n1.0,tcp,0\nabc,udp,1\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, schema_dur_proto())
        assert err.value.row == 2 and err.value.column == "dur"

    @pytest.mark.parametrize("bad, where", [
        # (row 3, dur) comes first in column order, (row 2, label) in row order
        ({(3, "dur"): "abc", (2, "label"): "7"}, (2, "label")),
        # same row: the first column in schema order
        ({(2, "label"): "x", (2, "proto"): " "}, (2, "proto")),
    ])
    def test_parse_error_names_first_bad_cell_in_row_order(self, tmp_path, bad, where):
        cells = [["1.0", "tcp", "0"] for _ in range(4)]
        for (row, col), value in bad.items():
            cells[row - 1][["dur", "proto", "label"].index(col)] = value
        path = write(tmp_path, "dur,proto,label\n" + "".join(",".join(r) + "\n" for r in cells))
        with pytest.raises(ParseError) as err:
            load_csv(path, schema_dur_proto())
        assert (err.value.row, err.value.column) == where

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_cell_rejected(self, tmp_path, bad):
        path = write(tmp_path, f"dur,proto,label\n1.0,tcp,0\n {bad} ,udp,1\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, schema_dur_proto())
        assert (err.value.row, err.value.column) == (2, "dur")
        assert "not a finite number" in str(err.value)

    def test_short_record_is_missing_value(self, tmp_path):
        path = write(tmp_path, "dur,proto,label\n1.0,tcp,0\n2.0,udp\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, schema_dur_proto())
        assert (err.value.row, err.value.column) == (2, "label")
        assert "missing value" in str(err.value)

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyFile):
            load_csv(write(tmp_path, ""), schema_dur_proto())

    def test_header_only(self, tmp_path):
        with pytest.raises(EmptyFile):
            load_csv(write(tmp_path, "dur,proto,label\n"), schema_dur_proto())

    def test_missing_cell_rejected(self, tmp_path):
        path = write(tmp_path, "dur,proto,label\n1.0,,0\n")
        with pytest.raises(ParseError) as err:
            load_csv(path, schema_dur_proto())
        assert err.value.column == "proto"

    def test_label_must_be_binary(self, tmp_path):
        path = write(tmp_path, "dur,proto,label\n1.0,tcp,2\n")
        with pytest.raises(ParseError):
            load_csv(path, schema_dur_proto())

    def test_extra_columns_ignored(self, tmp_path):
        path = write(tmp_path, "id,dur,proto,label\n9,1.0,tcp,0\n8,2.0,udp,1\n")
        table = load_csv(path, schema_dur_proto())
        assert table.columns == ["dur", "proto", "label"]


class TestEncoding:
    def test_lexicographic_codes(self, tmp_path):
        table = load_csv(write(tmp_path, CSV_OK), schema_dur_proto())
        enc = fit_label_encoding(table, schema_dur_proto())
        assert enc.codes["proto"] == {"icmp": 0, "tcp": 1, "udp": 2}

    def test_single_value(self, tmp_path):
        path = write(tmp_path, "dur,proto,label\n1.0,tcp,0\n2.0,tcp,1\n")
        enc = fit_label_encoding(load_csv(path, schema_dur_proto()), schema_dur_proto())
        assert enc.codes["proto"] == {"tcp": 0}

    def test_dedup_and_sort(self, tmp_path):
        path = write(tmp_path, "dur,proto,label\n1,b,0\n2,a,0\n3,b,1\n4,a,1\n")
        enc = fit_label_encoding(load_csv(path, schema_dur_proto()), schema_dur_proto())
        assert enc.codes["proto"] == {"a": 0, "b": 1}

    def test_round_trip(self):
        enc = EncodingMap(codes={"proto": {"icmp": 0, "tcp": 1, "udp": 2}})
        values = np.array(["udp", "icmp", "tcp", "udp"])
        assert enc.encode("proto", values).tolist() == [2, 0, 1, 2]

    def test_unknown_category(self):
        enc = EncodingMap(codes={"proto": {"tcp": 0}})
        with pytest.raises(UnknownCategory) as err:
            enc.encode("proto", np.array(["tcp", "sctp", "gre"]))
        assert (err.value.value, err.value.column) == ("sctp", "proto")


class TestMinMax:
    def test_simple_column(self, tmp_path):
        path = write(tmp_path, "dur,proto,label\n2,tcp,0\n4,tcp,0\n6,tcp,1\n")
        table = load_csv(path, schema_dur_proto())
        enc = fit_label_encoding(table, schema_dur_proto())
        stats = fit_minmax(table, schema_dur_proto(), enc)
        assert stats.stats["dur"] == (2.0, 6.0)

    def test_constant_column(self, tmp_path):
        path = write(tmp_path, "dur,proto,label\n5,tcp,0\n5,tcp,1\n")
        table = load_csv(path, schema_dur_proto())
        enc = fit_label_encoding(table, schema_dur_proto())
        stats = fit_minmax(table, schema_dur_proto(), enc)
        assert stats.stats["dur"] == (5.0, 5.0)

    def test_negative_values(self, tmp_path):
        path = write(tmp_path, "dur,proto,label\n-1,tcp,0\n0,tcp,0\n3,tcp,1\n")
        table = load_csv(path, schema_dur_proto())
        enc = fit_label_encoding(table, schema_dur_proto())
        stats = fit_minmax(table, schema_dur_proto(), enc)
        assert stats.stats["dur"] == (-1.0, 3.0)

    def test_fit_on_subset_of_rows(self, tmp_path):
        table = load_csv(write(tmp_path, CSV_OK), schema_dur_proto())
        enc = fit_label_encoding(table, schema_dur_proto())
        stats = fit_minmax(table, schema_dur_proto(), enc, row_indices=[0, 1])
        assert stats.stats["dur"] == (1.0, 2.0)


class TestTransform:
    def run(self, csv_text, stats_rows=None, tmp_path=None):
        table = load_csv(write(tmp_path, csv_text), schema_dur_proto())
        enc = fit_label_encoding(table, schema_dur_proto())
        stats = fit_minmax(table, schema_dur_proto(), enc, row_indices=stats_rows)
        return apply_transform(table, schema_dur_proto(), enc, stats), table

    def test_midpoint_and_endpoints(self, tmp_path):
        ds, _ = self.run("dur,proto,label\n2,tcp,0\n4,tcp,1\n6,tcp,0\n", tmp_path=tmp_path)
        np.testing.assert_allclose(ds.features[:, 0], [0.0, 0.5, 1.0])

    def test_clamp_above_training_range(self, tmp_path):
        # stats fitted on rows with dur in [2, 6]; transform sees 8
        ds, _ = self.run("dur,proto,label\n2,tcp,0\n6,tcp,1\n8,tcp,0\n",
                         stats_rows=[0, 1], tmp_path=tmp_path)
        assert ds.features[2, 0] == 1.0

    def test_constant_column_maps_to_zero(self, tmp_path):
        ds, _ = self.run("dur,proto,label\n5,tcp,0\n5,tcp,1\n", tmp_path=tmp_path)
        np.testing.assert_array_equal(ds.features[:, 0], [0.0, 0.0])

    def test_all_values_in_unit_interval(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = "\n".join(f"{v:.4f},tcp,{i % 2}" for i, v in
                         enumerate(rng.normal(0, 100, size=50)))
        ds, _ = self.run("dur,proto,label\n" + rows + "\n", tmp_path=tmp_path)
        assert np.all((ds.features >= 0.0) & (ds.features <= 1.0))

    def test_order_preserving(self, tmp_path):
        ds, table = self.run("dur,proto,label\n1,tcp,0\n3,tcp,0\n2,tcp,1\n9,tcp,1\n",
                             tmp_path=tmp_path)
        raw = table.arrays["dur"]
        np.testing.assert_array_equal(raw, [1.0, 3.0, 2.0, 9.0])
        order = np.argsort(raw)
        transformed = ds.features[:, 0]
        assert np.all(np.diff(transformed[order]) >= 0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([-0.0, 0.0, 1e-300, -1e308, 1e308]),
                              st.floats(-1e3, 1e3, allow_nan=False)), min_size=2, max_size=40))
    def test_matches_per_cell_reference(self, values):
        n, k = len(values), (len(values) + 1) // 2
        table = RawTable(arrays={"dur": np.array(values), "proto": np.array(["tcp"] * n),
                                 "label": np.zeros(n, dtype=np.int64)})
        enc = fit_label_encoding(table, schema_dur_proto(), row_indices=range(k))
        mn, mx = min(values[:k]), max(values[:k])
        if not math.isfinite(mx - mn):  # a training range of -1e308 to 1e308
            with pytest.raises(ScaleOverflow) as err:
                fit_minmax(table, schema_dur_proto(), enc, row_indices=range(k))
            assert (err.value.row, err.value.column) == (values.index(mx) + 1, "dur")
            return
        stats = fit_minmax(table, schema_dur_proto(), enc, row_indices=range(k))
        ds = apply_transform(table, schema_dur_proto(), enc, stats)
        expected = [0.0 if mx == mn else min(max((x - mn) / (mx - mn), 0.0), 1.0)
                    for x in values]
        assert repr(stats.stats["dur"]) == repr((mn, mx))  # repr tells -0.0 from 0.0
        assert repr(ds.features[:, 0].tolist()) == repr(expected)

    def test_far_value_beyond_subnormal_range_clamps(self):
        values = [0.0, 5e-324, 1e3, -1e3]
        table = RawTable(arrays={"dur": np.array(values), "proto": np.array(["tcp"] * 4),
                                 "label": np.zeros(4, dtype=np.int64)})
        enc = fit_label_encoding(table, schema_dur_proto())
        stats = fit_minmax(table, schema_dur_proto(), enc, row_indices=[0, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = apply_transform(table, schema_dur_proto(), enc, stats)
        assert ds.features[:, 0].tolist() == [0.0, 1.0, 1.0, 0.0]

    def test_overflowing_training_range_rejected(self):
        values = [3.0, -1e308, 1e308, 1e308]
        table = RawTable(arrays={"dur": np.array(values), "proto": np.array(["tcp"] * 4),
                                 "label": np.zeros(4, dtype=np.int64)})
        enc = fit_label_encoding(table, schema_dur_proto())
        with pytest.raises(ScaleOverflow) as err:
            fit_minmax(table, schema_dur_proto(), enc)
        assert (err.value.row, err.value.column) == (3, "dur")
        assert "overflows" in str(err.value)

    def test_unknown_category_at_transform(self, tmp_path):
        table = load_csv(write(tmp_path, CSV_OK), schema_dur_proto())
        enc = fit_label_encoding(table, schema_dur_proto(), row_indices=[0, 1])
        stats = fit_minmax(table, schema_dur_proto(), enc, row_indices=[0, 1])
        with pytest.raises(UnknownCategory):
            apply_transform(table, schema_dur_proto(), enc, stats)  # row 2 is icmp

    def test_labels_and_row_ids(self, tmp_path):
        ds, _ = self.run(CSV_OK, tmp_path=tmp_path)
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])


class TestSplit:
    def test_sizes_ten_rows(self):
        tr, va, te = split_indices(10, (0.8, 0.1, 0.1), seed=42)
        assert (len(tr), len(va), len(te)) == (8, 1, 1)

    def test_sizes_hundred_rows(self):
        tr, va, te = split_indices(100, (0.6, 0.2, 0.2), seed=0)
        assert (len(tr), len(va), len(te)) == (60, 20, 20)

    def test_deterministic(self):
        a = split_indices(50, (0.8, 0.1, 0.1), seed=9)
        b = split_indices(50, (0.8, 0.1, 0.1), seed=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(3, 500), st.integers(0, 2**32 - 1))
    def test_partition_property(self, n, seed):
        tr, va, te = split_indices(n, (0.6, 0.2, 0.2), seed)
        merged = np.concatenate([tr, va, te])
        assert len(merged) == n
        assert len(np.unique(merged)) == n


class TestDatasetFile:
    def test_round_trip(self, tmp_path):
        ds = DatasetSplit(features=np.random.default_rng(0).random((7, 3)),
                          labels=np.array([0, 1, 1, 0, 1, 0, 0]))
        path = str(tmp_path / "d.eidd")
        save_dataset(ds, path)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.features,
                                      ds.features.astype(np.float32).astype(np.float64))
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_binary_layout(self, tmp_path):
        ds = DatasetSplit(features=np.zeros((2, 3)), labels=np.array([1, 0]))
        path = str(tmp_path / "d.eidd")
        save_dataset(ds, path)
        blob = open(path, "rb").read()
        assert blob[:4] == b"EIDD"
        version, n_rows, n_feat = struct.unpack_from("<HIH", blob, 4)
        assert (version, n_rows, n_feat) == (1, 2, 3)
        assert len(blob) == 4 + 8 + 2 * 3 * 4 + 2
        assert blob[-2:] == bytes([1, 0])  # labels as bytes

    def test_sidecar_round_trip(self, tmp_path):
        schema = schema_dur_proto()
        enc = EncodingMap(codes={"proto": {"tcp": 0, "udp": 1}})
        stats = NormStats(stats={"dur": (0.0, 9.5), "proto": (0.0, 1.0)})
        path = str(tmp_path / "sidecar.json")
        save_sidecar(path, schema, enc, stats, meta={"seed": 4})
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc == {"schema": schema.to_json(), "encoding": enc.codes,
                       "norm_stats": {"dur": [0.0, 9.5], "proto": [0.0, 1.0]},
                       "meta": {"seed": 4}}
        assert FeatureSchema.from_json(doc["schema"]).to_json() == schema.to_json()
        assert {k: tuple(v) for k, v in doc["norm_stats"].items()} == stats.stats

    @pytest.mark.parametrize("patch", ["label", "feature"])
    def test_bad_contents_rejected(self, tmp_path, patch):
        ds = DatasetSplit(features=np.full((2, 3), 0.5), labels=np.array([1, 0]))
        path = tmp_path / "d.eidd"
        save_dataset(ds, str(path))
        blob = bytearray(path.read_bytes())
        if patch == "label":
            blob[-1] = 7
        else:
            blob[12:16] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(blob))
        with pytest.raises(StoreError):
            load_dataset(str(path))
