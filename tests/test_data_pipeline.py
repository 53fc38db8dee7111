import csv
import io
import json
import math
import struct
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edgenet import data_pipeline
from edgenet.data_pipeline import (ColumnSpec, DatasetSplit, EncodingMap,
                                   FeatureSchema, NormStats, RawTable, apply_transform,
                                   fit_label_encoding, fit_minmax, load_csv,
                                   load_dataset, save_dataset,
                                   save_sidecar, split_indices)
from edgenet.errors import (ConfigError, EdgenetError, EmptyFile, MissingColumn,
                            ParseError, ScaleOverflow, StoreError, UnknownCategory)
from oracles import whole_file_table


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
        assert FeatureSchema.from_json(asdict(s)) == s


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

    def test_peak_memory_is_one_block_of_cells(self, tmp_path):
        # 10,000 rows of 20 numbers and a label: a 1.68 MB table. One block
        # of cells at a time plus the typed columns took 3.4 MB; a reader
        # that holds every cell of the file as text peaks at 17.9 MB.
        x = np.random.default_rng(0).random((10_000, 20))
        text = io.StringIO()
        text.write(",".join(f"f{j}" for j in range(20)) + ",label\n")
        np.savetxt(text, np.column_stack([x, x[:, 0] > 0.5]), fmt="%.17g", delimiter=",")
        path = write(tmp_path, text.getvalue())
        schema = FeatureSchema(columns=[ColumnSpec(f"f{j}", "numeric") for j in range(20)]
                               + [ColumnSpec("label", "label")], selected_features=["f0"])
        tracemalloc.start()
        try:
            table = load_csv(path, schema)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == 10_000 and table.arrays["f3"].tobytes() == x[:, 3].tobytes()
        assert peak < 5e6


def outcome(read, path, schema):
    """The (name, dtype, bytes) of each column ``read`` returns, or the class,
    message, row and column of the error it raises."""
    try:
        arrays = read(path, schema)
    except EdgenetError as exc:
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None)
    return [(name, a.dtype.str, a.tobytes()) for name, a in arrays.items()]


def streamed(path, schema):
    return load_csv(path, schema).arrays


GOOD_ROWS = [f"{row}.5,{'icmp' if row == 6 else 'tcp' if row % 2 else 'udp'},{row % 2}"
             for row in range(1, 11)]  # the wider category only in the second block
DEFECTS = {
    "numeric": lambda line: "abc," + line.split(",", 1)[1],
    "label": lambda line: line.rsplit(",", 1)[0] + ",7",
    "short": lambda line: line.rsplit(",", 1)[0],
    "blank": lambda line: "",
}
# a quoted category with a comma and a line break: records 4 and 5 span two
# lines each, so the fourth line after the header ends inside record 4, the
# last record of the first block
QUOTED_ROWS = [f'{row}.0,"t,\ncp",1' if row in (4, 5) else f"{row}.0,tcp,0"
               for row in range(1, 11)]

# spellings float() accepts (a float's repr aside), and ones it rejects or
# that are no finite number
ACCEPTED_NUMBERS = [" 1 ", "1_000", "+.5e-3", "-0.0", "1e-400", "4.9e-324", "\u0661\u0662",
                    "\uff13.5", "\u00a07\u2003"]
REJECTED_NUMBERS = ["1e400", "-1e400", "nan", "-Infinity", "0x10", "1__0", "_1", "1e", "",
                    " "]


class TestBlockedLoadCsv:
    """``load_csv`` in blocks of 4 records against the whole-file oracle:
    the same columns (order, dtype, bytes) or the same error."""

    @pytest.fixture(autouse=True)
    def blocks_of_four(self, monkeypatch):
        monkeypatch.setattr(data_pipeline, "CSV_BLOCK_ROWS", 4)

    @staticmethod
    def same_as_oracle(tmp_path, text, schema=None):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        schema = schema or schema_dur_proto()
        expected = outcome(whole_file_table, str(path), schema)
        assert outcome(streamed, str(path), schema) == expected
        return expected

    @staticmethod
    def csv_text(rows, header="dur,proto,label", newline="\n"):
        return newline.join([header] + rows) + newline

    @pytest.mark.parametrize("row", [3, 4, 5, 8, 10])
    @pytest.mark.parametrize("defect", list(DEFECTS))
    def test_bad_cell_on_either_side_of_a_block_boundary(self, tmp_path, defect, row):
        rows = list(GOOD_ROWS)
        rows[row - 1] = DEFECTS[defect](rows[row - 1])
        expected = self.same_as_oracle(tmp_path, self.csv_text(rows))
        assert expected[0] is ParseError and expected[2] == row

    def test_first_bad_cell_in_row_order_across_blocks(self, tmp_path):
        rows = list(GOOD_ROWS)
        rows[6] = DEFECTS["numeric"](rows[6])  # row 7, dur
        rows[5] = DEFECTS["label"](rows[5])    # row 6, label
        rows[9] = DEFECTS["numeric"](rows[9])  # row 10, in the last block
        assert self.same_as_oracle(tmp_path, self.csv_text(rows))[2:] == (6, "label")

    @pytest.mark.parametrize("n", [1, 3, 4, 5, 8, 10])
    def test_whole_and_partial_blocks(self, tmp_path, n):
        assert isinstance(self.same_as_oracle(tmp_path, self.csv_text(GOOD_ROWS[:n])), list)

    def test_header_only(self, tmp_path):
        assert self.same_as_oracle(tmp_path, "dur,proto,label\n")[0] is EmptyFile

    def test_byte_order_mark_and_crlf(self, tmp_path):
        for text in ("\ufeff" + self.csv_text(GOOD_ROWS),
                     self.csv_text(GOOD_ROWS, newline="\r\n")):
            assert isinstance(self.same_as_oracle(tmp_path, text), list)

    def test_quoted_line_break_straddles_a_block_boundary(self, tmp_path):
        assert isinstance(self.same_as_oracle(tmp_path, self.csv_text(QUOTED_ROWS)), list)
        rows = list(QUOTED_ROWS)
        rows[8] = DEFECTS["numeric"](rows[8])  # rows count records, not lines
        assert self.same_as_oracle(tmp_path, self.csv_text(rows))[2:] == (9, "dur")

    def test_columns_out_of_order_and_extra(self, tmp_path):
        rows = [f"{row},{row % 2},x,{row}.25,{'udp' if row > 4 else 'tcp'}"
                for row in range(1, 11)]
        rows[8] = rows[8].rsplit(",", 1)[0]  # a short record at row 9
        expected = self.same_as_oracle(tmp_path, self.csv_text(rows, "id,label,pad,dur,proto"))
        assert expected[2:] == (9, "proto")

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(
        st.one_of(st.sampled_from(ACCEPTED_NUMBERS),
                  st.floats(allow_nan=False, allow_infinity=False).map(repr)),
        st.sampled_from(["0", "1", " 1 ", "1.0", "-0.0", "1e0", "\uff11"])),
        min_size=1, max_size=13),
        st.none() | st.tuples(st.integers(0, 12), st.sampled_from([0, 1]),
                              st.sampled_from(REJECTED_NUMBERS)))
    def test_number_spellings_match_oracle(self, tmp_path, rows, bad):
        if bad is not None:  # one dur or label cell that is no finite number
            row, col, spelling = bad
            cells = list(rows[row % len(rows)])
            cells[col] = spelling
            rows[row % len(rows)] = tuple(cells)
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(["dur", "proto", "label"])
        writer.writerows((dur, "tcp", label) for dur, label in rows)
        expected = self.same_as_oracle(tmp_path, text.getvalue())
        assert (bad is None) == isinstance(expected, list)


class TestEncoding:
    def test_lexicographic_codes(self, tmp_path):
        table = load_csv(write(tmp_path, CSV_OK), schema_dur_proto())
        enc = fit_label_encoding(table, schema_dur_proto(), range(len(table)))
        assert enc.codes["proto"] == {"icmp": 0, "tcp": 1, "udp": 2}

    def test_single_value(self, tmp_path):
        path = write(tmp_path, "dur,proto,label\n1.0,tcp,0\n2.0,tcp,1\n")
        enc = fit_label_encoding(load_csv(path, schema_dur_proto()), schema_dur_proto(), range(2))
        assert enc.codes["proto"] == {"tcp": 0}

    def test_dedup_and_sort(self, tmp_path):
        path = write(tmp_path, "dur,proto,label\n1,b,0\n2,a,0\n3,b,1\n4,a,1\n")
        enc = fit_label_encoding(load_csv(path, schema_dur_proto()), schema_dur_proto(),
                                 range(4))
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
        enc = fit_label_encoding(table, schema_dur_proto(), range(len(table)))
        stats = fit_minmax(table, schema_dur_proto(), enc, range(len(table)))
        assert stats.stats["dur"] == (2.0, 6.0)

    def test_constant_column(self, tmp_path):
        path = write(tmp_path, "dur,proto,label\n5,tcp,0\n5,tcp,1\n")
        table = load_csv(path, schema_dur_proto())
        enc = fit_label_encoding(table, schema_dur_proto(), range(len(table)))
        stats = fit_minmax(table, schema_dur_proto(), enc, range(len(table)))
        assert stats.stats["dur"] == (5.0, 5.0)

    def test_negative_values(self, tmp_path):
        path = write(tmp_path, "dur,proto,label\n-1,tcp,0\n0,tcp,0\n3,tcp,1\n")
        table = load_csv(path, schema_dur_proto())
        enc = fit_label_encoding(table, schema_dur_proto(), range(len(table)))
        stats = fit_minmax(table, schema_dur_proto(), enc, range(len(table)))
        assert stats.stats["dur"] == (-1.0, 3.0)

    def test_fit_on_subset_of_rows(self, tmp_path):
        table = load_csv(write(tmp_path, CSV_OK), schema_dur_proto())
        enc = fit_label_encoding(table, schema_dur_proto(), range(len(table)))
        stats = fit_minmax(table, schema_dur_proto(), enc, row_indices=[0, 1])
        assert stats.stats["dur"] == (1.0, 2.0)


class TestTransform:
    def run(self, csv_text, stats_rows=None, tmp_path=None):
        table = load_csv(write(tmp_path, csv_text), schema_dur_proto())
        rows = range(len(table))
        enc = fit_label_encoding(table, schema_dur_proto(), rows)
        stats = fit_minmax(table, schema_dur_proto(), enc,
                           row_indices=rows if stats_rows is None else stats_rows)
        return apply_transform(table, schema_dur_proto(), enc, stats, rows), table

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
        ds = apply_transform(table, schema_dur_proto(), enc, stats, range(len(table)))
        expected = [0.0 if mx == mn else min(max((x - mn) / (mx - mn), 0.0), 1.0)
                    for x in values]
        assert repr(stats.stats["dur"]) == repr((mn, mx))  # repr tells -0.0 from 0.0
        assert repr(ds.features[:, 0].tolist()) == repr(expected)

    def test_far_value_beyond_subnormal_range_clamps(self):
        values = [0.0, 5e-324, 1e3, -1e3]
        table = RawTable(arrays={"dur": np.array(values), "proto": np.array(["tcp"] * 4),
                                 "label": np.zeros(4, dtype=np.int64)})
        enc = fit_label_encoding(table, schema_dur_proto(), range(len(table)))
        stats = fit_minmax(table, schema_dur_proto(), enc, row_indices=[0, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = apply_transform(table, schema_dur_proto(), enc, stats, range(len(table)))
        assert ds.features[:, 0].tolist() == [0.0, 1.0, 1.0, 0.0]

    def test_overflowing_training_range_rejected(self):
        values = [3.0, -1e308, 1e308, 1e308]
        table = RawTable(arrays={"dur": np.array(values), "proto": np.array(["tcp"] * 4),
                                 "label": np.zeros(4, dtype=np.int64)})
        enc = fit_label_encoding(table, schema_dur_proto(), range(len(table)))
        with pytest.raises(ScaleOverflow) as err:
            fit_minmax(table, schema_dur_proto(), enc, range(len(table)))
        assert (err.value.row, err.value.column) == (3, "dur")
        assert "overflows" in str(err.value)

    def test_unknown_category_at_transform(self, tmp_path):
        table = load_csv(write(tmp_path, CSV_OK), schema_dur_proto())
        enc = fit_label_encoding(table, schema_dur_proto(), row_indices=[0, 1])
        stats = fit_minmax(table, schema_dur_proto(), enc, row_indices=[0, 1])
        with pytest.raises(UnknownCategory):
            apply_transform(table, schema_dur_proto(), enc, stats, range(3))  # row 2 is icmp

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
        assert doc == {"schema": asdict(schema), "encoding": enc.codes,
                       "norm_stats": {"dur": [0.0, 9.5], "proto": [0.0, 1.0]},
                       "meta": {"seed": 4}}
        assert FeatureSchema.from_json(doc["schema"]) == schema
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
