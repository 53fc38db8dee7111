import argparse
import hashlib
import json
import os
import struct
from dataclasses import asdict

import numpy as np
import pytest

from edgenet import cli
from edgenet.cli import _model_scores, build_parser, main
from edgenet.config import RunConfig, config_from_dict
from edgenet.data_pipeline import (ColumnSpec, DatasetSplit, FeatureSchema, save_dataset,
                                   split_indices)
from edgenet.lstm_net import NetworkParams, init_params, zeros_params
from edgenet.metrics import RocCurve
from edgenet.model_store import load_model, save_dense, save_quantized
from edgenet.pruning import apply_masks, compute_masks
from edgenet.quantizer import quantize_model, quantized_scores
from edgenet.synthetic import config_dict, make_synthetic, write_csv


def small_config(tmp_path, rows=120):
    """Config with shrunken epochs/architecture for fast CLI runs."""
    doc = config_dict(seed=42)
    doc["architecture"].update({"layers": 2, "hidden": 8})
    for phase in ("dense", "sparse", "redense"):
        doc["phases"][phase].update({"epochs": 2, "batch_size": 32})
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc), encoding="utf-8")
    x, y = make_synthetic(n_rows=rows, seed=11)
    csv_path = tmp_path / "data.csv"
    write_csv(str(csv_path), x, y)
    return str(cfg_path), str(csv_path)


@pytest.fixture()
def workdir(tmp_path):
    cfg, csv = small_config(tmp_path)
    return tmp_path, cfg, csv


class TestPipeline:
    def test_full_flow(self, workdir, capsys):
        tmp, cfg, csv = workdir
        data = str(tmp / "data")
        models = str(tmp / "models")

        assert main(["preprocess", "--config", cfg, "--csv", csv, "--out", data]) == 0
        for f in ("train.eidd", "val.eidd", "test.eidd", "sidecar.json"):
            assert os.path.exists(os.path.join(data, f))

        assert main(["train", "--config", cfg, "--data", data, "--out", models]) == 0
        for f in ("baseline.eidm", "pruned.eidm", "checkpoint_dense.eidm", "run.csv"):
            assert os.path.exists(os.path.join(models, f))
        run_lines = open(os.path.join(models, "run.csv")).read().strip().split("\n")
        assert run_lines[0].startswith("epoch,phase,train_loss")
        assert len(run_lines) == 1 + 6  # 2 epochs per phase

        base = os.path.join(models, "baseline.eidm")
        quant = os.path.join(models, "quantized.eidm")
        pruned = os.path.join(models, "pruned.eidm")
        pq = os.path.join(models, "pruned_quantized.eidm")
        assert main(["quantize", base, quant]) == 0
        assert main(["quantize", pruned, pq]) == 0
        assert os.path.getsize(quant) < os.path.getsize(base)
        assert os.path.getsize(pq) < os.path.getsize(pruned)

        eval_dir = str(tmp / "eval")
        assert main(["evaluate", base, os.path.join(data, "val.eidd"),
                     "--out", eval_dir]) == 0
        metrics = open(os.path.join(eval_dir, "metrics.csv")).read()
        assert metrics.startswith("FAR%,Acc%,Prec%,DR%,F1%\n")
        roc = open(os.path.join(eval_dir, "roc.csv")).read()
        assert roc.startswith("fpr,tpr\n")

        capsys.readouterr()
        assert main(["size-report", "--baseline", base, quant, pruned, pq,
                     "--eval", "baseline=" + os.path.join(eval_dir, "metrics.csv")]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "name,accuracy,size_bytes,ratio"
        assert len(lines) == 5
        assert lines[1].startswith("baseline,") and ",1.0000" in lines[1]

        assert main(["dump", pq]) == 0
        capsys.readouterr()
        feats = ",".join(["0.5"] * 10)
        assert main(["predict", quant, "--features", feats]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"probability", "label"}
        assert payload["label"] in (0, 1)

    def test_preprocess_reruns_byte_identical(self, workdir):
        tmp, cfg, csv = workdir
        d1, d2 = str(tmp / "d1"), str(tmp / "d2")
        assert main(["preprocess", "--config", cfg, "--csv", csv, "--out", d1]) == 0
        assert main(["preprocess", "--config", cfg, "--csv", csv, "--out", d2]) == 0
        for f in ("train.eidd", "val.eidd", "test.eidd", "sidecar.json"):
            a = open(os.path.join(d1, f), "rb").read()
            b = open(os.path.join(d2, f), "rb").read()
            assert a == b, f

    def test_seed_override_changes_split(self, workdir):
        tmp, cfg, csv = workdir
        d1, d2 = str(tmp / "d1"), str(tmp / "d2")
        assert main(["preprocess", "--config", cfg, "--csv", csv, "--out", d1]) == 0
        assert main(["preprocess", "--config", cfg, "--csv", csv, "--out", d2,
                     "--seed", "7"]) == 0
        a = open(os.path.join(d1, "train.eidd"), "rb").read()
        b = open(os.path.join(d2, "train.eidd"), "rb").read()
        assert a != b


class TestErrorPaths:
    def test_unknown_category_in_test_rows(self, tmp_path, capsys):
        # place the unseen category at a row the seed routes to the test split
        cfg_doc = {
            "seed": 42,
            "schema": {"columns": [{"name": "dur", "kind": "numeric"},
                                   {"name": "proto", "kind": "categorical"},
                                   {"name": "label", "kind": "label"}],
                       "selected_features": ["dur", "proto"]},
            "split": {"ratios": [0.6, 0.2, 0.2]},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_doc), encoding="utf-8")
        n = 10
        _, _, test_idx = split_indices(n, (0.6, 0.2, 0.2), seed=42)
        protos = ["tcp"] * n
        protos[int(test_idx[0])] = "udp"  # only occurrence, never in train
        rows = "\n".join(f"{i}.0,{protos[i]},{i % 2}" for i in range(n))
        csv = tmp_path / "d.csv"
        csv.write_text("dur,proto,label\n" + rows + "\n", encoding="utf-8")
        rc = main(["preprocess", "--config", str(cfg), "--csv", str(csv),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "UnknownCategory" in capsys.readouterr().err

    def test_failed_preprocess_leaves_the_output_directory_as_it_was(self, tmp_path, capsys):
        """An unseen category in the test split is found before any split is
        written, so a directory from an earlier run is not left half replaced."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 42,
            "schema": {"columns": [{"name": "dur", "kind": "numeric"},
                                   {"name": "proto", "kind": "categorical"},
                                   {"name": "label", "kind": "label"}],
                       "selected_features": ["dur", "proto"]},
            "split": {"ratios": [0.6, 0.2, 0.2]}}), encoding="utf-8")
        n, out = 10, tmp_path / "out"
        _, _, test_idx = split_indices(n, (0.6, 0.2, 0.2), seed=42)
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        first.write_text("dur,proto,label\n" + "".join(
            f"{i}.0,tcp,{i % 2}\n" for i in range(n)), encoding="utf-8")
        protos = ["tcp"] * n
        protos[int(test_idx[0])] = "udp"
        second.write_text("dur,proto,label\n" + "".join(
            f"{i * i}.5,{protos[i]},{i % 2}\n" for i in range(n)), encoding="utf-8")
        assert main(["preprocess", "--config", str(cfg), "--csv", str(first),
                     "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == ["sidecar.json", "test.eidd", "train.eidd", "val.eidd"]
        assert main(["preprocess", "--config", str(cfg), "--csv", str(second),
                     "--out", str(out)]) == 1
        assert "UnknownCategory" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_unknown_config_key(self, tmp_path, capsys):
        # a typo, and the settings that were deleted: older demo configs
        # carry them and must fail at load, naming the key
        cases = {"seeed": {"seeed": 1},
                 "architecture.tied_output_gate": {"architecture": {"tied_output_gate": False}},
                 "quantization": {"quantization": {"q_min": -128, "q_max": 127,
                                                   "fixed_range": False}},
                 "early_stop.sparse": {"early_stop": {"sparse": False}}}
        cfg = tmp_path / "cfg.json"
        for key, doc in cases.items():
            cfg.write_text(json.dumps(doc), encoding="utf-8")
            rc = main(["preprocess", "--config", str(cfg), "--csv", "x.csv",
                       "--out", str(tmp_path / "out")])
            assert rc == 1, key
            assert f"unknown config key(s): {key}\n" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    def test_quantize_takes_no_config(self, tmp_path, capsys):
        model = str(tmp_path / "m.eidm")
        save_dense(zeros_params((3, 4), dropout_rate=0.0), model)
        (tmp_path / "cfg.json").write_text("{}", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["quantize", model, str(tmp_path / "q.eidm"),
                  "--config", str(tmp_path / "cfg.json")])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "q.eidm")

    def test_non_utf8_config_rejected(self, workdir, capsys):
        tmp, cfg, csv = workdir
        blob = open(cfg, "rb").read().replace(b'"f0"', b'"f\xff0"', 1)
        bad_cfg = tmp / "bad.json"
        bad_cfg.write_bytes(blob)
        rc = main(["preprocess", "--config", str(bad_cfg), "--csv", csv,
                   "--out", str(tmp / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err and "UTF-8" in err
        assert not os.path.exists(tmp / "out")

    @pytest.mark.parametrize("command", ["preprocess", "train"])
    def test_negative_seed_flag_rejected(self, workdir, capsys, command):
        tmp, cfg, csv = workdir
        data, out = str(tmp / "data"), tmp / "out"
        assert main(["preprocess", "--config", cfg, "--csv", csv, "--out", data]) == 0
        inputs = ["--csv", csv] if command == "preprocess" else ["--data", data]
        rc = main([command, "--config", cfg, *inputs, "--out", str(out), "--seed", "-1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err and "seed must be >= 0" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("name,metrics,message", [
        ("typo", b"FAR%,Acc%\n1.0,90.0\n", "names no model in the report: typo"),
        ("a", b"FAR%,Acc%\n1.0,9\xff0.0\n", "not UTF-8"),
    ], ids=["unknown_name", "not_utf8"])
    def test_size_report_eval_faults(self, tmp_path, capsys, name, metrics, message):
        save_dense(zeros_params((3, 4), dropout_rate=0.0), str(tmp_path / "a.eidm"))
        (tmp_path / "m.csv").write_bytes(metrics)
        out = tmp_path / "report.csv"
        rc = main(["size-report", "--baseline", str(tmp_path / "a.eidm"),
                   "--eval", f"{name}={tmp_path / 'm.csv'}", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err and message in err
        assert not os.path.exists(out)

    def test_predict_on_oversized_layer_sizes_exit_3(self, tmp_path, capsys):
        # the architecture claims a 9999999-wide layer the records do not hold
        path = tmp_path / "m.eidm"
        save_dense(zeros_params((3, 4), dropout_rate=0.0), str(path))
        blob = path.read_bytes()
        (old_len,) = struct.unpack_from("<I", blob, 8)
        arch = b'{"dropout_rate":0.0,"layer_sizes":[3,9999999],"tied_output_gate":false}'
        path.write_bytes(blob[:8] + struct.pack("<I", len(arch)) + arch + blob[12 + old_len:])
        assert main(["predict", str(path), "--features", "0.1,0.2,0.3"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "malformed container contents" in err and "imply" in err

    def test_missing_model_is_io_error(self, tmp_path, capsys):
        rc = main(["dump", str(tmp_path / "nope.eidm")])
        assert rc == 3

    @pytest.mark.parametrize("command", [["evaluate", "m.eidm", "d.eidd"],
                                         ["predict", "m.eidm", "--features", "0.5"],
                                         ["predict", "m.eidm", "--features", "x"]],
                             ids=["evaluate", "predict", "predict_bad_features"])
    @pytest.mark.parametrize("threshold", ["1.5", "-3", "nan"])
    def test_bad_threshold(self, tmp_path, capsys, command, threshold):
        # the files do not exist: the check comes before any file is read,
        # and before --features is parsed
        rc = main(command + ["--threshold", threshold])
        assert rc == 1
        assert "threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_csv_cell_rejected(self, workdir, capsys, bad):
        tmp, cfg, csv = workdir
        lines = open(csv).read().split("\n")
        cells = lines[3].split(",")
        cells[2] = bad
        lines[3] = ",".join(cells)
        bad_csv = tmp / "bad.csv"
        bad_csv.write_text("\n".join(lines), encoding="utf-8")
        rc = main(["preprocess", "--config", cfg, "--csv", str(bad_csv),
                   "--out", str(tmp / "out")])
        assert rc == 1
        assert "row 3, column 'f2'" in capsys.readouterr().err
        assert not os.path.exists(tmp / "out")

    def preprocess_edited(self, workdir, capsys, edit):
        """Exit code and stderr of preprocess on the workdir CSV's bytes after
        ``edit``; checks that nothing was written."""
        tmp, cfg, csv = workdir
        bad_csv = tmp / "bad.csv"
        bad_csv.write_bytes(edit(open(csv, "rb").read()))
        rc = main(["preprocess", "--config", cfg, "--csv", str(bad_csv),
                   "--out", str(tmp / "out")])
        assert not os.path.exists(tmp / "out")
        return rc, capsys.readouterr().err

    def test_one_row_csv_rejected(self, workdir, capsys):
        rc, err = self.preprocess_edited(
            workdir, capsys, lambda blob: b"\n".join(blob.split(b"\n")[:2]) + b"\n")
        assert rc == 1
        assert "EmptySplit" in err and "1 rows" in err

    def test_empty_val_split_rejected(self, workdir, capsys):
        # 9 rows at 0.8/0.1/0.1: 7 train, 0 val, 2 test
        rc, err = self.preprocess_edited(
            workdir, capsys, lambda blob: b"\n".join(blob.split(b"\n")[:10]) + b"\n")
        assert rc == 1
        assert "EmptySplit" in err and "val split" in err and "9 rows" in err

    def test_short_dataset_file_exit_3(self, tmp_path, capsys):
        model = str(tmp_path / "zero.eidm")
        save_dense(zeros_params((3, 4), dropout_rate=0.0), model)
        data = tmp_path / "short.eidd"
        data.write_bytes(b"EIDD\x01\x00")
        assert main(["evaluate", model, str(data)]) == 3
        assert "shorter than its 12-byte header" in capsys.readouterr().err

    def test_non_utf8_byte_rejected(self, workdir, capsys):
        rc, err = self.preprocess_edited(workdir, capsys,
                                         lambda blob: blob.replace(b"0.", b"\xff0.", 1))
        assert rc == 1
        assert "BadCsv" in err and "UTF-8" in err

    def test_oversized_field_rejected(self, workdir, capsys):
        long_cell = b"0." + b"1" * 131_072
        rc, err = self.preprocess_edited(workdir, capsys,
                                         lambda blob: blob.replace(b"0.", long_cell, 1))
        assert rc == 1
        assert "BadCsv" in err and "field limit" in err

    @pytest.mark.parametrize("defect, message", [
        (lambda line: b"\xff" + line, "UTF-8"),
        (lambda line: b"0." + b"1" * 131_072 + line, "field limit"),
    ], ids=["non_utf8", "oversized_field"])
    def test_bad_csv_after_a_bad_cell_still_wins(self, tmp_path, capsys, defect, message):
        # the bad cell is in the first block of records, the defect some
        # 200 kB later in the third: the whole file is still read
        cfg, csv = small_config(tmp_path, rows=2_500)
        lines = (tmp_path / "data.csv").read_bytes().split(b"\n")
        lines[2] = b"abc," + lines[2].split(b",", 1)[1]
        lines[2_400] = defect(lines[2_400])
        assert len(b"\n".join(lines[:2_400])) > 200_000
        (tmp_path / "data.csv").write_bytes(b"\n".join(lines))
        assert main(["preprocess", "--config", cfg, "--csv", csv,
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "BadCsv" in err and message in err
        assert not os.path.exists(tmp_path / "out")

    def test_overflowing_column_range_rejected(self, workdir, capsys):
        def spread_f2(blob):
            lines = blob.decode("utf-8").split("\n")
            for i in range(1, len(lines) - 1):
                cells = lines[i].split(",")
                cells[2] = "1e308" if i % 2 else "-1e308"
                lines[i] = ",".join(cells)
            return "\n".join(lines).encode("utf-8")

        rc, err = self.preprocess_edited(workdir, capsys, spread_f2)
        assert rc == 1
        assert "ScaleOverflow" in err and "column 'f2'" in err and "overflows" in err

    def test_nan_scores_exit_1(self, tmp_path, capsys, deadline):
        net = zeros_params((3, 4), dropout_rate=0.0)
        net.head_b[...] = np.nan
        model = str(tmp_path / "nan.eidm")
        save_dense(net, model)
        ds = DatasetSplit(features=np.full((4, 3), 0.5), labels=np.array([0, 1, 0, 1]))
        data = str(tmp_path / "d.eidd")
        save_dataset(ds, data)
        deadline(5)
        rc = main(["evaluate", model, data])
        assert rc == 1
        assert "NonFiniteScore" in capsys.readouterr().err

    def nan_model(self, tmp_path):
        net = zeros_params((3, 4), dropout_rate=0.0)
        net.head_b[...] = np.nan
        model = str(tmp_path / "nan.eidm")
        save_dense(net, model)
        return model

    def test_nan_scores_on_single_class_split_exit_1(self, tmp_path, capsys):
        # ROC is skipped on one class, so only the score check can catch this
        ds = DatasetSplit(features=np.full((4, 3), 0.5), labels=np.zeros(4, dtype=np.int64))
        data = str(tmp_path / "d.eidd")
        save_dataset(ds, data)
        out_dir = tmp_path / "eval"
        rc = main(["evaluate", self.nan_model(tmp_path), data, "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert "NonFiniteScore" in captured.err and "4 of 4 rows" in captured.err
        assert not out_dir.exists()

    def test_nan_score_predict_exit_1(self, tmp_path, capsys):
        rc = main(["predict", self.nan_model(tmp_path), "--features", "0.5,0.5,0.5"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert "NonFiniteScore" in captured.err

    def zero_feature_split(self, path):
        save_dataset(DatasetSplit(features=np.zeros((4, 0)), labels=np.array([0, 1, 0, 1])),
                     str(path))

    def test_zero_feature_dataset_evaluate_exit_3(self, tmp_path, capsys):
        model = str(tmp_path / "zero.eidm")
        save_dense(zeros_params((3, 4), dropout_rate=0.0), model)
        data = tmp_path / "empty.eidd"
        self.zero_feature_split(data)
        assert main(["evaluate", model, str(data)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "zero features" in captured.err

    def test_zero_feature_dataset_train_exit_3(self, workdir, capsys):
        tmp, cfg, _ = workdir
        data = tmp / "data"
        data.mkdir()
        for name in ("train", "val", "test"):
            self.zero_feature_split(data / f"{name}.eidd")
        out = tmp / "model"
        assert main(["train", "--config", cfg, "--data", str(data), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "zero features" in captured.err and not out.exists()

    @pytest.mark.parametrize("bad", [1e38, -5.0, 1.0000001, np.nan])
    def test_out_of_range_dataset_evaluate_exit_3(self, tmp_path, capsys, bad):
        model = str(tmp_path / "zero.eidm")
        save_dense(zeros_params((3, 4), dropout_rate=0.0), model)
        features = np.full((4, 3), 0.5)
        features[2, 1] = bad
        data = str(tmp_path / "bad.eidd")
        save_dataset(DatasetSplit(features=features, labels=np.array([0, 1, 0, 1])), data)
        assert main(["evaluate", model, data]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{data} holds a feature outside [0, 1]" in captured.err

    def test_out_of_range_dataset_train_exit_3(self, workdir, capsys):
        tmp, cfg, csv = workdir
        data = tmp / "data"
        assert main(["preprocess", "--config", cfg, "--csv", csv, "--out", str(data)]) == 0
        train = data / "train.eidd"
        blob = bytearray(train.read_bytes())
        blob[12:16] = struct.pack("<f", -5.0)  # the first feature of the first row
        train.write_bytes(bytes(blob))
        capsys.readouterr()
        out = tmp / "model"
        assert main(["train", "--config", cfg, "--data", str(data), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert f"{train} holds a feature outside [0, 1]" in captured.err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_features_rejected(self, tmp_path, capsys, bad):
        model = str(tmp_path / "zero.eidm")
        save_dense(zeros_params((3, 4), dropout_rate=0.0), model)
        rc = main(["predict", model, "--features", f"0.5,{bad},0.5"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "ConfigError" in captured.err

    @pytest.mark.parametrize("features,named", [
        ("0.5,1e300,0.5", "value 2 of 3 is 1e+300"),
        ("-5,0.5,0.5", "value 1 of 3 is -5.0"),
        ("0.5,0.5,1.0000001", "value 3 of 3 is 1.0000001"),
        ("0.5,-5,7", "value 2 of 3 is -5.0"),  # the first of two
    ])
    def test_out_of_range_features_rejected_before_the_model_is_read(
            self, tmp_path, capsys, features, named):
        # no model file exists: the features are checked first
        rc = main(["predict", str(tmp_path / "missing.eidm"), "--features=" + features])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert f"ConfigError: --features {named}, outside [0, 1]" in captured.err

    def test_leading_minus_value_reaches_the_range_check(self, tmp_path, capsys):
        # a separate value, not "--features=...": argparse must not read it as an option
        rc = main(["predict", str(tmp_path / "missing.eidm"), "--features", "-5,0.5,0.5"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert "ConfigError: --features value 1 of 3 is -5.0, outside [0, 1]" in captured.err

    def test_leading_negative_zero_is_scored(self, tmp_path, capsys):
        model = str(tmp_path / "zero.eidm")
        save_dense(zeros_params((3, 4), dropout_rate=0.0), model)
        assert main(["predict", model, "--features", "-0.0,0.5,0.5"]) == 0
        assert json.loads(capsys.readouterr().out) == {"probability": 0.5, "label": 1}

    def test_range_edges_accepted(self, tmp_path, capsys):
        model = str(tmp_path / "zero.eidm")
        save_dense(zeros_params((3, 4), dropout_rate=0.0), model)
        assert main(["predict", model, "--features", "0,1,0.0"]) == 0
        assert json.loads(capsys.readouterr().out) == {"probability": 0.5, "label": 1}

    @pytest.mark.parametrize("tensor,value", [("head.w", np.nan), ("layer0.w_i", np.inf),
                                              ("layer0.b_o", np.nan)],
                             ids=["nan_weight", "inf_weight", "nan_bias"])
    def test_non_finite_tensor_not_quantized(self, tmp_path, capsys, tensor, value):
        net = init_params((3, 4), seed=0, dropout_rate=0.0)
        net.tensors()[tensor][...] = value
        model, out = str(tmp_path / "m.eidm"), tmp_path / "q.eidm"
        save_dense(net, model)
        assert main(["quantize", model, str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "ConfigError" in captured.err
        assert f"'{tensor}'" in captured.err and "NaN or inf" in captured.err
        assert not out.exists()

    def test_non_finite_bias_in_int8_container_exit_3(self, tmp_path, capsys):
        # quantize never writes one, but a container from elsewhere may hold it
        qm = quantize_model(init_params((3, 4), seed=0, dropout_rate=0.0))
        qm.biases["layer0.b_o"][0] = np.nan
        model, out = str(tmp_path / "q.eidm"), tmp_path / "q2.eidm"
        save_quantized(qm, model)
        for command in (["quantize", model, str(out)],
                        ["predict", model, "--features", "0.5,0.5,0.5"]):
            assert main(command) == 3
            captured = capsys.readouterr()
            assert captured.out == "" and model in captured.err
            assert "'layer0.b_o'" in captured.err and "NaN or inf" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["float", "int8"])
    def test_width_not_a_multiple_of_the_input_size_exit_1(self, tmp_path, capsys, kind):
        net = init_params((3, 4), seed=0, dropout_rate=0.0)
        model, data = str(tmp_path / "m.eidm"), str(tmp_path / "d.eidd")
        if kind == "int8":
            save_quantized(quantize_model(net), model)
        else:
            save_dense(net, model)
        save_dataset(DatasetSplit(features=np.full((4, 4), 0.5), labels=np.array([0, 1, 0, 1])),
                     data)
        for command in (["evaluate", model, data],
                        ["predict", model, "--features", "0.1,0.2,0.3,0.4"]):
            assert main(command) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "dataset has 4 features; model expects a multiple of 3" in captured.err

    @pytest.mark.parametrize("first", [b"f0", b'"f0"'], ids=["bare", "quoted"])
    def test_byte_order_mark_before_the_header(self, workdir, first):
        tmp, cfg, csv = workdir
        bom_csv = tmp / "bom.csv"
        bom_csv.write_bytes(b"\xef\xbb\xbf" + first + open(csv, "rb").read()[2:])
        for name, path in (("plain", csv), ("bom", str(bom_csv))):
            assert main(["preprocess", "--config", cfg, "--csv", path,
                         "--out", str(tmp / name)]) == 0
        for name in ("train.eidd", "val.eidd", "test.eidd", "sidecar.json"):
            assert (tmp / "bom" / name).read_bytes() == (tmp / "plain" / name).read_bytes()

    def test_schema_column_named_twice_rejected(self, workdir, capsys):
        def second_f0(blob):
            lines = blob.split(b"\n")
            return b"\n".join([lines[0] + b",f0"] + [l + b",0.5" for l in lines[1:] if l]) + b"\n"

        rc, err = self.preprocess_edited(workdir, capsys, second_f0)
        assert rc == 1
        assert "BadCsv" in err and "twice: f0" in err

    @pytest.mark.parametrize("hidden", [10 ** 8, 10 ** 9])
    def test_unallocatable_architecture_exit_1(self, workdir, capsys, hidden):
        # numpy refuses both sizes before touching any memory
        tmp, cfg, csv = workdir
        doc = json.loads(open(cfg).read())
        doc["architecture"]["hidden"] = hidden
        big_cfg = tmp / "big.json"
        big_cfg.write_text(json.dumps(doc), encoding="utf-8")
        data, out = str(tmp / "data"), tmp / "m"
        assert main(["preprocess", "--config", cfg, "--csv", csv, "--out", data]) == 0
        capsys.readouterr()
        rc = main(["train", "--config", str(big_cfg), "--data", data, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert "ConfigError" in captured.err
        assert f"cannot allocate layer sizes [10, {hidden}, {hidden}]" in captured.err
        assert not out.exists()

    def test_divergence_exit_code(self, workdir, capsys):
        # no numpy warning on the way: the loss check alone reports it
        tmp, cfg, csv = workdir
        doc = json.loads(open(cfg).read())
        doc["phases"]["dense"]["learning_rate"] = 1e200
        bad_cfg = tmp / "bad.json"
        bad_cfg.write_text(json.dumps(doc), encoding="utf-8")
        data, out = str(tmp / "data"), tmp / "m"
        assert main(["preprocess", "--config", cfg, "--csv", csv, "--out", data]) == 0
        capsys.readouterr()
        rc = main(["train", "--config", str(bad_cfg), "--data", data, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 4 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "dense phase diverged at epoch 0" in captured.err
        assert not out.exists()

    def test_divergence_after_a_one_batch_epoch_exit_code(self, workdir, capsys):
        # one batch per epoch: validation scores the overflowed weights of
        # epoch 0 before epoch 1's loss check stops training
        tmp, cfg, csv = workdir
        doc = json.loads(open(cfg).read())
        doc["phases"]["dense"].update({"learning_rate": 1e308, "batch_size": 10_000})
        bad_cfg = tmp / "bad.json"
        bad_cfg.write_text(json.dumps(doc), encoding="utf-8")
        data, out = str(tmp / "data"), tmp / "m"
        assert main(["preprocess", "--config", cfg, "--csv", csv, "--out", data]) == 0
        capsys.readouterr()
        rc = main(["train", "--config", str(bad_cfg), "--data", data, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 4 and captured.out == ""
        assert captured.err == "error: dense phase diverged at epoch 1 (loss=inf)\n"
        assert not out.exists()

    def test_divergence_in_the_last_redense_step_exit_code(self, workdir, capsys):
        # one re-dense step leaves weights past the float32 range (finite in
        # float64); no loss or norm check runs after the last step
        tmp, cfg, csv = workdir
        doc = json.loads(open(cfg).read())
        doc["phases"]["redense"].update({"learning_rate": 1e308, "epochs": 1,
                                         "batch_size": 10_000})
        bad_cfg = tmp / "bad.json"
        bad_cfg.write_text(json.dumps(doc), encoding="utf-8")
        data, out = str(tmp / "data"), tmp / "m"
        assert main(["preprocess", "--config", cfg, "--csv", csv, "--out", data]) == 0
        capsys.readouterr()
        rc = main(["train", "--config", str(bad_cfg), "--data", data, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 4 and captured.out == ""
        assert captured.err == ("error: redense phase diverged: "
                                "a parameter is outside the float32 range\n")
        assert not out.exists()

    def test_validation_split_of_another_width_rejected(self, workdir, capsys):
        tmp, cfg, csv = workdir
        data, out = tmp / "data", tmp / "m"
        assert main(["preprocess", "--config", cfg, "--csv", csv, "--out", str(data)]) == 0
        save_dataset(DatasetSplit(features=np.full((6, 20), 0.5), labels=np.array([0, 1] * 3)),
                     str(data / "val.eidd"))
        capsys.readouterr()
        rc = main(["train", "--config", cfg, "--data", str(data), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert "ConfigError" in captured.err
        assert "validation split has 20 features, train split 10" in captured.err
        assert not out.exists()

    def test_clip_norm_overflow_is_divergence(self, workdir, capsys):
        # mu 1e300 keeps the loss finite, but the squared gradients of the
        # clip norm overflow; clip / inf would zero every step and freeze training
        tmp, cfg, csv = workdir
        doc = json.loads(open(cfg).read())
        doc["pruning"]["mu"] = 1e300
        for phase in ("dense", "sparse", "redense"):
            doc["phases"][phase]["epochs"] = 1
        bad_cfg = tmp / "bad.json"
        bad_cfg.write_text(json.dumps(doc), encoding="utf-8")
        data, out = str(tmp / "data"), tmp / "m"
        assert main(["preprocess", "--config", cfg, "--csv", csv, "--out", data]) == 0
        capsys.readouterr()
        rc = main(["train", "--config", str(bad_cfg), "--data", data, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 4 and captured.out == ""
        assert "dense phase diverged at epoch 0 (gradient norm=inf)" in captured.err
        assert not out.exists()


# (key path in the config, bad value, text the error must give)
BAD_CONFIG_VALUES = {
    "schema_key_typo": (("schema", "selected_featurs"), ["f0"], "schema.selected_featurs"),
    "column_key_typo": (("schema", "columns", 0, "knd"), "numeric", "schema.columns[0].knd"),
    "seed_negative": (("seed",), -1, "seed must be >= 0"),
    "dropout_above_one": (("architecture", "dropout"), 1.5, "architecture: dropout"),
    "final_sparsity_above_one": (("pruning", "final_sparsity"), 1.5, "final_sparsity < 1"),
    "learning_rate_nan": (("phases", "dense", "learning_rate"), float("nan"),
                          "phases.dense.learning_rate"),
    "epochs_null": (("phases", "dense", "epochs"), None, "phases.dense.epochs"),
    "epochs_fraction": (("phases", "dense", "epochs"), 2.9, "phases.dense.epochs"),
    "seed_fraction": (("seed",), 1.5, "seed"),
    "layers_string": (("architecture", "layers"), "abc", "architecture.layers"),
    # a deleted setting: any value for it is now an unknown key
    "tied_gate_string": (("architecture", "tied_output_gate"), "false",
                         "architecture.tied_output_gate"),
    "early_stop_dense_removed": (("early_stop", "dense"), True, "early_stop.dense"),
    "momentum_one": (("phases", "momentum"), 1.0, "phases: momentum must be in [0, 1)"),
    "mu_negative": (("pruning", "mu"), -0.1, "pruning: mu must be >= 0"),
    "target_threshold_zero": (("pruning", "target_threshold"), 0,
                              "pruning: target_threshold must be in (0, 1]"),
    "learning_rate_bool": (("phases", "sparse", "learning_rate"), True,
                           "phases.sparse.learning_rate"),
    "ratios_not_list": (("split", "ratios"), 0.8, "split.ratios"),
    "ratio_string": (("split", "ratios"), [0.8, "0.1", 0.1], "split.ratios"),
    "columns_not_list": (("schema", "columns"), "f0", "schema.columns"),
    "clip_string": (("grad_clip_norm",), "5", "grad_clip_norm"),
    "a0_beyond_float": (("pruning", "a0"), 10 ** 400, "pruning.a0"),
    "no_selected_features": (("schema", "selected_features"), [], "schema.selected_features"),
    "threshold_removed": (("threshold",), 0.5, "threshold"),
}


class TestConfigTypes:
    @pytest.mark.parametrize("case", sorted(BAD_CONFIG_VALUES))
    def test_wrong_json_type_exit_1(self, workdir, capsys, case):
        tmp, cfg, csv = workdir
        keys, value, name = BAD_CONFIG_VALUES[case]
        doc = json.loads(open(cfg).read())
        section = doc
        for key in keys[:-1]:
            section = section[key]
        section[keys[-1]] = value
        bad_cfg = tmp / "bad.json"
        bad_cfg.write_text(json.dumps(doc), encoding="utf-8")
        rc = main(["preprocess", "--config", str(bad_cfg), "--csv", csv,
                   "--out", str(tmp / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err and name in err
        assert not os.path.exists(tmp / "out")

    @pytest.mark.parametrize("ratios", [[0.8, 0.1, 0.2], [1.0, 0.0, 0.0]],
                             ids=["sum_above_one", "zero_ratio"])
    def test_bad_ratios_exit_1(self, workdir, capsys, ratios):
        tmp, cfg, csv = workdir
        doc = json.loads(open(cfg).read())
        doc["split"]["ratios"] = ratios
        bad_cfg = tmp / "bad.json"
        bad_cfg.write_text(json.dumps(doc), encoding="utf-8")
        rc = main(["preprocess", "--config", str(bad_cfg), "--csv", csv,
                   "--out", str(tmp / "out")])
        assert rc == 1
        assert "BadRatios" in capsys.readouterr().err
        assert not os.path.exists(tmp / "out")

    def test_seq_len_must_divide_the_selected_features(self, workdir, capsys):
        tmp, cfg, csv = workdir
        doc = json.loads(open(cfg).read())
        doc["architecture"]["seq_len"] = 3  # 10 selected features
        bad_cfg = tmp / "bad.json"
        bad_cfg.write_text(json.dumps(doc), encoding="utf-8")
        rc = main(["preprocess", "--config", str(bad_cfg), "--csv", csv,
                   "--out", str(tmp / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err and "10 selected features" in err and "seq_len 3" in err
        assert not os.path.exists(tmp / "out")
        doc["architecture"]["seq_len"] = 5
        assert config_from_dict(doc).architecture.seq_len == 5

    def test_null_clip_norm_turns_clipping_off(self):
        doc = config_dict()
        doc["grad_clip_norm"] = None
        assert config_from_dict(doc).grad_clip_norm is None
        assert config_from_dict(config_dict()).grad_clip_norm == 5.0

    def test_null_schema_is_no_schema(self, workdir, capsys):
        tmp, cfg, csv = workdir
        doc = json.loads(open(cfg).read())
        doc["schema"] = None
        assert config_from_dict(doc).schema is None
        null_cfg = tmp / "null.json"
        null_cfg.write_text(json.dumps(doc), encoding="utf-8")
        rc = main(["preprocess", "--config", str(null_cfg), "--csv", csv,
                   "--out", str(tmp / "out")])
        assert rc == 1
        assert "preprocess needs a config with a 'schema' section" in capsys.readouterr().err
        assert not os.path.exists(tmp / "out")

    def test_demo_config_is_the_defaults_plus_its_schema(self):
        demo = FeatureSchema(columns=[ColumnSpec(f"f{i}", "numeric") for i in range(10)]
                             + [ColumnSpec("label", "label")],
                             selected_features=[f"f{i}" for i in range(10)])
        assert config_from_dict({}) == RunConfig()
        assert config_from_dict(config_dict()) == RunConfig(schema=demo)
        assert config_from_dict(config_dict(seed=7)) == RunConfig(seed=7, schema=demo)

    def test_readme_config_block_is_the_defaults(self):
        readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
                      encoding="utf-8").read()
        section = readme[readme.index("## Configuration"):]
        block = section[section.index("```json\n") + 8:]
        doc = json.loads(block[:block.index("```")])
        expected = RunConfig(schema=FeatureSchema.from_json(doc["schema"]))
        assert config_from_dict(doc) == expected
        assert doc == json.loads(json.dumps(asdict(expected)))  # every key shown


class TestSizeReport:
    def test_baseline_against_itself(self, tmp_path, capsys):
        path = str(tmp_path / "m.eidm")
        save_dense(zeros_params((3, 4), dropout_rate=0.0), path)
        assert main(["size-report", "--baseline", path, path]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "name,accuracy,size_bytes,ratio", f"m,,{os.path.getsize(path)},1.0000"]
        # any file listed twice, under any spelling of its path, is one row
        assert main(["size-report", "--baseline", path, path, str(tmp_path / "." / "m.eidm")]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_two_files_with_one_name_exit_1(self, tmp_path, capsys):
        """Rows and --eval accuracies are keyed by name, so two different
        files named alike would share one accuracy; the report refuses them."""
        for d in ("models", "m2"):
            (tmp_path / d).mkdir()
            save_dense(zeros_params((3, 4), dropout_rate=0.0), str(tmp_path / d / "baseline.eidm"))
        save_dense(zeros_params((3, 5), dropout_rate=0.0), str(tmp_path / "models" / "p.eidm"))
        (tmp_path / "metrics.csv").write_text("FAR%,Acc%\n1.0,50.0\n", encoding="utf-8")
        out = tmp_path / "report.csv"
        assert main(["size-report", "--baseline", str(tmp_path / "models" / "baseline.eidm"),
                     str(tmp_path / "m2" / "baseline.eidm"), str(tmp_path / "models" / "p.eidm"),
                     "--eval", f"baseline={tmp_path / 'metrics.csv'}", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "ConfigError" in captured.err
        assert "share the name baseline" in captured.err
        assert not out.exists()

    def test_csv_columns(self, tmp_path, capsys):
        path = str(tmp_path / "m.eidm")
        save_dense(zeros_params((3, 4), dropout_rate=0.0), path)
        (tmp_path / "metrics.csv").write_text("FAR%,Acc%\n1.0,99.0\n", encoding="utf-8")
        out = tmp_path / "report.csv"
        assert main(["size-report", "--baseline", path, "--out", str(out),
                     "--eval", f"m={tmp_path / 'metrics.csv'}"]) == 0
        text = capsys.readouterr().out
        assert text.splitlines()[0] == "name,accuracy,size_bytes,ratio"
        assert text.splitlines()[1].startswith("m,99.0000,")
        assert out.read_text(encoding="utf-8") == text

    @pytest.mark.parametrize("role", ["baseline", "model"])
    @pytest.mark.parametrize("kind", ["empty", "csv", "eidd"])
    def test_file_that_is_not_a_container_exit_3(self, tmp_path, capsys, role, kind):
        model = str(tmp_path / "m.eidm")
        save_dense(zeros_params((3, 4), dropout_rate=0.0), model)
        bad = tmp_path / f"bad.{kind}"
        if kind == "eidd":
            save_dataset(DatasetSplit(features=np.zeros((2, 3)), labels=np.array([0, 1])),
                         str(bad))
        else:
            bad.write_bytes(b"" if kind == "empty" else b"f0,label\n0.5,1\n")
        first, second = (str(bad), model) if role == "baseline" else (model, str(bad))
        out = tmp_path / "report.csv"
        rc = main(["size-report", "--baseline", first, second, "--out", str(out)])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert not out.exists()


MINIMAL_ARGV = {
    "preprocess": ["--config", "c.json", "--csv", "d.csv", "--out", "o"],
    "train": ["--config", "c.json", "--data", "d", "--out", "o"],
    "quantize": ["m.eidm", "q.eidm"],
    "evaluate": ["m.eidm", "d.eidd"],
    "size-report": ["--baseline", "m.eidm"],
    "predict": ["m.eidm", "--features", "0.5"],
    "dump": ["m.eidm"],
}


class TestParser:
    @pytest.mark.parametrize("command", sorted(MINIMAL_ARGV))
    def test_each_command_parses_to_its_handler(self, command):
        args = build_parser().parse_args([command, *MINIMAL_ARGV[command]])
        assert args.run is getattr(cli, "cmd_" + command.replace("-", "_"))

    def test_every_command_is_listed(self):
        (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert sorted(sub.choices) == sorted(MINIMAL_ARGV)

    def test_built_once_and_eval_flags_stay_per_call(self, tmp_path, capsys):
        assert build_parser() is build_parser()
        for name in ("a", "b"):
            save_dense(zeros_params((3, 4), dropout_rate=0.0), str(tmp_path / f"{name}.eidm"))
        (tmp_path / "a.csv").write_text("FAR%,Acc%\n1.0,90.0\n", encoding="utf-8")
        (tmp_path / "b.csv").write_text("FAR%,Acc%\n1.0,80.0\n", encoding="utf-8")
        rows = {}
        for name in ("a", "b"):
            assert main(["size-report", "--baseline", str(tmp_path / "a.eidm"),
                         str(tmp_path / "b.eidm"),
                         "--eval", f"{name}={tmp_path / (name + '.csv')}"]) == 0
            rows[name] = [line.split(",")[:2] for line in capsys.readouterr().out.split()[1:]]
        assert rows == {"a": [["a", "90.0000"], ["b", ""]],
                        "b": [["a", ""], ["b", "80.0000"]]}


class TestPreprocessCompatibility:
    """The bytes `preprocess` writes for a fixed CSV, pinned across code changes."""

    SHA256 = {
        "train.eidd": "99b2a0f5b18f3f0a2865e98a627398d1589fb7563f253862ff0fec0a02e565b3",
        "val.eidd": "2705e677e265c4211ec044cd1ccca0d70e2901fc0db5dcf8f95599aeb23f3a54",
        "test.eidd": "b229e72a1e89b57a475beba18648bf3f23a5999ac8c611017d3c3126c9069de9",
        "sidecar.json": "72e9711a54219c0bfa80c8198f8094ba4982e3a395cdd34f8c1a5d63a6313ab9",
    }

    def test_output_bytes_are_pinned(self, tmp_path):
        rng = np.random.default_rng(5)
        protos = ("tcp", "udp", "icmp", "gre")
        # an unused id column, padded header names and cells, signed zeros
        lines = ["id, dur ,proto,delta,sbytes,label"]
        for i in range(60):
            lines.append(f"{1000 + i}, {rng.lognormal():.5g} , {protos[rng.integers(4)]},"
                         f"{rng.normal(0.0, 0.01):.2f},  {int(rng.integers(0, 5000))},"
                         f"{int(rng.random() < 0.4)}")
        csv = tmp_path / "flows.csv"
        csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "seed": 3,
            "schema": {"columns": [{"name": "dur", "kind": "numeric"},
                                   {"name": "proto", "kind": "categorical"},
                                   {"name": "delta", "kind": "numeric"},
                                   {"name": "sbytes", "kind": "numeric"},
                                   {"name": "label", "kind": "label"}],
                       "selected_features": ["proto", "dur", "sbytes", "delta"]},
            "split": {"ratios": [0.6, 0.2, 0.2]}}), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["preprocess", "--config", str(cfg), "--csv", str(csv),
                     "--out", str(out)]) == 0
        for name, digest in self.SHA256.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


class TestEvaluateEdgeCases:
    def test_constant_half_model_flags_everything(self, tmp_path, capsys):
        # all-zero net scores exactly 0.5; ties classify as anomaly
        net = zeros_params((10, 8), dropout_rate=0.0)
        model = str(tmp_path / "zero.eidm")
        save_dense(net, model)
        rng = np.random.default_rng(0)
        ds = DatasetSplit(features=rng.random((40, 10)), labels=np.array([0, 1] * 20))
        data = str(tmp_path / "d.eidd")
        save_dataset(ds, data)
        assert main(["evaluate", model, data, "--threshold", "0.5"]) == 0
        out = capsys.readouterr().out
        row = out.strip().split("\n")[1].split(",")
        far, acc, prec, dr, f1 = map(float, row)
        assert dr == 100.0 and far == 100.0

    def test_zero_row_split_exit_1(self, tmp_path, capsys):
        model = str(tmp_path / "m.eidm")
        save_dense(init_params((3, 4), seed=0), model)
        data = str(tmp_path / "none.eidd")
        save_dataset(DatasetSplit(features=np.zeros((0, 3)), labels=np.zeros(0, dtype=np.int64)),
                     data)
        assert main(["evaluate", model, data]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "EmptyInput" in captured.err

    def test_single_class_split_still_reports_metrics(self, tmp_path, capsys):
        net = zeros_params((10, 8), dropout_rate=0.0)
        model = str(tmp_path / "zero.eidm")
        save_dense(net, model)
        ds = DatasetSplit(features=np.random.default_rng(1).random((10, 10)),
                          labels=np.ones(10, dtype=np.int64))
        data = str(tmp_path / "one.eidd")
        save_dataset(ds, data)
        out_dir = str(tmp_path / "eval")
        assert main(["evaluate", model, data, "--out", out_dir]) == 0
        captured = capsys.readouterr()
        assert "single-class" in captured.err
        assert os.path.exists(os.path.join(out_dir, "metrics.csv"))
        assert not os.path.exists(os.path.join(out_dir, "roc.csv"))

        # a two-class split first, then the single-class one into the same
        # directory: the first run's ROC does not stay beside the new metrics
        two = str(tmp_path / "two.eidd")
        save_dataset(DatasetSplit(features=ds.features, labels=np.arange(10) % 2), two)
        reused = str(tmp_path / "eval2")
        assert main(["evaluate", model, two, "--out", reused]) == 0
        assert os.path.exists(os.path.join(reused, "roc.csv"))
        assert main(["evaluate", model, data, "--out", reused]) == 0
        assert "single-class" in capsys.readouterr().err
        assert sorted(os.listdir(reused)) == ["metrics.csv"]

    def test_roc_csv_formatted_only_when_written(self, tmp_path, capsys, monkeypatch):
        model = str(tmp_path / "zero.eidm")
        save_dense(zeros_params((10, 8), dropout_rate=0.0), model)
        data = str(tmp_path / "two.eidd")
        save_dataset(DatasetSplit(features=np.random.default_rng(2).random((10, 10)),
                                  labels=np.arange(10) % 2), data)
        calls = []
        csv = RocCurve.csv
        monkeypatch.setattr(RocCurve, "csv", lambda roc: calls.append(roc) or csv(roc))
        assert main(["evaluate", model, data]) == 0
        assert "AUC," in capsys.readouterr().out and calls == []
        assert main(["evaluate", model, data, "--out", str(tmp_path / "eval")]) == 0
        assert len(calls) == 1
        assert (tmp_path / "eval" / "roc.csv").read_text(encoding="utf-8") == csv(calls[0])


class TestQuantizeIdempotence:
    def test_quantize_twice_byte_identical(self, workdir):
        tmp, cfg, csv = workdir
        data, models = str(tmp / "data"), str(tmp / "models")
        assert main(["preprocess", "--config", cfg, "--csv", csv, "--out", data]) == 0
        assert main(["train", "--config", cfg, "--data", data, "--out", models]) == 0
        base = os.path.join(models, "baseline.eidm")
        q1 = os.path.join(models, "q1.eidm")
        q2 = os.path.join(models, "q2.eidm")
        assert main(["quantize", base, q1]) == 0
        assert main(["quantize", q1, q2]) == 0
        assert open(q1, "rb").read() == open(q2, "rb").read()

    @pytest.mark.parametrize("link", [False, True], ids=["same_path", "input_links_output"])
    def test_ratio_over_the_input_written_in_place(self, tmp_path, capsys, link):
        model = tmp_path / "m.eidm"
        save_dense(init_params((3, 8, 8), seed=0), str(model))
        before = model.stat().st_size
        model_in = model
        if link:
            model_in = tmp_path / "link.eidm"
            model_in.symlink_to(model)
        assert main(["quantize", str(model_in), str(model)]) == 0
        after = model.stat().st_size
        assert after < before
        assert f"({before / after:.2f}x smaller)" in capsys.readouterr().out


class TestOneScoringPath:
    """Every container is scored through the float64 network load_model
    returns; for int8 that network is the reference dequantized_net."""

    def test_int8_predict_builds_one_network(self, tmp_path, capsys, monkeypatch):
        model = str(tmp_path / "q.eidm")
        save_quantized(quantize_model(init_params((3, 4, 4), seed=0)), model)
        built = []
        post_init = NetworkParams.__post_init__
        monkeypatch.setattr(NetworkParams, "__post_init__",
                            lambda net: built.append(net) or post_init(net))
        assert main(["predict", model, "--features", "0.5,0.1,0.9"]) == 0
        assert len(built) == 1
        assert set(json.loads(capsys.readouterr().out)) == {"probability", "label"}

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("steps", [1, 2])
    @pytest.mark.parametrize("rows", [1, 5, 1027])
    def test_int8_scores_equal_the_reference_path(self, tmp_path, sparse, steps, rows):
        net = init_params((3, 5, 4), seed=3, dropout_rate=0.0)
        mask = None
        if sparse:
            tree = net.tensors()
            mask = compute_masks({n: tree[n] for n in net.weight_names()}, 0.7)
            net = net.with_tensors(apply_masks(tree, mask))
        model = str(tmp_path / "q.eidm")
        save_quantized(quantize_model(net, mask=mask), model)
        loaded = load_model(model)
        assert (loaded.mask is not None) == sparse
        x = np.random.default_rng(rows).random((rows, 3 * steps))
        got = _model_scores(loaded, x)
        expected = quantized_scores(load_model(model).qmodel, x)
        assert got.shape == (rows,) and got.tobytes() == expected.tobytes()
