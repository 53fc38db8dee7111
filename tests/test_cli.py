import hashlib
import json
import os
from dataclasses import asdict

import numpy as np
import pytest

from edgenet.cli import build_parser, main
from edgenet.config import RunConfig, config_from_dict
from edgenet.data_pipeline import (ColumnSpec, DatasetSplit, FeatureSchema, save_dataset,
                                   split_indices)
from edgenet.lstm_net import zeros_params
from edgenet.model_store import save_dense
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

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seeed": 1}), encoding="utf-8")
        rc = main(["preprocess", "--config", str(cfg), "--csv", "x.csv",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "seeed" in capsys.readouterr().err

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

    def test_missing_model_is_io_error(self, tmp_path, capsys):
        rc = main(["dump", str(tmp_path / "nope.eidm")])
        assert rc == 3

    @pytest.mark.parametrize("command", [["evaluate", "m.eidm", "d.eidd"],
                                         ["predict", "m.eidm", "--features", "0.5"]],
                             ids=["evaluate", "predict"])
    @pytest.mark.parametrize("threshold", ["1.5", "-3", "nan"])
    def test_bad_threshold(self, tmp_path, capsys, command, threshold):
        # the files do not exist: the check comes before any file is read
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
        ds = DatasetSplit(features=np.full((4, 3), 0.5), labels=np.array([0, 1, 0, 1]),
                          row_ids=np.arange(4))
        data = str(tmp_path / "d.eidd")
        save_dataset(ds, data)
        deadline(5)
        rc = main(["evaluate", model, data])
        assert rc == 1
        assert "NonFiniteScore" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_features_rejected(self, tmp_path, capsys, bad):
        model = str(tmp_path / "zero.eidm")
        save_dense(zeros_params((3, 4), dropout_rate=0.0), model)
        rc = main(["predict", model, "--features", f"0.5,{bad},0.5"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "ConfigError" in captured.err

    def test_divergence_exit_code(self, workdir):
        tmp, cfg, csv = workdir
        doc = json.loads(open(cfg).read())
        doc["phases"]["dense"]["learning_rate"] = 1e200
        bad_cfg = tmp / "bad.json"
        bad_cfg.write_text(json.dumps(doc), encoding="utf-8")
        data = str(tmp / "data")
        assert main(["preprocess", "--config", cfg, "--csv", csv, "--out", data]) == 0
        with np.errstate(over="ignore"):
            rc = main(["train", "--config", str(bad_cfg), "--data", data,
                       "--out", str(tmp / "m")])
        assert rc == 4


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
    "tied_gate_string": (("architecture", "tied_output_gate"), "false",
                         "architecture.tied_output_gate"),
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

    def test_null_clip_norm_turns_clipping_off(self):
        doc = config_dict()
        doc["grad_clip_norm"] = None
        assert config_from_dict(doc).grad_clip_norm is None
        assert config_from_dict(config_dict()).grad_clip_norm == 5.0

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


class TestParser:
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
        ds = DatasetSplit(features=rng.random((40, 10)),
                          labels=np.array([0, 1] * 20), row_ids=np.arange(40))
        data = str(tmp_path / "d.eidd")
        save_dataset(ds, data)
        assert main(["evaluate", model, data, "--threshold", "0.5"]) == 0
        out = capsys.readouterr().out
        row = out.strip().split("\n")[1].split(",")
        far, acc, prec, dr, f1 = map(float, row)
        assert dr == 100.0 and far == 100.0

    def test_single_class_split_still_reports_metrics(self, tmp_path, capsys):
        net = zeros_params((10, 8), dropout_rate=0.0)
        model = str(tmp_path / "zero.eidm")
        save_dense(net, model)
        ds = DatasetSplit(features=np.random.default_rng(1).random((10, 10)),
                          labels=np.ones(10, dtype=np.int64), row_ids=np.arange(10))
        data = str(tmp_path / "one.eidd")
        save_dataset(ds, data)
        out_dir = str(tmp_path / "eval")
        assert main(["evaluate", model, data, "--out", out_dir]) == 0
        captured = capsys.readouterr()
        assert "single-class" in captured.err
        assert os.path.exists(os.path.join(out_dir, "metrics.csv"))
        assert not os.path.exists(os.path.join(out_dir, "roc.csv"))


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
