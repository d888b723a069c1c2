import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from vpcme.cli import main
from vpcme.dataset import MultiLabelDataset, format_rows, load_csv, load_features, save_csv, synthetic_dataset
from vpcme.ensemble import load_model, predict_ensemble, save_model
from vpcme.errors import ValidationError
from vpcme.harness import DEFAULT_THETA_VALUES, ExperimentConfig, train_method

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env():
    """Environment for a ``python -m vpcme.cli`` child that imports this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


METRIC_SCHEMA = {
    "type": "object",
    "required": ["mean", "std", "skipped"],
    "properties": {
        "mean": {"type": "number"},
        "std": {"type": "number"},
        "skipped": {"type": "integer", "minimum": 0},
    },
}

METRIC_NAMES = [
    "hamming_loss",
    "ranking_loss",
    "one_error",
    "coverage",
    "average_precision",
    "f1",
    "recall",
]

REPORT_BODY = {
    "metrics": {
        "type": "object",
        "required": METRIC_NAMES,
        "additionalProperties": METRIC_SCHEMA,
    },
    "units": {
        "type": "object",
        "required": METRIC_NAMES,
        "additionalProperties": {"type": "array", "items": {"type": "number"}},
    },
    "protocol": {"type": "object"},
}

BASE_REQUIRED = ["schema", "command", "version", "backend", "config"]

CV_SCHEMA = {
    "type": "object",
    "required": BASE_REQUIRED + ["metrics", "units", "protocol"],
    "properties": {
        "schema": {"const": "vpcme-report/1"},
        "command": {"const": "cv"},
        **REPORT_BODY,
    },
}

STATS_SCHEMA = {
    "type": "object",
    "required": BASE_REQUIRED + ["stats"],
    "properties": {
        "command": {"const": "stats"},
        "stats": {
            "type": "object",
            "required": ["instances", "features", "labels", "distinct", "cardinality", "density"],
        },
    },
}

SWEEP_SCHEMA = {
    "type": "object",
    "required": BASE_REQUIRED + ["sweep", "results"],
    "properties": {
        "sweep": {
            "type": "object",
            "required": ["parameter", "values"],
        },
        "results": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["value", "metrics", "units"],
            },
        },
    },
}

COMPARE_SCHEMA = {
    "type": "object",
    "required": BASE_REQUIRED + ["methods", "reference", "results", "tests"],
}


@pytest.fixture()
def data_csv(tmp_path):
    ds = synthetic_dataset(45, 3, 3, seed=77, label_noise=0.1)
    path = tmp_path / "data.csv"
    save_csv(ds, str(path))
    return str(path)


def run_cli(*argv):
    return main(list(argv))


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestStats:
    def test_stats_document(self, data_csv, tmp_path, capsys):
        out = str(tmp_path / "stats.json")
        assert run_cli("stats", "--data", data_csv, "--labels", "3", "--out", out) == 0
        doc = read_json(out)
        jsonschema.validate(doc, STATS_SCHEMA)
        ds = load_csv(data_csv, 3)
        assert doc["stats"]["instances"] == ds.instance_count
        assert doc["stats"]["labels"] == 3

    def test_stats_to_stdout(self, data_csv, capsys):
        assert run_cli("stats", "--data", data_csv, "--labels", "3") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "stats"

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        code = run_cli("stats", "--data", str(tmp_path / "nope.csv"), "--labels", "3")
        assert code != 0
        assert "error" in capsys.readouterr().err


class TestCv:
    def cv_args(self, data_csv, out):
        return (
            "cv", "--data", data_csv, "--labels", "3", "--method", "vpcme",
            "--ensemble-size", "2", "--k", "5", "--folds", "3", "--repeats", "2",
            "--seed", "4", "--out", out,
        )

    def test_report_schema(self, data_csv, tmp_path):
        out = str(tmp_path / "cv.json")
        assert run_cli(*self.cv_args(data_csv, out)) == 0
        doc = read_json(out)
        jsonschema.validate(doc, CV_SCHEMA)
        assert doc["config"]["method"] == "vpcme"
        assert doc["config"]["data"] == data_csv
        assert doc["config"]["label_count"] == 3
        assert len(doc["units"]["hamming_loss"]) == 6

    def test_byte_identical_reruns(self, data_csv, tmp_path):
        out_a = str(tmp_path / "a.json")
        out_b = str(tmp_path / "b.json")
        assert run_cli(*self.cv_args(data_csv, out_a)) == 0
        assert run_cli(*self.cv_args(data_csv, out_b)) == 0
        with open(out_a, "rb") as fa, open(out_b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_metric_table_follows_a_redirected_stderr(self, data_csv, tmp_path):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run_cli(*self.cv_args(data_csv, str(tmp_path / "cv.json"))) == 0
        header, row, finished = err.getvalue().splitlines()
        assert header.split()[:3] == ["run", "hamming_loss", "ranking_loss"]
        assert row.startswith("vpcme ")
        assert finished.startswith("cv finished in ")

    @pytest.mark.parametrize("flags, fields", [
        ((), {}),
        (("--k", "7", "--smoothing", "0.5", "--theta", "0.4", "--seed", "3", "--zscore"),
         {"k_neighbors": 7, "smoothing": 0.5, "theta": 0.4, "seed": 3, "zscore": True}),
        (("--method", "mlknn_single"), {"method": "mlknn_single"}),
    ], ids=["defaults", "member-flags", "method"])
    def test_absent_flags_leave_the_config_defaults(self, data_csv, tmp_path, flags, fields):
        out = str(tmp_path / "cv.json")
        assert run_cli("cv", "--data", data_csv, "--labels", "3", "--folds", "2", "--repeats", "1",
                       "--ensemble-size", "1", *flags, "--out", out) == 0
        cfg = replace(ExperimentConfig(), folds=2, repeats=1, ensemble_size=1, **fields)
        assert read_json(out)["config"] == {"data": data_csv, "label_count": 3, **asdict(cfg)}

    def test_bad_method_exits_nonzero(self, data_csv, capsys):
        code = run_cli("cv", "--data", data_csv, "--labels", "3", "--method", "xgboost")
        assert code == 2
        assert "method" in capsys.readouterr().err

    def test_bad_smoothing_rejected_before_the_data_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        assert run_cli("cv", "--data", missing, "--labels", "3", "--smoothing", "nan") == 2
        err = capsys.readouterr().err
        assert "error: smoothing must be finite and positive, got nan" in err
        assert "nope.csv" not in err

    @pytest.mark.parametrize("out", ["missing/cv.json", "."], ids=["missing-directory", "a-directory"])
    def test_an_unwritable_out_fails_before_the_run(self, data_csv, tmp_path, capsys, monkeypatch, out):
        def no_run(*args):
            raise AssertionError("cross_validate ran")

        monkeypatch.setattr("vpcme.cli.cross_validate", no_run)
        out = os.path.join(str(tmp_path), out)
        assert run_cli("cv", "--data", data_csv, "--labels", "3", "--out", out) == 2
        assert str(tmp_path) in capsys.readouterr().err
        assert not os.path.exists(os.path.join(str(tmp_path), "missing"))

    @pytest.mark.parametrize("smoothing", ["1e-15", "1e-300"])
    def test_a_label_every_row_carries_runs_at_a_tiny_smoothing(self, tmp_path, smoothing):
        # its smoothed prior rounds to 1, which the model accepts
        ds = synthetic_dataset(60, 4, 3, seed=5)
        labels = ds.labels.copy()
        labels[:, 0] = True
        path = str(tmp_path / "always.csv")
        save_csv(MultiLabelDataset(ds.features, labels), path)
        assert run_cli("cv", "--data", path, "--labels", "3", "--ensemble-size", "2", "--repeats", "1",
                       "--smoothing", smoothing, "--out", str(tmp_path / "cv.json")) == 0


class TestSweeps:
    def test_sweep_theta(self, data_csv, tmp_path):
        out = str(tmp_path / "sweep.json")
        assert run_cli(
            "sweep-theta", "--data", data_csv, "--labels", "3",
            "--ensemble-size", "2", "--k", "5", "--folds", "3", "--repeats", "1",
            "--values", "0.3,0.6", "--out", out,
        ) == 0
        doc = read_json(out)
        jsonschema.validate(doc, SWEEP_SCHEMA)
        assert doc["sweep"]["values"] == [0.3, 0.6]
        assert [row["value"] for row in doc["results"]] == [0.3, 0.6]

    def test_sweep_size(self, data_csv, tmp_path):
        out = str(tmp_path / "sweep.json")
        assert run_cli(
            "sweep-size", "--data", data_csv, "--labels", "3",
            "--k", "5", "--folds", "3", "--repeats", "1",
            "--values", "1,2", "--out", out,
        ) == 0
        doc = read_json(out)
        jsonschema.validate(doc, SWEEP_SCHEMA)
        assert [row["value"] for row in doc["results"]] == [1, 2]
        assert doc["config"]["data"] == data_csv
        assert doc["config"]["label_count"] == 3

    def test_sweep_theta_default_values(self, data_csv, tmp_path):
        out = str(tmp_path / "sweep.json")
        assert run_cli(
            "sweep-theta", "--data", data_csv, "--labels", "3",
            "--ensemble-size", "1", "--folds", "2", "--repeats", "1", "--out", out,
        ) == 0
        doc = read_json(out)
        jsonschema.validate(doc, SWEEP_SCHEMA)
        assert doc["sweep"]["parameter"] == "theta"
        assert doc["sweep"]["values"] == list(DEFAULT_THETA_VALUES)

    def test_bad_values_list(self, data_csv, capsys):
        for command, values, kind in (("sweep-size", "a,b", "ints"), ("sweep-size", "1.5", "ints"),
                                      ("sweep-theta", "a", "floats")):
            code = run_cli(command, "--data", data_csv, "--labels", "3", "--values", values)
            assert code == 2
            assert f"--values must be a comma-separated list of {kind}\n" in capsys.readouterr().err


class TestCompare:
    def test_compare_document(self, data_csv, tmp_path):
        out = str(tmp_path / "cmp.json")
        assert run_cli(
            "compare", "--data", data_csv, "--labels", "3",
            "--method", "vpcme,mlknn_single",
            "--ensemble-size", "2", "--k", "5", "--folds", "3", "--repeats", "2",
            "--out", out,
        ) == 0
        doc = read_json(out)
        jsonschema.validate(doc, COMPARE_SCHEMA)
        assert doc["methods"] == ["vpcme", "mlknn_single"]
        assert doc["reference"] == "vpcme"
        assert doc["config"]["data"] == data_csv
        assert doc["config"]["label_count"] == 3
        for metric, row in doc["tests"].items():
            assert row["mlknn_single"]["marker"] in ("win", "loss", "tie")


class TestTrainPredict:
    def test_round_trip(self, data_csv, tmp_path):
        model_path = str(tmp_path / "model.npz")
        assert run_cli(
            "train", "--data", data_csv, "--labels", "3", "--method", "vpcme",
            "--ensemble-size", "2", "--k", "5", "--seed", "9", "--out", model_path,
        ) == 0
        pred_path = str(tmp_path / "pred.csv")
        assert run_cli(
            "predict", "--model", model_path, "--data", data_csv, "--labels", "3",
            "--out", pred_path,
        ) == 0
        with open(pred_path) as handle:
            lines = handle.read().strip().split("\n")
        header = lines[0].split(",")
        assert header == [f"score_{i}" for i in range(3)] + [f"pred_{i}" for i in range(3)]
        ds = load_csv(data_csv, 3)
        assert len(lines) == ds.instance_count + 1
        model = load_model(model_path)
        bip, scores = predict_ensemble(model, ds.features)
        first = [float(v) for v in lines[1].split(",")]
        assert np.allclose(first[:3], scores[0], atol=0)
        assert first[3:] == [float(v) for v in bip[0]]

    def test_predict_features_only(self, data_csv, tmp_path):
        model_path = str(tmp_path / "model.npz")
        run_cli(
            "train", "--data", data_csv, "--labels", "3", "--method", "mlknn_single",
            "--k", "5", "--out", model_path,
        )
        ds = load_csv(data_csv, 3)
        feat_path = str(tmp_path / "features.csv")
        with open(feat_path, "w") as handle:
            for row in ds.features:
                handle.write(",".join(repr(float(v)) for v in row) + "\n")
        pred_path = str(tmp_path / "pred.csv")
        assert run_cli("predict", "--model", model_path, "--data", feat_path,
                       "--out", pred_path) == 0

    def test_train_requires_out(self, data_csv, capsys):
        code = run_cli("train", "--data", data_csv, "--labels", "3")
        assert code == 2

    def test_predict_width_mismatch(self, data_csv, tmp_path, capsys):
        model_path = str(tmp_path / "model.npz")
        run_cli("train", "--data", data_csv, "--labels", "3", "--method", "mlknn_single",
                "--k", "5", "--out", model_path)
        bad = str(tmp_path / "bad.csv")
        with open(bad, "w") as handle:
            handle.write("1.0,2.0\n")
        assert run_cli("predict", "--model", model_path, "--data", bad) == 2
        # the model owns the width rule: its message, not a second one of the CLI's
        err = capsys.readouterr().err
        assert "shape (any, 3)" in err and "got shape (1, 2)" in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_predict_rejects_non_finite_features(self, data_csv, tmp_path, capsys, bad):
        model_path = str(tmp_path / "model.npz")
        run_cli("train", "--data", data_csv, "--labels", "3", "--method", "mlknn_single",
                "--k", "5", "--out", model_path)
        feat_path = str(tmp_path / "features.csv")
        with open(feat_path, "w") as handle:
            handle.write("0.5,1.0,-2.0\n" + f"0.5,{bad},-2.0\n")
        pred_path = str(tmp_path / "pred.csv")
        assert run_cli("predict", "--model", model_path, "--data", feat_path,
                       "--labels", "0", "--out", pred_path) == 2
        assert "line 2 has a non-finite feature" in capsys.readouterr().err

    def test_predict_strips_one_label_column(self, data_csv, tmp_path, capsys):
        model_path = str(tmp_path / "model.npz")
        run_cli("train", "--data", data_csv, "--labels", "3", "--method", "mlknn_single",
                "--k", "5", "--out", model_path)
        ds = load_csv(data_csv, 3)
        one_label = str(tmp_path / "one_label.csv")
        with open(one_label, "w") as handle:
            for row, flag in zip(ds.features, ds.labels[:, 0]):
                handle.write(",".join(repr(float(v)) for v in row) + (",1\n" if flag else ",0\n"))
        out_one = str(tmp_path / "one.csv")
        out_all = str(tmp_path / "all.csv")
        assert run_cli("predict", "--model", model_path, "--data", one_label,
                       "--labels", "1", "--out", out_one) == 0
        assert run_cli("predict", "--model", model_path, "--data", data_csv,
                       "--labels", "3", "--out", out_all) == 0
        with open(out_one, "rb") as fa, open(out_all, "rb") as fb:
            assert fa.read() == fb.read()
        # the stripped column must still hold 0/1 labels
        bad = str(tmp_path / "bad_label.csv")
        with open(bad, "w") as handle:
            handle.write(",".join(repr(float(v)) for v in ds.features[0]) + ",0.5\n")
        assert run_cli("predict", "--model", model_path, "--data", bad, "--labels", "1") == 2
        assert "outside {0, 1}" in capsys.readouterr().err

    def test_predict_ignores_a_leading_bom(self, data_csv, tmp_path):
        model_path = str(tmp_path / "model.npz")
        run_cli("train", "--data", data_csv, "--labels", "3", "--method", "mlknn_single",
                "--k", "5", "--out", model_path)
        bom_csv = str(tmp_path / "bom.csv")
        with open(data_csv, "rb") as src, open(bom_csv, "wb") as dst:
            dst.write(b"\xef\xbb\xbf" + src.read())
        outputs = {}
        for name, path in (("plain", data_csv), ("bom", bom_csv)):
            outputs[name] = tmp_path / f"{name}.pred.csv"
            assert run_cli("predict", "--model", model_path, "--data", path,
                           "--labels", "3", "--out", str(outputs[name])) == 0
        assert outputs["plain"].read_bytes() == outputs["bom"].read_bytes()

    def test_zscore_model_predicts_from_raw_features(self, data_csv, tmp_path):
        model_path = str(tmp_path / "model.npz")
        assert run_cli(
            "train", "--data", data_csv, "--labels", "3", "--method", "vpcme",
            "--ensemble-size", "2", "--k", "5", "--zscore", "--out", model_path,
        ) == 0
        pred_path = str(tmp_path / "pred.csv")
        assert run_cli("predict", "--model", model_path, "--data", data_csv, "--labels", "3",
                       "--out", pred_path) == 0
        model = load_model(model_path)
        assert model.scaler is not None
        features, _ = load_features(data_csv, 3)
        bip, scores = predict_ensemble(model, features)
        with open(pred_path) as handle:
            body = handle.read().split("\n", 1)[1]
        assert body == format_rows(scores, bip)

    def test_train_takes_no_cross_validation_flags(self, data_csv, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        usage = capsys.readouterr().out
        assert "--folds" not in usage and "--repeats" not in usage
        with pytest.raises(SystemExit) as info:
            main(["train", "--data", data_csv, "--labels", "3", "--folds", "5",
                  "--out", str(tmp_path / "unused.npz")])
        assert info.value.code == 2
        assert "unrecognized arguments: --folds 5" in capsys.readouterr().err
        model_path = tmp_path / "model.npz"
        assert run_cli(
            "train", "--data", data_csv, "--labels", "3", "--ensemble-size", "2", "--k", "5",
            "--seed", "9", "--out", str(model_path),
        ) == 0
        cfg = ExperimentConfig(ensemble_size=2, k_neighbors=5, seed=9)
        direct = tmp_path / "direct.npz"
        save_model(train_method(cfg, load_csv(data_csv, 3), cfg.seed), direct)
        assert model_path.read_bytes() == direct.read_bytes()

    @pytest.mark.parametrize("smoothing", ["nan", "inf", "0"])
    def test_train_rejects_a_smoothing_that_is_not_finite_and_positive(
        self, data_csv, tmp_path, capsys, smoothing
    ):
        model_path = str(tmp_path / "model.npz")
        assert run_cli(
            "train", "--data", data_csv, "--labels", "3", "--ensemble-size", "1", "--k", "5",
            f"--smoothing={smoothing}", "--out", model_path,
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: smoothing must be finite and positive")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("smoothing", ["5e-324", "2e-323"])
    def test_train_rejects_a_subnormal_smoothing(self, tmp_path, capsys, smoothing):
        data = tmp_path / "data.csv"
        save_csv(synthetic_dataset(200, 5, 4, seed=1), str(data))
        model_path = tmp_path / "model.npz"
        assert run_cli("train", "--data", str(data), "--labels", "4", f"--smoothing={smoothing}",
                       "--out", str(model_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: smoothing must be at least {np.finfo(np.float64).tiny}")
        assert err.count("\n") == 1
        assert not model_path.exists()

    def test_smallest_normal_smoothing_predicts_finite_scores(self, tmp_path):
        data = tmp_path / "data.csv"
        save_csv(synthetic_dataset(200, 5, 4, seed=1), str(data))
        model_path, pred_path = str(tmp_path / "model.npz"), str(tmp_path / "pred.csv")
        assert run_cli("train", "--data", str(data), "--labels", "4", "--ensemble-size", "3",
                       f"--smoothing={float(np.finfo(np.float64).tiny)!r}", "--out", model_path) == 0
        assert run_cli("predict", "--model", model_path, "--data", str(data), "--labels", "4",
                       "--out", pred_path) == 0
        scores = np.loadtxt(pred_path, delimiter=",", skiprows=1)[:, :4]
        assert scores.shape == (200, 4) and np.all(np.isfinite(scores))


class TestOutputRewrite:
    """Every ``--out`` is rewritten in place: over a longer stale file it
    holds exactly the bytes a fresh write gives, and a device is never cut."""

    @pytest.fixture()
    def model_path(self, data_csv, tmp_path):
        path = str(tmp_path / "model.npz")
        assert run_cli("train", "--data", data_csv, "--labels", "3", "--method", "mlknn_single",
                       "--k", "5", "--out", path) == 0
        return path

    def argv(self, command, data_csv, model_path, out):
        if command == "predict":
            return ("predict", "--model", model_path, "--data", data_csv, "--labels", "3", "--out", out)
        flags = ("--folds", "3", "--repeats", "1") if command == "cv" else ()
        return (command, "--data", data_csv, "--labels", "3", "--ensemble-size", "2", "--k", "5",
                "--seed", "4", *flags, "--out", out)

    @pytest.mark.parametrize("command", ["cv", "predict", "train"])
    def test_an_out_over_a_longer_file_holds_a_fresh_write(self, data_csv, model_path, tmp_path, command):
        fresh, stale = tmp_path / "fresh.out", tmp_path / "stale.out"
        assert run_cli(*self.argv(command, data_csv, model_path, str(fresh))) == 0
        stale.write_bytes(b"\xff" * (2 * fresh.stat().st_size + 4096))
        assert run_cli(*self.argv(command, data_csv, model_path, str(stale))) == 0
        assert stale.read_bytes() == fresh.read_bytes()
        if command == "train":
            assert len(load_model(str(stale)).members) == 2

    @pytest.mark.parametrize("command", ["cv", "predict"])
    def test_an_out_of_dev_null_exits_zero(self, data_csv, model_path, command):
        assert run_cli(*self.argv(command, data_csv, model_path, os.devnull)) == 0

    def test_a_model_write_that_raises_leaves_only_its_bytes(self, data_csv, model_path, monkeypatch):
        def savez_then_fail(handle, **arrays):
            handle.write(b"PK partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", savez_then_fail)
        model = load_model(model_path)
        with pytest.raises(OSError, match="^disk full$"):
            save_model(model, model_path)
        assert Path(model_path).read_bytes() == b"PK partial"


class TestEntryPoint:
    def test_module_invocation(self, data_csv):
        proc = subprocess.run(
            [sys.executable, "-m", "vpcme.cli", "stats", "--data", data_csv, "--labels", "3"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["command"] == "stats"

    def test_cross_process_determinism(self, data_csv, tmp_path):
        argv = [
            sys.executable, "-m", "vpcme.cli", "cv", "--data", data_csv,
            "--labels", "3", "--ensemble-size", "2", "--k", "5",
            "--folds", "3", "--repeats", "1", "--seed", "6",
        ]
        outs = []
        for name in ("a.json", "b.json"):
            out = str(tmp_path / name)
            proc = subprocess.run(argv + ["--out", out], capture_output=True, env=child_env())
            assert proc.returncode == 0
            with open(out, "rb") as handle:
                outs.append(handle.read())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "command", ["stats", "cv", "sweep-theta", "sweep-size", "compare", "train", "predict"]
    )
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: vpcme {command}")

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_predict_rejects_a_file_that_is_not_a_model(self, data_csv, capsys):
        assert run_cli("predict", "--model", data_csv, "--data", data_csv, "--labels", "3") == 2
        assert f"{data_csv}: not a vpcme-model/2 model file" in capsys.readouterr().err

    def test_predict_rejects_a_vpcme_model_1_archive(self, data_csv, tmp_path, capsys):
        model_path = str(tmp_path / "model.npz")
        assert run_cli(
            "train", "--data", data_csv, "--labels", "3", "--ensemble-size", "1", "--k", "5",
            "--out", model_path,
        ) == 0
        with np.load(model_path) as data:
            arrays = {key: data[key] for key in data.files}
        np.savez(model_path, **dict(arrays, format="vpcme-model/1"))
        message = f"{model_path}: not a vpcme-model/2 model file"
        with pytest.raises(ValidationError) as info:
            load_model(model_path)
        assert str(info.value) == message
        capsys.readouterr()
        assert run_cli("predict", "--model", model_path, "--data", data_csv, "--labels", "3") == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_predict_rejects_a_model_archive_without_member_arrays(self, data_csv, tmp_path, capsys):
        model_path = str(tmp_path / "model.npz")
        assert run_cli(
            "train", "--data", data_csv, "--labels", "3", "--ensemble-size", "1", "--k", "5",
            "--out", model_path,
        ) == 0
        with np.load(model_path) as data:
            kept = {key: data[key] for key in ("format", "config", "member_count", "training_log")}
        np.savez(model_path, **kept)
        assert run_cli("predict", "--model", model_path, "--data", data_csv, "--labels", "3") == 2
        message = f"{model_path}: not a vpcme-model/2 model file, no 'm0_w' array"
        assert message in capsys.readouterr().err

    def test_predict_rejects_a_model_archive_with_a_malformed_array(self, data_csv, tmp_path, capsys):
        model_path = str(tmp_path / "model.npz")
        assert run_cli(
            "train", "--data", data_csv, "--labels", "3", "--ensemble-size", "1", "--k", "5",
            "--out", model_path,
        ) == 0
        with np.load(model_path) as data:
            arrays = {key: data[key] for key in data.files}
        arrays["member_count"] = "x"
        np.savez(model_path, **arrays)
        assert run_cli("predict", "--model", model_path, "--data", data_csv, "--labels", "3") == 2
        message = f"{model_path}: not a vpcme-model/2 model file: member_count must be an integer, got np.str_('x')"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,edit,message",
        [
            ("scaler_scale", lambda a: a[:2], "scaler scale must be a 1-D vector of shape (3,)"),
            ("scaler_scale", lambda a: np.zeros_like(a), "scaler scale must be positive"),
            ("m0_prior_pos", lambda a: np.full(5, 0.5), "prior_pos must be a 1-D vector of shape (3,)"),
            ("scaler_mean", None, "no 'scaler_mean' array"),
            ("features", lambda a: a[:-1], "train_labels must be a 2-D matrix of shape (44, any)"),
            ("features", None, "no 'features' array"),
            # 30 counts moved from cell 0 to the last: the row sum holds
            ("m0_freq_pos", lambda a: a + np.outer([1, 0, 0], [-30, 0, 0, 0, 0, 30]),
             "freq_pos must hold entries in [0, inf), got -"),
            ("member_count", lambda a: np.float64(2.5), "member_count must be an integer, got np.float64(2.5)"),
            ("m0_scaling_r", lambda a: np.array("2.5"), "scaling_r must be a real number, got np.str_('2.5')"),
        ],
        ids=["scale-short", "scale-zero", "prior-long", "scale-alone", "features-short",
             "features-missing", "negative-count", "fractional-member-count", "string-scaling-r"],
    )
    def test_predict_rejects_an_archive_with_a_bad_scaler_or_prior(
        self, data_csv, tmp_path, capsys, key, edit, message
    ):
        model_path = str(tmp_path / "model.npz")
        assert run_cli(
            "train", "--data", data_csv, "--labels", "3", "--ensemble-size", "1", "--k", "5",
            "--zscore", "--out", model_path,
        ) == 0
        with np.load(model_path) as data:
            arrays = {name: data[name] for name in data.files}
        if edit is None:
            del arrays[key]
        else:
            arrays[key] = edit(arrays[key])
        np.savez(model_path, **arrays)
        capsys.readouterr()
        assert run_cli("predict", "--model", model_path, "--data", data_csv, "--labels", "3") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model_path}: not a vpcme-model/2 model file")
        assert message in err
        assert err.count("\n") == 1

    def test_compare_needs_two_methods(self, data_csv):
        assert run_cli(
            "compare", "--data", data_csv, "--labels", "3", "--method", "vpcme",
            "--folds", "3", "--repeats", "1",
        ) == 2

    def test_negative_invalid_numbers_rejected(self, data_csv, capsys):
        assert run_cli(
            "cv", "--data", data_csv, "--labels", "3", "--ensemble-size", "0",
        ) == 2
        assert run_cli(
            "cv", "--data", data_csv, "--labels", "3", "--theta", "1.5",
        ) == 2
        for command in ("cv", "sweep-theta", "sweep-size", "compare", "train"):
            assert run_cli(
                command, "--data", data_csv, "--labels", "3", "--seed", "-1",
                "--out", data_csv + ".out",
            ) == 2
            assert "seed must be a non-negative integer" in capsys.readouterr().err
