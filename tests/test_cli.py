import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from vpcme.cli import main
from vpcme.dataset import format_rows, load_csv, load_features, save_csv, synthetic_dataset
from vpcme.ensemble import load_model, predict_ensemble, save_model
from vpcme.errors import ValidationError
from vpcme.harness import ExperimentConfig, train_method

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


def save_model_v1(model, path):
    """Write ``model`` in the vpcme-model/1 layout: the config with its two
    pair targets, and each member's own projected training rows, labels, k
    and smoothing next to its projection and tables."""
    payload = {
        "format": "vpcme-model/1",
        "config": json.dumps(dict(asdict(model.config), n_must=None, n_cannot=None), sort_keys=True),
        "member_count": np.int64(len(model.members)),
        "training_log": np.array(model.training_log, dtype=np.float64).reshape(-1, 4),
    }
    if model.scaler is not None:
        payload["scaler_mean"], payload["scaler_scale"] = model.scaler
    for i, (proj, classifier) in enumerate(model.members):
        payload[f"m{i}_w"] = proj.w
        payload[f"m{i}_eigenvalues"] = proj.eigenvalues
        payload[f"m{i}_scaling_r"] = np.float64(proj.scaling_r)
        payload[f"m{i}_train_points"] = classifier.train_points
        payload[f"m{i}_train_labels"] = classifier.train_labels
        payload[f"m{i}_prior_pos"] = classifier.prior_pos
        payload[f"m{i}_freq_pos"] = classifier.freq_pos
        payload[f"m{i}_freq_neg"] = classifier.freq_neg
        payload[f"m{i}_k_neighbors"] = np.int64(classifier.k_neighbors)
        payload[f"m{i}_smoothing"] = np.float64(classifier.smoothing)
    with open(path, "wb") as handle:
        np.savez(handle, **payload)


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

    def test_bad_method_exits_nonzero(self, data_csv, capsys):
        code = run_cli("cv", "--data", data_csv, "--labels", "3", "--method", "xgboost")
        assert code == 2
        assert "method" in capsys.readouterr().err


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

    def test_bad_values_list(self, data_csv, capsys):
        code = run_cli(
            "sweep-size", "--data", data_csv, "--labels", "3", "--values", "a,b",
        )
        assert code == 2


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

    @pytest.mark.parametrize("zscore", [False, True], ids=["plain", "zscore"])
    @pytest.mark.parametrize("method", ["vpcme", "bagging_vpcp", "mlknn_single"])
    def test_v1_and_v2_files_of_one_model_predict_the_same_bytes(
        self, data_csv, tmp_path, method, zscore
    ):
        cfg = ExperimentConfig(method=method, ensemble_size=3, k_neighbors=5, seed=4, zscore=zscore)
        model = train_method(cfg, load_csv(data_csv, 3), cfg.seed)
        outputs = []
        for name, writer in (("v1", save_model_v1), ("v2", save_model)):
            model_path = str(tmp_path / f"{name}.npz")
            writer(model, model_path)
            pred_path = tmp_path / f"{name}.csv"
            assert run_cli("predict", "--model", model_path, "--data", data_csv, "--labels", "3",
                           "--out", str(pred_path)) == 0
            outputs.append(pred_path.read_bytes())
        assert outputs[0] == outputs[1]
        v1 = load_model(str(tmp_path / "v1.npz"))
        assert v1.features is None and v1.config == model.config
        with pytest.raises(ValidationError, match="without its training features"):
            save_model(v1, str(tmp_path / "again.npz"))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda a: {"m1_smoothing": np.float64(0.5)},
            lambda a: {"config": str(a["config"]).replace('"k_neighbors": 5', '"k_neighbors": 4')},
        ],
        ids=["member-smoothing", "config-k"],
    )
    def test_v1_file_whose_member_disagrees_with_its_config_is_rejected(
        self, data_csv, tmp_path, capsys, edit
    ):
        cfg = ExperimentConfig(ensemble_size=2, k_neighbors=5, seed=4)
        model_path = str(tmp_path / "v1.npz")
        save_model_v1(train_method(cfg, load_csv(data_csv, 3), cfg.seed), model_path)
        with np.load(model_path) as data:
            arrays = {name: data[name] for name in data.files}
        arrays.update(edit(arrays))
        np.savez(model_path, **arrays)
        assert run_cli("predict", "--model", model_path, "--data", data_csv, "--labels", "3") == 2
        message = f"{model_path}: not a vpcme-model/1 model file: members must use the config's"
        assert message in capsys.readouterr().err

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

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_predict_rejects_a_file_that_is_not_a_model(self, data_csv, capsys):
        assert run_cli("predict", "--model", data_csv, "--data", data_csv, "--labels", "3") == 2
        assert f"{data_csv}: not a vpcme-model/2 model file" in capsys.readouterr().err

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
        message = f"{model_path}: not a vpcme-model/2 model file: invalid literal for int()"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,edit,message",
        [
            ("scaler_scale", lambda a: a[:2], "scaler mean and scale must have shape (3,)"),
            ("scaler_scale", lambda a: np.zeros_like(a), "its scale finite and positive"),
            ("m0_prior_pos", lambda a: np.full(5, 0.5), "prior_pos must have shape (labels,)"),
            ("scaler_mean", None, "no 'scaler_mean' array"),
            ("features", lambda a: a[:-1], "'features' and 'labels' row counts differ"),
            ("features", None, "no 'features' array"),
        ],
        ids=["scale-short", "scale-zero", "prior-long", "scale-alone", "features-short",
             "features-missing"],
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
