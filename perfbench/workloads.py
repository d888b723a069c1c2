"""The benchmark workloads, each driven through vpcme's public API or CLI.

- ``yeast-cv``: ``vpcme cv --method vpcme`` through ``vpcme.cli.main`` on a
  yeast-shaped CSV, with a reduced protocol (5 folds, 1 repeat, 1 member).
  This is the paper protocol's unit of work and touches every layer.
- ``scene-train``: ``train_vpcme`` of a 3-member ensemble on one
  scene-shaped training fold. The 294-wide eigenproblem dominates, and the
  sparse labels (cardinality 1.07) route constraint pairs differently from
  yeast. The Jacobi eigensolve stalls at its sweep cap on a large share of
  these problems, which makes a member take ~40% longer, so the time of
  even a 3-member operation swings by 60% between seeds. That is too
  unsteady to gate, so this workload is not in BENCHMARK.json; it stays
  runnable by name (and in ``--workload all`` and the smoke test) until the
  eigensolve no longer stalls.
- ``yeast-predict``: ``vpcme predict`` through ``vpcme.cli.main`` on a
  yeast-sized query CSV, with the model trained and saved during set-up.
  The read path: no pair sampling, scatter, eigensolve or fit.

Each workload has a set-up (timed separately, repeated), one operation that
the runner repeats and times, an output check, and the quality of the
first output. ``protocol_hours`` scales the operation's median time to the
paper protocol (30 members x 5 folds x 20 repeats at the same shape): the
whole protocol for ``yeast-cv``, its 3000 member fits for ``scene-train``,
and its test-fold prediction for ``yeast-predict``.
"""

import hashlib
import json
import math

import numpy as np

import vpcme
import vpcme.cli
import vpcme.ensemble

from data import SCENE, SCENE_TOY, YEAST, YEAST_TOY, make_corpus

PROTOCOL_MEMBERS = 30
PROTOCOL_FOLDS = 5
PROTOCOL_REPEATS = 20
PROTOCOL_FITS = PROTOCOL_MEMBERS * PROTOCOL_FOLDS * PROTOCOL_REPEATS
EVAL_SEED = 2**32 - 1
REPORT_METRICS = (
    "hamming_loss",
    "ranking_loss",
    "one_error",
    "coverage",
    "average_precision",
    "f1",
    "recall",
)

# Quality references at full size: (median over seeds 0-9, tolerance). The
# tolerance is three times the range over those seeds, so no seed trips it,
# while a change that breaks what the pipeline computes does.
REFERENCE = {
    "yeast-cv": {
        "hamming_loss": (0.1119, 0.018),
        "ranking_loss": (0.0530, 0.022),
        "one_error": (0.0796, 0.038),
        "coverage": (4.4868, 0.43),
        "average_precision": (0.9014, 0.038),
        "f1": (0.7567, 0.051),
        "recall": (0.7620, 0.078),
    },
    "scene-train": {
        "hamming_loss": (0.0599, 0.023),
        "average_precision": (0.9204, 0.063),
    },
    "yeast-predict": {
        "hamming_loss": (0.0994, 0.016),
        "average_precision": (0.9191, 0.033),
    },
}


def hamming_loss(truth, predicted):
    return float(np.mean(truth != predicted))


def average_precision(truth, scores):
    """Mean precision at each relevant label's rank; ties go to the lower label."""
    order = np.argsort(-scores, axis=1, kind="stable")
    relevant = np.take_along_axis(truth, order, axis=1)
    keep = relevant.any(axis=1)
    precision = np.cumsum(relevant, axis=1) / np.arange(1, truth.shape[1] + 1)
    per_row = (precision * relevant).sum(axis=1)[keep] / relevant.sum(axis=1)[keep]
    return float(np.mean(per_row))


def band_problems(workload, values):
    """Quality values that lie outside the workload's recorded reference band."""
    problems = []
    for name, (reference, tolerance) in REFERENCE[workload].items():
        if not abs(values[name] - reference) <= tolerance:
            problems.append(f"{name}={values[name]:.4f} outside {reference}±{tolerance}")
    return problems


class YeastCv:
    name = "yeast-cv"
    why = "the paper's cv protocol, reduced, through the CLI: every layer, mlknn largest"
    folds = 5
    repeats = 1
    members = 1

    def __init__(self, seed, workdir, smoke):
        self.seed = seed
        self.shape = YEAST_TOY if smoke else YEAST
        self.csv = workdir / "yeast.csv"
        self.report = workdir / "report.json"

    def setup(self):
        features, labels = make_corpus(self.shape, self.seed)
        vpcme.save_csv(vpcme.MultiLabelDataset(features, labels), self.csv)

    def op(self):
        argv = [
            "cv", "--data", str(self.csv), "--labels", str(self.shape.labels),
            "--method", "vpcme", "--ensemble-size", str(self.members),
            "--folds", str(self.folds), "--repeats", str(self.repeats),
            "--seed", str(self.seed), "--out", str(self.report),
        ]
        code = vpcme.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"vpcme cv exited with {code}")
        return self.report.read_bytes()

    def check(self, output):
        doc = json.loads(output)
        problems = []
        if doc.get("command") != "cv":
            problems.append(f"report command {doc.get('command')!r}")
        for name in REPORT_METRICS:
            units = doc["units"][name]
            if len(units) != self.folds * self.repeats or not all(math.isfinite(u) for u in units):
                problems.append(f"{name}: expected {self.folds * self.repeats} finite fold values")
        return problems

    def digest(self, output):
        return hashlib.sha256(output).hexdigest()

    def quality(self, output):
        doc = json.loads(output)
        return {name: doc["metrics"][name]["mean"] for name in REPORT_METRICS}

    def protocol_hours(self, op_s):
        fits = self.folds * self.repeats * self.members
        return op_s * PROTOCOL_FITS / fits / 3600.0

    def rates(self, op_s):
        return {"members_per_s": self.folds * self.repeats * self.members / op_s}


class SceneTrain:
    name = "scene-train"
    why = "3 members on a scene training fold: the 294-wide eigensolve dominates, sparse labels"
    members = 3

    def __init__(self, seed, workdir, smoke):
        self.seed = seed
        self.shape = SCENE_TOY if smoke else SCENE

    def setup(self):
        features, labels = make_corpus(self.shape, self.seed)
        ds = vpcme.MultiLabelDataset(features, labels)
        folds = vpcme.kfold_split(ds.instance_count, PROTOCOL_FOLDS, self.seed)
        self.train = ds.subset(folds.train_indices(0))
        self.config = vpcme.VpcmeConfig(ensemble_size=self.members, seed=self.seed)
        # quality is measured on a fixed draw: on the 482-row test fold, scene's
        # few label errors make hamming loss swing by 15% between seeds
        self.eval_features, self.eval_labels = make_corpus(self.shape, EVAL_SEED, rows=self.shape.rows // 2)

    def op(self):
        return vpcme.ensemble.train_vpcme(self.train, self.config)

    def check(self, model):
        problems = []
        if len(model.members) != self.members:
            problems.append(f"{len(model.members)} members, expected {self.members}")
        for error_rate, kept, n_must, n_cannot in model.training_log:
            if not 0.0 <= error_rate <= 1.0 or kept < 1 or n_must + n_cannot < 1:
                problems.append(f"implausible training log entry {(error_rate, kept, n_must, n_cannot)}")
        return problems

    def digest(self, model):
        h = hashlib.sha256(repr(model.training_log).encode())
        for proj, classifier in model.members:
            for arr in (proj.w, proj.eigenvalues, classifier.prior_pos, classifier.freq_pos, classifier.freq_neg):
                h.update(arr.tobytes())
        return h.hexdigest()

    def quality(self, model):
        predicted, scores = vpcme.predict_ensemble(model, self.eval_features)
        return {
            "hamming_loss": hamming_loss(self.eval_labels, predicted),
            "average_precision": average_precision(self.eval_labels, scores),
        }

    def protocol_hours(self, op_s):
        return op_s * PROTOCOL_FITS / self.members / 3600.0

    def rates(self, op_s):
        return {"members_per_s": self.members / op_s}


class YeastPredict:
    name = "yeast-predict"
    why = "vpcme predict through the CLI, model saved in set-up: the read path, no sampling or eigensolve"
    members = 2

    def __init__(self, seed, workdir, smoke):
        self.seed = seed
        self.shape = YEAST_TOY if smoke else YEAST
        self.model_path = workdir / "model.npz"
        self.query_csv = workdir / "query.csv"
        self.out_csv = workdir / "predictions.csv"
        # the model sees a training fold of the corpus size, the query is a full corpus
        self.train_rows = self.shape.rows - math.ceil(self.shape.rows / PROTOCOL_FOLDS)
        self.query_rows = self.shape.rows

    def setup(self):
        features, labels = make_corpus(self.shape, self.seed, rows=self.train_rows + self.query_rows)
        train = vpcme.MultiLabelDataset(features[: self.train_rows], labels[: self.train_rows])
        model = vpcme.train_vpcme(train, vpcme.VpcmeConfig(ensemble_size=self.members, seed=self.seed))
        vpcme.save_model(model, self.model_path)
        np.savetxt(self.query_csv, features[self.train_rows :], fmt="%.17g", delimiter=",")
        self.truth = labels[self.train_rows :]

    def op(self):
        argv = ["predict", "--model", str(self.model_path), "--data", str(self.query_csv),
                "--out", str(self.out_csv)]
        code = vpcme.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"vpcme predict exited with {code}")
        return self.out_csv.read_bytes()

    def _parse(self, output):
        lines = output.decode().splitlines()
        r = self.shape.labels
        header = [f"score_{i}" for i in range(r)] + [f"pred_{i}" for i in range(r)]
        if lines[0].split(",") != header:
            raise ValueError(f"unexpected header {lines[0]!r}")
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        if table.shape != (self.query_rows, 2 * r):
            raise ValueError(f"prediction table has shape {table.shape}")
        return table[:, :r], table[:, r:]

    def check(self, output):
        scores, predicted = self._parse(output)
        problems = []
        if not (np.all(np.isfinite(scores)) and np.all((scores >= 0.0) & (scores <= 1.0))):
            problems.append("scores not finite in [0, 1]")
        if not np.all((predicted == 0.0) | (predicted == 1.0)):
            problems.append("bipartition cells not 0/1")
        return problems

    def digest(self, output):
        return hashlib.sha256(output).hexdigest()

    def quality(self, output):
        scores, predicted = self._parse(output)
        return {
            "hamming_loss": hamming_loss(self.truth, predicted == 1.0),
            "average_precision": average_precision(self.truth, scores),
        }

    def protocol_hours(self, op_s):
        # the protocol scores every row once per repeat, with every member
        protocol_passes = self.shape.rows * PROTOCOL_REPEATS * PROTOCOL_MEMBERS
        return op_s * protocol_passes / (self.query_rows * self.members) / 3600.0

    def rates(self, op_s):
        return {"predict_rows_per_s": self.query_rows / op_s}


WORKLOADS = {w.name: w for w in (YeastCv, SceneTrain, YeastPredict)}
