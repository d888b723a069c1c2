"""Ensemble training loop, majority-vote prediction, model persistence.

Each member samples its own constraint pairs with the current instance
weights, fits a projection, and trains an MLKNN classifier in the projected
space. With boosting enabled, instances the member misclassifies get their
weight multiplied by (1 + error rate) before renormalization, steering the
next member's pair sampling toward them. With boosting disabled the weights
stay uniform, which is the bagging-style baseline.
"""

import json
import zipfile
from dataclasses import asdict, dataclass, field

import numpy as np

from ._kernels import one_blas_thread, parallel_map
from .constraints import ConstraintConfig, sample_constraints
from .dataset import MultiLabelDataset
from .errors import ConfigError, ValidationError
from .mlknn import MlknnModel, fit_mlknn, posterior_scores
from .projection import ProjectionModel, fit_projection, transform

MODEL_FORMAT = "vpcme-model/1"


@dataclass(frozen=True)
class VpcmeConfig:
    ensemble_size: int = 30
    theta: float = 0.6
    k_neighbors: int = 10
    smoothing: float = 1.0
    n_must: int = None  # None = number of training instances
    n_cannot: int = None
    seed: int = 0
    boosting_enabled: bool = True

    def __post_init__(self):
        if self.ensemble_size < 1:
            raise ConfigError("ensemble_size must be at least 1")
        if not 0.0 <= self.theta <= 1.0:
            raise ConfigError(f"theta must lie in [0, 1], got {self.theta}")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")


@dataclass(frozen=True)
class VpcmeModel:
    """Ordered (projection, classifier) members plus the training trace.

    ``training_log`` holds one (error_rate, reduced_dim, n_must, n_cannot)
    tuple per member.
    """

    members: tuple
    config: VpcmeConfig
    training_log: tuple

    def __post_init__(self):
        members = tuple(self.members)
        if len(members) != self.config.ensemble_size:
            raise ValidationError("member count must equal the configured ensemble size")
        for proj, classifier in members:
            if classifier.dim != proj.reduced_dim:
                raise ValidationError("classifier dimension must match its projection")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "training_log", tuple(tuple(t) for t in self.training_log))

    @property
    def feature_count(self) -> int:
        return self.members[0][0].input_dim

    @property
    def label_count(self) -> int:
        return self.members[0][1].label_count


def sample_is_misclassified(predicted, truth) -> bool:
    """True unless the predicted label set equals the true one exactly."""
    p = np.asarray(predicted, dtype=bool)
    t = np.asarray(truth, dtype=bool)
    if p.shape != t.shape:
        raise ValidationError("predicted and true label vectors must have the same shape")
    return bool(np.any(p != t))


def _member_rng(seed: int, member: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, member])))


def _fit_member(ds, weights, cfg, member_index):
    rng = _member_rng(cfg.seed, member_index)
    n = ds.instance_count
    constraint_cfg = ConstraintConfig(
        theta=cfg.theta,
        target_must=n if cfg.n_must is None else cfg.n_must,
        target_cannot=n if cfg.n_cannot is None else cfg.n_cannot,
    )
    sets = sample_constraints(ds, weights, constraint_cfg, rng)
    proj = fit_projection(ds, sets)
    z = transform(proj, ds.features)
    classifier = fit_mlknn(z, ds.labels, cfg.k_neighbors, cfg.smoothing)
    train_preds = posterior_scores(classifier, z) > 0.5
    mis = (train_preds != ds.labels).any(axis=1)
    return (proj, classifier), mis, sets


def train_vpcme(ds: MultiLabelDataset, cfg: VpcmeConfig) -> VpcmeModel:
    """Train the full ensemble; member RNG streams derive from (seed, index).

    BLAS runs at one thread throughout, so the model's bits do not depend on
    the CPU count.
    """
    n = ds.instance_count
    if n < max(2, cfg.k_neighbors + 1):
        raise ConfigError(
            f"training needs more than k_neighbors={cfg.k_neighbors} instances, got {n}"
        )
    weights = np.full(n, 1.0 / n)
    members = []
    log = []
    with one_blas_thread():
        for l in range(cfg.ensemble_size):
            member, mis, sets = _fit_member(ds, weights, cfg, l)
            error_rate = float(np.mean(mis))
            if cfg.boosting_enabled and error_rate > 0.0:
                weights = weights.copy()
                weights[mis] *= 1.0 + error_rate
                weights /= weights.sum()
            members.append(member)
            log.append((error_rate, member[0].reduced_dim, sets.n_must, sets.n_cannot))
    return VpcmeModel(members=tuple(members), config=cfg, training_log=tuple(log))


def train_single_mlknn(ds: MultiLabelDataset, cfg: VpcmeConfig) -> VpcmeModel:
    """Plain MLKNN on the raw features, wrapped as a one-member ensemble."""
    k = ds.feature_count
    identity = ProjectionModel(
        w=np.eye(k),
        eigenvalues=np.zeros(k),
        reduced_dim=k,
        scaling_r=1.0,
    )
    with one_blas_thread():
        classifier = fit_mlknn(ds.features, ds.labels, cfg.k_neighbors, cfg.smoothing)
        train_preds = posterior_scores(classifier, ds.features) > 0.5
    error_rate = float(np.mean((train_preds != ds.labels).any(axis=1)))
    single_cfg = VpcmeConfig(
        ensemble_size=1,
        theta=cfg.theta,
        k_neighbors=cfg.k_neighbors,
        smoothing=cfg.smoothing,
        seed=cfg.seed,
        boosting_enabled=False,
    )
    return VpcmeModel(
        members=((identity, classifier),),
        config=single_cfg,
        training_log=((error_rate, k, 0, 0),),
    )


def predict_ensemble(model: VpcmeModel, x):
    """Majority-vote bipartition plus mean posterior scores.

    A label is predicted when strictly more than half the members vote for
    it; an exact half split falls back to the mean score against 0.5.
    Accepts a single feature vector or a matrix of rows. Members score on
    ``parallel_map``'s thread pool; votes and scores add up in member order.
    """
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != model.feature_count:
        raise ValidationError(f"query width must be {model.feature_count}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("query matrix contains non-finite values")
    s = len(model.members)
    votes = np.zeros((arr.shape[0], model.label_count), dtype=np.int64)
    score_sum = np.zeros((arr.shape[0], model.label_count))

    def score(member):
        proj, classifier = member
        return posterior_scores(classifier, transform(proj, arr))

    for member_scores in parallel_map(score, model.members):
        votes += member_scores > 0.5
        score_sum += member_scores
    mean_scores = score_sum / s
    bipartition = (2 * votes > s) | ((2 * votes == s) & (mean_scores > 0.5))
    if single:
        return bipartition[0], mean_scores[0]
    return bipartition, mean_scores


def save_model(model: VpcmeModel, path, scaler=None) -> None:
    """Persist everything needed to reproduce predictions bit-exactly."""
    payload = {
        "format": MODEL_FORMAT,
        "config": json.dumps(asdict(model.config), sort_keys=True),
        "member_count": np.int64(len(model.members)),
        "training_log": np.array(model.training_log, dtype=np.float64).reshape(-1, 4),
    }
    if scaler is not None:
        mean, scale = scaler
        payload["scaler_mean"] = np.asarray(mean, dtype=np.float64)
        payload["scaler_scale"] = np.asarray(scale, dtype=np.float64)
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


def load_model(path):
    """Inverse of :func:`save_model`; returns (model, scaler_or_None).

    A file that is not a vpcme model, lacks one of its arrays, or holds one
    that does not decode raises ``ValidationError`` naming it.
    """
    try:
        data = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile):
        data = None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValidationError(f"{path}: not a {MODEL_FORMAT} model file")
    with data:
        if "format" not in data or str(data["format"]) != MODEL_FORMAT:
            raise ValidationError(f"{path}: not a {MODEL_FORMAT} model file")

        def read(key):
            if key not in data:
                raise ValidationError(f"{path}: not a {MODEL_FORMAT} model file, no {key!r} array")
            return data[key]

        # a config that is not JSON or names an unknown field, or an array of
        # the wrong type or shape, raises one of these while decoding
        try:
            cfg = VpcmeConfig(**json.loads(str(read("config"))))
            count = int(read("member_count"))
            members = []
            for i in range(count):
                w = read(f"m{i}_w")
                proj = ProjectionModel(
                    w=w,
                    eigenvalues=read(f"m{i}_eigenvalues"),
                    reduced_dim=w.shape[1],
                    scaling_r=float(read(f"m{i}_scaling_r")),
                )
                classifier = MlknnModel(
                    k_neighbors=int(read(f"m{i}_k_neighbors")),
                    smoothing=float(read(f"m{i}_smoothing")),
                    train_points=read(f"m{i}_train_points"),
                    train_labels=read(f"m{i}_train_labels"),
                    prior_pos=read(f"m{i}_prior_pos"),
                    freq_pos=read(f"m{i}_freq_pos"),
                    freq_neg=read(f"m{i}_freq_neg"),
                )
                members.append((proj, classifier))
            log = tuple(
                (float(row[0]), int(row[1]), int(row[2]), int(row[3]))
                for row in read("training_log")
            )
            scaler = None
            if "scaler_mean" in data:
                scaler = (data["scaler_mean"], read("scaler_scale"))
            return VpcmeModel(members=tuple(members), config=cfg, training_log=log), scaler
        except (ValueError, TypeError, IndexError) as exc:
            raise ValidationError(f"{path}: not a {MODEL_FORMAT} model file: {exc}") from exc
