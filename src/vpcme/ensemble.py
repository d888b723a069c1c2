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
from dataclasses import asdict, dataclass, replace

import numpy as np

from ._kernels import one_blas_thread, parallel_map
from .constraints import ConstraintConfig, sample_constraints
from .dataset import MultiLabelDataset
from .errors import ConfigError, ValidationError
from .mlknn import MlknnModel, fit_mlknn, posterior_scores, predict_bipartition
from .projection import ProjectionModel, fit_projection, transform

MODEL_FORMAT = "vpcme-model/2"
MODEL_FORMAT_1 = "vpcme-model/1"  # still read: per-member points, labels, k and smoothing


@dataclass(frozen=True)
class VpcmeConfig:
    ensemble_size: int = 30
    theta: float = 0.6
    k_neighbors: int = 10
    smoothing: float = 1.0
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
    tuple per member. ``scaler`` is None or the (mean, scale) pair that
    :func:`predict_ensemble` applies to every query, ``(x - mean) / scale``,
    because the members were trained on features standardized that way.
    ``features`` holds the training rows as the members saw them (after any
    scaler), which each member's classifier holds projected through its W;
    it is None only for a model read from a ``vpcme-model/1`` file.
    """

    members: tuple
    config: VpcmeConfig
    training_log: tuple
    scaler: tuple | None = None
    features: np.ndarray | None = None

    def __post_init__(self):
        members, cfg = tuple(self.members), self.config
        if len(members) != cfg.ensemble_size:
            raise ValidationError("member count must equal the configured ensemble size")
        first_proj, first_classifier = members[0]
        for proj, classifier in members:
            if classifier.dim != proj.reduced_dim:
                raise ValidationError("classifier dimension must match its projection")
            if (proj.input_dim != first_proj.input_dim
                    or classifier.label_count != first_classifier.label_count):
                raise ValidationError("members must share their feature and label counts")
            if (classifier.k_neighbors, classifier.smoothing) != (cfg.k_neighbors, cfg.smoothing):
                raise ValidationError("members must use the config's k_neighbors and smoothing")
        log = tuple(tuple(t) for t in self.training_log)
        if len(log) != len(members):
            raise ValidationError("training_log must hold one row per member")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "training_log", log)
        if self.scaler is not None:
            mean, scale = (np.array(a, dtype=np.float64) for a in self.scaler)
            width = (first_proj.input_dim,)
            if mean.shape != width or scale.shape != width:
                raise ValidationError(f"scaler mean and scale must have shape {width}")
            if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(scale) & (scale > 0.0))):
                raise ValidationError("scaler mean must be finite, and its scale finite and positive")
            mean.setflags(write=False)
            scale.setflags(write=False)
            object.__setattr__(self, "scaler", (mean, scale))
        if self.features is not None:
            features = np.ascontiguousarray(self.features, dtype=np.float64)
            if features.shape != (first_classifier.train_points.shape[0], first_proj.input_dim):
                raise ValidationError("features must have one row per training row and one per input")
            features.setflags(write=False)
            object.__setattr__(self, "features", features)

    @property
    def feature_count(self) -> int:
        return self.members[0][0].input_dim

    @property
    def label_count(self) -> int:
        return self.members[0][1].label_count


def _member_rng(seed: int, member: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, member])))


def _fit_member(ds, weights, cfg, member_index):
    rng = _member_rng(cfg.seed, member_index)
    n = ds.instance_count
    constraint_cfg = ConstraintConfig(theta=cfg.theta, target_must=n, target_cannot=n)
    sets = sample_constraints(ds, weights, constraint_cfg, rng)
    proj = fit_projection(ds, sets)
    classifier, mis = _fit_classifier(transform(proj, ds.features), ds.labels, cfg)
    return (proj, classifier), mis, sets


def _fit_classifier(points, labels, cfg):
    """MLKNN on ``points`` plus the training rows it gets wrong (exact label set)."""
    classifier = fit_mlknn(points, labels, cfg.k_neighbors, cfg.smoothing)
    return classifier, (predict_bipartition(classifier, points) != labels).any(axis=1)


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
    return VpcmeModel(tuple(members), cfg, tuple(log), features=ds.features)


def train_single_mlknn(ds: MultiLabelDataset, cfg: VpcmeConfig) -> VpcmeModel:
    """Plain MLKNN on the raw features, wrapped as a one-member ensemble."""
    k = ds.feature_count
    identity = ProjectionModel(w=np.eye(k), eigenvalues=np.zeros(k), scaling_r=1.0)
    with one_blas_thread():
        classifier, mis = _fit_classifier(ds.features, ds.labels, cfg)
    error_rate = float(np.mean(mis))
    return VpcmeModel(
        members=((identity, classifier),),
        config=replace(cfg, ensemble_size=1, boosting_enabled=False),
        training_log=((error_rate, k, 0, 0),),
        features=ds.features,
    )


def predict_ensemble(model: VpcmeModel, x):
    """Majority-vote bipartition plus mean posterior scores.

    A label is predicted when strictly more than half the members vote for
    it; an exact half split falls back to the mean score against 0.5.
    Accepts a single feature vector or a matrix of rows of raw features;
    a model with a scaler standardizes them itself. Members score on
    ``parallel_map``'s thread pool; votes and scores add up in member order.
    """
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != model.feature_count:
        raise ValidationError(f"query width must be {model.feature_count}")
    if model.scaler is not None:
        mean, scale = model.scaler
        arr = (arr - mean) / scale
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


def save_model(model: VpcmeModel, path) -> None:
    """Write a ``vpcme-model/2`` archive, which predicts bit-exactly once loaded:
    the training features and labels once, and each member's projection and
    MLKNN tables."""
    if model.features is None:
        raise ValidationError(f"a model without its training features cannot be saved as {MODEL_FORMAT}")
    payload = {
        "format": MODEL_FORMAT,
        "config": json.dumps(asdict(model.config), sort_keys=True),
        "member_count": np.int64(len(model.members)),
        "training_log": np.array(model.training_log, dtype=np.float64).reshape(-1, 4),
        "features": model.features,
        "labels": model.members[0][1].train_labels,
    }
    if model.scaler is not None:
        payload["scaler_mean"], payload["scaler_scale"] = model.scaler
    for i, (proj, classifier) in enumerate(model.members):
        payload[f"m{i}_w"] = proj.w
        payload[f"m{i}_eigenvalues"] = proj.eigenvalues
        payload[f"m{i}_scaling_r"] = np.float64(proj.scaling_r)
        payload[f"m{i}_prior_pos"] = classifier.prior_pos
        payload[f"m{i}_freq_pos"] = classifier.freq_pos
        payload[f"m{i}_freq_neg"] = classifier.freq_neg
    with open(path, "wb") as handle:
        np.savez(handle, **payload)


def load_model(path):
    """Inverse of :func:`save_model`; returns the :class:`VpcmeModel`.

    Each member's training points are rebuilt as ``transform(proj, features)``
    at one BLAS thread, the bits training computed; a ``vpcme-model/1`` file
    stores them instead, and gives a model without ``features``. A file that
    is not a vpcme model, lacks one of its arrays, or holds one that does not
    decode or that the model types reject (a shape that disagrees with the
    rest of the model, say) raises ``ValidationError`` naming it.
    """
    try:
        data = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile):
        data = None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValidationError(f"{path}: not a {MODEL_FORMAT} model file")
    with data, one_blas_thread():
        fmt = str(data["format"]) if "format" in data else None
        if fmt not in (MODEL_FORMAT, MODEL_FORMAT_1):
            raise ValidationError(f"{path}: not a {MODEL_FORMAT} model file")

        def read(key):
            if key not in data:
                raise KeyError(key)
            return data[key]

        # a config that is not JSON or names an unknown field, or an array of
        # the wrong type or shape, raises one of these while decoding or in
        # the model types' checks
        try:
            fields = dict(json.loads(str(read("config"))))
            if fmt == MODEL_FORMAT_1:  # the pair targets only steered training
                fields = {key: fields[key] for key in fields.keys() - {"n_must", "n_cannot"}}
            cfg = VpcmeConfig(**fields)
            members, features = [], None
            for i in range(int(read("member_count"))):
                proj = ProjectionModel(
                    w=read(f"m{i}_w"),
                    eigenvalues=read(f"m{i}_eigenvalues"),
                    scaling_r=float(read(f"m{i}_scaling_r")),
                )
                if fmt == MODEL_FORMAT_1:
                    points, labels = read(f"m{i}_train_points"), read(f"m{i}_train_labels")
                    k, smoothing = int(read(f"m{i}_k_neighbors")), float(read(f"m{i}_smoothing"))
                else:
                    if features is None:
                        features, labels = read("features"), read("labels")
                        if len(features) != len(labels):
                            raise ValueError("'features' and 'labels' row counts differ")
                    points, k, smoothing = transform(proj, features), cfg.k_neighbors, cfg.smoothing
                tables = (read(f"m{i}_{name}") for name in ("prior_pos", "freq_pos", "freq_neg"))
                members.append((proj, MlknnModel(k, smoothing, points, labels, *tables)))
            log = [(float(e), int(d), int(m), int(c)) for e, d, m, c in read("training_log")]
            scaler = None
            if "scaler_mean" in data or "scaler_scale" in data:
                scaler = (read("scaler_mean"), read("scaler_scale"))
            return VpcmeModel(tuple(members), cfg, log, scaler, features)
        except KeyError as exc:
            raise ValidationError(f"{path}: not a {fmt} model file, no {exc.args[0]!r} array") from None
        except (ValidationError, ValueError, TypeError, IndexError) as exc:
            raise ValidationError(f"{path}: not a {fmt} model file: {exc}") from exc
