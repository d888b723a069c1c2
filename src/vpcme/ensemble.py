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

from ._kernels import parallel_map
from .constraints import ConstraintConfig, sample_constraints
from .dataset import MultiLabelDataset, open_output
from .errors import ConfigError, ValidationError, checked_array, checked_bool, checked_int, frozen_array
from .mlknn import DEFAULT_K, DEFAULT_SMOOTHING, MlknnModel, checked_smoothing, fit_mlknn, posterior_scores
from .projection import ProjectionModel, fit_projection, transform

MODEL_FORMAT = "vpcme-model/2"
# each member's MLKNN tables by MlknnModel field name, in the archive's key order
_MLKNN_TABLES = ("prior_pos", "freq_pos", "freq_neg")


@dataclass(frozen=True)
class VpcmeConfig:
    """The member settings of one ensemble, each checked when built; the
    counts and seed are stored as ``int``, theta and smoothing as ``float``,
    ``boosting_enabled`` as ``bool``. The smoothing follows
    :func:`~vpcme.mlknn.checked_smoothing` with the config's k."""

    ensemble_size: int = 30
    theta: float = 0.6
    k_neighbors: int = DEFAULT_K
    smoothing: float = DEFAULT_SMOOTHING
    seed: int = 0
    boosting_enabled: bool = True

    def __post_init__(self):
        for name, minimum in (("ensemble_size", 1), ("k_neighbors", 1), ("seed", 0)):
            object.__setattr__(self, name, checked_int(name, getattr(self, name), minimum))
        object.__setattr__(self, "theta", ConstraintConfig(self.theta, 0, 0).theta)  # theta's own checks
        object.__setattr__(self, "smoothing", checked_smoothing(self.smoothing, self.k_neighbors))
        object.__setattr__(self, "boosting_enabled", checked_bool("boosting_enabled", self.boosting_enabled))


@dataclass(frozen=True, eq=False)
class VpcmeModel:
    """Ordered (projection, classifier) members plus the training trace.

    ``training_log`` holds one (error_rate, reduced_dim, n_must, n_cannot)
    row per member, given as a finite non-negative table with error rates
    of at most 1 and whole counts, and stored as (float, int, int, int)
    tuples. ``scaler`` is None or the (mean, scale) pair that
    :func:`member_scores` applies to every query, ``(x - mean) / scale``,
    because the members were trained on features standardized that way.
    ``features`` holds the training rows, finite, as the members saw them
    (after any scaler); each member's classifier holds them projected through its W.
    """

    members: tuple
    config: VpcmeConfig
    training_log: tuple
    features: np.ndarray
    scaler: tuple | None = None

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
        log = checked_array("training_log", self.training_log, np.float64, (len(members), 4), bound=np.inf)
        if np.any(log[:, 0] > 1.0) or np.any(log[:, 1:] % 1.0):
            raise ValidationError("training_log rows must hold an error rate in [0, 1] and whole counts")
        log = tuple((e, int(d), int(m), int(c)) for e, d, m, c in log.tolist())
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "training_log", log)
        if self.scaler is not None:
            mean, scale = self.scaler
            mean = frozen_array("scaler mean", mean, np.float64, (first_proj.input_dim,))
            scale = frozen_array("scaler scale", scale, np.float64, (first_proj.input_dim,))
            if not np.all(scale > 0.0):
                raise ValidationError("scaler scale must be positive")
            object.__setattr__(self, "scaler", (mean, scale))
        shape = (first_classifier.train_points.shape[0], first_proj.input_dim)
        object.__setattr__(self, "features", frozen_array("features", self.features, np.float64, shape))

    @property
    def feature_count(self) -> int:
        return self.members[0][0].input_dim

    @property
    def label_count(self) -> int:
        return self.members[0][1].label_count


def _fit_member(ds, weights, cfg, member_index):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, member_index])))
    n = ds.instance_count
    constraint_cfg = ConstraintConfig(theta=cfg.theta, target_must=n, target_cannot=n)
    sets = sample_constraints(ds, weights, constraint_cfg, rng)
    proj = fit_projection(ds, sets)
    classifier, mis = _fit_classifier(transform(proj, ds.features), ds.labels, cfg)
    return (proj, classifier), mis, sets


def _fit_classifier(points, labels, cfg):
    """MLKNN on ``points`` plus the training rows it gets wrong (exact label
    set): the member's training self-prediction is its one-member vote. That
    call reads the fit's neighbor table; the member keeps no table after it."""
    classifier = fit_mlknn(points, labels, cfg.k_neighbors, cfg.smoothing)
    bipartition, _ = majority_vote([posterior_scores(classifier, points)])
    return replace(classifier, train_neighbors=None), (bipartition != labels).any(axis=1)


def train_vpcme(ds: MultiLabelDataset, cfg: VpcmeConfig) -> VpcmeModel:
    """Train the full ensemble; member RNG streams derive from (seed, index).

    The projection holds BLAS at one thread, so the model's bits do not
    depend on the CPU count. A dataset of at most ``cfg.k_neighbors`` rows
    raises ``ConfigError`` in the first member, from
    :func:`~vpcme.mlknn.fit_mlknn` (at one row, from pair sampling).
    """
    n = ds.instance_count
    weights = np.full(n, 1.0 / n)
    members = []
    log = []
    for l in range(cfg.ensemble_size):
        member, mis, sets = _fit_member(ds, weights, cfg, l)
        error_rate = float(np.mean(mis))
        if cfg.boosting_enabled and error_rate > 0.0:
            weights[mis] *= 1.0 + error_rate
            weights /= weights.sum()
        members.append(member)
        log.append((error_rate, member[0].reduced_dim, sets.n_must, sets.n_cannot))
    return VpcmeModel(tuple(members), cfg, tuple(log), features=ds.features)


def train_single_mlknn(ds: MultiLabelDataset, cfg: VpcmeConfig) -> VpcmeModel:
    """Plain MLKNN on the raw features, wrapped as a one-member ensemble."""
    k = ds.feature_count
    identity = ProjectionModel(w=np.eye(k), eigenvalues=np.zeros(k), scaling_r=1.0)
    classifier, mis = _fit_classifier(ds.features, ds.labels, cfg)
    error_rate = float(np.mean(mis))
    return VpcmeModel(
        members=((identity, classifier),),
        config=replace(cfg, ensemble_size=1, boosting_enabled=False),
        training_log=((error_rate, k, 0, 0),),
        features=ds.features,
    )


def member_scores(model: VpcmeModel, x) -> list:
    """Each member's posterior score matrix for ``x``, in member order.

    Takes a finite matrix of raw feature rows; a model with a scaler
    standardizes them itself, once for all members. Members score on
    ``parallel_map``'s thread pool.
    """
    arr = checked_array("x", x, np.float64, (None, model.feature_count), finite=True)
    if model.scaler is not None:
        mean, scale = model.scaler
        with np.errstate(over="ignore"):
            arr = (arr - mean) / scale
        if not np.isfinite(arr).all():
            raise ValidationError("x has a row that the model's scaler takes to non-finite values")

    def score(member):
        proj, classifier = member
        return posterior_scores(classifier, transform(proj, arr))

    return parallel_map(score, model.members)


def majority_vote(scores):
    """Majority-vote bipartition plus mean scores over a non-empty list of
    equally shaped, finite member score matrices.

    A label is predicted when strictly more than half the members vote for
    it (score above 0.5); an exact half split falls back to the mean score
    against 0.5. Votes are ``(stack > 0.5).sum(axis=0)``; mean scores are
    the running sum ``np.cumsum(stack, axis=0)[-1] / s``, which adds the
    members in list order.
    """
    stack = checked_array("scores", scores, np.float64, (None, None, None), finite=True)
    s = stack.shape[0]
    if s == 0:
        raise ValidationError("scores must hold at least one member's matrix")
    votes = (stack > 0.5).sum(axis=0)
    mean_scores = np.cumsum(stack, axis=0)[-1] / s
    bipartition = (2 * votes > s) | ((2 * votes == s) & (mean_scores > 0.5))
    return bipartition, mean_scores


def predict_ensemble(model: VpcmeModel, x):
    """Majority-vote bipartition plus mean posterior scores of all the
    model's members: ``majority_vote(member_scores(model, x))``."""
    return majority_vote(member_scores(model, x))


def save_model(model: VpcmeModel, path) -> None:
    """Write a ``vpcme-model/2`` archive, which predicts bit-exactly once loaded:
    the training features and labels once, and each member's projection and
    MLKNN tables. The file is rewritten in place and cut at its last byte
    (:func:`~vpcme.dataset.open_output`)."""
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
        for name in _MLKNN_TABLES:
            payload[f"m{i}_{name}"] = getattr(classifier, name)
    with open_output(path, binary=True) as handle:  # zipfile ends at the archive's last byte
        np.savez(handle, **payload)


def load_model(path):
    """Inverse of :func:`save_model`; returns the :class:`VpcmeModel`.

    Each member's training points are rebuilt as ``transform(proj, features)``,
    the bits training computed. A file that is not a ``vpcme-model/2``
    archive (one in an older layout included), lacks one of its arrays, or
    holds one that does not decode or that the model types reject (a shape
    at odds with the rest of the model, a non-finite ``features`` or ``w``
    entry, or a config setting out of range, say) raises ``ValidationError``
    naming it.
    """
    bad = f"{path}: not a {MODEL_FORMAT} model file"
    try:
        data = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile):
        data = None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValidationError(bad)
    with data:
        if "format" not in data or str(data["format"]) != MODEL_FORMAT:
            raise ValidationError(bad)

        def read(key):
            if key not in data:
                raise KeyError(key)
            return data[key]

        # a non-JSON or unknown-field config, or an array of the wrong type or
        # shape, raises one of these while decoding or in the model types' checks
        try:
            cfg = VpcmeConfig(**json.loads(str(read("config"))))
            members, features = [], None
            for i in range(checked_int("member_count", read("member_count")[()], 1)):
                proj = ProjectionModel(
                    w=read(f"m{i}_w"),
                    eigenvalues=read(f"m{i}_eigenvalues"),
                    scaling_r=read(f"m{i}_scaling_r")[()],
                )
                if features is None:  # after member 0's projection: a bare archive names m0_w
                    features = frozen_array("features", read("features"), np.float64, (None, None))
                    labels = frozen_array("labels", read("labels"), bool, (None, None))
                points = transform(proj, features)
                tables = {name: read(f"m{i}_{name}") for name in _MLKNN_TABLES}
                members.append((proj, MlknnModel(cfg.k_neighbors, cfg.smoothing, points, labels, **tables)))
            log = read("training_log")
            has_scaler = "scaler_mean" in data or "scaler_scale" in data
            scaler = (read("scaler_mean"), read("scaler_scale")) if has_scaler else None
            return VpcmeModel(tuple(members), cfg, log, features, scaler)
        except KeyError as exc:
            raise ValidationError(f"{bad}, no {exc.args[0]!r} array") from None
        except (ValidationError, ConfigError, ValueError, TypeError, IndexError) as exc:
            raise ValidationError(f"{bad}: {exc}") from exc
