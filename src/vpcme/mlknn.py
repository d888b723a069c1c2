"""MLKNN base classifier: k-NN statistics plus per-label Bayesian MAP.

Fitting counts, for every training instance, how many of its k nearest
neighbors carry each label, and tallies those counts separately for
instances that do / do not carry the label themselves. Prediction combines
the smoothed priors with the smoothed count likelihoods into a posterior
probability per label.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import ConfigError, ValidationError

DEFAULT_K = 10
DEFAULT_SMOOTHING = 1.0


@dataclass(frozen=True)
class MlknnModel:
    k_neighbors: int
    smoothing: float
    train_points: np.ndarray
    train_labels: np.ndarray
    prior_pos: np.ndarray
    freq_pos: np.ndarray
    freq_neg: np.ndarray
    # Each training row's k nearest training rows, itself included: the
    # neighbors posterior_scores would search for the training rows. Set by
    # fit_mlknn so that scoring the training set needs no second search;
    # None for a model rebuilt from its saved arrays.
    train_neighbors: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        points = np.ascontiguousarray(self.train_points, dtype=np.float64)
        labels = np.ascontiguousarray(self.train_labels, dtype=bool)
        prior = np.ascontiguousarray(self.prior_pos, dtype=np.float64)
        fpos = np.ascontiguousarray(self.freq_pos, dtype=np.int64)
        fneg = np.ascontiguousarray(self.freq_neg, dtype=np.int64)
        n, _ = points.shape
        r = labels.shape[1]
        k = self.k_neighbors
        if labels.shape[0] != n:
            raise ValidationError("train_points and train_labels row counts differ")
        if fpos.shape != (r, k + 1) or fneg.shape != (r, k + 1):
            raise ValidationError("frequency tables must have shape (labels, k+1)")
        pos_totals = labels.sum(axis=0)
        if not np.array_equal(fpos.sum(axis=1), pos_totals):
            raise ValidationError("freq_pos rows must sum to the per-label positive counts")
        if not np.array_equal(fneg.sum(axis=1), n - pos_totals):
            raise ValidationError("freq_neg rows must sum to the per-label negative counts")
        if prior.shape != (r,):
            raise ValidationError("prior_pos must have shape (labels,)")
        if not np.all((prior > 0.0) & (prior < 1.0)):
            raise ValidationError("smoothed priors must lie strictly inside (0, 1)")
        for arr, name in ((points, "train_points"), (labels, "train_labels"),
                          (prior, "prior_pos"), (fpos, "freq_pos"), (fneg, "freq_neg")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.train_neighbors is not None:
            table = np.ascontiguousarray(self.train_neighbors, dtype=np.int64)
            if table.shape != (n, k):
                raise ValidationError("train_neighbors must have shape (instances, k)")
            table.setflags(write=False)
            object.__setattr__(self, "train_neighbors", table)

    @property
    def dim(self) -> int:
        return self.train_points.shape[1]

    @property
    def label_count(self) -> int:
        return self.train_labels.shape[1]


def fit_mlknn(points, labels, k_neighbors: int = DEFAULT_K,
              smoothing: float = DEFAULT_SMOOTHING) -> MlknnModel:
    """Count neighbor statistics and smoothed priors over the training set.

    Neighbors use Euclidean distance with the instance itself excluded;
    distance ties go to the lower training index.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    labels = np.ascontiguousarray(labels, dtype=bool)
    n = points.shape[0]
    r = labels.shape[1]
    s = float(smoothing)
    k = int(k_neighbors)
    if labels.shape[0] != n:
        raise ValidationError("points and labels row counts differ")
    if n < 2:
        raise ConfigError("fitting needs at least 2 instances")
    if k >= n:
        raise ConfigError(f"k_neighbors={k} must be smaller than the instance count {n}")
    if k < 1:
        raise ConfigError("k_neighbors must be at least 1")
    if not (math.isfinite(s) and s > 0.0):
        raise ConfigError(f"smoothing must be finite and positive, got {s}")

    neighbors, distances = _kernels.knn(points, points, k, exclude_self=True)
    counts = labels[neighbors].sum(axis=1)  # (n, r) positives among each row's neighbors
    prior_pos = (s + labels.sum(axis=0)) / (2.0 * s + n)
    freq_pos = np.zeros((r, k + 1), dtype=np.int64)
    freq_neg = np.zeros((r, k + 1), dtype=np.int64)
    for l in range(r):
        has = labels[:, l]
        freq_pos[l] = np.bincount(counts[has, l], minlength=k + 1)
        freq_neg[l] = np.bincount(counts[~has, l], minlength=k + 1)
    return MlknnModel(
        k_neighbors=k,
        smoothing=s,
        train_points=points,
        train_labels=labels,
        prior_pos=prior_pos,
        freq_pos=freq_pos,
        freq_neg=freq_neg,
        train_neighbors=_with_self(neighbors, distances),
    )


def _with_self(neighbors, distances):
    """Self-included neighbor table derived from the self-excluded one.

    Row i enters its own list at distance 0, after any lower-index exact
    duplicate, and the k-th excluded neighbor drops out: the list a search
    of the training rows as plain queries would return.
    """
    n, k = neighbors.shape
    rows = np.arange(n)[:, None]
    place = np.count_nonzero((distances == 0.0) & (neighbors < rows), axis=1)[:, None]
    slot = np.arange(k)[None, :]
    shifted = np.concatenate([neighbors[:, :1], neighbors[:, :-1]], axis=1)
    return np.where(slot < place, neighbors, np.where(slot == place, rows, shifted))


def _as_queries(model: MlknnModel, query):
    q = np.asarray(query, dtype=np.float64)
    single = q.ndim == 1
    if single:
        q = q[None, :]
    if q.ndim != 2 or q.shape[1] != model.dim:
        raise ValidationError(f"query width must be {model.dim}")
    return q, single


def posterior_scores(model: MlknnModel, query) -> np.ndarray:
    """Posterior probability of each label for one query or a query matrix."""
    q, single = _as_queries(model, query)
    if model.train_neighbors is not None and np.array_equal(q, model.train_points):
        neighbors = model.train_neighbors  # the training rows: reuse the fit's search
    else:
        neighbors, _ = _kernels.knn(model.train_points, q, model.k_neighbors)
    c = model.train_labels[neighbors].sum(axis=1)  # (m, r)
    s = model.smoothing
    k = model.k_neighbors
    r = model.label_count
    cols = np.arange(r)
    n_pos = model.freq_pos.sum(axis=1)
    n_neg = model.freq_neg.sum(axis=1)
    like_pos = (s + model.freq_pos[cols[None, :], c]) / (s * (k + 1) + n_pos)
    like_neg = (s + model.freq_neg[cols[None, :], c]) / (s * (k + 1) + n_neg)
    num = model.prior_pos * like_pos
    scores = num / (num + (1.0 - model.prior_pos) * like_neg)
    return scores[0] if single else scores


def predict_bipartition(model: MlknnModel, query) -> np.ndarray:
    """Boolean label vector: label present iff its posterior exceeds 0.5."""
    return posterior_scores(model, query) > 0.5
