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
from .errors import ConfigError, ValidationError, checked_array, checked_float, checked_int, frozen_array

DEFAULT_K = 10
DEFAULT_SMOOTHING = 1.0
SMALLEST_SMOOTHING = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True, eq=False)
class MlknnModel:
    k_neighbors: int
    smoothing: float
    train_points: np.ndarray
    train_labels: np.ndarray
    prior_pos: np.ndarray
    freq_pos: np.ndarray
    freq_neg: np.ndarray
    # Each training row's k nearest training rows, itself included, from the
    # search fit_mlknn counts with: posterior_scores reads it for the training
    # rows in place of a second search. It lives until the ensemble member's
    # self-prediction; members of a trained or loaded VpcmeModel hold None.
    train_neighbors: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        k = checked_int("k_neighbors", self.k_neighbors, 1)
        object.__setattr__(self, "k_neighbors", k)
        object.__setattr__(self, "smoothing", checked_smoothing(self.smoothing, k))
        points = frozen_array("train_points", self.train_points, np.float64, (None, None))
        n = points.shape[0]
        labels = frozen_array("train_labels", self.train_labels, bool, (n, None))
        r = labels.shape[1]
        prior = frozen_array("prior_pos", self.prior_pos, np.float64, (r,))
        fpos = frozen_array("freq_pos", self.freq_pos, np.int64, (r, k + 1), bound=math.inf)
        fneg = frozen_array("freq_neg", self.freq_neg, np.int64, (r, k + 1), bound=math.inf)
        pos_totals = labels.sum(axis=0)
        if not np.array_equal(fpos.sum(axis=1), pos_totals):
            raise ValidationError("freq_pos rows must sum to the per-label positive counts")
        if not np.array_equal(fneg.sum(axis=1), n - pos_totals):
            raise ValidationError("freq_neg rows must sum to the per-label negative counts")
        if not np.all((prior > 0.0) & (prior <= 1.0)):
            raise ValidationError("smoothed priors must lie in (0, 1]")
        for arr, name in ((points, "train_points"), (labels, "train_labels"),
                          (prior, "prior_pos"), (fpos, "freq_pos"), (fneg, "freq_neg")):
            object.__setattr__(self, name, arr)
        if self.train_neighbors is not None:
            table = frozen_array("train_neighbors", self.train_neighbors, np.int64, (n, k), bound=n)
            object.__setattr__(self, "train_neighbors", table)

    @property
    def dim(self) -> int:
        return self.train_points.shape[1]

    @property
    def label_count(self) -> int:
        return self.train_labels.shape[1]


def checked_smoothing(smoothing, k_neighbors: int) -> float:
    """``smoothing`` as a ``float``, else ``ConfigError``: a finite real, at least
    ``SMALLEST_SMOOTHING`` (a subnormal one can underflow both likelihoods
    to 0 and a posterior to 0 / 0), and small enough that ``smoothing *
    (k_neighbors + 1)``, the largest denominator MLKNN forms, is finite too."""
    s = checked_float("smoothing", smoothing)
    if not (math.isfinite(s) and s > 0.0):
        raise ConfigError(f"smoothing must be finite and positive, got {s}")
    if s < SMALLEST_SMOOTHING:
        raise ConfigError(f"smoothing must be at least {SMALLEST_SMOOTHING}, the smallest normal float, got {s}")
    if not math.isfinite(s * (k_neighbors + 1)):
        raise ConfigError(f"smoothing * (k_neighbors + 1) must be finite, got smoothing={s} "
                          f"with k_neighbors={k_neighbors}")
    return s


def fit_mlknn(points, labels, k_neighbors: int = DEFAULT_K,
              smoothing: float = DEFAULT_SMOOTHING) -> MlknnModel:
    """Count neighbor statistics and smoothed priors over the training set.

    ``points`` must be finite, one row per ``labels`` row; the smoothing
    follows :func:`checked_smoothing`. Neighbors use Euclidean distance with
    the instance itself excluded; distance ties go to the lower training
    index. The model keeps each row's neighbors, itself included, as ``train_neighbors``.
    """
    points = checked_array("points", points, np.float64, (None, None), finite=True)
    n = points.shape[0]
    labels = checked_array("labels", labels, bool, (n, None))
    r = labels.shape[1]
    k = checked_int("k_neighbors", k_neighbors, 1)
    s = checked_smoothing(smoothing, k)
    if k >= n:
        raise ConfigError(f"k_neighbors={k} must be smaller than the instance count {n}")

    # One search of the training rows as plain queries: its first k columns
    # are each row's list with itself included (the row lies at distance 0,
    # after any lower-index exact twin); dropping row i where it appears and
    # keeping k gives the self-excluded list the counts are taken from.
    found = _kernels.knn(points, points, k + 1)
    rows = np.arange(n)[:, None]
    skip = np.cumsum(found[:, :k] == rows, axis=1)
    neighbors = np.take_along_axis(found, np.arange(k) + skip, axis=1)
    counts = labels[neighbors].sum(axis=1)  # (n, r) positives among each row's neighbors
    prior_pos = (s + labels.sum(axis=0)) / (2.0 * s + n)
    cells = np.arange(r) * (k + 1) + counts  # (label, count) cell of each row and label
    freq_pos = np.bincount(cells[labels], minlength=r * (k + 1)).reshape(r, k + 1)
    freq_neg = np.bincount(cells[~labels], minlength=r * (k + 1)).reshape(r, k + 1)
    return MlknnModel(
        k_neighbors=k,
        smoothing=s,
        train_points=points,
        train_labels=labels,
        prior_pos=prior_pos,
        freq_pos=freq_pos,
        freq_neg=freq_neg,
        train_neighbors=found[:, :k],
    )


def posterior_scores(model: MlknnModel, query) -> np.ndarray:
    """Posterior probability of each label for each row of a finite query
    matrix: one (labels x (k + 1)) posterior table per call, defined for priors
    in (0, 1], read at each row's neighbor count of each label."""
    q = checked_array("query", query, np.float64, (None, model.dim), finite=True)
    if model.train_neighbors is not None and np.array_equal(q, model.train_points):
        neighbors = model.train_neighbors  # the training rows: reuse the fit's search
    else:
        neighbors = _kernels.knn(model.train_points, q, model.k_neighbors)
    s, k, prior = model.smoothing, model.k_neighbors, model.prior_pos[:, None]
    like_pos = (s + model.freq_pos) / (s * (k + 1) + model.freq_pos.sum(axis=1, keepdims=True))
    like_neg = (s + model.freq_neg) / (s * (k + 1) + model.freq_neg.sum(axis=1, keepdims=True))
    num = prior * like_pos
    table = num / (num + (1.0 - prior) * like_neg)  # (labels, k + 1)
    return table[np.arange(model.label_count), model.train_labels[neighbors].sum(axis=1)]
