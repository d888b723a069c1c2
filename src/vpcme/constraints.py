"""Weighted sampling of must-link / cannot-link instance pairs.

A pair's label-overlap ratio is the size of the label-set intersection
divided by the mean label-set size. Ratios at or above the threshold theta
route the pair to the must-link list, everything below goes to the
cannot-link list. Endpoints are drawn with probability proportional to the
per-instance weights, which is how the boosting loop steers later members
toward the samples it got wrong.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dataset import MultiLabelDataset
from .errors import ConfigError, ValidationError, checked_array, checked_float, checked_int, frozen_array

DEFAULT_ATTEMPT_FACTOR = 50
ROUTE_FIRST_STEP = 2  # first step: this many attempts per target; each later step doubles
# weighted_indices' lookup table has about this many buckets per weight, and
# at most 2^LOOKUP_MAX_BITS + 1 entries (512 KB).
LOOKUP_BUCKETS_PER_WEIGHT = 8
LOOKUP_MAX_BITS = 16


@dataclass(frozen=True)
class ConstraintConfig:
    """Sampling settings: the overlap threshold ``theta``, whose [0, 1] rule
    this type owns, and the list targets ``target_must`` and
    ``target_cannot``, each at least 0. The attempt budget is derived, not
    set: ``max_attempts`` is ``DEFAULT_ATTEMPT_FACTOR`` (50) times their sum."""

    theta: float
    target_must: int
    target_cannot: int

    def __post_init__(self):
        object.__setattr__(self, "theta", checked_float("theta", self.theta))
        if not 0.0 <= self.theta <= 1.0:
            raise ConfigError(f"theta must lie in [0, 1], got {self.theta}")
        for name in ("target_must", "target_cannot"):
            object.__setattr__(self, name, checked_int(name, getattr(self, name), 0))

    @property
    def max_attempts(self) -> int:
        return DEFAULT_ATTEMPT_FACTOR * (self.target_must + self.target_cannot)


@dataclass(frozen=True, eq=False)
class PairConstraintSets:
    """Ordered (i, j) pairs of non-negative indices; duplicates across draws
    are allowed. The dataset they index bounds them from above, in
    :func:`~vpcme.projection.scatter_matrices`."""

    must: np.ndarray
    cannot: np.ndarray

    def __post_init__(self):
        for field, name in (("must", "must-link pairs"), ("cannot", "cannot-link pairs")):
            pairs = frozen_array(name, getattr(self, field), np.int64, (None, 2), bound=math.inf)
            if np.any(pairs[:, 0] == pairs[:, 1]):
                raise ValidationError(f"{name} may not pair an instance with itself")
            object.__setattr__(self, field, pairs)

    @property
    def n_must(self) -> int:
        return self.must.shape[0]

    @property
    def n_cannot(self) -> int:
        return self.cannot.shape[0]


def label_overlap_ratio(labels_i, labels_j) -> np.ndarray:
    """The m ratios of the paired rows of two (m, r) label matrices:
    intersection size over mean set size, 1.0 where both sets are empty."""
    li = checked_array("labels_i", labels_i, bool, (None, None))
    lj = checked_array("labels_j", labels_j, bool, li.shape)
    inter = np.count_nonzero(li & lj, axis=-1)
    denom = (np.count_nonzero(li, axis=-1) + np.count_nonzero(lj, axis=-1)) / 2.0
    return np.where(denom == 0.0, 1.0, inter / np.where(denom == 0.0, 1.0, denom))


def weighted_indices(weights, uniforms) -> np.ndarray:
    """Inverse-CDF lookup mapping uniforms in [0, 1) to weighted indices:
    ``min(searchsorted(cumsum(weights), u, side="right"), n - 1)``.

    The search is made first at the g + 1 points b / g, with g a power of
    two, so that b = floor(u * g) is exact. A uniform whose bucket
    [b / g, (b + 1) / g) holds no cumulative weight takes the bucket's
    value; only the others are searched, at most about one in
    ``LOOKUP_BUCKETS_PER_WEIGHT``.
    """
    cumw = np.cumsum(np.asarray(weights, dtype=np.float64))
    u = np.asarray(uniforms, dtype=np.float64)
    n = len(cumw)
    g = 1 << min((LOOKUP_BUCKETS_PER_WEIGHT * n - 1).bit_length(), LOOKUP_MAX_BITS)
    table = np.searchsorted(cumw, np.arange(g + 1) / g, side="right")
    b = (u * g).astype(np.intp)
    idx = table[b]
    unsure = idx != table[b + 1]
    idx[unsure] = np.searchsorted(cumw, u[unsure], side="right")
    return np.minimum(idx, n - 1)


def sample_constraints(
    ds: MultiLabelDataset,
    weights,
    cfg: ConstraintConfig,
    rng: np.random.Generator,
) -> PairConstraintSets:
    """Draw weighted pairs until both lists hit their targets or attempts run out.

    Each attempt maps two uniforms to endpoints with :func:`weighted_indices`
    and routes the pair by its label-overlap ratio; an attempt with i == j
    is rejected, and a pair whose list is already full is discarded.
    Attempts are drawn in steps, the first ``ROUTE_FIRST_STEP`` times the
    combined targets and each later one twice the last, until both lists
    are full, so the pairs are those of routing one attempt at a time.
    Deterministic for a fixed generator state, which ends after the last
    step drawn. A list still short when ``cfg.max_attempts`` run out is
    returned short, possibly empty; the projection step treats empty lists
    as zero scatter. Every overlap ratio is at least 0, so at theta 0 no
    pair can be a cannot-link and none is drawn for that list.
    """
    n = ds.instance_count
    if n < 2:
        raise ConfigError("constraint sampling needs at least 2 instances")
    w = checked_array("weights", weights, np.float64, (n,), finite=True)
    if np.any(w < 0.0):
        raise ValidationError("weights must be non-negative")
    if abs(float(w.sum()) - 1.0) > 1e-9:
        raise ValidationError(f"weights must sum to 1 within 1e-9, got {w.sum()!r}")
    must = [np.empty((0, 2), np.int64)]
    cannot = [np.empty((0, 2), np.int64)]
    need_must, need_cannot = cfg.target_must, cfg.target_cannot if cfg.theta > 0.0 else 0
    start = 0
    step = max(1, ROUTE_FIRST_STEP * (need_must + need_cannot))
    while start < cfg.max_attempts and (need_must or need_cannot):
        stop = min(start + step, cfg.max_attempts)
        pairs = weighted_indices(w, rng.random(2 * (stop - start))).reshape(-1, 2)
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        to_must = label_overlap_ratio(ds.labels[pairs[:, 0]], ds.labels[pairs[:, 1]]) >= cfg.theta
        must.append(pairs[to_must][:need_must])
        cannot.append(pairs[~to_must][:need_cannot])
        need_must -= must[-1].shape[0]
        need_cannot -= cannot[-1].shape[0]
        start = stop
        step *= 2
    return PairConstraintSets(must=np.concatenate(must), cannot=np.concatenate(cannot))
