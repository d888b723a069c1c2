"""Weighted sampling of must-link / cannot-link instance pairs.

A pair's label-overlap ratio is the size of the label-set intersection
divided by the mean label-set size. Ratios at or above the threshold theta
route the pair to the must-link list, everything below goes to the
cannot-link list. Endpoints are drawn with probability proportional to the
per-instance weights, which is how the boosting loop steers later members
toward the samples it got wrong.
"""

from dataclasses import dataclass

import numpy as np

from .dataset import MultiLabelDataset
from .errors import ConfigError, ValidationError

DEFAULT_ATTEMPT_FACTOR = 50
# First sampling step covers this many times the combined targets in
# attempts; each later step doubles.
ROUTE_FIRST_STEP = 2


@dataclass(frozen=True)
class ConstraintConfig:
    theta: float
    target_must: int
    target_cannot: int
    max_attempts: int = None

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ConfigError(f"theta must lie in [0, 1], got {self.theta}")
        if self.target_must < 0 or self.target_cannot < 0:
            raise ConfigError("constraint targets must be non-negative")
        if self.max_attempts is None:
            object.__setattr__(
                self,
                "max_attempts",
                DEFAULT_ATTEMPT_FACTOR * (self.target_must + self.target_cannot),
            )
        elif self.max_attempts < self.target_must + self.target_cannot:
            raise ConfigError("max_attempts must cover at least target_must + target_cannot draws")


@dataclass(frozen=True)
class PairConstraintSets:
    """Ordered (i, j) index pairs; duplicates across draws are allowed."""

    must: np.ndarray
    cannot: np.ndarray

    def __post_init__(self):
        must = np.asarray(self.must, dtype=np.int64).reshape(-1, 2)
        cannot = np.asarray(self.cannot, dtype=np.int64).reshape(-1, 2)
        if must.size and np.any(must[:, 0] == must[:, 1]):
            raise ValidationError("must-link pairs may not pair an instance with itself")
        if cannot.size and np.any(cannot[:, 0] == cannot[:, 1]):
            raise ValidationError("cannot-link pairs may not pair an instance with itself")
        must.setflags(write=False)
        cannot.setflags(write=False)
        object.__setattr__(self, "must", must)
        object.__setattr__(self, "cannot", cannot)

    @property
    def n_must(self) -> int:
        return self.must.shape[0]

    @property
    def n_cannot(self) -> int:
        return self.cannot.shape[0]


def label_overlap_ratio(labels_i, labels_j):
    """Intersection size over mean set size; 1.0 when both sets are empty.

    Two label vectors give a float; two (m, r) label matrices give the m
    ratios of their paired rows.
    """
    li = np.asarray(labels_i, dtype=bool)
    lj = np.asarray(labels_j, dtype=bool)
    if li.shape != lj.shape:
        raise ValidationError("label vectors must come from the same label universe")
    inter = np.count_nonzero(li & lj, axis=-1)
    denom = (np.count_nonzero(li, axis=-1) + np.count_nonzero(lj, axis=-1)) / 2.0
    ratio = np.where(denom == 0.0, 1.0, inter / np.where(denom == 0.0, 1.0, denom))
    return float(ratio) if li.ndim == 1 else ratio


def weighted_indices(weights, uniforms) -> np.ndarray:
    """Inverse-CDF lookup mapping uniforms in [0, 1) to weighted indices."""
    cumw = np.cumsum(np.asarray(weights, dtype=np.float64))
    idx = np.searchsorted(cumw, np.asarray(uniforms, dtype=np.float64), side="right")
    return np.minimum(idx, len(cumw) - 1)


def _check_weights(weights, n):
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise ValidationError(f"weights must have one entry per instance ({n}), got shape {w.shape}")
    if np.any(w < 0.0):
        raise ValidationError("weights must be non-negative")
    if abs(float(w.sum()) - 1.0) > 1e-9:
        raise ValidationError(f"weights must sum to 1 within 1e-9, got {w.sum()!r}")
    return w


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
    as zero scatter.
    """
    n = ds.instance_count
    if n < 2:
        raise ConfigError("constraint sampling needs at least 2 instances")
    w = _check_weights(weights, n)
    must = [np.empty((0, 2), np.int64)]
    cannot = [np.empty((0, 2), np.int64)]
    need_must, need_cannot = cfg.target_must, cfg.target_cannot
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
