"""Example-based multi-label evaluation metrics.

All functions take boolean matrices: one row per instance, one column per
label. ``ranks`` matrices hold each label's rank per instance, 1 = most
relevant, always a permutation of 1..M per row. Instances whose true label
set makes a metric undefined are skipped and counted; callers that need the
counts use :func:`evaluate_all`. Each metric's value and skip count come from
one private function of checked inputs, which its public function and
:func:`evaluate_all` both call: the truths and bipartitions for the label
metrics, the truths in rank order for the ranking metrics. Every metric, and
:func:`rank_from_scores`, rejects a matrix with no label columns.
"""

from dataclasses import dataclass

import numpy as np

from .constraints import label_overlap_ratio
from .errors import UndefinedMetricError, ValidationError, checked_array

METRIC_NAMES = (
    "hamming_loss",
    "ranking_loss",
    "one_error",
    "coverage",
    "average_precision",
    "f1",
    "recall",
)

HIGHER_IS_BETTER = frozenset({"average_precision", "f1", "recall"})


@dataclass(frozen=True)
class MetricValue:
    value: float
    skipped: int


def _with_labels(m, name):
    """The checked matrix ``m``, which must have at least one label column."""
    if m.shape[1] < 1:
        raise ValidationError(f"{name} must be a matrix with at least one label")
    return m


def _as_truths(truths):
    """The checked truths: at least one instance and at least one label."""
    y = checked_array("truths", truths, bool, (None, None))
    if y.shape[0] == 0:
        raise UndefinedMetricError("truths has no instances; metric undefined")
    return _with_labels(y, "truths")


def _as_labels(truths, bipartitions):
    """The checked truths and a checked bipartition matrix of their shape."""
    y = _as_truths(truths)
    return y, checked_array("bipartitions", bipartitions, bool, y.shape)


def _rank_order(scores, shape=(None, None)):
    """Each row's label indices, best first: higher score first, ties to the lower index."""
    arr = _with_labels(checked_array("scores", scores, np.float64, shape, finite=True), "scores")
    return np.argsort(-arr, axis=1, kind="stable")


def _in_rank_order(truths, ranks):
    """The checked truths, each row rearranged into rank order (best rank
    first) by ``ranks``: a matrix of their shape whose rows permute 1..M."""
    y = _as_truths(truths)
    r = checked_array("ranks", ranks, np.int64, y.shape)
    order = np.argsort(r, axis=1, kind="stable")
    if not np.all(np.take_along_axis(r, order, axis=1) == np.arange(1, y.shape[1] + 1)):
        raise ValidationError("each rank row must be a permutation of 1..M")
    return np.take_along_axis(y, order, axis=1)


def rank_from_scores(scores) -> np.ndarray:
    """Rank matrix from a finite score matrix: in each row, higher score
    ranks better, ties to the lower index."""
    order = _rank_order(scores)
    ranks = np.empty_like(order)
    rows = np.arange(order.shape[0])[:, None]
    ranks[rows, order] = np.arange(1, order.shape[1] + 1)
    return ranks


def _kept_mean(values, keep) -> MetricValue:
    """The mean of the kept rows' ``values``, and the count of rows not kept."""
    return MetricValue(float(np.mean(values)), int(np.count_nonzero(~keep)))


def _hamming_loss(y, z) -> MetricValue:
    return MetricValue(float((y ^ z).sum()) / (y.shape[0] * y.shape[1]), 0)


def _ranking_loss(ordered) -> MetricValue:
    m = ordered.shape[1]
    sizes = ordered.sum(axis=1)
    keep = (sizes > 0) & (sizes < m)
    if not np.any(keep):
        raise UndefinedMetricError("ranking loss undefined: every label set is empty or full")
    rel_in_order = ordered[keep]
    irr_before = np.cumsum(~rel_in_order, axis=1)
    violations = (irr_before * rel_in_order).sum(axis=1)
    kept_sizes = sizes[keep]
    return _kept_mean(violations / (kept_sizes * (m - kept_sizes)), keep)


def _one_error(ordered) -> MetricValue:
    keep = ordered.any(axis=1)
    if not np.any(keep):
        raise UndefinedMetricError("one-error undefined: every label set is empty")
    top_hit = ordered[keep, 0]
    return _kept_mean(~top_hit, keep)


def _coverage(ordered) -> MetricValue:
    deepest = (ordered * np.arange(1, ordered.shape[1] + 1)).max(axis=1)  # 0 for empty label sets
    return MetricValue(float(np.mean(np.where(ordered.any(axis=1), deepest - 1, 0))), 0)


def _average_precision(ordered) -> MetricValue:
    keep = ordered.any(axis=1)
    if not np.any(keep):
        raise UndefinedMetricError("average precision undefined: every label set is empty")
    rel_in_order = ordered[keep]
    positions = np.arange(1, ordered.shape[1] + 1)
    prec = np.cumsum(rel_in_order, axis=1) / positions
    per_instance = (prec * rel_in_order).sum(axis=1) / rel_in_order.sum(axis=1)
    return _kept_mean(per_instance, keep)


def _f1(y, z) -> MetricValue:
    return MetricValue(float(np.mean(label_overlap_ratio(y, z))), 0)


def _recall(y, z) -> MetricValue:
    keep = y.any(axis=1) | ~z.any(axis=1)
    if not np.any(keep):
        raise UndefinedMetricError("recall undefined: every instance was skipped")
    inter = (y[keep] & z[keep]).sum(axis=1)
    yk = y[keep].sum(axis=1)
    vals = np.where(yk == 0, 1.0, inter / np.where(yk == 0, 1, yk))
    return _kept_mean(vals, keep)


def hamming_loss(truths, bipartitions) -> float:
    """Mean symmetric-difference size divided by the label count."""
    return _hamming_loss(*_as_labels(truths, bipartitions)).value


def ranking_loss(truths, ranks) -> float:
    """Fraction of (relevant, irrelevant) pairs ranked in the wrong order.

    Instances whose label set is empty or full are skipped.
    """
    return _ranking_loss(_in_rank_order(truths, ranks)).value


def one_error(truths, ranks) -> float:
    """Fraction of instances whose top-ranked label is not relevant; empty sets skipped."""
    return _one_error(_in_rank_order(truths, ranks)).value


def coverage(truths, ranks) -> float:
    """Mean depth down the ranking needed to cover all relevant labels."""
    return _coverage(_in_rank_order(truths, ranks)).value


def average_precision(truths, ranks) -> float:
    """Mean precision at each relevant label's rank; empty sets skipped."""
    return _average_precision(_in_rank_order(truths, ranks)).value


def f1_metric(truths, bipartitions) -> float:
    """Per-instance F1, the truth/prediction overlap ratio (1 for two empty sets), averaged."""
    return _f1(*_as_labels(truths, bipartitions)).value


def recall(truths, bipartitions) -> float:
    """Per-instance recall averaged over instances.

    Empty truth with empty prediction counts as 1; empty truth with a
    non-empty prediction is skipped.
    """
    return _recall(*_as_labels(truths, bipartitions)).value


def evaluate_all(truths, bipartitions, scores) -> dict[str, MetricValue]:
    """All seven metrics with skip counts, from one check of each argument
    and one ranking of the scores, as :func:`rank_from_scores` ranks them."""
    y, z = _as_labels(truths, bipartitions)
    ordered = np.take_along_axis(y, _rank_order(scores, y.shape), axis=1)
    return {
        "hamming_loss": _hamming_loss(y, z),
        "ranking_loss": _ranking_loss(ordered),
        "one_error": _one_error(ordered),
        "coverage": _coverage(ordered),
        "average_precision": _average_precision(ordered),
        "f1": _f1(y, z),
        "recall": _recall(y, z),
    }
