"""Example-based multi-label evaluation metrics.

All functions take boolean matrices: one row per instance, one column per
label. ``ranks`` matrices hold each label's rank per instance, 1 = most
relevant, always a permutation of 1..M per row. Instances whose true label
set makes a metric undefined are skipped and counted; callers that need the
counts use :func:`evaluate_all`.
"""

from dataclasses import dataclass

import numpy as np

from .constraints import label_overlap_ratio
from .errors import UndefinedMetricError, ValidationError

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


def _as_bool_matrix(x, name):
    m = np.asarray(x, dtype=bool)
    if m.ndim != 2:
        raise ValidationError(f"{name} must be a 2-D boolean matrix")
    if m.shape[0] == 0:
        raise UndefinedMetricError(f"{name} has no instances; metric undefined")
    return m


def _as_rank_matrix(x):
    ranks = np.asarray(x, dtype=np.int64)
    if ranks.ndim != 2:
        raise ValidationError("ranks must be a 2-D integer matrix")
    if ranks.shape[0] == 0:
        raise UndefinedMetricError("ranks has no instances; metric undefined")
    m = ranks.shape[1]
    expected = np.arange(1, m + 1)
    if not np.all(np.sort(ranks, axis=1) == expected):
        raise ValidationError("each rank row must be a permutation of 1..M")
    return ranks


def rank_from_scores(scores) -> np.ndarray:
    """Ranks 1..M from scores: higher score ranks better, ties to lower index."""
    arr = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValidationError("scores must be finite to be ranked")
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise ValidationError("scores must be a vector or matrix with at least one label")
    order = np.argsort(-arr, axis=1, kind="stable")
    ranks = np.empty_like(order)
    m = arr.shape[1]
    rows = np.arange(arr.shape[0])[:, None]
    ranks[rows, order] = np.arange(1, m + 1)
    return ranks[0] if single else ranks


def hamming_loss(truths, bipartitions) -> float:
    """Mean symmetric-difference size divided by the label count."""
    y = _as_bool_matrix(truths, "truths")
    z = _as_bool_matrix(bipartitions, "bipartitions")
    if y.shape != z.shape:
        raise ValidationError("truths and bipartitions must have the same shape")
    return float((y ^ z).sum()) / (y.shape[0] * y.shape[1])


def _rank_order_masks(y, ranks):
    """Relevance mask rearranged into rank order (best rank first)."""
    order = np.argsort(ranks, axis=1, kind="stable")
    rows = np.arange(y.shape[0])[:, None]
    return y[rows, order]


# Each skip rule lives in one row mask, read by its metric and by evaluate_all.
def _ranking_kept(y):
    """Rows whose label set is neither empty nor full."""
    sizes = y.sum(axis=1)
    return (sizes > 0) & (sizes < y.shape[1])


def _nonempty(y):
    """Rows with at least one true label."""
    return y.any(axis=1)


def _recall_kept(y, z):
    """Rows with a true label, or with no true and no predicted label."""
    return _nonempty(y) | ~z.any(axis=1)


def ranking_loss(truths, ranks) -> float:
    """Fraction of (relevant, irrelevant) pairs ranked in the wrong order.

    Instances whose label set is empty or full are skipped.
    """
    y = _as_bool_matrix(truths, "truths")
    r = _as_rank_matrix(ranks)
    m = y.shape[1]
    sizes = y.sum(axis=1)
    keep = _ranking_kept(y)
    if not np.any(keep):
        raise UndefinedMetricError("ranking loss undefined: every label set is empty or full")
    rel_in_order = _rank_order_masks(y[keep], r[keep])
    irr_before = np.cumsum(~rel_in_order, axis=1)
    violations = (irr_before * rel_in_order).sum(axis=1)
    kept_sizes = sizes[keep]
    return float(np.mean(violations / (kept_sizes * (m - kept_sizes))))


def one_error(truths, ranks) -> float:
    """Fraction of instances whose top-ranked label is not relevant."""
    y = _as_bool_matrix(truths, "truths")
    r = _as_rank_matrix(ranks)
    keep = _nonempty(y)
    if not np.any(keep):
        raise UndefinedMetricError("one-error undefined: every label set is empty")
    top_hit = (y[keep] & (r[keep] == 1)).any(axis=1)
    return float(np.mean(~top_hit))


def coverage(truths, ranks) -> float:
    """Mean depth down the ranking needed to cover all relevant labels."""
    y = _as_bool_matrix(truths, "truths")
    r = _as_rank_matrix(ranks)
    deepest = (r * y).max(axis=1)  # 0 for empty label sets
    return float(np.mean(np.where(y.any(axis=1), deepest - 1, 0)))


def average_precision(truths, ranks) -> float:
    """Mean precision at each relevant label's rank; empty sets skipped."""
    y = _as_bool_matrix(truths, "truths")
    r = _as_rank_matrix(ranks)
    keep = _nonempty(y)
    if not np.any(keep):
        raise UndefinedMetricError("average precision undefined: every label set is empty")
    rel_in_order = _rank_order_masks(y[keep], r[keep])
    positions = np.arange(1, y.shape[1] + 1)
    prec = np.cumsum(rel_in_order, axis=1) / positions
    per_instance = (prec * rel_in_order).sum(axis=1) / rel_in_order.sum(axis=1)
    return float(np.mean(per_instance))


def f1_metric(truths, bipartitions) -> float:
    """Per-instance F1, the truth/prediction overlap ratio (1 for two empty sets), averaged."""
    y = _as_bool_matrix(truths, "truths")
    z = _as_bool_matrix(bipartitions, "bipartitions")
    if y.shape != z.shape:
        raise ValidationError("truths and bipartitions must have the same shape")
    return float(np.mean(label_overlap_ratio(y, z)))


def recall(truths, bipartitions) -> float:
    """Per-instance recall averaged over instances.

    Empty truth with empty prediction counts as 1; empty truth with a
    non-empty prediction is skipped.
    """
    y = _as_bool_matrix(truths, "truths")
    z = _as_bool_matrix(bipartitions, "bipartitions")
    if y.shape != z.shape:
        raise ValidationError("truths and bipartitions must have the same shape")
    keep = _recall_kept(y, z)
    if not np.any(keep):
        raise UndefinedMetricError("recall undefined: every instance was skipped")
    inter = (y[keep] & z[keep]).sum(axis=1)
    yk = y[keep].sum(axis=1)
    vals = np.where(yk == 0, 1.0, inter / np.where(yk == 0, 1, yk))
    return float(np.mean(vals))


def evaluate_all(truths, bipartitions, scores) -> dict[str, MetricValue]:
    """All seven metrics with skip counts; ranks derive from the scores."""
    ranks = rank_from_scores(scores)
    values = {
        "hamming_loss": hamming_loss(truths, bipartitions),
        "ranking_loss": ranking_loss(truths, ranks),
        "one_error": one_error(truths, ranks),
        "coverage": coverage(truths, ranks),
        "average_precision": average_precision(truths, ranks),
        "f1": f1_metric(truths, bipartitions),
        "recall": recall(truths, bipartitions),
    }
    y = _as_bool_matrix(truths, "truths")
    kept = {
        "ranking_loss": _ranking_kept(y),
        "one_error": _nonempty(y),
        "average_precision": _nonempty(y),
        "recall": _recall_kept(y, _as_bool_matrix(bipartitions, "bipartitions")),
    }
    return {
        name: MetricValue(values[name], int(np.count_nonzero(~kept[name])) if name in kept else 0)
        for name in METRIC_NAMES
    }
