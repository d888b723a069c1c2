"""Multi-label dataset container, CSV IO, statistics, and fold splitting.

On-disk format: UTF-8 CSV, no header, '.' decimal separator, one instance
per line. The trailing ``label_count`` columns are 0/1 label indicators,
everything before them is a numeric feature.
"""

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CsvFormatError, ValidationError


@dataclass(frozen=True)
class MultiLabelDataset:
    """Feature matrix plus boolean label matrix, immutable after creation."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        features = np.ascontiguousarray(self.features, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=bool)
        if features.ndim != 2 or labels.ndim != 2:
            raise ValidationError("features and labels must be 2-D matrices")
        if features.shape[0] != labels.shape[0]:
            raise ValidationError(
                f"row count mismatch: {features.shape[0]} feature rows vs "
                f"{labels.shape[0]} label rows"
            )
        if features.shape[0] < 1:
            raise ValidationError("dataset needs at least one instance")
        if features.shape[1] < 1:
            raise ValidationError("dataset needs at least one feature column")
        if labels.shape[1] < 2:
            raise ValidationError("dataset needs at least two label columns")
        if not np.all(np.isfinite(features)):
            raise ValidationError("feature matrix contains non-finite values")
        features.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def instance_count(self) -> int:
        return self.features.shape[0]

    @property
    def feature_count(self) -> int:
        return self.features.shape[1]

    @property
    def label_count(self) -> int:
        return self.labels.shape[1]

    def subset(self, indices) -> "MultiLabelDataset":
        """New dataset restricted to the given instance indices, in order."""
        idx = np.asarray(indices, dtype=np.int64)
        return MultiLabelDataset(self.features[idx], self.labels[idx])


@dataclass(frozen=True)
class DatasetStats:
    instances: int
    features: int
    labels: int
    distinct: int
    cardinality: float
    density: float


@dataclass(frozen=True)
class FoldAssignment:
    """Round-robin deal of shuffled instances into test folds."""

    fold_of_instance: np.ndarray

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of_instance == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of_instance != fold)


def load_features(path, label_count: int = 0):
    """Parse a dense CSV into (features, labels).

    The trailing ``label_count`` columns must be 0/1 and come back as a
    boolean matrix (with no columns when ``label_count`` is 0); the columns
    before them must be finite numbers. A malformed file raises
    ``CsvFormatError`` naming its first bad line.
    """
    if label_count < 0:
        raise ConfigError("label_count must be a non-negative integer")
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    lines = text.split("\n")
    while lines and lines[-1].strip() == "":
        lines.pop()
    if not lines:
        raise CsvFormatError(f"{path}: file contains no data rows")
    width = next(line for line in lines if line.strip()).count(",") + 1
    if label_count >= width:
        raise CsvFormatError(
            f"{path}: label_count={label_count} leaves no feature columns "
            f"(rows have {width} fields)"
        )

    feature_count = width - label_count
    # np.loadtxt reads the same float bits as float() but is stricter (it
    # rejects "1_5") and skips blank lines; it reads a StringIO faster than
    # a list of lines. The line loop takes over when loadtxt fails, drops a
    # line, or a row fails a check: it parses what float() parses and
    # raises naming the first bad line.
    try:
        values = np.loadtxt(io.StringIO(text), delimiter=",", dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        values = None
    if values is None or values.shape != (len(lines), width) or not _rows_valid(values, feature_count):
        values = _parse_lines(path, lines, width, feature_count)
    return np.ascontiguousarray(values[:, :feature_count]), values[:, feature_count:] == 1.0


def _rows_valid(values, feature_count):
    labels = values[:, feature_count:]
    return bool(((labels == 0.0) | (labels == 1.0)).all() and np.isfinite(values[:, :feature_count]).all())


def _parse_lines(path, lines, width, feature_count):
    rows = []
    for lineno, line in enumerate(lines, start=1):
        fields = line.split(",")
        if len(fields) != width:
            raise CsvFormatError(f"{path}: line {lineno} has {len(fields)} fields, expected {width}")
        try:
            row = list(map(float, fields))
        except ValueError:
            raise CsvFormatError(f"{path}: line {lineno} has a non-numeric field") from None
        for v in row[feature_count:]:
            if v != 0.0 and v != 1.0:
                raise CsvFormatError(f"{path}: line {lineno} has label value {v!r} outside {{0, 1}}")
        if not all(map(math.isfinite, row[:feature_count])):
            raise CsvFormatError(f"{path}: line {lineno} has a non-finite feature")
        rows.append(row)
    return np.array(rows, dtype=np.float64)


def load_csv(path, label_count: int) -> MultiLabelDataset:
    """Parse a dense CSV whose trailing ``label_count`` columns are 0/1 labels."""
    if label_count < 1:
        raise ConfigError("label_count must be a positive integer")
    return MultiLabelDataset(*load_features(path, label_count))


def format_rows(values, flags) -> str:
    """CSV lines of full-precision float cells followed by 1/0 flag cells."""
    flag_cells = np.where(flags, "1", "0").tolist()
    return "".join(
        ",".join([repr(v) for v in row] + cells) + "\n"
        for row, cells in zip(np.asarray(values, dtype=np.float64).tolist(), flag_cells)
    )


def save_csv(ds: MultiLabelDataset, path) -> None:
    """Write a dataset in the load_csv format; floats keep full precision."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_rows(ds.features, ds.labels))


def compute_stats(ds: MultiLabelDataset) -> DatasetStats:
    """Instance/feature/label counts plus distinct, cardinality, density."""
    n = ds.instance_count
    r = ds.label_count
    distinct = len({row.tobytes() for row in ds.labels})
    cardinality = float(ds.labels.sum()) / n
    return DatasetStats(
        instances=n,
        features=ds.feature_count,
        labels=r,
        distinct=distinct,
        cardinality=cardinality,
        density=cardinality / r,
    )


def kfold_split(n: int, folds: int, seed: int) -> FoldAssignment:
    """Deterministic shuffle-then-deal split; fold sizes differ by at most 1."""
    if folds < 2:
        raise ConfigError(f"folds must be at least 2, got {folds}")
    if folds > n:
        raise ConfigError(f"cannot split {n} instances into {folds} folds")
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(n)
    fold_of_instance = np.empty(n, dtype=np.int64)
    fold_of_instance[perm] = np.arange(n) % folds
    fold_of_instance.setflags(write=False)
    return FoldAssignment(fold_of_instance=fold_of_instance)


def synthetic_dataset(
    n: int,
    features: int,
    labels: int,
    seed: int,
    label_noise: float = 0.0,
    label_correlation: float = 0.5,
) -> MultiLabelDataset:
    """Gaussian features with labels set by the sign of linear feature scores.

    Each label direction blends a shared component (weight
    ``label_correlation``) with its own random direction, so labels are
    correlated but distinct. ``label_noise`` flips each label entry
    independently with that probability.
    """
    if n < 1 or features < 1 or labels < 2:
        raise ConfigError("synthetic_dataset needs n >= 1, features >= 1, labels >= 2")
    if not 0.0 <= label_noise <= 1.0 or not 0.0 <= label_correlation <= 1.0:
        raise ConfigError("label_noise and label_correlation must lie in [0, 1]")
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.normal(size=(n, features))
    shared = rng.normal(size=features)
    own = rng.normal(size=(features, labels))
    directions = label_correlation * shared[:, None] + (1.0 - label_correlation) * own
    y = (x @ directions) > 0.0
    if label_noise > 0.0:
        flips = rng.random(size=y.shape) < label_noise
        y = y ^ flips
    return MultiLabelDataset(x, y)
