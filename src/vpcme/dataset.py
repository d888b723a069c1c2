"""Multi-label dataset container, CSV IO, statistics, and fold splitting.

On-disk format: UTF-8 CSV, no header, '.' decimal separator, one instance
per line. The trailing ``label_count`` columns are 0/1 label indicators,
everything before them is a numeric feature.
"""

import contextlib
import io
import math
import os
import stat
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, CsvFormatError, ValidationError, checked_array, checked_float, checked_int,
                     frozen_array)


@dataclass(frozen=True, eq=False)
class MultiLabelDataset:
    """Feature matrix plus boolean label matrix, immutable after creation."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        features = frozen_array("features", self.features, np.float64, (None, None))
        labels = frozen_array("labels", self.labels, bool, (features.shape[0], None))
        if features.shape[0] < 1:
            raise ValidationError("dataset needs at least one instance")
        if features.shape[1] < 1:
            raise ValidationError("dataset needs at least one feature column")
        _check_label_columns(labels.shape[1])
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
        """New dataset restricted to the given instance indices, in order;
        each index lies in ``[0, instance_count)``."""
        idx = checked_array("indices", indices, np.int64, (None,), bound=self.instance_count)
        return MultiLabelDataset(self.features[idx], self.labels[idx])


def _check_label_columns(count: int) -> None:
    if count < 2:
        raise ValidationError("dataset needs at least two label columns")


@dataclass(frozen=True)
class DatasetStats:
    instances: int
    features: int
    labels: int
    distinct: int
    cardinality: float
    density: float


@dataclass(frozen=True, eq=False)
class FoldAssignment:
    """Round-robin deal of shuffled instances into test folds, by fold id."""

    fold_of_instance: np.ndarray

    def __post_init__(self):
        folds = frozen_array("fold_of_instance", self.fold_of_instance, np.int64, (None,), bound=math.inf)
        object.__setattr__(self, "fold_of_instance", folds)

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
    label_count = checked_int("label_count", label_count, 0)
    with open(path, "r", encoding="utf-8-sig") as handle:  # a leading byte-order mark is dropped
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
    # np.loadtxt reads float()'s bits but rejects "1_5" and skips blank lines;
    # the line loop reads the rest. Split lines would parse ~10% faster, but the
    # StringIO's large freed buffer lifts glibc's thresholds (see _kernels.KNN_BLOCK).
    syntax_error = None
    try:
        values = np.loadtxt(io.StringIO(text), delimiter=",", dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        values = None
    if values is None or values.shape != (len(lines), width):
        rows, syntax_error = _parse_lines(path, lines, width)
        values = np.reshape(rows, (-1, width))
    labels = values[:, feature_count:]
    bad_labels = (labels != 0.0) & (labels != 1.0)
    bad_rows = bad_labels.any(axis=1) | ~np.isfinite(values[:, :feature_count]).all(axis=1)
    if bad_rows.any():  # row i is line i + 1 on either path
        row = int(bad_rows.argmax())
        if bad_labels[row].any():
            value = labels[row, bad_labels[row]][0].item()
            raise CsvFormatError(f"{path}: line {row + 1} has label value {value!r} outside {{0, 1}}")
        raise CsvFormatError(f"{path}: line {row + 1} has a non-finite feature")
    if syntax_error:
        raise CsvFormatError(syntax_error)
    return np.ascontiguousarray(values[:, :feature_count]), labels == 1.0


def _parse_lines(path, lines, width):
    """float() rows of the lines before the first bad one, and its message (None if none is bad)."""
    rows = []
    for lineno, line in enumerate(lines, start=1):
        fields = line.split(",")
        if len(fields) != width:
            return rows, f"{path}: line {lineno} has {len(fields)} fields, expected {width}"
        try:
            rows.append(list(map(float, fields)))
        except ValueError:
            return rows, f"{path}: line {lineno} has a non-numeric field"
    return rows, None


def load_csv(path, label_count: int) -> MultiLabelDataset:
    """Parse a dense CSV whose trailing ``label_count`` columns are 0/1 labels."""
    _check_label_columns(checked_int("label_count", label_count, 0))  # before the file is read
    return MultiLabelDataset(*load_features(path, label_count))


def format_rows(values, flags) -> str:
    """CSV lines of full-precision float cells followed by 1/0 flag cells."""
    flag_cells = np.where(flags, "1", "0").tolist()
    return "".join(
        ",".join([repr(v) for v in row] + cells) + "\n"
        for row, cells in zip(np.asarray(values, dtype=np.float64).tolist(), flag_cells)
    )


@contextlib.contextmanager
def open_output(path, binary=False):
    """``open(path, "w")`` (UTF-8 text, or bytes) without the truncate to zero,
    which waits about 60 ms on ext4 after a recent write: the file is rewritten
    in place and, if regular, cut on exit at the last byte written, even when
    the write raised. Links keep their inode; the umask sets a new file's mode."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with os.fdopen(fd, "wb") if binary else os.fdopen(fd, "w", encoding="utf-8") as handle:
        try:
            yield handle
        finally:
            handle.flush()
            if stat.S_ISREG(os.fstat(fd).st_mode):  # never a device or a pipe
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def save_csv(ds: MultiLabelDataset, path) -> None:
    """Write a dataset in the load_csv format; floats keep full precision.
    The file is rewritten in place and cut at its last byte (:func:`open_output`)."""
    with open_output(path) as handle:
        handle.write(format_rows(ds.features, ds.labels))


def compute_stats(ds: MultiLabelDataset) -> DatasetStats:
    """Instance/feature/label counts plus distinct, cardinality, density."""
    n = ds.instance_count
    r = ds.label_count
    cardinality = float(ds.labels.sum()) / n
    return DatasetStats(
        instances=n,
        features=ds.feature_count,
        labels=r,
        distinct=np.unique(ds.labels, axis=0).shape[0],
        cardinality=cardinality,
        density=cardinality / r,
    )


def kfold_split(n: int, folds: int, seed: int) -> FoldAssignment:
    """Deterministic shuffle-then-deal split; fold sizes differ by at most 1."""
    n, folds, seed = checked_int("n", n, 0), checked_int("folds", folds, 2), checked_int("seed", seed, 0)
    if folds > n:
        raise ConfigError(f"cannot split {n} instances into {folds} folds")
    perm = np.random.Generator(np.random.PCG64(seed)).permutation(n)
    return FoldAssignment(fold_of_instance=np.argsort(perm) % folds)  # instance perm[i] gets fold i % folds


_LABEL_CORRELATION = 0.5


def synthetic_dataset(
    n: int,
    features: int,
    labels: int,
    seed: int,
    label_noise: float = 0.0,
) -> MultiLabelDataset:
    """Gaussian features with labels set by the sign of linear feature scores.

    Each label direction blends a shared component (weight
    ``_LABEL_CORRELATION``) with its own random direction, so labels are
    correlated but distinct. ``label_noise`` flips each label entry
    independently with that probability.
    """
    n, features = checked_int("n", n, 1), checked_int("features", features, 1)
    labels, seed = checked_int("labels", labels, 2), checked_int("seed", seed, 0)
    label_noise = checked_float("label_noise", label_noise)
    if not 0.0 <= label_noise <= 1.0:
        raise ConfigError("label_noise must lie in [0, 1]")
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.normal(size=(n, features))
    shared = rng.normal(size=features)
    own = rng.normal(size=(features, labels))
    directions = _LABEL_CORRELATION * shared[:, None] + (1.0 - _LABEL_CORRELATION) * own
    y = (x @ directions) > 0.0
    if label_noise > 0.0:
        flips = rng.random(size=y.shape) < label_noise
        y = y ^ flips
    return MultiLabelDataset(x, y)
