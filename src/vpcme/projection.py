"""Constraint-projection fitting via a symmetric eigenproblem.

The objective pushes cannot-link pairs apart and pulls must-link pairs
together: maximize Tr(W' (S_cannot - r * S_must) W) over orthonormal W,
where each S is the average outer product of pair differences and r
rescales the must-link term by the ratio of mean squared pair distances.
Both S and r come from one gather of each list's pair differences. The
maximizer keeps the eigenvectors of the difference matrix whose
eigenvalues are non-negative.
"""

from dataclasses import dataclass

import numpy as np

from .constraints import PairConstraintSets
from .dataset import MultiLabelDataset
from .errors import ValidationError


@dataclass(frozen=True)
class ScatterPair:
    s_cannot: np.ndarray
    s_must: np.ndarray
    scaling_r: float


@dataclass(frozen=True)
class ProjectionModel:
    """Orthonormal projection columns with their eigenvalues, largest first."""

    w: np.ndarray
    eigenvalues: np.ndarray
    scaling_r: float

    def __post_init__(self):
        w = np.ascontiguousarray(self.w, dtype=np.float64)
        eigenvalues = np.ascontiguousarray(self.eigenvalues, dtype=np.float64)
        k, d = w.shape
        if eigenvalues.shape != (d,):
            raise ValidationError("projection needs one eigenvalue per column")
        if not 1 <= d <= k:
            raise ValidationError(f"reduced dimension {d} outside [1, {k}]")
        gram = w.T @ w
        if np.max(np.abs(gram - np.eye(d))) > 1e-8:
            raise ValidationError("projection columns are not orthonormal")
        if np.any(eigenvalues < 0.0) and d != 1:
            raise ValidationError("negative eigenvalues only allowed for the single-vector fallback")
        w.setflags(write=False)
        eigenvalues.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "eigenvalues", eigenvalues)

    @property
    def reduced_dim(self) -> int:
        return self.w.shape[1]

    @property
    def objective(self) -> float:
        return float(self.eigenvalues.sum())

    @property
    def input_dim(self) -> int:
        return self.w.shape[0]


def _pair_diffs(ds: MultiLabelDataset, pairs: np.ndarray) -> np.ndarray:
    if pairs.shape[0] and int(pairs.max()) >= ds.instance_count:
        raise ValidationError("constraint pair index out of range")
    return ds.features[pairs[:, 0]] - ds.features[pairs[:, 1]]


def scatter_matrices(ds: MultiLabelDataset, sets: PairConstraintSets) -> ScatterPair:
    """Average outer products of pair differences, and the scaling r.

    Empty lists give zero matrices. r is the mean squared cannot-link
    distance over the mean squared must-link distance; it falls back to 1.0
    when either list is empty or the must-link mean is 0. Each list's
    differences are gathered once, for both its matrix and its mean.
    """
    k = ds.feature_count

    def one(pairs):
        if pairs.shape[0] == 0:
            return np.zeros((k, k)), 0.0
        diffs = _pair_diffs(ds, pairs)
        m = pairs.shape[0]
        return diffs.T @ diffs / (2.0 * m), float((diffs**2).sum()) / m

    s_cannot, mean_c = one(sets.cannot)
    s_must, mean_m = one(sets.must)
    return ScatterPair(
        s_cannot=s_cannot,
        s_must=s_must,
        scaling_r=mean_c / mean_m if sets.n_cannot and mean_m != 0.0 else 1.0,
    )


def symmetric_eigen(a) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix (LAPACK, via ``eigh``).

    Eigenvalues come back sorted descending (stable under ties) and each
    eigenvector's first largest-magnitude component is made positive so
    repeated runs are bit-identical.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] and np.max(np.abs(a - a.T)) > 1e-8:
        raise ValidationError("matrix is not symmetric within 1e-8")
    ascending, vectors = np.linalg.eigh(a)
    order = np.argsort(-ascending, kind="stable")
    values = ascending[order]
    vectors = vectors[:, order]
    if vectors.size:
        lead = np.argmax(np.abs(vectors), axis=0)
        vectors[:, vectors[lead, np.arange(vectors.shape[1])] < 0.0] *= -1.0
    return values, vectors


def fit_projection(ds: MultiLabelDataset, sets: PairConstraintSets) -> ProjectionModel:
    """Fit the projection that maximizes the scatter-difference trace.

    Keeps every eigenvector with a non-negative eigenvalue; if there is
    none, keeps the single largest so downstream classifiers always get at
    least one dimension.
    """
    pair = scatter_matrices(ds, sets)
    difference = pair.s_cannot - pair.scaling_r * pair.s_must
    values, vectors = symmetric_eigen(difference)
    d = int(np.count_nonzero(values >= 0.0))
    if d == 0:
        d = 1
    return ProjectionModel(w=vectors[:, :d], eigenvalues=values[:d], scaling_r=pair.scaling_r)


def transform(model: ProjectionModel, x) -> np.ndarray:
    """Project one k-vector or an n-by-k matrix into the reduced space."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        if x.shape[0] != model.input_dim:
            raise ValidationError(
                f"expected a vector of width {model.input_dim}, got {x.shape[0]}"
            )
        return x @ model.w
    if x.ndim == 2:
        if x.shape[1] != model.input_dim:
            raise ValidationError(
                f"expected rows of width {model.input_dim}, got {x.shape[1]}"
            )
        return x @ model.w
    raise ValidationError("transform input must be a vector or a matrix")
