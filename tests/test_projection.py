import numpy as np
import pytest

from vpcme.constraints import ConstraintConfig, PairConstraintSets, sample_constraints
from vpcme.dataset import MultiLabelDataset, synthetic_dataset
from vpcme.errors import ValidationError
from vpcme.projection import (
    ProjectionModel,
    fit_projection,
    scatter_matrices,
    symmetric_eigen,
    transform,
)


def pairs(*rows):
    if not rows:
        return np.empty((0, 2), np.int64)
    return np.array(rows, dtype=np.int64)


def toy_dataset():
    x = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    y = np.array([[1, 0], [0, 1], [1, 1]], dtype=bool)
    return MultiLabelDataset(x, y)


def random_problem(rng, n=12, k=5, n_pairs=8):
    x = rng.normal(size=(n, k))
    y = rng.random(size=(n, 3)) < 0.5
    ds = MultiLabelDataset(x, y)
    draw = lambda: pairs(*{tuple(sorted(rng.choice(n, size=2, replace=False))) for _ in range(n_pairs)})
    return ds, PairConstraintSets(must=draw(), cannot=draw())


class TestScatterMatrices:
    def test_hand_evaluated_cannot_pair(self):
        ds = toy_dataset()
        pair = scatter_matrices(ds, PairConstraintSets(must=pairs(), cannot=pairs((0, 1))))
        assert np.allclose(pair.s_cannot, [[2.0, 0.0], [0.0, 0.0]])
        assert np.array_equal(pair.s_must, np.zeros((2, 2)))

    def test_duplicate_pair_counts_in_denominator(self):
        ds = toy_dataset()
        pair = scatter_matrices(
            ds, PairConstraintSets(must=pairs(), cannot=pairs((0, 1), (0, 1)))
        )
        assert np.allclose(pair.s_cannot, [[2.0, 0.0], [0.0, 0.0]])

    def test_symmetry_and_psd_on_random_input(self):
        rng = np.random.Generator(np.random.PCG64(5))
        ds, sets = random_problem(rng)
        pair = scatter_matrices(ds, sets)
        for s in (pair.s_cannot, pair.s_must):
            assert np.max(np.abs(s - s.T)) < 1e-10
            evals, _ = symmetric_eigen(s)
            assert evals.min() > -1e-10

    def test_index_out_of_range(self):
        ds = toy_dataset()
        with pytest.raises(ValidationError):
            scatter_matrices(ds, PairConstraintSets(must=pairs((0, 9)), cannot=pairs()))


class TestScalingCoefficient:
    def test_ratio_of_mean_squared_distances(self):
        # cannot pair distance^2 = 4, must pair distance^2 = 1
        ds = toy_dataset()
        sets = PairConstraintSets(must=pairs((0, 2)), cannot=pairs((0, 1)))
        assert scatter_matrices(ds, sets).scaling_r == 4.0

    def test_identical_lists_give_one(self):
        ds = toy_dataset()
        sets = PairConstraintSets(must=pairs((0, 1), (1, 2)), cannot=pairs((0, 1), (1, 2)))
        assert scatter_matrices(ds, sets).scaling_r == 1.0

    def test_empty_must_falls_back_to_one(self):
        ds = toy_dataset()
        sets = PairConstraintSets(must=pairs(), cannot=pairs((0, 1)))
        assert scatter_matrices(ds, sets).scaling_r == 1.0

    def test_empty_cannot_falls_back_to_one(self):
        ds = toy_dataset()
        sets = PairConstraintSets(must=pairs((0, 1)), cannot=pairs())
        assert scatter_matrices(ds, sets).scaling_r == 1.0

    def test_zero_must_distance_falls_back_to_one(self):
        x = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 3.0]])
        ds = MultiLabelDataset(x, np.ones((3, 2), dtype=bool))
        sets = PairConstraintSets(must=pairs((0, 1)), cannot=pairs((0, 2)))
        assert scatter_matrices(ds, sets).scaling_r == 1.0


class TestSymmetricEigen:
    def test_identity(self):
        evals, evecs = symmetric_eigen(np.eye(3))
        assert np.array_equal(evals, [1.0, 1.0, 1.0])
        assert np.array_equal(evecs, np.eye(3))

    def test_diagonal_two_by_two(self):
        evals, evecs = symmetric_eigen(np.diag([2.0, -2.0]))
        assert np.array_equal(evals, [2.0, -2.0])
        assert np.array_equal(np.abs(evecs), np.eye(2))

    def test_reconstruction_oracle(self):
        rng = np.random.Generator(np.random.PCG64(17))
        for _ in range(20):
            base = rng.normal(size=(6, 6))
            a = (base + base.T) / 2.0
            evals, evecs = symmetric_eigen(a)
            recon = evecs @ np.diag(evals) @ evecs.T
            assert np.max(np.abs(recon - a)) < 1e-7
            assert np.max(np.abs(evecs.T @ evecs - np.eye(6))) < 1e-8
            assert np.all(np.diff(evals) <= 0)

    def test_sign_canonicalization(self):
        rng = np.random.Generator(np.random.PCG64(3))
        base = rng.normal(size=(4, 4))
        a = base + base.T
        _, evecs = symmetric_eigen(a)
        for col in range(4):
            lead = np.argmax(np.abs(evecs[:, col]))
            assert evecs[lead, col] > 0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            symmetric_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            symmetric_eigen(np.zeros((2, 3)))

    def test_zero_matrix(self):
        evals, evecs = symmetric_eigen(np.zeros((4, 4)))
        assert np.array_equal(evals, np.zeros(4))
        assert np.array_equal(evecs, np.eye(4))


class TestFitProjection:
    def test_hand_example_keeps_one_dimension(self):
        ds = toy_dataset()
        sets = PairConstraintSets(must=pairs((0, 2)), cannot=pairs((0, 1)))
        model = fit_projection(ds, sets)
        assert model.scaling_r == 4.0
        assert model.reduced_dim == 1
        assert np.allclose(np.abs(model.w.ravel()), [1.0, 0.0])
        assert model.objective == pytest.approx(2.0)

    def test_identical_lists_keep_everything_at_zero_objective(self):
        ds = toy_dataset()
        sets = PairConstraintSets(must=pairs((0, 1), (0, 2)), cannot=pairs((0, 1), (0, 2)))
        model = fit_projection(ds, sets)
        assert model.reduced_dim == ds.feature_count
        assert model.objective == 0.0
        assert np.array_equal(model.eigenvalues, np.zeros(2))

    def test_empty_must_spans_full_space(self):
        rng = np.random.Generator(np.random.PCG64(8))
        x = rng.normal(size=(10, 3))
        ds = MultiLabelDataset(x, rng.random((10, 2)) < 0.5)
        cannot = pairs(*[(i, (i + 1) % 10) for i in range(10)])
        sets = PairConstraintSets(must=np.empty((0, 2), np.int64), cannot=cannot)
        model = fit_projection(ds, sets)
        assert model.scaling_r == 1.0
        assert model.reduced_dim == 3
        assert np.all(model.eigenvalues >= 0)

    def test_trace_identity_on_random_problems(self):
        rng = np.random.Generator(np.random.PCG64(23))
        for _ in range(25):
            ds, sets = random_problem(rng)
            model = fit_projection(ds, sets)
            pair = scatter_matrices(ds, sets)
            d_matrix = pair.s_cannot - model.scaling_r * pair.s_must
            trace = np.trace(model.w.T @ d_matrix @ model.w)
            assert abs(trace - model.objective) < 1e-7

    def test_optimality_against_random_unit_vectors(self):
        rng = np.random.Generator(np.random.PCG64(31))
        checked = 0
        while checked < 5:
            ds, sets = random_problem(rng, k=4)
            model = fit_projection(ds, sets)
            if model.reduced_dim != 1:
                continue
            pair = scatter_matrices(ds, sets)
            d_matrix = pair.s_cannot - model.scaling_r * pair.s_must
            u = rng.normal(size=(1000, 4))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            rayleigh = np.einsum("ij,jk,ik->i", u, d_matrix, u)
            assert model.objective >= rayleigh.max()
            checked += 1

    def test_orthonormal_columns(self):
        rng = np.random.Generator(np.random.PCG64(41))
        for _ in range(10):
            ds, sets = random_problem(rng)
            model = fit_projection(ds, sets)
            gram = model.w.T @ model.w
            assert np.max(np.abs(gram - np.eye(model.reduced_dim))) < 1e-8

    def test_translation_invariance(self):
        # differences cancel the shift exactly in math; floats re-round at
        # the addition, so compare to a tight tolerance instead of bits
        rng = np.random.Generator(np.random.PCG64(53))
        ds, sets = random_problem(rng)
        shifted = MultiLabelDataset(ds.features + 7.5, ds.labels)
        pa, pb = scatter_matrices(ds, sets), scatter_matrices(shifted, sets)
        assert np.allclose(pa.s_cannot, pb.s_cannot, atol=1e-12)
        assert np.allclose(pa.s_must, pb.s_must, atol=1e-12)
        a = fit_projection(ds, sets)
        b = fit_projection(shifted, sets)
        assert a.scaling_r == pytest.approx(b.scaling_r, abs=1e-12)
        assert a.reduced_dim == b.reduced_dim
        assert np.allclose(a.w, b.w, atol=1e-6)
        assert np.allclose(a.eigenvalues, b.eigenvalues, atol=1e-10)

    def test_sampled_constraints_end_to_end(self):
        ds = synthetic_dataset(30, 6, 3, seed=2)
        cfg = ConstraintConfig(theta=0.6, target_must=30, target_cannot=30)
        rng = np.random.Generator(np.random.PCG64(0))
        sets = sample_constraints(ds, np.full(30, 1 / 30), cfg, rng)
        model = fit_projection(ds, sets)
        assert 1 <= model.reduced_dim <= 6


class TestTransform:
    def model_ex(self):
        w = np.array([[1.0], [0.0]])
        return ProjectionModel(w=w, eigenvalues=np.array([2.0]), scaling_r=4.0)

    def test_vector(self):
        assert np.array_equal(transform(self.model_ex(), np.array([3.0, 7.0])), [3.0])

    def test_identity_projection(self):
        model = ProjectionModel(w=np.eye(2), eigenvalues=np.zeros(2), scaling_r=1.0)
        x = np.array([1.5, -2.5])
        assert np.array_equal(transform(model, x), x)

    def test_batch_matches_rows(self):
        model = self.model_ex()
        batch = np.array([[3.0, 7.0], [-1.0, 4.0]])
        out = transform(model, batch)
        assert out.shape == (2, 1)
        for row_in, row_out in zip(batch, out):
            assert np.array_equal(transform(model, row_in), row_out)

    def test_width_mismatch(self):
        with pytest.raises(ValidationError):
            transform(self.model_ex(), np.array([1.0, 2.0, 3.0]))


class TestProjectionModelValidation:
    def test_non_orthonormal_rejected(self):
        with pytest.raises(ValidationError):
            ProjectionModel(
                w=np.array([[1.0], [1.0]]),
                eigenvalues=np.array([1.0]),
                scaling_r=1.0,
            )

    def test_negative_eigenvalue_needs_fallback_dim(self):
        with pytest.raises(ValidationError):
            ProjectionModel(
                w=np.eye(2),
                eigenvalues=np.array([1.0, -1.0]),
                scaling_r=1.0,
            )
