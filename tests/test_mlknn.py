from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpcme.errors import ConfigError, ValidationError
from vpcme.mlknn import fit_mlknn, posterior_scores, predict_bipartition


# ---------------------------------------------------------------------------
# Brute-force oracle: plain-python neighbor search and Bayes rule, written
# against the definitions rather than the implementation.
# ---------------------------------------------------------------------------


def oracle_neighbors(points, query_idx_or_vec, k, exclude=None):
    items = []
    if isinstance(query_idx_or_vec, int):
        query = points[query_idx_or_vec]
    else:
        query = query_idx_or_vec
    for j, p in enumerate(points):
        if exclude is not None and j == exclude:
            continue
        dist = sum((float(a) - float(b)) ** 2 for a, b in zip(query, p))
        items.append((dist, j))
    items.sort()
    return [j for _, j in items[:k]]


def oracle_fit(points, labels, k, s):
    n = len(points)
    r = len(labels[0])
    prior = [(s + sum(labels[i][l] for i in range(n))) / (2 * s + n) for l in range(r)]
    freq_pos = [[0] * (k + 1) for _ in range(r)]
    freq_neg = [[0] * (k + 1) for _ in range(r)]
    for i in range(n):
        neigh = oracle_neighbors(points, i, k, exclude=i)
        for l in range(r):
            c = sum(1 for j in neigh if labels[j][l])
            if labels[i][l]:
                freq_pos[l][c] += 1
            else:
                freq_neg[l][c] += 1
    return prior, freq_pos, freq_neg


def oracle_scores(points, labels, k, s, query):
    prior, freq_pos, freq_neg = oracle_fit(points, labels, k, s)
    n = len(points)
    r = len(labels[0])
    neigh = oracle_neighbors(points, query, k)
    out = []
    for l in range(r):
        c = sum(1 for j in neigh if labels[j][l])
        n_pos = sum(freq_pos[l])
        n_neg = n - n_pos
        like_pos = (s + freq_pos[l][c]) / (s * (k + 1) + n_pos)
        like_neg = (s + freq_neg[l][c]) / (s * (k + 1) + n_neg)
        num = prior[l] * like_pos
        out.append(num / (num + (1 - prior[l]) * like_neg))
    return out


def one_d_model():
    points = np.array([[0.0], [10.0]])
    labels = np.array([[True, False], [False, True]])
    return fit_mlknn(points, labels, k_neighbors=1, smoothing=1.0)


class TestFit:
    def test_one_dimensional_hand_example(self):
        model = one_d_model()
        assert model.prior_pos[0] == 0.5
        assert np.array_equal(model.freq_pos[0], [1, 0])
        assert np.array_equal(model.freq_neg[0], [0, 1])

    def test_shared_label_prior(self):
        n = 7
        points = np.arange(n, dtype=float)[:, None]
        labels = np.ones((n, 2), dtype=bool)
        model = fit_mlknn(points, labels, k_neighbors=2, smoothing=1.0)
        assert model.prior_pos[0] == (1 + n) / (2 + n)

    def test_duplicate_points_tie_to_lower_index(self):
        # three identical points: each one's nearest neighbor is the lowest
        # other index, so the counts are fully determined
        points = np.zeros((3, 2))
        labels = np.array([[1, 0], [0, 1], [1, 1]], dtype=bool)
        a = fit_mlknn(points, labels, k_neighbors=1, smoothing=1.0)
        b = fit_mlknn(points, labels, k_neighbors=1, smoothing=1.0)
        assert np.array_equal(a.freq_pos, b.freq_pos)
        # instance 0's neighbor is 1 (no label 0), instances 1 and 2 both
        # pick 0 (has label 0)
        assert np.array_equal(a.freq_pos[0], [1, 1])
        assert np.array_equal(a.freq_neg[0], [0, 1])

    def test_k_at_least_instance_count_rejected(self):
        points = np.zeros((3, 1))
        labels = np.zeros((3, 2), dtype=bool)
        with pytest.raises(ConfigError):
            fit_mlknn(points, labels, k_neighbors=3)

    @pytest.mark.parametrize("smoothing", [float("nan"), float("inf"), 0.0])
    def test_smoothing_must_be_finite_and_positive(self, smoothing):
        points = np.arange(4, dtype=float)[:, None]
        labels = np.array([[1, 0], [0, 1], [1, 1], [0, 0]], dtype=bool)
        with pytest.raises(ConfigError, match="smoothing must be finite and positive"):
            fit_mlknn(points, labels, k_neighbors=1, smoothing=smoothing)

    @pytest.mark.parametrize(
        "prior",
        [np.array([0.5, np.nan]), np.array([0.5, 1.0]), np.array([0.5, 0.5, 0.5])],
        ids=["nan", "one", "long"],
    )
    def test_model_rejects_priors_outside_the_open_unit_interval_or_of_wrong_shape(self, prior):
        model = one_d_model()
        with pytest.raises(ValidationError, match="prior"):
            replace(model, prior_pos=prior)

    def test_matches_oracle_tables(self):
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in range(10):
            n = int(rng.integers(5, 20))
            points = rng.normal(size=(n, 3))
            labels = rng.random((n, 3)) < 0.4
            labels[0, 0] = True  # keep at least one positive somewhere
            k = int(rng.integers(1, min(6, n)))
            model = fit_mlknn(points, labels, k_neighbors=k, smoothing=1.0)
            prior, fpos, fneg = oracle_fit(points.tolist(), labels.tolist(), k, 1.0)
            assert np.allclose(model.prior_pos, prior, atol=1e-12)
            assert np.array_equal(model.freq_pos, fpos)
            assert np.array_equal(model.freq_neg, fneg)


class TestPosterior:
    def test_hand_bayes_example(self):
        model = one_d_model()
        scores = posterior_scores(model, np.array([1.0]))
        assert scores[0] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_symmetric_tables_score_half(self):
        # four tight pairs: (A,A), (A,-), (-,-), (-,A). Each instance's
        # nearest neighbor is its pair partner, so freq_pos == freq_neg ==
        # [2, 2] and the prior is exactly 0.5: every query scores 0.5.
        points = np.array([[0.0], [0.1], [5.0], [5.1], [10.0], [10.1], [15.0], [15.1]])
        has_a = np.array([1, 1, 1, 0, 0, 0, 0, 1], dtype=bool)
        labels = np.stack([has_a, has_a], axis=1)
        model = fit_mlknn(points, labels, k_neighbors=1, smoothing=1.0)
        assert model.prior_pos[0] == 0.5
        assert np.array_equal(model.freq_pos[0], model.freq_neg[0])
        scores = posterior_scores(model, np.array([7.3]))
        assert np.array_equal(scores, [0.5, 0.5])

    def test_matches_oracle_scores(self):
        rng = np.random.Generator(np.random.PCG64(29))
        for _ in range(10):
            n = int(rng.integers(6, 15))
            points = rng.normal(size=(n, 2))
            labels = rng.random((n, 3)) < 0.5
            k = int(rng.integers(1, 5))
            model = fit_mlknn(points, labels, k_neighbors=k, smoothing=1.0)
            query = rng.normal(size=2)
            got = posterior_scores(model, query)
            want = oracle_scores(points.tolist(), labels.tolist(), k, 1.0, query.tolist())
            assert np.allclose(got, want, atol=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.Generator(np.random.PCG64(31))
        points = rng.normal(size=(12, 3))
        labels = rng.random((12, 2)) < 0.5
        model = fit_mlknn(points, labels, k_neighbors=3)
        queries = rng.normal(size=(4, 3))
        batch = posterior_scores(model, queries)
        for q, row in zip(queries, batch):
            assert np.array_equal(posterior_scores(model, q), row)

    def test_width_mismatch(self):
        model = one_d_model()
        with pytest.raises(ValidationError):
            posterior_scores(model, np.array([1.0, 2.0]))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_scores_strictly_inside_unit_interval(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        n = int(rng.integers(4, 16))
        points = rng.normal(size=(n, 2))
        labels = rng.random((n, 2)) < rng.random()
        model = fit_mlknn(points, labels, k_neighbors=int(rng.integers(1, n)))
        scores = posterior_scores(model, rng.normal(size=2))
        assert np.all(scores > 0.0)
        assert np.all(scores < 1.0)


class TestBipartition:
    def test_threshold(self):
        model = one_d_model()
        # query at 1.0 scores 1/3 on label 0 -> excluded
        assert not predict_bipartition(model, np.array([1.0]))[0]

    def test_exact_half_is_negative(self):
        points = np.array([[0.0], [1.0], [10.0], [11.0]])
        labels = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=bool)
        model = fit_mlknn(points, labels, k_neighbors=2, smoothing=1.0)
        scores = posterior_scores(model, np.array([5.5]))
        preds = predict_bipartition(model, np.array([5.5]))
        for s, p in zip(scores, preds):
            assert p == (s > 0.5)

    def test_score_vector_rule(self):
        model = one_d_model()
        scores = posterior_scores(model, np.array([0.2]))
        preds = predict_bipartition(model, np.array([0.2]))
        assert np.array_equal(preds, scores > 0.5)


class TestPermutationInvariance:
    def test_tables_invariant_under_instance_order(self):
        rng = np.random.Generator(np.random.PCG64(37))
        n = 14
        points = rng.normal(size=(n, 3))  # distinct pairwise distances a.s.
        labels = rng.random((n, 3)) < 0.5
        perm = rng.permutation(n)
        a = fit_mlknn(points, labels, k_neighbors=4)
        b = fit_mlknn(points[perm], labels[perm], k_neighbors=4)
        assert np.allclose(a.prior_pos, b.prior_pos, atol=0)
        assert np.array_equal(a.freq_pos, b.freq_pos)
        assert np.array_equal(a.freq_neg, b.freq_neg)
