from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpcme.errors import ConfigError, ValidationError
from vpcme.ensemble import majority_vote
from vpcme import _kernels
from vpcme.mlknn import SMALLEST_SMOOTHING, fit_mlknn, posterior_scores


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
        [np.array([0.5, np.nan]), np.array([0.5, 0.0]), np.array([0.5, np.nextafter(1.0, 2.0)]),
         np.array([0.5, 0.5, 0.5])],
        ids=["nan", "zero", "above-one", "long"],
    )
    def test_model_rejects_priors_outside_the_half_open_unit_interval_or_of_wrong_shape(self, prior):
        model = one_d_model()
        with pytest.raises(ValidationError, match="prior"):
            replace(model, prior_pos=prior)

    @pytest.mark.parametrize("table", ["freq_pos", "freq_neg"])
    def test_model_rejects_a_negative_count_whose_row_sum_holds(self, table):
        # cell 0 gives cell 1 one count more than it holds: the row sums hold
        model = one_d_model()
        counts = getattr(model, table).copy()
        counts[0] += [-(counts[0, 0] + 1), counts[0, 0] + 1]
        assert np.array_equal(counts.sum(axis=1), getattr(model, table).sum(axis=1))
        with pytest.raises(ValidationError, match=rf"^{table} must hold entries in \[0, inf\), got -1$"):
            replace(model, **{table: counts})

    @pytest.mark.parametrize("smoothing", [1e-15, SMALLEST_SMOOTHING])
    def test_a_label_every_row_carries_may_have_a_prior_of_one(self, smoothing):
        # (s + n) / (2s + n) rounds to 1 once s is below about n * 1.1e-16;
        # the posterior is then num / num = 1 for every query
        rng = np.random.Generator(np.random.PCG64(41))
        points = rng.normal(size=(60, 3))
        labels = rng.random((60, 3)) < 0.4
        labels[:, 0] = True
        model = fit_mlknn(points, labels, k_neighbors=5, smoothing=smoothing)
        assert model.prior_pos[0] == 1.0
        queries = np.vstack([points, rng.normal(size=(40, 3))])
        scores = posterior_scores(model, queries)
        assert np.all(scores[:, 0] == 1.0)
        assert np.all(scores[:, 1:] < 1.0)
        assert replace(model, prior_pos=[0.5, 1.0, 1.0]).prior_pos.tolist() == [0.5, 1.0, 1.0]

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
        scores = posterior_scores(model, np.array([[1.0]]))[0]
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
        scores = posterior_scores(model, np.array([[7.3]]))[0]
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
            got = posterior_scores(model, query[None])[0]
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
            assert np.array_equal(posterior_scores(model, q[None])[0], row)

    def test_width_mismatch(self):
        model = one_d_model()
        with pytest.raises(ValidationError):
            posterior_scores(model, np.array([[1.0, 2.0]]))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_scores_strictly_inside_unit_interval(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        n = int(rng.integers(4, 16))
        points = rng.normal(size=(n, 2))
        labels = rng.random((n, 2)) < rng.random()
        model = fit_mlknn(points, labels, k_neighbors=int(rng.integers(1, n)))
        scores = posterior_scores(model, rng.normal(size=2)[None])[0]
        assert np.all(scores > 0.0)
        assert np.all(scores < 1.0)


    def test_table_matches_the_per_query_formula_bit_for_bit(self):
        # the per-query formula posterior_scores replaced with its table:
        # every (query, label) cell recomputes its likelihoods and posterior
        def per_query(model, neighbors):
            c = model.train_labels[neighbors].sum(axis=1)
            s, k = model.smoothing, model.k_neighbors
            cols = np.arange(model.label_count)
            n_pos = model.freq_pos.sum(axis=1)
            n_neg = model.freq_neg.sum(axis=1)
            like_pos = (s + model.freq_pos[cols, c]) / (s * (k + 1) + n_pos)
            like_neg = (s + model.freq_neg[cols, c]) / (s * (k + 1) + n_neg)
            num = model.prior_pos * like_pos
            return num / (num + (1.0 - model.prior_pos) * like_neg)

        rng = np.random.Generator(np.random.PCG64(43))
        low, high = np.log10(SMALLEST_SMOOTHING), 10.0
        for trial in range(300):
            k = int(rng.integers(1, 15))
            n = int(rng.integers(k + 1, k + 30))
            r = int(rng.integers(1, 6))
            points = rng.normal(size=(n, 2))
            labels = rng.random((n, r)) < rng.random()
            labels[:, rng.random(r) < 0.2] = False  # labels no row carries
            labels[:, rng.random(r) < 0.2] = True  # labels every row carries
            smoothing = {0: SMALLEST_SMOOTHING, 1: 1e10}.get(trial, 10.0 ** rng.uniform(low, high))
            model = fit_mlknn(points, labels, k_neighbors=k, smoothing=smoothing)
            query = rng.normal(size=(int(rng.integers(0, 8)) if trial % 10 else 0, 2))
            for q, neighbors in ((query, _kernels.knn(points, query, k)),
                                 (points, model.train_neighbors)):
                got = posterior_scores(model, q)
                want = per_query(model, neighbors)
                assert got.shape == want.shape == (q.shape[0], r)
                assert got.tobytes() == want.tobytes(), (trial, k, smoothing)


class TestBipartition:
    # a member's bipartition is its one-member majority vote: a label is
    # present iff its posterior exceeds 0.5
    def test_threshold(self):
        model = one_d_model()
        # query at 1.0 scores 1/3 on label 0 -> excluded
        assert not posterior_scores(model, np.array([[1.0]]))[0][0] > 0.5

    def test_exact_half_is_negative(self):
        points = np.array([[0.0], [1.0], [10.0], [11.0]])
        labels = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=bool)
        model = fit_mlknn(points, labels, k_neighbors=2, smoothing=1.0)
        scores = posterior_scores(model, np.array([[5.5]]))
        assert np.array_equal(scores, [[0.5, 0.5]])
        assert not majority_vote([scores])[0].any()

    def test_score_vector_rule(self):
        model = one_d_model()
        scores = posterior_scores(model, np.array([[0.2]]))
        assert np.array_equal(majority_vote([scores])[0], scores > 0.5)


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
