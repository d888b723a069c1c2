import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpcme.errors import UndefinedMetricError, ValidationError
from vpcme.metrics import (
    average_precision,
    coverage,
    evaluate_all,
    f1_metric,
    hamming_loss,
    one_error,
    rank_from_scores,
    ranking_loss,
    recall,
)


# ---------------------------------------------------------------------------
# Exhaustive per-instance oracles: direct pair/prefix enumeration over label
# index sets, independent of the vectorized implementations.
# ---------------------------------------------------------------------------


def oracle_ranking_loss(y, ranks):
    m = len(ranks)
    rel = {l for l in range(m) if y[l]}
    irr = set(range(m)) - rel
    if not rel or not irr:
        return None
    bad = sum(1 for a in rel for b in irr if ranks[a] > ranks[b])
    return bad / (len(rel) * len(irr))


def oracle_one_error(y, ranks):
    if not any(y):
        return None
    top = min(range(len(ranks)), key=lambda l: ranks[l])
    return 0.0 if y[top] else 1.0


def oracle_coverage(y, ranks):
    rel = [ranks[l] for l in range(len(ranks)) if y[l]]
    return (max(rel) - 1) if rel else 0


def oracle_average_precision(y, ranks):
    rel = {l for l in range(len(ranks)) if y[l]}
    if not rel:
        return None
    total = 0.0
    for l in rel:
        above = sum(1 for l2 in rel if ranks[l2] <= ranks[l])
        total += above / ranks[l]
    return total / len(rel)


def oracle_hamming(y, z, m):
    return sum(1 for l in range(m) if y[l] != z[l]) / m


def oracle_f1(y, z):
    inter = sum(1 for a, b in zip(y, z) if a and b)
    denom = sum(y) + sum(z)
    return 1.0 if denom == 0 else 2 * inter / denom


def oracle_recall(y, z):
    if sum(y) == 0:
        return 1.0 if sum(z) == 0 else None
    inter = sum(1 for a, b in zip(y, z) if a and b)
    return inter / sum(y)


def mean_skipping_none(values):
    kept = [v for v in values if v is not None]
    return sum(kept) / len(kept) if kept else None


def random_instances(rng, n, m):
    truths = rng.random((n, m)) < rng.random()
    # pin one non-degenerate truth so the skipping metrics stay defined
    truths[0] = False
    truths[0, 0] = True
    preds = rng.random((n, m)) < 0.5
    scores = rng.random((n, m))
    ties = rng.random(n) < 0.3  # exercise the tie rule now and then
    scores[ties] = np.round(scores[ties], 1)
    return truths, preds, scores


class TestRankFromScores:
    def test_plain_ordering(self):
        assert np.array_equal(rank_from_scores([0.9, 0.1, 0.5]), [1, 3, 2])

    def test_all_equal_scores(self):
        assert np.array_equal(rank_from_scores([0.4] * 4), [1, 2, 3, 4])

    def test_tie_on_first_two(self):
        assert np.array_equal(rank_from_scores([0.2, 0.2, 0.8]), [2, 3, 1])

    def test_matrix_rows_match_vectors(self):
        rng = np.random.Generator(np.random.PCG64(0))
        scores = rng.random((5, 4))
        ranks = rank_from_scores(scores)
        for row_scores, row_ranks in zip(scores, ranks):
            assert np.array_equal(rank_from_scores(row_scores), row_ranks)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            rank_from_scores([0.1, np.nan])


class TestHammingLoss:
    def test_exact_match(self):
        assert hamming_loss([[0, 1, 0]], [[0, 1, 0]]) == 0.0

    def test_two_wrong_of_three(self):
        # truth {1}, predicted {2}: symmetric difference has 2 elements
        assert hamming_loss([[0, 1, 0]], [[0, 0, 1]]) == pytest.approx(2 / 3)

    def test_overlapping_sets(self):
        # truth {1,2}, predicted {2,3} over M=3
        assert hamming_loss([[1, 1, 0]], [[0, 1, 1]]) == pytest.approx(2 / 3)

    def test_empty_input(self):
        with pytest.raises(UndefinedMetricError):
            hamming_loss(np.empty((0, 3), bool), np.empty((0, 3), bool))


class TestRankingLoss:
    def test_perfect_ranking(self):
        truths = [[1, 1, 0]]
        ranks = [[1, 2, 3]]
        assert ranking_loss(truths, ranks) == 0.0

    def test_worked_half(self):
        # M=3, truth {label0}, ranks (2,1,3): one of two pairs violated
        assert ranking_loss([[1, 0, 0]], [[2, 1, 3]]) == 0.5

    def test_fully_inverted(self):
        truths = [[1, 1, 0]]
        ranks = [[2, 3, 1]]
        assert ranking_loss(truths, ranks) == 1.0

    def test_all_degenerate_rejected(self):
        with pytest.raises(UndefinedMetricError):
            ranking_loss([[1, 1], [0, 0]], [[1, 2], [1, 2]])


class TestOneError:
    def test_hit(self):
        assert one_error([[1, 0]], [[1, 2]]) == 0.0

    def test_miss(self):
        assert one_error([[0, 1]], [[1, 2]]) == 1.0

    def test_average_of_hit_and_miss(self):
        assert one_error([[1, 0], [0, 1]], [[1, 2], [1, 2]]) == 0.5


class TestCoverage:
    def test_single_label_on_top(self):
        assert coverage([[1, 0, 0]], [[1, 2, 3]]) == 0.0

    def test_worked_depth_two(self):
        # truth {label0, label2}, ranks (1,2,3): deepest relevant rank is 3
        assert coverage([[1, 0, 1]], [[1, 2, 3]]) == 2.0

    def test_all_labels_relevant(self):
        assert coverage([[1, 1, 1]], [[3, 1, 2]]) == 2.0

    def test_empty_contributes_zero(self):
        assert coverage([[0, 0], [1, 1]], [[1, 2], [1, 2]]) == 0.5


class TestAveragePrecision:
    def test_perfect(self):
        assert average_precision([[1, 1, 0]], [[1, 2, 3]]) == 1.0

    def test_worked_five_sixths(self):
        # truth {label0, label1}, ranks (1,3,2)
        assert average_precision([[1, 1, 0]], [[1, 3, 2]]) == pytest.approx(5 / 6)

    def test_single_relevant_at_bottom(self):
        m = 4
        assert average_precision([[0, 0, 0, 1]], [[1, 2, 3, 4]]) == pytest.approx(1 / m)


class TestF1AndRecall:
    def test_half_overlap(self):
        truths = [[1, 1, 0]]
        preds = [[0, 1, 1]]
        assert f1_metric(truths, preds) == 0.5
        assert recall(truths, preds) == 0.5

    def test_exact_match(self):
        truths = [[1, 0, 1]]
        assert f1_metric(truths, truths) == 1.0
        assert recall(truths, truths) == 1.0

    def test_both_empty_counts_as_one(self):
        truths = [[0, 0]]
        preds = [[0, 0]]
        assert f1_metric(truths, preds) == 1.0
        assert recall(truths, preds) == 1.0

    def test_recall_skips_empty_truth_with_prediction(self):
        truths = [[0, 0], [1, 0]]
        preds = [[1, 0], [1, 0]]
        assert recall(truths, preds) == 1.0  # only the second instance counts


class TestOracleEquivalence:
    def test_thousand_random_instances(self):
        rng = np.random.Generator(np.random.PCG64(101))
        total = 0
        while total < 1000:
            n = int(rng.integers(3, 40))
            m = int(rng.integers(2, 7))
            truths, preds, scores = random_instances(rng, n, m)
            ranks = rank_from_scores(scores)
            rows = [
                (truths[i].tolist(), preds[i].tolist(), ranks[i].tolist())
                for i in range(n)
            ]
            expectations = {
                "hamming_loss": mean_skipping_none([oracle_hamming(y, z, m) for y, z, _ in rows]),
                "ranking_loss": mean_skipping_none([oracle_ranking_loss(y, r) for y, _, r in rows]),
                "one_error": mean_skipping_none([oracle_one_error(y, r) for y, _, r in rows]),
                "coverage": mean_skipping_none([oracle_coverage(y, r) for y, _, r in rows]),
                "average_precision": mean_skipping_none(
                    [oracle_average_precision(y, r) for y, _, r in rows]
                ),
                "f1": mean_skipping_none([oracle_f1(y, z) for y, z, _ in rows]),
                "recall": mean_skipping_none([oracle_recall(y, z) for y, z, _ in rows]),
            }
            got = {name: mv.value for name, mv in evaluate_all(truths, preds, scores).items()}
            for name, want in expectations.items():
                if want is None:
                    continue
                assert got[name] == pytest.approx(want, abs=1e-12), name
            total += n

    def test_skip_counts_reported(self):
        truths = np.array([[0, 0], [1, 1], [1, 0]], dtype=bool)
        preds = np.array([[1, 0], [0, 0], [1, 0]], dtype=bool)
        scores = np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3]])
        results = evaluate_all(truths, preds, scores)
        assert results["ranking_loss"].skipped == 2  # empty + full label sets
        assert results["one_error"].skipped == 1
        assert results["average_precision"].skipped == 1
        assert results["recall"].skipped == 1
        assert results["hamming_loss"].skipped == 0
        assert results["coverage"].skipped == 0
        assert results["f1"].skipped == 0

    def test_skipped_counts_follow_the_documented_rules(self):
        # ranking loss skips empty and full label sets, one-error and average
        # precision skip empty ones, recall skips an empty truth predicted
        # non-empty; the other three metrics skip nothing
        rng = np.random.Generator(np.random.PCG64(29))
        for _ in range(200):
            n, m = int(rng.integers(4, 30)), int(rng.integers(2, 7))
            truths = rng.random((n, m)) < rng.random()
            preds = rng.random((n, m)) < rng.random()
            truths[:4] = [[False] * m, [True] * m, [False] * m, [True] + [False] * (m - 1)]
            preds[:4] = [[True] + [False] * (m - 1), [False] * m, [False] * m, [True] * m]
            perm = rng.permutation(n)
            truths, preds = truths[perm], preds[perm]
            scores = rng.random((n, m))
            rows = [(y.tolist(), z.tolist()) for y, z in zip(truths, preds)]
            want = {
                "hamming_loss": 0,
                "ranking_loss": sum(not any(y) or all(y) for y, _ in rows),
                "one_error": sum(not any(y) for y, _ in rows),
                "coverage": 0,
                "average_precision": sum(not any(y) for y, _ in rows),
                "f1": 0,
                "recall": sum(not any(y) and any(z) for y, z in rows),
            }
            got = {name: mv.skipped for name, mv in evaluate_all(truths, preds, scores).items()}
            assert got == want


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_ranges(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        n = int(rng.integers(2, 25))
        m = int(rng.integers(2, 8))
        truths, preds, scores = random_instances(rng, n, m)
        results = evaluate_all(truths, preds, scores)
        for name in ("hamming_loss", "ranking_loss", "one_error", "average_precision", "f1", "recall"):
            assert 0.0 <= results[name].value <= 1.0, name
        assert 0.0 <= results["coverage"].value <= m - 1

    def test_consistency_under_perfect_prediction(self):
        rng = np.random.Generator(np.random.PCG64(7))
        n, m = 30, 5
        truths = rng.random((n, m)) < 0.4
        truths[0] = False
        truths[1] = True
        # scores ranking all relevant labels first
        scores = np.where(truths, 2.0, 1.0) - np.arange(m) * 1e-3
        results = evaluate_all(truths, truths, scores)
        assert results["hamming_loss"].value == 0.0
        assert results["ranking_loss"].value == 0.0
        assert results["one_error"].value == 0.0
        assert results["average_precision"].value == 1.0
        assert results["f1"].value == 1.0
        assert results["recall"].value == 1.0
        sizes = truths.sum(axis=1)
        expected_cov = np.where(sizes > 0, sizes - 1, 0).mean()
        assert results["coverage"].value == pytest.approx(expected_cov)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_permutation_invariance(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        n, m = int(rng.integers(3, 20)), int(rng.integers(2, 6))
        truths, preds, scores = random_instances(rng, n, m)
        perm = rng.permutation(n)
        a = evaluate_all(truths, preds, scores)
        b = evaluate_all(truths[perm], preds[perm], scores[perm])
        for name in a:
            assert a[name].value == pytest.approx(b[name].value, abs=1e-12)
            assert a[name].skipped == b[name].skipped
