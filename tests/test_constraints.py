import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpcme.constraints import (
    ConstraintConfig,
    PairConstraintSets,
    label_overlap_ratio,
    sample_constraints,
    weighted_indices,
)
from vpcme.dataset import MultiLabelDataset, synthetic_dataset
from vpcme.errors import ConfigError, ValidationError


def bool_rows(universe, members):
    """The 1-row label matrix of one set."""
    return np.array([[name in members for name in universe]], dtype=bool)


UNIVERSE = ["a", "b", "c", "d"]


def set_ratio(members_i, members_j):
    # independent restatement on python sets
    si, sj = set(members_i), set(members_j)
    denom = (len(si) + len(sj)) / 2.0
    if denom == 0:
        return 1.0
    return len(si & sj) / denom


class TestLabelOverlapRatio:
    @pytest.mark.parametrize(
        "left,right,expected",
        [
            ({"a", "b"}, {"b", "c"}, 0.5),
            ({"a"}, {"a"}, 1.0),
            ({"a"}, {"b", "c", "d"}, 0.0),
            (set(), set(), 1.0),
            (set(), {"a"}, 0.0),
        ],
    )
    def test_hand_values(self, left, right, expected):
        value = label_overlap_ratio(bool_rows(UNIVERSE, left), bool_rows(UNIVERSE, right))
        assert value.tolist() == [expected]
        assert value.tolist() == [set_ratio(left, right)]

    def test_universe_mismatch(self):
        with pytest.raises(ValidationError):
            label_overlap_ratio(np.zeros((1, 3), bool), np.zeros((1, 4), bool))

    def test_label_vectors_rejected(self):
        message = "labels_i must be a 2-D matrix of shape (any, any), got shape (4,)"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            label_overlap_ratio(np.ones(4, bool), np.ones(4, bool))

    @settings(max_examples=100, deadline=None)
    @given(
        left=st.sets(st.sampled_from(UNIVERSE)),
        right=st.sets(st.sampled_from(UNIVERSE)),
    )
    def test_matches_set_arithmetic(self, left, right):
        (value,) = label_overlap_ratio(bool_rows(UNIVERSE, left), bool_rows(UNIVERSE, right))
        assert value == set_ratio(left, right)
        assert 0.0 <= value <= 1.0


def uniform(n):
    return np.full(n, 1.0 / n)


def rng_from(seed):
    return np.random.Generator(np.random.PCG64(seed))


HEAVY_TAILED = rng_from(1).exponential(size=2000) ** 4


class CountingRng:
    """A generator that counts its ``random`` calls."""

    def __init__(self, seed):
        self.rng = rng_from(seed)
        self.calls = 0

    def random(self, size):
        self.calls += 1
        return self.rng.random(size)


class TestSampleConstraints:
    def test_theta_zero_routes_everything_to_must(self):
        # no pair can be a cannot-link, so one step fills the must-links
        ds = synthetic_dataset(12, 3, 3, seed=1)
        cfg = ConstraintConfig(theta=0.0, target_must=10, target_cannot=10)
        rng = CountingRng(0)
        sets = sample_constraints(ds, uniform(12), cfg, rng)
        assert sets.n_must == 10
        assert sets.n_cannot == 0
        assert rng.calls == 1

    def test_two_disjoint_instances(self):
        ds = MultiLabelDataset(
            np.array([[0.0], [1.0]]),
            np.array([[1, 0], [0, 1]], dtype=bool),
        )
        cfg = ConstraintConfig(theta=0.5, target_must=3, target_cannot=3)
        sets = sample_constraints(ds, uniform(2), cfg, rng_from(7))
        assert sets.n_must == 0
        assert sets.n_cannot == 3
        for i, j in sets.cannot:
            assert {i, j} == {0, 1}

    def test_four_instances_against_exhaustive_classifier(self):
        # label sets {a},{a},{b},{b}: classify all 12 ordered pairs by hand
        labels = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=bool)
        ds = MultiLabelDataset(np.arange(8, dtype=float).reshape(4, 2), labels)
        theta = 0.5
        oracle = {}
        for i in range(4):
            for j in range(4):
                if i != j:
                    members_i = {"a"} if labels[i, 0] else {"b"}
                    members_j = {"a"} if labels[j, 0] else {"b"}
                    oracle[(i, j)] = set_ratio(members_i, members_j) >= theta
        assert sum(oracle.values()) == 4  # same-label ordered pairs
        cfg = ConstraintConfig(theta=theta, target_must=4, target_cannot=4)
        sets = sample_constraints(ds, uniform(4), cfg, rng_from(13))
        assert sets.n_must == 4
        assert sets.n_cannot == 4
        for i, j in sets.must:
            assert oracle[(i, j)] is True
        for i, j in sets.cannot:
            assert oracle[(i, j)] is False

    def test_routing_invariant_fuzz(self):
        ds = synthetic_dataset(40, 3, 4, seed=5)
        for theta in (0.0, 0.3, 0.6, 1.0):
            cfg = ConstraintConfig(theta=theta, target_must=50, target_cannot=50)
            sets = sample_constraints(ds, uniform(40), cfg, rng_from(int(theta * 10)))
            assert np.all(label_overlap_ratio(ds.labels[sets.must[:, 0]], ds.labels[sets.must[:, 1]]) >= theta)
            assert np.all(label_overlap_ratio(ds.labels[sets.cannot[:, 0]], ds.labels[sets.cannot[:, 1]]) < theta)

    def test_deterministic_given_seed(self):
        ds = synthetic_dataset(20, 3, 3, seed=9)
        cfg = ConstraintConfig(theta=0.6, target_must=20, target_cannot=20)
        a = sample_constraints(ds, uniform(20), cfg, rng_from(123))
        b = sample_constraints(ds, uniform(20), cfg, rng_from(123))
        assert np.array_equal(a.must, b.must)
        assert np.array_equal(a.cannot, b.cannot)

    def test_weight_proportional_endpoints(self):
        # one index holds weight 1 - eps: its draw frequency tracks the weight
        n = 10
        eps = 0.01
        weights = np.full(n, eps / (n - 1))
        weights[3] = 1.0 - eps
        draws = 20_000
        u = rng_from(99).random(draws)
        idx = weighted_indices(weights, u)
        freq = np.mean(idx == 3)
        assert freq >= 0.97

    @pytest.mark.parametrize("weights", [
        pytest.param([0.0, 0.5, 0.0, 0.0, 0.5, 0.0], id="zero-weights"),
        pytest.param([0.0, 0.0, 1.0, 0.0], id="one-nonzero"),
        pytest.param(np.full(7, 1e-300), id="tiny-weights"),
        pytest.param(HEAVY_TAILED / HEAVY_TAILED.sum(), id="heavy-tailed"),
        pytest.param([0.3, 0.3, 0.4 - 1e-15], id="sum-below-one"),
        pytest.param([0.3, 0.3, 0.4 + 1e-15], id="sum-above-one"),
        pytest.param([1.0], id="n1"),
        pytest.param([0.25, 0.75], id="n2"),
    ])
    def test_weighted_indices_match_a_plain_search(self, weights):
        weights = np.asarray(weights, dtype=np.float64)
        cumw = np.cumsum(weights)
        # uniforms at 0, at each cumulative weight and its neighbours, and random
        u = np.concatenate([
            [0.0],
            np.nextafter(cumw, 0.0), cumw, np.nextafter(cumw, 1.0),
            rng_from(5).random(20_000),
        ])
        u = u[(u >= 0.0) & (u < 1.0)]
        expected = np.minimum(np.searchsorted(cumw, u, side="right"), len(cumw) - 1)
        assert np.array_equal(weighted_indices(weights, u), expected)

    def test_degenerate_single_weight_returns_empty(self):
        ds = synthetic_dataset(5, 2, 2, seed=4)
        weights = np.zeros(5)
        weights[2] = 1.0
        cfg = ConstraintConfig(theta=0.5, target_must=3, target_cannot=4)
        rng = rng_from(0)
        sets = sample_constraints(ds, weights, cfg, rng)
        assert sets.n_must == 0
        assert sets.n_cannot == 0
        # the whole budget was drawn: two uniforms for each of 50 * 7 attempts
        advanced = rng_from(0)
        advanced.random(2 * 50 * (3 + 4))
        assert rng.random() == advanced.random()

    def test_peak_memory_does_not_grow_with_the_attempt_budget(self):
        ds = synthetic_dataset(200, 5, 4, seed=2)
        weights = uniform(200)
        cfg = ConstraintConfig(theta=0.5, target_must=10_500, target_cannot=10_500)
        block = 2 * cfg.max_attempts * 8  # the whole budget's uniforms: 16 MB
        tracemalloc.start()
        try:
            sets = sample_constraints(ds, weights, cfg, rng_from(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (sets.n_must, sets.n_cannot) == (10_500, 10_500)
        assert peak < block // 4  # the steps drawn hold about a fifth

    def test_single_instance_rejected(self):
        ds = MultiLabelDataset(np.zeros((1, 1)), np.array([[True, False]]))
        cfg = ConstraintConfig(theta=0.5, target_must=1, target_cannot=1)
        with pytest.raises(ConfigError):
            sample_constraints(ds, np.ones(1), cfg, rng_from(0))

    def test_weights_must_sum_to_one(self):
        ds = synthetic_dataset(5, 2, 2, seed=4)
        cfg = ConstraintConfig(theta=0.5, target_must=2, target_cannot=2)
        with pytest.raises(ValidationError):
            sample_constraints(ds, np.full(5, 0.3), cfg, rng_from(0))


class TestConfigAndSets:
    def test_theta_range(self):
        with pytest.raises(ConfigError):
            ConstraintConfig(theta=1.2, target_must=1, target_cannot=1)

    def test_max_attempts_default(self):
        cfg = ConstraintConfig(theta=0.5, target_must=10, target_cannot=20)
        assert cfg.max_attempts == 50 * 30

    def test_max_attempts_is_not_a_setting(self):
        with pytest.raises(TypeError):
            ConstraintConfig(theta=0.5, target_must=10, target_cannot=20, max_attempts=5)
        with pytest.raises(TypeError):
            replace(ConstraintConfig(0.5, 10, 20), max_attempts=5)

    def test_self_pairs_rejected(self):
        with pytest.raises(ValidationError):
            PairConstraintSets(must=np.array([[2, 2]]), cannot=np.empty((0, 2), np.int64))
