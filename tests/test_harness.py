import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as scipy_stats

from vpcme import harness
from vpcme._ttable import CRITICAL_001, NORMAL_QUANTILE_0995, critical_value
from vpcme.dataset import MultiLabelDataset, synthetic_dataset
from vpcme.ensemble import VpcmeConfig
from vpcme.errors import ConfigError, ValidationError
from vpcme.harness import (
    EvaluationReport,
    ExperimentConfig,
    SweepSpec,
    compare_methods,
    cross_validate,
    paired_t_test,
    run_sweep,
)
from vpcme.metrics import METRIC_NAMES


def sign_dataset(n=300, features=3, seed=0, margin=0.2):
    """Labels are the feature signs; the margin keeps classes separable."""
    rng = np.random.Generator(np.random.PCG64(seed))
    signs = rng.choice([-1.0, 1.0], size=(n, features))
    x = signs * (margin + np.abs(rng.normal(size=(n, features))))
    return MultiLabelDataset(x, x > 0.0)


class TestPairedTTest:
    def test_identical_series(self):
        result = paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.t == 0.0
        assert not result.significant

    def test_hand_computed_statistic(self):
        # differences (1, 2, 3): mean 2, sd 1, t = 2 / (1/sqrt(3))
        result = paired_t_test([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])
        assert result.t == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-12)
        assert result.df == 2
        assert not result.significant  # critical value at df=2 is 9.9248

    def test_zero_variance_nonzero_mean_is_significant(self):
        result = paired_t_test([1.5, 2.5, 3.5], [1.0, 2.0, 3.0])
        assert result.significant
        assert math.isinf(result.t)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            paired_t_test([1.0, 2.0], [1.0])

    def test_too_short(self):
        with pytest.raises(ValidationError):
            paired_t_test([1.0], [2.0])

    def test_agrees_with_scipy_on_random_series(self):
        rng = np.random.Generator(np.random.PCG64(4))
        for _ in range(50):
            n = int(rng.integers(3, 40))
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            ours = paired_t_test(a, b)
            ref = scipy_stats.ttest_rel(a, b)
            assert ours.t == pytest.approx(ref.statistic, rel=1e-9)
            assert ours.significant == (ref.pvalue < 0.01)


class TestCriticalTable:
    def test_matches_scipy_quantiles(self):
        for df in range(1, 201):
            want = scipy_stats.t.ppf(0.995, df)
            assert critical_value(df) == pytest.approx(want, abs=5e-5)

    def test_beyond_table_matches_scipy_quantiles(self):
        # the Cornish-Fisher expansion, not the normal quantile 2.5758 that
        # df 201's 2.6005 would make anti-conservative
        for df in range(201, 5001):
            want = scipy_stats.t.ppf(0.995, df)
            assert critical_value(df) == pytest.approx(want, abs=5e-5)
        assert critical_value(10_000) > NORMAL_QUANTILE_0995

    def test_table_is_decreasing(self):
        assert list(CRITICAL_001) == sorted(CRITICAL_001, reverse=True)


@pytest.mark.parametrize("overrides, message", [
    ({"folds": 1}, "folds must be at least 2"),
    ({"repeats": 0}, "repeats must be at least 1"),
    ({"k_neighbors": 0}, "k_neighbors must be at least 1"),
    ({"smoothing": 0.0}, "smoothing must be finite and positive, got 0.0"),
    ({"smoothing": -1.0}, "smoothing must be finite and positive, got -1.0"),
    ({"smoothing": math.nan}, "smoothing must be finite and positive, got nan"),
    ({"smoothing": math.inf}, "smoothing must be finite and positive, got inf"),
    ({"method": "xgboost"}, f"method must be one of {harness.METHODS}, got 'xgboost'"),
    ({"theta": 1.5}, "theta must lie in [0, 1], got 1.5"),
    ({"ensemble_size": 0}, "ensemble_size must be at least 1"),
    ({"seed": -1}, "seed must be a non-negative integer"),
    ({"k_neighbors": 2.5}, "k_neighbors must be an integer, got 2.5"),
])
def test_experiment_config_range_checks(overrides, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(**overrides)


def test_member_defaults_come_from_the_member_config():
    cfg = ExperimentConfig()
    assert cfg.member_config(cfg.seed) == VpcmeConfig()
    assert ExperimentConfig(method="bagging_vpcp").member_config(3) == VpcmeConfig(
        seed=3, boosting_enabled=False
    )


@pytest.mark.parametrize("method", ["vpcme", "bagging_vpcp"])
def test_train_method_trains_with_the_member_config(method):
    cfg = ExperimentConfig(method=method, theta=0.4, ensemble_size=2, k_neighbors=4, smoothing=0.5)
    ds = synthetic_dataset(30, 3, 3, seed=5, label_noise=0.1)
    assert harness.train_method(cfg, ds, 11).config == cfg.member_config(11)


class TestCrossValidate:
    def test_single_mlknn_learns_sign_labels(self):
        ds = sign_dataset(n=300, features=3, seed=1)
        cfg = ExperimentConfig(method="mlknn_single", folds=5, repeats=1, seed=3)
        report = cross_validate(cfg, dataset=ds)
        assert report.metrics["hamming_loss"].mean < 0.05

    def test_deterministic_reports(self):
        ds = synthetic_dataset(60, 3, 3, seed=5, label_noise=0.1)
        cfg = ExperimentConfig(method="vpcme", ensemble_size=2, k_neighbors=5,
                               folds=3, repeats=2, seed=11)
        a = cross_validate(cfg, dataset=ds)
        b = cross_validate(cfg, dataset=ds)
        assert a.to_dict() == b.to_dict()

    def test_unit_count_is_folds_times_repeats(self):
        ds = synthetic_dataset(50, 3, 3, seed=6)
        cfg = ExperimentConfig(method="mlknn_single", k_neighbors=5,
                               folds=4, repeats=3, seed=0)
        report = cross_validate(cfg, dataset=ds)
        assert len(report.units) == 12
        assert all(len(v) == 12 for v in report.unit_values.values())
        assert report.protocol["reshuffle_per_repeat"] is True

    def test_more_folds_than_instances_rejected(self):
        ds = synthetic_dataset(12, 3, 3, seed=7)
        cfg = ExperimentConfig(method="mlknn_single", k_neighbors=1, folds=13, repeats=1)
        with pytest.raises(ConfigError, match="^cannot split 12 instances into 13 folds$"):
            cross_validate(cfg, dataset=ds)

    def test_fold_too_small_rejected_by_the_mlknn_size_rule(self):
        # 12 rows in 6 folds train on 10: fit_mlknn, the rule's one owner,
        # stops the first fold unit
        ds = synthetic_dataset(12, 3, 3, seed=7)
        cfg = ExperimentConfig(method="mlknn_single", k_neighbors=10,
                               folds=6, repeats=1, seed=0)
        with pytest.raises(ConfigError, match="^k_neighbors=10 must be smaller than the instance count 10$"):
            cross_validate(cfg, dataset=ds)

    def test_only_the_first_fold_too_small_reports_its_own_rows(self):
        # 13 rows in 6 folds: fold 0 tests on 3 and trains on 10, the others
        # train on 11, so only unit 0 breaks k_neighbors=10
        ds = synthetic_dataset(13, 3, 3, seed=7)
        cfg = ExperimentConfig(method="mlknn_single", k_neighbors=10,
                               folds=6, repeats=1, seed=0)
        with pytest.raises(ConfigError, match="^k_neighbors=10 must be smaller than the instance count 10$"):
            cross_validate(cfg, dataset=ds)

    def test_zscore_changes_results_on_skewed_scales(self):
        rng = np.random.Generator(np.random.PCG64(8))
        x = rng.normal(size=(80, 3))
        x[:, 0] *= 1000.0
        y = np.stack([x[:, 0] > 0, x[:, 1] > 0], axis=1)
        ds = MultiLabelDataset(x, y)
        base = ExperimentConfig(method="mlknn_single", k_neighbors=5, folds=4,
                                repeats=1, seed=2)
        plain = cross_validate(base, dataset=ds)
        scaled_cfg = ExperimentConfig(method="mlknn_single", k_neighbors=5, folds=4,
                                      repeats=1, seed=2, zscore=True)
        scaled = cross_validate(scaled_cfg, dataset=ds)
        # feature 1 only matters after rescaling; hamming must improve
        assert scaled.metrics["hamming_loss"].mean < plain.metrics["hamming_loss"].mean

    def test_empty_label_sets_flow_through(self):
        # a sprinkle of unlabeled instances must only show up as skip counts
        rng = np.random.Generator(np.random.PCG64(42))
        ds_full = synthetic_dataset(80, 3, 3, seed=42)
        labels = ds_full.labels.copy()
        labels[rng.choice(80, size=12, replace=False)] = False
        ds = MultiLabelDataset(ds_full.features, labels)
        cfg = ExperimentConfig(method="vpcme", ensemble_size=2, k_neighbors=5,
                               folds=4, repeats=1, seed=1)
        report = cross_validate(cfg, dataset=ds)
        assert report.metrics["one_error"].skipped > 0
        assert report.metrics["hamming_loss"].skipped == 0
        for name in ("hamming_loss", "ranking_loss", "one_error"):
            assert 0.0 <= report.metrics[name].mean <= 1.0

    def test_zscore_constant_feature_guard(self):
        rng = np.random.Generator(np.random.PCG64(3))
        x = rng.normal(size=(60, 3))
        x[:, 2] = 4.25  # zero variance in every training fold
        y = np.stack([x[:, 0] > 0, x[:, 1] > 0], axis=1)
        ds = MultiLabelDataset(x, y)
        cfg = ExperimentConfig(method="mlknn_single", k_neighbors=5, folds=3,
                               repeats=1, seed=0, zscore=True)
        report = cross_validate(cfg, dataset=ds)
        assert np.isfinite(report.metrics["hamming_loss"].mean)


class TestRunSweep:
    def test_degenerate_thetas_complete(self):
        ds = synthetic_dataset(40, 3, 3, seed=9)
        cfg = ExperimentConfig(method="vpcme", ensemble_size=2, k_neighbors=5,
                               folds=2, repeats=1, seed=0)
        results = run_sweep(cfg, SweepSpec("theta", (0.0, 1.0)), dataset=ds)
        assert [v for v, _ in results] == [0.0, 1.0]
        for _, report in results:
            assert isinstance(report, EvaluationReport)

    def test_size_sweep_tags_values(self):
        ds = synthetic_dataset(40, 3, 3, seed=10)
        cfg = ExperimentConfig(method="vpcme", k_neighbors=5, folds=2, repeats=1, seed=0)
        results = run_sweep(cfg, SweepSpec("ensemble_size", (1, 10)), dataset=ds)
        assert [v for v, _ in results] == [1, 10]

    @pytest.mark.parametrize("zscore", [False, True], ids=["raw", "zscore"])
    @pytest.mark.parametrize("method", harness.METHODS)
    def test_size_sweep_trains_each_fold_unit_once(self, method, zscore, monkeypatch):
        # one training and one scoring per (repeat, fold) at the largest size,
        # not one per size; every size's report is the one cross_validate
        # gives at that size
        ds = synthetic_dataset(45, 3, 3, seed=11, label_noise=0.1)
        cfg = ExperimentConfig(method=method, k_neighbors=5, folds=3, repeats=2, seed=4, zscore=zscore)
        sizes = (3, 1, 4, 3)
        trained, scored = [], []
        train_method, member_scores = harness.train_method, harness.member_scores

        def spy_train(cfg, train_ds, seed):
            trained.append(cfg.ensemble_size)
            return train_method(cfg, train_ds, seed)

        def spy_scores(model, x):
            scored.append(len(model.members))
            return member_scores(model, x)

        monkeypatch.setattr(harness, "train_method", spy_train)
        monkeypatch.setattr(harness, "member_scores", spy_scores)
        results = run_sweep(cfg, SweepSpec("ensemble_size", sizes), dataset=ds)
        units = cfg.folds * cfg.repeats
        assert trained == [4] * units
        assert scored == [1 if method == "mlknn_single" else 4] * units
        monkeypatch.undo()
        assert [value for value, _ in results] == list(sizes)
        for value, report in results:
            want = cross_validate(replace(cfg, ensemble_size=value), dataset=ds)
            assert json.dumps(report.to_dict()) == json.dumps(want.to_dict())

    def test_default_value_lists(self):
        assert SweepSpec("theta").values == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
        assert SweepSpec("ensemble_size").values == (1, 10, 20, 30, 40, 50)

    def test_invalid_sweep_values(self):
        with pytest.raises(ConfigError):
            SweepSpec("theta", (1.5,))
        with pytest.raises(ConfigError):
            SweepSpec("ensemble_size", (0,))
        with pytest.raises(ConfigError):
            SweepSpec("learning_rate", (0.1,))
        with pytest.raises(ConfigError, match="^sweep needs at least one value$"):
            SweepSpec("theta", ())


class TestCompareMethods:
    CFG = ExperimentConfig(ensemble_size=2, k_neighbors=5, folds=3, repeats=2, seed=21)

    def test_three_methods_aligned(self):
        ds = synthetic_dataset(60, 3, 3, seed=12, label_noise=0.1)
        comparison = compare_methods(self.CFG, ("vpcme", "bagging_vpcp", "mlknn_single"), dataset=ds)
        assert comparison["methods"] == ["vpcme", "bagging_vpcp", "mlknn_single"]
        assert comparison["reference"] == "vpcme"
        for metric, row in comparison["tests"].items():
            assert set(row) == {"bagging_vpcp", "mlknn_single"}
            for cell in row.values():
                assert cell["marker"] in ("win", "loss", "tie")

    def test_method_against_itself_all_ties(self):
        ds = synthetic_dataset(50, 3, 3, seed=13)
        # same method twice is rejected; bagging with boosting disabled uses
        # identical member streams only when weights match, so compare a
        # method against itself through two distinct names is not possible;
        # instead check that identical unit series never flag significance
        comparison = compare_methods(self.CFG, ("vpcme", "bagging_vpcp"), dataset=ds)
        report = comparison["reports"]["vpcme"]
        for name, values in report.unit_values.items():
            result = paired_t_test(values, values)
            assert not result.significant

    def test_each_method_runs_with_the_shared_config(self, monkeypatch):
        seen = []

        def spy(cfg, ds):
            seen.append(cfg)
            return cross_validate(cfg, ds)

        monkeypatch.setattr(harness, "cross_validate", spy)
        ds = synthetic_dataset(50, 3, 3, seed=13)
        cfg = replace(self.CFG, method="mlknn_single", zscore=True)
        compare_methods(cfg, ("bagging_vpcp", "vpcme"), dataset=ds)
        assert seen == [replace(cfg, method="bagging_vpcp"), replace(cfg, method="vpcme")]

    def test_duplicate_methods_rejected(self, monkeypatch):
        # before any cross-validation runs, also after a distinct method; so
        # are an unknown method and a single one
        calls = []
        monkeypatch.setattr(harness, "cross_validate", lambda *args: calls.append(args))
        ds = synthetic_dataset(50, 3, 3, seed=13)
        for methods in (("vpcme", "vpcme"), ("vpcme", "bagging_vpcp", "vpcme")):
            with pytest.raises(ConfigError, match="duplicate method 'vpcme'"):
                compare_methods(self.CFG, methods, dataset=ds)
        with pytest.raises(ConfigError, match="method must be one of .*, got 'boosted'"):
            compare_methods(self.CFG, ("vpcme", "boosted"), dataset=ds)
        with pytest.raises(ConfigError, match="^compare_methods needs at least two methods$"):
            compare_methods(self.CFG, ("vpcme",), dataset=ds)
        assert calls == []

    @pytest.mark.parametrize("metric, reference_higher, marker", [
        ("hamming_loss", True, "loss"),
        ("hamming_loss", False, "win"),
        ("average_precision", True, "win"),
        ("average_precision", False, "loss"),
    ])
    def test_markers_read_from_the_reference(self, monkeypatch, metric, reference_higher, marker):
        # fixed unit values, the higher series ahead by about 0.1 in each of
        # four units: t is about 24, far past the 0.01 critical value for df 3
        high, low = (0.30, 0.31, 0.32, 0.33), (0.20, 0.22, 0.21, 0.23)

        def fake_cross_validate(cfg, ds):
            values = high if (cfg.method == "vpcme") == reference_higher else low
            return EvaluationReport({}, {name: values for name in METRIC_NAMES}, ())

        monkeypatch.setattr(harness, "cross_validate", fake_cross_validate)
        comparison = compare_methods(self.CFG, ("vpcme", "mlknn_single"),
                                     dataset=synthetic_dataset(50, 3, 3, seed=13))
        cell = comparison["tests"][metric]["mlknn_single"]
        assert cell["significant"]
        assert cell["marker"] == marker

    @pytest.mark.parametrize("reference_higher, marker", [(True, "loss"), (False, "win")])
    def test_constant_difference_markers(self, monkeypatch, reference_higher, marker):
        # every unit differs by exactly 0.25: zero variance, t = ±inf
        high, low = (0.5, 0.75, 1.0), (0.25, 0.5, 0.75)

        def fake_cross_validate(cfg, ds):
            values = high if (cfg.method == "vpcme") == reference_higher else low
            return EvaluationReport({}, {name: values for name in METRIC_NAMES}, ())

        monkeypatch.setattr(harness, "cross_validate", fake_cross_validate)
        comparison = compare_methods(self.CFG, ("vpcme", "mlknn_single"),
                                     dataset=synthetic_dataset(50, 3, 3, seed=13))
        cell = comparison["tests"]["hamming_loss"]["mlknn_single"]
        assert math.isinf(cell["t"]) and cell["significant"]
        assert cell["marker"] == marker

    def test_vpcme_ranking_loss_not_worse_than_single(self):
        ds = synthetic_dataset(120, 4, 3, seed=14, label_noise=0.1)
        cfg = replace(self.CFG, ensemble_size=10, repeats=3, seed=5)
        comparison = compare_methods(cfg, ("vpcme", "mlknn_single"), dataset=ds)
        vpcme_rl = comparison["reports"]["vpcme"].metrics["ranking_loss"].mean
        single_rl = comparison["reports"]["mlknn_single"].metrics["ranking_loss"].mean
        assert vpcme_rl <= single_rl + 0.01
