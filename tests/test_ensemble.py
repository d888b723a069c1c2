import json
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from vpcme import _kernels
from vpcme.constraints import ConstraintConfig, sample_constraints
from vpcme.dataset import MultiLabelDataset, synthetic_dataset
from vpcme.ensemble import (
    VpcmeConfig,
    VpcmeModel,
    load_model,
    majority_vote,
    member_scores,
    predict_ensemble,
    save_model,
    train_single_mlknn,
    train_vpcme,
)
from vpcme.errors import ConfigError, ValidationError
from vpcme.harness import METHODS, ExperimentConfig, train_method
from vpcme.metrics import rank_from_scores
from vpcme.mlknn import MlknnModel, fit_mlknn, posterior_scores
from vpcme.projection import ProjectionModel, fit_projection, transform


def small_dataset(seed=0, n=40):
    return synthetic_dataset(n, 4, 3, seed=seed, label_noise=0.05)


def quick_cfg(**overrides):
    base = dict(ensemble_size=3, theta=0.6, k_neighbors=5, smoothing=1.0, seed=7)
    base.update(overrides)
    return VpcmeConfig(**base)


def state(obj):
    """Each field of a frozen type, an array as its (dtype, shape, bytes)."""
    def value(v):
        return (v.dtype, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
    return {f.name: value(getattr(obj, f.name)) for f in fields(obj)}


def drop_last_label_of_m1(arrays):
    """Member 1's tables for label 2 cut away: a member whose label count
    disagrees with the shared labels."""
    return {f"m1_{name}": arrays[f"m1_{name}"][:2] for name in ("prior_pos", "freq_pos", "freq_neg")}


@pytest.mark.parametrize("overrides, message", [
    ({"ensemble_size": 0}, "ensemble_size must be at least 1"),
    ({"theta": -0.1}, "theta must lie in [0, 1], got -0.1"),
    ({"theta": 1.5}, "theta must lie in [0, 1], got 1.5"),
    ({"seed": -1}, "seed must be a non-negative integer"),
    ({"k_neighbors": 0}, "k_neighbors must be at least 1"),
    ({"smoothing": 0.0}, "smoothing must be finite and positive, got 0.0"),
    ({"smoothing": -1.0}, "smoothing must be finite and positive, got -1.0"),
    ({"smoothing": float("nan")}, "smoothing must be finite and positive, got nan"),
    ({"smoothing": float("inf")}, "smoothing must be finite and positive, got inf"),
    ({"k_neighbors": 2.5}, "k_neighbors must be an integer, got 2.5"),
    ({"ensemble_size": 2.0}, "ensemble_size must be an integer, got 2.0"),
])
def test_config_range_checks(overrides, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        VpcmeConfig(**overrides)


def test_numpy_integer_settings_become_int_and_survive_a_round_trip(tmp_path):
    cfg = quick_cfg(ensemble_size=np.int64(2), k_neighbors=np.int32(5), seed=np.uint32(7))
    assert all(type(getattr(cfg, name)) is int for name in ("ensemble_size", "k_neighbors", "seed"))
    assert cfg == quick_cfg(ensemble_size=2)
    model = train_vpcme(small_dataset(), cfg)
    path = str(tmp_path / "model.npz")
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.config == cfg
    x = small_dataset(seed=1).features
    for want, got in zip(predict_ensemble(model, x), predict_ensemble(loaded, x)):
        assert np.array_equal(want, got)


def test_numpy_float_settings_become_float_and_survive_a_round_trip(tmp_path):
    cfg = quick_cfg(theta=np.float32(0.5), smoothing=np.float32(0.5))
    assert type(cfg.theta) is float and type(cfg.smoothing) is float
    assert cfg == quick_cfg(theta=0.5, smoothing=0.5)
    model = train_vpcme(small_dataset(), cfg)
    path = str(tmp_path / "model.npz")
    save_model(model, path)
    assert load_model(path).config == cfg


class TestTraining:
    def test_single_member_equals_manual_pipeline(self):
        ds = small_dataset()
        cfg = quick_cfg(ensemble_size=1)
        model = train_vpcme(ds, cfg)
        # rebuild the member by hand with the same derived stream
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, 0])))
        ccfg = ConstraintConfig(theta=cfg.theta, target_must=40, target_cannot=40)
        sets = sample_constraints(ds, np.full(40, 1 / 40), ccfg, rng)
        proj = fit_projection(ds, sets)
        classifier = fit_mlknn(
            transform(proj, ds.features), ds.labels, cfg.k_neighbors, cfg.smoothing
        )
        got_proj, got_classifier = model.members[0]
        assert np.array_equal(got_proj.w, proj.w)
        assert np.array_equal(got_classifier.freq_pos, classifier.freq_pos)
        query = ds.features[3][None]
        bip, scores = predict_ensemble(model, query)
        expect = posterior_scores(classifier, transform(proj, query))
        assert np.array_equal(scores, expect)
        assert np.array_equal(bip, expect > 0.5)

    def test_training_log_records_each_member(self):
        ds = small_dataset()
        model = train_vpcme(ds, quick_cfg())
        assert len(model.training_log) == 3
        for error_rate, dim, n_must, n_cannot in model.training_log:
            assert 0.0 <= error_rate <= 1.0
            assert 1 <= dim <= ds.feature_count
            assert 0 <= n_must <= ds.instance_count
            assert 0 <= n_cannot <= ds.instance_count

    def test_deterministic_models_and_predictions(self):
        ds = small_dataset()
        a = train_vpcme(ds, quick_cfg())
        b = train_vpcme(ds, quick_cfg())
        for (pa, ca), (pb, cb) in zip(a.members, b.members):
            assert np.array_equal(pa.w, pb.w)
            assert np.array_equal(ca.train_points, cb.train_points)
        qa = predict_ensemble(a, ds.features)
        qb = predict_ensemble(b, ds.features)
        assert np.array_equal(qa[0], qb[0])
        assert np.array_equal(qa[1], qb[1])

    @pytest.mark.parametrize("boosting", [True, False], ids=["vpcme", "bagging_vpcp"])
    def test_first_members_equal_a_smaller_ensemble(self, boosting):
        # member l's stream and weights do not depend on the ensemble size, so
        # the first s members of one large ensemble are an s-member ensemble
        ds, x = small_dataset(seed=5), small_dataset(seed=6).features
        big = train_vpcme(ds, quick_cfg(ensemble_size=5, boosting_enabled=boosting))
        scores = member_scores(big, x)
        for s in (1, 2, 4):
            small = train_vpcme(ds, quick_cfg(ensemble_size=s, boosting_enabled=boosting))
            assert big.training_log[:s] == small.training_log
            for (big_proj, _), (small_proj, _) in zip(big.members, small.members):
                assert big_proj.w.shape == small_proj.w.shape
                assert big_proj.w.tobytes() == small_proj.w.tobytes()
            prefix = replace(big, members=big.members[:s], config=small.config,
                             training_log=big.training_log[:s])
            for want, got in zip(predict_ensemble(small, x), predict_ensemble(prefix, x)):
                assert np.array_equal(want, got)
            for want, got in zip(predict_ensemble(small, x), majority_vote(scores[:s]), strict=True):
                assert (want.dtype, want.shape, want.tobytes()) == (got.dtype, got.shape, got.tobytes())

    @pytest.mark.parametrize("trainer", [train_vpcme, train_single_mlknn], ids=["vpcme", "mlknn_single"])
    def test_training_searches_once_per_member(self, monkeypatch, trainer):
        # each member's self-prediction reads its fit's neighbor table, so
        # the fit's search is the member's one search; afterwards the
        # training rows are a query like any other, one search per member
        ds = synthetic_dataset(80, 5, 3, seed=0)
        searched, knn = [], _kernels.knn

        def counted(train, queries, k):
            searched.append(len(queries))
            return knn(train, queries, k)

        monkeypatch.setattr(_kernels, "knn", counted)
        model = trainer(ds, quick_cfg())
        s = len(model.members)
        assert searched == [80] * s
        predict_ensemble(model, ds.features)
        assert searched == [80] * (2 * s)

    def test_too_few_instances_for_k(self):
        ds = small_dataset(n=5)
        with pytest.raises(ConfigError, match="^k_neighbors=5 must be smaller than the instance count 5$"):
            train_vpcme(ds, quick_cfg(k_neighbors=5))

    def test_must_link_shortfall_completes_with_cannot_links_only(self):
        # distinct non-empty label sets: every pair's overlap ratio is below 1,
        # so at theta = 1 no pair is must-linked
        rng = np.random.Generator(np.random.PCG64(17))
        labels = ((np.arange(1, 25)[:, None] >> np.arange(5)) & 1).astype(bool)
        ds = MultiLabelDataset(rng.normal(size=(24, 4)), labels)
        model = train_vpcme(ds, quick_cfg(theta=1.0))
        assert len(model.training_log) == 3
        for _, _, n_must, n_cannot in model.training_log:
            assert n_must == 0
            assert n_cannot == 24
        for proj, _ in model.members:
            assert proj.scaling_r == 1.0
        _, scores = predict_ensemble(model, ds.features)
        assert np.all(np.isfinite(scores))


class TestBoostingWeights:
    def reconstruct_weights(self, ds, cfg):
        """Replay the weight updates by retracing each member."""
        from vpcme.ensemble import _fit_member

        n = ds.instance_count
        weights = np.full(n, 1.0 / n)
        trajectory = [weights.copy()]
        for l in range(cfg.ensemble_size):
            _, mis, _ = _fit_member(ds, weights, cfg, l)
            rate = mis.mean()
            if cfg.boosting_enabled and rate > 0:
                weights = weights.copy()
                weights[mis] *= 1.0 + rate
                weights /= weights.sum()
            trajectory.append(weights.copy())
        return trajectory

    def test_members_follow_the_replayed_update(self):
        """Each trained member is the one built from weights replayed by the
        paper's rule: rows whose predicted label set differs from the true one
        are multiplied by (1 + error rate), then the weights renormalize."""
        from vpcme.ensemble import _fit_member

        base = small_dataset(seed=3)
        labels = base.labels.copy()
        labels[:2] = False  # empty label sets count as misses only if predicted non-empty
        ds = MultiLabelDataset(base.features, labels)
        cfg = quick_cfg(ensemble_size=4)
        model = train_vpcme(ds, cfg)
        n = ds.instance_count
        weights = np.full(n, 1.0 / n)
        rates = []
        for l, (proj, classifier) in enumerate(model.members):
            (want_proj, want_classifier), _, _ = _fit_member(ds, weights, cfg, l)
            assert np.array_equal(proj.w, want_proj.w)
            assert np.array_equal(classifier.freq_pos, want_classifier.freq_pos)
            pred = posterior_scores(classifier, transform(proj, ds.features)) > 0.5
            miss = np.any(pred != ds.labels, axis=1)
            rate = miss.mean()
            assert rate == model.training_log[l][0]
            rates.append(rate)
            if miss.any():
                weights = weights.copy()
                weights[miss] *= 1.0 + rate
                weights /= weights.sum()
        assert any(0.0 < rate < 1.0 for rate in rates[:-1])

    def test_weights_stay_normalized_and_nonnegative(self):
        ds = small_dataset(seed=3)
        for weights in self.reconstruct_weights(ds, quick_cfg(ensemble_size=4)):
            assert abs(weights.sum() - 1.0) < 1e-9
            assert np.all(weights >= 0.0)

    def test_bagging_keeps_uniform_weights(self):
        ds = small_dataset(seed=3)
        cfg = quick_cfg(ensemble_size=4, boosting_enabled=False)
        for weights in self.reconstruct_weights(ds, cfg):
            assert np.array_equal(weights, np.full(ds.instance_count, 1 / ds.instance_count))

    def test_misclassified_instances_gain_weight_share(self):
        from vpcme.ensemble import _fit_member

        ds = small_dataset(seed=5)
        cfg = quick_cfg(ensemble_size=1)
        n = ds.instance_count
        weights = np.full(n, 1.0 / n)
        _, mis, _ = _fit_member(ds, weights, cfg, 0)
        rate = mis.mean()
        assert 0.0 < rate < 1.0
        updated = weights.copy()
        updated[mis] *= 1.0 + rate
        updated /= updated.sum()
        assert np.all(updated[mis] > updated[~mis].max())

    def test_boosting_changes_later_members(self):
        ds = small_dataset(seed=11)
        boosted = train_vpcme(ds, quick_cfg(ensemble_size=4, boosting_enabled=True))
        bagged = train_vpcme(ds, quick_cfg(ensemble_size=4, boosting_enabled=False))
        # first member sees uniform weights either way
        assert np.array_equal(boosted.members[0][0].w, bagged.members[0][0].w)
        later_differ = any(
            boosted.members[i][0].w.shape != bagged.members[i][0].w.shape
            or not np.array_equal(boosted.members[i][0].w, bagged.members[i][0].w)
            for i in range(1, 4)
        )
        assert later_differ


class TestPrediction:
    def test_majority_two_of_three(self):
        ds = small_dataset(seed=13)
        model = train_vpcme(ds, quick_cfg(ensemble_size=3))
        x = ds.features[:10]
        member_votes = np.zeros((10, ds.label_count), dtype=int)
        member_scores = np.zeros((10, ds.label_count))
        for proj, classifier in model.members:
            s = posterior_scores(classifier, transform(proj, x))
            member_votes += s > 0.5
            member_scores += s
        bip, scores = predict_ensemble(model, x)
        assert np.array_equal(scores, member_scores / 3)
        assert np.array_equal(bip, member_votes >= 2)  # strict majority of 3

    def test_even_split_resolved_by_mean_score(self):
        ds = small_dataset(seed=17)
        model = train_vpcme(ds, quick_cfg(ensemble_size=2))
        x = ds.features
        votes = np.zeros((len(x), ds.label_count), dtype=int)
        total = np.zeros((len(x), ds.label_count))
        for proj, classifier in model.members:
            s = posterior_scores(classifier, transform(proj, x))
            votes += s > 0.5
            total += s
        mean = total / 2
        bip, _ = predict_ensemble(model, x)
        expected = (votes == 2) | ((votes == 1) & (mean > 0.5))
        assert np.array_equal(bip, expected)

    def test_majority_vote_breaks_an_exact_half_split_by_the_mean_score(self):
        # four members, one row: labels 0-2 split 2 to 2, with mean scores
        # 0.65, 0.35 and exactly 0.5; label 3 gets 3 votes of 4
        scores = [[[0.9, 0.6, 0.75, 0.9]], [[0.9, 0.6, 0.75, 0.9]],
                  [[0.4, 0.1, 0.25, 0.9]], [[0.4, 0.1, 0.25, 0.1]]]
        bip, mean = majority_vote(scores)
        assert bip.tolist() == [[True, False, False, True]]
        assert mean[0, 2] == 0.5
        assert np.allclose(mean, [[0.65, 0.35, 0.5, 0.7]])

    @pytest.mark.parametrize("seed", range(3))
    def test_majority_vote_equals_the_member_loop(self, seed):
        # the reference adds votes and scores up one member at a time. A
        # third of the stacks are rounded to 0.1, so exact half splits and
        # mean scores of 0.5 occur, and every fifth is 1 x 1, the shape a
        # plain stack.sum(axis=0) adds pairwise, out of list order.
        rng = np.random.default_rng(seed)
        for trial in range(300):
            s = int(rng.integers(1, 60))
            rows, labels = (1, 1) if trial % 5 == 0 else rng.integers(1, 8, size=2)
            stack = rng.random((s, rows, labels))
            if trial % 3 == 0:
                stack = np.round(stack, 1)
            votes = np.zeros((rows, labels), dtype=np.int64)
            total = np.zeros((rows, labels))
            for member in stack:
                votes += member > 0.5
                total += member
            mean = total / s
            bip, got = majority_vote(stack)
            assert np.array_equal(got, mean)
            assert np.array_equal(bip, (2 * votes > s) | ((2 * votes == s) & (mean > 0.5)))

    def test_single_member_identity(self):
        ds = small_dataset(seed=19)
        model = train_vpcme(ds, quick_cfg(ensemble_size=1))
        proj, classifier = model.members[0]
        for i in range(5):
            row = ds.features[i][None]
            bip, scores = predict_ensemble(model, row)
            member = posterior_scores(classifier, transform(proj, row))
            assert np.array_equal(scores, member)
            assert np.array_equal(bip, member > 0.5)

    # every function on the prediction path, called on an mlknn_single model,
    # whose one member projects through the identity
    @pytest.mark.parametrize("call", [
        lambda model, rows: transform(model.members[0][0], rows),
        lambda model, rows: posterior_scores(model.members[0][1], rows),
        predict_ensemble,
        lambda model, rows: rank_from_scores(rows),
    ], ids=["transform", "posterior_scores", "predict_ensemble", "rank_from_scores"])
    def test_takes_row_matrices_only(self, call):
        ds = small_dataset()
        model = train_single_mlknn(ds, quick_cfg())
        call(model, ds.features[:1])
        with pytest.raises(ValidationError, match="matrix"):
            call(model, ds.features[0])

    def test_width_mismatch(self):
        ds = small_dataset()
        model = train_vpcme(ds, quick_cfg(ensemble_size=1))
        with pytest.raises(ValidationError):
            predict_ensemble(model, np.zeros((1, ds.feature_count + 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        ds = small_dataset()
        model = train_vpcme(ds, quick_cfg(ensemble_size=1))
        queries = ds.features[:4].copy()
        queries[2, 1] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            predict_ensemble(model, queries)

    def test_scaler_standardizes_queries_before_the_members_see_them(self):
        ds = small_dataset(seed=21)
        model = train_vpcme(ds, quick_cfg(ensemble_size=3))
        mean = ds.features.mean(axis=0) + 0.25
        scale = ds.features.std(axis=0) * 1.5
        scaled = replace(model, scaler=(mean, scale))
        for raw in (ds.features[:9], ds.features[4][None]):
            bip_a, scores_a = predict_ensemble(scaled, raw)
            bip_b, scores_b = predict_ensemble(model, (raw - mean) / scale)
            assert scores_a.shape == scores_b.shape
            assert scores_a.tobytes() == scores_b.tobytes()
            assert np.array_equal(bip_a, bip_b)


class TestSingleMlknn:
    def test_identity_projection_member(self):
        ds = small_dataset(seed=23)
        model = train_single_mlknn(ds, quick_cfg())
        assert len(model.members) == 1
        proj, classifier = model.members[0]
        assert proj.reduced_dim == ds.feature_count
        assert np.array_equal(proj.w, np.eye(ds.feature_count))
        direct = fit_mlknn(ds.features, ds.labels, 5, 1.0)
        assert np.array_equal(classifier.freq_pos, direct.freq_pos)
        bip, scores = predict_ensemble(model, ds.features[:3])
        assert np.array_equal(scores, posterior_scores(direct, ds.features[:3]))

    def test_an_exact_half_training_score_counts_as_absent(self):
        # row 4's posterior of label 1 is exactly 0.5 and the row lacks the
        # label; under a ">= 0.5" member rule the error would be 4/6, not 3/6
        points = np.array([[0.0], [1.0], [2.0], [3.0], [6.0], [7.0]])
        labels = np.array([[1, 0], [0, 1], [0, 1], [0, 1], [0, 0], [1, 0]], dtype=bool)
        model = train_single_mlknn(MultiLabelDataset(points, labels), quick_cfg(k_neighbors=2))
        scores = posterior_scores(model.members[0][1], points)
        assert scores[4, 1] == 0.5 and not labels[4, 1]
        assert model.training_log[0][0] == np.mean(((scores > 0.5) != labels).any(axis=1)) == 0.5


class TestPersistence:
    @pytest.mark.parametrize("zscore", [False, True], ids=["plain", "zscore"])
    @pytest.mark.parametrize(
        "trainer", [train_vpcme, train_single_mlknn], ids=["vpcme", "mlknn_single"]
    )
    def test_loaded_members_rebuild_the_trained_points_bit_for_bit(self, tmp_path, trainer, zscore):
        ds = synthetic_dataset(300, 24, 5, seed=41, label_noise=0.05)
        if zscore:
            x = ds.features
            ds = MultiLabelDataset((x - x.mean(axis=0)) / x.std(axis=0), ds.labels)
        model = trainer(ds, quick_cfg(ensemble_size=4))
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.features.tobytes() == model.features.tobytes()
        for (_, trained), (_, rebuilt) in zip(model.members, loaded.members, strict=True):
            assert rebuilt.train_points.tobytes() == trained.train_points.tobytes()
            assert np.array_equal(rebuilt.train_labels, trained.train_labels)
        again = tmp_path / "again.npz"
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("zscore", [False, True], ids=["plain", "zscore"])
    @pytest.mark.parametrize("method", METHODS)
    def test_a_loaded_model_is_the_trained_model(self, tmp_path, method, zscore):
        # trained and loaded ensembles are one state: every member holds the
        # same arrays and no neighbor table, so any rows, the training rows
        # included, score through the one search path
        for seed in range(3):
            ds = synthetic_dataset(50 + 15 * seed, 6, 4, seed=seed, label_noise=0.05)
            fresh = synthetic_dataset(20, 6, 4, seed=seed + 10).features
            cfg = ExperimentConfig(method=method, ensemble_size=3, k_neighbors=4, zscore=zscore)
            model = train_method(cfg, ds, seed)
            save_model(model, tmp_path / "model.npz")
            loaded = load_model(tmp_path / "model.npz")
            for (proj, classifier), (got_proj, got_classifier) in zip(model.members, loaded.members, strict=True):
                assert classifier.train_neighbors is None and got_classifier.train_neighbors is None
                assert state(got_proj) == state(proj)
                assert state(got_classifier) == state(classifier)
            assert (loaded.config, loaded.training_log) == (model.config, model.training_log)
            assert loaded.features.tobytes() == model.features.tobytes()
            assert [a.tobytes() for a in loaded.scaler or ()] == [a.tobytes() for a in model.scaler or ()]
            assert (loaded.scaler is None) == (model.scaler is None) == (not zscore)
            for rows in (ds.features, fresh):
                for want, got in zip(predict_ensemble(model, rows), predict_ensemble(loaded, rows), strict=True):
                    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    def test_round_trip_bit_exact_predictions(self, tmp_path):
        ds = small_dataset(seed=29)
        model = train_vpcme(ds, quick_cfg())
        path = str(tmp_path / "model.npz")
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.scaler is None
        assert loaded.config == model.config
        assert loaded.training_log == model.training_log
        bip_a, scores_a = predict_ensemble(model, ds.features)
        bip_b, scores_b = predict_ensemble(loaded, ds.features)
        assert np.array_equal(scores_a, scores_b)
        assert np.array_equal(bip_a, bip_b)

    def test_scaler_round_trip(self, tmp_path):
        ds = small_dataset(seed=31)
        mean = ds.features.mean(axis=0)
        scale = ds.features.std(axis=0)
        model = replace(train_vpcme(ds, quick_cfg(ensemble_size=1)), scaler=(mean, scale))
        path = str(tmp_path / "model.npz")
        save_model(model, path)
        scaler = load_model(path).scaler
        assert np.array_equal(scaler[0], mean)
        assert np.array_equal(scaler[1], scale)

    def test_archive_with_an_out_of_range_setting_is_not_a_model(self, tmp_path):
        path = str(tmp_path / "model.npz")
        save_model(train_vpcme(small_dataset(seed=37), quick_cfg(ensemble_size=1)), path)
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        arrays["config"] = json.dumps(dict(json.loads(str(arrays["config"])), theta=5))
        np.savez(path, **arrays)
        message = f"{path}: not a vpcme-model/2 model file: theta must lie in [0, 1], got 5.0"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            load_model(path)


    def test_csv_is_not_a_model(self, tmp_path):
        path = str(tmp_path / "data.csv")
        with open(path, "w") as handle:
            handle.write("1.0,2.0,1,0\n")
        with pytest.raises(ValidationError, match=re.escape(f"{path}: not a vpcme-model/2 model file")):
            load_model(path)

    def test_npz_without_model_keys_is_not_a_model(self, tmp_path):
        path = str(tmp_path / "other.npz")
        np.savez(path, x=np.zeros(3))
        with pytest.raises(ValidationError, match=re.escape(f"{path}: not a vpcme-model/2 model file")):
            load_model(path)

    @pytest.mark.parametrize(
        "missing", ["m0_w", "m1_freq_neg", "training_log", "scaler_scale", "scaler_mean", "labels"]
    )
    def test_archive_missing_an_array_is_not_a_model(self, tmp_path, missing):
        ds = small_dataset(seed=33)
        path = str(tmp_path / "model.npz")
        scaler = (np.zeros(ds.feature_count), np.ones(ds.feature_count))
        save_model(replace(train_vpcme(ds, quick_cfg(ensemble_size=2)), scaler=scaler), path)
        with np.load(path) as data:
            kept = {key: data[key] for key in data.files if key != missing}
        np.savez(path, **kept)
        message = f"{path}: not a vpcme-model/2 model file, no '{missing}' array"
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_model(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda a: {"config": "not json"},
            lambda a: {"config": '{"ensemble_size": 2, "bogus": 1}'},
            lambda a: {"member_count": "x"},
            lambda a: {"member_count": np.float64(2.5)},
            lambda a: {"member_count": np.True_},
            lambda a: {"m0_w": np.ones(4)},
            lambda a: {"training_log": np.zeros((4, 2))},
            lambda a: {"training_log": a["training_log"] + [0.0, 0.5, 0.0, 0.0]},
            lambda a: {"training_log": a["training_log"] + [1.5, 0.0, 0.0, 0.0]},
            lambda a: {"scaler_scale": np.ones(2)},
            lambda a: {"scaler_scale": np.zeros(4)},
            lambda a: {"m0_prior_pos": np.full(5, 0.5)},
            drop_last_label_of_m1,
            # 30 counts moved from cell 0 to the last: the row sum holds
            lambda a: {"m0_freq_pos": a["m0_freq_pos"] + np.outer([1, 0, 0], [-30, 0, 0, 0, 0, 30])},
            lambda a: {"m0_scaling_r": np.array("2.5")},
            lambda a: {"m1_scaling_r": np.array(True)},
        ],
        ids=["config-not-json", "config-unknown-key", "member-count-not-int", "member-count-2.5",
             "member-count-true", "w-1d", "log-4x2", "log-half-a-dim", "log-error-above-1",
             "scale-2-of-4", "scale-zero", "prior-5-of-3", "m1-one-label-short",
             "m0-freq-pos-negative", "m0-scaling-r-string", "m1-scaling-r-true"],
    )
    def test_archive_with_a_malformed_array_is_not_a_model(self, tmp_path, edit):
        ds = small_dataset(seed=33)
        path = str(tmp_path / "model.npz")
        scaler = (ds.features.mean(axis=0), ds.features.std(axis=0))
        save_model(replace(train_vpcme(ds, quick_cfg(ensemble_size=2)), scaler=scaler), path)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        arrays.update(edit(arrays))
        np.savez(path, **arrays)
        message = f"{path}: not a vpcme-model/2 model file: "
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_model(path)

    def test_every_archive_it_loads_scores_within_the_unit_interval(self, tmp_path):
        # single-cell edits of a saved model: a count moved to another cell
        # of its row, so the row-sum checks cannot catch it, or a prior drawn
        # from [-1, 2]; load_model rejects the edit or the scores stay in [0, 1].
        # Each edit gets its own file: a rewrite of one path would wait on the
        # flush of the truncate before it
        ds = synthetic_dataset(80, 5, 3, seed=0)
        path = str(tmp_path / "model.npz")
        save_model(train_vpcme(ds, quick_cfg(ensemble_size=2)), path)
        with np.load(path) as data:
            saved = {key: data[key] for key in data.files}
        rng = np.random.Generator(np.random.PCG64(43))
        priors = [0.0, 1.0, np.nextafter(1.0, 2.0), *rng.uniform(-1.0, 2.0, 97)]
        outcomes = {"rejected": 0, "loaded": 0}
        for edit in range(300):
            name = "prior_pos" if edit < 100 else rng.choice(["freq_pos", "freq_neg"])
            key = f"m{rng.integers(2)}_{name}"
            arrays = dict(saved, **{key: saved[key].copy()})
            table, row = arrays[key], rng.integers(3)
            if edit < 100:
                table[row] = priors[edit]
            else:
                src, dst = rng.choice(table.shape[1], 2, replace=False)
                amount = rng.integers(1, table[row, src] + 40)
                table[row, src] -= amount
                table[row, dst] += amount
            path = str(tmp_path / f"model{edit}.npz")
            np.savez(path, **arrays)
            try:
                model = load_model(path)
            except ValidationError:
                outcomes["rejected"] += 1
                continue
            outcomes["loaded"] += 1
            for scores in (*member_scores(model, ds.features), predict_ensemble(model, ds.features)[1]):
                assert np.all((scores >= 0.0) & (scores <= 1.0)), (key, edit)
        assert min(outcomes.values()) > 50, outcomes


class TestModelValidation:
    def test_member_count_must_match_config(self):
        ds = small_dataset()
        model = train_vpcme(ds, quick_cfg(ensemble_size=2))
        with pytest.raises(ValidationError, match="member count must equal"):
            VpcmeModel(
                members=model.members[:1],
                config=model.config,
                training_log=model.training_log[:1],
                features=ds.features,
            )

    def test_dimension_mismatch_rejected(self):
        ds = small_dataset()
        model = train_vpcme(ds, quick_cfg(ensemble_size=1))
        _, classifier = model.members[0]
        wrong = ProjectionModel(
            w=np.eye(classifier.dim + 1),
            eigenvalues=np.zeros(classifier.dim + 1),
            scaling_r=1.0,
        )
        with pytest.raises(ValidationError, match="classifier dimension must match"):
            VpcmeModel(
                members=((wrong, classifier),),
                config=VpcmeConfig(ensemble_size=1),
                training_log=((0.0, 1, 0, 0),),
                features=ds.features,
            )

    def test_members_must_share_feature_and_label_counts(self):
        ds = small_dataset(seed=35)
        a = train_vpcme(ds, quick_cfg(ensemble_size=1))
        narrow = MultiLabelDataset(ds.features[:, :3], ds.labels)
        b = train_vpcme(narrow, quick_cfg(ensemble_size=1))
        fewer = MultiLabelDataset(ds.features, ds.labels[:, :2])
        c = train_vpcme(fewer, quick_cfg(ensemble_size=1))
        for other in (b, c):
            with pytest.raises(ValidationError, match="share their feature and label counts"):
                VpcmeModel(
                    members=a.members + other.members,
                    config=quick_cfg(ensemble_size=2),
                    training_log=a.training_log + other.training_log,
                    features=ds.features,
                )

    def test_features_and_member_settings_must_fit_the_members(self):
        ds = small_dataset(seed=43)
        model = train_vpcme(ds, quick_cfg(ensemble_size=1))
        message = f"features must be a 2-D matrix of shape {ds.features.shape}, got shape {ds.features[:-1].shape}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            replace(model, features=ds.features[:-1])
        with pytest.raises(ValidationError, match="features.*matrix"):
            replace(model, features=None)
        with pytest.raises(TypeError, match="features"):
            VpcmeModel(model.members, model.config, model.training_log)
        with pytest.raises(ValidationError, match="config's k_neighbors and smoothing"):
            replace(model, config=quick_cfg(ensemble_size=1, k_neighbors=4))
        with pytest.raises(ValidationError, match="config's k_neighbors and smoothing"):
            replace(model, config=quick_cfg(ensemble_size=1, smoothing=0.5))

    def test_training_log_needs_one_row_per_member(self):
        model = train_vpcme(small_dataset(seed=37), quick_cfg(ensemble_size=2))
        message = "training_log must be a 2-D matrix of shape (2, 4), got shape (1, 4)"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            replace(model, training_log=model.training_log[:1])

    LOG_RULE = "training_log rows must hold an error rate in [0, 1] and whole counts"

    @pytest.mark.parametrize("row,message", [
        (("x", None, 0, 0), "training_log must be a rectangular matrix of numbers"),
        ((0.5,), "training_log must be a rectangular matrix of numbers"),
        ((math.nan, 2, 3, 3), "training_log must hold entries in [0, inf), got nan"),
        ((0.5, -1, 3, 3), "training_log must hold entries in [0, inf), got -1.0"),
        ((0.5, 2, math.inf, 3), "training_log must hold entries in [0, inf), got inf"),
        ((1.5, 1, 1, 1), LOG_RULE),
        ((0.5, 2.5, 3, 3), LOG_RULE),
        ((0.5, 2, 3.7, 3), LOG_RULE),
        ((0.5, 2, 3, 1e-9), LOG_RULE),
    ])
    def test_training_log_is_a_finite_table_of_counts(self, row, message):
        model = train_vpcme(small_dataset(seed=37), quick_cfg(ensemble_size=2))
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            replace(model, training_log=(model.training_log[0], row))

    def test_training_log_rows_are_stored_as_float_and_ints(self, tmp_path):
        model = train_vpcme(small_dataset(seed=37), quick_cfg(ensemble_size=2))
        got = replace(model, training_log=np.array([[0.25, 2, 3, 4], [0.5, 1, 6, 7]])).training_log
        assert got == ((0.25, 2, 3, 4), (0.5, 1, 6, 7))
        assert [tuple(map(type, row)) for row in got] == [(float, int, int, int)] * 2
        path = str(tmp_path / "model.npz")
        save_model(model, path)
        assert repr(load_model(path).training_log) == repr(model.training_log)

    @pytest.mark.parametrize(
        "mean,scale",
        [
            (np.zeros(4), np.ones(3)),
            (np.zeros(5), np.ones(4)),
            (np.zeros(4), np.array([1.0, 0.0, 1.0, 1.0])),
            (np.zeros(4), np.array([1.0, -2.0, 1.0, 1.0])),
            (np.zeros(4), np.array([1.0, np.inf, 1.0, 1.0])),
            (np.array([0.0, np.nan, 0.0, 0.0]), np.ones(4)),
        ],
        ids=["scale-short", "mean-long", "scale-zero", "scale-negative", "scale-inf", "mean-nan"],
    )
    def test_scaler_must_fit_the_features(self, mean, scale):
        model = train_vpcme(small_dataset(seed=39), quick_cfg(ensemble_size=1))
        with pytest.raises(ValidationError, match="scaler"):
            replace(model, scaler=(mean, scale))
