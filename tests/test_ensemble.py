import re
from dataclasses import replace

import numpy as np
import pytest

from vpcme.constraints import ConstraintConfig, sample_constraints
from vpcme.dataset import MultiLabelDataset, synthetic_dataset
from vpcme.ensemble import (
    VpcmeConfig,
    VpcmeModel,
    load_model,
    predict_ensemble,
    save_model,
    train_single_mlknn,
    train_vpcme,
)
from vpcme.errors import ConfigError, ValidationError
from vpcme.mlknn import MlknnModel, fit_mlknn, posterior_scores
from vpcme.projection import ProjectionModel, fit_projection, transform


def small_dataset(seed=0, n=40):
    return synthetic_dataset(n, 4, 3, seed=seed, label_noise=0.05)


def quick_cfg(**overrides):
    base = dict(ensemble_size=3, theta=0.6, k_neighbors=5, smoothing=1.0, seed=7)
    base.update(overrides)
    return VpcmeConfig(**base)


def drop_last_label_of_m1(arrays):
    """Member 1's tables for label 2 cut away: a member whose label count
    disagrees with the shared labels."""
    return {f"m1_{name}": arrays[f"m1_{name}"][:2] for name in ("prior_pos", "freq_pos", "freq_neg")}


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
        query = ds.features[3]
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

    def test_too_few_instances_for_k(self):
        ds = small_dataset(n=5)
        with pytest.raises(ConfigError):
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

    def test_single_member_identity(self):
        ds = small_dataset(seed=19)
        model = train_vpcme(ds, quick_cfg(ensemble_size=1))
        proj, classifier = model.members[0]
        for i in range(5):
            bip, scores = predict_ensemble(model, ds.features[i])
            member = posterior_scores(classifier, transform(proj, ds.features[i]))
            assert np.array_equal(scores, member)
            assert np.array_equal(bip, member > 0.5)

    def test_width_mismatch(self):
        ds = small_dataset()
        model = train_vpcme(ds, quick_cfg(ensemble_size=1))
        with pytest.raises(ValidationError):
            predict_ensemble(model, np.zeros(ds.feature_count + 1))

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
        for raw in (ds.features[:9], ds.features[4]):
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
            lambda a: {"m0_w": np.ones(4)},
            lambda a: {"training_log": np.zeros((4, 2))},
            lambda a: {"scaler_scale": np.ones(2)},
            lambda a: {"scaler_scale": np.zeros(4)},
            lambda a: {"m0_prior_pos": np.full(5, 0.5)},
            drop_last_label_of_m1,
        ],
        ids=["config-not-json", "config-unknown-key", "member-count-not-int", "w-1d", "log-4x2",
             "scale-2-of-4", "scale-zero", "prior-5-of-3", "m1-one-label-short"],
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


class TestModelValidation:
    def test_member_count_must_match_config(self):
        ds = small_dataset()
        model = train_vpcme(ds, quick_cfg(ensemble_size=2))
        with pytest.raises(ValidationError):
            VpcmeModel(
                members=model.members[:1],
                config=model.config,
                training_log=model.training_log[:1],
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
        with pytest.raises(ValidationError):
            VpcmeModel(
                members=((wrong, classifier),),
                config=VpcmeConfig(ensemble_size=1),
                training_log=((0.0, 1, 0, 0),),
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
                )

    def test_features_and_member_settings_must_fit_the_members(self):
        ds = small_dataset(seed=43)
        model = train_vpcme(ds, quick_cfg(ensemble_size=1))
        with pytest.raises(ValidationError, match="features must have one row per training row"):
            replace(model, features=ds.features[:-1])
        with pytest.raises(ValidationError, match="config's k_neighbors and smoothing"):
            replace(model, config=quick_cfg(ensemble_size=1, k_neighbors=4))
        with pytest.raises(ValidationError, match="config's k_neighbors and smoothing"):
            replace(model, config=quick_cfg(ensemble_size=1, smoothing=0.5))

    def test_training_log_needs_one_row_per_member(self):
        model = train_vpcme(small_dataset(seed=37), quick_cfg(ensemble_size=2))
        with pytest.raises(ValidationError, match="one row per member"):
            replace(model, training_log=model.training_log[:1])

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
