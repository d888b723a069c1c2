"""Count, size and seed arguments follow one rule at every public entry point:
a Python or numpy integer of at least the entry's minimum, stored as
``int``; bools, strings, None and floats (integral ones, NaN and the
infinities included) raise ``ConfigError``. Threshold and smoothing
arguments follow another: a Python or numpy real in the entry's range,
stored as ``float``; bools, strings and None raise ``ConfigError``. Bool
settings take a Python or numpy bool, stored as ``bool``, and nothing
else. Array arguments (matrices, vectors and tables) take a rectangular
array of numbers with the entry's number of dimensions and fixed sizes,
finite where the entry says so, integers where it wants integers and 0/1
where it wants bools, and raise ``ValidationError`` otherwise."""

import json
import math
import re
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpcme import (
    ConstraintConfig,
    ExperimentConfig,
    FoldAssignment,
    MultiLabelDataset,
    PairConstraintSets,
    ProjectionModel,
    SweepSpec,
    VpcmeConfig,
    f1_metric,
    fit_mlknn,
    hamming_loss,
    kfold_split,
    label_overlap_ratio,
    load_csv,
    load_features,
    load_model,
    majority_vote,
    paired_t_test,
    posterior_scores,
    predict_ensemble,
    rank_from_scores,
    ranking_loss,
    recall,
    sample_constraints,
    save_csv,
    save_model,
    scatter_matrices,
    symmetric_eigen,
    synthetic_dataset,
    train_single_mlknn,
    transform,
)
from vpcme._ttable import critical_value
from vpcme.cli import main
from vpcme.errors import (
    ConfigError,
    ValidationError,
    checked_array,
    checked_bool,
    checked_float,
    checked_int,
    frozen_array,
)

POINTS = np.arange(16, dtype=np.float64).reshape(8, 2) ** 1.5
LABELS = np.array([[i % 2 == 0, i % 3 == 0] for i in range(8)])
CSV_WIDTH = 6


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    """Four rows of six 0/1 cells: any label count below six splits it."""
    path = tmp_path_factory.mktemp("arguments") / "bits.csv"
    path.write_text("".join(f"{i % 2},1,0,{i // 2},1,{(i + 1) % 2}\n" for i in range(4)), encoding="utf-8")
    return str(path)


# entry point -> (minimum, call); the call returns the value as the entry
# point stored or used it
ENTRY_POINTS = {
    "VpcmeConfig.ensemble_size": (1, lambda v, _: VpcmeConfig(ensemble_size=v).ensemble_size),
    "VpcmeConfig.k_neighbors": (1, lambda v, _: VpcmeConfig(k_neighbors=v).k_neighbors),
    "VpcmeConfig.seed": (0, lambda v, _: VpcmeConfig(seed=v).seed),
    "ExperimentConfig.ensemble_size": (1, lambda v, _: ExperimentConfig(ensemble_size=v).ensemble_size),
    "ExperimentConfig.k_neighbors": (1, lambda v, _: ExperimentConfig(k_neighbors=v).k_neighbors),
    "ExperimentConfig.seed": (0, lambda v, _: ExperimentConfig(seed=v).seed),
    "ExperimentConfig.folds": (2, lambda v, _: ExperimentConfig(folds=v).folds),
    "ExperimentConfig.repeats": (1, lambda v, _: ExperimentConfig(repeats=v).repeats),
    "SweepSpec.values": (1, lambda v, _: SweepSpec("ensemble_size", (v,)).values[0]),
    "ConstraintConfig.target_must": (0, lambda v, _: ConstraintConfig(0.5, v, 3).target_must),
    "ConstraintConfig.target_cannot": (0, lambda v, _: ConstraintConfig(0.5, 3, v).target_cannot),
    "kfold_split.n": (2, lambda v, _: kfold_split(v, 2, 0).fold_of_instance.size),
    "kfold_split.folds": (2, lambda v, _: int(kfold_split(40, v, 0).fold_of_instance.max()) + 1),
    "fit_mlknn.k_neighbors": (1, lambda v, _: fit_mlknn(POINTS, LABELS, v).k_neighbors),
    "load_features.label_count": (0, lambda v, path: load_features(path, v)[1].shape[1]),
    "load_csv.label_count": (2, lambda v, path: load_csv(path, v).label_count),
    "synthetic_dataset.n": (1, lambda v, _: synthetic_dataset(v, 2, 2, seed=0).instance_count),
    "synthetic_dataset.features": (1, lambda v, _: synthetic_dataset(3, v, 2, seed=0).feature_count),
    "synthetic_dataset.labels": (2, lambda v, _: synthetic_dataset(3, 2, v, seed=0).label_count),
}

SMALL = st.integers(-2, CSV_WIDTH - 1)
VALUES = st.one_of(
    SMALL,
    SMALL.map(np.int32),
    SMALL.map(np.int64),
    SMALL.map(float),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.booleans(),
    st.sampled_from(["3", "", None]),
)


@settings(max_examples=300, deadline=None)
@given(entry=st.sampled_from(sorted(ENTRY_POINTS)), value=VALUES)
def test_integer_arguments_follow_one_rule(csv_path, entry, value):
    minimum, call = ENTRY_POINTS[entry]
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if entry == "load_csv.label_count" and integer and 0 <= value < 2:
        # load_csv's own rule, checked after the integer rule
        with pytest.raises(ValidationError, match="^dataset needs at least two label columns$"):
            call(value, csv_path)
    elif not integer or value < minimum:
        with pytest.raises(ConfigError):
            call(value, csv_path)
    else:
        got = call(value, csv_path)
        assert got == value and type(got) is int


# entry point -> (range, call); the call returns the value as the entry point
# stored or used it
def unit_range(v):
    return 0.0 <= v <= 1.0


def synthetic_float(name, v):
    """float(v), once synthetic_dataset has drawn with ``name=v`` what it draws with float(v)."""
    got = synthetic_dataset(6, 2, 2, seed=0, **{name: v})
    want = synthetic_dataset(6, 2, 2, seed=0, **{name: float(v)})
    assert np.array_equal(got.features, want.features) and np.array_equal(got.labels, want.labels)
    return float(v)


def smoothing_range(v, k):
    """Finite and at least the smallest normal float, with smoothing * (k + 1) finite."""
    return math.isfinite(v) and v >= np.finfo(np.float64).tiny and math.isfinite(v * (k + 1))


DEFAULT_K = VpcmeConfig.k_neighbors
FLOAT_ENTRY_POINTS = {
    "VpcmeConfig.theta": (unit_range, lambda v: VpcmeConfig(theta=v).theta),
    "VpcmeConfig.smoothing": (lambda v: smoothing_range(v, DEFAULT_K),
                              lambda v: VpcmeConfig(smoothing=v).smoothing),
    "ExperimentConfig.theta": (unit_range, lambda v: ExperimentConfig(theta=v).theta),
    "ExperimentConfig.smoothing": (lambda v: smoothing_range(v, DEFAULT_K),
                                   lambda v: ExperimentConfig(smoothing=v).smoothing),
    "ConstraintConfig.theta": (unit_range, lambda v: ConstraintConfig(v, 1, 1).theta),
    "SweepSpec.values": (unit_range, lambda v: SweepSpec("theta", (v,)).values[0]),
    "fit_mlknn.smoothing": (lambda v: smoothing_range(v, 2),
                            lambda v: fit_mlknn(POINTS, LABELS, 2, v).smoothing),
    "synthetic_dataset.label_noise": (unit_range, lambda v: synthetic_float("label_noise", v)),
}

UNIT = st.floats(-0.5, 1.5)
FLOAT_VALUES = st.one_of(
    UNIT,
    UNIT.map(np.float32),
    UNIT.map(np.float64),
    st.integers(-1, 2),
    st.integers(-1, 2).map(np.int64),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.sampled_from(["0.5", "", None, np.bool_(True)]),
)


@settings(max_examples=300, deadline=None)
@given(entry=st.sampled_from(sorted(FLOAT_ENTRY_POINTS)), value=FLOAT_VALUES)
def test_float_arguments_follow_one_rule(entry, value):
    in_range, call = FLOAT_ENTRY_POINTS[entry]
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not real or not in_range(float(value)):
        with pytest.raises(ConfigError):
            call(value)
    else:
        got = call(value)
        assert got == float(value) and type(got) is float


@pytest.mark.parametrize("value, minimum, message", [
    (2.5, 2, "count must be an integer, got 2.5"),
    (2.0, 2, "count must be an integer, got 2.0"),
    (math.nan, 2, "count must be an integer, got nan"),
    (-math.inf, 2, "count must be an integer, got -inf"),
    (True, 0, "count must be an integer, got True"),
    (np.bool_(True), 0, "count must be an integer, got np.True_"),
    ("3", 0, "count must be an integer, got '3'"),
    (1, 2, "count must be at least 2"),
    (-1, 0, "count must be a non-negative integer"),
])
def test_checked_int_wording(value, minimum, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        checked_int("count", value, minimum)


@pytest.mark.parametrize("value, message", [
    ("0.5", "theta must be a real number, got '0.5'"),
    (None, "theta must be a real number, got None"),
    (True, "theta must be a real number, got True"),
    (np.bool_(False), "theta must be a real number, got np.False_"),
])
def test_checked_float_wording(value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        checked_float("theta", value)


@pytest.mark.parametrize("value", [2, np.int32(2), np.int64(2), np.uint8(2)])
def test_checked_int_returns_int(value):
    got = checked_int("count", value, 2)
    assert got == 2 and type(got) is int


# ---------------------------------------------------------------------------
# One regression test per argument that used to be truncated or to fail late
# with a raw TypeError, OverflowError or ValueError.
# ---------------------------------------------------------------------------


def test_kfold_split_rejects_a_fractional_fold_count():
    with pytest.raises(ConfigError, match="^folds must be an integer, got 2.5$"):
        kfold_split(40, 2.5, 0)


def test_fit_mlknn_rejects_a_fractional_k():
    with pytest.raises(ConfigError, match="^k_neighbors must be an integer, got 2.5$"):
        fit_mlknn(POINTS, LABELS, 2.5)


@pytest.mark.parametrize("field", ["folds", "repeats"])
def test_experiment_config_rejects_fractional_protocol_counts(field):
    with pytest.raises(ConfigError, match=f"^{field} must be an integer, got 2.5$"):
        ExperimentConfig(**{field: 2.5})


def test_constraint_config_rejects_a_fractional_target():
    with pytest.raises(ConfigError, match="^target_must must be an integer, got 2.5$"):
        ConstraintConfig(0.5, 2.5, 3)


def test_sweep_rejects_an_infinite_ensemble_size():
    with pytest.raises(ConfigError, match="^ensemble_size must be an integer, got inf$"):
        SweepSpec("ensemble_size", (math.inf,))


def test_load_csv_rejects_a_fractional_label_count(csv_path):
    with pytest.raises(ConfigError, match="^label_count must be an integer, got 2.5$"):
        load_csv(csv_path, 2.5)


def test_synthetic_dataset_rejects_a_fractional_size():
    with pytest.raises(ConfigError, match="^n must be an integer, got 10.5$"):
        synthetic_dataset(10.5, 3, 2, seed=0)


@pytest.mark.parametrize("make", [
    lambda seed: kfold_split(12, 3, seed).fold_of_instance,
    lambda seed: synthetic_dataset(6, 2, 2, seed=seed).features,
], ids=["kfold_split", "synthetic_dataset"])
def test_seeds_follow_the_rule(make):
    for bad in (1.5, 1.0, math.nan, True):
        with pytest.raises(ConfigError, match="^seed must be an integer, got "):
            make(bad)
    with pytest.raises(ConfigError, match="^seed must be a non-negative integer$"):
        make(-1)
    assert np.array_equal(make(np.int64(3)), make(3))


def test_numpy_integer_experiment_config_is_json_ready():
    cfg = ExperimentConfig(ensemble_size=np.int64(4), k_neighbors=np.int32(3), folds=np.int64(3),
                           repeats=np.int16(2), seed=np.uint32(5))
    assert cfg == ExperimentConfig(ensemble_size=4, k_neighbors=3, folds=3, repeats=2, seed=5)
    assert json.loads(json.dumps(asdict(cfg)))["folds"] == 3


# One regression test per float setting that used to fail late with a raw
# TypeError, be taken as a number, or reach json.dumps as a numpy scalar.


@pytest.mark.parametrize("make", [
    lambda: VpcmeConfig(theta="0.5"),
    lambda: VpcmeConfig(smoothing="1"),
    lambda: SweepSpec("theta", ("0.5",)),
    lambda: ConstraintConfig("0.5", 1, 1),
    lambda: fit_mlknn(POINTS, LABELS, 2, "1"),
    lambda: VpcmeConfig(theta=True),
], ids=["config-theta", "config-smoothing", "sweep-theta", "constraint-theta", "fit_mlknn-smoothing",
        "config-theta-bool"])
def test_float_settings_reject_strings_and_bools(make):
    with pytest.raises(ConfigError, match="must be a real number, got "):
        make()


def test_numpy_float_experiment_config_is_json_ready():
    cfg = ExperimentConfig(theta=np.float32(0.5), smoothing=np.float32(2))
    assert cfg == ExperimentConfig(theta=0.5, smoothing=2.0)
    assert json.loads(json.dumps(asdict(cfg)))["theta"] == 0.5


@pytest.mark.parametrize("value", ["3", None])
def test_load_csv_rejects_a_label_count_that_is_not_a_number(csv_path, value):
    with pytest.raises(ConfigError, match="^label_count must be an integer, got "):
        load_csv(csv_path, value)


# The smoothing bound: smoothing * (k + 1), the largest denominator MLKNN
# forms, must be finite. 1.7e307 overflows it at k = 10 (every posterior came
# back NaN); from about 9e307 the prior's 2s + n overflows too.

POINTS_12 = np.arange(24, dtype=np.float64).reshape(12, 2) ** 1.5
LABELS_12 = np.array([[i % 2 == 0, i % 3 == 0] for i in range(12)])


@pytest.mark.parametrize("smoothing", [1.7e307, 8.98846567431158e+307])
@pytest.mark.parametrize("make", [
    lambda s: VpcmeConfig(smoothing=s),
    lambda s: ExperimentConfig(smoothing=s),
    lambda s: fit_mlknn(POINTS_12, LABELS_12, 10, s),
], ids=["VpcmeConfig", "ExperimentConfig", "fit_mlknn"])
def test_smoothing_that_overflows_mlknn_is_rejected(make, smoothing):
    with pytest.raises(ConfigError, match=re.escape(f"got smoothing={smoothing} with k_neighbors=10")):
        make(smoothing)


# The smoothing floor: a subnormal smoothing divided by the counts underflows
# to 0, and a posterior whose two likelihoods both do is 0 / 0. 5e-324 gave
# NaN posteriors on synthetic_dataset(200, 5, 4, seed=1).

SUBNORMAL_DATA = synthetic_dataset(200, 5, 4, seed=1)


@pytest.mark.parametrize("smoothing", [5e-324, 2e-323])
@pytest.mark.parametrize("make", [
    lambda s: VpcmeConfig(smoothing=s),
    lambda s: ExperimentConfig(smoothing=s),
    lambda s: fit_mlknn(SUBNORMAL_DATA.features, SUBNORMAL_DATA.labels, 10, s),
], ids=["VpcmeConfig", "ExperimentConfig", "fit_mlknn"])
def test_subnormal_smoothing_is_rejected(make, smoothing):
    message = f"smoothing must be at least {np.finfo(np.float64).tiny}, the smallest normal float, got {smoothing}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        make(smoothing)


def test_largest_accepted_smoothing_scores_finite_posteriors():
    s = np.finfo(np.float64).max / 11
    while not math.isfinite(s * 11):
        s = np.nextafter(s, 0.0)
    model = fit_mlknn(POINTS_12, LABELS_12, 10, s)
    assert VpcmeConfig(smoothing=s).smoothing == s
    assert np.all(np.isfinite(posterior_scores(model, POINTS_12)))


# Bool settings: a Python or numpy bool, stored as bool; nothing else.

BOOL_ENTRY_POINTS = {
    "VpcmeConfig.boosting_enabled": lambda v: VpcmeConfig(boosting_enabled=v).boosting_enabled,
    "ExperimentConfig.zscore": lambda v: ExperimentConfig(zscore=v).zscore,
}


@pytest.mark.parametrize("entry", sorted(BOOL_ENTRY_POINTS))
@pytest.mark.parametrize("value", [True, False, np.bool_(True), np.bool_(False)], ids=repr)
def test_bool_settings_store_bools(entry, value):
    got = BOOL_ENTRY_POINTS[entry](value)
    assert got == value and type(got) is bool


@pytest.mark.parametrize("entry", sorted(BOOL_ENTRY_POINTS))
@pytest.mark.parametrize("value", ["no", "false", "", 0, 1, np.int64(1), 1.0, None], ids=repr)
def test_bool_settings_reject_everything_else(entry, value):
    with pytest.raises(ConfigError, match=f"^{entry.split('.')[1]} must be a bool, got "):
        BOOL_ENTRY_POINTS[entry](value)


def test_checked_bool_wording():
    with pytest.raises(ConfigError, match="^zscore must be a bool, got 'false'$"):
        checked_bool("zscore", "false")


def test_numpy_bool_experiment_config_is_json_ready():
    cfg = ExperimentConfig(zscore=np.bool_(True))
    assert cfg == ExperimentConfig(zscore=True)
    assert json.loads(json.dumps(asdict(cfg)))["zscore"] is True


# Matrix arguments: each entry point takes a well-formed matrix and rejects,
# with ValidationError, a string cell, a ragged list, a 1-D and a 3-D array,
# and a NaN where it asks for finite entries.

DATASET = MultiLabelDataset(POINTS, LABELS)
MODEL = train_single_mlknn(DATASET, VpcmeConfig(k_neighbors=2))
PROJECTION, CLASSIFIER = MODEL.members[0]
FITTED = fit_mlknn(POINTS, LABELS, 2)  # CLASSIFIER's values, with the fit's neighbor table
RANKS = rank_from_scores(POINTS)

# entry point -> (a valid value, call, finite entries required)
MATRIX_ENTRY_POINTS = {
    "MultiLabelDataset.features": (POINTS, lambda v: MultiLabelDataset(v, LABELS), True),
    "MultiLabelDataset.labels": (LABELS, lambda v: MultiLabelDataset(POINTS, v), False),
    "predict_ensemble.x": (POINTS, lambda v: predict_ensemble(MODEL, v), True),
    "VpcmeModel.features": (POINTS, lambda v: replace(MODEL, features=v), True),
    "transform.x": (POINTS, lambda v: transform(PROJECTION, v), False),
    "symmetric_eigen.a": (np.eye(2), symmetric_eigen, False),
    "ProjectionModel.w": (np.eye(2), lambda v: replace(PROJECTION, w=v), True),
    "fit_mlknn.points": (POINTS, lambda v: fit_mlknn(v, LABELS, 2), True),
    "fit_mlknn.labels": (LABELS, lambda v: fit_mlknn(POINTS, v, 2), False),
    "MlknnModel.train_points": (POINTS, lambda v: replace(CLASSIFIER, train_points=v), True),
    "MlknnModel.train_labels": (LABELS, lambda v: replace(CLASSIFIER, train_labels=v), False),
    "posterior_scores.query": (POINTS, lambda v: posterior_scores(CLASSIFIER, v), True),
    "hamming_loss.truths": (LABELS, lambda v: hamming_loss(v, LABELS), False),
    "hamming_loss.bipartitions": (LABELS, lambda v: hamming_loss(LABELS, v), False),
    "ranking_loss.ranks": (RANKS, lambda v: ranking_loss(LABELS, v), False),
    "rank_from_scores.scores": (POINTS, rank_from_scores, True),
}


def string_cell(good):
    rows = good.tolist()
    (rows if good.ndim == 1 else rows[0])[0] = "x"
    return rows


def ragged(good):
    rows = good.tolist()
    if good.ndim == 1:
        rows[0] = [rows[0]]
    else:
        rows.append(rows[0][1:])  # one short: ragged at any row count
    return rows


def with_cell(good, value):
    bad = good.astype(np.float64)
    bad.flat[0] = value
    return bad


def nan_cell(good):
    return with_cell(good, math.nan)


MALFORMED = {
    "string-cell": (string_cell, "matrix"),
    "ragged": (ragged, "matrix"),
    "1-D": (lambda good: good[0], "2-D matrix"),
    "3-D": (lambda good: good[None], "2-D matrix"),
    "nan": (nan_cell, "non-finite"),
}


@pytest.mark.parametrize("malformed", sorted(MALFORMED))
@pytest.mark.parametrize("entry", sorted(MATRIX_ENTRY_POINTS))
def test_matrix_arguments_follow_one_rule(entry, malformed):
    good, call, finite = MATRIX_ENTRY_POINTS[entry]
    make, message = MALFORMED[malformed]
    call(good)
    if malformed == "nan" and not finite:
        return
    with pytest.raises(ValidationError, match=message):
        call(make(good))


def test_a_row_the_scaler_overflows_is_rejected():
    scaler = (np.zeros(2), np.full(2, 1e-300))
    model = replace(MODEL, scaler=scaler)
    message = "x has a row that the model's scaler takes to non-finite values"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        predict_ensemble(model, np.array([[1e10, 0.0]]))


def test_model_file_with_non_finite_features_is_rejected(tmp_path, capsys):
    path = str(tmp_path / "model.npz")
    save_model(MODEL, path)
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    arrays["features"] = nan_cell(arrays["features"])
    np.savez(path, **arrays)
    message = f"{path}: not a vpcme-model/2 model file: features matrix contains non-finite values"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        load_model(path)
    data_path = str(tmp_path / "data.csv")
    save_csv(DATASET, data_path)
    capsys.readouterr()
    assert main(["predict", "--model", path, "--data", data_path, "--labels", "2"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# Vector and table arguments, and matrices whose size is fixed by another
# argument: each entry point takes a well-formed array and rejects, with
# ValidationError, a string cell, a ragged list, one dimension fewer or more,
# an entry short along a fixed axis, and a NaN where it asks for finite entries.

WEIGHTS = np.full(8, 1 / 8)
PAIRS = np.array([[0, 1], [2, 3]])
SERIES = np.array([1.0, 2.0, 4.0])
OTHER_SERIES = np.array([1.5, 2.25, 3.0])
SCORES = np.linspace(0.05, 0.95, 3 * 8 * 2).reshape(3, 8, 2)  # three members' score matrices


def sample(weights):
    return sample_constraints(DATASET, weights, ConstraintConfig(0.5, 2, 2), np.random.default_rng(0))


# entry point -> (a valid value, call, finite entries required, the axis
# whose size another argument fixes, or None)
ARRAY_ENTRY_POINTS = {
    "ProjectionModel.eigenvalues": (PROJECTION.eigenvalues, lambda v: replace(PROJECTION, eigenvalues=v),
                                    True, 0),
    "MlknnModel.prior_pos": (CLASSIFIER.prior_pos, lambda v: replace(CLASSIFIER, prior_pos=v), True, 0),
    "MlknnModel.freq_pos": (CLASSIFIER.freq_pos, lambda v: replace(CLASSIFIER, freq_pos=v), False, 1),
    "MlknnModel.freq_neg": (CLASSIFIER.freq_neg, lambda v: replace(CLASSIFIER, freq_neg=v), False, 1),
    "MlknnModel.train_neighbors": (FITTED.train_neighbors,
                                   lambda v: replace(FITTED, train_neighbors=v), False, 0),
    "MlknnModel.train_labels": (LABELS, lambda v: replace(CLASSIFIER, train_labels=v), False, 0),
    "fit_mlknn.labels": (LABELS, lambda v: fit_mlknn(POINTS, v, 2), False, 0),
    "MultiLabelDataset.labels": (LABELS, lambda v: MultiLabelDataset(POINTS, v), False, 0),
    "MultiLabelDataset.subset": (np.array([0, 3]), DATASET.subset, False, None),
    "VpcmeModel.features": (POINTS, lambda v: replace(MODEL, features=v), True, 0),
    "VpcmeModel.scaler.mean": (np.zeros(2), lambda v: replace(MODEL, scaler=(v, np.ones(2))), True, 0),
    "VpcmeModel.scaler.scale": (np.ones(2), lambda v: replace(MODEL, scaler=(np.zeros(2), v)), True, 0),
    "sample_constraints.weights": (WEIGHTS, sample, True, 0),
    "PairConstraintSets.must": (PAIRS, lambda v: PairConstraintSets(must=v, cannot=PAIRS), False, 1),
    "PairConstraintSets.cannot": (PAIRS, lambda v: PairConstraintSets(must=PAIRS, cannot=v), False, 1),
    "FoldAssignment.fold_of_instance": (np.array([0, 1, 0, 2]), FoldAssignment, False, None),
    "paired_t_test.a": (SERIES, lambda v: paired_t_test(v, OTHER_SERIES), True, None),
    "paired_t_test.b": (OTHER_SERIES, lambda v: paired_t_test(SERIES, v), True, 0),
    "hamming_loss.bipartitions": (LABELS, lambda v: hamming_loss(LABELS, v), False, 0),
    "f1_metric.bipartitions": (LABELS, lambda v: f1_metric(LABELS, v), False, 0),
    "recall.bipartitions": (LABELS, lambda v: recall(LABELS, v), False, 0),
    "ranking_loss.ranks": (RANKS, lambda v: ranking_loss(LABELS, v), False, 0),
    "label_overlap_ratio.labels_i": (LABELS[:1], lambda v: label_overlap_ratio(v, LABELS[1:2]), False, None),
    "label_overlap_ratio.labels_j": (LABELS[1:2], lambda v: label_overlap_ratio(LABELS[:1], v), False, 1),
    "label_overlap_ratio.label_matrix": (LABELS, lambda v: label_overlap_ratio(LABELS, v), False, 0),
    "majority_vote.scores": (SCORES, majority_vote, True, None),
}


def one_short(good, axis):
    return np.take(good, np.arange(good.shape[axis] - 1), axis=axis)


ARRAY_MALFORMED = {
    "string-cell": (string_cell, "rectangular (vector|matrix|array) of numbers"),
    "ragged": (ragged, "rectangular (vector|matrix|array) of numbers"),
    "fewer-dims": (lambda good: good[0], r"\d-D"),
    "more-dims": (lambda good: good[None], r"\d-D"),
    "one-short": (one_short, "of shape"),
    "nan": (nan_cell, "non-finite"),
}


@pytest.mark.parametrize("malformed", sorted(ARRAY_MALFORMED))
@pytest.mark.parametrize("entry", sorted(ARRAY_ENTRY_POINTS))
def test_array_arguments_follow_one_rule(entry, malformed):
    good, call, finite, axis = ARRAY_ENTRY_POINTS[entry]
    make, message = ARRAY_MALFORMED[malformed]
    call(good)
    if (malformed == "nan" and not finite) or (malformed == "one-short" and axis is None):
        return
    bad = make(good, axis) if malformed == "one-short" else make(good)
    with pytest.raises(ValidationError, match=message):
        call(bad)


# Bool arrays take bools, or numbers that are all 0 or 1; integer arrays take
# integers only, as checked_int does.

CALLS = {name: entry[:2] for table in (MATRIX_ENTRY_POINTS, ARRAY_ENTRY_POINTS) for name, entry in table.items()}


def entries_of_kind(kind):
    return sorted(name for name, (good, _) in CALLS.items() if good.dtype.kind == kind)


@pytest.mark.parametrize("entry", entries_of_kind("b"))
def test_bool_arrays_take_bools_or_zeros_and_ones(entry):
    good, call = CALLS[entry]
    call(good.astype(np.int64))
    call(good.astype(np.float64))
    for cell in (2, 0.5, -1, math.nan):
        with pytest.raises(ValidationError, match="must hold bools or 0/1 entries only"):
            call(with_cell(good, cell))


@pytest.mark.parametrize("entry", entries_of_kind("i"))
def test_integer_arrays_take_integers_only(entry):
    good, call = CALLS[entry]
    call(good.astype(np.int32))
    for bad in (with_cell(good, 1.5), good.astype(np.float64), good.astype(bool)):
        with pytest.raises(ValidationError, match="must hold integers, got "):
            call(bad)


def test_checked_array_wording():
    with pytest.raises(ValidationError, match=re.escape("w must be a 1-D vector of shape (any,), got shape ()")):
        checked_array("w", 1.0, np.float64, (None,))
    with pytest.raises(ValidationError, match=re.escape("t must be a 3-D array of shape (2, any, 1), got shape (2,)")):
        checked_array("t", [1, 2], np.int64, (2, None, 1))
    with pytest.raises(ValidationError, match="^t must hold integers, got float64 entries$"):
        checked_array("t", [1.0, 2.0], np.int64, (2,))
    got = checked_array("t", [[1, 0]], bool, (1, 2))
    assert got.dtype == bool and got.flags.c_contiguous and got.tolist() == [[True, False]]
    with pytest.raises(ValidationError, match=re.escape("i must hold entries in [0, 3), got 3")):
        checked_array("i", [[0, 3], [-1, 2]], np.int64, (None, 2), bound=3)
    with pytest.raises(ValidationError, match=re.escape("i must hold entries in [0, inf), got -1")):
        checked_array("i", [[0, 4], [-1, 2]], np.int64, (None, 2), bound=math.inf)
    assert checked_array("i", [2, 0], np.int64, (2,), bound=3).tolist() == [2, 0]


# One regression test per array that used to be taken silently, truncated,
# or rejected only by a raw numpy error.


def test_label_matrices_take_only_zeros_and_ones():
    with pytest.raises(ValidationError, match="^labels must hold bools or 0/1 entries only$"):
        MultiLabelDataset(np.zeros((2, 1)), [[2, 0.5], [0, -1]])


def test_a_bipartition_takes_only_zeros_and_ones():
    with pytest.raises(ValidationError, match="^bipartitions must hold bools or 0/1 entries only$"):
        hamming_loss([[1, 0]], [[7, 0.2]])


def test_nan_weights_are_rejected():
    weights = WEIGHTS.copy()
    weights[0] = math.nan
    with pytest.raises(ValidationError, match="^weights vector contains non-finite values$"):
        sample(weights)


def test_a_nan_t_test_series_is_rejected():
    with pytest.raises(ValidationError, match="^a vector contains non-finite values$"):
        paired_t_test([math.nan, 1.0], [1.0, 2.0])


@pytest.mark.parametrize("indices", [[1.7], [1.0], [True, False] * 4], ids=["fraction", "whole-float", "mask"])
def test_subset_takes_integer_indices_only(indices):
    with pytest.raises(ValidationError, match="^indices must hold integers, got "):
        DATASET.subset(indices)


@pytest.mark.parametrize("index", [-1, 8], ids=["negative", "past-the-end"])
def test_subset_takes_indices_of_its_rows_only(index):
    with pytest.raises(ValidationError, match=re.escape(f"indices must hold entries in [0, 8), got {index}")):
        DATASET.subset([0, index])


def test_a_negative_pair_index_is_rejected():
    with pytest.raises(ValidationError, match=re.escape("must-link pairs must hold entries in [0, inf), got -1")):
        PairConstraintSets(must=[[0, -1]], cannot=PAIRS)


def test_scatter_matrices_takes_pair_indices_of_its_rows_only():
    sets = PairConstraintSets(must=PAIRS, cannot=[[0, 8]])
    with pytest.raises(ValidationError, match=re.escape("cannot-link pairs must hold entries in [0, 8), got 8")):
        scatter_matrices(DATASET, sets)


@pytest.mark.parametrize("index", [-1, 8], ids=["negative", "past-the-end"])
def test_a_neighbor_table_takes_indices_of_the_training_rows_only(index):
    table = FITTED.train_neighbors.copy()
    table[3, 1] = index
    with pytest.raises(ValidationError, match=re.escape(f"train_neighbors must hold entries in [0, 8), got {index}")):
        replace(FITTED, train_neighbors=table)


@pytest.mark.parametrize("scores", [[], np.empty((0, 8, 2))], ids=["empty-list", "no-members"])
def test_majority_vote_needs_a_member(scores):
    with pytest.raises(ValidationError, match="^scores must "):
        majority_vote(scores)


def test_a_fractional_frequency_table_is_rejected():
    with pytest.raises(ValidationError, match="^freq_pos must hold integers, got float64 entries$"):
        replace(CLASSIFIER, freq_pos=CLASSIFIER.freq_pos + 0.5)


# Value rules past the shape checks: each call is well formed but breaks one
# rule, which names it.

ONE_CELL = np.zeros_like(FITTED.freq_pos)
ONE_CELL[1, 0] = 1  # one count more in one cell: that label's row sum breaks


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: critical_value(0), ValueError, "degrees of freedom must be at least 1",
                 id="critical_value-df-0"),
    pytest.param(lambda: sample(np.array([-0.125, 0.375] + [0.125] * 6)), ValidationError,
                 "weights must be non-negative", id="sample_constraints-negative-weight"),
    pytest.param(lambda: MultiLabelDataset(np.zeros((0, 2)), np.zeros((0, 2))), ValidationError,
                 "dataset needs at least one instance", id="MultiLabelDataset-no-rows"),
    pytest.param(lambda: MultiLabelDataset(np.zeros((8, 0)), LABELS), ValidationError,
                 "dataset needs at least one feature column", id="MultiLabelDataset-no-features"),
    pytest.param(lambda: ranking_loss([[1, 0, 1]], [[1, 1, 3]]), ValidationError,
                 "each rank row must be a permutation of 1..M", id="ranking_loss-repeated-rank"),
    pytest.param(lambda: replace(FITTED, freq_pos=FITTED.freq_pos + ONE_CELL), ValidationError,
                 "freq_pos rows must sum to the per-label positive counts", id="MlknnModel-freq_pos-sum"),
    pytest.param(lambda: replace(FITTED, freq_neg=FITTED.freq_neg + ONE_CELL), ValidationError,
                 "freq_neg rows must sum to the per-label negative counts", id="MlknnModel-freq_neg-sum"),
    pytest.param(lambda: ProjectionModel(np.zeros((3, 0)), np.zeros(0), 1.0), ValidationError,
                 "reduced dimension 0 outside [1, 3]", id="ProjectionModel-no-columns"),
    pytest.param(lambda: ProjectionModel(np.eye(3)[:2], np.ones(3), 1.0), ValidationError,
                 "reduced dimension 3 outside [1, 2]", id="ProjectionModel-more-columns-than-rows"),
])
def test_a_value_rule_names_what_it_rejects(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_nan_eigenvalues_are_rejected():
    with pytest.raises(ValidationError, match="^eigenvalues vector contains non-finite values$"):
        ProjectionModel(w=np.eye(2), eigenvalues=[math.nan, 1.0], scaling_r=1.0)


def test_an_empty_pair_list_needs_its_two_columns():
    with pytest.raises(ValidationError, match=re.escape("must-link pairs must be a 2-D matrix of shape (any, 2)")):
        PairConstraintSets(must=[], cannot=PAIRS)
    assert PairConstraintSets(must=np.empty((0, 2), np.int64), cannot=PAIRS).n_must == 0


# The model types check their own scalars, as the configs do.


@pytest.mark.parametrize("smoothing, message", [
    (-1.0, "smoothing must be finite and positive, got -1.0"),
    (math.nan, "smoothing must be finite and positive, got nan"),
    ("x", "smoothing must be a real number, got 'x'"),
])
def test_mlknn_model_checks_its_smoothing(smoothing, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        replace(CLASSIFIER, smoothing=smoothing)


def test_mlknn_model_checks_its_k_before_using_it():
    with pytest.raises(ConfigError, match="^k_neighbors must be an integer, got 2.5$"):
        replace(CLASSIFIER, k_neighbors=2.5)
    got = replace(CLASSIFIER, k_neighbors=np.int64(2), smoothing=np.float32(1))
    assert type(got.k_neighbors) is int and type(got.smoothing) is float


def test_projection_model_checks_its_scaling_r(tmp_path):
    with pytest.raises(ConfigError, match="^scaling_r must be a real number, got 'x'$"):
        replace(PROJECTION, scaling_r="x")
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match=f"^scaling_r must be finite, got {bad}$"):
            replace(PROJECTION, scaling_r=bad)
    model = replace(MODEL, members=((replace(PROJECTION, scaling_r=np.float32(2)), CLASSIFIER),))
    assert type(model.members[0][0].scaling_r) is float
    save_model(model, str(tmp_path / "model.npz"))
    assert load_model(str(tmp_path / "model.npz")).members[0][0].scaling_r == 2.0


def test_the_scaler_keeps_the_callers_arrays_writable():
    mean, scale = np.zeros(2), np.ones(2)
    model = replace(MODEL, scaler=(mean, scale))
    assert mean.flags.writeable and scale.flags.writeable
    assert not model.scaler[0].flags.writeable and not model.scaler[1].flags.writeable


# Every array a frozen type keeps goes through frozen_array: a private,
# read-only, finite array that later writes by the caller do not reach.

MLKNN_ARRAYS = ("train_points", "train_labels", "prior_pos", "freq_pos", "freq_neg", "train_neighbors")

# type -> (build from arrays, the arrays it is built from, the arrays it keeps)
FROZEN_TYPES = {
    "MultiLabelDataset": (MultiLabelDataset, (POINTS, LABELS), lambda o: (o.features, o.labels)),
    "FoldAssignment": (FoldAssignment, (np.array([0, 1, 0, 2]),), lambda o: (o.fold_of_instance,)),
    "PairConstraintSets": (PairConstraintSets, (PAIRS, PAIRS[::-1]), lambda o: (o.must, o.cannot)),
    "ProjectionModel": (lambda w, e: ProjectionModel(w, e, 1.0), (np.eye(2), np.array([1.0, 0.5])),
                        lambda o: (o.w, o.eigenvalues)),
    "MlknnModel": (lambda *arrays: replace(FITTED, **dict(zip(MLKNN_ARRAYS, arrays))),
                   tuple(getattr(FITTED, name) for name in MLKNN_ARRAYS),
                   lambda o: tuple(getattr(o, name) for name in MLKNN_ARRAYS)),
    "VpcmeModel": (lambda x, mean, scale: replace(MODEL, features=x, scaler=(mean, scale)),
                   (POINTS, np.zeros(2), np.ones(2)), lambda o: (o.features, *o.scaler)),
}


def scribble(array):
    """Change every entry of a writable array in place."""
    if array.dtype == bool:
        np.logical_not(array, out=array)
    else:
        array += 1


@pytest.mark.parametrize("as_view", [False, True], ids=["array", "read-only-view"])
@pytest.mark.parametrize("kind", sorted(FROZEN_TYPES))
def test_a_frozen_type_keeps_private_read_only_arrays(kind, as_view):
    build, originals, kept = FROZEN_TYPES[kind]
    owned = [np.array(a) for a in originals]
    given = owned
    if as_view:  # read-only views of the caller's writable arrays
        given = [a.view() for a in owned]
        for view in given:
            view.setflags(write=False)
    obj = build(*given)
    for array, original, mine in zip(owned, originals, kept(obj), strict=True):
        assert array.flags.writeable and not mine.flags.writeable
        scribble(array)
        assert np.array_equal(mine, original)


def test_frozen_array_shares_only_what_no_one_can_write():
    private = frozen_array("x", np.arange(3.0), np.float64, (3,))
    assert frozen_array("x", private, np.float64, (3,)) is private
    assert frozen_array("x", private[1:], np.float64, (2,)).base is private
    fresh = frozen_array("x", [1, 2], np.float64, (2,))
    assert not fresh.flags.writeable and fresh.tolist() == [1.0, 2.0]
    with pytest.raises(ValidationError, match="^x vector contains non-finite values$"):
        frozen_array("x", [1.0, math.nan], np.float64, (2,))
    with pytest.raises(ValidationError, match=re.escape("x must hold entries in [0, 2), got 2")):
        frozen_array("x", [0, 2], np.int64, (2,), bound=2)


def test_array_holding_types_compare_by_identity():
    for kind, (build, originals, _) in FROZEN_TYPES.items():
        obj, twin = build(*originals), build(*originals)
        assert obj == obj and obj != twin and hash(obj) != hash(twin), kind
    assert DATASET != DATASET.subset(range(DATASET.instance_count))
    assert VpcmeConfig(theta=0.5) == VpcmeConfig(theta=0.5)
    assert ConstraintConfig(0.5, 2, 2) == ConstraintConfig(0.5, 2, 2)


def test_model_file_with_a_non_finite_projection_is_rejected(tmp_path):
    path = str(tmp_path / "model.npz")
    save_model(MODEL, path)
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    arrays["m0_w"] = nan_cell(arrays["m0_w"])
    np.savez(path, **arrays)
    message = f"{path}: not a vpcme-model/2 model file: w matrix contains non-finite values"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        load_model(path)

