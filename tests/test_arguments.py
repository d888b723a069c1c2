"""Count, size and seed arguments follow one rule at every public entry point:
a Python or numpy integer of at least the entry's minimum, stored as
``int``; bools, strings, None and floats (integral ones, NaN and the
infinities included) raise ``ConfigError``. Threshold and smoothing
arguments follow another: a Python or numpy real in the entry's range,
stored as ``float``; bools, strings and None raise ``ConfigError``."""

import json
import math
import re
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vpcme import (
    ConstraintConfig,
    ExperimentConfig,
    SweepSpec,
    VpcmeConfig,
    fit_mlknn,
    kfold_split,
    load_csv,
    load_features,
    synthetic_dataset,
)
from vpcme.errors import ConfigError, ValidationError, checked_float, checked_int

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
    "ConstraintConfig.max_attempts": (3, lambda v, _: ConstraintConfig(0.5, 1, 2, v).max_attempts),
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
    assume(not (entry == "ConstraintConfig.max_attempts" and value is None))  # the default budget
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
def theta_range(v):
    return 0.0 <= v <= 1.0


def smoothing_range(v):
    return math.isfinite(v) and v > 0.0


FLOAT_ENTRY_POINTS = {
    "VpcmeConfig.theta": (theta_range, lambda v: VpcmeConfig(theta=v).theta),
    "VpcmeConfig.smoothing": (smoothing_range, lambda v: VpcmeConfig(smoothing=v).smoothing),
    "ExperimentConfig.theta": (theta_range, lambda v: ExperimentConfig(theta=v).theta),
    "ExperimentConfig.smoothing": (smoothing_range, lambda v: ExperimentConfig(smoothing=v).smoothing),
    "ConstraintConfig.theta": (theta_range, lambda v: ConstraintConfig(v, 1, 1).theta),
    "SweepSpec.values": (theta_range, lambda v: SweepSpec("theta", (v,)).values[0]),
    "fit_mlknn.smoothing": (smoothing_range, lambda v: fit_mlknn(POINTS, LABELS, 2, v).smoothing),
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
    (np.bool_(True), 0, "count must be an integer, got True"),
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
    with pytest.raises(ConfigError, match="^ensemble_size sweep value must be an integer, got inf$"):
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
