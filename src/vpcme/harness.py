"""Experiment runner: repeated k-fold cross-validation, parameter sweeps,
method comparison with paired t-tests.

Every stochastic choice derives from the experiment's master seed: fold
shuffles reuse ``seed + repeat_index`` and each (repeat, fold) training run
gets its own well-mixed seed, so whole pipelines rerun bit-identically.
Folds are reshuffled for every repeat. The (repeat, fold) units are
independent and run side by side on ``parallel_map``'s thread pool; their
results are gathered in unit order.
"""

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from ._kernels import parallel_map
from ._ttable import critical_value
from .dataset import MultiLabelDataset, kfold_split, load_csv
from .ensemble import VpcmeConfig, predict_ensemble, train_single_mlknn, train_vpcme
from .errors import ConfigError, ValidationError
from .metrics import HIGHER_IS_BETTER, METRIC_NAMES, evaluate_all

METHODS = ("vpcme", "bagging_vpcp", "mlknn_single")

DEFAULT_THETA_VALUES = tuple(round(0.1 * i, 1) for i in range(1, 11))
DEFAULT_SIZE_VALUES = (1, 10, 20, 30, 40, 50)


@dataclass(frozen=True)
class ExperimentConfig:
    data: str = None
    label_count: int = None
    method: str = "vpcme"
    theta: float = 0.6
    ensemble_size: int = 30
    k_neighbors: int = 10
    smoothing: float = 1.0
    folds: int = 5
    repeats: int = 20
    seed: int = 0
    zscore: bool = False

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.folds < 2:
            raise ConfigError("folds must be at least 2")
        if self.repeats < 1:
            raise ConfigError("repeats must be at least 1")
        if self.ensemble_size < 1:
            raise ConfigError("ensemble_size must be at least 1")
        if self.k_neighbors < 1:
            raise ConfigError("k_neighbors must be at least 1")
        if not 0.0 <= self.theta <= 1.0:
            raise ConfigError(f"theta must lie in [0, 1], got {self.theta}")


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: tuple = None

    def __post_init__(self):
        if self.parameter not in ("theta", "ensemble_size"):
            raise ConfigError("sweep parameter must be 'theta' or 'ensemble_size'")
        values = self.values
        if values is None:
            values = DEFAULT_THETA_VALUES if self.parameter == "theta" else DEFAULT_SIZE_VALUES
        values = tuple(values)
        if not values:
            raise ConfigError("sweep needs at least one value")
        for v in values:
            if self.parameter == "theta" and not 0.0 <= v <= 1.0:
                raise ConfigError(f"theta sweep value {v} outside [0, 1]")
            if self.parameter == "ensemble_size" and (int(v) != v or v < 1):
                raise ConfigError(f"ensemble size sweep value {v} must be a positive integer")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class MetricSummary:
    mean: float
    std: float
    skipped: int


@dataclass(frozen=True)
class EvaluationReport:
    """Per-metric mean and sample standard deviation over fold-repeat units."""

    metrics: dict
    unit_values: dict
    units: tuple
    protocol: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "metrics": {
                name: {"mean": s.mean, "std": s.std, "skipped": s.skipped}
                for name, s in self.metrics.items()
            },
            "units": {name: list(vals) for name, vals in self.unit_values.items()},
            "protocol": dict(self.protocol),
        }


class TTestResult(NamedTuple):
    t: float
    df: int
    significant: bool


def paired_t_test(a, b) -> TTestResult:
    """Two-tailed paired t-test at significance 0.01.

    Zero-variance differences are significant exactly when their common
    value is nonzero.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValidationError("paired t-test needs two equal-length 1-D series")
    if a.shape[0] < 2:
        raise ValidationError("paired t-test needs at least 2 pairs")
    diffs = a - b
    n = diffs.shape[0]
    df = n - 1
    mean = float(diffs.mean())
    sd = float(diffs.std(ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(t=0.0, df=df, significant=False)
        return TTestResult(t=math.copysign(math.inf, mean), df=df, significant=True)
    t = mean / (sd / math.sqrt(n))
    return TTestResult(t=t, df=df, significant=abs(t) > critical_value(df))


def _train_seed(master: int, repeat: int, fold: int) -> int:
    return int(np.random.SeedSequence([master, repeat, fold]).generate_state(1)[0])


def _check_fold_capacity(n: int, cfg: ExperimentConfig) -> None:
    if cfg.folds > n:
        raise ConfigError(f"cannot split {n} instances into {cfg.folds} folds")
    min_train = n - math.ceil(n / cfg.folds)
    if min_train <= cfg.k_neighbors:
        raise ConfigError(
            f"training folds of {min_train} instances are too small for "
            f"k_neighbors={cfg.k_neighbors}"
        )


def _load(cfg: ExperimentConfig, dataset):
    if dataset is not None:
        return dataset
    if cfg.data is None or cfg.label_count is None:
        raise ConfigError("either a dataset object or data path + label_count is required")
    return load_csv(cfg.data, cfg.label_count)


def train_method(cfg: ExperimentConfig, train_ds: MultiLabelDataset, seed: int):
    """Train ``cfg.method`` on ``train_ds`` with the given member seed.

    Returns the :class:`VpcmeModel`. With ``cfg.zscore`` the features are
    standardized first and the model carries the (mean, scale) pair as its
    ``scaler``, so :func:`predict_ensemble` takes raw features either way.
    """
    scaler = None
    if cfg.zscore:
        mean = train_ds.features.mean(axis=0)
        scale = train_ds.features.std(axis=0)
        scale = np.where(scale == 0.0, 1.0, scale)
        train_ds = MultiLabelDataset((train_ds.features - mean) / scale, train_ds.labels)
        scaler = (mean, scale)
    trainer = train_single_mlknn if cfg.method == "mlknn_single" else train_vpcme
    vpcme_cfg = VpcmeConfig(
        ensemble_size=cfg.ensemble_size,
        theta=cfg.theta,
        k_neighbors=cfg.k_neighbors,
        smoothing=cfg.smoothing,
        seed=seed,
        boosting_enabled=cfg.method == "vpcme",
    )
    model = trainer(train_ds, vpcme_cfg)
    return model if scaler is None else replace(model, scaler=scaler)


def cross_validate(cfg: ExperimentConfig, dataset: MultiLabelDataset = None) -> EvaluationReport:
    """Repeated k-fold cross-validation of one method on one dataset."""
    ds = _load(cfg, dataset)
    n = ds.instance_count
    _check_fold_capacity(n, cfg)

    assignments = [kfold_split(n, cfg.folds, cfg.seed + repeat) for repeat in range(cfg.repeats)]
    units = [(repeat, fold) for repeat in range(cfg.repeats) for fold in range(cfg.folds)]

    def run_unit(unit):
        repeat, fold = unit
        test_idx = assignments[repeat].test_indices(fold)
        train_idx = assignments[repeat].train_indices(fold)
        assert np.intersect1d(train_idx, test_idx).size == 0
        model = train_method(cfg, ds.subset(train_idx), _train_seed(cfg.seed, repeat, fold))
        bipartitions, scores = predict_ensemble(model, ds.features[test_idx])
        return evaluate_all(ds.labels[test_idx], bipartitions, scores)

    unit_values = {name: [] for name in METRIC_NAMES}
    skipped = {name: 0 for name in METRIC_NAMES}
    for results in parallel_map(run_unit, units):
        for name, mv in results.items():
            unit_values[name].append(mv.value)
            skipped[name] += mv.skipped

    metrics = {
        name: MetricSummary(
            mean=float(np.mean(vals)),
            std=float(np.std(vals, ddof=1)),
            skipped=skipped[name],
        )
        for name, vals in unit_values.items()
    }
    return EvaluationReport(
        metrics=metrics,
        unit_values={name: tuple(vals) for name, vals in unit_values.items()},
        units=tuple(units),
        protocol={"folds": cfg.folds, "repeats": cfg.repeats, "reshuffle_per_repeat": True},
    )


def run_sweep(cfg: ExperimentConfig, sweep: SweepSpec, dataset: MultiLabelDataset = None):
    """Cross-validate once per sweep value, all other settings fixed."""
    ds = _load(cfg, dataset)
    results = []
    for value in sweep.values:
        if sweep.parameter == "theta":
            point = replace(cfg, theta=float(value))
        else:
            point = replace(cfg, ensemble_size=int(value))
        results.append((value, cross_validate(point, ds)))
    return results


def compare_methods(cfgs, dataset: MultiLabelDataset = None) -> dict:
    """Run several methods on identical splits and t-test them pairwise.

    The first config is the reference; markers read from its perspective:
    'win' when the reference is significantly better on a metric, 'loss'
    when significantly worse, 'tie' otherwise.
    """
    cfgs = list(cfgs)
    if len(cfgs) < 2:
        raise ConfigError("compare_methods needs at least two configurations")
    order = [cfg.method for cfg in cfgs]
    for i, key in enumerate(order):
        if key in order[:i]:
            raise ConfigError(f"duplicate method {key!r} in comparison")
    head = cfgs[0]
    for other in cfgs[1:]:
        shared = ("data", "label_count", "folds", "repeats", "seed", "zscore")
        for name in shared:
            if getattr(other, name) != getattr(head, name):
                raise ConfigError(
                    f"compared configurations must share {name!r} "
                    f"({getattr(head, name)!r} vs {getattr(other, name)!r})"
                )
    ds = _load(head, dataset)
    reports = {cfg.method: cross_validate(cfg, ds) for cfg in cfgs}

    reference = order[0]
    tests = {}
    ref_report = reports[reference]
    for name in METRIC_NAMES:
        tests[name] = {}
        ref_vals = np.asarray(ref_report.unit_values[name])
        for key in order[1:]:
            other_vals = np.asarray(reports[key].unit_values[name])
            result = paired_t_test(ref_vals, other_vals)
            if not result.significant:
                marker = "tie"
            else:
                ref_better = (
                    ref_vals.mean() > other_vals.mean()
                    if name in HIGHER_IS_BETTER
                    else ref_vals.mean() < other_vals.mean()
                )
                marker = "win" if ref_better else "loss"
            tests[name][key] = {
                "t": result.t,
                "df": result.df,
                "significant": result.significant,
                "marker": marker,
            }
    return {
        "methods": order,
        "reference": reference,
        "reports": reports,
        "tests": tests,
    }
