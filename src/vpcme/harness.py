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
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

import numpy as np

from ._kernels import parallel_map
from ._ttable import critical_value
from .dataset import MultiLabelDataset, kfold_split
from .ensemble import VpcmeConfig, majority_vote, member_scores, train_single_mlknn, train_vpcme
from .errors import ConfigError, ValidationError, checked_array, checked_bool, checked_int
from .metrics import HIGHER_IS_BETTER, METRIC_NAMES, evaluate_all

METHODS = ("vpcme", "bagging_vpcp", "mlknn_single")

DEFAULT_THETA_VALUES = tuple(round(0.1 * i, 1) for i in range(1, 11))
DEFAULT_SIZE_VALUES = (1, 10, 20, 30, 40, 50)


@dataclass(frozen=True)
class ExperimentConfig:
    method: str = "vpcme"
    theta: float = VpcmeConfig.theta
    ensemble_size: int = VpcmeConfig.ensemble_size
    k_neighbors: int = VpcmeConfig.k_neighbors
    smoothing: float = VpcmeConfig.smoothing
    folds: int = 5
    repeats: int = 20
    seed: int = VpcmeConfig.seed
    zscore: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        for name, minimum in (("folds", 2), ("repeats", 1)):
            object.__setattr__(self, name, checked_int(name, getattr(self, name), minimum))
        object.__setattr__(self, "zscore", checked_bool("zscore", self.zscore))
        member = self.member_config(self.seed)  # the member settings' own checks
        for name in ("ensemble_size", "theta", "k_neighbors", "smoothing", "seed"):
            object.__setattr__(self, name, getattr(member, name))  # as the member config stores it

    def member_config(self, seed: int) -> VpcmeConfig:
        """The :class:`VpcmeConfig` this method's members train with."""
        return VpcmeConfig(
            ensemble_size=self.ensemble_size,
            theta=self.theta,
            k_neighbors=self.k_neighbors,
            smoothing=self.smoothing,
            seed=seed,
            boosting_enabled=self.method == "vpcme",
        )


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
        # each value as the member config checks and stores it
        values = tuple(getattr(VpcmeConfig(**{self.parameter: v}), self.parameter) for v in values)
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
            "metrics": {name: asdict(s) for name, s in self.metrics.items()},
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
    a = checked_array("a", a, np.float64, (None,), finite=True)
    b = checked_array("b", b, np.float64, a.shape, finite=True)
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


def train_method(cfg: ExperimentConfig, train_ds: MultiLabelDataset, seed: int):
    """Train ``cfg.method`` on ``train_ds`` with the given member seed.

    Returns the :class:`VpcmeModel`. With ``cfg.zscore`` the features are
    standardized first and the model carries the (mean, scale) pair as its
    ``scaler``, so :func:`member_scores` takes raw features either way.
    """
    scaler = None
    if cfg.zscore:
        mean = train_ds.features.mean(axis=0)
        scale = train_ds.features.std(axis=0)
        scale = np.where(scale == 0.0, 1.0, scale)
        train_ds = MultiLabelDataset((train_ds.features - mean) / scale, train_ds.labels)
        scaler = (mean, scale)
    trainer = train_single_mlknn if cfg.method == "mlknn_single" else train_vpcme
    model = trainer(train_ds, cfg.member_config(seed))
    return model if scaler is None else replace(model, scaler=scaler)


def cross_validate(cfg: ExperimentConfig, dataset: MultiLabelDataset) -> EvaluationReport:
    """Repeated k-fold cross-validation of one method on one dataset."""
    return _cross_validate(cfg, dataset, (cfg.ensemble_size,))[0]


def _cross_validate(cfg, dataset, sizes):
    """One :func:`cross_validate` report per ensemble size in ``sizes``.

    Each fold unit trains once, at the largest size, scores each member
    once with :func:`member_scores`, and takes the :func:`majority_vote` of
    the first s members' scores for each s: member l's stream and weights do
    not depend on the ensemble size, so that vote is an s-member ensemble's
    prediction. An ``mlknn_single`` model has one member, which every size keeps.
    """
    n = dataset.instance_count
    assignments = [kfold_split(n, cfg.folds, cfg.seed + repeat) for repeat in range(cfg.repeats)]
    units = [(repeat, fold) for repeat in range(cfg.repeats) for fold in range(cfg.folds)]
    largest = replace(cfg, ensemble_size=max(sizes))

    def run_unit(unit):
        repeat, fold = unit
        test_idx = assignments[repeat].test_indices(fold)
        train_idx = assignments[repeat].train_indices(fold)
        model = train_method(largest, dataset.subset(train_idx), _train_seed(cfg.seed, repeat, fold))
        truths, x = dataset.labels[test_idx], dataset.features[test_idx]
        scores = member_scores(model, x)
        return [evaluate_all(truths, *majority_vote(scores[:s])) for s in sizes]

    unit_results = parallel_map(run_unit, units)
    return [_report(cfg, units, [results[i] for results in unit_results]) for i in range(len(sizes))]


def _report(cfg, units, unit_results):
    """The report of one size: each metric's mean and spread over the units."""
    unit_values = {name: [] for name in METRIC_NAMES}
    skipped = {name: 0 for name in METRIC_NAMES}
    for results in unit_results:
        for name, mv in results.items():
            unit_values[name].append(mv.value)
            skipped[name] += mv.skipped

    metrics = {name: MetricSummary(float(np.mean(vals)), float(np.std(vals, ddof=1)), skipped[name])
               for name, vals in unit_values.items()}
    return EvaluationReport(
        metrics=metrics,
        unit_values={name: tuple(vals) for name, vals in unit_values.items()},
        units=tuple(units),
        protocol={"folds": cfg.folds, "repeats": cfg.repeats, "reshuffle_per_repeat": True},
    )


def run_sweep(cfg: ExperimentConfig, sweep: SweepSpec, dataset: MultiLabelDataset):
    """Cross-validate at each sweep value, all other settings fixed; a list
    of (value, report) pairs. A size sweep trains each fold unit once, at
    the largest size."""
    if sweep.parameter == "ensemble_size":
        return list(zip(sweep.values, _cross_validate(cfg, dataset, sweep.values)))
    return [(value, cross_validate(replace(cfg, theta=value), dataset)) for value in sweep.values]


def compare_methods(cfg: ExperimentConfig, methods, dataset: MultiLabelDataset) -> dict:
    """Run each of ``methods`` on identical splits and t-test them pairwise.

    Each method runs with ``replace(cfg, method=m)``, so every other setting
    is ``cfg``'s. All of these configs are built before any run, so an
    unknown or duplicate method fails first. The first method is the
    reference; markers read from its perspective: 'win' when the reference
    is significantly better on a metric, 'loss' when significantly worse,
    'tie' otherwise.
    """
    order = list(methods)
    if len(order) < 2:
        raise ConfigError("compare_methods needs at least two methods")
    for i, key in enumerate(order):
        if key in order[:i]:
            raise ConfigError(f"duplicate method {key!r} in comparison")
    cfgs = [replace(cfg, method=m) for m in order]
    reports = {c.method: cross_validate(c, dataset) for c in cfgs}

    reference = order[0]
    tests = {}
    for name in METRIC_NAMES:
        tests[name] = {}
        for key in order[1:]:
            result = paired_t_test(reports[reference].unit_values[name], reports[key].unit_values[name])
            # t's sign is that of the mean difference, reference minus other
            ref_better = result.t > 0 if name in HIGHER_IS_BETTER else result.t < 0
            marker = ("win" if ref_better else "loss") if result.significant else "tie"
            tests[name][key] = {**result._asdict(), "marker": marker}
    return {
        "methods": order,
        "reference": reference,
        "reports": reports,
        "tests": tests,
    }
