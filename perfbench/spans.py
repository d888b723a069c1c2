"""Span tracer for the vpcme layers, kept entirely outside the library.

``Tracer.install`` replaces every binding of a public function defined in
one of the layer modules (``vpcme.cli``, ``vpcme.dataset``, ...), in every
loaded ``vpcme.*`` namespace, with a wrapper that records a span: name,
start, end, parent span and run id. Rebinding every namespace matters
because ``ensemble``, ``harness`` and ``cli`` import names with
``from ... import ...``; patching only the defining module would miss
those calls. ``Tracer.remove`` puts the original objects back.

A few spans also record counts (query rows, eigenproblem order, pairs
drawn) computed from the call's arguments and result. A function that no
longer exists simply produces no spans, so its metrics read zero.
"""

import functools
import inspect
import statistics
import sys
import time
import types

LAYERS = ("cli", "dataset", "harness", "ensemble", "constraints", "projection", "mlknn", "metrics")
LAYER_MODULES = {f"vpcme.{layer}": layer for layer in LAYERS}
TRAINERS = ("ensemble.train_vpcme", "ensemble.train_single_mlknn")
SETUP_RUN = -1
FLOAT_BYTES = 8


def _count_fit_mlknn(call, model):
    n, d = model.train_points.shape
    # the self-excluded search compares every training row with every other
    return {"query_rows": n, "distance_evals": n * n, "distance_flops": 3 * d * n * n}


def _count_posterior(call, scores):
    model = call[0]
    n, d = model.train_points.shape
    m = scores.shape[0] if scores.ndim == 2 else 1
    return {"query_rows": m, "distance_evals": n * m, "distance_flops": 3 * d * n * m}


def _count_eigen(call, result):
    return {"eigen_order": len(result[0])}


def _count_projection(call, model):
    return {"kept_dims": model.reduced_dim, "input_dims": model.input_dim}


def _count_constraints(call, sets):
    cfg = call[2]
    return {
        "pairs": sets.n_must + sets.n_cannot,
        "target": cfg.target_must + cfg.target_cannot,
        "uniform_bytes": 2 * cfg.max_attempts * FLOAT_BYTES,
    }


def _count_training(call, model):
    return {
        "members": len(model.members),
        "error_sum": sum(entry[0] for entry in model.training_log),
    }


def _count_cv(call, report):
    return {"fold_units": len(report.units)}


# keyed by span name; each counter sees the bound call arguments (defaults
# applied, in parameter order) and the return value
COUNTERS = {
    "mlknn.fit_mlknn": _count_fit_mlknn,
    "mlknn.posterior_scores": _count_posterior,
    "projection.symmetric_eigen": _count_eigen,
    "projection.fit_projection": _count_projection,
    "constraints.sample_constraints": _count_constraints,
    "ensemble.train_vpcme": _count_training,
    "ensemble.train_single_mlknn": _count_training,
    "harness.cross_validate": _count_cv,
}


class Span:
    __slots__ = ("id", "parent", "name", "run", "start", "end", "counts")

    def __init__(self, span_id, parent, name, run):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.run = run
        self.start = 0.0
        self.end = 0.0
        self.counts = None

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans in memory while installed; ``run_id`` tags each operation."""

    def __init__(self):
        self.spans = []
        self.run_id = 0
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), parent, name, self.run_id)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(list(bound.arguments.values()), result)
            return result

        return traced

    def install(self):
        wrappers = {}
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "vpcme" or module_name.startswith("vpcme.")):
                continue
            for attr, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                layer = LAYER_MODULES.get(value.__module__)
                if layer is None or value.__name__.startswith("_"):
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value, f"{layer}.{value.__name__}")
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def remove(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False


class _OpView:
    """The spans of one traced operation, with parent links resolved."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s.id: s for s in spans}
        self.child_time = {s.id: 0.0 for s in spans}
        for s in spans:
            if s.parent in self.child_time:
                self.child_time[s.parent] += s.duration

    def self_time(self, span):
        return span.duration - self.child_time[span.id]

    def under(self, span, ancestors):
        parent = self.by_id.get(span.parent)
        while parent is not None:
            if parent.name in ancestors:
                return True
            parent = self.by_id.get(parent.parent)
        return False

    def named(self, *names):
        return [s for s in self.spans if s.name in names]

    def total(self, *names):
        return sum(s.duration for s in self.named(*names))

    def count(self, name, key):
        return sum(s.counts[key] for s in self.named(name) if s.counts)

    def layer_self(self, layer):
        return sum(self.self_time(s) for s in self.spans if s.layer == layer)


def op_metrics(spans, wall_s):
    """Per-layer metrics of one traced operation that took ``wall_s``."""
    v = _OpView(spans)
    posterior = v.named("mlknn.posterior_scores")
    knn_s = v.total("mlknn.fit_mlknn", "mlknn.posterior_scores")
    flops = v.count("mlknn.fit_mlknn", "distance_flops") + v.count("mlknn.posterior_scores", "distance_flops")
    eigen_orders = [s.counts["eigen_order"] for s in v.named("projection.symmetric_eigen")]
    projections = [s.counts for s in v.named("projection.fit_projection")]
    uniform_blocks = [s.counts["uniform_bytes"] for s in v.named("constraints.sample_constraints")]
    target = v.count("constraints.sample_constraints", "target")
    members = sum(v.count(name, "members") for name in TRAINERS)
    layer_self = {layer: v.layer_self(layer) for layer in LAYERS}
    m = {
        "mlknn.fit_s": v.total("mlknn.fit_mlknn"),
        "mlknn.train_predict_s": sum(s.duration for s in posterior if v.under(s, TRAINERS)),
        "mlknn.test_predict_s": sum(
            s.duration for s in posterior if v.under(s, ("ensemble.predict_ensemble",))
        ),
        "mlknn.query_rows": v.count("mlknn.fit_mlknn", "query_rows") + v.count("mlknn.posterior_scores", "query_rows"),
        "mlknn.distance_evals": v.count("mlknn.fit_mlknn", "distance_evals")
        + v.count("mlknn.posterior_scores", "distance_evals"),
        "mlknn.distance_gflops_per_s": flops / knn_s / 1e9 if knn_s > 0 else 0.0,
        "projection.fit_s": v.total("projection.fit_projection"),
        "projection.scatter_s": v.total("projection.scatter_matrices", "projection.scaling_coefficient"),
        "projection.eigen_s": v.total("projection.symmetric_eigen"),
        "projection.eigen_order": max(eigen_orders, default=0),
        "projection.kept_dim_ratio": statistics.fmean(p["kept_dims"] / p["input_dims"] for p in projections)
        if projections
        else 0.0,
        "projection.transform_s": v.total("projection.transform"),
        "constraints.sample_s": v.total("constraints.sample_constraints"),
        "constraints.calls": len(v.named("constraints.sample_constraints")),
        "constraints.fill_ratio": v.count("constraints.sample_constraints", "pairs") / target if target else 0.0,
        "constraints.uniform_bytes": max(uniform_blocks, default=0),
        "ensemble.train_s": v.total(*TRAINERS),
        "ensemble.train_self_s": sum(v.self_time(s) for s in v.named(*TRAINERS)),
        "ensemble.predict_s": v.total("ensemble.predict_ensemble"),
        "ensemble.predict_self_s": sum(v.self_time(s) for s in v.named("ensemble.predict_ensemble")),
        "ensemble.members": members,
        "ensemble.train_error_mean": sum(v.count(name, "error_sum") for name in TRAINERS) / members
        if members
        else 0.0,
        "ensemble.save_model_s": v.total("ensemble.save_model"),
        "ensemble.load_model_s": v.total("ensemble.load_model"),
        "harness.cross_validate_s": v.total("harness.cross_validate"),
        "harness.fold_units": v.count("harness.cross_validate", "fold_units"),
        "dataset.load_csv_s": v.total("dataset.load_csv"),
        "dataset.kfold_split_s": v.total("dataset.kfold_split"),
        "metrics.evaluate_s": v.total("metrics.evaluate_all"),
        "cli.main_s": v.total("cli.main"),
    }
    for layer, seconds in layer_self.items():
        m[f"{layer}.self_s"] = seconds
    m["trace.wall_s"] = wall_s
    m["trace.accounted_ratio"] = sum(layer_self.values()) / wall_s if wall_s > 0 else 0.0
    m["trace.spans"] = len(spans)
    return m


def traced_metrics(tracer, walls):
    """Median over traced operations of each per-layer metric.

    ``walls`` maps each traced run id to the operation's wall time. Spans
    tagged ``SETUP_RUN`` belong to the set-up and count only towards
    ``ensemble.save_model_s``.
    """
    by_run = {run: [] for run in walls}
    for span in tracer.spans:
        if span.run in by_run:
            by_run[span.run].append(span)
    per_op = [op_metrics(by_run[run], wall) for run, wall in walls.items()]
    metrics = {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
    # no operation saves a model; the traced set-up is where one is saved
    setup = _OpView([s for s in tracer.spans if s.run == SETUP_RUN])
    metrics["ensemble.save_model_s"] += setup.total("ensemble.save_model")
    return metrics
