"""Command-line interface.

Subcommands: stats, cv, sweep-theta, sweep-size, compare, train, predict.
Reports are JSON documents written to --out (or stdout); they are
byte-identical across reruns with the same flags, so wall time goes to
stderr only.
"""

import argparse
import json
import sys
import time
from dataclasses import asdict

from . import __version__
from .dataset import compute_stats, format_rows, load_csv, load_features
from .ensemble import load_model, predict_ensemble, save_model
from .errors import VpcmeError
from .harness import (
    METHODS,
    ExperimentConfig,
    SweepSpec,
    compare_methods,
    cross_validate,
    run_sweep,
    train_method,
)

REPORT_SCHEMA = "vpcme-report/1"
# vpcme-report/1 names the kernel backend; numpy is the only one
REPORT_BACKEND = "numpy"


def _add_common(parser, method=True, protocol=True):
    parser.add_argument("--data", required=True, help="dataset CSV path")
    parser.add_argument("--labels", required=True, type=int,
                        help="number of trailing label columns")
    if method:
        parser.add_argument("--method", default="vpcme", help=f"one of {', '.join(METHODS)}")
    parser.add_argument("--theta", type=float, default=0.6, help="constraint threshold")
    parser.add_argument("--ensemble-size", type=int, default=30, dest="ensemble_size")
    parser.add_argument("--k", type=int, default=10, help="MLKNN neighbor count")
    parser.add_argument("--smoothing", type=float, default=1.0, help="MLKNN Laplace smoothing")
    if protocol:  # cross-validation only
        parser.add_argument("--folds", type=int, default=5)
        parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--zscore", action="store_true",
                        help="standardize features per training fold")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vpcme",
                                     description="Multi-label ensemble via pairwise constraint projection")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="dataset statistics")
    p.add_argument("--data", required=True)
    p.add_argument("--labels", required=True, type=int)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("cv", help="repeated k-fold cross-validation")
    _add_common(p)
    p.set_defaults(handler=_cmd_cv)

    p = sub.add_parser("sweep-theta", help="cross-validate over a threshold list")
    _add_common(p)
    p.add_argument("--values", default=None,
                   help="comma-separated thresholds (default 0.1..1.0 step 0.1)")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("sweep-size", help="cross-validate over ensemble sizes")
    _add_common(p)
    p.add_argument("--values", default=None,
                   help="comma-separated sizes (default 1,10,20,30,40,50)")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("compare", help="run methods on identical splits and t-test them")
    _add_common(p, method=False)
    p.add_argument("--method", default=",".join(METHODS),
                   help="comma-separated method list; the first is the reference")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("train", help="train on the full dataset and persist the model")
    _add_common(p, protocol=False)
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("predict", help="emit per-instance scores and bipartitions as CSV")
    p.add_argument("--model", required=True, help="model file written by train")
    p.add_argument("--data", required=True)
    p.add_argument("--labels", type=int, default=0,
                   help="trailing 0/1 label columns to strip (0 = features only)")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_predict)
    return parser


def _experiment_config(args, method=None) -> ExperimentConfig:
    protocol = {"folds": args.folds, "repeats": args.repeats} if "folds" in args else {}
    return ExperimentConfig(
        data=args.data,
        label_count=args.labels,
        method=method if method is not None else args.method,
        theta=args.theta,
        ensemble_size=args.ensemble_size,
        k_neighbors=args.k,
        smoothing=args.smoothing,
        seed=args.seed,
        zscore=args.zscore,
        **protocol,
    )


def _document(command: str, config: dict, body: dict) -> dict:
    doc = {
        "schema": REPORT_SCHEMA,
        "command": command,
        "version": __version__,
        "backend": REPORT_BACKEND,
        "config": config,
    }
    doc.update(body)
    return doc


def _write(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit(doc: dict, out_path) -> None:
    _write(json.dumps(doc, indent=2, sort_keys=True) + "\n", out_path)


def _print_metric_table(rows):
    """Aligned metric table on stderr: one row per (label, report)."""
    if not rows:
        return
    names = list(rows[0][1].metrics.keys())
    header = ["run"] + names
    widths = [max(len(header[0]), max(len(str(r[0])) for r in rows))]
    widths += [max(len(n), 15) for n in names]
    line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
    print(line, file=sys.stderr)
    for label, report in rows:
        cells = [str(label).ljust(widths[0])]
        for i, name in enumerate(names):
            s = report.metrics[name]
            cells.append(f"{s.mean:.4f} ±{s.std:.4f}".ljust(widths[i + 1]))
        print("  ".join(cells), file=sys.stderr)


def _parse_values(raw, parameter):
    if raw is None:
        return None
    kind = float if parameter == "theta" else int
    try:
        return tuple(kind(part) for part in raw.split(",") if part.strip() != "")
    except ValueError:
        raise VpcmeError(f"--values must be a comma-separated list of {kind.__name__}s") from None


def _cmd_stats(args):
    ds = load_csv(args.data, args.labels)
    stats = compute_stats(ds)
    doc = _document(
        "stats",
        {"data": args.data, "label_count": args.labels},
        {
            "stats": {
                "instances": stats.instances,
                "features": stats.features,
                "labels": stats.labels,
                "distinct": stats.distinct,
                "cardinality": stats.cardinality,
                "density": stats.density,
            }
        },
    )
    _emit(doc, args.out)


def _cmd_cv(args):
    cfg = _experiment_config(args)
    report = cross_validate(cfg)
    doc = _document("cv", asdict(cfg), report.to_dict())
    _emit(doc, args.out)
    _print_metric_table([(cfg.method, report)])


def _cmd_sweep(args):
    parameter = "theta" if args.command == "sweep-theta" else "ensemble_size"
    cfg = _experiment_config(args)
    spec = SweepSpec(parameter=parameter, values=_parse_values(args.values, parameter))
    results = run_sweep(cfg, spec)
    body = {
        "sweep": {"parameter": parameter, "values": list(spec.values)},
        "results": [
            {"value": value, **report.to_dict()} for value, report in results
        ],
    }
    doc = _document(args.command, asdict(cfg), body)
    _emit(doc, args.out)
    _print_metric_table([(f"{parameter}={value}", report) for value, report in results])


def _cmd_compare(args):
    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    cfgs = [_experiment_config(args, method=m) for m in methods]
    comparison = compare_methods(cfgs)
    body = {
        "methods": comparison["methods"],
        "reference": comparison["reference"],
        "results": {m: r.to_dict() for m, r in comparison["reports"].items()},
        "tests": comparison["tests"],
    }
    doc = _document("compare", asdict(cfgs[0]), body)
    _emit(doc, args.out)
    _print_metric_table([(m, comparison["reports"][m]) for m in comparison["methods"]])


def _cmd_train(args):
    if not args.out:
        raise VpcmeError("train requires --out for the model file")
    cfg = _experiment_config(args)
    model = train_method(cfg, load_csv(args.data, args.labels), cfg.seed)
    save_model(model, args.out)
    print(f"model with {len(model.members)} member(s) written to {args.out}", file=sys.stderr)


def _cmd_predict(args):
    model = load_model(args.model)
    features, _ = load_features(args.data, args.labels)
    if features.shape[1] != model.feature_count:
        raise VpcmeError(
            f"{args.data}: expected {model.feature_count} feature columns, got {features.shape[1]}"
        )
    bipartitions, scores = predict_ensemble(model, features)
    r = model.label_count
    header = [f"score_{i}" for i in range(r)] + [f"pred_{i}" for i in range(r)]
    _write(",".join(header) + "\n" + format_rows(scores, bipartitions), args.out)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        args.handler(args)
    except (VpcmeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.command} finished in {time.perf_counter() - started:.2f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
