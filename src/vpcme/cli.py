"""Command-line interface.

Subcommands: stats, cv, sweep-theta, sweep-size, compare, train, predict.
Reports are JSON documents written to --out (or stdout); they are
byte-identical across reruns with the same flags, so wall time goes to
stderr only.
"""

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import asdict, fields

from . import __version__
from .dataset import compute_stats, format_rows, load_csv, load_features, open_output
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
    # each sets the ExperimentConfig field of its dest; absent, the field keeps its default
    config_flag = functools.partial(parser.add_argument, default=argparse.SUPPRESS)
    if method:
        config_flag("--method", help=f"one of {', '.join(METHODS)}")
    config_flag("--theta", type=float, help="constraint threshold")
    config_flag("--ensemble-size", type=int, dest="ensemble_size")
    config_flag("--k", type=int, dest="k_neighbors", metavar="K", help="MLKNN neighbor count")
    config_flag("--smoothing", type=float, help="MLKNN Laplace smoothing")
    if protocol:  # cross-validation only
        config_flag("--folds", type=int)
        config_flag("--repeats", type=int)
    config_flag("--seed", type=int)
    config_flag("--zscore", action="store_true", help="standardize features per training fold")
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
    p.set_defaults(handler=_cmd_sweep, parameter="theta", value_type=float)

    p = sub.add_parser("sweep-size", help="cross-validate over ensemble sizes")
    _add_common(p)
    p.add_argument("--values", default=None,
                   help="comma-separated sizes (default 1,10,20,30,40,50)")
    p.set_defaults(handler=_cmd_sweep, parameter="ensemble_size", value_type=int)

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


def _experiment_config(args, **overrides) -> ExperimentConfig:
    given = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig) if f.name in args}
    return ExperimentConfig(**{**given, **overrides})


def _document(command: str, args, config: dict, body: dict) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "command": command,
        "version": __version__,
        "backend": REPORT_BACKEND,
        "config": {"data": args.data, "label_count": args.labels, **config},
        **body,
    }


def _write(text: str, out_path) -> None:
    if out_path:
        with open_output(out_path) as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit(doc: dict, out_path) -> None:
    _write(json.dumps(doc, indent=2, sort_keys=True) + "\n", out_path)


def _print_metric_table(rows):
    """Aligned metric table on stderr: one row per (label, report)."""
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


def _parse_values(raw, kind):
    if raw is None:
        return None
    try:
        return tuple(kind(part) for part in raw.split(",") if part.strip() != "")
    except ValueError:
        raise VpcmeError(f"--values must be a comma-separated list of {kind.__name__}s") from None


def _cmd_stats(args):
    stats = compute_stats(load_csv(args.data, args.labels))
    _emit(_document("stats", args, {}, {"stats": asdict(stats)}), args.out)


def _cmd_cv(args):
    cfg = _experiment_config(args)
    report = cross_validate(cfg, load_csv(args.data, args.labels))
    _emit(_document("cv", args, asdict(cfg), report.to_dict()), args.out)
    _print_metric_table([(cfg.method, report)])


def _cmd_sweep(args):
    cfg = _experiment_config(args)
    spec = SweepSpec(parameter=args.parameter, values=_parse_values(args.values, args.value_type))
    results = run_sweep(cfg, spec, load_csv(args.data, args.labels))
    body = {
        "sweep": {"parameter": spec.parameter, "values": list(spec.values)},
        "results": [
            {"value": value, **report.to_dict()} for value, report in results
        ],
    }
    _emit(_document(args.command, args, asdict(cfg), body), args.out)
    _print_metric_table([(f"{spec.parameter}={value}", report) for value, report in results])


def _cmd_compare(args):
    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    cfg = _experiment_config(args, method=(methods or METHODS)[0])
    comparison = compare_methods(cfg, methods, load_csv(args.data, args.labels))
    body = {
        "methods": comparison["methods"],
        "reference": comparison["reference"],
        "results": {m: r.to_dict() for m, r in comparison["reports"].items()},
        "tests": comparison["tests"],
    }
    _emit(_document("compare", args, asdict(cfg), body), args.out)
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
    bipartitions, scores = predict_ensemble(model, features)
    r = model.label_count
    header = [f"score_{i}" for i in range(r)] + [f"pred_{i}" for i in range(r)]
    _write(",".join(header) + "\n" + format_rows(scores, bipartitions), args.out)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:  # a path that cannot be written fails before the work, not after it
        if args.out and (os.path.isdir(args.out) or not os.path.isdir(os.path.dirname(args.out) or ".")):
            raise VpcmeError(f"--out must name a file in an existing directory, got {args.out}")
        args.handler(args)
    except (VpcmeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.command} finished in {time.perf_counter() - started:.2f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
