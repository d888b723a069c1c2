"""Benchmark for vpcme: workloads driven through its public API and CLI,
with end-to-end and per-layer metrics. BENCHMARK.json gates yeast-cv and
yeast-predict; scene-train runs by name only (see workloads.py).

Run from the repository root:

    python3 perfbench/run.py --workload yeast-cv --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --smoke

One run sets the workload up several times (the median is ``setup_s``),
then repeats the workload's operation for ``--seconds`` (at least once)
and reports medians. With ``--trace 0`` it prints the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced operations and prints
the per-layer metrics of the traced ones (see spans.py). All load comes
from this one process, with BLAS at its default thread count.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Lines before it give the machine and the
workload's own rate (members per second or rows per second). An operation
counts as failed when it raises or its output fails the check: the output
must be well formed, byte-identical across operations and across runs of
one checkout (digests kept in ``.bench_state/``), and of a quality inside
the recorded reference band. ``--workload all`` runs every workload, one
after another in child processes, and prints one table.

``--smoke`` runs every workload at toy size in both trace modes and checks
that each metric named in BENCHMARK.json is emitted with its unit.
"""

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# set-up runs at least this many times and for at least this long, so that
# its median is not at the mercy of one of the machine's slow spells
SETUP_REPEATS = 3
SETUP_MIN_S = 5.0
END_TO_END_UNITS = {
    "setup_s": "s",
    "paper_protocol_h": "h",
    "hamming_loss": "ratio",
    "average_precision": "ratio",
}


DETAIL_UNITS = {
    "members_per_s": "1/s",
    "predict_rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}


def per_layer_unit(name):
    if name.endswith("gflops_per_s"):
        return "GFLOP/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_ratio", "_mean")):
        return "ratio"
    return "count"


def _blas_threads():
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "lib*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_info():
    import numpy

    import vpcme

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "backend": vpcme.active_backend() if hasattr(vpcme, "active_backend") else None,
    }


def _digest_problem(state_dir, key, digest):
    """Compare with the digest an earlier run of this checkout stored, or store it."""
    if state_dir is None:
        return None
    path = state_dir / f"{key}.sha256"
    if path.exists():
        stored = path.read_text().strip()
        return None if stored == digest else f"output differs from an earlier run ({stored[:12]} vs {digest[:12]})"
    state_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(digest + "\n")
    os.replace(tmp, path)
    return None


def run_workload(name, seed, seconds, trace, smoke, workdir, state_dir):
    """One benchmark run; returns the result object plus its detail line."""
    from spans import SETUP_RUN, Tracer, traced_metrics
    from workloads import WORKLOADS, band_problems

    wl = WORKLOADS[name](seed, workdir, smoke)
    tracer = Tracer()
    setup_times = []
    # a traced run sets up once, traced, since set-up is where a model is saved
    tracer.run_id = SETUP_RUN
    repeats, min_s = (1, 0.0) if trace else (SETUP_REPEATS, SETUP_MIN_S)
    while len(setup_times) < repeats or sum(setup_times) < min_s:
        with tracer if trace else contextlib.nullcontext():
            start = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - start)

    untraced, traced = [], {}
    first_digest = quality = None
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        tracing = trace and attempted % 2 == 1
        tracer.run_id = attempted
        try:
            with tracer if tracing else contextlib.nullcontext():
                start = time.perf_counter()
                output = wl.op()
                wall = time.perf_counter() - start
            problems = wl.check(output)
            digest = wl.digest(output)
        except Exception:  # a failing operation is counted, and the run goes on
            traceback.print_exc()
            output, problems = None, ["raised"]
        attempted += 1
        if output is not None:
            if first_digest is None:
                first_digest, quality = digest, wl.quality(output)
                if not smoke:
                    problems += band_problems(name, quality)
                stale = _digest_problem(state_dir, f"{name}-seed{seed}", digest)
                if stale:
                    problems.append(stale)
            elif digest != first_digest:
                problems.append("output differs from the first operation's")
        if problems:
            failed += 1
            print(f"{name}: operation {attempted} failed: {'; '.join(problems)}", file=sys.stderr)
        elif tracing:
            traced[attempted - 1] = wall
        else:
            untraced.append(wall)
        enough = attempted >= 2 if trace else attempted >= 1
        if enough and time.perf_counter() - started >= seconds:
            break
    if not untraced or (trace and not traced):
        return None

    op_s = statistics.median(untraced)
    if trace:
        metrics = traced_metrics(tracer, traced)
        metrics["trace.overhead_s"] = statistics.median(traced.values()) - op_s
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in metrics.items()}
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "paper_protocol_h": wl.protocol_hours(op_s),
            "hamming_loss": quality["hamming_loss"],
            "average_precision": quality["average_precision"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    detail = {
        "workload": name,
        "op_s": op_s,
        "ops": len(untraced),
        **wl.rates(op_s),
        "failed_frac": failed / attempted,
        # not gated: glibc's adaptive mmap threshold makes the peak jump by
        # tens of MB between seeds whose live memory is the same
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, detail


def _run_one(args):
    workdir = ROOT / ".bench_tmp" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        print("machine " + json.dumps(machine_info()), flush=True)
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), False,
                               workdir, ROOT / ".bench_state")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if outcome is None:
        print(f"{args.workload}: no operation succeeded", file=sys.stderr)
        return 1
    result, detail = outcome
    print("detail " + json.dumps(detail))
    print(json.dumps(result), flush=True)
    return 0


def _run_all(args):
    """Every workload in turn, each in a child process so peak RSS is its own."""
    from workloads import WORKLOADS

    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return 1
        machine = next(json.loads(l[8:]) for l in lines if l.startswith("machine "))
        detail = next(json.loads(l[7:]) for l in lines if l.startswith("detail "))
        rows.append((name, detail, json.loads(lines[-1])))
    print("machine " + json.dumps(machine))
    for name, detail, result in rows:
        print(f"\n{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:32s} {m['value']:>14.6g} {m['unit']}")
        for key, unit in DETAIL_UNITS.items():
            if key in detail:
                print(f"  {key:32s} {detail[key]:>14.6g} {unit}")
    return 0


def smoke(workdir):
    """Run every workload at toy size, both trace modes; return the problems found."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            outcome = run_workload(name, 0, 0.0, bool(trace), True, workdir, None)
            if outcome is None:
                problems.append(f"{name} trace={trace}: no operation succeeded")
                continue
            result, _ = outcome
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{name} trace={trace}: metrics {sorted(set(got.items()) ^ set(expected[trace].items()))}")
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: output check failed")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy-size self-check of every workload")
    args = parser.parse_args()

    if not (SRC / "vpcme" / "__init__.py").is_file():
        print(f"vpcme sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.smoke:
        workdir = ROOT / ".bench_tmp" / "smoke"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            problems = smoke(workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for p in problems:
            print(p, file=sys.stderr)
        print("smoke " + ("failed" if problems else "ok"))
        return 1 if problems else 0
    if args.workload == "all":
        return _run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be 'all' or one of {', '.join(WORKLOADS)}")
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
