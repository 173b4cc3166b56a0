"""Benchmark worker: runs one workload in this process, one op at a time.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and the thread variables set.  Prints ``READY`` once set-up is done
(imports, model load, one small warm-up op), then, unless ``--setup-only``,
runs ops in a closed loop and prints one JSON line with the per-op records.

Untraced runs issue ops for ``--seconds``.  Traced runs issue pairs of ops
with the same seed, untraced then traced, for as long, so that the tracing
overhead is measured on equal work; the traced op must reproduce the
untraced op's Monte Carlo result bitwise.
"""

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

perf_counter = time.perf_counter


def _import_package(root):
    import merton_factor

    expected = (root / "src" / "merton_factor").resolve()
    found = Path(merton_factor.__file__).resolve().parent
    if found != expected:
        raise SystemExit(f"merton_factor imported from {found}, expected {expected}")


def run_one(workload, k, wrap=None):
    """Time op k (inside ``wrap``, if given), then check it untimed."""
    record = {"op": k, "ok": False}
    gc.collect()
    cpu0, t0 = time.process_time(), perf_counter()
    try:
        if wrap is None:
            out = workload.run_op(k)
        else:
            with wrap():
                out = workload.run_op(k)
    except Exception:
        record["error"] = traceback.format_exc()
        return record
    finally:
        record["op_s"] = perf_counter() - t0
        record["cpu_s"] = time.process_time() - cpu0
    try:
        record["obs"] = workload.check(k, out)
    except Exception:
        record["error"] = traceback.format_exc()
        return record
    record["ok"] = True
    return record


def run_plain(workload, seconds):
    ops = []
    start = perf_counter()
    while not ops or perf_counter() - start < seconds:
        ops.append(run_one(workload, len(ops)))
    return {"ops": ops}


def run_traced(workload, seconds, out_path):
    import tracing

    recorder = tracing.Recorder()
    hooks = tracing.PACKAGE_HOOKS + tuple(workload.hooks())
    missing = tracing.missing_hooks(hooks)
    if missing:
        print("missing hook targets: " + ", ".join(missing), file=sys.stderr)
        raise SystemExit(3)

    @contextmanager
    def tracing_on():
        workload.recorder = recorder
        try:
            with tracing.installed(recorder, hooks):
                yield
        finally:
            workload.recorder = None

    @contextmanager
    def op_span():
        with tracing_on(), recorder.span(f"op.{workload.name}"):
            yield

    plain_ops, traced_ops, layers = [], [], []
    start = perf_counter()
    k = 0
    while k == 0 or perf_counter() - start < seconds:
        plain = run_one(workload, k)
        recorder.op = k
        traced = run_one(workload, k, wrap=op_span)
        with tracing_on():
            workload.side_calls(k)
        recorder.op = None
        if plain["ok"] and traced["ok"]:
            same = plain["obs"].get("digest") == traced["obs"].get("digest")
            if not same:
                traced["ok"] = False
                traced["error"] = "traced op gave a different result than the untraced op"
        if traced["ok"]:
            metrics = tracing.op_layer_metrics(recorder, k, traced["obs"])
            metrics["proc.cpu_s"] = plain["cpu_s"]
            metrics["proc.cpu_util"] = plain["cpu_s"] / plain["op_s"]
            layers.append(metrics)
        plain_ops.append(plain)
        traced_ops.append(traced)
        k += 1

    result = {"ops": plain_ops, "traced_ops": traced_ops, "layers": layers}
    if workload.thread_check and plain_ops[0]["ok"]:
        result["thread_check"] = _thread_check(workload, plain_ops[0])
    with open(out_path, "w") as handle:
        json.dump(recorder.to_json(), handle)
    return result


def _thread_check(workload, reference):
    """Op 0 again with two Monte Carlo threads: mean and SE must match bitwise."""
    previous = os.environ.get("MERTON_FACTOR_THREADS")
    os.environ["MERTON_FACTOR_THREADS"] = "2"
    try:
        record = run_one(workload, 0)
    finally:
        if previous is None:
            del os.environ["MERTON_FACTOR_THREADS"]
        else:
            os.environ["MERTON_FACTOR_THREADS"] = previous
    same = record["ok"] and record["obs"]["digest"] == reference["obs"]["digest"]
    return {
        "threads": 2,
        "op_s": record["op_s"],
        "digest": record.get("obs", {}).get("digest"),
        "reference_digest": reference["obs"]["digest"],
        "bitwise_equal": bool(same),
        "error": record.get("error"),
    }


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "MERTON_FACTOR_THREADS": os.environ.get("MERTON_FACTOR_THREADS"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_package(args.root)
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.out_dir)
    workload.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = run_traced(workload, args.seconds, args.trace_file)
    else:
        result = run_plain(workload, args.seconds)
    result["work_per_op"] = workload.work_per_op
    result["work_unit"] = workload.work_unit
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["env"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
