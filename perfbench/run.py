"""Benchmark of the merton-factor package: one workload per run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for why each was chosen): ``solve-large``,
``cli-solve-csv``, ``mc-regime`` and ``mc-diffusion``.  The load is a
closed loop: one worker process issues one op at a time, with
``MERTON_FACTOR_THREADS=1`` and ``OPENBLAS_NUM_THREADS=1``.  Every op's
output is checked; a failed check counts the op as failed.

``--trace 0`` reports the end-to-end metrics: set-up time (median over
several fresh worker processes, each importing the package, loading the
model and running one small warm-up op), the median op time, work per
second at that median (grid nodes or path-steps) and the worker's peak
resident memory.  ``--trace 1`` reports per-layer metrics from a separate
run whose ops alternate untraced and traced (see ``tracing.py``).

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Details of each run (per-op records, digests of Monte Carlo results, the
environment, and the spans of a traced run) go to ``perfbench/out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
WORKLOADS = ("solve-large", "cli-solve-csv", "mc-regime", "mc-diffusion")
SETUPS = 5  # set-ups per run; setup_s is their median
DEADLINE_S = 170.0  # the whole run, set-ups included

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s.p50": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def src_lines(root):
    return sum(
        len(path.read_text().splitlines())
        for path in sorted((root / "src").rglob("*.py"))
    )


def git_sha(root):
    # Only inside a repository rooted here; never search parent directories.
    if not (root / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False
    )
    return done.stdout.strip() or None


class Worker:
    """One worker process; ``start`` returns once it has printed READY."""

    def __init__(self, root, args, out_dir, setup_only):
        self.command = [
            sys.executable,
            str(HERE / "worker.py"),
            "--root", str(root),
            "--out-dir", str(out_dir),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.trace:
            self.command += ["--trace-file", str(out_dir / f"{args.workload}-seed{args.seed}-spans.json")]
        if setup_only:
            self.command.append("--setup-only")
        self.env = dict(
            os.environ,
            MERTON_FACTOR_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            PYTHONHASHSEED="0",
            PYTHONPATH=str(root / "src"),
        )
        self.root = root
        self.proc = None

    def start(self):
        """Start the worker; return its set-up time in seconds."""
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            self.command, cwd=self.root, env=self.env, stdout=subprocess.PIPE, text=True
        )
        line = self.proc.stdout.readline()
        seconds = time.perf_counter() - start
        if line.strip() != "READY":
            raise BenchError(f"worker set-up failed (exit code {self.proc.wait()})")
        return seconds

    def finish(self, timeout):
        """Wait for the worker; return the last line it printed, if any."""
        try:
            out, _ = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        lines = out.strip().splitlines()
        return lines[-1] if lines else None

    def stop(self):
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
        if self.proc is not None:
            self.proc.wait()


def run_workers(root, args, out_dir):
    """(set-up times, worker result) for one run."""
    deadline = time.perf_counter() + DEADLINE_S
    setups = []
    for _ in range(SETUPS - 1):
        worker = Worker(root, args, out_dir, setup_only=True)
        try:
            setups.append(worker.start())
            worker.finish(deadline - time.perf_counter())
        finally:
            worker.stop()
    worker = Worker(root, args, out_dir, setup_only=False)
    try:
        setups.append(worker.start())
        last = worker.finish(deadline - time.perf_counter())
        if last is None:
            raise BenchError("worker printed no result")
        result = json.loads(last)
    finally:
        worker.stop()
    return setups, result


def median_of(records, key):
    return statistics.median(record[key] for record in records)


def mc_seconds_to_1pct(ops):
    """Median over ops of op seconds * (SE / (0.01 |value|))^2."""
    return statistics.median(
        op["op_s"] * (op["obs"]["se"] / (0.01 * abs(op["obs"]["value"]))) ** 2 for op in ops
    )


def summarize(args, setups, result, root):
    ops = result["ops"]
    traced = result.get("traced_ops", [])
    for op in ops + traced:
        if not op["ok"]:
            print(f"op {op['op']} failed:\n{op.get('error', '')}", file=sys.stderr)
    good = [op for op in ops if op["ok"]]
    if not good:
        raise BenchError("no op succeeded")
    attempted = len(ops) + len(traced)
    failed = sum(not op["ok"] for op in ops + traced)
    thread_check = result.get("thread_check")
    if thread_check is not None:
        attempted += 1
        failed += not thread_check["bitwise_equal"]

    op_p50 = median_of(good, "op_s")
    end_to_end = {
        "setup_s": statistics.median(setups),
        "op_s.p50": op_p50,
        "work_per_s": result["work_per_op"] / op_p50,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    is_mc = "se" in good[0]["obs"]

    lines = [
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"closed loop, 1 client, {len(ops)} ops in {sum(op['op_s'] for op in ops):.1f} s",
    ]
    env = dict(result["env"])
    env.update(
        nproc=os.cpu_count(),
        cpus_allowed=len(os.sched_getaffinity(0)),
        git_sha=git_sha(root),
        src_lines=src_lines(root),
    )
    lines.append("env " + json.dumps(env, sort_keys=True))
    lines.append(f"  setup_s            {end_to_end['setup_s']:.4f} s   (median of {len(setups)} set-ups)")
    lines.append(f"  op_s.p50           {op_p50:.4f} s   (median of {len(good)} ops)")
    throughput = "path_steps_per_s" if is_mc else "nodes_per_s"
    lines.append(f"  {throughput:<18} {end_to_end['work_per_s']:.6g} 1/s   "
                 f"({result['work_per_op']} {result['work_unit']} per op)")
    if is_mc:
        lines.append(f"  mc_s_to_se1pct     {mc_seconds_to_1pct(good):.4f} s   "
                     "(op s x (SE / 1% of |value|)^2, median over ops)")
    lines.append(f"  peak_rss_mb        {end_to_end['peak_rss_mb']:.1f} MB")
    lines.append(f"  error_rate         {failed / attempted:.4g}   ({failed} of {attempted} ops failed)")
    if is_mc:
        lines.append("  digests " + " ".join(f"{op['op']}:{op['obs']['digest']}" for op in good))
    if args.trace:
        metrics = layer_summary(result, good, root, is_mc, lines)
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    else:
        metrics = end_to_end
        units = END_TO_END_UNITS
    details = {
        "args": vars(args),
        "env": env,
        "setups_s": setups,
        "end_to_end": end_to_end,
        "metrics": metrics,
        "ops": ops,
        "traced_ops": traced,
        "thread_check": thread_check,
    }
    out_path = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(details, indent=1))
    lines.append(f"details in {out_path.relative_to(root)}")
    return lines, {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def layer_summary(result, good, root, is_mc, lines):
    """Median per-layer metrics over the traced ops, plus overhead and counts."""
    layers = result["layers"]
    if not layers:
        raise BenchError("no traced op succeeded")
    traced_good = [op for op in result["traced_ops"] if op["ok"]]
    run_level = {
        "montecarlo.s_to_se1pct": mc_seconds_to_1pct(good) if is_mc else 0.0,
        "trace.overhead_s": median_of(traced_good, "op_s") - median_of(good, "op_s"),
        "src.lines": src_lines(root),
    }
    metrics = {
        name: run_level[name] if name in run_level else statistics.median(
            layer[name] for layer in layers
        )
        for name in LAYER_METRICS
    }
    lines.append(f"per-layer metrics, median over {len(layers)} traced ops:")
    for name, (unit, _) in LAYER_METRICS.items():
        lines.append(f"  {name:<38} {metrics[name]:.6g} {unit}")
    lines.append(
        f"  tracing overhead: traced op_s.p50 {median_of(traced_good, 'op_s'):.4f} s - "
        f"untraced {median_of(good, 'op_s'):.4f} s = {metrics['trace.overhead_s']:+.4f} s"
    )
    check = result.get("thread_check")
    if check is not None:
        verdict = "bitwise equal" if check["bitwise_equal"] else "DIFFERENT"
        lines.append(
            f"  thread check: op 0 with MERTON_FACTOR_THREADS=2 digest {check['digest']} vs "
            f"1 thread {check['reference_digest']}: {verdict}"
        )
    return metrics


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "merton_factor" / "__init__.py").is_file():
        print("error: run from the root of a merton-factor checkout (src/merton_factor missing)",
              file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    try:
        setups, result = run_workers(root, args, out_dir)
        lines, document = summarize(args, setups, result, root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
