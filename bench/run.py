"""bigsos benchmark runner.

Usage (from the root of a checkout):

    python3 bench/run.py --workload closure-tower --seed 1 --seconds 30 --trace 0

Runs one workload in this process as a closed loop with one client and no
threads: each operation is a call to ``bigsos.cli.run(argv, out, err)``, the
entry point the ``bigsos`` command uses, and the next one starts when it has
returned.  Operations come in rounds (see workloads.py); the loop stops at
the end of the first round that ends after --seconds.  Every output is
checked against the benchmark's own reference answer.  Times are thread
CPU time rescaled to reference seconds by a calibration loop timed around
each operation (see calib.py), because a shared host's speed swings within
seconds; the detail line also gives the unscaled wall-clock figures.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones.  With --trace 1 each round runs twice on the same inputs,
untraced and traced, alternating which goes first, and the metrics are the
per-layer ones from spans.py, per traced operation, with the tracing
overhead.  The line before it holds details: the tail percentile and its
sample count, per-size latency rows, the failed ratio and output digests.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from calib import REFERENCE_S, SPEED_EXPONENT, Scaler
from spans import Tracer
from workloads import WORKLOADS, write_fixtures

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

SETUP_PROBES = 15  # at least; one is taken after every round, so they span the run
SPANS_WRITTEN = 200_000  # the first spans of a traced run go to the spans file


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _import_program():
    """Import bigsos from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "bigsos", "__init__.py")):
        raise ImportError(f"no bigsos package under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import bigsos.cli
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(bigsos.__file__).startswith(SRC + os.sep):
        raise ImportError(f"bigsos imported from {bigsos.__file__}, not {SRC}")
    return bigsos.cli, elapsed


def _setup_sample() -> float:
    """Fresh-process import time of bigsos.cli, from one probe process."""
    done = subprocess.run([sys.executable, "-I", os.path.join(BENCH, "probe_setup.py"), SRC],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Loop:
    """Runs operations, times them, checks them and keeps the records.

    An operation's time is its thread CPU time rescaled to reference
    seconds (calib.py); its wall time is kept for the detail line.
    """

    def __init__(self, cli, scaler: Scaler):
        self.cli = cli
        self.scaler = scaler
        self.times: list = []
        self.wall_times: list = []
        self.rows: dict = {}
        self.failures: list = []
        self.digest_all = hashlib.sha256()
        self.digest_first = hashlib.sha256()

    def run(self, op, first_round: bool) -> float:
        out, err = io.StringIO(), io.StringIO()
        problem = None
        w0, t0 = time.perf_counter(), time.thread_time()
        try:
            rc = self.cli.run(op.argv, out, err)
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            rc = None
            problem = f"exception {type(exc).__name__}: {exc}"
        cpu, wall = time.thread_time() - t0, time.perf_counter() - w0
        elapsed = self.scaler.scale(cpu)
        self.wall_times.append(wall)
        text = out.getvalue()
        if problem is None and rc != 0:
            problem = f"exit {rc}: {err.getvalue().strip()[:200]}"
        if problem is None:
            try:
                op.check(text)
            except Exception as exc:  # CheckFailed, or output that does not parse
                problem = f"wrong output: {type(exc).__name__}: {exc}"
        self.times.append(elapsed)
        for row in op.rows:
            self.rows.setdefault(row, []).append(elapsed)
        if problem is not None:
            self.failures.append(f"{op.rows[0]}: {problem}")
        blob = f"{op.rows[0]}\t{rc}\n{text}".encode()
        self.digest_all.update(blob)
        if first_round:
            self.digest_first.update(blob)
        return elapsed


def _tail(times: list) -> tuple:
    """Value, percentile and sample count at the highest percentile with at
    least ten samples beyond it (the maximum when there are too few)."""
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def _rows(rows: dict) -> dict:
    return {k: {"ops": len(v), "p50_s": statistics.median(v), "mean_s": statistics.fmean(v)}
            for k, v in sorted(rows.items())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs small inputs, for the smoke test")
    args = ap.parse_args(argv)

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    try:
        cli, first_import_s = _import_program()
        setup = [_setup_sample()]
    except (ImportError, OSError, subprocess.SubprocessError, ValueError) as exc:
        return _fail(f"cannot set up the program: {exc}")

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        write_fixtures(workdir)
        make_round = WORKLOADS[args.workload]
        return _measure(args, cli, make_round, workdir, setup, first_import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_ops(loop: Loop, ops: list, r: int, tracer=None) -> float:
    """Run one round's operations; returns the seconds spent inside them."""
    total = 0.0
    for op in ops:
        if tracer is not None:
            tracer.current_op = len(loop.times)
        total += loop.run(op, r == 0)
    return total


def _measure(args, cli, make_round, workdir, setup, first_import_s) -> int:
    scaler = Scaler()
    loop = Loop(cli, scaler)
    traced = Loop(cli, scaler) if args.trace else None
    tracer = None
    if args.trace:
        tracer = Tracer()
    untraced_s = traced_s = 0.0
    rounds = 0
    began = time.monotonic()
    while True:
        ops = make_round(args.seed, rounds, workdir, args.size)
        # Keep the benchmark's own objects (inputs, references, records) out
        # of the collections the program's operations trigger.
        gc.collect()
        gc.freeze()
        if tracer is None:
            untraced_s += _run_ops(loop, ops, rounds)
        else:
            # Same inputs twice; which pass goes first alternates by round.
            for traced_pass in ((False, True) if rounds % 2 == 0 else (True, False)):
                if traced_pass:
                    tracer.install()
                    try:
                        traced_s += _run_ops(traced, ops, rounds, tracer)
                    finally:
                        tracer.remove()
                else:
                    untraced_s += _run_ops(loop, ops, rounds)
        rounds += 1
        setup.append(_setup_sample())
        if time.monotonic() - began >= args.seconds:
            break
    wall_s = time.monotonic() - began
    while len(setup) < SETUP_PROBES:
        setup.append(_setup_sample())

    failures = loop.failures + (traced.failures if traced else [])
    attempted = len(loop.times) + (len(traced.times) if traced else 0)
    tail, tail_pct, beyond = _tail(loop.times)
    detail = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "rounds": rounds, "ops": len(loop.times), "wall_s": wall_s,
        "failed_ratio": len(failures) / attempted,
        "op_tail": {"percentile": tail_pct, "samples_beyond": beyond, "samples": len(loop.times)},
        "rows": _rows(loop.rows),
        "digest_round0": loop.digest_first.hexdigest(),
        "digest_all": loop.digest_all.hexdigest(),
        "setup_samples_s": setup, "first_import_s": first_import_s,
        # Unscaled figures, and the calibration loop's own times (calib.py).
        "wall": {"ops_per_s": len(loop.times) / sum(loop.wall_times),
                 "op_p50_s": statistics.median(loop.wall_times)},
        "calibration": {"reference_s": REFERENCE_S, "exponent": SPEED_EXPONENT,
                        "passes": len(scaler.samples),
                        "p50_s": statistics.median(scaler.samples),
                        "quartiles_s": statistics.quantiles(scaler.samples, n=4)},
        "failures": failures[:5],
    }
    correct = not failures
    if args.trace:
        metrics = _per_layer(tracer, loop, traced, untraced_s, traced_s)
        # Tracing must not change what the program prints.
        same = traced.digest_all.hexdigest() == loop.digest_all.hexdigest()
        correct = correct and same
        detail["traced_output_matches"] = same
        path = os.path.join(OUT, f"spans-{args.workload}.jsonl.gz")
        written = tracer.dump(path, SPANS_WRITTEN)
        detail["spans"] = {"count": len(tracer), "written": written, "file": path}
    else:
        metrics = {
            "ops_per_s": (len(loop.times) / untraced_s, "1/s"),
            "op_p50_s": (statistics.median(loop.times), "s"),
            "op_tail_s": (tail, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _per_layer(tracer, untraced: Loop, traced: Loop, untraced_s: float,
               traced_s: float) -> dict:
    """Per-layer totals divided by the number of traced operations."""
    ops = len(traced.times)
    metrics = {name: (value / ops, "s/op" if name.endswith("_s") else "count/op")
               for name, value in tracer.summary().items()}
    joined = metrics["behaviour.join.in_values"][0]
    metrics["behaviour.join.useful_ratio"] = (
        metrics["behaviour.join.out_transitions"][0] / joined if joined else 1.0, "ratio")
    untraced_rate = len(untraced.times) / untraced_s
    traced_rate = ops / traced_s
    metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_pct"] = (100.0 * (untraced_rate - traced_rate) / untraced_rate, "%")
    metrics["trace.spans_per_op"] = (len(tracer) / ops, "count/op")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
