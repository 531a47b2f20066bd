"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a checkout):

    python3 bench/spread.py --workload lts-equiv --seeds 1-10 [--trace 0] [--json OUT]

For every end-to-end metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.  A spread under a third of its bound is
marked ok.  Runs are sequential, so they do not compete for the processor.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec: dict, workload: str, seed: int, trace: int, env=None) -> tuple:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600,
                          env=env, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", default=None, metavar="PATH", help="also write the summary here")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict = {}
    details = []
    for seed in _seeds(args.seeds):
        detail, result = run_once(spec, args.workload, seed, args.trace)
        details.append(detail)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"rounds={detail['rounds']} wall={detail['wall_s']:.1f}s", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    summary = {}
    for name, vs in values.items():
        s = summarize(vs)
        s["values"] = vs
        summary[name] = s
        bound = bounds.get(name)
        mark = "" if bound is None or s["spread"] is None else \
            ("ok" if s["spread"] < bound / 3 else "WIDE")
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
        print(f"{args.workload:14} {name:34} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  spread {spread}  bound {bound}  {mark}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seeds": args.seeds, "trace": args.trace,
                       "metrics": summary, "details": details}, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
