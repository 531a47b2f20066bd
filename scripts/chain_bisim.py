"""Bisimilarity on explicit chains: time and work per chain length.

A chain s0 -a-> s1 -a-> ... -a-> s<n-1> has n singleton classes, and its
signature refinement splits off one state per round, so it needs n-1 rounds:
the deepest case for a round-based refinement.  For each n the script
writes the chain as a spec of ground facts, then reports the best of
--repeat wall times of `bigsos equiv CHAIN s0 s1 --rel bisim`, run in
process through cli.run, and of bisimilarity_classes on the least model, and
the number of rounds and of relabels (states given a fresh block id) the
round record holds.  A round record without relabel dicts, as in checkouts
that refine bisimilarity on bitset rows, reports relabels as null.

    python scripts/chain_bisim.py [--src SRC] [--sizes 250,500,1000,2000]

SRC is the src directory of the checkout to measure (default: this one's).
One JSON object per size goes to standard output.
"""

import argparse
import io
import json
import os
import sys
import tempfile
import time


def chain_text(n: int) -> str:
    return ("behaviour lts labels a\n"
            + "ops " + ", ".join(f"s{i}/0" for i in range(n)) + "\n"
            + "".join(f"rule r{i} : |- s{i} -a-> s{i + 1}\n" for i in range(n - 1)))


def best_of(repeat: int, fn) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=os.path.join(os.path.dirname(__file__), "..", "src"))
    ap.add_argument("--sizes", default="250,500,1000,2000")
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from bigsos import cli
    from bigsos.engine import least_model
    from bigsos.relations import bisimilarity_classes
    from bigsos.speclang import parse_spec
    from bigsos.terms import UniversePolicy

    with tempfile.TemporaryDirectory() as tmp:
        for n in map(int, args.sizes.split(",")):
            path = os.path.join(tmp, f"chain{n}.sos")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(chain_text(n))
            argv = ["equiv", path, "s0", "s1", "--rel", "bisim", "--universe-count", str(n)]
            out = io.StringIO()
            cli.run(argv, out, io.StringIO())
            if out.getvalue() != f"related: no\nwitness: distinguishing depth {n - 1}\n":
                raise SystemExit(f"unexpected equiv output at n={n}: {out.getvalue()!r}")
            cli_s = best_of(args.repeat, lambda: cli.run(argv, io.StringIO(), io.StringIO()))
            model, _ = least_model(parse_spec(chain_text(n)),
                                   policy=UniversePolicy(max_count=n, max_size=0))
            classes_s = best_of(args.repeat, lambda: bisimilarity_classes(model))
            rounds: list = []
            bisimilarity_classes(model, rounds)
            relabels = (sum(map(len, rounds)) if all(isinstance(r, dict) for r in rounds)
                        else None)
            print(json.dumps({"n": n, "equiv_cli_s": round(cli_s, 4),
                              "bisimilarity_classes_s": round(classes_s, 4),
                              "rounds": len(rounds), "relabels": relabels}), flush=True)


if __name__ == "__main__":
    main()
