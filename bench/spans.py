"""Spans around calls into bigsos's modules, recorded from outside the package.

``Tracer.install`` replaces each listed public function with a wrapper in
every bigsos module that holds a reference to it (``bigsos.engine.least_model``
and ``bigsos.cli.least_model`` alike), and the listed methods on the three
behaviour-kind classes.  ``Tracer.remove`` puts the originals back.

A span records the function, start, end, parent span and operation id in
flat arrays kept in memory.  Self time is derived from them afterwards: a
span's duration minus the durations of its children, which nest inside it
because the program is single-threaded.  Hot helpers such as ``state_key``
and ``sort_key`` are left unwrapped; a wrapper would cost more than they do.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

# (module, function) pairs wrapped wherever the function is bound.
FUNCTIONS = [
    ("cli", "run"),
    ("speclang", "parse_spec"), ("speclang", "validate_spec"),
    ("terms", "parse_term"), ("terms", "print_term"),
    ("engine", "least_model"), ("engine", "phi_step"), ("engine", "apply_rules"),
    ("engine", "lift_coalgebra"), ("engine", "unfold"), ("engine", "model_to_json"),
    ("relations", "greatest_simulation"), ("relations", "bisimilarity_classes"),
    ("relations", "distinguishing_depth"), ("relations", "depth_similarity"),
    ("relations", "law_suite"), ("relations", "congruence_test"),
]
# Methods patched on PartialStream, CountableLTS and WeightedLTS, reported
# under the behaviour module.
KIND_CLASSES = ("PartialStream", "CountableLTS", "WeightedLTS")
KIND_METHODS = ("conclusion_value", "join", "leq", "rel_lift", "map_states")

# Work counters taken from arguments and results by the _count_* methods.
COUNTERS = [
    "engine.iterations", "engine.universe_terms", "engine.frontier_terms",
    "engine.tainted_terms",
    "behaviour.join.in_values", "behaviour.join.out_transitions",
    "relations.greatest_simulation.pairs_out", "relations.bisimilarity_classes.classes_out",
    "relations.distinguishing_depth.unresolved",
]


def span_names() -> list:
    return ([f"{mod}.{fn}" for mod, fn in FUNCTIONS]
            + [f"behaviour.{m}" for m in KIND_METHODS])


class Tracer:
    def __init__(self):
        self.names = span_names()
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.kind = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.current_op = -1
        self._stack = [-1]
        self._restore: list = []

    # -- recording ----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self.name_id[name]
        post = getattr(self, "_count_" + name.replace(".", "_"), None)
        materialize = name == "behaviour.join"  # join may be handed a one-shot iterable
        kind, start, end, parent, ops, stack = (self.kind, self.start, self.end,
                                                 self.parent, self.op, self._stack)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if materialize:
                args = (args[0], list(args[1])) + args[2:]
            idx = len(start)
            kind.append(nid)
            parent.append(stack[-1])
            ops.append(self.current_op)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def _count_engine_least_model(self, args, result):
        model, report = result
        c = self.counts
        c["engine.iterations"] += report.iterations
        c["engine.universe_terms"] += len(model.universe)
        c["engine.frontier_terms"] += len(model.frontier)
        c["engine.tainted_terms"] += len(model.tainted)

    def _count_behaviour_join(self, args, result):
        kind, values = args[0], args[1]
        self.counts["behaviour.join.in_values"] += len(values)
        self.counts["behaviour.join.out_transitions"] += len(kind.transitions(result))

    def _count_relations_greatest_simulation(self, args, result):
        self.counts["relations.greatest_simulation.pairs_out"] += len(result.pairs)

    def _count_relations_bisimilarity_classes(self, args, result):
        self.counts["relations.bisimilarity_classes.classes_out"] += len(result)

    def _count_relations_distinguishing_depth(self, args, result):
        self.counts["relations.distinguishing_depth.unresolved"] += result is None

    # -- installing -----------------------------------------------------------------

    def install(self) -> None:
        mods = {name: m for name, m in sys.modules.items()
                if m is not None and (name == "bigsos" or name.startswith("bigsos."))}
        for mod, fn in FUNCTIONS:
            orig = getattr(mods[f"bigsos.{mod}"], fn)
            wrapped = self._wrap(f"{mod}.{fn}", orig)
            for m in mods.values():
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapped)
                        self._restore.append((m, attr, orig))
        behaviour = mods["bigsos.behaviour"]
        for cls_name in KIND_CLASSES:
            cls = getattr(behaviour, cls_name)
            for meth in KIND_METHODS:
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(f"behaviour.{meth}", orig))
                self._restore.append((cls, meth, orig))

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results --------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def summary(self) -> dict:
        """Calls and self seconds per span name, and the work counters."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        kind = self.kind
        for i in range(n):
            k = kind[i]
            calls[k] += 1
            self_s[k] += (end[i] - start[i]) - child[i]
        out = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_s"] = self_s[k]
        out.update(self.counts)
        return out

    def dump(self, path: str, limit: int) -> int:
        """Write the first `limit` spans as gzipped JSON lines: name, start,
        end, parent, op.  Returns how many were written."""
        count = min(limit, len(self.start))
        t0 = self.start[0] if count else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["name", "start_s", "end_s", "parent", "op"],
                                 "spans": len(self.start), "written": count}) + "\n")
            names, start, end, parent, op = (self.names, self.start, self.end,
                                             self.parent, self.op)
            for i in range(count):
                fh.write(f'["{names[self.kind[i]]}",{start[i] - t0:.7f},'
                         f'{end[i] - t0:.7f},{parent[i]},{op[i]}]\n')
        return count
