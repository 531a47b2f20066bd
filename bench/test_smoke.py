"""Smoke test of the benchmark: tiny inputs, every metric, every reference check.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, seed=1, env=None, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                             "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180, env=env)


def _result(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_and_correct(workload, trace):
    detail, result = _result(_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, detail["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    if trace:
        assert detail["traced_output_matches"] is True
        assert result["metrics"]["cli.run.calls"]["value"] == 1.0
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


@pytest.mark.parametrize("workload", NAMES)
def test_digest_same_across_processes_and_hash_seeds(workload):
    digests = []
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        detail, _ = _result(_run(workload, 0, seed=7, env=env))
        digests.append(detail["digest_round0"])
    assert digests[0] == digests[1]


def test_refuses_to_run_without_the_program():
    bare = tempfile.mkdtemp(dir=BENCH, prefix="out-bare-")
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "out-*", "__pycache__"))
        done = _run(NAMES[0], 0, cwd=bare)
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(bare)


# --- the references themselves --------------------------------------------------------


def test_tower_reference_small():
    ref = workloads.tower_reference(2)
    assert ref["universe"] == ["c", "sigma(c)", "sigma(sigma(c))", "sigma(sigma(sigma(c)))"]
    assert ref["frontier"] == ["sigma(sigma(sigma(sigma(c))))"]
    assert ref["behaviour"]["c"] == {"a": ["sigma(c)"]}
    for j in range(1, 4):  # rule unfold: sigma^j(c) steps to sigma^(j+1)(c)
        assert workloads.tower(j + 1) in ref["behaviour"][workloads.tower(j)]["a"]


def test_lts_reference_separates_the_gadget():
    adj, twins, (p, q) = workloads.random_lts(random.Random(3), 20)
    ref = workloads.lts_reference(20, adj)
    assert (p, q) not in ref.relation("bisim")
    assert ref.mutual_depth(p, q) == float("inf")
    assert ref.bisim_depth(p, q) == 2
    assert all(pair in ref.relation("bisim") for pair in twins)


def test_checks_reject_wrong_answers():
    adj, twins, (p, q) = workloads.random_lts(random.Random(5), 16)
    ref = workloads.lts_reference(16, adj)
    check = workloads._check_equiv(ref, p, q, "bisim")
    check(json.dumps({"related": False, "witness": None, "relation": "bisim"}))
    with pytest.raises(CheckFailed):
        check(json.dumps({"related": True, "witness": {"pairs": []}, "relation": "bisim"}))
    with pytest.raises(CheckFailed):
        check(json.dumps({"related": False, "witness": 1, "relation": "bisim"}))
    with pytest.raises(CheckFailed):
        workloads._check_factorials(3)("1 6 121\n")
    with pytest.raises(CheckFailed):
        workloads._check_laws(json.dumps([{"law": n, "status": "pass"} for n in
                                          workloads.LAW_NAMES[:-1]]
                                         + [{"law": "T2-mu", "status": "inconclusive"}]))
    tower = workloads.tower_reference(3)
    tower["behaviour"]["c"] = {}
    with pytest.raises(CheckFailed):
        workloads._check_tower(3)(json.dumps(dict(tower, report={"converged": True})))
