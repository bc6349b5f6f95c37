"""Smoke runs of every workload at a small size, and checks of the gate.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(autouse=True)
def at_repository_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_small_run_emits_declared_metrics(workload, trace, tmp_path):
    result, env = run.run(workload, seed=3, seconds=0.5, trace=trace, small=True,
                          out_dir=str(tmp_path))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], env["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    assert env["python"] and env["nproc"] >= 1 and env["op_samples"]
    if trace:
        assert env["counts_repeat"]
        with open(tmp_path / f"trace-{workload}-seed3.json") as fh:
            spans = json.load(fh)["spans"]
        assert spans and all(s["name"] == "op" for s in spans if s["parent"] is None)
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_across_processes(tmp_path):
    counts = []
    for _ in range(2):
        out = subprocess.run(
            [sys.executable, "-c",
             "import json, sys; sys.path.insert(0, 'perfbench'); import run; "
             f"r, _ = run.run('queries', 5, 0.1, True, small=True, out_dir={str(tmp_path)!r}); "
             "print(json.dumps(r['metrics']))"],
            capture_output=True, text=True, check=True, timeout=120,
        )
        metrics = json.loads(out.stdout.splitlines()[-1])
        counts.append({k: m["value"] for k, m in metrics.items() if m["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] > 0


def test_same_seed_gives_same_queries():
    run.import_flagcalc()
    first, _ = workloads.make_queries(7, small=False)
    again, _ = workloads.make_queries(7, small=False)
    other, _ = workloads.make_queries(8, small=False)
    workloads.clear_engines()
    assert [q.argv for q in first] == [q.argv for q in again]
    assert [q.argv for q in first] != [q.argv for q in other]
    assert len(first) >= 100


def _query_pass(seed=3):
    plan = run.set_up("queries", seed, small=True)
    return plan, run.run_pass(plan)


def test_gate_rejects_corrupted_query_output():
    plan, p = _query_pass()
    assert gate.check_queries(plan.ops, p.results) == {}
    i = next(
        k for k, q in enumerate(plan.ops)
        if q.cmd == "structconst" and json.loads(p.results[k].stdout)["coeffs"]
    )
    bad = copy.deepcopy(p.results)
    out = json.loads(bad[i].stdout)
    word = next(iter(out["coeffs"]))
    out["coeffs"][word] += 1
    bad[i].stdout = json.dumps(out, sort_keys=True, separators=(",", ":")) + "\n"
    assert set(gate.check_queries(plan.ops, bad)) == {i}


def test_gate_rejects_wrong_exit_code_and_digest():
    plan, p = _query_pass()
    bad = copy.deepcopy(p.results)
    bad[0].code = 2 if plan.ops[0].expect == 0 else 0
    bad[1].code = "exception"
    assert set(gate.check_queries(plan.ops, bad)) == {0, 1}
    digests = [gate.output_digest(r) for r in p.results]
    digests[2] = "0" * 16
    assert set(gate.check_queries(plan.ops, p.results, digests)) == {2}


def test_gate_rejects_failed_or_missing_checks():
    plan = run.set_up("dictionaries", 0, small=True)
    reports = run.run_pass(plan).results
    assert gate.check_reports(plan.ops, reports)[1:] == (0, [])
    broken = copy.deepcopy(reports)
    broken[0].checks[0].passed = False
    _, failed, problems = gate.check_reports(plan.ops, broken)
    assert failed == 1 and problems
    short = copy.deepcopy(reports)
    del short[0].checks[-1]
    _, failed, problems = gate.check_reports(plan.ops, short)
    assert failed == 1 and "the seed has" in problems[0]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
