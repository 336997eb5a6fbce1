"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import oracles
import run
import tracing
from workloads import WORKLOADS, digest, generate, pool_texts

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from bridgeworks import brute_force_twin, solve_exact  # noqa: E402
from bridgeworks.io import parse_tree  # noqa: E402


def bench(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def env_of(proc) -> dict:
    line = next(l for l in proc.stdout.splitlines() if l.startswith("env "))
    return json.loads(line[4:])


def test_same_seed_same_inputs_other_seed_other_inputs():
    for w in WORKLOADS.values():
        a, b = pool_texts(generate(w, 7)), pool_texts(generate(w, 7))
        assert digest(a) == digest(b)
        assert digest(pool_texts(generate(w, 8))) != digest(a)
        sizes = [(t1.n, t2.n) for t1, t2 in generate(w, 7)]
        assert sizes == [w.size(i) for i in range(w.pool)]
        assert w.pool % len(w.sizes) == 0  # every size has as many instances


def test_two_runs_of_one_seed_give_one_output_digest():
    first = bench("--workload", "twin-exact", "--seed", "3", "--seconds", "0")
    second = bench("--workload", "twin-exact", "--seed", "3", "--seconds", "0")
    other = bench("--workload", "twin-exact", "--seed", "4", "--seconds", "0")
    for proc in (first, second, other):
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.splitlines()[-1])
        assert last["correct"] and last["failed"] == 0
        assert set(last["metrics"]) == {"latency_ms.p50", "latency_ms.tail", "throughput_jps",
                                        "peak_rss_mb", "setup_s"}
    assert env_of(first)["output_digest"] == env_of(second)["output_digest"]
    assert env_of(first)["input_digest"] != env_of(other)["input_digest"]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "bridge-float", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_names_every_workload_and_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["per_layer"]} == (
        set(tracing.TIMED) | set(tracing.COUNTED) | set(tracing.COMPUTED))


def _program_pair(t1, t2):
    return parse_tree(t1.text()), parse_tree(t2.text())


def test_twin_brute_force_oracle_agrees_with_the_library():
    pool = generate(WORKLOADS["twin-exact"], 0)
    for t1, t2 in pool[:8]:
        want = brute_force_twin(*_program_pair(t1, t2)).value
        assert oracles.twin_brute_force(t1, t2) == want


def test_twin_brute_force_oracle_agrees_with_the_dijkstra_rescore():
    """Every bridge pair's brute-force value against the Dijkstra re-score on
    the merged graph, which shares no formula with the program."""
    # geometric and explicit weights; in (0, 83) and (1, 20) some pairs are
    # decided by a same-tree detour, and in (1, 20) that decides the optimum
    for seed, slot in ((0, 0), (0, 1), (0, 83), (1, 20)):
        t1, t2 = generate(WORKLOADS["twin-exact"], seed)[slot]
        pairs, values, scale = oracles.twin_pair_values(t1, t2)
        for (b1, b2), v in zip(pairs, values):
            assert Fraction(int(v), scale) == oracles.twin_rescore(t1, t2, b1, b2), (slot, b1, b2)


def test_bridge_oracle_agrees_with_the_library():
    for t1, t2 in generate(WORKLOADS["bridge-float"], 0)[:3]:
        o = oracles.bridge_oracle(t1, t2)
        sol = solve_exact(*_program_pair(t1, t2))
        assert [sol.p, sol.q] in o["near_opt"]
        assert oracles.close(sol.value, o["opt"])


def test_checks_reject_a_wrong_answer():
    t1, t2 = generate(WORKLOADS["twin-exact"], 0)[6]
    inst = checks.Instance(t1, t2, {"opt": oracles.twin_brute_force(t1, t2)})
    sol = brute_force_twin(*_program_pair(t1, t2))
    res = {"bridge1": list(sol.bridge1), "bridge2": list(sol.bridge2), "value": str(sol.value),
           "dominant_case": sol.dominant_case, "witness": list(sol.witness),
           "intersecting": sol.intersecting, "backend": sol.backend}
    rep = {"result": res, "instances": [{"vertices": t1.n}, {"vertices": t2.n}]}
    assert checks.check_report(inst, ["twin", "solve"], rep, "rational") == ([], True)
    low = dict(res, value=str(Fraction(res["value"]) - 1))
    probs, _ = checks.check_report(inst, ["twin", "solve"], dict(rep, result=low), "rational")
    assert any("re-score" in p for p in probs) and any("below" in p for p in probs)
    probs, _ = checks.check_report(inst, ["twin", "solve"], rep, "double")
    assert any("backend" in p for p in probs)


def test_self_time_subtracts_child_spans():
    tr = tracing.Tracer()
    tr.job = 0
    tr.span("outer", lambda: tr.span("inner", sum, range(10**5)))
    jobs = tr.per_job()[0]
    assert jobs["outer"]["self"] == pytest.approx(jobs["outer"]["total"] - jobs["inner"]["total"])
    assert tr.spans[1][3] == 0  # inner's parent is outer


def test_tail_is_highest_percentile_with_ten_jobs_beyond():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(12) == 50
    vals = list(range(1, 101))
    assert run.nearest_rank(vals, 90) == 90


def test_job_times_are_scaled_to_the_reference_speed():
    # the reference ran at twice its nominal time, so the host ran at half speed
    ref_s = [run.REF_NOMINAL_S * 1.5, run.REF_NOMINAL_S * 2.5]
    records = [(0, False, 0.030, []), (1, False, 0.010, []), (0, True, 0.500, []), (1, False, 0.020, [])]
    nominal = run.REF_NOMINAL_S
    setups = [(0.2, nominal), (0.1, 2 * nominal), (0.6, 2 * nominal)]
    metrics, _ = run.end_to_end(records, ref_s, 40.0, setups, [])
    assert metrics["latency_ms.p50"]["value"] == pytest.approx(10.0)
    assert metrics["throughput_jps"]["value"] == pytest.approx(3 / 0.030)
    assert metrics["setup_s"]["value"] == pytest.approx(0.2)  # of 0.2, 0.05 and 0.3
