"""Tests of the benchmark itself (not of splitmev).

    python3 -m pytest -q bench/test_bench.py

Workload sizes are shrunk so the whole file runs in a few seconds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import generate
import run
import speed
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


@pytest.fixture(autouse=True)
def small_workloads(monkeypatch):
    monkeypatch.setattr(generate, "OPT_CONFIGS", 12)
    monkeypatch.setattr(generate, "LARGE_HORIZON", 3.0)
    monkeypatch.setattr(generate, "CORPUS_FILES", 60)


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _rebase(data: dict[str, bytes], old: Path, new: Path) -> dict[str, bytes]:
    # request argv and config paths name the input directory itself
    return {k: v.replace(str(old).encode(), str(new).encode()) for k, v in data.items()}


@pytest.mark.parametrize("name", list(generate.GENERATORS))
def test_same_seed_same_bytes(tmp_path, name):
    a = generate.generate(name, 7, tmp_path / "a")
    b = generate.generate(name, 7, tmp_path / "b")
    c = generate.generate(name, 8, tmp_path / "c")
    bytes_a = _tree_bytes(tmp_path / "a")
    assert bytes_a == _rebase(_tree_bytes(tmp_path / "b"), tmp_path / "b", tmp_path / "a")
    assert bytes_a != _rebase(_tree_bytes(tmp_path / "c"), tmp_path / "c", tmp_path / "a")
    assert a.items_per_pass == b.items_per_pass == c.items_per_pass
    assert a.truth == b.truth


def test_self_time_of_nested_spans():
    #   A [0, 10]
    #   +- B [1, 4]        +- C [3, 6]   (B and C overlap on [3, 4])
    #      +- D [2, 3]
    #         +- E [2.5, 3.5]             (runs past its parent; clipped)
    start = [0.0, 1.0, 3.0, 2.0, 2.5]
    end = [10.0, 4.0, 6.0, 3.0, 3.5]
    parent = [-1, 0, 0, 1, 3]
    got = tracer.self_times(start, end, parent)
    assert got == pytest.approx([10 - 5, 3 - 1, 3, 1 - 0.5, 1])


def test_reference_scaling(monkeypatch):
    monkeypatch.setattr(speed, "EVERY", 2)
    # requests 0-1 ran between reference timings of 1x and 3x REF_S (mean
    # 2x: the machine ran at half speed), request 2 between 3x and 1x
    ref = [speed.REF_S, 3 * speed.REF_S, speed.REF_S]
    assert speed.scaled([2.0, 4.0, 1.0], ref) == pytest.approx([1.0, 2.0, 0.5])


def _run_pass(workload: generate.Workload, out: Path):
    sys.path.insert(0, str(ROOT / "src"))
    from splitmev.cli import main

    for request in workload.requests:
        assert main([a.replace("{out}", str(out)) for a in request.argv]) == 0


def _corrupt_plan(out: Path):
    plan_path = out / "r0000" / "plan.json"
    plan = json.loads(plan_path.read_text())
    plan["num_chunks"] += 5
    plan_path.write_text(json.dumps(plan))


def _corrupt_metrics(out: Path):
    path = out / "metrics.json"
    metrics = json.loads(path.read_text())
    metrics["reverts"] += 1
    path.write_text(json.dumps(metrics))


def _corrupt_classification(out: Path):
    path = out / "classifications.jsonl"
    lines = path.read_text().splitlines()
    row = json.loads(lines[0])
    row["is_swap"] = not row["is_swap"]
    lines[0] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n")


def _empty_histogram(out: Path):
    # what a file left from an earlier pass and not written again looks like
    os.truncate(out / "revert_position_histogram.csv", 0)


def _corrupt_revert_stats(out: Path):
    path = out / "revert_stats.csv"
    path.write_text(path.read_text().replace(",0.", ",1.", 1))


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("optimize_sweep", _corrupt_plan),
        ("simulate_large", _corrupt_metrics),
        ("simulate_large", _empty_histogram),
        ("analyze_corpus", _corrupt_classification),
        ("analyze_corpus", _corrupt_revert_stats),
    ],
)
def test_corrupted_output_counts_as_failure(tmp_path, name, corrupt):
    workload = generate.generate(name, 3, tmp_path / "in")
    out = tmp_path / "out"
    _run_pass(workload, out / "pass0")
    _run_pass(workload, out / "pass1")
    passes = [{"codes": {}}, {"codes": {}}]
    attempted, failed, _ = checks.count_failures(workload, out, passes)
    assert (attempted, failed) == (2 * workload.items_per_pass, 0)

    # a wrong file in a repeat fails by digest, in the reference by the deep check
    corrupt(out / "pass1")
    attempted, failed, _ = checks.count_failures(workload, out, passes)
    assert 0 < failed <= attempted // 2
    corrupt(out / "pass0")
    _, failed_ref, _ = checks.count_failures(workload, out, passes)
    assert failed_ref > 0

    # a request that exited nonzero fails every item it covers
    _, failed_code, _ = checks.count_failures(workload, out, [{"codes": {"0": 2}}, {"codes": {}}])
    assert failed_code >= workload.requests[0].items


def _worker(tmp_path: Path, name: str, declared: str) -> subprocess.CompletedProcess:
    work = tmp_path / "work"
    workload = generate.generate(name, 5, work / "in")
    spec = {"workload": declared, "requests": [{"argv": r.argv} for r in workload.requests]}
    (work / "requests.json").write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(work), "0", "1"],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_traced_worker_reaches_every_layer(tmp_path):
    proc = _worker(tmp_path, "optimize_sweep", "optimize_sweep")
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(proc.stdout)["layers"]
    # the worker itself exits 3 if any layer optimize_sweep reaches got no calls
    assert layers["split_optimizer.plan.calls"] == generate.OPT_CONFIGS
    assert layers["split_optimizer.marginal_benefit.points"] > 0
    assert (tmp_path / "work" / "spans-pass0.npz").is_file()


def test_unreached_layer_fails_loudly(tmp_path):
    # optimize requests never reach the trace or fee layers analyze_corpus expects
    proc = _worker(tmp_path, "optimize_sweep", "analyze_corpus")
    assert proc.returncode == 3
    assert "no calls traced into trace_analysis.load_trace_file" in proc.stderr


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(generate.GENERATORS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == generate.WHY


def test_p99_needs_ten_samples_beyond():
    assert run.p99([float(i) for i in range(2000)]) == pytest.approx(0.99 * 1999)
    with pytest.raises(ValueError):
        run.p99([float(i) for i in range(999)])
