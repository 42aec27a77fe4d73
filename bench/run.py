"""splitmev benchmark: seeded workloads through the real CLI entry point.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (the package is imported from
``src/``). For each workload it generates the inputs from the seed under
``.bench_work/<workload>/``, then

* ``--trace 0``: times a fresh ``import splitmev.cli`` several times
  (``setup_s``) and runs a fixed number of passes, about ``--seconds``
  worth, each in a fresh worker process, reporting the end-to-end metrics;
* ``--trace 1``: alternates untraced and traced passes and reports the
  per-layer metrics, taken from spans around every public function of each
  module.

Times are in reference seconds (see ``speed.py``). Every pass's outputs are
checked (see ``checks.py``). It prints one line
per metric with unit and sample count, then, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import speed
from generate import GENERATORS, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
MIN_PASSES = 3
# Wall seconds of one pass, worker start included, at the seed commit on the
# machine of trajectory/BENCH_seed.json. A run makes seconds / this many
# passes on every commit, so a faster program is not timed over more
# samples than a slower one.
SEED_PASS_S = {"optimize_sweep": 6.0, "simulate_large": 2.4, "analyze_corpus": 1.8}

END_TO_END = (
    ("items_per_s", "items/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


def _calls_and_self(name: str) -> list[tuple[str, str]]:
    return [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]


PER_LAYER = (
    *_calls_and_self("amm_core.swap_out"),
    *_calls_and_self("amm_core.apply_swap"),
    *_calls_and_self("amm_core.marginal_out"),
    *_calls_and_self("failure_models.prob"),
    *_calls_and_self("failure_models.prob_derivative"),
    *_calls_and_self("split_optimizer.plan"),
    ("split_optimizer.threshold.calls", "count"),
    *_calls_and_self("split_optimizer.solve_chunk"),
    ("split_optimizer.marginal_benefit.calls", "count"),
    ("split_optimizer.marginal_benefit.points", "count"),
    ("split_optimizer.profit_curve.self_s", "s"),
    ("sequencer_sim.run.self_s", "s"),
    *_calls_and_self("sequencer_sim.execute_tx"),
    ("sequencer_sim.summarize.self_s", "s"),
    ("sequencer_sim.to_json.self_s", "s"),
    ("sequencer_sim.report_bytes", "bytes"),
    ("sequencer_sim.from_dict.self_s", "s"),
    *_calls_and_self("sequencer_sim.order_batch"),
    ("sequencer_sim.revert_ratio", "ratio"),
    *_calls_and_self("trace_analysis.load_trace_file"),
    ("trace_analysis.frames", "count"),
    ("trace_analysis.build_graph.self_s", "s"),
    ("trace_analysis.classify_swap.self_s", "s"),
    ("trace_analysis.read_labels_csv.self_s", "s"),
    ("trace_analysis.identify_bots.self_s", "s"),
    ("trace_analysis.breakdown.self_s", "s"),
    ("trace_analysis.swap_ratio", "ratio"),
    ("fee_accounting.read_records_csv.self_s", "s"),
    ("fee_accounting.records", "count"),
    *_calls_and_self("fee_accounting.revert_stats"),
    ("fee_accounting.revert_differential.self_s", "s"),
    ("fee_accounting.position_histogram.self_s", "s"),
    ("fee_accounting.priority_fee_distribution.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead", "ratio"),
)


def _child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup() -> tuple[list[float], list[float]]:
    """Times, in reference seconds and in wall seconds, of fresh
    interpreters importing ``splitmev.cli``, after one untimed import that
    fills the bytecode cache."""
    cmd = [sys.executable, "-c", "import splitmev.cli"]
    env = _child_env()
    subprocess.run(cmd, env=env, check=True)
    times, walls = [], []
    for _ in range(SETUP_REPEATS):
        ref = [speed.reference_s()]
        t0 = perf_counter()
        subprocess.run(cmd, env=env, check=True)
        walls.append(perf_counter() - t0)
        ref.append(speed.reference_s())
        times += speed.scaled(walls[-1:], ref)
    return times, walls


def empty_outputs(out: Path):
    """Truncate every file under ``out`` to zero bytes, keeping the files.

    A pass writes over the files an earlier pass (of this run or an earlier
    one) left, so a file it fails to write stays empty and fails the checks.
    The files are emptied rather than deleted because on a journal-less
    ext4, as on the machine of trajectory/BENCH_seed.json, creating a file
    skips every inode freed in the last seconds to minutes: after runs that
    each delete tens of thousands of output files, every new file cost up
    to 20 times more kernel time, a third of an ``optimize`` call."""
    for f in out.rglob("*"):
        if f.is_file():
            os.truncate(f, 0)


def run_pass(work: Path, k: int, trace: bool) -> dict:
    """One pass in a fresh worker process (see ``worker.py``)."""
    empty_outputs(work / "out" / f"pass{k}")
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")), str(work), str(k), str(int(trace))]
    proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: worker of pass {k} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["t_s"] = speed.scaled(result["wall_s"], result["ref_s"])
    return result


def pass_time(passes: list[dict], key: str = "t_s") -> float:
    """Median time of a pass, the sum of its requests' times (``t_s`` in
    reference seconds, ``wall_s`` as measured). The reference scaling
    follows the machine's slow and fast spells; the median over passes
    then drops the passes whose spell changed in the middle."""
    return statistics.median(sum(p[key]) for p in passes)


def p99(samples: list[float]) -> float:
    """The 99th percentile; needs 1,000 samples so that ten lie beyond it."""
    if len(samples) < 1000:
        raise ValueError(f"p99 of {len(samples)} samples: fewer than ten lie beyond it")
    return statistics.quantiles(samples, n=100, method="inclusive")[98]


def end_to_end(workload, passes: list[dict], setup: tuple[list[float], list[float]]) -> dict[str, tuple[float, str]]:
    """Metric -> (value, sample note)."""
    per_pass = f"median of {len(passes)} passes"
    if len(workload.requests) == 1:
        # one CLI call per pass: the latency percentiles are that call's
        # median time, the same measurement as items_per_s
        p50 = tail = pass_time(passes) * 1e3
        lat_note = f"one call per pass, {per_pass}"
    else:
        # each request's median over the passes: a stall that hits a call in
        # one pass (a preemption, a slow file write) is not the code's tail
        lat = [statistics.median(ts) * 1e3 for ts in zip(*(p["t_s"] for p in passes))]
        p50, tail = statistics.median(lat), p99(lat)
        lat_note = f"n={len(lat)} requests, each the median of {len(passes)} passes"
    return {
        "items_per_s": (
            workload.items_per_pass / pass_time(passes),
            f"{workload.items_per_pass} items per pass, {per_pass}; "
            f"{workload.items_per_pass / pass_time(passes, 'wall_s'):.6g} in wall time",
        ),
        "latency_p50_ms": (p50, lat_note),
        "latency_p99_ms": (tail, lat_note),
        "setup_s": (statistics.median(setup[0]), f"median of {len(setup[0])} fresh imports; {statistics.median(setup[1]):.6g} in wall time"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), f"worker ru_maxrss, {per_pass}"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, tuple[float, str]]:
    """Metric -> (value per traced pass, note)."""
    n = len(traced)
    totals = {k: sum(p["layers"].get(k, 0.0) for p in traced) / n for k in traced[0]["layers"]}
    wall = sum(sum(p["wall_s"]) for p in traced) / n  # spans are in wall seconds
    derived = {
        "sequencer_sim.revert_ratio": totals["sequencer_sim.reverts"] / totals["sequencer_sim.txs"]
        if totals.get("sequencer_sim.txs") else 0.0,
        "trace_analysis.swap_ratio": totals.get("trace_analysis.swaps", 0.0) / totals["trace_analysis.classify_swap.calls"]
        if totals["trace_analysis.classify_swap.calls"] else 0.0,
        "cli.output_bytes": sum(p["output_bytes"] for p in traced) / n,
        "trace.unattributed_s": wall - totals["trace.spanned_s"],
        "trace.overhead": pass_time(traced) / pass_time(plain),
    }
    note = f"per pass, {n} traced passes alternating with {len(plain)} untraced"
    return {name: (derived.get(name, totals.get(name, 0.0)), note) for name, _ in PER_LAYER}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int, int]:
    work = ROOT / ".bench_work" / name
    shutil.rmtree(work / "in", ignore_errors=True)
    workload = generate(name, seed, work / "in")
    spec = {"workload": name, "requests": [{"argv": r.argv} for r in workload.requests]}
    (work / "requests.json").write_text(json.dumps(spec))

    n_passes = max(MIN_PASSES, round(seconds / SEED_PASS_S[name]))
    if trace:
        # untraced and traced passes alternate, so a slow spell of the
        # machine weighs on both sides of trace.overhead alike
        passes = [run_pass(work, k, k % 2 == 1) for k in range(2 * max(2, n_passes // 2))]
        metrics = per_layer([p for p in passes if not p["traced"]], [p for p in passes if p["traced"]])
        units = dict(PER_LAYER)
    else:
        setup = measure_setup()
        passes = [run_pass(work, k, False) for k in range(n_passes)]
        metrics, units = end_to_end(workload, passes, setup), dict(END_TO_END)
    (work / "passes.json").write_text(json.dumps(passes))

    attempted, failed, reference = checks.count_failures(workload, work / "out", passes)
    (work / "digests.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    outputs_sha = hashlib.sha256("".join(f"{k} {v}\n" for k, v in reference.items()).encode()).hexdigest()

    print(f"== {name}  seed={seed}  trace={int(trace)}  items/pass={workload.items_per_pass}  passes={len(passes)}")
    for metric, (value, note) in metrics.items():
        print(f"  {metric:<48} {value:>16.6g} {units[metric]:<8} ({note})")
    print(f"  {'error_rate':<48} {failed / attempted:>16.6g} {'ratio':<8} ({failed} failed / {attempted} attempted items)")
    print(f"  outputs sha256 {outputs_sha} (per-file digests in {work.relative_to(ROOT)}/digests.json)")
    return {m: {"value": v, "unit": units[m]} for m, (v, _) in metrics.items()}, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*GENERATORS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args(argv)
    if not (SRC / "splitmev" / "cli.py").is_file():
        print(f"error: no splitmev sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(GENERATORS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        m, a, f = run_workload(name, args.seed, args.seconds, bool(args.trace))
        metrics.update(m if len(names) == 1 else {f"{name}.{k}": v for k, v in m.items()})
        attempted += a
        failed += f
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
