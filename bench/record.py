"""Record a trajectory point: every workload on several seeds, plus one
traced run each, summarized with a machine / Python / numpy header.

    python3 bench/record.py --label seed

writes ``bench/trajectory/BENCH_<label>.json``. Seeds are 0-9 and the run
length is ``run_seconds`` of ``BENCHMARK.json``. Each end-to-end metric
gets its per-run values, median, p90 and quartile spread (q3 - q1 over the
median), the figure the benchmark's bounds are judged against. Run from the
root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from generate import GENERATORS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(10)
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def _run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "p90": statistics.quantiles(values, n=10)[8],
        "spread": (q3 - q1) / median,
        "values": values,
    }


def _header(label: str) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True, check=True).stdout.strip()
    return {
        "label": label,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": {"cpu": cpu, "cpus": os.cpu_count(), "arch": platform.machine(), "os": platform.platform()},
        "python": platform.python_version(),
        "numpy": numpy,
        "run_seconds": SECONDS,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()

    result = {"header": _header(args.label), "workloads": {}}
    for name in GENERATORS:
        runs = [_run(name, seed, 0) for seed in SEEDS]
        traced = _run(name, SEEDS[0], 1)
        metrics = {m: {"unit": runs[0]["metrics"][m]["unit"], **_summary([r["metrics"][m]["value"] for r in runs])}
                   for m in runs[0]["metrics"]}
        result["workloads"][name] = {
            "seeds": [SEEDS[0], SEEDS[-1]],
            "attempted": sum(r["attempted"] for r in runs) + traced["attempted"],
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "end_to_end": metrics,
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
        }
        for m, s in metrics.items():
            print(f"{name:<16} {m:<16} median {s['median']:<12.6g} p90 {s['p90']:<12.6g} spread {s['spread']:.3f}")
    (BENCH / "trajectory" / f"BENCH_{args.label}.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
