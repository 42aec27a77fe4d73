"""One timed pass of one workload through ``splitmev.cli.main``.

    python3 bench/worker.py <work_dir> <pass_k> <trace 0|1>

Runs every request in ``<work_dir>/requests.json`` once, into the fresh
output directory ``<work_dir>/out/pass<k>``. Each pass is a process of its
own, as each CLI call is for a user, so nothing a pass leaves in memory can
serve a later one. Prints one JSON object: per-request wall times, the
timings of the reference work around them (see ``speed.py``), nonzero
exit codes, the process's peak RSS, the output size and, with tracing on,
the per-layer totals. Spans are written to
``<work_dir>/spans-pass<k>.npz``.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import speed
import tracer as tracing

# span names each workload must reach; zero calls on one of them means a
# rebinding or a refactor has silently dropped a layer from the trace
REACHES = {
    "optimize_sweep": (
        "amm_core.swap_out", "amm_core.marginal_out", "failure_models.prob",
        "failure_models.prob_derivative", "split_optimizer.plan", "split_optimizer.threshold",
        "split_optimizer.solve_chunk", "split_optimizer.marginal_benefit",
        "split_optimizer.profit_curve", "cli",
    ),
    "simulate_large": (
        "amm_core.swap_out", "amm_core.apply_swap", "sequencer_sim.from_dict", "sequencer_sim.run",
        "sequencer_sim.order_batch", "sequencer_sim.execute_tx", "sequencer_sim.summarize",
        "sequencer_sim.to_json", "cli",
    ),
    "analyze_corpus": (
        "trace_analysis.load_trace_file", "trace_analysis.build_graph", "trace_analysis.classify_swap",
        "trace_analysis.read_labels_csv", "trace_analysis.identify_bots", "trace_analysis.breakdown",
        "fee_accounting.read_records_csv", "fee_accounting.revert_stats",
        "fee_accounting.revert_differential", "fee_accounting.position_histogram",
        "fee_accounting.priority_fee_distribution", "cli",
    ),
}


def _call(cli_main, argv: list[str]):
    """Exit code of one CLI call; an exception is recorded, not raised, so
    one failing request does not end the run."""
    try:
        return cli_main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception as exc:  # noqa: BLE001 - any failure of the program counts as a failed item
        return f"{type(exc).__name__}: {exc}"


def main(work_dir: Path, k: int, trace: bool) -> int:
    from splitmev.cli import main as cli_main

    spec = json.loads((work_dir / "requests.json").read_text())
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        cli_main = sys.modules["splitmev.cli"].main

    out = work_dir / "out" / f"pass{k}"
    wall, codes, ref = [], {}, [speed.reference_s()]
    n = len(spec["requests"])
    for j, request in enumerate(spec["requests"]):
        argv = [a.replace("{out}", str(out)) for a in request["argv"]]
        if tracer:
            tracer.request_id = j
        t0 = perf_counter()
        code = _call(cli_main, argv)
        wall.append(perf_counter() - t0)
        if code != 0:
            codes[j] = code
        if (j + 1) % speed.EVERY == 0 or j + 1 == n:
            ref.append(speed.reference_s())

    result = {
        "traced": trace,
        "wall_s": wall,
        "ref_s": ref,
        "codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "output_bytes": sum(f.stat().st_size for f in out.rglob("*") if f.is_file()),
    }
    if tracer:
        totals = tracing.layer_totals(tracer)
        missing = [n for n in REACHES[spec["workload"]] if totals[f"{n}.calls"] == 0]
        if missing:
            print(f"error: no calls traced into {', '.join(missing)} on {spec['workload']}", file=sys.stderr)
            return 3
        tracer.save(work_dir / f"spans-pass{k}.npz")
        result["layers"] = {**totals, **tracer.counters}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    work, k_arg, trace_flag = sys.argv[1:4]
    sys.exit(main(Path(work), int(k_arg), trace_flag == "1"))
