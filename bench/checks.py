"""Output checks: which items of each pass came out wrong.

The first pass of a run is checked in depth against the generator's
ground truth (and, for ``optimize``, the brute-force oracle). Every other
pass, traced ones included, must reproduce its output files byte for
byte; a unit whose files differ fails as a whole. A request that raised
or exited nonzero fails every item it covers, and so does an empty file:
output files are emptied before each pass, so an empty one is a file the
pass did not write.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from collections import Counter
from pathlib import Path

from generate import Workload


EMPTY = hashlib.sha256(b"").hexdigest()


def digests(pass_dir: Path) -> dict[str, str]:
    """sha256 of every output file except ``manifest.json``, which holds a
    timestamp and the output path."""
    return {
        str(f.relative_to(pass_dir)): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(pass_dir.rglob("*"))
        if f.is_file() and f.name != "manifest.json"
    }


def _by_unit(files: dict[str, str], units) -> dict[str, dict[str, str]]:
    grouped = {u: {} for u in units}
    for rel, digest in files.items():
        head = rel.split("/", 1)[0]
        grouped.setdefault(head if head in grouped else ".", {})[rel] = digest
    return grouped


def _check_plan(unit_dir: Path, cfg: dict) -> bool:
    from splitmev import ArbParams, PoolState, brute_force_plan
    from splitmev.failure_models import from_config

    plan = json.loads((unit_dir / "plan.json").read_text())
    model = from_config(cfg["model"]["family"], cfg["model"]["parameters"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        oracle = brute_force_plan(PoolState(**cfg["pool"]), ArbParams(**cfg["params"]), model, 1000)
    best = oracle.expected_total_profit
    return (
        abs(oracle.num_chunks - plan["num_chunks"]) <= 1
        and plan["expected_total_profit"] >= best - 1e-6 * (1 + abs(best))
    )


def _check_simulation(unit_dir: Path, expected_txs: int) -> bool:
    metrics = json.loads((unit_dir / "metrics.json").read_text())
    report = json.loads((unit_dir / "report.json").read_text())
    outcomes = report["outcomes"]
    profit: Counter = Counter()
    scale: Counter = Counter()
    for o in outcomes:
        profit[o["bot_name"]] += o["profit"]
        scale[o["bot_name"]] += abs(o["profit"])
    per_bot = metrics["per_bot_profit"]
    return (
        metrics["total_txs"] == expected_txs == len(outcomes)
        and metrics["successes"] + metrics["reverts"] == metrics["total_txs"]
        and set(profit) <= set(per_bot)
        and all(math.isclose(per_bot[b], profit[b], rel_tol=0, abs_tol=1e-9 * (1 + scale[b])) for b in per_bot)
    )


def _expected_revert_stats(records: list[list]) -> list[list[str]]:
    """revert_stats.csv rows counted from the generated records."""
    tally: dict[tuple[str, str], list[int]] = {}
    for r in records:
        day, reverted, priority, chain = r[1], r[4] == "reverted", r[8], r[11]
        t = tally.setdefault((chain, day), [0, 0, 0, 0])
        t[0] += 1
        t[1] += reverted
        t[2] += priority > 0
        t[3] += reverted and priority > 0
    rows = []
    for (chain, day), (n, rev, pf_n, pf_rev) in sorted(tally.items()):
        rate = rev / n
        pf = pf_rev / pf_n if pf_n else None
        rows.append([
            chain, day, f"{rate:.6f}",
            "" if pf is None else f"{pf:.6f}",
            "" if pf is None else f"{pf - rate:.6f}",
        ])
    return rows


def _analyze_failures(out: Path, truth: dict, items: int) -> int:
    stats = [line.split(",") for line in (out / "revert_stats.csv").read_text().splitlines()[1:]]
    if stats != _expected_revert_stats(truth["records"]):
        return items
    expected = {tx: list(rows) for tx, rows in truth["classifications"].items()}
    failed = 0
    with open(out / "classifications.jsonl") as fh:
        for line in fh:
            row = json.loads(line)
            want = expected.get(row["tx_hash"]) or [None]
            got = {k: row[k] for k in ("is_swap", "dex", "pool", "pair")}
            failed += got != want.pop(0)
    return failed + sum(len(rows) for rows in expected.values())


def deep_failures(workload: Workload, pass_dir: Path) -> dict[str, int]:
    """Failed items per unit of one pass, against the ground truth."""
    failures = {}
    for request in workload.requests:
        for unit, items in request.units.items():
            unit_dir = pass_dir / unit
            try:
                if workload.name == "optimize_sweep":
                    failures[unit] = 0 if _check_plan(unit_dir, workload.truth["configs"][unit]) else items
                elif workload.name == "analyze_corpus":
                    failures[unit] = _analyze_failures(unit_dir, workload.truth, items)
                else:
                    failures[unit] = 0 if _check_simulation(unit_dir, items) else items
            except (OSError, ValueError, KeyError, TypeError):
                failures[unit] = items
    return failures


def count_failures(workload: Workload, out_root: Path, passes: list[dict]) -> tuple[int, int, dict[str, str]]:
    """(attempted, failed, reference digests) over every pass of a run.

    ``passes`` are the worker's per-pass records; the outputs of pass ``k``
    are in ``out_root/pass<k>``, and the first pass is the reference."""
    units = [u for r in workload.requests for u in r.units]
    ref_dir = out_root / "pass0"
    reference = digests(ref_dir)
    ref_units = _by_unit(reference, units)
    ref_failed = deep_failures(workload, ref_dir)
    attempted = failed = 0
    for k, record in enumerate(passes):
        got = _by_unit(digests(out_root / f"pass{k}"), units)
        for j, request in enumerate(workload.requests):
            attempted += request.items
            for unit, items in request.units.items():
                files = got[unit]
                if str(j) in record["codes"] or files != ref_units[unit] or EMPTY in files.values():
                    failed += items
                else:
                    failed += ref_failed[unit]
    return attempted, failed, reference
