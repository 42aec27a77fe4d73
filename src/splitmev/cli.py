"""Command-line entry point: optimize / simulate / analyze.

Every subcommand writes its outputs (plus a run manifest) into a single
output directory and nowhere else. Exit codes: 0 ok, 2 config or schema
error, 3 numerical anomaly (no interior root found).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .amm_core import DomainError, PoolState
from .config import ConfigError, build, require
from .failure_models import from_config as model_from_config
from .fee_accounting import (
    SchemaError,
    position_histogram,
    priority_fee_distribution,
    read_records_csv,
    revert_differential,
    revert_stats,
)
from .sequencer_sim import SimConfig, run, summarize
from .split_optimizer import DEFAULT_REL_TOL, ArbParams, NoRootError, plan, profit_curve
from .trace_analysis import (
    TraceParseError,
    breakdown,
    classify_swap,
    identify_bots,
    load_trace_file,
    read_labels_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ANOMALY = 3


def _log(quiet: bool, msg: str):
    if not quiet:
        print(msg)


def _load_json(path: Path) -> tuple[dict, bytes]:
    """The parsed document and the bytes it was parsed from, read once."""
    try:
        raw = path.read_bytes()
        return json.loads(raw.decode("utf-8")), raw
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or UTF-8
        raise ConfigError(f"{path}: {exc}") from exc


def _write_manifest(out_dir: Path, subcommand: str, inputs: dict[str, str], config_bytes: bytes):
    manifest = {
        "subcommand": subcommand,
        "inputs": inputs,
        "config_sha256": hashlib.sha256(config_bytes).hexdigest(),
        "out_dir": str(out_dir),
        "tool_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@dataclasses.dataclass(frozen=True)
class ModelConfig:
    """The ``model`` section of an ``optimize`` config."""

    family: str
    parameters: dict = dataclasses.field(default_factory=dict)
    floor: float | None = None


@dataclasses.dataclass(frozen=True)
class OptimizeConfig:
    """An ``optimize`` config file."""

    pool: PoolState
    params: ArbParams
    model: ModelConfig
    rel_tol: float = DEFAULT_REL_TOL

    def __post_init__(self):
        require(self.rel_tol > 0, "rel_tol", "must be positive")


def cmd_optimize(config_path: Path, out_dir: Path, quiet: bool) -> int:
    doc, raw = _load_json(config_path)
    cfg = build(OptimizeConfig, doc)
    model = model_from_config(cfg.model.family, cfg.model.parameters, cfg.model.floor)
    result = plan(cfg.pool, cfg.params, model, rel_tol=cfg.rel_tol)

    n_curve = min(10 * result.num_chunks, 1000)
    curve = profit_curve(cfg.pool, cfg.params, model, n_curve)

    with open(out_dir / "plan.json", "w") as fh:
        json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_csv(out_dir / "profit_curve.csv", ["n", "expected_total_profit"], curve)
    _write_manifest(out_dir, "optimize", {"config": str(config_path)}, raw)
    _log(quiet, f"plan: branch={result.branch} n*={result.num_chunks} q*={result.chunk_size:.6g}")
    return EXIT_OK


def _simulate_one(config_path: Path, out_dir: Path, seed_override: int | None, quiet: bool):
    doc, raw = _load_json(config_path)
    config = SimConfig.from_dict(doc)
    if seed_override is not None:
        config = dataclasses.replace(config, seed=seed_override)
    report = run(config)
    metrics = summarize(report)

    with open(out_dir / "report.json", "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    with open(out_dir / "metrics.json", "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_csv(
        out_dir / "revert_position_histogram.csv",
        ["position", "count"],
        sorted(metrics["revert_position_histogram"].items()),
    )
    _write_csv(
        out_dir / "per_bot_profit.csv",
        ["bot", "profit"],
        sorted(metrics["per_bot_profit"].items()),
    )
    _write_manifest(out_dir, "simulate", {"config": str(config_path)}, raw)
    _log(
        quiet,
        f"{config_path.name}: {metrics['total_txs']} txs, revert rate {metrics['revert_rate']:.3f}",
    )


def cmd_simulate(config_path: Path, out_dir: Path, seed_override: int | None, quiet: bool) -> int:
    if config_path.is_dir():
        configs = sorted(config_path.glob("*.json"))
        if not configs:
            raise ConfigError(f"{config_path}: no *.json scenario configs found")
        for cfg in configs:
            sub = out_dir / cfg.stem
            sub.mkdir(parents=True, exist_ok=True)
            _simulate_one(cfg, sub, seed_override, quiet)
    else:
        _simulate_one(config_path, out_dir, seed_override, quiet)
    return EXIT_OK


def cmd_analyze(
    traces_dir: Path,
    labels_csv: Path,
    records_csv: Path,
    out_dir: Path,
    min_bot_reverts: int,
    quiet: bool,
) -> int:
    # each input is read once: parsed, and hashed for the manifest
    digest = hashlib.sha256()
    raw = labels_csv.read_bytes()
    digest.update(raw)
    labels = read_labels_csv(labels_csv, raw)
    raw = records_csv.read_bytes()
    digest.update(raw)
    records = read_records_csv(records_csv, raw)
    del raw  # keep the parsed records, not the file's bytes
    by_hash = {r.tx_hash: r for r in records}

    classified = []
    rows = []
    # by name: the same order as by path within one directory, and cheaper
    for path in sorted(traces_dir.glob("*.json"), key=lambda p: p.name):
        tx_hash = path.stem
        record = by_hash.get(tx_hash)
        for graph in load_trace_file(path):
            cls = classify_swap(graph, labels)
            rows.append({"tx_hash": tx_hash, **cls.to_dict()})
            if record is not None:
                classified.append((cls, record))

    encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps would build one per row
    with open(out_dir / "classifications.jsonl", "w") as fh:
        for row in rows:
            fh.write(encode(row))
            fh.write("\n")

    tables = breakdown(classified, k=3) if classified else {"dex": [], "pair": [], "sender": []}
    for name, table in tables.items():
        _write_csv(
            out_dir / f"breakdown_{name}.csv",
            [name, "count", "share"],
            [(v, n, f"{share:.6f}") for v, n, share in table],
        )

    daily_all = revert_stats(records)
    daily_pf = revert_stats(records, priority_only=True)
    diff = revert_differential(records)
    _write_csv(
        out_dir / "revert_stats.csv",
        ["chain", "day", "revert_rate", "priority_revert_rate", "differential"],
        [
            (
                chain,
                day.isoformat(),
                f"{rate:.6f}",
                "" if (chain, day) not in daily_pf else f"{daily_pf[(chain, day)]:.6f}",
                "" if (chain, day) not in diff else f"{diff[(chain, day)]:.6f}",
            )
            for (chain, day), rate in daily_all.items()
        ],
    )
    _write_csv(
        out_dir / "position_histogram.csv",
        ["tx_index", "count"],
        sorted(position_histogram(records).items()),
    )
    with open(out_dir / "priority_fee_distribution.json", "w") as fh:
        dist = priority_fee_distribution(records)
        dist["quantiles"] = {str(k): v for k, v in dist["quantiles"].items()}
        json.dump(dist, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_csv(
        out_dir / "bots.csv",
        ["address"],
        [(a,) for a in sorted(identify_bots(records, labels, min_bot_reverts))],
    )

    _write_manifest(
        out_dir,
        "analyze",
        {"traces": str(traces_dir), "labels": str(labels_csv), "records": str(records_csv)},
        digest.digest(),
    )
    _log(quiet, f"classified {len(rows)} traces ({sum(1 for r in rows if r['is_swap'])} swaps)")
    return EXIT_OK


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return int(text)


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, tuple[argparse.Action, ...]]:
    """The CLI parser and its ``--out`` options, built once per process
    (building costs about eight times what parsing does)."""
    parser = argparse.ArgumentParser(prog="splitmev")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_opt = sub.add_parser("optimize", help="compute the optimal trade split")
    p_opt.add_argument("--config", required=True, type=Path)
    out_opt = p_opt.add_argument("--out", type=Path)

    p_sim = sub.add_parser("simulate", help="run a sequencer scenario (file or directory)")
    p_sim.add_argument("--config", required=True, type=Path)
    out_sim = p_sim.add_argument("--out", type=Path)
    p_sim.add_argument("--seed-override", type=int, default=None)

    p_ana = sub.add_parser("analyze", help="classify traces and compute fee statistics")
    p_ana.add_argument("--traces", required=True, type=Path)
    p_ana.add_argument("--labels", required=True, type=Path)
    p_ana.add_argument("--records", required=True, type=Path)
    out_ana = p_ana.add_argument("--out", type=Path)
    p_ana.add_argument("--min-bot-reverts", type=_positive_int, default=10)

    return parser, (out_opt, out_sim, out_ana)


def main(argv: list[str] | None = None) -> int:
    parser, out_options = build_parser()
    # --out defaults to $SPLITMEV_OUT, read on every call; without either
    # it is a missing required argument
    default_out = os.environ.get("SPLITMEV_OUT")
    for option in out_options:
        option.default, option.required = default_out, default_out is None
    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.subcommand == "optimize":
            return cmd_optimize(args.config, out_dir, args.quiet)
        if args.subcommand == "simulate":
            return cmd_simulate(args.config, out_dir, args.seed_override, args.quiet)
        return cmd_analyze(
            args.traces, args.labels, args.records, out_dir, args.min_bot_reverts, args.quiet
        )
    except (ConfigError, SchemaError, TraceParseError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoRootError as exc:
        print(f"numerical anomaly: {exc}", file=sys.stderr)
        return EXIT_ANOMALY


if __name__ == "__main__":
    sys.exit(main())
