"""Command-line entry point: optimize / simulate / analyze.

Every subcommand writes its outputs (plus a run manifest) into a single
output directory and nowhere else. Exit codes: 0 ok; 2 config or schema
error, an unreadable or non-UTF-8 input, or an unwritable output; 3
numerical anomaly (no interior root, or a non-finite threshold or profit).
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
from .config import ConfigError, build, read_input
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
from .split_optimizer import ArbParams, NoRootError, plan, profit_curve
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
    text, raw = read_input(path, ConfigError)
    try:
        return json.loads(text), raw
    except (ValueError, RecursionError) as exc:  # not JSON, or nested too deeply
        raise ConfigError(f"{path}: {exc}") from exc


def _write_json(path: Path, doc: dict):
    """``doc`` as indented, key-sorted JSON, encoded in one piece and written once."""
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_manifest(out_dir: Path, subcommand: str, inputs: dict[str, str], config_sha256: str):
    manifest = {
        "subcommand": subcommand,
        "inputs": inputs,
        "config_sha256": config_sha256,
        "out_dir": str(out_dir),
        "tool_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    _write_json(out_dir / "manifest.json", manifest)


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


@dataclasses.dataclass(frozen=True)
class OptimizeConfig:
    """An ``optimize`` config file."""

    pool: PoolState
    params: ArbParams
    model: ModelConfig


def cmd_optimize(config_path: Path, out_dir: Path, quiet: bool) -> int:
    doc, raw = _load_json(config_path)
    cfg = build(OptimizeConfig, doc)
    model = model_from_config(cfg.model.family, cfg.model.parameters)
    result = plan(cfg.pool, cfg.params, model)

    n_curve = min(10 * result.num_chunks, 1000)
    curve = profit_curve(cfg.pool, cfg.params, model, n_curve)

    _write_json(out_dir / "plan.json", vars(result))
    _write_csv(out_dir / "profit_curve.csv", ["n", "expected_total_profit"], curve)
    _write_manifest(out_dir, "optimize", {"config": str(config_path)}, hashlib.sha256(raw).hexdigest())
    _log(quiet, f"plan: branch={result.branch} n*={result.num_chunks} q*={result.chunk_size:.6g}")
    return EXIT_OK


def _json_files(directory: Path) -> list[Path]:
    """The ``*.json`` files in ``directory``, by name: ``iterdir`` raises ``OSError``
    for a directory it cannot list, where ``Path.glob`` yields nothing."""
    return sorted((p for p in directory.iterdir() if p.name.endswith(".json")), key=lambda p: p.name)


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
    _write_json(out_dir / "metrics.json", metrics)
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
    _write_manifest(out_dir, "simulate", {"config": str(config_path)}, hashlib.sha256(raw).hexdigest())
    _log(
        quiet,
        f"{config_path.name}: {metrics['total_txs']} txs, revert rate {metrics['revert_rate']:.3f}",
    )


def cmd_simulate(config_path: Path, out_dir: Path, seed_override: int | None, quiet: bool) -> int:
    if config_path.is_dir():
        configs = _json_files(config_path)
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
    # each input is read once: parsed, and hashed into the manifest's sha256(labels || records)
    text, raw = read_input(labels_csv, SchemaError)
    digest = hashlib.sha256(raw)
    labels = read_labels_csv(labels_csv, text)
    text, raw = read_input(records_csv, SchemaError)
    digest.update(raw)
    del raw  # parse the text alone, and keep the parsed records, not the file
    records = read_records_csv(records_csv, text)
    del text
    by_hash = {r.tx_hash: r for r in records}

    classified = []
    rows = []
    for path in _json_files(traces_dir):
        tx_hash = path.stem
        record = by_hash.get(tx_hash)
        for graph in load_trace_file(path):
            cls = classify_swap(graph, labels)
            rows.append({"tx_hash": tx_hash, **vars(cls)})  # the evidence tuple encodes as a JSON array
            if record is not None:
                classified.append((cls, record))

    encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps would build one per row
    with open(out_dir / "classifications.jsonl", "w") as fh:
        for row in rows:
            fh.write(encode(row))
            fh.write("\n")

    for name, table in breakdown(classified).items():
        _write_csv(
            out_dir / f"breakdown_{name}.csv",
            [name, "count", "share"],
            [(v, n, f"{share:.6f}") for v, n, share in table],
        )

    daily_all, daily_pf = revert_stats(records)
    diff = revert_differential(daily_all, daily_pf)
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
    dist = priority_fee_distribution(records)
    dist["quantiles"] = {str(k): v for k, v in dist["quantiles"].items()}
    _write_json(out_dir / "priority_fee_distribution.json", dist)
    _write_csv(
        out_dir / "bots.csv",
        ["address"],
        [(a,) for a in sorted(identify_bots(records, labels, min_bot_reverts))],
    )

    _write_manifest(
        out_dir,
        "analyze",
        {"traces": str(traces_dir), "labels": str(labels_csv), "records": str(records_csv)},
        digest.hexdigest(),
    )
    _log(quiet, f"classified {len(rows)} traces ({sum(1 for r in rows if r['is_swap'])} swaps)")
    return EXIT_OK


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process (building costs about eight
    times what parsing does)."""
    parser = argparse.ArgumentParser(prog="splitmev")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_opt = sub.add_parser("optimize", help="compute the optimal trade split")
    p_opt.add_argument("--config", required=True, type=Path)
    p_opt.add_argument("--out", type=Path)

    p_sim = sub.add_parser("simulate", help="run a sequencer scenario (file or directory)")
    p_sim.add_argument("--config", required=True, type=Path)
    p_sim.add_argument("--out", type=Path)
    p_sim.add_argument("--seed-override", type=int, default=None)

    p_ana = sub.add_parser("analyze", help="classify traces and compute fee statistics")
    p_ana.add_argument("--traces", required=True, type=Path)
    p_ana.add_argument("--labels", required=True, type=Path)
    p_ana.add_argument("--records", required=True, type=Path)
    p_ana.add_argument("--out", type=Path)
    p_ana.add_argument("--min-bot-reverts", type=_positive_int, default=10)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = args.out or os.environ.get("SPLITMEV_OUT")  # the environment is read on every call
    if out is None:
        parser.error("the following arguments are required: --out")
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.subcommand == "optimize":
            return cmd_optimize(args.config, out_dir, args.quiet)
        if args.subcommand == "simulate":
            return cmd_simulate(args.config, out_dir, args.seed_override, args.quiet)
        return cmd_analyze(
            args.traces, args.labels, args.records, out_dir, args.min_bot_reverts, args.quiet
        )
    except (ConfigError, SchemaError, TraceParseError, DomainError, OSError) as exc:  # OSError: an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoRootError as exc:
        print(f"numerical anomaly: {exc}", file=sys.stderr)
        return EXIT_ANOMALY


if __name__ == "__main__":
    sys.exit(main())
