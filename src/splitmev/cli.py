"""Command-line entry point: optimize / simulate / analyze.

Every subcommand writes its outputs into a single output directory (a
directory ``simulate``, into one subdirectory per scenario) and nowhere
else, then yields each directory it filled. ``main`` is the only code that
writes a ``manifest.json`` or prints a progress line. Every output file is
UTF-8 whatever the locale, as every input must be. Exit codes: 0 ok; 2
config or schema error (a convex table, or a total size at which the success
probability is at its floor), an unreadable or non-UTF-8 input, or an
unwritable output; 3 numerical anomaly (no interior root, a non-finite
threshold or profit, a simulated arrival time with no finite block number,
or a simulated profit that is not finite).

``main`` parses an argv once: a subcommand's name, after an optional leading
``--quiet``, hands the rest to that subcommand's parser alone; any other argv,
or one with tokens that parser leaves, goes through the full parser, for its
usage lines, errors and exit codes. No path, nor ``SPLITMEV_OUT``, may be empty.

Importing this module loads ``config`` alone: each subcommand imports its own
modules when it runs, so only ``simulate``, for its PCG64 draws, loads numpy.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import gc
import hashlib
import io
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .config import ConfigError, DomainError, NoRootError, SchemaError, TraceParseError, read_input

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ANOMALY = 3


def _load_config(path: Path, build_config):
    """``build_config`` of the JSON document at ``path``, and the bytes it was parsed from, read
    once; a document that is not JSON, or that ``build_config`` rejects, raises naming the path."""
    text, raw = read_input(path, ConfigError)
    try:
        return build_config(json.loads(text)), raw
    except (ValueError, RecursionError) as exc:  # not JSON, nested too deeply, or a ConfigError
        raise ConfigError(f"{path}: {exc}") from exc


def _write(path: Path, *parts: str):
    """Make ``parts``, each encoded as UTF-8 once, in order, the file at ``path`` in raw system
    calls: ``open``, ``write`` until every byte is taken, ``close``, and none of a text file's
    layers. A newline after a large text is a part of its own: ``text + "\\n"`` copies the text."""
    encoded = [memoryview(part.encode("utf-8")) for part in parts]  # encoded before the file is truncated
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        for data in encoded:
            while data:
                data = data[os.write(fd, data):]
    finally:
        os.close(fd)


_encode_str = json.encoder.encode_basestring_ascii
_JSON_WORDS = {None: "null", True: "true", False: "false", "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(value, pad: str) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes it, ``pad`` being a
    newline and ``value``'s indent. ``json`` serves ``indent`` from its pure-Python encoder
    only, at about twice this cost: here every scalar is encoded in C, in that encoder's order."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None or value is True or value is False:
        return _JSON_WORDS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _JSON_WORDS.get(text, text)
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    if isinstance(value, dict):
        items = [f"{_json_key(key)}: {_json_text(item, inner)}" for key, item in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _json_key(key) -> str:
    if isinstance(key, str):
        return _encode_str(key)
    if key is None or isinstance(key, (int, float)):
        return f'"{_json_text(key, "")}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _write_json(path: Path, doc: dict):
    """``doc`` as indented, key-sorted JSON."""
    _write(path, _json_text(doc, "\n") + "\n")


def _write_csv(path: Path, header: list[str], rows):
    buf = io.StringIO(newline="")  # csv's own \r\n line ends, untranslated
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _write(path, buf.getvalue())


def cmd_optimize(args, out_dir: Path):
    from .split_optimizer import _optimize_config, plan, profit_curve

    (cfg, model), raw = _load_config(args.config, _optimize_config)
    result = plan(cfg.pool, cfg.params, model)

    n_curve = min(10 * result.num_chunks, 1000)
    curve = profit_curve(cfg.pool, cfg.params, model, n_curve)

    _write_json(out_dir / "plan.json", vars(result))
    _write_csv(out_dir / "profit_curve.csv", ["n", "expected_total_profit"], curve)
    progress = f"plan: branch={result.branch} n*={result.num_chunks} q*={result.chunk_size:.6g}"
    yield out_dir, {"config": str(args.config)}, hashlib.sha256(raw), progress


def _json_files(directory: Path) -> list[Path]:
    """The ``*.json`` files in ``directory``, by name: ``iterdir`` raises ``OSError``
    for a directory it cannot list, where ``Path.glob`` yields nothing."""
    return sorted((p for p in directory.iterdir() if p.name.endswith(".json")), key=lambda p: p.name)


def cmd_simulate(args, out_dir: Path):
    from .sequencer_sim import SimConfig, run, summarize

    runs = [(args.config, out_dir)]
    if args.config.is_dir():
        runs = [(cfg, out_dir / cfg.stem) for cfg in _json_files(args.config)]
        if not runs:
            raise ConfigError(f"{args.config}: no *.json scenario configs found")
    for config_path, sub in runs:
        sub.mkdir(parents=True, exist_ok=True)
        config, raw = _load_config(config_path, SimConfig.from_dict)
        if args.seed_override is not None:
            config = dataclasses.replace(config, seed=args.seed_override)
        report = run(config)
        metrics = summarize(report)

        _write(sub / "report.json", report.to_json(), "\n")
        del report  # not held while the next scenario runs
        _write_json(sub / "metrics.json", metrics)
        histogram = metrics["revert_position_histogram"].items()  # summarize sorts it
        _write_csv(sub / "revert_position_histogram.csv", ["position", "count"], histogram)
        _write_csv(sub / "per_bot_profit.csv", ["bot", "profit"], sorted(metrics["per_bot_profit"].items()))
        progress = f"{config_path.name}: {metrics['total_txs']} txs, revert rate {metrics['revert_rate']:.3f}"
        yield sub, {"config": str(config_path)}, hashlib.sha256(raw), progress


def cmd_analyze(args, out_dir: Path):
    from .fee_accounting import position_histogram, priority_fee_distribution, read_records_csv
    from .fee_accounting import revert_differential, revert_stats
    from .trace_analysis import breakdown, classify_swap, identify_bots, load_trace_file, read_labels_csv

    # each input is read once: parsed, and hashed into the manifest's sha256(labels || records)
    text, raw = read_input(args.labels, SchemaError)
    digest = hashlib.sha256(raw)
    labels = read_labels_csv(args.labels, text)
    text, raw = read_input(args.records, SchemaError)
    digest.update(raw)
    del raw  # parse the text alone, and keep the parsed records, not the file
    records = read_records_csv(args.records, text)
    del text
    by_hash = {r.tx_hash: r for r in records}

    encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps would build one per row
    classified = []
    lines = []
    swaps = 0
    for path in _json_files(args.traces):
        tx_hash = path.stem
        record = by_hash.get(tx_hash)
        for graph in load_trace_file(path):
            cls = classify_swap(graph, labels)
            lines.append(encode({"tx_hash": tx_hash, **vars(cls)}) + "\n")  # the evidence tuple: a JSON array
            swaps += cls.is_swap
            if record is not None:
                classified.append((cls, record))

    # written once every trace has parsed, so a malformed trace leaves no partial file; through
    # a buffered file, as one os.write per line (_write(path, *lines)) costs about 4 times as much
    # and "".join(lines) would hold two more copies of the text
    with open(out_dir / "classifications.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(lines)

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
    _write_csv(out_dir / "position_histogram.csv", ["tx_index", "count"], position_histogram(records).items())
    _write_json(out_dir / "priority_fee_distribution.json", priority_fee_distribution(records))
    bots = sorted(identify_bots(records, labels, args.min_bot_reverts))
    _write_csv(out_dir / "bots.csv", ["address"], [(a,) for a in bots])

    inputs = {"traces": str(args.traces), "labels": str(args.labels), "records": str(args.records)}
    progress = f"classified {len(lines)} traces ({swaps} swaps)"
    yield out_dir, inputs, digest, progress


def _int_at_least(lowest: int, text: str) -> int:
    """An argparse ``type`` once ``functools.partial`` binds ``lowest``."""
    try:
        value = int(text)
    except ValueError:  # argparse's own wording for type=int, not this function's name
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < lowest:
        raise argparse.ArgumentTypeError(f"must be >= {lowest}, got {text}")
    return value


def _path(text: str) -> Path:
    if not text:  # Path("") is the working directory
        raise argparse.ArgumentTypeError("empty path")
    return Path(text)


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The CLI parser and its subcommands' parsers by name, built once per process
    (building costs about eight times what parsing does)."""
    parser = argparse.ArgumentParser(prog="splitmev")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_opt = sub.add_parser("optimize", help="compute the optimal trade split")
    p_opt.set_defaults(command=cmd_optimize)
    p_opt.add_argument("--config", required=True, type=_path)
    p_opt.add_argument("--out", type=_path)

    p_sim = sub.add_parser("simulate", help="run a sequencer scenario (file or directory)")
    p_sim.set_defaults(command=cmd_simulate)
    p_sim.add_argument("--config", required=True, type=_path)
    p_sim.add_argument("--out", type=_path)
    p_sim.add_argument("--seed-override", type=functools.partial(_int_at_least, 0), default=None)

    p_ana = sub.add_parser("analyze", help="classify traces and compute fee statistics")
    p_ana.set_defaults(command=cmd_analyze)
    p_ana.add_argument("--traces", required=True, type=_path)
    p_ana.add_argument("--labels", required=True, type=_path)
    p_ana.add_argument("--records", required=True, type=_path)
    p_ana.add_argument("--out", type=_path)
    p_ana.add_argument("--min-bot-reverts", type=functools.partial(_int_at_least, 1), default=10)

    return parser, sub.choices


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """What the full parser's ``parse_args(argv)`` returns, at less than half its cost
    where the subcommand's parser takes every token after the subcommand's name: the
    full parser would hand it those same tokens."""
    parser, subparsers = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    quiet = argv[:1] == ["--quiet"]
    name, *rest = argv[quiet:] or [None]
    # the full parser rejects a "--=..." token as an abbreviation of both --help and
    # --quiet before the subcommand's parser sees it
    if name in subparsers and not any(token.startswith("--=") for token in rest):
        args, extras = subparsers[name].parse_known_args(rest)
        if not extras:
            args.quiet, args.subcommand = quiet, name
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    """Run one command with the cyclic garbage collector paused, then leave it on or off
    as the caller had it. A command's objects are freed by reference counting: the cyclic
    collections a large ``simulate`` set off took about a tenth of its time and freed 52."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _parse(argv)
        out = args.out or os.environ.get("SPLITMEV_OUT")  # the environment is read on every call
        if not out:  # an empty SPLITMEV_OUT is unset: Path("") would be the working directory
            build_parser()[0].error("the following arguments are required: --out")
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        # each directory's manifest follows its outputs: a failing scenario leaves earlier ones whole
        for directory, inputs, digest, progress in args.command(args, out_dir):
            _write_json(directory / "manifest.json", {
                "subcommand": args.subcommand,
                "inputs": inputs,
                "config_sha256": digest.hexdigest(),
                "out_dir": str(directory),
                "tool_version": __version__,
                # with no argument, gmtime reads a coarser clock, which for a few ms after a
                # second begins can still read the second before, behind time.time()
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(time.time())),
            })
            if not args.quiet:
                print(progress)
        return EXIT_OK
    except (SchemaError, TraceParseError, DomainError, OSError) as exc:  # OSError: an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoRootError as exc:
        print(f"numerical anomaly: {exc}", file=sys.stderr)
        return EXIT_ANOMALY
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
