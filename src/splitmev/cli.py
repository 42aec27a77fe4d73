"""Command-line entry point: optimize / simulate / analyze.

Every subcommand computes and writes nothing: it yields each output directory (``--out``; in a
``simulate`` sweep, one subdirectory per scenario) with the text of each of its outputs. ``main`` adds the
directory's ``manifest.json``, writes them all through one writer, ``_write_outputs``, and prints the
progress line. Each directory's outputs, then its manifest, are written whole or not at all: a write that
fails removes every file of that directory the writer opened, and exits 2 naming the file. Every output is
UTF-8 whatever the locale, as every input must be; ``simulate``'s large ``report.json`` streams, a piece
at a time. Exit codes: 0 ok; 2 config or schema error (a convex table, or a total size at which the
success probability is at its floor), an unreadable or non-UTF-8 input, or an unwritable output; 3
numerical anomaly (no interior root, a non-finite threshold or profit, a simulated arrival time with no
finite block number, or a simulated profit that is not finite).

The options are one table, ``_SUBCOMMANDS``. ``main`` parses an argv once: a canonical one,
``[--quiet] <subcommand>`` then ``--option value`` pairs, from that table; any other through the
argparse parser built from it, for its usage lines, errors and exit codes. Every path, ``SPLITMEV_OUT``
too, is a nonempty string kept as it was given (``./x.json`` stays ``./x.json``), joined by ``os.path.join``.

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
from itertools import chain

from . import __version__
from .config import ConfigError, DomainError, NoRootError, SchemaError, TraceParseError, read_input

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ANOMALY = 3


def _load_config(path, build_config):
    """``build_config`` of the JSON document at ``path``, and the bytes it was parsed from, read
    once; a document that is not JSON, or that ``build_config`` rejects, raises naming the path."""
    text, raw = read_input(path, ConfigError)
    try:
        return build_config(json.loads(text)), raw
    except (ValueError, RecursionError) as exc:  # not JSON, nested too deeply, or a ConfigError
        raise ConfigError(f"{path}: {exc}") from exc


def _write_outputs(directory: str, outputs: dict):
    """Make each ``{name: text}`` of ``outputs``, in order, the file ``name`` of ``directory``: a text is a
    str or an iterable of str pieces, each made and encoded (UTF-8) only once the one before is written.
    Raw system calls: ``open``, ``write`` until every byte is taken, ``close``, and none of a text file's
    layers. A failure once the first file is open, in a piece's making too, removes every file this call
    opened; an ``OSError`` that names no file (``write``'s or ``close``'s) is given the path it was writing."""
    opened = []
    try:
        for name, pieces in outputs.items():
            path = os.path.join(directory, name)
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
            opened.append(path)
            try:
                for data in map(memoryview, map(str.encode, [pieces] if isinstance(pieces, str) else pieces)):
                    while data:
                        data = data[os.write(fd, data):]
                    del data  # its piece is freed before the next is made
            finally:
                os.close(fd)
    except BaseException as exc:  # re-raised once the directory's files are gone
        for done in opened:
            os.remove(done)
        if isinstance(exc, OSError) and exc.filename is None:
            exc.filename = path
        raise


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


def _json_doc(doc: dict) -> str:
    """``doc`` as indented, key-sorted JSON, and a newline."""
    return _json_text(doc, "\n") + "\n"


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO(newline="")  # csv's own \r\n line ends, untranslated
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_files(directory: str) -> list[tuple[str, str]]:
    """The stem and path of each ``*.json`` file in ``directory``, by name, the path joined to
    ``directory`` as it was given: ``os.listdir`` raises ``OSError`` for a directory it cannot list."""
    names = sorted(name for name in os.listdir(directory) if name.endswith(".json"))
    return [(name[:-5] or name, os.path.join(directory, name)) for name in names]  # the stem as Path.stem


def cmd_optimize(args, out_dir: str):
    from .split_optimizer import optimize_config, plan, profit_curve

    (cfg, model), raw = _load_config(args.config, optimize_config)
    result = plan(cfg.pool, cfg.params, model)

    n_curve = min(10 * result.num_chunks, 1000)
    curve = profit_curve(cfg.pool, cfg.params, model, n_curve)

    outputs = {"plan.json": _json_doc(vars(result)), "profit_curve.csv": _csv_text(["n", "expected_total_profit"], curve)}
    progress = f"plan: branch={result.branch} n*={result.num_chunks} q*={result.chunk_size:.6g}"
    yield out_dir, outputs, {"config": args.config}, hashlib.sha256(raw), progress


def cmd_simulate(args, out_dir: str):
    from .sequencer_sim import SimConfig, run, summarize

    runs = [(args.config, out_dir)]
    if os.path.isdir(args.config):
        files = _json_files(args.config)
        for stem, path in files:  # before any scenario runs: a refused name writes nothing
            if stem in (".", ".."):  # its subdirectory would be --out itself, or its parent
                raise ConfigError(f"{path}: the scenario name {stem!r} names no subdirectory of the output directory")
        runs = [(path, os.path.join(out_dir, stem)) for stem, path in files]
        if not runs:
            raise ConfigError(f"{args.config}: no *.json scenario configs found")
    for config_path, sub in runs:
        config, raw = _load_config(config_path, SimConfig.from_dict)
        if args.seed_override is not None:
            config = dataclasses.replace(config, seed=args.seed_override)
        try:
            report = run(config)
        except (DomainError, NoRootError) as exc:  # named, as a config's own errors are
            raise type(exc)(f"{config_path}: {exc}") from exc
        metrics = summarize(report)

        outputs = {
            # the one large output streams: each piece is made once the one before is written
            "report.json": chain(report.json_pieces(), ["\n"]),
            "metrics.json": _json_doc(metrics),
            "revert_position_histogram.csv": _csv_text(  # summarize sorts it
                ["position", "count"], metrics["revert_position_histogram"].items()),
            "per_bot_profit.csv": _csv_text(["bot", "profit"], sorted(metrics["per_bot_profit"].items())),
        }
        del report  # held by its pieces alone, so freed once they are written, before the next scenario runs
        progress = f"{os.path.basename(config_path)}: {metrics['total_txs']} txs, revert rate {metrics['revert_rate']:.3f}"
        yield sub, outputs, {"config": config_path}, hashlib.sha256(raw), progress


# a classification line as json.dumps({"tx_hash": ..., **vars(cls)}, sort_keys=True) writes it
_SWAP_LINE = '{"dex": %s, "evidence": [%s], "is_swap": true, "pair": %s, "pool": %s, "tx_hash": %s}\n'
_NON_SWAP_LINE = '{"dex": null, "evidence": [], "is_swap": false, "pair": null, "pool": null, "tx_hash": %s}\n'


def _classification_line(tx_hash: str, cls) -> str:
    """The ``classifications.jsonl`` line of one classified tree: a non-swap is
    ``classify_swap``'s one constant, so only its hash is encoded."""
    if not cls.is_swap:
        return _NON_SWAP_LINE % _encode_str(tx_hash)
    evidence = ", ".join(map(_encode_str, cls.evidence))
    return _SWAP_LINE % (_encode_str(cls.dex), evidence, _encode_str(cls.pair), _encode_str(cls.pool), _encode_str(tx_hash))


def cmd_analyze(args, out_dir: str):
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

    classified = []
    lines = []
    swaps = 0
    for tx_hash, path in _json_files(args.traces):
        record = by_hash.get(tx_hash)
        for graph in load_trace_file(path, labels):  # a label's address was checked as it was read
            cls = classify_swap(graph, labels)
            lines.append(_classification_line(tx_hash, cls))
            swaps += cls.is_swap
            if record is not None:
                classified.append((cls, record))

    # joined 1,024 lines at a time, each slice once the one before is written: one os.write per
    # line costs about 4 times as much, and "".join(lines) would hold two more copies of the text
    outputs = {"classifications.jsonl": ("".join(lines[i:i + 1024]) for i in range(0, len(lines), 1024))}
    for name, table in breakdown(classified).items():
        rows = [(v, n, f"{share:.6f}") for v, n, share in table]
        outputs[f"breakdown_{name}.csv"] = _csv_text([name, "count", "share"], rows)

    daily_all, daily_pf = revert_stats(records)
    diff = revert_differential(daily_all, daily_pf)
    outputs["revert_stats.csv"] = _csv_text(
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
    outputs["position_histogram.csv"] = _csv_text(["tx_index", "count"], position_histogram(records).items())
    outputs["priority_fee_distribution.json"] = _json_doc(priority_fee_distribution(records))
    bots = sorted(identify_bots(records, labels, args.min_bot_reverts))
    outputs["bots.csv"] = _csv_text(["address"], [(a,) for a in bots])

    inputs = {"traces": args.traces, "labels": args.labels, "records": args.records}
    progress = f"classified {len(lines)} traces ({swaps} swaps)"
    yield out_dir, outputs, inputs, digest, progress


def _int_at_least(lowest: int, text: str) -> int:
    """An argparse ``type`` once ``functools.partial`` binds ``lowest``."""
    try:
        value = int(text)
    except ValueError:  # argparse's own wording for type=int, not this function's name
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < lowest:
        raise argparse.ArgumentTypeError(f"must be >= {lowest}, got {text}")
    return value


def _path(text: str) -> str:
    """``text`` as it was given: it is recorded and joined as the user spelled it."""
    if not text:  # an empty path names no file, not the working directory
        raise argparse.ArgumentTypeError("empty path")
    return text


# per subcommand: its command, its help and, in usage order, each one-value option's type, default and required
_PATH, _REQUIRED_PATH = (_path, None, False), (_path, None, True)
_SUBCOMMANDS = {
    "optimize": (cmd_optimize, "compute the optimal trade split", {"--config": _REQUIRED_PATH, "--out": _PATH}),
    "simulate": (cmd_simulate, "run a sequencer scenario (file or directory)", {
        "--config": _REQUIRED_PATH, "--out": _PATH, "--seed-override": (functools.partial(_int_at_least, 0), None, False)}),
    "analyze": (cmd_analyze, "classify traces and compute fee statistics", {
        "--traces": _REQUIRED_PATH, "--labels": _REQUIRED_PATH, "--records": _REQUIRED_PATH, "--out": _PATH,
        "--min-bot-reverts": (functools.partial(_int_at_least, 1), 10, False)}),
}
# what _parse reads, per subcommand: each option's dest (as argparse derives it) and type; the defaults; the required dests
_CANONICAL = {}
for _name, (_command, _help, _options) in _SUBCOMMANDS.items():
    _rows = [(option, option[2:].replace("-", "_"), *spec) for option, spec in _options.items()]
    _CANONICAL[_name] = ({option: (dest, kind) for option, dest, kind, _, _ in _rows},
                         {"command": _command, **{dest: default for _, dest, _, default, _ in _rows}},
                         {dest for _, dest, _, _, required in _rows if required})


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The full parser, built from ``_SUBCOMMANDS`` once per process (building costs about eight
    times what parsing does), and only for an argv that ``_parse`` does not read itself."""
    parser = argparse.ArgumentParser(prog="splitmev")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (command, help_text, options) in _SUBCOMMANDS.items():
        p_sub = sub.add_parser(name, help=help_text)
        p_sub.set_defaults(command=command)
        for option, (kind, default, required) in options.items():
            p_sub.add_argument(option, type=kind, default=default, required=required)
    return parser


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """What the full parser's ``parse_args(argv)`` returns. Canonical pairs are read here: each option
    one of the subcommand's one-value options, in full (a repeat keeps its last value, as in argparse),
    each value not starting with ``-`` and taken by the option's ``type``, every required option given."""
    argv = sys.argv[1:] if argv is None else list(argv)
    quiet = argv[:1] == ["--quiet"]
    name, *rest = argv[quiet:] or [None]
    if name in _CANONICAL and len(rest) % 2 == 0:
        options, start, required = _CANONICAL[name]
        values = {}
        for option, value in zip(rest[::2], rest[1::2]):
            dest_type = options.get(option)
            if dest_type is None or value.startswith("-"):  # argparse may read such a value as an option
                break
            try:
                values[dest_type[0]] = dest_type[1](value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):  # argparse reports these
                break
        else:
            if required <= values.keys():
                return argparse.Namespace(**{**start, **values}, quiet=quiet, subcommand=name)
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    """Run one command with the cyclic garbage collector paused, then leave it on or off
    as the caller had it. A command's objects are freed by reference counting: the cyclic
    collections a large ``simulate`` set off took about a tenth of its time and freed 52."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _parse(argv)
        out_dir = args.out or os.environ.get("SPLITMEV_OUT")  # the environment is read on every call
        if not out_dir:  # an empty SPLITMEV_OUT is unset, as an empty --out is refused
            build_parser().error("the following arguments are required: --out")
        if not os.path.isdir(out_dir):  # where it is, one stat, not a failing mkdir and its exception
            os.makedirs(out_dir, exist_ok=True)
        # each directory whole, its manifest last, or not at all: a failing scenario leaves earlier ones whole
        for directory, outputs, inputs, digest, progress in args.command(args, out_dir):
            outputs["manifest.json"] = _json_doc({
                "subcommand": args.subcommand,
                "inputs": inputs,
                "config_sha256": digest.hexdigest(),
                "out_dir": directory,
                "tool_version": __version__,
                # with no argument, gmtime reads a coarser clock, which for a few ms after a
                # second begins can still read the second before, behind time.time()
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(time.time())),
            })
            if directory != out_dir and not os.path.isdir(directory):  # a sweep's, made once its scenario has run
                os.makedirs(directory, exist_ok=True)
            _write_outputs(directory, outputs)
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
