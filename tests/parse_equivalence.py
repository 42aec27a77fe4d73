"""``cli._parse`` against the full parser's ``parse_args``, over every argv of a
fixed token grammar, without pytest or Hypothesis: a plain script for any
interpreter the package supports, since argparse differs between versions.

    PYTHONPATH=src python tests/parse_equivalence.py

Prints the number of argvs compared and how many took the canonical path;
exits 1 at the first argv whose namespace, exit code, stdout or stderr differ.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import sys

from splitmev.cli import _parse, build_parser

TOKENS = ["--quiet", "optimize", "simulate", "analyze", "--config", "--out", "--seed-override", "--traces",
          "--labels", "--records", "--min-bot-reverts", "-h", "--q", "--conf", "--", "--quiet=1", "--out=o",
          "--=x", "", "x", "0", "-1", "abc", "-", "a=b", "a b", "é₮"]
OPTIONS = ["--config", "--out", "--seed-override", "--traces", "--labels", "--records", "--min-bot-reverts", "--conf"]
VALUES = ["x", "0", "-1", "", "-", "a=b", "a b", "é₮", "--out"]
OWN = {"optimize": ["--config", "--out"], "simulate": ["--config", "--out", "--seed-override"],
       "analyze": ["--traces", "--labels", "--records", "--out", "--min-bot-reverts"]}


def outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    namespace = code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = parse(argv)
        except SystemExit as exc:
            code = exc.code
    return namespace, code, out.getvalue(), err.getvalue()


def argvs():
    for k in range(4):  # any tokens
        yield from map(list, itertools.product(TOKENS, repeat=k))
    for head in ([], ["--quiet"]):
        for name in OWN:
            for k in range(1, 4):  # a subcommand, then any tokens
                yield from (head + [name, *rest] for rest in itertools.product(TOKENS, repeat=k))
            for k in range(1, 3):  # a subcommand, then option-value pairs
                pairs = itertools.product(itertools.product(OPTIONS, VALUES), repeat=k)
                yield from (head + [name, *itertools.chain(*rest)] for rest in pairs)
            for k in range(3, 5):  # its own options with a few values, up to all of them
                pairs = itertools.product(itertools.product(OWN[name], ["x", "0", "-1", "a b"]), repeat=k)
                yield from (head + [name, *itertools.chain(*rest)] for rest in pairs)


def main() -> int:
    full = build_parser()
    compared = canonical = 0
    real_parse_args = argparse.ArgumentParser.parse_args
    for argv in argvs():
        used = []

        def counting(self, *args, **kwargs):
            used.append(self)
            return real_parse_args(self, *args, **kwargs)

        argparse.ArgumentParser.parse_args = counting
        try:
            got = outcome(_parse, argv)
        finally:
            argparse.ArgumentParser.parse_args = real_parse_args
        want = outcome(full.parse_args, argv)
        if got != want:
            print(f"differ on {argv!r}:\n  _parse:     {got!r}\n  parse_args: {want!r}")
            return 1
        compared += 1
        canonical += not used
    print(f"python {sys.version.split()[0]}: {compared} argvs, {canonical} canonical, all equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
