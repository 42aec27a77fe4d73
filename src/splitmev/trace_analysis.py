"""Execution-graph construction and swap classification for reverted
transactions.

Reverted transactions emit no event logs, so classification works purely
on the call tree. ``build_graph`` validates a decoded tree while it
collects its call edges, rejecting inexact addresses and calls more than
``MAX_CALL_DEPTH`` deep; ``load_trace_file`` returns one graph per tree in
a file. ``classify_swap`` matches callees
against a per-chain label library. v2/v3 swaps are recognized by a call
into a labeled pool; v4 routes everything through a single pool manager,
so recognition additionally requires call/staticcall probes into at least
two distinct labeled token contracts. The classifier never reports a swap
without pool or pool-manager evidence, so swap shares are lower bounds by
construction.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import dataclass, fields
from json.scanner import py_make_scanner

from .config import SchemaError, TraceParseError, read_input
from .fee_accounting import TxRecord, _address, _csv_records

__all__ = [
    "ExecutionGraph",
    "LabelEntry",
    "SwapClassification",
    "TraceParseError",
    "build_graph",
    "classify_swap",
    "identify_bots",
    "breakdown",
    "load_trace_file",
    "read_labels_csv",
    "LABEL_HEADER",
]

CALL_KINDS = ("call", "delegatecall", "staticcall", "create")
POOL_KINDS = {"pool_v2": "v2", "pool_v3": "v3"}
INFRA_KINDS = {"router", "pool_v2", "pool_v3", "pool_manager_v4"}
LABEL_KINDS = INFRA_KINDS | {"token", "other"}

MAX_CALL_DEPTH = 1024


def _path(where) -> str:
    """A frame's path, from its ``(parent's where, child index)`` links."""
    steps = []
    while type(where) is tuple:
        where, i = where
        steps.append(f".children[{i}]")
    return where + "".join(reversed(steps))


@dataclass(frozen=True)
class ExecutionGraph:
    """The ``(callee, call_kind)`` call edges of one transaction, in trace
    pre-order (a multiset: duplicate calls are kept); the root is
    ``edges[0][0]``."""

    edges: tuple[tuple[str, str], ...]


def build_graph(tree: dict, path: str = "root", checked=()) -> ExecutionGraph:
    """Validate a decoded call tree and collect its graph, in one pre-order
    pass that checks each distinct address string once, the caller's too,
    though only the callee is kept (``selector`` is ignored). ``checked``
    holds addresses already checked and lowercase (a label table's keys): a
    raw address found there is taken as it is."""
    memo: dict[str, str] = {}  # raw address -> its checked lowercase form
    edges: list[tuple[str, str]] = []
    # (frame, where: the root's path or (the parent's where, child index),
    #  the parent's depth or None at the root, calls below the root)
    stack = [(tree, path, None, 0)]
    while stack:
        d, where, parent_depth, level = stack.pop()
        if not isinstance(d, dict):
            raise TraceParseError(f"{_path(where)}: expected a JSON object")
        kind = d.get("call_kind", "call")
        if kind not in CALL_KINDS:
            raise TraceParseError(f"{_path(where)}: unknown call_kind {kind!r}")
        depth = d.get("depth", 0)
        if type(depth) is not int:  # a JSON integer: not a string, float or bool
            raise TraceParseError(f"{_path(where)}: bad depth {depth!r}")
        if depth < 0:
            raise TraceParseError(f"{_path(where)}: negative depth")
        children = d.get("children", [])
        if not isinstance(children, list):
            raise TraceParseError(f"{_path(where)}: children must be a list, got {children!r}")
        try:
            addr = d["from_address"]  # checked, not kept
            if addr not in memo:
                memo[addr] = addr if addr in checked else _address(addr, "address")
            addr = d["to_address"]
            callee = memo.get(addr) or memo.setdefault(addr, addr if addr in checked else _address(addr, "address"))
        except KeyError as exc:
            raise TraceParseError(f"{_path(where)}: missing field {exc}") from exc
        except TypeError:  # an unhashable JSON array or object
            raise TraceParseError(f"{_path(where)}: bad address {addr!r}") from None
        except SchemaError as exc:
            raise TraceParseError(f"{_path(where)}: {exc}") from None
        if parent_depth is not None and depth != parent_depth + 1:
            raise TraceParseError(f"{_path(where)}: depth {depth} != parent depth + 1")
        if level > MAX_CALL_DEPTH:
            raise TraceParseError(f"{_path(where)}: call depth {level} exceeds the EVM's {MAX_CALL_DEPTH}")
        edges.append((callee, kind))
        if children:
            level += 1
            for i in range(len(children) - 1, -1, -1):  # pushed last-first, so popped in order
                stack.append((children[i], (where, i), depth, level))
    return ExecutionGraph(tuple(edges))


@dataclass(frozen=True)
class LabelEntry:
    address: str  # stored lowercase
    kind: str  # one of LABEL_KINDS
    dex: str = ""
    pair: str = ""  # token pair for pools; token symbol for token entries
    fee_tier: str = ""
    owner_label: str = ""
    has_code: bool = False

    def __post_init__(self):
        object.__setattr__(self, "address", _address(self.address, "address"))
        if self.kind not in LABEL_KINDS:
            raise SchemaError(f"unknown kind {self.kind!r}; known: {sorted(LABEL_KINDS)}")


LABEL_HEADER = [f.name for f in fields(LabelEntry)]


def read_labels_csv(path, text: str) -> dict[str, LabelEntry]:
    """``{address: entry}`` of the labels of ``text``, the decoded content of the
    ``LABEL_HEADER`` CSV file at ``path`` (a repeated address keeps its last row);
    errors name the path and the line."""
    return {e.address: e for e in _csv_records(path, text, LabelEntry)}


@dataclass(frozen=True)
class SwapClassification:
    is_swap: bool
    dex: str | None = None
    pool: str | None = None
    pair: str | None = None
    evidence: tuple[str, ...] = ()


_NOT_A_SWAP = SwapClassification(is_swap=False)  # frozen: one instance serves every non-swap


def classify_swap(graph: ExecutionGraph, labels: dict[str, LabelEntry]) -> SwapClassification:
    """Decide whether the transaction is a DEX swap and attribute it.

    v2/v3: any call edge into a labeled pool; multiple pool touches are
    attributed to the first in edge order, with every match retained in
    evidence. v4: a touch of the pool manager plus call/staticcall probes
    into at least two distinct labeled tokens (the pair is those tokens).
    """
    pool_hits: list[tuple[int, LabelEntry]] = []
    manager_hits: list[tuple[int, LabelEntry]] = []
    token_hits: dict[str, int] = {}

    for i, (callee, call_kind) in enumerate(graph.edges):
        entry = labels.get(callee)  # graph and label addresses are both lowercase
        if entry is None:
            continue
        if entry.kind in POOL_KINDS and call_kind == "call":
            pool_hits.append((i, entry))
        elif entry.kind == "pool_manager_v4":
            manager_hits.append((i, entry))
        elif entry.kind == "token" and call_kind in ("call", "staticcall"):
            token_hits.setdefault(entry.address, i)

    if pool_hits:
        first_i, first = pool_hits[0]
        evidence = tuple(
            f"edge {i}: call to {e.kind} pool {e.address} ({e.dex} {e.pair})"
            for i, e in pool_hits
        )
        return SwapClassification(
            is_swap=True,
            dex=f"{first.dex}_{POOL_KINDS[first.kind]}",
            pool=first.address,
            pair=first.pair,
            evidence=evidence,
        )

    if manager_hits and len(token_hits) >= 2:
        mi, manager = manager_hits[0]
        symbols = sorted(labels[a].pair or a for a in token_hits)
        evidence = [f"edge {mi}: call to v4 pool manager {manager.address} ({manager.dex})"]
        evidence += [
            f"edge {i}: token probe {a} ({labels[a].pair})"
            for a, i in sorted(token_hits.items(), key=lambda kv: kv[1])
        ]
        return SwapClassification(
            is_swap=True,
            dex=f"{manager.dex}_v4",
            pool=manager.address,
            pair="-".join(symbols),
            evidence=tuple(evidence),
        )

    return _NOT_A_SWAP


def identify_bots(records: list[TxRecord], labels: dict[str, LabelEntry], min_count: int) -> set[str]:
    """Addresses that look like MEV bot contracts.

    A to_address qualifies when it (a) receives at least min_count reverted
    transactions, (b) is not DEX infrastructure (router/pool/pool manager),
    (c) carries on-chain bytecode, and (d) has no known owner label.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts = Counter(r.to_address for r in records if r.reverted)
    bots = set()
    for addr, n in counts.items():
        if n < min_count:
            continue
        entry = labels.get(addr)
        if entry is None or not entry.has_code:
            continue
        if entry.kind in INFRA_KINDS:
            continue
        if entry.owner_label:
            continue
        bots.add(addr)
    return bots


def breakdown(classified: list[tuple[SwapClassification, TxRecord]]) -> dict[str, list[tuple[str, int, float]]]:
    """Top-3 (value, count, share) tables over the reverted-swap subset for
    target DEX, token pair, and transaction sender. Ties break
    lexicographically."""
    swaps = [(c, r) for c, r in classified if c.is_swap]
    total = len(swaps)
    tables: dict[str, list[tuple[str, int, float]]] = {}
    for name, key in (
        ("dex", lambda c, r: c.dex),
        ("pair", lambda c, r: c.pair),
        ("sender", lambda c, r: r.from_address),
    ):
        counts = Counter(key(c, r) for c, r in swaps)
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
        tables[name] = [(v, n, n / total) for v, n in ranked] if total else []
    return tables


# the C scanner; from Python 3.12 its nesting limit is its own, so only the
# pure-Python scanner nests as deep as a raised recursion limit allows
_DECODER = json.JSONDecoder()
_PY_DECODER = json.JSONDecoder()
_PY_DECODER.scan_once = py_make_scanner(_PY_DECODER)


def _documents(text: str, decoder: json.JSONDecoder) -> list:
    """The documents of a stripped trace text: one JSON value (a list gives
    its items), else one per line not blank (of spaces and tabs only, as
    JSON's whitespace within a line). Lines break at ``\n``, ``\r\n`` and
    ``\r`` only: ``str.splitlines`` also breaks at characters, such as U+2028,
    that JSON allows raw inside a string. Line 1 is decoded once."""
    try:
        doc, end = decoder.raw_decode(text)
    except json.JSONDecodeError:
        doc, end = [], 0  # an empty text has no documents
    if end == len(text):
        return doc if isinstance(doc, list) else [doc]
    lines = [line for line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n") if line.strip(" \t")]
    # the first document is line 1's when nothing but blanks follows it there
    docs = [doc] if 0 < end <= len(lines[0]) and not lines[0][end:].strip(" \t") else []
    for line in lines[len(docs):]:
        if line.startswith("\ufeff"):  # json.loads's own check
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
        docs.append(decoder.decode(line))
    return docs


def load_trace_file(path, checked=()) -> list[ExecutionGraph]:
    """Read one trace JSON file, either a single call tree or JSON lines
    with one tree per line, and build the execution graph of each tree;
    ``checked`` is ``build_graph``'s."""
    text = read_input(path, TraceParseError)[0].strip(" \t\n\r")  # JSON's whitespace only
    try:
        try:
            docs = _documents(text, _DECODER)
        except RecursionError as exc:
            # deeper than the C scanner goes at this limit: the pure-Python
            # scanner spends two Python frames per JSON level, and a call frame
            # is two levels (the object and its children list)
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(limit + 4 * (MAX_CALL_DEPTH + 1) + 1)
            try:
                docs = _documents(text, _PY_DECODER)
            except RecursionError:
                raise exc from None  # the C scanner's error
            finally:
                sys.setrecursionlimit(limit)
    except (json.JSONDecodeError, RecursionError) as exc:  # not JSON (lines), or nested too deeply
        raise TraceParseError(f"{path}: {exc}") from exc
    return [build_graph(d, f"{path}[{i}]", checked) for i, d in enumerate(docs)]
