"""Execution-graph construction and swap classification for reverted
transactions.

Reverted transactions emit no event logs, so classification works purely
on the call tree. ``build_graph`` validates a decoded tree while it
collects the graph of addresses and call edges, rejecting inexact
addresses and calls more than ``MAX_CALL_DEPTH`` deep; ``load_trace_file``
returns one graph per tree in a file. ``classify_swap`` matches nodes
against a per-chain label library. v2/v3 swaps are recognized by a call
into a labeled pool; v4 routes everything through a single pool manager,
so recognition additionally requires call/staticcall probes into at least
two distinct labeled token contracts. The classifier never reports a swap
without pool or pool-manager evidence, so swap shares are lower bounds by
construction.
"""

from __future__ import annotations

import csv
import json
import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from json.scanner import py_make_scanner
from typing import NamedTuple

from .fee_accounting import SchemaError, TxRecord, open_csv

__all__ = [
    "ExecutionGraph",
    "LabelEntry",
    "LabelLibrary",
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

_ADDR_RE = re.compile(r"0x[0-9a-f]{40}")  # applied with fullmatch
MAX_CALL_DEPTH = 1024

LABEL_HEADER = ["address", "kind", "dex", "pair", "fee_tier", "owner_label", "has_code"]


class TraceParseError(ValueError):
    """Malformed trace frame; message carries the path to the bad frame."""


def _path(where) -> str:
    """A frame's path, from its ``(parent's where, child index)`` links."""
    steps = []
    while type(where) is tuple:
        where, i = where
        steps.append(f".children[{i}]")
    return where + "".join(reversed(steps))


def _norm_address(addr, where, memo: dict) -> str:
    a = str(addr).lower()
    if not _ADDR_RE.fullmatch(a):
        raise TraceParseError(f"{_path(where)}: bad address {addr!r}")
    memo[addr] = a
    return a


class Edge(NamedTuple):
    caller: str
    callee: str
    selector: str | None
    call_kind: str


@dataclass(frozen=True)
class ExecutionGraph:
    """Addresses and call edges of one transaction, edges in trace
    pre-order (a multiset: duplicate calls are kept)."""

    nodes: frozenset[str]
    edges: tuple[Edge, ...]
    root: str


def build_graph(tree: dict, path: str = "root") -> ExecutionGraph:
    """Validate a decoded call tree and collect its graph, in one pre-order
    pass that checks each distinct address string once."""
    memo: dict[str, str] = {}  # raw address -> its checked lowercase form
    edges: list[Edge] = []
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
            addr = d["from_address"]
            caller = memo.get(addr) or _norm_address(addr, where, memo)
            addr = d["to_address"]
            callee = memo.get(addr) or _norm_address(addr, where, memo)
        except KeyError as exc:
            raise TraceParseError(f"{_path(where)}: missing field {exc}") from exc
        except TypeError:  # an unhashable JSON array or object
            raise TraceParseError(f"{_path(where)}: bad address {addr!r}") from None
        if parent_depth is not None and depth != parent_depth + 1:
            raise TraceParseError(f"{_path(where)}: depth {depth} != parent depth + 1")
        if level > MAX_CALL_DEPTH:
            raise TraceParseError(f"{_path(where)}: call depth {level} exceeds the EVM's {MAX_CALL_DEPTH}")
        selector = d.get("selector")
        edges.append(Edge(caller, callee, str(selector).lower() if selector else None, kind))
        if children:
            level += 1
            for i in range(len(children) - 1, -1, -1):  # pushed last-first, so popped in order
                stack.append((children[i], (where, i), depth, level))
    return ExecutionGraph(nodes=frozenset(memo.values()), edges=tuple(edges), root=edges[0].callee)


@dataclass(frozen=True)
class LabelEntry:
    address: str
    kind: str  # router | pool_v2 | pool_v3 | pool_manager_v4 | token | other
    dex: str = ""
    pair: str = ""  # token pair for pools; token symbol for token entries
    fee_tier: str = ""
    owner_label: str = ""
    has_code: bool = False


@dataclass
class LabelLibrary:
    entries: dict[str, LabelEntry] = field(default_factory=dict)

    def get(self, address: str) -> LabelEntry | None:
        return self.entries.get(address.lower())

    def add(self, entry: LabelEntry):
        self.entries[entry.address.lower()] = entry


def read_labels_csv(path, raw: bytes | None = None) -> LabelLibrary:
    """The labels of a ``LABEL_HEADER`` CSV file (``raw``: its bytes, if read)."""
    lib = LabelLibrary()
    with open_csv(path, raw) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != LABEL_HEADER:
            raise SchemaError(f"{path}: expected header {LABEL_HEADER}, got {reader.fieldnames}")
        for i, row in enumerate(reader, start=2):
            addr = row["address"].lower()
            if not _ADDR_RE.fullmatch(addr):
                raise SchemaError(f"{path} line {i}: bad address {row['address']!r}")
            lib.add(
                LabelEntry(
                    address=addr,
                    kind=row["kind"],
                    dex=row["dex"],
                    pair=row["pair"],
                    fee_tier=row["fee_tier"],
                    owner_label=row["owner_label"],
                    has_code=row["has_code"].strip().lower() in ("1", "true", "yes"),
                )
            )
    return lib


@dataclass(frozen=True)
class SwapClassification:
    is_swap: bool
    dex: str | None = None
    pool: str | None = None
    pair: str | None = None
    evidence: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "is_swap": self.is_swap,
            "dex": self.dex,
            "pool": self.pool,
            "pair": self.pair,
            "evidence": list(self.evidence),
        }


def classify_swap(graph: ExecutionGraph, labels: LabelLibrary) -> SwapClassification:
    """Decide whether the transaction is a DEX swap and attribute it.

    v2/v3: any call edge into a labeled pool; multiple pool touches are
    attributed to the first in edge order, with every match retained in
    evidence. v4: a touch of the pool manager plus call/staticcall probes
    into at least two distinct labeled tokens (the pair is those tokens).
    """
    pool_hits: list[tuple[int, LabelEntry]] = []
    manager_hits: list[tuple[int, LabelEntry]] = []
    token_hits: dict[str, int] = {}

    entries = labels.entries  # graph addresses are lowercase already
    for i, edge in enumerate(graph.edges):
        entry = entries.get(edge.callee)
        if entry is None:
            continue
        if entry.kind in POOL_KINDS and edge.call_kind == "call":
            pool_hits.append((i, entry))
        elif entry.kind == "pool_manager_v4":
            manager_hits.append((i, entry))
        elif entry.kind == "token" and edge.call_kind in ("call", "staticcall"):
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
        symbols = sorted(labels.get(a).pair or a for a in token_hits)
        evidence = [f"edge {mi}: call to v4 pool manager {manager.address} ({manager.dex})"]
        evidence += [
            f"edge {i}: token probe {a} ({labels.get(a).pair})"
            for a, i in sorted(token_hits.items(), key=lambda kv: kv[1])
        ]
        return SwapClassification(
            is_swap=True,
            dex=f"{manager.dex}_v4",
            pool=manager.address,
            pair="-".join(symbols[:2]) if len(symbols) == 2 else "-".join(symbols),
            evidence=tuple(evidence),
        )

    return SwapClassification(is_swap=False)


def identify_bots(
    records: list[TxRecord], labels: LabelLibrary, min_count: int
) -> set[str]:
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


def breakdown(
    classified: list[tuple[SwapClassification, TxRecord]], k: int
) -> dict[str, list[tuple[str, int, float]]]:
    """Top-k (value, count, share) tables over the reverted-swap subset for
    target DEX, token pair, and transaction sender. Ties break
    lexicographically."""
    if k < 1:
        raise ValueError("k must be >= 1")
    swaps = [(c, r) for c, r in classified if c.is_swap]
    total = len(swaps)
    tables: dict[str, list[tuple[str, int, float]]] = {}
    for name, key in (
        ("dex", lambda c, r: c.dex),
        ("pair", lambda c, r: c.pair),
        ("sender", lambda c, r: r.from_address),
    ):
        counts = Counter(key(c, r) for c, r in swaps)
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
        tables[name] = [(v, n, n / total) for v, n in ranked] if total else []
    return tables


# from Python 3.12 only the pure-Python scanner nests as deep as the recursion limit allows
_DECODER = json.JSONDecoder()  # the C scanner
_PY_DECODER = json.JSONDecoder()
_PY_DECODER.scan_once = py_make_scanner(_PY_DECODER)


def _documents(text: str, decoder: json.JSONDecoder) -> list:
    """The documents of a stripped trace text: one JSON value (a list gives
    its items), else one per nonblank line. Line 1 is decoded once."""
    try:
        doc, end = decoder.raw_decode(text)
    except json.JSONDecodeError:
        doc, end = [], 0  # an empty text has no documents
    if end == len(text):
        return doc if isinstance(doc, list) else [doc]
    lines = [line for line in text.splitlines() if line.strip()]
    # the first document is line 1's when nothing but blanks follows it there
    docs = [doc] if 0 < end <= len(lines[0]) and not lines[0][end:].strip(" \t") else []
    for line in lines[len(docs):]:
        if line.startswith("\ufeff"):  # json.loads's own check
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
        docs.append(decoder.decode(line))
    return docs


def load_trace_file(path) -> list[ExecutionGraph]:
    """Read one trace JSON file, either a single call tree or JSON lines
    with one tree per line, and build the execution graph of each tree."""
    limit = sys.getrecursionlimit()
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8").strip()
        # the C decoder recurses once per JSON level: two per frame (the
        # object and its children list), plus one for a JSON-lines or array wrapper
        sys.setrecursionlimit(limit + 2 * (MAX_CALL_DEPTH + 1) + 1)
        try:
            docs = _documents(text, _DECODER)
        except RecursionError as exc:
            # the pure-Python scanner spends two frames per JSON level
            sys.setrecursionlimit(limit + 4 * (MAX_CALL_DEPTH + 1) + 1)
            try:
                docs = _documents(text, _PY_DECODER)
            except RecursionError:
                raise exc from None
    # not UTF-8, not JSON (lines), or nested too deeply
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise TraceParseError(f"{path}: {exc}") from exc
    finally:
        sys.setrecursionlimit(limit)
    return [build_graph(d, f"{path}[{i}]") for i, d in enumerate(docs)]
