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

from .fee_accounting import SchemaError, TxRecord

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


def _norm_address(addr: str, path: str) -> str:
    a = str(addr).lower()
    if not _ADDR_RE.fullmatch(a):
        raise TraceParseError(f"{path}: bad address {addr!r}")
    return a


@dataclass(frozen=True)
class Edge:
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
    """Validate a decoded call tree and collect its graph, in one pre-order pass."""
    nodes: set[str] = set()
    edges: list[Edge] = []
    # (frame, its path, its parent's depth or None at the root, calls below the root)
    stack = [(tree, path, None, 0)]
    while stack:
        d, path, parent_depth, level = stack.pop()
        if not isinstance(d, dict):
            raise TraceParseError(f"{path}: expected a JSON object")
        kind = d.get("call_kind", "call")
        if kind not in CALL_KINDS:
            raise TraceParseError(f"{path}: unknown call_kind {kind!r}")
        depth = d.get("depth", 0)
        if type(depth) is not int:  # a JSON integer: not a string, float or bool
            raise TraceParseError(f"{path}: bad depth {depth!r}")
        if depth < 0:
            raise TraceParseError(f"{path}: negative depth")
        children = d.get("children", [])
        if not isinstance(children, list):
            raise TraceParseError(f"{path}: children must be a list, got {children!r}")
        try:
            caller = _norm_address(d["from_address"], path)
            callee = _norm_address(d["to_address"], path)
        except KeyError as exc:
            raise TraceParseError(f"{path}: missing field {exc}") from exc
        if parent_depth is not None and depth != parent_depth + 1:
            raise TraceParseError(f"{path}: depth {depth} != parent depth + 1")
        if level > MAX_CALL_DEPTH:
            raise TraceParseError(f"{path}: call depth {level} exceeds the EVM's {MAX_CALL_DEPTH}")
        nodes.update((caller, callee))
        selector = str(d["selector"]).lower() if d.get("selector") else None
        edges.append(Edge(caller, callee, selector, kind))
        for i in range(len(children) - 1, -1, -1):  # pushed last-first, so popped in order
            stack.append((children[i], f"{path}.children[{i}]", depth, level + 1))
    return ExecutionGraph(nodes=frozenset(nodes), edges=tuple(edges), root=edges[0].callee)


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


def read_labels_csv(path) -> LabelLibrary:
    lib = LabelLibrary()
    with open(path, newline="") as fh:
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

    for i, edge in enumerate(graph.edges):
        entry = labels.get(edge.callee)
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


def load_trace_file(path) -> list[ExecutionGraph]:
    """Read one trace JSON file, either a single call tree or JSON lines
    with one tree per line, and build the execution graph of each tree."""
    limit = sys.getrecursionlimit()
    # the C decoder recurses once per JSON level: two per frame (the object
    # and its children list), plus one for a JSON-lines or array wrapper
    sys.setrecursionlimit(limit + 2 * (MAX_CALL_DEPTH + 1) + 1)
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read().strip()
        try:
            doc = json.loads(text) if text else []
            docs = doc if isinstance(doc, list) else [doc]
        except json.JSONDecodeError:
            docs = [json.loads(line) for line in text.splitlines() if line.strip()]
    # not UTF-8, not JSON (lines), or nested too deeply
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise TraceParseError(f"{path}: {exc}") from exc
    finally:
        sys.setrecursionlimit(limit)
    return [build_graph(d, f"{path}[{i}]") for i, d in enumerate(docs)]
