"""Gas-fee decomposition and aggregate revert statistics.

All fee arithmetic stays in integer wei; floats appear only in reported
ratios and fee quantiles. Records round-trip through a fixed-header CSV so
they interchange cleanly with the trace pipeline and external exports.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
from collections import Counter
from dataclasses import dataclass, fields

import numpy as np

from .config import read_input

__all__ = [
    "TxRecord",
    "FeeBreakdown",
    "SchemaError",
    "decompose",
    "revert_stats",
    "revert_differential",
    "position_histogram",
    "priority_fee_distribution",
    "read_records_csv",
    "write_records_csv",
    "TX_RECORD_HEADER",
]

STATUSES = ("success", "reverted")


class SchemaError(ValueError):
    """Malformed record row or CSV header."""


@dataclass(frozen=True)
class TxRecord:
    tx_hash: str
    day: dt.date
    block_number: int
    tx_index: int
    status: str
    from_address: str
    to_address: str
    gas_price: int
    priority_fee_per_gas: int
    gas_used: int
    l1_fee: int
    chain: str

    def __post_init__(self):
        if self.status not in STATUSES:
            raise SchemaError(f"status must be one of {STATUSES}, got {self.status!r}")
        for name in ("block_number", "tx_index", "gas_price", "priority_fee_per_gas", "gas_used", "l1_fee"):
            if getattr(self, name) < 0:
                raise SchemaError(f"{name} must be nonnegative")
        object.__setattr__(self, "from_address", self.from_address.lower())
        object.__setattr__(self, "to_address", self.to_address.lower())

    @property
    def reverted(self) -> bool:
        return self.status == "reverted"


TX_RECORD_HEADER = [f.name for f in fields(TxRecord)]


@dataclass(frozen=True)
class FeeBreakdown:
    execution_fee: int
    priority_fee: int
    base_fee: int
    l1_fee: int
    total: int
    clamped: bool  # priority_fee_per_gas exceeded gas_price; base was floored at 0


def decompose(record: TxRecord) -> FeeBreakdown:
    """Split the total fee into base / priority / L1 components.

    execution = gas_price * gas_used; priority = priority_fee_per_gas *
    gas_used; base = max(gas_price - priority_fee_per_gas, 0) * gas_used.
    When the priority fee exceeds the gas price the base clamps to zero and
    base + priority no longer equals execution; that case is flagged.
    """
    execution = record.gas_price * record.gas_used
    priority = record.priority_fee_per_gas * record.gas_used
    base = max(record.gas_price - record.priority_fee_per_gas, 0) * record.gas_used
    return FeeBreakdown(
        execution_fee=execution,
        priority_fee=priority,
        base_fee=base,
        l1_fee=record.l1_fee,
        total=execution + record.l1_fee,
        clamped=record.priority_fee_per_gas > record.gas_price and record.gas_used > 0,
    )


def revert_stats(
    records: list[TxRecord],
    priority_only: bool = False,
    priority_threshold: int = 0,
) -> dict[tuple[str, dt.date], float]:
    """Revert rate per (chain, day).

    With priority_only, only transactions whose priority fee per gas
    exceeds ``priority_threshold`` are counted; days with an empty subset
    are omitted.
    """
    totals: Counter = Counter()
    reverts: Counter = Counter()
    for r in records:
        if priority_only and r.priority_fee_per_gas <= priority_threshold:
            continue
        key = (r.chain, r.day)
        totals[key] += 1
        if r.reverted:
            reverts[key] += 1
    return {key: reverts[key] / totals[key] for key in sorted(totals)}


def revert_differential(all_rates: dict, pf_rates: dict) -> dict[tuple[str, dt.date], float]:
    """Priority-subset minus all-transaction revert rate per (chain, day), from the
    two ``revert_stats`` tables; days without any priority transactions are omitted."""
    return {key: pf_rates[key] - all_rates[key] for key in pf_rates}


def position_histogram(records: list[TxRecord], status_filter: str | None = "reverted") -> dict[int, int]:
    """Counts of in-block position (tx_index) for records matching the
    status filter (None = all)."""
    counts: Counter = Counter(
        r.tx_index for r in records if status_filter is None or r.status == status_filter
    )
    return dict(sorted(counts.items()))


def priority_fee_distribution(
    records: list[TxRecord],
    quantiles: tuple[float, ...] = (0.25, 0.5, 0.75, 0.9, 0.99),
) -> dict:
    """Priority-fee-per-gas profile of reverted transactions: share paying
    zero, share paying exactly 1 wei, and the requested quantiles. The
    quantiles are float64, not integer wei: above 2**53 wei they round."""
    fees = [r.priority_fee_per_gas for r in records if r.reverted]
    if not fees:
        return {"count": 0, "zero_fee_share": 0.0, "one_wei_share": 0.0, "quantiles": {}}
    arr = np.asarray(fees)
    return {
        "count": len(fees),
        "zero_fee_share": float(np.mean(arr == 0)),
        "one_wei_share": float(np.mean(arr == 1)),
        "quantiles": {q: float(np.quantile(arr, q)) for q in quantiles},
    }


def read_records_csv(path, text: str | None = None) -> list[TxRecord]:
    """The records of a ``TX_RECORD_HEADER`` CSV file; ``text`` is its decoded
    content if the caller has read it, else the file at ``path`` is read as UTF-8."""
    if text is None:
        text = read_input(path, SchemaError)[0]
    n = len(TX_RECORD_HEADER)
    records = []
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header != TX_RECORD_HEADER:
        raise SchemaError(f"{path}: expected header {TX_RECORD_HEADER}, got {header}")
    # numbered as csv.DictReader numbers rows: blank ones are skipped, not counted
    for line_no, row in enumerate(filter(None, reader), start=2):
        if len(row) != n:
            raise SchemaError(f"line {line_no}: expected {n} cells")
        tx_hash, day, block, index, status, sender, to, price, tip, used, l1_fee, chain = row
        try:
            records.append(TxRecord(
                tx_hash, dt.date.fromisoformat(day), int(block), int(index), status, sender, to,
                int(price), int(tip), int(used), int(l1_fee), chain,
            ))
        except ValueError as exc:  # a bad cell, or a TxRecord check (SchemaError)
            raise SchemaError(f"line {line_no}: {exc}") from exc
    return records


def write_records_csv(path, records: list[TxRecord]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TX_RECORD_HEADER)
        for r in records:
            writer.writerow([getattr(r, f.name) if f.name != "day" else r.day.isoformat() for f in fields(r)])
