"""Gas-fee decomposition and aggregate revert statistics.

All fee arithmetic stays in integer wei; floats appear only in reported
ratios and fee quantiles. Records are read from a CSV file whose header is
``TxRecord``'s fields, by the reader that also reads the trace pipeline's
label CSV.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
import re
from collections import Counter
from dataclasses import dataclass, fields

from .config import SchemaError, _fields

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
    "TX_RECORD_HEADER",
]

STATUSES = ("success", "reverted")
_UINT256 = 2**256  # every integer field of a record, an EVM quantity, is below it
_ADDR_RE = re.compile(r"0x[0-9a-f]{40}")  # applied with fullmatch, to a lowercased address


def _address(value, name: str) -> str:
    """``str(value)`` lowercased, checked as an address: ``0x`` and 40 hex digits, either case."""
    address = str(value).lower()
    if not _ADDR_RE.fullmatch(address):
        raise SchemaError(f"bad {name} {value!r}")
    return address


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
            value = getattr(self, name)
            if not 0 <= value < _UINT256:  # the bound also keeps every fee quantile a finite float
                raise SchemaError(f"{name} must be nonnegative" if value < 0 else f"{name} must be below 2**256")
        for name in ("from_address", "to_address"):
            object.__setattr__(self, name, _address(getattr(self, name), name))

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


def revert_stats(records: list[TxRecord]) -> tuple[dict, dict]:
    """Revert rate per (chain, day) over all transactions, and over those that pay
    a priority fee (a day where none pays one is left out of the second table)."""
    totals: Counter = Counter()
    reverts: Counter = Counter()
    pf_totals: Counter = Counter()
    pf_reverts: Counter = Counter()
    for r in records:
        key = (r.chain, r.day)
        totals[key] += 1
        reverts[key] += r.reverted
        if r.priority_fee_per_gas > 0:
            pf_totals[key] += 1
            pf_reverts[key] += r.reverted
    return (
        {key: reverts[key] / totals[key] for key in sorted(totals)},
        {key: pf_reverts[key] / pf_totals[key] for key in sorted(pf_totals)},
    )


def revert_differential(all_rates: dict, pf_rates: dict) -> dict[tuple[str, dt.date], float]:
    """Priority-subset minus all-transaction revert rate per (chain, day), from the
    two ``revert_stats`` tables; days without any priority transactions are omitted."""
    return {key: pf_rates[key] - all_rates[key] for key in pf_rates}


def position_histogram(records: list[TxRecord]) -> dict[int, int]:
    """Counts of in-block position (tx_index) of reverted transactions."""
    return dict(sorted(Counter(r.tx_index for r in records if r.reverted).items()))


def priority_fee_distribution(records: list[TxRecord]) -> dict:
    """Priority-fee-per-gas profile of reverted transactions: share paying
    zero, share paying exactly 1 wei, and the quartiles, 0.9 and 0.99
    quantiles. The quantiles are float64, not integer wei: above 2**53 wei
    they round."""
    fees = sorted(r.priority_fee_per_gas for r in records if r.reverted)
    if not fees:
        return {"count": 0, "zero_fee_share": 0.0, "one_wei_share": 0.0, "quantiles": {}}
    return {
        "count": len(fees),
        "zero_fee_share": fees.count(0) / len(fees),
        "one_wei_share": fees.count(1) / len(fees),
        "quantiles": {q: _quantile(fees, q) for q in (0.25, 0.5, 0.75, 0.9, 0.99)},
    }


def _quantile(xs: list[int], q: float) -> float:
    """``np.quantile(xs, q)`` of sorted ints, bit for bit: numpy's linear rule, which
    interpolates down from the upper neighbour when t >= 0.5."""
    vi = (len(xs) - 1) * q
    lo = math.floor(vi)
    a, b, t = xs[lo], xs[min(lo + 1, len(xs) - 1)], vi - lo
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


# the parser of each CSV cell whose field is not a str
_PARSE = {int: int, dt.date: dt.date.fromisoformat, bool: lambda cell: cell.strip().lower() in ("1", "true", "yes")}


def _csv_records(path, text: str, cls) -> list:
    """The ``cls`` of each row of ``text``, the decoded content of the CSV file at
    ``path`` whose header is ``cls``'s fields. Errors name the path and the line,
    numbered as ``csv.DictReader`` numbers them (blank rows are not counted)."""
    spec = _fields(cls)
    header = list(spec)
    parsers = [(i, _PARSE[tp]) for i, (tp, _) in enumerate(spec.values()) if tp is not str]
    reader = csv.reader(io.StringIO(text, newline=""))
    items = []
    try:
        got = next(reader, None)
        if got != header:
            raise SchemaError(f"{path}: expected header {header}, got {got}")
        for line_no, row in enumerate(filter(None, reader), start=2):
            if len(row) != len(header):
                raise SchemaError(f"{path} line {line_no}: expected {len(header)} cells")
            try:
                for i, parse in parsers:  # in place: cheaper than a new list of cells
                    row[i] = parse(row[i])
                items.append(cls(*row))
            except ValueError as exc:  # a bad cell, or a check of cls (SchemaError)
                raise SchemaError(f"{path} line {line_no}: {exc}") from exc
    except csv.Error as exc:  # a cell over csv's field size limit (on Python 3.10, also a NUL)
        raise SchemaError(f"{path} line {reader.line_num}: {exc}") from exc
    return items


def read_records_csv(path, text: str) -> list[TxRecord]:
    """The records of ``text``, the decoded content of the ``TX_RECORD_HEADER``
    CSV file at ``path``; errors name the path and the line."""
    return _csv_records(path, text, TxRecord)
