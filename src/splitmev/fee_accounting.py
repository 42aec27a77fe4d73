"""Aggregate revert statistics of transaction records.

Fee fields stay integer wei; floats appear only in reported ratios and fee
quantiles. Records are read from a CSV file whose header is ``TxRecord``'s
fields, by ``config.read_rows``, which also reads the trace pipeline's
label CSV.
"""

from __future__ import annotations

import datetime as dt
import math
from collections import Counter
from dataclasses import dataclass, fields

from .config import SchemaError, check_address, read_rows

__all__ = [
    "TxRecord",
    "SchemaError",
    "revert_stats",
    "revert_differential",
    "position_histogram",
    "priority_fee_distribution",
    "read_records_csv",
    "TX_RECORD_HEADER",
]

STATUSES = ("success", "reverted")
_UINT256 = 2**256  # every integer field of a record, an EVM quantity, is below it


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
            object.__setattr__(self, name, check_address(getattr(self, name), name))

    @property
    def reverted(self) -> bool:
        return self.status == "reverted"


TX_RECORD_HEADER = [f.name for f in fields(TxRecord)]


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


def read_records_csv(path, text: str) -> list[TxRecord]:
    """The records of ``text``, the decoded content of the ``TX_RECORD_HEADER``
    CSV file at ``path``; errors name the path and the line."""
    return read_rows(path, text, TxRecord)
