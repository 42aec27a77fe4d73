"""Discrete-event simulation of a fast-finality sequencer.

Bots race to capture an AMM mispricing, renewed at each k * refresh below
the horizon, through a private mempool. The sequencer closes a block every
``block_time`` seconds and orders each batch, the arrivals of one block,
opportunity and batch window, first-come-first-served or by priority fee,
so an arrival at or after a refresh sees the fresh pool, even mid-block.
Positions count through the block. Reverts are deterministic: a
transaction fails when the pool has drifted past its minimum-out bound
(set from the fresh opportunity), never by coin flip, so larger and later
swaps fail more, endogenously.

The CEX leg is pre-committed at a fixed price and always settles, so a
reverted AMM leg strands inventory at the liquidation penalty. Gas is a
flat per-attempt overhead.

``SimTx`` and ``TxOutcome`` are ``NamedTuple``s: the hot loop builds one of
each per transaction, and a tuple costs a fraction of a frozen dataclass. It
builds them with ``tuple.__new__``, without the Python frame of the
generated ``__new__``, so nothing there checks a row's arity: the tests do.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, count, takewhile
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .amm_core import PoolState, apply_swap, swap_out
from .config import ConfigError, NoRootError, build, require

__all__ = [
    "ConfigError",
    "BotSpec",
    "SimConfig",
    "SimTx",
    "TxOutcome",
    "SimReport",
    "order_batch",
    "execute_tx",
    "run",
    "summarize",
]

STRATEGIES = ("single_shot", "split_n", "duplicate_k", "split_and_duplicate")
ORDERINGS = ("fcfs", "pfa_within_batch")
MAX_TXS = 10**6  # the most transactions a scenario may send, counted before any is built (about 320 MiB to run)


@dataclass(frozen=True)
class BotSpec:
    name: str
    strategy: str
    trade_size: float
    n_chunks: int = 1
    k_copies: int = 1
    priority_fee: float = 0.0
    latency_mean: float = 0.0
    latency_jitter: float = 0.0
    slippage_tolerance: float = 0.0

    def __post_init__(self):
        require(self.strategy in STRATEGIES, "strategy", f"must be one of {STRATEGIES}")
        require(0 < self.trade_size < math.inf, "trade_size", "must be positive and finite")
        require(self.n_chunks >= 1, "n_chunks", "must be >= 1")
        require(self.k_copies >= 1, "k_copies", "must be >= 1")
        require(0 <= self.priority_fee < math.inf, "priority_fee", "must be nonnegative and finite")
        require(0 <= self.latency_mean < math.inf, "latency_mean", "must be nonnegative and finite")
        require(0 <= self.latency_jitter < math.inf, "latency_jitter", "must be nonnegative and finite")
        require(0 <= self.slippage_tolerance < 1, "slippage_tolerance", "must be in [0, 1)")

    def shape(self) -> tuple[int, int]:
        """The chunks n and copies k that the strategy uses: it sends n * k transactions per opportunity."""
        n = self.n_chunks if self.strategy in ("split_n", "split_and_duplicate") else 1
        k = self.k_copies if self.strategy in ("duplicate_k", "split_and_duplicate") else 1
        return n, k


@dataclass(frozen=True)
class SimConfig:
    block_time: float
    pool: PoolState
    cex_price: float
    horizon: float
    bots: tuple[BotSpec, ...]
    seed: int = 0
    ordering: str = "fcfs"
    batch_window: float | None = None  # None -> block_time
    opportunity_refresh: float | None = None  # None -> horizon (single opportunity)
    gas_overhead: float = 0.0
    liquidation_penalty: float = 0.0

    def __post_init__(self):
        require(self.block_time > 0, "block_time", "must be positive")
        require(self.block_time <= self.horizon < math.inf, "horizon", "must be finite and >= block_time")
        require(len(self.bots) >= 1, "bots", "need at least one bot")
        first = {}  # each bot's profit and report rows are keyed by its name
        for i, bot in enumerate(self.bots):
            require(first.setdefault(bot.name, i) == i, f"bots[{i}].name", f"duplicates bots[{first[bot.name]}]")
        require(self.ordering in ORDERINGS, "ordering", f"must be one of {ORDERINGS}")
        require(0 < self.cex_price < math.inf, "cex_price", "must be positive and finite")
        require(self.seed >= 0, "seed", "must be a nonnegative integer")
        if self.batch_window is not None:
            require(self.batch_window >= 0, "batch_window", "must be nonnegative")
        if self.opportunity_refresh is not None:
            require(0 < self.opportunity_refresh < math.inf, "opportunity_refresh", "must be positive and finite")
        require(0 <= self.gas_overhead < math.inf, "gas_overhead", "must be nonnegative and finite")
        require(0 <= self.liquidation_penalty < math.inf, "liquidation_penalty", "must be nonnegative and finite")
        refresh = self.horizon if self.opportunity_refresh is None else self.opportunity_refresh
        require(self.horizon / refresh <= MAX_TXS, "opportunity_refresh", f"gives more than MAX_TXS = {MAX_TXS} opportunities")
        opportunities = math.floor(self.horizon / refresh) + 1  # at least the k >= 0 with k * refresh < horizon
        per_opportunity = sum(n * k for n, k in map(BotSpec.shape, self.bots))
        txs = opportunities * per_opportunity
        require(txs <= MAX_TXS, "bots", f"may send {txs} transactions ({opportunities} opportunities × {per_opportunity} "
                f"per opportunity), more than MAX_TXS = {MAX_TXS}")

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        """Build from a parsed scenario config; bot ``i``'s name defaults to ``bot{i}``."""
        if isinstance(d, dict) and isinstance(d.get("bots"), list):
            bots = [{"name": f"bot{i}", **b} if isinstance(b, dict) else b for i, b in enumerate(d["bots"])]
            d = {**d, "bots": bots}
        return build(cls, d)


class SimTx(NamedTuple):
    bot_id: int
    arrival_time: float
    size: float
    priority_fee: float
    submission_seq: int
    min_out: float


class TxOutcome(NamedTuple):
    bot_id: int
    bot_name: str
    submission_seq: int
    block_number: int
    position: int
    status: str  # "success" | "reverted"
    size: float
    priority_fee: float
    arrival_time: float
    payout: float
    profit: float


_OUTCOME_FIELDS = TxOutcome._fields
# the fields that one bot's order's rows share but for their status,
# and the sorted rest, which each report row fills in
_KEY_FIELDS = ("bot_id", "bot_name", "priority_fee", "size", "status")
_ROW_KEY = attrgetter(*_KEY_FIELDS)
_ROW_VALUES = attrgetter(*sorted(set(_OUTCOME_FIELDS) - set(_KEY_FIELDS)))
_PIECE_ROWS = 1024  # rows per piece of SimReport.json_pieces


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _row_template(key: tuple) -> str:
    """``%``-template of the report rows with this ``_ROW_KEY``: the keys in
    sorted order, the key's fields encoded by ``json.dumps``, a ``%r`` for
    each other field."""
    encoded = {f: _dumps(v).replace("%", "%%") for f, v in zip(_KEY_FIELDS, key)}
    return "{%s}" % ",".join(f'"{f}":{encoded.get(f, "%r")}' for f in sorted(_OUTCOME_FIELDS))


@dataclass(frozen=True)
class SimReport:
    seed: int
    num_blocks: int
    outcomes: tuple[TxOutcome, ...]
    per_bot_profit: dict[str, float]

    def to_json(self, start: int = 0, stop: int | None = None) -> str:
        """The report as ``json.dumps(..., sort_keys=True)`` writes it, compact; with ``start`` and
        ``stop``, the part of it for the rows ``outcomes[start:stop]``, so that consecutive ranges join
        into the whole: the opening if ``start`` is 0 (else the comma before its rows), the closing at the end.

        The templates of the rows' ``_ROW_KEY``s, joined, are filled with
        every row's other fields in one ``%``. Rows whose key fields compare
        equal, as all rows of one bot's order and status in ``run`` do,
        share a template, so 0.0 and -0.0, or 1 and 1.0, are written as
        the first row of the range has them (``run`` never mixes them within an order).
        ``%r`` writes an int or a finite float as ``json.dumps`` does. A value
        field of another type (a bool or a numpy value), or value fields whose
        sum is not a finite ``float`` (an infinite or NaN value, or an int
        beyond the float range), send every row of the range through ``json.dumps``."""
        outcomes = self.outcomes[start:stop]
        keys = list(map(_ROW_KEY, outcomes))
        values = tuple(chain.from_iterable(map(_ROW_VALUES, outcomes)))
        numbers = {*map(type, values)} <= {int, float}  # no bool, no numpy value
        try:
            total = sum(values) if numbers else None
        except OverflowError:  # an int beyond the float range
            total = None
        if type(total) is float and math.isfinite(total):
            templates = {key: _row_template(key) for key in set(keys)}
            rows = ",".join(map(templates.__getitem__, keys)) % values  # every row in one fill
        else:
            rows = ",".join(_dumps(o._asdict()) for o in outcomes)
        head = '{"num_blocks":%s,"outcomes":[' % _dumps(self.num_blocks) if start == 0 else ","
        last = stop is None or stop >= len(self.outcomes)
        tail = '],"per_bot_profit":%s,"seed":%s}' % (_dumps(self.per_bot_profit), _dumps(self.seed)) if last else ""
        return "".join((head, rows, tail))

    def json_pieces(self):
        """``to_json()`` in pieces of ``_PIECE_ROWS`` rows, each encoded once asked for: ``report.json`` streams them."""
        for start in range(0, len(self.outcomes) or 1, _PIECE_ROWS):
            yield self.to_json(start, start + _PIECE_ROWS)


def order_batch(txs: list[SimTx], policy: str) -> list[SimTx]:
    """Order one batch: FCFS by (arrival, submission seq); the priority-fee
    auction sorts by descending fee with arrival then seq as tie-breaks."""
    if policy == "fcfs":
        return sorted(txs, key=attrgetter("arrival_time", "submission_seq"))
    if policy == "pfa_within_batch":
        return sorted(txs, key=lambda t: (-t.priority_fee, t.arrival_time, t.submission_seq))
    raise ConfigError(f"ordering: unknown policy {policy!r}")


def execute_tx(pool: PoolState, tx: SimTx) -> tuple[bool, float, PoolState]:
    """Try one swap against the current pool.

    Succeeds iff the realized output meets the transaction's minimum-out
    bound; success drifts the reserves, a revert leaves them untouched.
    Returns (success, payout, new pool).
    """
    dy = swap_out(pool, tx.size)
    if dy >= tx.min_out:
        return True, dy, apply_swap(pool, tx.size)
    return False, 0.0, pool


def _opportunity_times(config: SimConfig) -> list[float]:
    """Start of every opportunity: k * refresh for each k with k * refresh < horizon."""
    refresh = config.horizon if config.opportunity_refresh is None else config.opportunity_refresh
    return list(takewhile(lambda t: t < config.horizon, (k * refresh for k in count())))


def _generate_txs(config: SimConfig, opportunities: list[float], rng: np.random.Generator) -> list[SimTx]:
    # a bot sends one order, n * k copies of trade_size / n, and every
    # opportunity starts from the fresh pool, so each bot's order is quoted once
    # (bot_id, latency_mean, jittered, size, priority_fee, min_out) in submission order within an opportunity
    orders = []
    for bot_id, bot in enumerate(config.bots):
        n, k = bot.shape()
        size = bot.trade_size / n
        # bot demands at least the fresh-pool quote net of its slippage
        # tolerance, and never less than CEX break-even
        min_out = max(swap_out(config.pool, size) * (1.0 - bot.slippage_tolerance), size * config.cex_price)
        orders += [(bot_id, bot.latency_mean, bot.latency_jitter > 0, size, bot.priority_fee, min_out)] * (n * k)

    # exponential jitter: nonnegative, no pile-up at zero. One draw per
    # jittered transaction in submission order, all in one call: the same
    # values as one scalar draw per transaction
    scales = [config.bots[bot_id].latency_jitter for bot_id, _, jittered, *_ in orders if jittered]
    draws = iter(rng.exponential(scales * len(opportunities)).tolist())
    txs: list[SimTx] = []
    for t_k in opportunities:
        for bot_id, latency, jittered, size, fee, min_out in orders:
            arrival = t_k + (latency + next(draws) if jittered else latency)
            txs.append(tuple.__new__(SimTx, (bot_id, arrival, size, fee, len(txs), min_out)))
    return txs


def run(config: SimConfig) -> SimReport:
    """Run one simulation; deterministic given the config (incl. seed).

    Every submitted transaction is included exactly once in some block (the
    sequencer never drops) and marked success or reverted.
    """
    opportunities = _opportunity_times(config)
    txs = _generate_txs(config, opportunities, np.random.default_rng(config.seed))

    bt = config.block_time
    bw = bt if config.batch_window is None else config.batch_window
    policy = "fcfs" if bw <= 0 else config.ordering
    batches: dict[tuple[int, int, int], list[SimTx]] = defaultdict(list)
    try:
        for tx in txs:
            t = tx.arrival_time
            block = int(t // bt) + 1
            window = int((t - (block - 1) * bt) // bw) if bw > 0 else 0
            batches[block, bisect_right(opportunities, t), window].append(tx)
    except (OverflowError, ValueError):  # int() of an infinite or NaN block or window number
        raise NoRootError(f"arrival time {t} has no block: the simulator's arithmetic has left the float range")
    del txs  # the batches hold each transaction until its batch has run

    cex, gas, penalty = config.cex_price, config.gas_overhead, config.liquidation_penalty
    names = [bot.name for bot in config.bots]
    outcomes: list[TxOutcome] = []
    per_bot = dict.fromkeys(names, 0.0)
    pool, block, opp = config.pool, 0, 0
    for key in sorted(batches):
        batch = batches.pop(key)
        if key[0] != block:
            block, position = key[0], 0
        if key[1] != opp:
            # the batch opens a new opportunity: the pool is fresh again
            opp, pool = key[1], config.pool
        for tx in order_batch(batch, policy):
            success, payout, pool = execute_tx(pool, tx)
            bot_id, arrival, size, fee, seq, _ = tx
            if success:
                status, profit = "success", payout - cex * size - gas
            else:
                status, profit = "reverted", -cex * size - penalty - gas
            name = names[bot_id]
            per_bot[name] += profit
            row = (bot_id, name, seq, block, position, status, size, fee, arrival, payout, profit)
            outcomes.append(tuple.__new__(TxOutcome, row))
            position += 1
    for name, total in per_bot.items():  # a non-finite profit makes its bot's total non-finite
        if not math.isfinite(total):
            raise NoRootError(
                f"bot {name!r} has a total profit of {total}: the simulator's arithmetic has left the float range"
            )

    return SimReport(
        seed=config.seed,
        num_blocks=block,
        outcomes=tuple(outcomes),
        per_bot_profit=per_bot,
    )


def summarize(report: SimReport) -> dict:
    """Aggregate metrics: revert rate, revert position histogram, per-bot
    profit, and the priority-fee vs all revert-rate differential."""
    total = len(report.outcomes)
    reverts = [o for o in report.outcomes if o.status == "reverted"]
    histogram = Counter([o.position for o in reverts])
    pf = [o for o in report.outcomes if o.priority_fee > 0]
    pf_reverts = sum(1 for o in pf if o.status == "reverted")
    revert_rate = len(reverts) / total if total else 0.0
    pf_rate = pf_reverts / len(pf) if pf else None
    return {
        "total_txs": total,
        "successes": total - len(reverts),
        "reverts": len(reverts),
        "revert_rate": revert_rate,
        "revert_position_histogram": dict(sorted(histogram.items())),
        "per_bot_profit": dict(report.per_bot_profit),
        "priority_revert_rate": pf_rate,
        "priority_revert_differential": (pf_rate - revert_rate) if pf_rate is not None else None,
    }
