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
each per transaction, and a tuple costs a fraction of a frozen dataclass.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import chain, count, takewhile
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .amm_core import PoolState, apply_swap, swap_out
from .config import ConfigError, build, require

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
    "fee_rank_correlation",
]

STRATEGIES = ("single_shot", "split_n", "duplicate_k", "split_and_duplicate")
ORDERINGS = ("fcfs", "pfa_within_batch")


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

    def tx_sizes(self) -> list[float]:
        """Per-opportunity transaction sizes, chunk-major for duplicates."""
        if self.strategy == "single_shot":
            return [self.trade_size]
        if self.strategy == "split_n":
            return [self.trade_size / self.n_chunks] * self.n_chunks
        if self.strategy == "duplicate_k":
            return [self.trade_size] * self.k_copies
        chunk = self.trade_size / self.n_chunks
        return [chunk for _ in range(self.n_chunks) for _ in range(self.k_copies)]


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
        require(self.ordering in ORDERINGS, "ordering", f"must be one of {ORDERINGS}")
        require(0 < self.cex_price < math.inf, "cex_price", "must be positive and finite")
        require(self.seed >= 0, "seed", "must be a nonnegative integer")
        if self.batch_window is not None:
            require(self.batch_window >= 0, "batch_window", "must be nonnegative")
        if self.opportunity_refresh is not None:
            require(0 < self.opportunity_refresh < math.inf, "opportunity_refresh", "must be positive and finite")
        require(0 <= self.gas_overhead < math.inf, "gas_overhead", "must be nonnegative and finite")
        require(0 <= self.liquidation_penalty < math.inf, "liquidation_penalty", "must be nonnegative and finite")

    @property
    def effective_batch_window(self) -> float:
        return self.block_time if self.batch_window is None else self.batch_window

    @property
    def effective_refresh(self) -> float:
        return self.horizon if self.opportunity_refresh is None else self.opportunity_refresh

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        """Build from a parsed scenario config; bot ``i``'s name defaults to ``bot{i}``."""
        if isinstance(d, dict) and isinstance(d.get("bots"), list):
            bots = [{"name": f"bot{i}", **b} if isinstance(b, dict) else b for i, b in enumerate(d["bots"])]
            d = {**d, "bots": bots}
        return build(cls, d)


class SimTx(NamedTuple):
    bot_id: int
    submit_time: float
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
# what summarize reads, by index: cheaper per row than a NamedTuple attribute
_STATUS, _POSITION, _PRIORITY_FEE = map(_OUTCOME_FIELDS.index, ("status", "position", "priority_fee"))
# the fields that one (bot, size) order's rows share but for their status,
# and the sorted rest, which each report row fills in
_KEY_FIELDS = ("bot_id", "bot_name", "priority_fee", "size", "status")
_ROW_KEY = attrgetter(*_KEY_FIELDS)
_ROW_VALUES = attrgetter(*sorted(set(_OUTCOME_FIELDS) - set(_KEY_FIELDS)))


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

    def to_json(self) -> str:
        """The report as ``json.dumps(..., sort_keys=True)`` writes it, compact.

        Each row fills the template of its ``_ROW_KEY`` with its other
        fields; rows whose key fields compare equal share a template, as all
        rows of one of ``run``'s (bot, size) orders and status do. ``%r``
        writes an int or a finite float as ``json.dumps`` does. The sum of
        those fields is a finite ``float`` only if none of them is infinite,
        NaN or a numpy scalar; otherwise every row goes through
        ``json.dumps``."""
        keys = list(map(_ROW_KEY, self.outcomes))
        values = list(map(_ROW_VALUES, self.outcomes))
        if type(total := sum(chain.from_iterable(values))) is float and math.isfinite(total):
            templates = {key: _row_template(key) for key in set(keys)}
            rows = ",".join(map(str.__mod__, map(templates.__getitem__, keys), values))
        else:
            rows = ",".join(_dumps(o._asdict()) for o in self.outcomes)
        return '{"num_blocks":%s,"outcomes":[%s],"per_bot_profit":%s,"seed":%s}' % (
            _dumps(self.num_blocks), rows, _dumps(self.per_bot_profit), _dumps(self.seed)
        )


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
    refresh = config.effective_refresh
    return list(takewhile(lambda t: t < config.horizon, (k * refresh for k in count())))


def _generate_txs(config: SimConfig, opportunities: list[float], rng: np.random.Generator) -> list[SimTx]:
    # every opportunity starts from the fresh pool, so a bot's quote for a
    # size is the same each time: quote each distinct (bot, size) once
    orders = []  # (bot_id, bot, size, min_out) in submission order within an opportunity
    for bot_id, bot in enumerate(config.bots):
        # bot demands at least the fresh-pool quote net of its slippage
        # tolerance, and never less than CEX break-even
        min_out = {
            size: max(swap_out(config.pool, size) * (1.0 - bot.slippage_tolerance), size * config.cex_price)
            for size in dict.fromkeys(bot.tx_sizes())
        }
        orders += [(bot_id, bot, size, min_out[size]) for size in bot.tx_sizes()]

    # exponential jitter: nonnegative, no pile-up at zero. One draw per
    # jittered transaction in submission order, all in one call: the same
    # values as one scalar draw per transaction
    scales = [bot.latency_jitter for _, bot, _, _ in orders if bot.latency_jitter > 0]
    draws = iter(rng.exponential(scales * len(opportunities)).tolist())
    txs: list[SimTx] = []
    for t_k in opportunities:
        for bot_id, bot, size, min_out in orders:
            latency = bot.latency_mean + next(draws) if bot.latency_jitter > 0 else bot.latency_mean
            txs.append(SimTx(bot_id, t_k, t_k + latency, size, bot.priority_fee, len(txs), min_out))
    return txs


def run(config: SimConfig) -> SimReport:
    """Run one simulation; deterministic given the config (incl. seed).

    Every submitted transaction is included exactly once in some block (the
    sequencer never drops) and marked success or reverted.
    """
    opportunities = _opportunity_times(config)
    txs = _generate_txs(config, opportunities, np.random.default_rng(config.seed))

    bt = config.block_time
    bw = config.effective_batch_window
    policy = "fcfs" if bw <= 0 else config.ordering
    batches: dict[tuple[int, int, int], list[SimTx]] = {}
    for tx in txs:
        t = tx.arrival_time
        block = int(t // bt) + 1
        window = int((t - (block - 1) * bt) // bw) if bw > 0 else 0
        batches.setdefault((block, bisect_right(opportunities, t), window), []).append(tx)

    cex, gas, penalty = config.cex_price, config.gas_overhead, config.liquidation_penalty
    names = [bot.name for bot in config.bots]
    outcomes: list[TxOutcome] = []
    per_bot = dict.fromkeys(names, 0.0)
    pool, block, opp = config.pool, 0, 0
    for key, batch in sorted(batches.items()):
        if key[0] != block:
            block, position = key[0], 0
        if key[1] != opp:
            # the batch opens a new opportunity: the pool is fresh again
            opp, pool = key[1], config.pool
        for tx in order_batch(batch, policy):
            success, payout, pool = execute_tx(pool, tx)
            bot_id, _, arrival, size, fee, seq, _ = tx
            if success:
                status, profit = "success", payout - cex * size - gas
            else:
                status, profit = "reverted", -cex * size - penalty - gas
            name = names[bot_id]
            per_bot[name] += profit
            outcomes.append(TxOutcome(bot_id, name, seq, block, position, status, size, fee, arrival, payout, profit))
            position += 1

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
    reverts = [o for o in report.outcomes if o[_STATUS] == "reverted"]
    histogram = Counter([o[_POSITION] for o in reverts])
    pf = [o for o in report.outcomes if o[_PRIORITY_FEE] > 0]
    pf_reverts = sum(1 for o in pf if o[_STATUS] == "reverted")
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


def fee_rank_correlation(report: SimReport) -> float:
    """Pearson correlation between priority fee and global execution rank
    (0 = first executed). NaN when either side is constant."""
    fees = np.array([o.priority_fee for o in report.outcomes])
    ranks = np.arange(len(fees), dtype=float)
    if len(fees) < 2 or np.all(fees == fees[0]):
        return float("nan")
    return float(np.corrcoef(fees, ranks)[0, 1])
