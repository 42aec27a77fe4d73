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
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from itertools import count, takewhile
from operator import attrgetter

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
        require(self.trade_size > 0, "trade_size", "must be positive")
        require(self.n_chunks >= 1, "n_chunks", "must be >= 1")
        require(self.k_copies >= 1, "k_copies", "must be >= 1")
        require(self.priority_fee >= 0, "priority_fee", "must be nonnegative")
        require(self.latency_mean >= 0, "latency_mean", "must be nonnegative")
        require(self.latency_jitter >= 0, "latency_jitter", "must be nonnegative")
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
        require(self.cex_price > 0, "cex_price", "must be positive")
        require(self.seed >= 0, "seed", "must be a nonnegative integer")
        if self.batch_window is not None:
            require(self.batch_window >= 0, "batch_window", "must be nonnegative")
        if self.opportunity_refresh is not None:
            require(0 < self.opportunity_refresh < math.inf, "opportunity_refresh", "must be positive and finite")
        require(self.gas_overhead >= 0, "gas_overhead", "must be nonnegative")
        require(self.liquidation_penalty >= 0, "liquidation_penalty", "must be nonnegative")

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


@dataclass(frozen=True)
class SimTx:
    bot_id: int
    submit_time: float
    arrival_time: float
    size: float
    priority_fee: float
    submission_seq: int
    min_out: float


@dataclass(frozen=True)
class TxOutcome:
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


_OUTCOME_FIELDS = tuple(f.name for f in fields(TxOutcome))


@dataclass(frozen=True)
class SimReport:
    seed: int
    num_blocks: int
    outcomes: tuple[TxOutcome, ...]
    per_bot_profit: dict[str, float]

    def to_json(self) -> str:
        # the document asdict would give, without its deep copy
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        outcome = attrgetter(*_OUTCOME_FIELDS)
        doc["outcomes"] = [dict(zip(_OUTCOME_FIELDS, outcome(o))) for o in self.outcomes]
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def order_batch(txs: list[SimTx], policy: str) -> list[SimTx]:
    """Order one batch: FCFS by (arrival, submission seq); the priority-fee
    auction sorts by descending fee with arrival then seq as tie-breaks."""
    if policy == "fcfs":
        return sorted(txs, key=lambda t: (t.arrival_time, t.submission_seq))
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
    orders = []
    for bot in config.bots:
        # bot demands at least the fresh-pool quote net of its slippage
        # tolerance, and never less than CEX break-even
        min_out = {
            size: max(swap_out(config.pool, size) * (1.0 - bot.slippage_tolerance), size * config.cex_price)
            for size in dict.fromkeys(bot.tx_sizes())
        }
        orders.append([(size, min_out[size]) for size in bot.tx_sizes()])

    txs: list[SimTx] = []
    seq = 0
    for t_k in opportunities:
        for bot_id, bot in enumerate(config.bots):
            for size, min_out in orders[bot_id]:
                if bot.latency_jitter > 0:
                    # exponential jitter: nonnegative, no pile-up at zero
                    latency = bot.latency_mean + rng.exponential(bot.latency_jitter)
                else:
                    latency = bot.latency_mean
                txs.append(
                    SimTx(
                        bot_id=bot_id,
                        submit_time=t_k,
                        arrival_time=t_k + latency,
                        size=size,
                        priority_fee=bot.priority_fee,
                        submission_seq=seq,
                        min_out=min_out,
                    )
                )
                seq += 1
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

    outcomes: list[TxOutcome] = []
    per_bot = {bot.name: 0.0 for bot in config.bots}
    pool, block, opp = config.pool, 0, 0
    for key, batch in sorted(batches.items()):
        if key[0] != block:
            block, position = key[0], 0
        if key[1] != opp:
            # the batch opens a new opportunity: the pool is fresh again
            opp, pool = key[1], config.pool
        for tx in order_batch(batch, policy):
            success, payout, pool = execute_tx(pool, tx)
            if success:
                profit = payout - config.cex_price * tx.size - config.gas_overhead
            else:
                profit = (
                    -config.cex_price * tx.size
                    - config.liquidation_penalty
                    - config.gas_overhead
                )
            bot_name = config.bots[tx.bot_id].name
            per_bot[bot_name] += profit
            outcomes.append(
                TxOutcome(
                    bot_id=tx.bot_id,
                    bot_name=bot_name,
                    submission_seq=tx.submission_seq,
                    block_number=block,
                    position=position,
                    status="success" if success else "reverted",
                    size=tx.size,
                    priority_fee=tx.priority_fee,
                    arrival_time=tx.arrival_time,
                    payout=payout,
                    profit=profit,
                )
            )
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
    reverts = [o for o in report.outcomes if o.status == "reverted"]
    histogram: dict[int, int] = {}
    for o in reverts:
        histogram[o.position] = histogram.get(o.position, 0) + 1
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


def fee_rank_correlation(report: SimReport) -> float:
    """Pearson correlation between priority fee and global execution rank
    (0 = first executed). NaN when either side is constant."""
    fees = np.array([o.priority_fee for o in report.outcomes])
    ranks = np.arange(len(fees), dtype=float)
    if len(fees) < 2 or np.all(fees == fees[0]):
        return float("nan")
    return float(np.corrcoef(fees, ranks)[0, 1])
