import hashlib
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitmev import BotSpec, NoRootError, PoolState, SimConfig, order_batch, run, summarize, swap_out
from splitmev import sequencer_sim
from splitmev.sequencer_sim import (
    ORDERINGS,
    STRATEGIES,
    ConfigError,
    SimReport,
    SimTx,
    TxOutcome,
    _opportunity_times,
    execute_tx,
)

from conftest import fee_rank_correlation

POOL = PoolState(1000.0, 2000.0, 0.003)


def sim_tx(seq, arrival, fee=0.0, size=10.0, min_out=0.0, bot_id=0):
    return SimTx(
        bot_id=bot_id,
        arrival_time=arrival,
        size=size,
        priority_fee=fee,
        submission_seq=seq,
        min_out=min_out,
    )


def base_config(**overrides):
    cfg = dict(
        block_time=0.25,
        pool=POOL,
        cex_price=1.8,
        horizon=1.0,
        bots=(BotSpec(name="a", strategy="single_shot", trade_size=10.0, latency_mean=0.01),),
    )
    cfg.update(overrides)
    return SimConfig(**cfg)


def test_order_batch_pfa_sorts_by_fee():
    txs = [sim_tx(0, 0.1, fee=5), sim_tx(1, 0.2, fee=1), sim_tx(2, 0.3, fee=9)]
    assert [t.priority_fee for t in order_batch(txs, "pfa_within_batch")] == [9, 5, 1]


def test_order_batch_fcfs_ignores_fee():
    txs = [sim_tx(0, 0.2, fee=100), sim_tx(1, 0.1, fee=0)]
    assert [t.submission_seq for t in order_batch(txs, "fcfs")] == [1, 0]
    # arrival tie breaks on submission sequence
    txs = [sim_tx(3, 0.1), sim_tx(1, 0.1), sim_tx(2, 0.1)]
    assert [t.submission_seq for t in order_batch(txs, "fcfs")] == [1, 2, 3]
    with pytest.raises(ConfigError):
        order_batch(txs, "random")


def test_execute_tx_semantics():
    quoted = swap_out(POOL, 10.0)
    ok, payout, pool2 = execute_tx(POOL, sim_tx(0, 0.0, min_out=quoted))
    assert ok and payout == quoted and pool2 != POOL
    # after the drift an identical min-out demand fails and reserves hold
    ok2, payout2, pool3 = execute_tx(pool2, sim_tx(1, 0.0, min_out=quoted))
    assert not ok2 and payout2 == 0.0 and pool3 == pool2


def test_duplicate_spam_one_winner(scenarios_dir):
    with open(scenarios_dir / "fcfs_duplicates.json") as fh:
        config = SimConfig.from_dict(json.load(fh))
    report = run(config)
    metrics = summarize(report)
    # 5 identical copies of one profitable trade: the first lands, the
    # other four revert against the drifted pool
    assert metrics["total_txs"] == 5
    assert metrics["successes"] == 1
    assert metrics["revert_rate"] == pytest.approx(0.8)
    assert metrics["revert_position_histogram"] == {1: 1, 2: 1, 3: 1, 4: 1}
    winner = [o for o in report.outcomes if o.status == "success"][0]
    assert winner.position == 0


def test_determinism_byte_identical(scenarios_dir):
    with open(scenarios_dir / "pfa_latency_race.json") as fh:
        d = json.load(fh)
    r1 = run(SimConfig.from_dict(d))
    r2 = run(SimConfig.from_dict(d))
    assert r1.to_json() == r2.to_json()
    d2 = dict(d, seed=d["seed"] + 1)
    assert run(SimConfig.from_dict(d2)).to_json() != r1.to_json()


def test_every_tx_included_exactly_once():
    config = base_config(
        bots=tuple(
            BotSpec(
                name=f"b{i}",
                strategy="duplicate_k",
                trade_size=5.0,
                k_copies=3,
                latency_mean=0.05,
                latency_jitter=0.2,
            )
            for i in range(4)
        ),
        horizon=2.0,
        opportunity_refresh=0.5,
        seed=9,
    )
    report = run(config)
    seqs = [o.submission_seq for o in report.outcomes]
    assert sorted(seqs) == list(range(len(seqs)))
    assert len(seqs) == 4 * 3 * 4  # bots x copies x opportunities


def test_profit_accounting_conserved():
    config = base_config(
        bots=(
            BotSpec(name="a", strategy="split_n", trade_size=20.0, n_chunks=4, latency_mean=0.01),
            BotSpec(name="b", strategy="duplicate_k", trade_size=20.0, k_copies=3, latency_mean=0.02),
        ),
        gas_overhead=0.05,
        liquidation_penalty=0.5,
        seed=3,
    )
    report = run(config)
    recomputed = {"a": 0.0, "b": 0.0}
    for o in report.outcomes:
        if o.status == "success":
            expected = o.payout - config.cex_price * o.size - config.gas_overhead
        else:
            expected = -config.cex_price * o.size - config.liquidation_penalty - config.gas_overhead
        assert o.profit == pytest.approx(expected, rel=1e-12)
        recomputed[o.bot_name] += o.profit
    for name, total in recomputed.items():
        assert report.per_bot_profit[name] == pytest.approx(total, rel=1e-12)


def test_fcfs_is_fee_blind():
    def cfg(fees):
        return base_config(
            bots=tuple(
                BotSpec(
                    name=f"b{i}",
                    strategy="single_shot",
                    trade_size=10.0,
                    priority_fee=fee,
                    latency_mean=0.01,
                    latency_jitter=0.05,
                )
                for i, fee in enumerate(fees)
            ),
            ordering="fcfs",
            seed=17,
        )

    r1 = run(cfg([0.0, 1.0, 2.0, 3.0]))
    r2 = run(cfg([3.0, 0.0, 2.0, 1.0]))
    key = lambda r: [(o.submission_seq, o.status, o.position) for o in r.outcomes]
    assert key(r1) == key(r2)


def test_pfa_highest_fee_wins_batch():
    config = base_config(
        bots=tuple(
            BotSpec(
                name=f"b{i}",
                strategy="single_shot",
                trade_size=10.0,
                priority_fee=float(i),
                latency_mean=0.01,
            )
            for i in range(5)
        ),
        ordering="pfa_within_batch",
        seed=1,
    )
    report = run(config)
    # all five arrive in the same batch at identical latency; the top fee
    # executes first and is the only success
    winners = [o for o in report.outcomes if o.status == "success"]
    assert len(winners) == 1
    assert winners[0].bot_name == "b4"
    assert winners[0].position == 0


def test_zero_batch_window_degenerates_to_fcfs():
    bots = tuple(
        BotSpec(
            name=f"b{i}",
            strategy="single_shot",
            trade_size=10.0,
            priority_fee=float(10 - i),
            latency_mean=0.01 * (i + 1),
        )
        for i in range(4)
    )
    pfa_zero = run(base_config(bots=bots, ordering="pfa_within_batch", batch_window=0.0))
    fcfs = run(base_config(bots=bots, ordering="fcfs"))
    key = lambda r: [(o.submission_seq, o.status, o.position) for o in r.outcomes]
    assert key(pfa_zero) == key(fcfs)


def test_opportunity_refresh_restores_pool():
    bot = BotSpec(name="a", strategy="duplicate_k", trade_size=10.0, k_copies=2, latency_mean=0.01)
    # one opportunity: copy 2 reverts; refresh each block: both copies of
    # each opportunity race again, one win per refresh
    single = summarize(run(base_config(bots=(bot,), horizon=1.0)))
    assert (single["successes"], single["reverts"]) == (1, 1)
    refreshed = summarize(run(base_config(bots=(bot,), horizon=1.0, opportunity_refresh=0.25)))
    assert refreshed["successes"] == 4
    assert refreshed["reverts"] == 4


def lone_bot(refresh, block_time=0.25, batch_window=None):
    """(reverts, transactions) of a lone single_shot bot with zero latency,
    jitter and slippage: it has no competitor, so every revert comes from
    how the simulator models time."""
    bot = BotSpec(name="a", strategy="single_shot", trade_size=10.0)
    config = base_config(
        bots=(bot,), block_time=block_time, batch_window=batch_window, horizon=5.0, opportunity_refresh=refresh
    )
    metrics = summarize(run(config))
    return metrics["reverts"], metrics["total_txs"]


@pytest.mark.parametrize("refresh, txs", [(0.25, 20), (0.5, 10)])
def test_arrival_on_a_block_boundary_sees_the_refreshed_pool(refresh, txs):
    # blocks are half-open: an arrival at exactly k * block_time lands in the
    # block starting then, after that block's pool reset
    assert lone_bot(refresh) == (0, txs)


@pytest.mark.parametrize("batch_window", [None, 0.0])
@pytest.mark.parametrize("block_time", [0.1, 0.25, 0.3, 1.0])
@pytest.mark.parametrize("refresh", [0.05, 0.1, 0.2, 0.25, 0.3, 0.5, 0.6, 0.75, 1.0, 1.3, 2.0])
def test_lone_bot_never_reverts(refresh, block_time, batch_window):
    # each refresh is a batch boundary, inside a block (0.6 against 0.25 s
    # blocks) or on an inexact float boundary (3.0 against the block that
    # starts at 29 * 0.1 == 2.9000000000000004)
    assert lone_bot(refresh, block_time, batch_window)[0] == 0


def test_opportunity_times_are_every_multiple_below_the_horizon():
    assert _opportunity_times(base_config()) == [0.0]
    assert _opportunity_times(base_config(opportunity_refresh=0.1, horizon=0.30000000000000004)) == [0.0, 0.1, 0.2]
    # 35 * 0.05 rounds to 1.75, below this horizon, though the float quotient
    # horizon / refresh rounds to 35.0
    times = _opportunity_times(base_config(opportunity_refresh=0.05, horizon=1.7500000000000002))
    assert len(times) == 36 and times[-1] == 1.75


def test_scenario_transactions_are_counted_before_any_is_built():
    assert sequencer_sim.MAX_TXS == 10**6
    bot = BotSpec(name="a", strategy="split_and_duplicate", trade_size=10.0, n_chunks=1000, k_copies=100)
    base_config(bots=(bot,), opportunity_refresh=0.1, horizon=0.95)  # 10 opportunities × 10**5: MAX_TXS
    # an upper bound: 10 * 0.1 is not below this horizon, but the quotient 10.0 counts an 11th opportunity
    with pytest.raises(ConfigError, match=r"^bots: may send 1100000 transactions \(11 opportunities × 100000 per "):
        base_config(bots=(bot,), opportunity_refresh=0.1, horizon=1.0)
    with pytest.raises(ConfigError, match="^opportunity_refresh: gives more than MAX_TXS = 1000000 opportunities$"):
        base_config(opportunity_refresh=1e-300)
    # a strategy's count uses only its own n or k: a duplicate_k bot ignores its n_chunks
    many = BotSpec(name="a", strategy="duplicate_k", trade_size=10.0, n_chunks=10**20, k_copies=2)
    assert many.shape() == (1, 2) and len(run(base_config(bots=(many,))).outcomes) == 2


def test_no_refresh_at_the_horizon():
    # 3 * 0.1 == 0.30000000000000004 is not below that horizon, so there is
    # no opportunity there and no pool reset either
    bots = (
        BotSpec(name="fast", strategy="single_shot", trade_size=10.0, latency_mean=0.05),
        BotSpec(name="slow", strategy="single_shot", trade_size=10.0, latency_mean=0.12),
    )
    reports = [
        run(base_config(bots=bots, block_time=0.1, opportunity_refresh=0.1, horizon=horizon))
        for horizon in (0.3, 0.30000000000000004)
    ]
    assert reports[0].to_json() == reports[1].to_json()


def test_batch_straddling_a_refresh_splits_at_it():
    # one block and one batch window, [0, 1), with a refresh at 0.5 inside
    # it: "low" arrives at 0.0 and 0.5, "high" at 0.6 and 1.1
    bots = (
        BotSpec(name="low", strategy="single_shot", trade_size=10.0),
        BotSpec(name="high", strategy="single_shot", trade_size=10.0, priority_fee=5.0, latency_mean=0.6),
    )
    config = base_config(
        bots=bots,
        block_time=1.0,
        batch_window=1.0,
        horizon=1.0,
        opportunity_refresh=0.5,
        ordering="pfa_within_batch",
    )
    report = run(config)
    got = [(o.bot_name, o.submission_seq, o.block_number, o.position, o.status) for o in report.outcomes]
    assert got == [
        ("low", 0, 1, 0, "success"),
        # arrived after the refresh: executes after the first opportunity's
        # low-fee fill, against the fresh pool, and ahead of the second's
        ("high", 1, 1, 1, "success"),
        ("low", 2, 1, 2, "reverted"),
        ("high", 3, 2, 0, "reverted"),
    ]
    assert report.outcomes[1].payout == swap_out(POOL, 10.0)


def test_slippage_tolerance_absorbs_drift():
    # with a generous tolerance the follow-up copy still clears CEX
    # break-even and succeeds
    bot = BotSpec(
        name="a",
        strategy="duplicate_k",
        trade_size=1.0,
        k_copies=2,
        latency_mean=0.01,
        slippage_tolerance=0.05,
    )
    metrics = summarize(run(base_config(bots=(bot,), pool=PoolState(1e6, 2e6, 0.0))))
    assert metrics["reverts"] == 0


def test_fee_rank_correlation_small():
    config = base_config(
        bots=tuple(
            BotSpec(
                name=f"b{i}",
                strategy="single_shot",
                trade_size=1.0,
                priority_fee=float(i + 1),
                latency_mean=0.1,
                latency_jitter=1.0,
            )
            for i in range(6)
        ),
        pool=PoolState(1e6, 2e6, 0.0),
        horizon=8.0,
        opportunity_refresh=16.0,
        batch_window=0.01,
        ordering="pfa_within_batch",
        seed=5,
    )
    rho = fee_rank_correlation(run(config))
    assert math.isfinite(rho)
    assert -1.0 <= rho <= 1.0
    # constant fees yield no defined correlation
    assert math.isnan(fee_rank_correlation(run(base_config())))


def test_config_validation_paths():
    with pytest.raises(ConfigError, match="block_time"):
        base_config(block_time=0)
    with pytest.raises(ConfigError, match="horizon"):
        base_config(horizon=0.1)
    with pytest.raises(ConfigError, match="ordering"):
        base_config(ordering="dutch_auction")
    with pytest.raises(ConfigError, match="strategy"):
        BotSpec(name="x", strategy="yolo", trade_size=1.0)
    with pytest.raises(ConfigError, match="trade_size"):
        BotSpec(name="x", strategy="single_shot", trade_size=0.0)


def test_from_dict_rejects_unknown_fields():
    d = {
        "block_time": 0.25,
        "pool": {"reserve_x": 1000.0, "reserve_y": 2000.0, "fee": 0.0},
        "cex_price": 1.8,
        "horizon": 1.0,
        "bots": [{"name": "a", "strategy": "single_shot", "trade_size": 1.0}],
    }
    assert isinstance(SimConfig.from_dict(d), SimConfig)
    with pytest.raises(ConfigError, match="blocktime"):
        SimConfig.from_dict({**d, "blocktime": 1.0})
    with pytest.raises(ConfigError, match=r"pool\.reserve_z"):
        SimConfig.from_dict({**d, "pool": {**d["pool"], "reserve_z": 1.0}})
    with pytest.raises(ConfigError, match=r"bots\[0\]\.speed"):
        SimConfig.from_dict({**d, "bots": [{**d["bots"][0], "speed": 9}]})
    with pytest.raises(ConfigError, match="pool"):
        SimConfig.from_dict({k: v for k, v in d.items() if k != "pool"})


def test_from_dict_integers_become_floats(scenarios_dir):
    # a JSON integer in a float field gives the same report as the float
    with open(scenarios_dir / "fcfs_duplicates.json") as fh:
        d = json.load(fh)
    ints = {**d, "horizon": 1, "pool": {**d["pool"], "reserve_x": 1000, "reserve_y": 2000}}
    ints["bots"] = [{**d["bots"][0], "trade_size": 10, "priority_fee": 0}]
    assert run(SimConfig.from_dict(ints)).to_json() == run(SimConfig.from_dict(d)).to_json()


def test_split_and_duplicate_tx_counts():
    bot = BotSpec(
        name="x", strategy="split_and_duplicate", trade_size=12.0, n_chunks=3, k_copies=2
    )
    n, k = bot.shape()
    assert [bot.trade_size / n] * (n * k) == [4.0] * 6
    split = BotSpec(name="y", strategy="split_n", trade_size=12.0, n_chunks=4, k_copies=2)
    txs = sequencer_sim._generate_txs(base_config(bots=(bot, split)), [0.0], np.random.default_rng(0))
    assert [(tx.bot_id, tx.size) for tx in txs] == [(0, 4.0)] * 6 + [(1, 3.0)] * 4


def test_jitter_arrivals_have_no_zero_pileup():
    config = base_config(
        bots=(
            BotSpec(
                name="a",
                strategy="single_shot",
                trade_size=1.0,
                latency_mean=0.0,
                latency_jitter=0.5,
            ),
        ),
        horizon=50.0,
        opportunity_refresh=0.25,
        seed=2,
    )
    arrivals = np.array([o.arrival_time - 0.25 * (o.submission_seq) for o in run(config).outcomes])
    assert np.all(arrivals > 0)
    assert np.mean(arrivals) == pytest.approx(0.5, rel=0.15)


# sha256 of run(config).to_json(), recorded before the report was built
# without asdict and before the float fast path of swap_out
GOLDEN_REPORTS = {
    "blocktime_fast.json": "15c04577a3784c17ab3fb022d8d1921dbbda8bae773d9d40c35e69430475ae0d",
    "blocktime_slow.json": "eb6d9a72e9243c3e65ded65320316a83b92f151345cc546b29317200132fb8a9",
    "fcfs_duplicates.json": "735df7367b12af1207b078de142fa5ac85b8a3a14093dec9d11a172310921045",
    "pfa_latency_race.json": "8062409f82d251b7ab388141e7467251403a6ed609651a9dc917eecb358f63c6",
    "jittered": "39d9e3eaacd3fca25e52c8995eebdfe17ebafb86adea5776354eb19b6d4a4229",
}

# all four strategies with latency jitter, slippage, priority fees, batches
# within blocks and a refreshing opportunity (112 txs, 57 reverted)
JITTERED = SimConfig(
    block_time=0.25,
    pool=PoolState(50_000.0, 100_000.0, 0.003),
    cex_price=1.9,
    horizon=6.0,
    opportunity_refresh=0.75,
    ordering="pfa_within_batch",
    batch_window=0.1,
    gas_overhead=0.02,
    liquidation_penalty=0.3,
    seed=17,
    bots=(
        BotSpec("single", "single_shot", 60.0, priority_fee=0.5, latency_mean=0.05, latency_jitter=0.1, slippage_tolerance=0.002),
        BotSpec("split", "split_n", 80.0, n_chunks=4, latency_mean=0.02, latency_jitter=0.15),
        BotSpec("dup", "duplicate_k", 40.0, k_copies=3, priority_fee=1.0, latency_mean=0.1, latency_jitter=0.3, slippage_tolerance=0.01),
        BotSpec("both", "split_and_duplicate", 90.0, n_chunks=3, k_copies=2, latency_jitter=0.2, slippage_tolerance=0.005),
    ),
)


def test_reports_match_golden_digests(scenarios_dir, monkeypatch):
    configs = {p.name: SimConfig.from_dict(json.loads(p.read_text())) for p in sorted(scenarios_dir.glob("*.json"))}
    configs["jittered"] = JITTERED
    assert sorted(configs) == sorted(GOLDEN_REPORTS)
    monkeypatch.setattr(sequencer_sim, "_PIECE_ROWS", 2)  # the report.json text, joined from many pieces
    for name, config in configs.items():
        report = run(config)
        for text in (report.to_json(), "".join(report.json_pieces())):
            assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_REPORTS[name], name


def test_rows_are_whole_tuples(scenarios_dir):
    # run and _generate_txs build their rows with tuple.__new__, which checks
    # no arity: a field added to SimTx or TxOutcome must be filled there too
    configs = [SimConfig.from_dict(json.loads(p.read_text())) for p in sorted(scenarios_dir.glob("*.json"))]
    for config in [*configs, JITTERED]:
        opportunities = _opportunity_times(config)
        txs = sequencer_sim._generate_txs(config, opportunities, np.random.default_rng(config.seed))
        outcomes = run(config).outcomes
        assert txs and outcomes
        assert all(type(t) is SimTx and len(t) == len(SimTx._fields) for t in txs)
        assert all(type(o) is TxOutcome and len(o) == len(TxOutcome._fields) for o in outcomes)


# Reference implementations: the transaction generator and the report
# encoder as they were before the simulator moved to tuples. run and to_json
# must give the same report.json bytes.


def scalar_draw_txs(config, opportunities, rng):
    """One scalar ``rng.exponential`` draw per jittered transaction, in
    submission order (opportunity, then bot, then size)."""
    txs = []
    for t_k in opportunities:
        for bot_id, bot in enumerate(config.bots):
            n, k = bot.shape()
            for size in [bot.trade_size / n] * (n * k):
                min_out = max(swap_out(config.pool, size) * (1.0 - bot.slippage_tolerance), size * config.cex_price)
                if bot.latency_jitter > 0:
                    latency = bot.latency_mean + rng.exponential(bot.latency_jitter)
                else:
                    latency = bot.latency_mean
                txs.append(SimTx(bot_id, t_k + latency, size, bot.priority_fee, len(txs), min_out))
    return txs


def dict_json(report):
    """The report as one dict per row through ``json.dumps(sort_keys=True)``."""
    doc = {
        "seed": report.seed,
        "num_blocks": report.num_blocks,
        "outcomes": [dict(zip(TxOutcome._fields, o)) for o in report.outcomes],
        "per_bot_profit": report.per_bot_profit,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def reference_json(config):
    with mock.patch.object(sequencer_sim, "_generate_txs", scalar_draw_txs):
        return dict_json(run(config))


# names that JSON escapes (quote, backslash, control characters, non-ASCII)
# or that a %-template must escape
NAME_CHARS = '"\\%ab\x00\n\x1f\u00e9\u20ac\u2028\U0001f600'
names = st.one_of(st.text(st.sampled_from(NAME_CHARS), max_size=6), st.text(max_size=4))


@st.composite
def sim_configs(draw):
    """Small configs: 1-4 distinctly named bots of any strategy, jittered or not, either
    ordering, a batch window that may be zero, fees that may be zero."""
    bots = tuple(
        BotSpec(
            name=name,
            strategy=draw(st.sampled_from(STRATEGIES)),
            trade_size=draw(st.floats(0.5, 200.0)),
            n_chunks=draw(st.integers(1, 3)),
            k_copies=draw(st.integers(1, 3)),
            priority_fee=draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0))),
            latency_mean=draw(st.floats(0.0, 0.5)),
            latency_jitter=draw(st.one_of(st.just(0.0), st.floats(1e-3, 0.5))),
            slippage_tolerance=draw(st.floats(0.0, 0.05)),
        )
        for name in draw(st.lists(names, min_size=1, max_size=4, unique=True))
    )
    block_time = draw(st.sampled_from([0.1, 0.25, 1.0]))
    return SimConfig(
        block_time=block_time,
        pool=POOL,
        cex_price=draw(st.floats(1.0, 2.2)),  # the pool's spot price is 2.0
        horizon=block_time * draw(st.integers(1, 6)),
        bots=bots,
        seed=draw(st.integers(0, 2**32)),
        ordering=draw(st.sampled_from(ORDERINGS)),
        batch_window=draw(st.one_of(st.none(), st.just(0.0), st.floats(0.01, 0.5))),
        opportunity_refresh=draw(st.one_of(st.none(), st.floats(0.1, 1.0))),
        gas_overhead=draw(st.floats(0.0, 1.0)),
        liquidation_penalty=draw(st.floats(0.0, 1.0)),
    )


MIXED = SimConfig(
    block_time=0.25,
    pool=POOL,
    cex_price=1.8,
    horizon=1.0,
    opportunity_refresh=0.25,
    ordering="pfa_within_batch",
    batch_window=0.0,
    seed=4,
    bots=(
        BotSpec('q"uote\\ 100%s', "split_and_duplicate", 30.0, n_chunks=2, k_copies=2, latency_jitter=0.1),
        BotSpec("\u00e9\x07%%", "duplicate_k", 20.0, k_copies=3, priority_fee=1.0, latency_mean=0.02),
        BotSpec("plain", "split_n", 25.0, n_chunks=3, latency_mean=0.01, latency_jitter=0.05),
    ),
)


@given(sim_configs())
@example(MIXED)
@example(JITTERED)
@settings(max_examples=200, deadline=None)
def test_report_matches_reference_bytes(config):
    assert run(config).to_json() == reference_json(config)


def test_overflowing_profit_raises():
    # a finite price of 1e308 overflows price * size, so every profit is -inf
    with pytest.raises(NoRootError, match=r"^bot 'a' has a total profit of -inf: "):
        run(base_config(cex_price=1e308))


def test_to_json_writes_any_float_as_json_does():
    # a hand-built report: non-finite and numpy floats are encoded as
    # json.dumps encodes them, not as their repr
    def row(seq, arrival, profit):
        return TxOutcome(0, "a", seq, 1, seq, "success", 1.0, 0.0, arrival, 2.0, profit)

    for values in [(math.nan, 1.0), (math.inf, -math.inf), (np.float64(0.1), np.float64(-1e-7))]:
        report = SimReport(0, 1, (row(0, values[0], 0.5), row(1, 0.25, values[1])), {"a": values[1]})
        assert report.to_json() == dict_json(report)


# each bot's key fields, fixed, so that no two of its rows compare equal but encode apart
PIECE_BOTS = [(0, "a", 0.0, 1.0), (1, 'q"u%s', 1.5, 0.25), (2, "\u00e9\n", 0.0, 3.0)]
# a value that sends the rows of its piece, and only those, through json.dumps
ODD_VALUES = [math.nan, math.inf, -math.inf, True, False, np.float64(0.1), np.float64(-2.5), 10**400]
VALUE_FIELDS = ("arrival_time", "block_number", "payout", "position", "profit", "submission_seq")


def piece_report(n, floats, odd=None):
    """A report of ``n`` rows, their floats taken in turn from ``floats``; ``odd`` is a
    (row, field, value) put in place, for a row in range."""
    floats = iter(floats)
    rows = []
    for seq in range(n):
        bot_id, name, fee, size = PIECE_BOTS[seq % 3]
        status = ("success", "reverted")[seq % 5 == 1]
        rows.append(TxOutcome(bot_id, name, seq, 1 + seq // 7, seq % 7, status, size, fee, *itertools.islice(floats, 3)))
    if odd is not None and odd[0] < n:
        rows[odd[0]] = rows[odd[0]]._replace(**{odd[1]: odd[2]})
    return SimReport(5, 1 + n // 7, tuple(rows), {name: -0.5 for _, name, _, _ in PIECE_BOTS})


@st.composite
def piece_reports(draw):
    """A piece size B and a report of 0, 1, B, B + 1 or 2B + 1 rows of finite floats, which may hold one odd value."""
    size = draw(st.integers(1, 4))
    n = draw(st.sampled_from([0, 1, size, size + 1, 2 * size + 1]))
    floats = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3 * n, max_size=3 * n))
    odd = st.tuples(st.integers(0, 2 * size), st.sampled_from(VALUE_FIELDS), st.sampled_from(ODD_VALUES))
    odd = draw(st.one_of(st.none(), odd))
    return size, piece_report(n, floats, odd)


B = sequencer_sim._PIECE_ROWS
SPREAD = [0.125 * i - 3.0 for i in range(3 * (2 * B + 1))]


@given(piece_reports())
@example((B, piece_report(0, [])))
@example((B, piece_report(1, SPREAD)))
@example((B, piece_report(B, SPREAD, (B - 1, "profit", math.nan))))
@example((B, piece_report(B + 1, SPREAD, (B, "arrival_time", np.float64(0.1)))))
@example((B, piece_report(2 * B + 1, SPREAD, (B + 3, "position", True))))
@settings(max_examples=200, deadline=None)
def test_pieces_join_into_the_report(case):
    size, report = case
    with mock.patch.object(sequencer_sim, "_PIECE_ROWS", size):
        pieces = list(report.json_pieces())
    assert all(type(piece) is str for piece in pieces)
    assert len(pieces) == max(1, -(-len(report.outcomes) // size))
    whole = report.to_json()
    assert "".join(pieces) == whole == dict_json(report)
    n = len(report.outcomes)
    for k in {1, n // 2} & set(range(1, n)):  # any two ranges that cover the rows
        assert report.to_json(0, k) + report.to_json(k) == whole


def reverted(seq, payout=0.0, profit=-1.5, arrival=0.125, size=1.0, status="reverted"):
    return TxOutcome(0, "a", seq, 1, seq, status, size, 0.0, arrival, payout, profit)


@pytest.mark.parametrize(
    "rows",
    [
        # one bot's order's reverts need not share a payout or a profit
        [reverted(0), reverted(1, payout=0.5), reverted(2, profit=-2.5), reverted(3, 0.5, -2.5), reverted(4)],
        # non-finite values in a revert's payout and profit
        [reverted(0, profit=math.nan), reverted(1, profit=math.inf), reverted(2, profit=-math.inf), reverted(3)],
        [reverted(0, payout=math.nan, profit=math.nan), reverted(1, payout=math.nan, profit=math.nan)],
        # numpy scalars in a revert's fields
        [reverted(0, np.float64(0.0), np.float64(-1.5)), reverted(1, 0.0, np.float64(-1e-7)), reverted(2)],
        [reverted(0, arrival=np.float64(0.1)), reverted(1, arrival=0.1)],
        [reverted(0, arrival=math.nan), reverted(1, arrival=-math.inf)],
        # successes and reverts interleaved, each status in its own template
        [reverted(0, 2.0, 0.5, status="success"), reverted(1), reverted(2, 1.0, -0.5, status="success"), reverted(3)],
        # a status that is neither success nor reverted, encoded by json.dumps like any other
        [reverted(0, status="pending"), reverted(1), reverted(2, 2.0, 0.5, status="success")],
        [reverted(0, status="success%s"), reverted(1, status='re"verted')],
        # no rows of one status, or none at all
        [reverted(0, 2.0, 0.5, status="success")],
        [reverted(0)],
        [],
        # values of one order that compare equal but encode differently
        [reverted(0, payout=0.0), reverted(1, payout=-0.0)],
        [reverted(0, profit=-1.0), reverted(1, profit=-1)],
        # a bool in a value field, which %r would write as True
        [TxOutcome(0, "a", 0, True, 0, "success", 1.0, 0.0, 0.5, 2.0, 1.0), reverted(1, payout=False)],
        # an int beyond the float range in a value field, which the sum of the values cannot take
        [TxOutcome(0, "a", 0, 10**400, 0, "success", 1.0, 0.0, 0.5, 2.0, 1.0), reverted(1)],
    ],
)
def test_to_json_of_hand_built_reports(rows):
    report = SimReport(3, 1, tuple(rows), {"a": -1.5})
    assert report.to_json() == dict_json(report)
