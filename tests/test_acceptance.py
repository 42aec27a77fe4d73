"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line for its criterion; the assertions make
pytest fail alongside the printed verdict.
"""

import dataclasses
import json
import time
import warnings

import numpy as np

from splitmev import (
    ArbParams,
    BotSpec,
    PoolState,
    SimConfig,
    brute_force_plan,
    classify_swap,
    decompose,
    identify_bots,
    load_trace_file,
    marginal_benefit,
    marginal_out,
    per_swap_profit,
    plan,
    position_histogram,
    read_labels_csv,
    read_records_csv,
    revert_stats,
    run,
    summarize,
    swap_out,
    threshold,
)
from splitmev.sequencer_sim import fee_rank_correlation
from splitmev.split_optimizer import _residual
from splitmev.trace_analysis import LabelEntry, LabelLibrary

from conftest import compliant_instances
from test_trace_analysis import _record


def _verdict(number: int, desc: str, ok: bool):
    print(f"\nacceptance criterion {number} ({desc}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({desc}) failed"


def test_criterion_1_plan_vs_brute_force_oracle():
    start = time.perf_counter()
    instances = compliant_instances(101, 1000)
    ok = True
    for pool, params, model in instances:
        result = plan(pool, params, model)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bf = brute_force_plan(pool, params, model, 1000)
        if bf.num_chunks not in (result.num_chunks - 1, result.num_chunks, result.num_chunks + 1):
            ok = False
            break
        if result.expected_total_profit < bf.expected_total_profit - 1e-6 * (
            1 + abs(bf.expected_total_profit)
        ):
            ok = False
            break
    elapsed = time.perf_counter() - start
    _verdict(1, f"plan optimality vs brute force, 1000 instances in {elapsed:.1f}s", ok and elapsed < 60)


def test_criterion_2_dichotomy_exactness():
    start = time.perf_counter()
    ok = True
    for pool, params, model in compliant_instances(102, 100):
        base = ArbParams(params.total_size, params.cex_price, 0.0, params.liquidation_penalty)
        theta = threshold(pool, base, model)
        branches = []
        for j in range(-5, 6):
            cg = theta * (1 + j * 1e-6)
            p = ArbParams(params.total_size, params.cex_price, cg, params.liquidation_penalty)
            branches.append(plan(pool, p, model).branch)
        flips = [i for i in range(1, len(branches)) if branches[i] != branches[i - 1]]
        # exactly one flip, from interior to single, within one step of theta
        if branches[0] != "interior_root" or branches[-1] != "single_swap":
            ok = False
            break
        if len(flips) != 1 or abs(flips[0] - 5) > 1:
            ok = False
            break
    elapsed = time.perf_counter() - start
    _verdict(2, f"branch dichotomy flips at threshold in {elapsed:.1f}s", ok and elapsed < 10)


def test_criterion_3_monotonicity_suite():
    ok = True
    for pool, params, model in compliant_instances(103, 100):
        qs = np.geomspace(params.total_size * 1e-6, params.total_size, 1000)
        m = np.asarray(marginal_benefit(pool, params, model, qs))
        if not np.all(np.diff(m) < 1e-9):
            ok = False
            break
        res, _ = _residual(pool, params, model, qs)
        # monotone separation of the root equation sides: their difference
        # decreases strictly at every grid point
        if not np.all(np.diff(res) < 1e-9):
            ok = False
            break
    _verdict(3, "marginal benefit and root-equation separation monotone", ok)


def test_criterion_4_derivative_checks():
    ok = True
    rng = np.random.default_rng(104)
    for _ in range(50):
        pool = PoolState(10 ** rng.uniform(2, 7), 10 ** rng.uniform(2, 7), float(rng.choice([0, 0.003])))
        qs = np.geomspace(1e-4 * pool.reserve_x, pool.reserve_x, 100)
        h = qs * 1e-5
        fd = (swap_out(pool, qs + h) - swap_out(pool, qs - h)) / (2 * h)
        if not np.allclose(marginal_out(pool, qs), fd, rtol=1e-6, atol=0):
            ok = False
            break
    for pool, params, model in compliant_instances(105, 50):
        qs = np.geomspace(params.total_size * 1e-3, params.total_size * 0.9, 50)
        h = qs * 1e-5
        fd = (
            np.asarray(per_swap_profit(pool, params, model, qs + h))
            - np.asarray(per_swap_profit(pool, params, model, qs - h))
        ) / (2 * h)
        m = np.asarray(marginal_benefit(pool, params, model, qs))
        scale = np.max(np.abs(fd))
        if not np.allclose(m, fd, rtol=1e-6, atol=1e-9 * scale):
            ok = False
            break
    _verdict(4, "marginal_out and marginal_benefit match central differences", ok)


def _race_config(fees, seed, ordering="pfa_within_batch", batch_window=0.01, jitter=1.0):
    return SimConfig(
        block_time=0.25,
        pool=PoolState(1e6, 2e6, 0.0),
        cex_price=1.8,
        horizon=8.0,
        bots=tuple(
            BotSpec(
                name=f"b{i:02d}",
                strategy="single_shot",
                trade_size=1.0,
                priority_fee=float(fee),
                latency_mean=0.1,
                latency_jitter=jitter,
            )
            for i, fee in enumerate(fees)
        ),
        seed=seed,
        ordering=ordering,
        batch_window=batch_window,
        opportunity_refresh=16.0,
    )


def test_criterion_5_simulator_mechanism_properties(scenarios_dir):
    start = time.perf_counter()
    with open(scenarios_dir / "pfa_latency_race.json") as fh:
        scenario = SimConfig.from_dict(json.load(fh))

    # determinism: identical seeds give byte-identical reports
    deterministic = run(scenario).to_json() == run(scenario).to_json()

    # FCFS fee-blindness: permuting fees leaves execution order unchanged
    fee_blind = True
    rng = np.random.default_rng(0)
    fees = list(range(1, 11))
    for seed in range(100):
        permuted = list(rng.permutation(fees))
        r1 = run(_race_config(fees, seed, ordering="fcfs", batch_window=None))
        r2 = run(_race_config(permuted, seed, ordering="fcfs", batch_window=None))
        k1 = [(o.submission_seq, o.status, o.block_number, o.position) for o in r1.outcomes]
        k2 = [(o.submission_seq, o.status, o.block_number, o.position) for o in r2.outcomes]
        if k1 != k2:
            fee_blind = False
            break

    # PFA dominance: batch window wider than the latency spread means the
    # whole field lands in one batch and executes in fee order
    dominance = True
    for seed in range(20):
        config = _race_config(fees, seed, batch_window=None, jitter=0.0)
        config = dataclasses.replace(
            config,
            bots=tuple(
                dataclasses.replace(b, latency_mean=0.01 * (i + 1))
                for i, b in enumerate(config.bots)
            ),
        )
        report = run(config)
        ordered_fees = [o.priority_fee for o in report.outcomes]
        if ordered_fees != sorted(ordered_fees, reverse=True):
            dominance = False
            break

    # latency race: with the batch window well under the jitter scale, fees
    # no longer buy execution rank on average
    rhos = []
    for seed in range(200):
        report = run(_race_config(list(range(1, 21)), seed, batch_window=0.01, jitter=1.0))
        rho = fee_rank_correlation(report)
        if np.isfinite(rho):
            rhos.append(rho)
    mean_rho = float(np.mean(rhos))
    decoupled = abs(mean_rho) < 0.05

    elapsed = time.perf_counter() - start
    ok = deterministic and fee_blind and dominance and decoupled and elapsed < 120
    _verdict(
        5,
        f"determinism/fee-blindness/PFA dominance/mean rho {mean_rho:+.3f} in {elapsed:.1f}s",
        ok,
    )


def test_criterion_6_duplicate_spam_accounting(scenarios_dir):
    with open(scenarios_dir / "fcfs_duplicates.json") as fh:
        config = SimConfig.from_dict(json.load(fh))
    metrics = summarize(run(config))
    counts_ok = metrics["successes"] == 1 and metrics["reverts"] == 4

    def index0_mass(block_time: float) -> float:
        with open(scenarios_dir / ("blocktime_fast.json" if block_time < 1 else "blocktime_slow.json")) as fh:
            base = SimConfig.from_dict(json.load(fh))
        total = 0
        at_zero = 0
        for seed in range(50):
            report = run(dataclasses.replace(base, seed=seed))
            reverts = [o for o in report.outcomes if o.status == "reverted"]
            total += len(reverts)
            at_zero += sum(1 for o in reverts if o.position == 0)
        return at_zero / total if total else 0.0

    slow = index0_mass(2.0)
    fast = index0_mass(0.25)
    directional_ok = fast > slow
    _verdict(
        6,
        f"duplicate spam 1/4 split; index-0 revert mass {slow:.3f} -> {fast:.3f} as blocks shrink",
        counts_ok and directional_ok,
    )


def test_criterion_7_trace_fixture_corpus(fixtures_dir):
    labels = read_labels_csv(fixtures_dir / "labels.csv")
    with open(fixtures_dir / "expected_classifications.json") as fh:
        expected = json.load(fh)
    correct = 0
    paths = sorted((fixtures_dir / "traces").glob("*.json"))
    for path in paths:
        (graph,) = load_trace_file(path)
        got = classify_swap(graph, labels).to_dict()
        want = expected[path.stem]
        if {k: got[k] for k in want} == want:
            correct += 1

    # ten labeled addresses probing each bot rule in isolation
    lib = LabelLibrary()
    addrs = [f"0x{'2' * 38}{i:02d}" for i in range(10)]
    entries = [
        ("other", "", True),  # 0: qualifies
        ("other", "", True),  # 1: too few reverts
        ("router", "", True),  # 2: infra kind
        ("pool_v2", "", True),  # 3: infra kind
        ("pool_manager_v4", "", True),  # 4: infra kind
        ("other", "cex:kraken", True),  # 5: owner label
        ("other", "", False),  # 6: no bytecode
        ("other", "", True),  # 7: qualifies
        ("token", "", True),  # 8: token label is not infra; qualifies
        ("other", "", True),  # 9: reverts all below threshold
    ]
    for addr, (kind, owner, code) in zip(addrs, entries):
        lib.add(LabelEntry(address=addr, kind=kind, owner_label=owner, has_code=code))
    records = []
    counts = [5, 2, 5, 5, 5, 5, 5, 4, 4, 1]
    for addr, n in zip(addrs, counts):
        records += [_record(addr, n=i) for i in range(n)]
    bots = identify_bots(records, lib, min_count=3)
    bots_ok = bots == {addrs[0], addrs[7], addrs[8]}

    _verdict(7, f"trace corpus {correct}/20 classified; bot rules on 10-address fixture", correct == 20 and bots_ok)


def test_criterion_8_fee_decomposition_exact(fixtures_dir):
    records = read_records_csv(fixtures_dir / "records.csv")
    exact = True
    saw_clamp = False
    for r in records:
        fb = decompose(r)
        if fb.execution_fee != r.gas_price * r.gas_used:
            exact = False
        if fb.priority_fee != r.priority_fee_per_gas * r.gas_used:
            exact = False
        if fb.total != fb.execution_fee + r.l1_fee:
            exact = False
        if fb.clamped:
            saw_clamp = True
            if fb.base_fee != 0:
                exact = False
        elif fb.base_fee + fb.priority_fee != fb.execution_fee:
            exact = False

    import datetime as dt

    rates_ok = revert_stats(records) == {
        ("arbitrum", dt.date(2025, 5, 1)): 0.5,
        ("base", dt.date(2025, 5, 1)): 0.75,
        ("base", dt.date(2025, 5, 2)): 0.2,
    }
    hist_ok = position_histogram(records) == {0: 10, 1: 6, 2: 4, 3: 3, 4: 1}
    _verdict(
        8,
        "integer fee decomposition (incl. clamp) and hand-tallied statistics",
        exact and saw_clamp and rates_ok and hist_ok,
    )
