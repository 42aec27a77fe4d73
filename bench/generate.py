"""Seeded input generators for the three benchmark workloads.

Each generator writes the program's inputs under ``in_dir`` and returns a
``Workload``: the CLI argument lists of one pass, how many items each
request completes (for the simulator, the transaction count its config
implies) and the ground truth the output checks compare against.
The same seed gives the same bytes. Structure (counts, sizes, branch and
kind mix) is fixed; only values are drawn from the seed, so the work in a
pass barely moves between seeds.

The generators do not import ``splitmev``: the optimize threshold and the
simulator's transaction count are recomputed here in plain floats, so the
inputs stay byte-identical when the program changes.
"""

from __future__ import annotations

import bisect
import datetime as dt
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Why each workload is in the benchmark; BENCHMARK.json repeats these.
WHY = {
    "optimize_sweep": "1,000 optimize requests, 40% single swap, 60% root solve: "
    "loads the scalar and vector kernels of amm_core, failure_models and split_optimizer only",
    "simulate_large": "one 18.5k-transaction scenario, 16 bots, 4 strategies, ~40% reverts: "
    "the simulator's per-transaction hot loop and report serialization dominate",
    "analyze_corpus": "5k trace files, 20% JSON lines, a tail of deep chains, 5k records: "
    "loads trace_analysis and fee_accounting only",
}

OPT_CONFIGS = 1000
OPT_SINGLE_SHARE = 0.4  # below one half, so the median request is a root solve
LARGE_HORIZON = 125.0  # seconds of simulated time: 250 opportunities x 74 txs
LARGE_SIZE = 1400.0  # mean trade size; sets the revert share near 40%
CORPUS_FILES = 5_000
CORPUS_JSONL_SHARE = 0.2
CORPUS_DEEP_SHARE = 0.03
CORPUS_DAYS = 7
CORPUS_CHAINS = ("arbitrum", "base")
MIN_BOT_REVERTS = 10


@dataclass
class Request:
    """One CLI call. ``argv`` holds ``{out}`` where the pass's output
    directory goes; ``units`` maps output subdirectories to item counts."""

    argv: list[str]
    units: dict[str, int]

    @property
    def items(self) -> int:
        return sum(self.units.values())


@dataclass
class Workload:
    name: str
    requests: list[Request]
    truth: dict = field(default_factory=dict)

    @property
    def items_per_pass(self) -> int:
        return sum(r.items for r in self.requests)


def _write_json(path: Path, obj):
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------- optimize


class _Model:
    """Plain-float success probability p(q) and its slope, floored like the
    program's failure models (the slope is 0 where the floor binds)."""

    def __init__(self, family: str, params: dict, floor: float = 1e-6):
        self.family, self.params, self.floor = family, params, floor

    def raw(self, q):
        k = self.params
        if self.family == "linear_clamped":
            return 1.0 - k["slope"] * q
        if self.family == "power_concave":
            return 1.0 - (q / k["q_max"]) ** k["alpha"]
        if self.family == "quadratic_concave":
            return 1.0 - k["a"] * q - k["b"] * q * q
        return np.interp(q, k["qs"], k["ps"])

    def slope(self, q: float) -> float:
        if self.raw(q) <= self.floor:
            return 0.0
        k = self.params
        if self.family == "linear_clamped":
            return -k["slope"]
        if self.family == "power_concave":
            return -k["alpha"] * q ** (k["alpha"] - 1.0) / k["q_max"] ** k["alpha"]
        if self.family == "quadratic_concave":
            return -(k["a"] + 2.0 * k["b"] * q)
        qs, ps = k["qs"], k["ps"]
        i = min(max(bisect.bisect_right(qs, q) - 1, 0), len(qs) - 2)
        return (ps[i + 1] - ps[i]) / (qs[i + 1] - qs[i])

    def prob(self, q):
        return np.maximum(self.raw(q), self.floor)


def _threshold(pool: dict, total: float, phi: float, model: _Model) -> float:
    x, y, f = pool["reserve_x"], pool["reserve_y"], pool["fee"]
    g = (1.0 - f) * total
    dy = y * g / (x + g)
    dy1 = y * (1.0 - f) * x / (x + g) ** 2
    p = float(model.prob(total))
    return p * (dy + phi) - phi - total * (model.slope(total) * (dy + phi) + p * dy1)


def _best_chunks(pool: dict, total: float, cex: float, gas: float, phi: float, model: _Model) -> int:
    """Argmax over n in [1, 1000] of the expected total profit."""
    x, y, f = pool["reserve_x"], pool["reserve_y"], pool["fee"]
    n = np.arange(1, 1001)
    q = total / n
    p = model.prob(q)
    dy = y * (1.0 - f) * q / (x + (1.0 - f) * q)
    profit = n * (p * dy - cex * q - (1.0 - p) * phi - gas)
    return int(np.argmax(profit)) + 1


def _draw_model(rng: np.random.Generator, family: str, total: float) -> dict:
    if family == "linear_clamped":
        return {"slope": float(rng.uniform(0.05, 0.9)) / total}
    if family == "power_concave":
        return {"q_max": total * float(rng.uniform(1.0, 5.0)), "alpha": float(rng.uniform(1.0, 3.0))}
    if family == "quadratic_concave":
        return {"a": float(rng.uniform(0, 0.3)) / total, "b": float(rng.uniform(0.05, 0.5)) / total**2}
    # concave table: p = 1 - 0.9 (q / q_top)^beta sampled at six points
    q_top = total * float(rng.uniform(1.2, 4.0))
    beta = float(rng.uniform(1.2, 3.0))
    steps = [k / 5 for k in range(6)]
    return {"qs": [q_top * s for s in steps], "ps": [1.0 - 0.9 * s**beta for s in steps]}


def _draw_instance(rng: np.random.Generator, family: str, single: bool) -> dict | None:
    """One config, or None when the draw is unusable: no split regime, or an
    optimum near the oracle's 1,000-chunk scan limit."""
    x = 10.0 ** rng.uniform(2, 7)
    y = 10.0 ** rng.uniform(2, 7)
    pool = {"reserve_x": x, "reserve_y": y, "fee": float(rng.choice([0.0, 0.0005, 0.003, 0.01]))}
    cex = (y / x) * float(rng.uniform(0.8, 1.2))
    total = x * float(rng.uniform(0.001, 0.5))
    params = _draw_model(rng, family, total)
    model = _Model(family, params)
    theta0 = _threshold(pool, total, 0.0, model)
    if theta0 <= 0:
        return None
    phi = float(rng.uniform(0, 2 * theta0))
    theta = _threshold(pool, total, phi, model)
    if theta <= 0:
        return None
    # overhead in [0, 2 theta], kept 5% away from theta and from 0 so the
    # branch is unambiguous and the root stays well inside the oracle's scan
    gas = theta * float(rng.uniform(1.05, 2.0) if single else rng.uniform(0.05, 0.95))
    if _best_chunks(pool, total, cex, gas, phi, model) > 800:
        return None
    return {
        "version": 1,
        "pool": pool,
        "params": {"total_size": total, "cex_price": cex, "gas_overhead": gas, "liquidation_penalty": phi},
        "model": {"family": family, "parameters": params},
    }


def optimize_sweep(seed: int, in_dir: Path) -> Workload:
    """About 1,000 optimize configs over four concave failure families;
    40% of the overheads lie above the threshold (single swap), the rest
    below (root solve)."""
    rng = np.random.default_rng([seed, 1])
    families = ("linear_clamped", "power_concave", "quadratic_concave", "table_interpolated")
    single = np.zeros(OPT_CONFIGS, dtype=bool)
    single[rng.permutation(OPT_CONFIGS)[: round(OPT_SINGLE_SHARE * OPT_CONFIGS)]] = True
    requests, configs = [], {}
    for i in range(OPT_CONFIGS):
        cfg = None
        while cfg is None:
            cfg = _draw_instance(rng, families[i % 4], bool(single[i]))
        path = in_dir / f"opt{i:04d}.json"
        _write_json(path, cfg)
        unit = f"r{i:04d}"
        configs[unit] = cfg
        requests.append(
            Request(["--quiet", "optimize", "--config", str(path), "--out", "{out}/" + unit], {unit: 1})
        )
    return Workload("optimize_sweep", requests, {"configs": configs})


# ---------------------------------------------------------------- simulate


def _tx_per_opportunity(bot: dict) -> int:
    n, k = bot.get("n_chunks", 1), bot.get("k_copies", 1)
    return {"single_shot": 1, "split_n": n, "duplicate_k": k, "split_and_duplicate": n * k}[bot["strategy"]]


def _expected_txs(cfg: dict) -> int:
    refresh = cfg.get("opportunity_refresh") or cfg["horizon"]
    opportunities = sum(1 for k in range(max(1, math.ceil(cfg["horizon"] / refresh))) if k * refresh < cfg["horizon"])
    return opportunities * sum(_tx_per_opportunity(b) for b in cfg["bots"])


def _stratified(rng: np.random.Generator, lo: float, hi: float, n: int, column: int) -> list[float]:
    """n draws from [lo, hi], one per equal-width stratum. The stratum order
    is fixed per column and only the position inside a stratum comes from
    ``rng``, so the simulated competition, and the revert share with it,
    barely moves between seeds."""
    order = np.random.default_rng([n, column]).permutation(n)
    u = (order + rng.uniform(size=n)) / n
    return [float(v) for v in lo + (hi - lo) * u]


def _draw_bots(rng: np.random.Generator, shapes: list[tuple[str, int, int]], size_scale: float) -> list[dict]:
    """Bots with the given (strategy, n_chunks, k_copies); sizes, fees,
    latencies and slippage tolerances are stratified draws."""
    n = len(shapes)
    columns = zip(
        _stratified(rng, 0.5 * size_scale, 1.5 * size_scale, n, 0),
        _stratified(rng, 0.0, 20.0, n, 1),
        _stratified(rng, 0.01, 0.2, n, 2),
        _stratified(rng, 0.0, 0.1, n, 3),
        _stratified(rng, 0.005, 0.08, n, 4),
    )
    return [
        {
            "name": f"bot{i:02d}",
            "strategy": strategy,
            "trade_size": size,
            "n_chunks": n_chunks,
            "k_copies": k_copies,
            "priority_fee": float(round(fee)),
            "latency_mean": latency,
            "latency_jitter": jitter,
            "slippage_tolerance": slippage,
        }
        for i, ((strategy, n_chunks, k_copies), (size, fee, latency, jitter, slippage)) in enumerate(
            zip(shapes, columns)
        )
    ]


def simulate_large(seed: int, in_dir: Path) -> Workload:
    """One fcfs scenario: 16 bots (four per strategy), an opportunity every
    0.5 s, nonzero gas and liquidation penalty."""
    rng = np.random.default_rng([seed, 2])
    shapes = [("single_shot", 1, 1)] * 4
    shapes += [("split_n", 4 + 2 * level, 1) for level in range(4)]
    shapes += [("duplicate_k", 1, 2 + level) for level in range(4)]
    shapes += [("split_and_duplicate", 2 + level, 2) for level in range(4)]
    cfg = {
        "version": 1,
        "block_time": 0.25,
        "ordering": "fcfs",
        "pool": {"reserve_x": 1e6, "reserve_y": 2e6, "fee": 0.003},
        "cex_price": 1.8,
        "horizon": LARGE_HORIZON,
        "opportunity_refresh": 0.5,
        "seed": int(rng.integers(0, 2**31)),
        "gas_overhead": 5.0,
        "liquidation_penalty": 20.0,
        "bots": _draw_bots(rng, shapes, LARGE_SIZE),
    }
    path = in_dir / "large.json"
    _write_json(path, cfg)
    expected = _expected_txs(cfg)
    request = Request(["--quiet", "simulate", "--config", str(path), "--out", "{out}"], {".": expected})
    return Workload("simulate_large", [request])


# ----------------------------------------------------------------- analyze

_TOKENS = ("WETH", "USDC", "USDT", "WBTC", "DAI", "ARB")
_LABEL_HEADER = ["address", "kind", "dex", "pair", "fee_tier", "owner_label", "has_code"]
_RECORD_HEADER = [
    "tx_hash", "day", "block_number", "tx_index", "status", "from_address", "to_address",
    "gas_price", "priority_fee_per_gas", "gas_used", "l1_fee", "chain",
]
# trace kinds and their share of trees; the first four are swaps
_KINDS = (
    ("v3_swap", 0.30), ("v2_swap", 0.15), ("multihop", 0.05), ("v4_swap", 0.15),
    ("transfer_only", 0.08), ("v4_one_token", 0.06), ("pool_staticcall", 0.06),
    ("pool_delegatecall", 0.05), ("router_only", 0.05), ("unlabeled", 0.05),
)


def _addr(rng: np.random.Generator) -> str:
    return "0x" + rng.bytes(20).hex()


def _labels(rng: np.random.Generator) -> tuple[dict, list[list[str]]]:
    """Label library by role, and its CSV rows."""
    lab = {"token": {}, "pool_v3": [], "pool_v2": [], "router": [], "bot": [], "owned": []}
    rows = []
    for sym in _TOKENS:
        a = _addr(rng)
        lab["token"][sym] = a
        rows.append([a, "token", "", sym, "", "", "true"])
    pairs = [(a, b) for i, a in enumerate(_TOKENS) for b in _TOKENS[i + 1 :]]
    for kind, dexes, count in (("pool_v3", ("uniswap", "pancake"), 10), ("pool_v2", ("uniswap", "sushi"), 8)):
        for j in range(count):
            a = _addr(rng)
            pair = "-".join(pairs[int(rng.integers(len(pairs)))])
            dex = dexes[j % 2]
            lab[kind].append((a, dex, pair))
            rows.append([a, kind, dex, pair, "500" if kind == "pool_v3" else "", "", "true"])
    lab["manager"] = _addr(rng)
    rows.append([lab["manager"], "pool_manager_v4", "uniswap", "", "", "", "true"])
    for kind, count, owner in (("router", 3, ""), ("bot", 30, ""), ("owned", 10, "exchange")):
        for _ in range(count):
            a = _addr(rng)
            lab[kind].append(a)
            rows.append([a, "router" if kind == "router" else "other", "uniswap" if kind == "router" else "", "", "", owner, "true"])
    return lab, rows


def _frame(src: str, dst: str, depth: int, kind: str = "call", children=()) -> dict:
    f = {"from_address": src, "to_address": dst, "call_kind": kind, "depth": depth}
    if children:
        f["children"] = list(children)
    return f


def _tree(rng: np.random.Generator, lab: dict, kind: str, sender: str, target: str, deep: bool):
    """One call tree of about ten frames (or a narrow chain when ``deep``)
    and its expected classification."""
    tok = lab["token"]
    syms = [str(s) for s in rng.choice(_TOKENS, size=2, replace=False)]
    signal, truth = [], {"is_swap": False, "dex": None, "pool": None, "pair": None}
    if kind in ("v3_swap", "v2_swap", "multihop"):
        pools = lab["pool_v2" if kind == "v2_swap" else "pool_v3"]
        hops = [pools[int(i)] for i in rng.choice(len(pools), size=2 if kind == "multihop" else 1, replace=False)]
        for a, _, pair in hops:
            signal.append(("call", a, [("call", tok[pair.split("-")[0]])]))
        a, dex, pair = hops[0]
        truth = {"is_swap": True, "dex": f"{dex}_{'v2' if kind == 'v2_swap' else 'v3'}", "pool": a, "pair": pair}
    elif kind == "v4_swap":
        signal = [("call", lab["manager"], []), ("staticcall", tok[syms[0]], []), ("call", tok[syms[1]], [])]
        truth = {"is_swap": True, "dex": "uniswap_v4", "pool": lab["manager"], "pair": "-".join(sorted(syms))}
    elif kind == "transfer_only":
        signal = [("call", tok[syms[0]], []), ("call", tok[syms[1]], [])]
    elif kind == "v4_one_token":
        signal = [("call", lab["manager"], []), ("staticcall", tok[syms[0]], [])]
    elif kind in ("pool_staticcall", "pool_delegatecall"):
        a = lab["pool_v3"][int(rng.integers(len(lab["pool_v3"])))][0]
        signal = [(kind.split("_")[1], a, [])]
    elif kind == "router_only":
        signal = [("call", lab["router"][int(rng.integers(len(lab["router"])))], [])]

    def fill(parent: str, depth: int) -> dict:
        return _frame(parent, _addr(rng) if rng.random() < 0.7 else lab["owned"][int(rng.integers(10))], depth)

    def signal_frames(parent: str, depth: int) -> list[dict]:
        return [
            _frame(parent, dst, depth, ck, [_frame(dst, sub, depth + 1, sk) for sk, sub in subs])
            for ck, dst, subs in signal
        ]

    if deep:
        # a chain of single calls with the signal at the bottom, deepest frame at depth <= 64
        length = int(rng.integers(16, 63))
        hops = [target] + [_addr(rng) for _ in range(length)]
        below = signal_frames(hops[-1], length + 1)
        for d in range(length, 0, -1):
            below = [_frame(hops[d - 1], hops[d], d, "call", below)]
        return _frame(sender, target, 0, "call", below), truth

    children = [fill(target, 1) for _ in range(int(rng.integers(2, 5)))]
    at = int(rng.integers(len(children) + 1))
    children[at:at] = signal_frames(target, 1)
    nested = children[int(rng.integers(len(children)))]
    nested["children"] = nested.get("children", []) + [fill(nested["to_address"], 2) for _ in range(2)]
    return _frame(sender, target, 0, "call", children), truth


def analyze_corpus(seed: int, in_dir: Path) -> Workload:
    """5k trace files over v2/v3 pools, a v4 pool manager, tokens, routers
    and bot contracts, plus one fee record per file across two chains and
    seven days."""
    rng = np.random.default_rng([seed, 4])
    lab, label_rows = _labels(rng)
    traces = in_dir / "traces"
    traces.mkdir()
    with open(in_dir / "labels.csv", "w") as fh:
        fh.write("\n".join(",".join(r) for r in [_LABEL_HEADER, *label_rows]) + "\n")

    n_jsonl = round(CORPUS_JSONL_SHARE * CORPUS_FILES)
    is_jsonl = np.zeros(CORPUS_FILES, dtype=bool)
    is_jsonl[rng.permutation(CORPUS_FILES)[:n_jsonl]] = True
    n_trees = CORPUS_FILES + n_jsonl  # JSON-lines files hold two trees each
    kinds = np.repeat(np.arange(len(_KINDS)), [round(s * n_trees) for _, s in _KINDS])
    kinds = np.resize(kinds, n_trees)[rng.permutation(n_trees)]
    deep = rng.random(n_trees) < CORPUS_DEEP_SHARE
    senders = [_addr(rng) for _ in range(200)]
    day0 = dt.date(2025, 5, 1)

    expected, records, tree = {}, [], 0
    for i in range(CORPUS_FILES):
        tx_hash = "0x" + rng.bytes(32).hex()
        sender = senders[int(rng.integers(len(senders)))]
        target = lab["bot"][int(rng.integers(30))] if rng.random() < 0.8 else lab["router"][int(rng.integers(3))]
        docs = []
        for _ in range(2 if is_jsonl[i] else 1):
            doc, truth = _tree(rng, lab, _KINDS[kinds[tree]][0], sender, target, bool(deep[tree]))
            docs.append(doc)
            expected.setdefault(tx_hash, []).append(truth)
            tree += 1
        text = "\n".join(json.dumps(d) for d in docs)
        (traces / f"{tx_hash}.json").write_text(text + "\n")

        reverted = rng.random() < 0.75
        fee_draw = rng.random()
        priority = 0 if fee_draw < 0.3 else 1 if fee_draw < 0.5 else int(rng.integers(2, 10**6))
        records.append([
            tx_hash,
            (day0 + dt.timedelta(days=int(rng.integers(CORPUS_DAYS)))).isoformat(),
            int(rng.integers(10**7, 10**8)),
            int(rng.geometric(0.3)) - 1 if reverted else int(rng.integers(0, 200)),
            "reverted" if reverted else "success",
            sender,
            target,
            priority + int(rng.integers(10**6, 10**8)),
            priority,
            int(rng.integers(21_000, 500_000)),
            int(rng.integers(0, 10**12)),
            CORPUS_CHAINS[int(rng.integers(len(CORPUS_CHAINS)))],
        ])
    with open(in_dir / "records.csv", "w") as fh:
        fh.write("\n".join(",".join(map(str, r)) for r in [_RECORD_HEADER, *records]) + "\n")

    argv = [
        "--quiet", "analyze", "--traces", str(traces), "--labels", str(in_dir / "labels.csv"),
        "--records", str(in_dir / "records.csv"), "--out", "{out}", "--min-bot-reverts", str(MIN_BOT_REVERTS),
    ]
    return Workload("analyze_corpus", [Request(argv, {".": n_trees})], {"classifications": expected, "records": records})


GENERATORS = {
    "optimize_sweep": optimize_sweep,
    "simulate_large": simulate_large,
    "analyze_corpus": analyze_corpus,
}


def generate(name: str, seed: int, in_dir: Path) -> Workload:
    """Write workload ``name``'s inputs for ``seed`` into ``in_dir`` (created
    empty) and return its requests and ground truth."""
    in_dir.mkdir(parents=True)
    return GENERATORS[name](seed, in_dir)
