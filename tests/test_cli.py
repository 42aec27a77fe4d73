import argparse
import builtins
import collections
import contextlib
import csv
import datetime
import errno
import gc
import hashlib
import io
import json
import math
import os
import pathlib
import stat
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import splitmev
from splitmev import ConfigError, NoRootError, __version__, cli, sequencer_sim
from splitmev.cli import _json_text, _parse, build_parser, main
from splitmev.trace_analysis import SwapClassification, build_graph, classify_swap

OPTIMIZE_CONFIG = {
    "version": 1,
    "pool": {"reserve_x": 1000.0, "reserve_y": 2000.0, "fee": 0.0},
    "params": {"total_size": 100.0, "cex_price": 1.9, "gas_overhead": 1.0},
    "model": {"family": "constant", "parameters": {}},
}


SIM_CONFIG = {
    "version": 1,
    "block_time": 0.25,
    "pool": {"reserve_x": 1000.0, "reserve_y": 2000.0, "fee": 0.003},
    "cex_price": 1.8,
    "horizon": 1.0,
    "seed": 42,
    "bots": [{"name": "spammer", "strategy": "duplicate_k", "trade_size": 10.0, "k_copies": 5}],
}


def edited(base, drop=(), **changes):
    return {**{k: v for k, v in base.items() if k not in drop}, **changes}


OPT, SIM, BOT = OPTIMIZE_CONFIG, SIM_CONFIG, SIM_CONFIG["bots"][0]
TABLE_WITHOUT_QS = {"family": "table_interpolated", "parameters": {"ps": [1.0, 0.5]}}
TABLE_NOT_INCREASING = {"family": "table_interpolated", "parameters": {"qs": [0.0, 0.0], "ps": [1.0, 0.5]}}

# (subcommand, config, path of the offending field): first the thirteen
# configs that exited 1 with a traceback, were accepted, or named no field
# path before the config builder; then checks of the builder itself
MALFORMED_CONFIGS = {
    "opt-model-no-family": ("optimize", edited(OPT, model={"parameters": {}}), "config.model.family"),
    "opt-pool-number": ("optimize", edited(OPT, pool=5), "config.pool"),
    "opt-top-level-number": ("optimize", 5, "config"),
    "opt-rel-tol-string": ("optimize", edited(OPT, rel_tol="abc"), "config.rel_tol"),
    "opt-table-no-qs": ("optimize", edited(OPT, model=TABLE_WITHOUT_QS), "config.model.parameters.qs"),
    "opt-size-string": (
        "optimize",
        edited(OPT, params=edited(OPT["params"], total_size="100")),
        "config.params.total_size",
    ),
    "sim-bot-no-size": ("simulate", edited(SIM, bots=[edited(BOT, drop=["trade_size"])]), "config.bots[0].trade_size"),
    "sim-size-string": ("simulate", edited(SIM, bots=[edited(BOT, trade_size="1")]), "config.bots[0].trade_size"),
    "sim-bots-number": ("simulate", edited(SIM, bots=5), "config.bots"),
    "sim-pool-list": ("simulate", edited(SIM, pool=[1, 2]), "config.pool"),
    "sim-block-time-string": ("simulate", edited(SIM, block_time="0.25"), "config.block_time"),
    "sim-seed-float": ("simulate", edited(SIM, seed=1.7), "config.seed"),
    "sim-no-horizon": ("simulate", edited(SIM, drop=["horizon"]), "config.horizon"),
    "opt-rel-tol-zero": ("optimize", edited(OPT, rel_tol=0), "config.rel_tol"),
    "opt-nested-version": ("optimize", edited(OPT, pool=edited(OPT["pool"], version=1)), "config.pool.version"),
    "sim-bool-price": ("simulate", edited(SIM, cex_price=True), "config.cex_price"),
    "sim-huge-price": ("simulate", edited(SIM, cex_price=10**400), "config.cex_price"),
    "sim-bot-check": ("simulate", edited(SIM, bots=[edited(BOT, trade_size=0.0)]), "config.bots[0].trade_size"),
    "opt-pool-check": ("optimize", edited(OPT, pool=edited(OPT["pool"], reserve_x=0.0)), "config.pool"),
    # the floor is the constant DEFAULT_FLOOR, not a config field
    "opt-model-floor": ("optimize", edited(OPT, model=edited(OPT["model"], floor=0.001)), "config.model.floor"),
    "opt-model-parameters-floor": (
        "optimize",
        edited(OPT, model=edited(OPT["model"], parameters={"floor": 0.5})),
        "config.model.parameters.floor",
    ),
    "opt-table-check": ("optimize", edited(OPT, model=TABLE_NOT_INCREASING), "config.model.parameters.qs"),
    # a convex table (exponential decay sampled at 0, 25, ..., 500): p'' <= 0 fails
    "opt-table-convex": (
        "optimize",
        edited(OPT, model={"family": "table_interpolated", "parameters": {
            "qs": [25.0 * k for k in range(21)], "ps": [math.exp(-0.25 * k) for k in range(21)]}}),
        "config.model.parameters.ps",
    ),
    # a table's size, shape and start are checked before its first point is read
    **{
        f"opt-table-{name}": (
            "optimize",
            edited(OPT, model={"family": "table_interpolated", "parameters": {"qs": qs, "ps": ps}}),
            f"config.model.parameters.{field}",
        )
        for name, qs, ps, field in [
            ("one-point", [0.0], [1.0], "qs"),
            ("short-ps", [0.0, 10.0], [1.0], "ps"),
            ("bad-start", [0.0, 10.0], [0.9, 0.5], "ps"),
        ]
    },
    # the kernels divide by q_max**alpha, which a float's ** cannot raise to 1e15000
    "opt-power-overflow": (
        "optimize",
        edited(OPT, model={"family": "power_concave", "parameters": {"q_max": 1e300, "alpha": 50.0}}),
        "config.model.parameters.q_max",
    ),
    # ... and by a q_max**alpha that underflows below the smallest normal float
    "opt-power-underflow": (
        "optimize",
        edited(OPT, model={"family": "power_concave", "parameters": {"q_max": 1e-200, "alpha": 2.0}}),
        "config.model.parameters.q_max",
    ),
    # JSON's Infinity: no end to the opportunity schedule, or a NaN in it
    "sim-infinite-horizon": ("simulate", edited(SIM, horizon=math.inf, opportunity_refresh=0.5), "config.horizon"),
    "sim-infinite-refresh": ("simulate", edited(SIM, opportunity_refresh=math.inf), "config.opportunity_refresh"),
    # JSON's Infinity in a price, cost, size, fee or latency: a NaN draw, or
    # an infinite profit or fee in report.json
    "sim-infinite-price": ("simulate", edited(SIM, cex_price=math.inf), "config.cex_price"),
    "sim-infinite-gas": ("simulate", edited(SIM, gas_overhead=math.inf), "config.gas_overhead"),
    "sim-infinite-penalty": ("simulate", edited(SIM, liquidation_penalty=math.inf), "config.liquidation_penalty"),
    **{
        f"sim-infinite-{key.replace('_', '-')}": (
            "simulate", edited(SIM, bots=[edited(BOT, **{key: math.inf})]), f"config.bots[0].{key}"
        )
        for key in ("trade_size", "priority_fee", "latency_mean", "latency_jitter")
    },
    # JSON's Infinity in an optimizer input: a nonsense plan, an infinite
    # profit in plan.json, or a NaN threshold
    **{
        f"opt-infinite-{key.replace('_', '-')}": (
            "optimize", edited(OPT, params=edited(OPT["params"], **{key: math.inf})), f"config.params.{key}"
        )
        for key in ("total_size", "cex_price", "gas_overhead", "liquidation_penalty")
    },
    **{
        f"opt-infinite-{family}-{key}": (
            "optimize",
            edited(OPT, model={"family": family, "parameters": {**parameters, key: math.inf}}),
            f"config.model.parameters.{key}",
        )
        for family, parameters, key in [
            ("linear_clamped", {}, "slope"),
            ("quadratic_concave", {"b": 1e-6}, "a"),
            ("quadratic_concave", {"a": 0.0005}, "b"),
            ("power_concave", {"alpha": 2.0}, "q_max"),
            ("power_concave", {"q_max": 0.5}, "alpha"),  # 0.5**inf is 0, a finite divisor
        ]
    },
    # a lone surrogate from a JSON escape, which no output file can hold as UTF-8
    "sim-lone-surrogate-name": ("simulate", edited(SIM, bots=[edited(BOT, name="\ud800bot")]), "config.bots[0].name"),
    # two bots with one name, whose profits per_bot_profit.csv would sum; a default name bot{i} too
    "sim-repeated-name": ("simulate", edited(SIM, bots=[BOT, BOT]), "config.bots[1].name"),
    "sim-repeated-default-name": (
        "simulate", edited(SIM, bots=[edited(BOT, name="bot1"), edited(BOT, drop=["name"])]), "config.bots[1].name"
    ),
    # more transactions than MAX_TXS, counted before any is built: a list of 10**20 sizes, and an
    # opportunity schedule that would not end before memory ran out
    "sim-too-many-chunks": (
        "simulate", edited(SIM, bots=[edited(BOT, strategy="split_n", n_chunks=10**20)]), "config.bots"
    ),
    "sim-tiny-refresh": ("simulate", edited(SIM, opportunity_refresh=1e-300), "config.opportunity_refresh"),
    "opt-infinite-table-q": (
        "optimize",
        edited(OPT, model={"family": "table_interpolated", "parameters": {"qs": [0.0, math.inf], "ps": [1.0, 0.5]}}),
        "config.model.parameters.qs",
    ),
    "opt-infinite-table-p": (
        "optimize",
        edited(OPT, model={"family": "table_interpolated", "parameters": {"qs": [0.0, 200.0], "ps": [1.0, -math.inf]}}),
        "config.model.parameters.ps",
    ),
}


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=1))
    return path


def test_optimize_worked_config(tmp_path, configs_dir, capsys):
    out = tmp_path / "out"
    rc = main(
        ["optimize", "--config", str(configs_dir / "optimize_worked.json"), "--out", str(out)]
    )
    assert rc == 0
    with open(out / "plan.json") as fh:
        plan = json.load(fh)
    assert plan["branch"] == "interior_root"
    assert plan["num_chunks"] == 4
    assert plan["chunk_size"] == 25.0
    assert math.isclose(plan["expected_total_profit"], 1.121951219512198, rel_tol=1e-9)
    assert math.isclose(plan["threshold_value"], 16.528925619834695, rel_tol=1e-9)
    curve = (out / "profit_curve.csv").read_text().splitlines()
    assert curve[0] == "n,expected_total_profit"
    assert len(curve) == 41  # header + 10 * n_star rows
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "optimize"
    assert "plan" in capsys.readouterr().out


# one model section of each family with a positive threshold at D = 100
MODEL_SECTIONS = {
    "linear": {"family": "linear_clamped", "parameters": {"slope": 0.001}},
    "power": {"family": "power_concave", "parameters": {"q_max": 500.0, "alpha": 2.0}},
    "quadratic": {"family": "quadratic_concave", "parameters": {"a": 0.0005, "b": 1e-6}},
    "table": {"family": "table_interpolated", "parameters": {"qs": [0.0, 100.0, 200.0], "ps": [1.0, 0.9, 0.5]}},
    "constant": OPTIMIZE_CONFIG["model"],
}


def test_optimize_no_root_exit_code(tmp_path, capsys):
    for name, model in MODEL_SECTIONS.items():
        cfg = dict(OPTIMIZE_CONFIG, model=model)
        cfg["params"] = {"total_size": 100.0, "cex_price": 1.9, "gas_overhead": 0.0}
        path = write_json(tmp_path / f"{name}.json", cfg)
        assert main(["optimize", "--config", str(path), "--out", str(tmp_path / name)]) == 3, name
        assert "anomaly" in capsys.readouterr().err


@pytest.mark.parametrize("reserve_y, theta", [(1e-200, "nan"), (1.0, "-inf")])
@pytest.mark.filterwarnings("error::RuntimeWarning")  # no numpy warning for the underflowed divisor either
def test_optimize_non_finite_threshold_exit_code(tmp_path, capsys, reserve_y, theta):
    # reserves near 1e-200: marginal_out at q = D divides by an underflowed
    # (x + (1-f)q)**2, so no finite threshold separates the two branches
    cfg = edited(
        OPT,
        pool={"reserve_x": 1e-200, "reserve_y": reserve_y, "fee": 0.003},
        params={"total_size": 1e-300, "cex_price": 1.0},
        model=MODEL_SECTIONS["linear"],
    )
    out = tmp_path / "o"
    assert main(["optimize", "--config", str(write_json(tmp_path / "cfg.json", cfg)), "--out", str(out)]) == 3
    assert f"numerical anomaly: threshold is {theta}" in capsys.readouterr().err
    assert list(out.iterdir()) == []  # no plan.json with a NaN or Infinity in it


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no numpy overflow warning either
def test_optimize_non_finite_profit_exit_code(tmp_path, capsys):
    # a finite threshold, but cex_price * D overflows: the single swap's
    # expected profit, and profit_curve's, are -inf
    cfg = edited(
        OPT,
        pool={"reserve_x": 6.2e200, "reserve_y": 8.8e-229, "fee": 0.0},
        params={"total_size": 2.4e169, "cex_price": 1.2e150, "gas_overhead": 1.0},
        model={"family": "linear_clamped", "parameters": {"slope": 1e-171}},
    )
    out = tmp_path / "o"
    assert main(["optimize", "--config", str(write_json(tmp_path / "cfg.json", cfg)), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "numerical anomaly: expected profit is -inf: the pool's arithmetic has left the float range\n"
    )
    assert list(out.iterdir()) == []  # no plan.json or profit_curve.csv with an infinity in it


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no numpy overflow warning
def test_optimize_power_overflow_where_floor_binds(tmp_path, capsys):
    # (q / q_max)**400 overflows for q above about 5.9, where p is the floor:
    # a total size there is refused: plan's rules would give one swap at
    # -19.01 where 11 chunks give +0.87
    cfg = edited(
        OPT,
        params=edited(OPT["params"], total_size=10.0, gas_overhead=0.01),
        model={"family": "power_concave", "parameters": {"q_max": 1.0, "alpha": 400.0}},
    )
    out = tmp_path / "o"
    assert main(["--quiet", "optimize", "--config", str(write_json(tmp_path / "cfg.json", cfg)), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: total_size 10.0: the success probability is at its floor there\n"
    assert list(out.iterdir()) == []


def test_optimize_table_shorter_than_total_size(tmp_path, capsys):
    short = {"family": "table_interpolated", "parameters": {"qs": [0.0, 50.0], "ps": [1.0, 0.5]}}
    path = write_json(tmp_path / "cfg.json", dict(OPTIMIZE_CONFIG, model=short))
    assert main(["optimize", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "outside declared domain" in err and "Traceback" not in err


def test_optimize_rejects_unknown_field(tmp_path, capsys):
    cfg = dict(OPTIMIZE_CONFIG, turbo=True)
    path = write_json(tmp_path / "cfg.json", cfg)
    assert main(["optimize", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "config.turbo" in capsys.readouterr().err


def test_optimize_rejects_bad_model(tmp_path, capsys):
    cfg = dict(OPTIMIZE_CONFIG, model={"family": "mystery", "parameters": {}})
    path = write_json(tmp_path / "cfg.json", cfg)
    assert main(["optimize", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_optimize_malformed_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    assert main(["optimize", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("subcommand, cfg, field", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS)
def test_malformed_config_names_field(tmp_path, capsys, subcommand, cfg, field):
    path = write_json(tmp_path / "cfg.json", cfg)
    assert main([subcommand, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: {field}: " in err
    assert "Traceback" not in err
    assert list((tmp_path / "o").rglob("*")) == []


@pytest.mark.parametrize("text", [b"[" * 100_000, b"1" * 5000, b"\xff"], ids=["deep", "long-int", "not-utf8"])
def test_unparsable_config_exit_code(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_bytes(text)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"error: {path}: " in capsys.readouterr().err


@pytest.mark.parametrize("subcommand, config", [("optimize", OPTIMIZE_CONFIG), ("simulate", SIM_CONFIG)])
def test_manifest_hashes_the_config_file(tmp_path, subcommand, config):
    path = tmp_path / "cfg.json"
    path.write_bytes(json.dumps(config, indent=3).encode() + b"\n")
    out = tmp_path / "o"
    assert main(["--quiet", subcommand, "--config", str(path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


def test_simulate_scenario_file(tmp_path, scenarios_dir):
    out = tmp_path / "out"
    rc = main(
        [
            "--quiet",
            "simulate",
            "--config",
            str(scenarios_dir / "fcfs_duplicates.json"),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["revert_rate"] == 0.8
    assert metrics["total_txs"] == 5
    hist = (out / "revert_position_histogram.csv").read_text().splitlines()
    assert hist == ["position,count", "1,1", "2,1", "3,1", "4,1"]
    assert (out / "report.json").exists()
    assert (out / "per_bot_profit.csv").exists()


def test_simulate_determinism_byte_identical(tmp_path, scenarios_dir):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert (
            main(
                [
                    "--quiet",
                    "simulate",
                    "--config",
                    str(scenarios_dir / "pfa_latency_race.json"),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        outs.append(out)
    for fname in ("report.json", "metrics.json", "revert_position_histogram.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_simulate_seed_override_changes_report(tmp_path, scenarios_dir):
    base = tmp_path / "base"
    alt = tmp_path / "alt"
    cfg = str(scenarios_dir / "pfa_latency_race.json")
    assert main(["--quiet", "simulate", "--config", cfg, "--out", str(base)]) == 0
    assert (
        main(["--quiet", "simulate", "--config", cfg, "--out", str(alt), "--seed-override", "99"])
        == 0
    )
    assert (base / "report.json").read_bytes() != (alt / "report.json").read_bytes()


def test_simulate_scenario_directory(tmp_path, scenarios_dir):
    out = tmp_path / "out"
    assert main(["--quiet", "simulate", "--config", str(scenarios_dir), "--out", str(out)]) == 0
    subdirs = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert "fcfs_duplicates" in subdirs
    assert "blocktime_slow" in subdirs
    for sub in subdirs:
        assert (out / sub / "metrics.json").exists()


def test_simulate_scenario_stem_keeps_its_inner_dots(tmp_path):
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    write_json(scenarios / "a.b.json", SIM_CONFIG)
    out = tmp_path / "out"
    assert main(["--quiet", "simulate", "--config", str(scenarios), "--out", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["a.b"]
    assert json.loads((out / "a.b" / "manifest.json").read_text())["out_dir"] == f"{out}/a.b"


def test_out_dot_names_outputs_as_given(tmp_path, configs_dir, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "plan.json").mkdir()  # as a file without write permission; root ignores chmod
    assert main(["--quiet", "optimize", "--config", str(configs_dir / "optimize_worked.json"), "--out", "."]) == 2
    assert capsys.readouterr().err == "error: [Errno 21] Is a directory: './plan.json'\n"


def test_paths_are_recorded_as_given(tmp_path, configs_dir, monkeypatch):
    # a path that pathlib would rewrite ("./x", "a//b/") is recorded, and joined, as it was given
    monkeypatch.chdir(configs_dir.parent)
    out = f"{tmp_path}//o/"
    assert main(["--quiet", "optimize", "--config", "./configs/optimize_worked.json", "--out", out]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert (manifest["inputs"], manifest["out_dir"]) == ({"config": "./configs/optimize_worked.json"}, out)
    clean = tmp_path / "clean"
    assert main(["--quiet", "optimize", "--config", "configs/optimize_worked.json", "--out", str(clean)]) == 0
    assert (tmp_path / "o" / "plan.json").read_bytes() == (clean / "plan.json").read_bytes()

    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    write_json(scenarios / "a.json", SIM_CONFIG)
    assert main(["--quiet", "simulate", "--config", f"{scenarios}/", "--out", str(tmp_path / "sim")]) == 0
    manifest = json.loads((tmp_path / "sim" / "a" / "manifest.json").read_text())
    assert manifest["inputs"] == {"config": f"{scenarios}/a.json"}


def test_simulate_empty_directory_is_config_error(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["--quiet", "simulate", "--config", str(empty), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command", ["optimize", "simulate"])
def test_config_name_too_long_is_an_unreadable_input(tmp_path, capsys, command):
    # a stat that fails, as a name over the file system's limit does, makes no directory of
    # scenarios: the config is an input that cannot be read, named once
    path = str(tmp_path / ("a" * 300))
    assert main(["--quiet", command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: File name too long\n")


def test_simulate_unknown_field_exit_code(tmp_path, scenarios_dir, capsys):
    cfg = json.loads((scenarios_dir / "fcfs_duplicates.json").read_text())
    cfg["speed_mode"] = "ludicrous"
    path = write_json(tmp_path / "cfg.json", cfg)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "speed_mode" in capsys.readouterr().err


@pytest.mark.parametrize("latency, arrival", [
    ({"latency_mean": 1.7e308}, "1.7e+308"),  # finite, but arrival // block_time overflows
    ({"latency_mean": 1.7e308, "latency_jitter": 1e308}, "inf"),  # inf // block_time is NaN
])
def test_simulate_arrival_overflow_exit_code(tmp_path, scenarios_dir, capsys, latency, arrival):
    cfg = json.loads((scenarios_dir / "fcfs_duplicates.json").read_text())
    cfg["bots"] = [dict(cfg["bots"][0], **latency)]
    out = tmp_path / "o"
    path = write_json(tmp_path / "cfg.json", cfg)
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr() == ("", (
        f"numerical anomaly: {path}: arrival time {arrival} has no block: "
        "the simulator's arithmetic has left the float range\n"
    ))
    assert list(out.iterdir()) == []


def test_simulate_profit_overflow_exit_code(tmp_path, scenarios_dir, capsys):
    # finite costs whose sum with cex_price * size overflows: each reverted profit is -inf
    cfg = json.loads((scenarios_dir / "fcfs_duplicates.json").read_text())
    cfg.update(gas_overhead=1.7e308, liquidation_penalty=1.7e308)
    out = tmp_path / "o"
    path = write_json(tmp_path / "cfg.json", cfg)
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr() == ("", (
        f"numerical anomaly: {path}: bot 'spammer' has a total profit of -inf: "
        "the simulator's arithmetic has left the float range\n"
    ))
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("trade_size, message", [
    (1e300, "trade size too large relative to reserves (precision guard)"),
    (5e-324, "trade size must be positive and finite"),  # 5e-324 / 4 is 0.0
])
def test_simulate_sweep_names_a_scenario_that_fails_while_it_runs(tmp_path, capsys, trade_size, message):
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    write_json(scenarios / "a.json", SIM_CONFIG)
    bot = {"name": "big", "strategy": "split_n", "trade_size": trade_size, "n_chunks": 4}
    write_json(scenarios / "b.json", edited(SIM_CONFIG, bots=[bot]))
    out = tmp_path / "o"
    assert main(["--quiet", "simulate", "--config", str(scenarios), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {scenarios}/b.json: {message}\n")
    assert sorted(p.name for p in out.iterdir()) == ["a"]
    assert (out / "a" / "manifest.json").exists()


def test_analyze_fixture_corpus(tmp_path, fixtures_dir):
    out = tmp_path / "out"
    rc = main(
        [
            "--quiet",
            "analyze",
            "--traces",
            str(fixtures_dir / "traces"),
            "--labels",
            str(fixtures_dir / "labels.csv"),
            "--records",
            str(fixtures_dir / "records.csv"),
            "--out",
            str(out),
            "--min-bot-reverts",
            "3",
        ]
    )
    assert rc == 0
    lines = (out / "classifications.jsonl").read_text().splitlines()
    assert len(lines) == 20
    assert sum(1 for l in lines if json.loads(l)["is_swap"]) == 10

    dex_rows = (out / "breakdown_dex.csv").read_text().splitlines()
    assert dex_rows[0] == "dex,count,share"
    assert dex_rows[1].startswith("uniswap_v3,5,")

    stats = (out / "revert_stats.csv").read_text().splitlines()
    assert stats[0] == "chain,day,revert_rate,priority_revert_rate,differential"
    assert "arbitrum,2025-05-01,0.500000,0.666667,0.166667" in stats

    hist = (out / "position_histogram.csv").read_text().splitlines()
    assert hist[1] == "0,10"

    dist = json.loads((out / "priority_fee_distribution.json").read_text())
    assert dist["count"] == 24

    # `cat labels.csv records.csv | sha256sum`, not a hash of that hash
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_sha256"] == "05465e04c5c4cb79603c6c2d7a1c136f670b9928b50ac54ef46fdd2db5b70a15"

    bots = (out / "bots.csv").read_text().splitlines()
    assert bots[1:] == [
        "0xeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee01",
        "0xeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee02",
    ]


# quotes, backslashes, control and non-ASCII characters, and lone surrogates
LINE_TEXT = st.text(st.one_of(st.sampled_from('"\\\n'), st.characters(), st.integers(0xD800, 0xDFFF).map(chr)))


@st.composite
def classifications(draw):
    """A swap with drawn fields (the pair may be empty), or classify_swap's non-swap."""
    if draw(st.booleans()):
        address = "0x" + "a" * 40
        return classify_swap(build_graph({"from_address": address, "to_address": address}), {})
    return SwapClassification(is_swap=True, dex=draw(LINE_TEXT), pool=draw(LINE_TEXT), pair=draw(LINE_TEXT),
                              evidence=tuple(draw(st.lists(LINE_TEXT, max_size=3))))


@settings(max_examples=300)
@given(LINE_TEXT, classifications())
@example("0x\u00e9\ud800", SwapClassification(True, 'uni"swap\\_v3', "0x" + "b" * 40, "", ("edge 0: \u20ae\udfff",)))
def test_classification_line_is_the_json_dumps_line(tx_hash, cls):
    # a field added to SwapClassification appears in vars(cls), and in no line template
    assert cli._classification_line(tx_hash, cls) == json.dumps({"tx_hash": tx_hash, **vars(cls)}, sort_keys=True) + "\n"


@pytest.fixture
def opened(monkeypatch):
    """How many times each path is opened, by ``os.open``, ``open`` or ``Path.open``."""
    opened = collections.Counter()
    real_os_open, real_open, real_path_open = os.open, builtins.open, pathlib.Path.open

    def counting_os_open(path, *args, **kwargs):  # read_input's reader and the output writer
        opened[os.fspath(path)] += 1
        return real_os_open(path, *args, **kwargs)

    def counting_open(file, *args, **kwargs):
        opened[str(file)] += 1
        return real_open(file, *args, **kwargs)

    def counting_path_open(self, *args, **kwargs):  # read_bytes and read_text go through it
        opened[str(self)] += 1
        return real_path_open(self, *args, **kwargs)

    monkeypatch.setattr(os, "open", counting_os_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(pathlib.Path, "open", counting_path_open)
    return opened


def test_analyze_reads_each_input_once(tmp_path, fixtures_dir, opened):
    labels, records = fixtures_dir / "labels.csv", fixtures_dir / "records.csv"
    out = tmp_path / "out"
    argv = ["--quiet", "analyze", "--traces", str(fixtures_dir / "traces"), "--labels", str(labels)]
    assert main(argv + ["--records", str(records), "--out", str(out)]) == 0
    inputs = [labels, records, *sorted((fixtures_dir / "traces").glob("*.json"))]
    assert {str(p): opened[str(p)] for p in inputs} == {str(p): 1 for p in inputs}
    manifest = json.loads((out / "manifest.json").read_text())
    # the bytes that were read once are the bytes hashed: labels, then records
    assert manifest["config_sha256"] == hashlib.sha256(labels.read_bytes() + records.read_bytes()).hexdigest()


def test_optimize_reads_its_config_once(tmp_path, configs_dir, opened):
    config = configs_dir / "optimize_worked.json"
    assert main(["--quiet", "optimize", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert opened[str(config)] == 1


@pytest.mark.parametrize("directory", [False, True], ids=["file", "directory"])
def test_simulate_reads_each_scenario_once(tmp_path, scenarios_dir, opened, directory):
    config = scenarios_dir if directory else scenarios_dir / "fcfs_duplicates.json"
    assert main(["--quiet", "simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    inputs = sorted(scenarios_dir.glob("*.json")) if directory else [config]
    assert len(inputs) > 1 or not directory
    assert {str(p): opened[str(p)] for p in inputs} == {str(p): 1 for p in inputs}


def test_analyze_malformed_trace_leaves_out_as_it_was(tmp_path, fixtures_dir, capsys):
    # classifications are written only once every trace has parsed: a bad
    # trace after good ones leaves an earlier run's files as they were
    traces = tmp_path / "traces"
    traces.mkdir()
    for path in (fixtures_dir / "traces").iterdir():
        (traces / path.name).write_bytes(path.read_bytes())
    out = tmp_path / "out"
    argv = ["--quiet", "analyze", "--traces", str(traces), "--labels", str(fixtures_dir / "labels.csv"),
            "--records", str(fixtures_dir / "records.csv"), "--out", str(out)]
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    # one more good trace, so lines streamed before the bad one would differ from the first run's
    (traces / "t21_copy.json").write_bytes((traces / "t01_v3_swap_usdc_weth_500.json").read_bytes())
    bad = write_json(traces / "zz_bad.json", {"from_address": "0xzz"})  # sorts after every good trace
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {bad}[0]: bad address '0xzz'\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_traces_dot_names_a_trace_as_given(tmp_path, fixtures_dir, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "x.json", {"from_address": "0xzz"})
    argv = ["--quiet", "analyze", "--traces", ".", "--labels", str(fixtures_dir / "labels.csv"),
            "--records", str(fixtures_dir / "records.csv"), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: ./x.json[0]: bad address '0xzz'\n"


def test_trace_tx_hash_is_the_name_without_json(tmp_path, fixtures_dir):
    traces = tmp_path / "traces"
    traces.mkdir()
    tree = (fixtures_dir / "traces" / "t01_v3_swap_usdc_weth_500.json").read_bytes()
    for name in (".json", "..json", "a.b.json"):
        (traces / name).write_bytes(tree)
    out = tmp_path / "out"
    assert main(["--quiet", "analyze", "--traces", str(traces), "--labels", str(fixtures_dir / "labels.csv"),
                 "--records", str(fixtures_dir / "records.csv"), "--out", str(out)]) == 0
    rows = (out / "classifications.jsonl").read_text().splitlines()
    assert [json.loads(row)["tx_hash"] for row in rows] == [".", ".json", "a.b"]  # in name order


def test_analyze_empty_traces_dir(tmp_path, fixtures_dir):
    empty = tmp_path / "traces"
    empty.mkdir()
    out = tmp_path / "out"
    rc = main(
        [
            "--quiet",
            "analyze",
            "--traces",
            str(empty),
            "--labels",
            str(fixtures_dir / "labels.csv"),
            "--records",
            str(fixtures_dir / "records.csv"),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert (out / "classifications.jsonl").read_text() == ""
    assert (out / "breakdown_dex.csv").read_text().splitlines() == ["dex,count,share"]


def test_analyze_bad_label_header(tmp_path, fixtures_dir, capsys):
    header = "address,kind,dex,pair,fee_tier,owner_label,has_code\n"
    address = "0x" + "a" * 40
    bad_inputs = {  # labels text -> the error after the path
        f"address,kind\n{address},router\n": ": expected header",
        f"{header}{address},router,uniswap,,,\n": " line 2: expected 7 cells",  # 6 cells
        f"{header}{address},router,uniswap,,,,true,extra\n": " line 2: expected 7 cells",  # 8 cells
        f"{header}{address},router,{'x' * 200_000},,,,true\n": " line 2: field larger than field limit",
    }
    bad = tmp_path / "labels.csv"
    for text, message in bad_inputs.items():
        bad.write_text(text)
        argv = ["analyze", "--traces", str(fixtures_dir / "traces"), "--labels", str(bad)]
        argv += ["--records", str(fixtures_dir / "records.csv"), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}{message}") and "Traceback" not in err


@pytest.mark.parametrize("bad_file", ["trace", "labels"])
def test_analyze_rejects_address_with_trailing_newline(tmp_path, fixtures_dir, capsys, bad_file):
    address = "0x" + "a" * 40 + "\n"
    traces = tmp_path / "traces"
    traces.mkdir()
    to = address if bad_file == "trace" else "0x" + "b" * 40
    write_json(traces / "t.json", {"from_address": "0x" + "c" * 40, "to_address": to})
    labels = tmp_path / "labels.csv"
    labels.write_bytes((fixtures_dir / "labels.csv").read_bytes())
    if bad_file == "labels":
        with open(labels, "a", newline="") as fh:
            csv.writer(fh).writerow([address, "router", "uniswap", "", "", "", "true"])
    argv = ["analyze", "--traces", str(traces), "--labels", str(labels)]
    argv += ["--records", str(fixtures_dir / "records.csv"), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert "bad address '0xaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\\n'" in capsys.readouterr().err


def test_analyze_rejects_unknown_label_kind(tmp_path, fixtures_dir, capsys):
    # an unknown kind used to pass, and drop the fixtures' 10 swaps to 9
    labels = tmp_path / "labels.csv"
    text = (fixtures_dir / "labels.csv").read_text()
    assert text.splitlines()[2].split(",")[1] == "pool_v3"
    labels.write_text(text.replace(",pool_v3,", ",pool_v33,", 1))
    argv = ["analyze", "--traces", str(fixtures_dir / "traces"), "--labels", str(labels)]
    assert main(argv + ["--records", str(fixtures_dir / "records.csv"), "--out", str(tmp_path / "o")]) == 2
    known = ["other", "pool_manager_v4", "pool_v2", "pool_v3", "router", "token"]
    assert capsys.readouterr().err == f"error: {labels} line 3: unknown kind 'pool_v33'; known: {known}\n"


@pytest.mark.parametrize("column", ["from_address", "to_address"])
def test_analyze_rejects_bad_record_address(tmp_path, fixtures_dir, capsys, column):
    # the last 11 rows of the fixture records name no address in ``column``
    rows = list(csv.reader((fixtures_dir / "records.csv").read_text().splitlines()))
    index = rows[0].index(column)
    for row in rows[-11:]:
        row[index] = "not-an-address"
    records = tmp_path / "records.csv"
    with open(records, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    argv = ["analyze", "--traces", str(fixtures_dir / "traces"), "--labels", str(fixtures_dir / "labels.csv")]
    assert main(argv + ["--records", str(records), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {records} line {len(rows) - 10}: bad {column} 'not-an-address'\n"


@pytest.mark.parametrize("fee, code", [(10**400, 2), (2**256 - 1, 0)], ids=["10**400", "2**256-1"])
def test_analyze_record_integers_are_uint256(tmp_path, fixtures_dir, capsys, fee, code):
    # a reverted row's priority fee beyond an EVM quantity's range exits 2 naming the file and line,
    # where its fee quantile would not fit a float; the largest uint256 gives finite quantiles
    rows = list(csv.reader((fixtures_dir / "records.csv").read_text().splitlines()))
    line = next(i for i, row in enumerate(rows) if row[rows[0].index("status")] == "reverted") + 1
    rows[line - 1][rows[0].index("priority_fee_per_gas")] = str(fee)
    records = tmp_path / "records.csv"
    with open(records, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    argv = ["--quiet", "analyze", "--traces", str(fixtures_dir / "traces"), "--labels", str(fixtures_dir / "labels.csv")]
    assert main(argv + ["--records", str(records), "--out", str(tmp_path / "o")]) == code
    if code:
        assert capsys.readouterr().err == f"error: {records} line {line}: priority_fee_per_gas must be below 2**256\n"
        return
    assert capsys.readouterr() == ("", "")
    quantiles = json.loads((tmp_path / "o" / "priority_fee_distribution.json").read_text())["quantiles"]
    assert quantiles and all(math.isfinite(q) for q in quantiles.values())
    assert max(quantiles.values()) <= float(2**256 - 1)


def test_analyze_rejects_min_bot_reverts_below_one(tmp_path, fixtures_dir, capsys):
    argv = ["analyze", "--traces", str(fixtures_dir / "traces"), "--labels", str(fixtures_dir / "labels.csv")]
    argv += ["--records", str(fixtures_dir / "records.csv"), "--out", str(tmp_path / "o")]
    # a value that is not an int is worded as argparse words type=int, not by the type function's name
    for value, message in [("0", "argument --min-bot-reverts: must be >= 1, got 0"),
                           ("abc", "argument --min-bot-reverts: invalid int value: 'abc'")]:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--min-bot-reverts", value])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"splitmev analyze: error: {message}\n")


def test_simulate_rejects_negative_seed_override(tmp_path, scenarios_dir, capsys):
    # a usage error that names the option, not the config file's seed
    argv = ["simulate", "--config", str(scenarios_dir / "fcfs_duplicates.json"), "--out", str(tmp_path / "o")]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed-override", "-1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("splitmev simulate: error: argument --seed-override: must be >= 0, got -1\n")
    assert not (tmp_path / "o").exists()


def test_out_dir_from_environment(tmp_path, configs_dir, monkeypatch):
    out = tmp_path / "env_out"
    monkeypatch.setenv("SPLITMEV_OUT", str(out))
    rc = main(["--quiet", "optimize", "--config", str(configs_dir / "optimize_worked.json")])
    assert rc == 0
    assert (out / "plan.json").exists()


def test_out_dir_environment_read_on_every_call(tmp_path, configs_dir, monkeypatch, capsys):
    argv = ["--quiet", "optimize", "--config", str(configs_dir / "optimize_worked.json")]
    for name in ("first", "second"):
        monkeypatch.setenv("SPLITMEV_OUT", str(tmp_path / name))
        assert main(argv) == 0
        assert (tmp_path / name / "plan.json").exists()
    # unset, or set empty: Path("") would be the working directory
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    for value in (None, ""):
        if value is None:
            monkeypatch.delenv("SPLITMEV_OUT")
        else:
            monkeypatch.setenv("SPLITMEV_OUT", value)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("splitmev: error: the following arguments are required: --out\n")
    assert list((tmp_path / "cwd").iterdir()) == []
    assert main(argv + ["--out", str(tmp_path / "third")]) == 0
    assert (tmp_path / "third" / "plan.json").exists()
    monkeypatch.setenv("SPLITMEV_OUT", str(tmp_path / "fourth"))
    assert main(argv + ["--out", str(tmp_path / "fifth")]) == 0  # --out wins over the environment
    assert (tmp_path / "fifth" / "plan.json").exists() and not (tmp_path / "fourth").exists()


# plan.json of configs/optimize_worked.json (the constant model), floats as float.hex
WORKED_PLAN = {
    "branch": "interior_root",
    "chunk_size": "0x1.9000000000000p+4",
    "expected_total_profit": "0x1.1f3831f383200p+0",
    "num_chunks": 4,
    "threshold_value": "0x1.08767ab5f34e0p+4",
    "truncated": False,
}


def test_constant_family_plans_bit_for_bit(tmp_path, configs_dir):
    worked = json.loads((configs_dir / "optimize_worked.json").read_text())
    assert worked["model"] == {"family": "constant", "parameters": {}}
    for name, cfg in {"worked": worked, "bare": edited(worked, model={"family": "constant"})}.items():
        out = tmp_path / name
        assert main(["--quiet", "optimize", "--config", str(write_json(tmp_path / f"{name}.json", cfg)), "--out", str(out)]) == 0
        plan = json.loads((out / "plan.json").read_text())
        assert {k: v.hex() if type(v) is float else v for k, v in plan.items()} == WORKED_PLAN, name


# every file a subcommand reads, by the option that names it ("--traces":
# one trace file in that directory), and the ways it can be unusable
INPUTS = [("optimize", "--config"), ("simulate", "--config"), ("analyze", "--labels"),
          ("analyze", "--records"), ("analyze", "--traces")]
FAULTS = ["missing", "directory", "not-utf8", "empty", "bom"]
# an empty trace file holds no call trees, and so no error
PATH_FAULTS = [(*key, fault) for key in INPUTS for fault in FAULTS if key[1] != "--traces" or fault != "empty"]
PATH_FAULTS += [(subcommand, "--out", "below-a-file") for subcommand in ("optimize", "simulate", "analyze")]
# a directory that cannot be listed: the traces, or a simulate scenario directory
PATH_FAULTS += [("analyze", "--traces", "unlistable"), ("simulate", "--config", "unlistable")]


def valid_inputs(tmp_path, fixtures_dir, configs_dir):
    """Each subcommand's argv over valid copies of its inputs in ``tmp_path``,
    and the path of each copy."""
    paths = dict(zip(INPUTS, [tmp_path / "optimize.json", tmp_path / "simulate.json", tmp_path / "labels.csv",
                              tmp_path / "records.csv", tmp_path / "traces" / "t.json"]))
    paths["optimize", "--config"].write_bytes((configs_dir / "optimize_worked.json").read_bytes())
    write_json(paths["simulate", "--config"], SIM_CONFIG)
    for name in ("labels.csv", "records.csv"):
        (tmp_path / name).write_bytes((fixtures_dir / name).read_bytes())
    (tmp_path / "traces").mkdir()
    paths["analyze", "--traces"].write_bytes((fixtures_dir / "traces" / "t01_v3_swap_usdc_weth_500.json").read_bytes())
    argv = {}
    for (subcommand, option), path in paths.items():
        argv.setdefault(subcommand, [subcommand]).extend([option, str(path.parent if option == "--traces" else path)])
    return argv, paths


@pytest.mark.parametrize("subcommand, option, fault", PATH_FAULTS, ids=[f"{s}{o}-{f}" for s, o, f in PATH_FAULTS])
def test_unusable_path_exit_code(tmp_path, fixtures_dir, configs_dir, monkeypatch, capsys, subcommand, option, fault):
    # every input is read once, as UTF-8, by one reader: an input that cannot
    # be read, decoded or parsed, a directory that cannot be listed, or an
    # --out that cannot be created, exits 2 and names its path once
    argv, paths = valid_inputs(tmp_path, fixtures_dir, configs_dir)
    out = tmp_path / "out"
    if option == "--out":
        (tmp_path / "file").write_text("")
        path = out = tmp_path / "file" / "out"
    elif fault == "unlistable":
        path = paths[subcommand, option].parent
        argv[subcommand][argv[subcommand].index(option) + 1] = str(path)
        listdir = os.listdir

        def refuse(directory):  # as a directory without read permission; root ignores chmod
            if os.fspath(directory) == str(path):
                raise PermissionError(13, "Permission denied", os.fspath(directory))
            return listdir(directory)

        monkeypatch.setattr(os, "listdir", refuse)
    else:
        path = paths[subcommand, option]
        good = path.read_bytes()
        path.unlink()
        if fault == "missing" and option == "--traces":
            path = path.parent  # the traces directory itself
            path.rmdir()
        elif fault == "directory":
            path.mkdir()
        elif fault != "missing":
            half = len(good) // 2
            faulty = {"not-utf8": good[:half] + b"\xff" + good[half:], "empty": b"", "bom": b"\xef\xbb\xbf" + good}
            path.write_bytes(faulty[fault])
    assert main(["--quiet", *argv[subcommand], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count(str(path)) == 1 and "Traceback" not in err
    assert fault != "unlistable" or "Permission denied" in err  # the listing failed, not a file in it


EMPTY_PATHS = INPUTS + [(subcommand, "--out") for subcommand in ("optimize", "simulate", "analyze")]


@pytest.mark.parametrize("subcommand, option", EMPTY_PATHS, ids=[f"{s}{o}" for s, o in EMPTY_PATHS])
def test_empty_path_is_a_usage_error(tmp_path, fixtures_dir, configs_dir, monkeypatch, capsys, subcommand, option):
    # Path("") is the working directory: an --out "" wrote its outputs there, and a
    # --traces "" would read the working directory's *.json files as traces
    argv, _ = valid_inputs(tmp_path, fixtures_dir, configs_dir)
    argv = [*argv[subcommand], "--out", str(tmp_path / "out")]
    argv[argv.index(option) + 1] = ""
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    (tmp_path / "cwd" / "t.json").write_bytes((fixtures_dir / "traces" / "t01_v3_swap_usdc_weth_500.json").read_bytes())
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"splitmev {subcommand}: error: argument {option}: empty path\n")
    assert [p.name for p in (tmp_path / "cwd").iterdir()] == ["t.json"] and not (tmp_path / "out").exists()


def run_records(case, out, configs_dir, scenarios_dir, fixtures_dir):
    """The argv of ``case``, and for each output directory it fills: the
    inputs its manifest names, the sha256 of the bytes hashed, and the start
    of its progress line."""
    if case == "analyze":
        traces, labels, records = fixtures_dir / "traces", fixtures_dir / "labels.csv", fixtures_dir / "records.csv"
        argv = ["analyze", "--traces", str(traces), "--labels", str(labels), "--records", str(records)]
        inputs = {"traces": str(traces), "labels": str(labels), "records": str(records)}
        digest = hashlib.sha256(labels.read_bytes() + records.read_bytes()).hexdigest()
        return argv, {out: (inputs, digest, "classified 20 traces (10 swaps)")}
    if case == "optimize":
        config = configs_dir / "optimize_worked.json"
        return ["optimize", "--config", str(config)], {
            out: ({"config": str(config)}, hashlib.sha256(config.read_bytes()).hexdigest(), "plan: branch=")
        }
    if case == "simulate-file":
        config = scenarios_dir / "fcfs_duplicates.json"
        runs = {out: config}
    else:  # one output subdirectory per scenario, and none at the top level
        config = scenarios_dir
        runs = {out / path.stem: path for path in sorted(scenarios_dir.glob("*.json"))}
    return ["simulate", "--config", str(config)], {
        directory: ({"config": str(path)}, hashlib.sha256(path.read_bytes()).hexdigest(), f"{path.name}: ")
        for directory, path in runs.items()
    }


INDENTED_OUTPUT = {"optimize": "plan.json", "simulate": "metrics.json", "analyze": "priority_fee_distribution.json"}


@pytest.mark.parametrize("quiet", [False, True], ids=["progress", "quiet"])
@pytest.mark.parametrize("case", ["optimize", "simulate-file", "simulate-directory", "analyze"])
def test_run_record(tmp_path, configs_dir, scenarios_dir, fixtures_dir, capsys, case, quiet):
    # each output directory gets one manifest with all six keys, and one
    # progress line on stdout unless --quiet is set
    out = tmp_path / "out"
    argv, expected = run_records(case, out, configs_dir, scenarios_dir, fixtures_dir)
    start = datetime.datetime.now(datetime.timezone.utc).replace(microsecond=0)
    assert main(["--quiet"] * quiet + argv + ["--out", str(out)]) == 0
    end = datetime.datetime.now(datetime.timezone.utc)
    assert sorted(out.rglob("manifest.json")) == sorted(directory / "manifest.json" for directory in expected)
    subcommand = argv[0]
    for directory, (inputs, digest, _) in expected.items():
        # the other indented output, in the order written: re-sorting would put a histogram's "10" before "2"
        raw = (directory / INDENTED_OUTPUT[subcommand]).read_bytes()
        assert raw == (json.dumps(json.loads(raw), indent=2) + "\n").encode()
        raw = (directory / "manifest.json").read_bytes()
        manifest = json.loads(raw)
        assert raw == (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()  # the bench digests skip manifests
        stamp = datetime.datetime.strptime(manifest.pop("timestamp"), "%Y-%m-%dT%H:%M:%SZ")
        assert start <= stamp.replace(tzinfo=datetime.timezone.utc) <= end
        assert manifest == {
            "subcommand": subcommand,
            "inputs": inputs,
            "config_sha256": digest,
            "out_dir": str(directory),
            "tool_version": __version__,
        }
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == (0 if quiet else len(expected))
    for line, (_, _, prefix) in zip(lines, expected.values()):
        assert line.startswith(prefix), (line, prefix)


def test_manifest_stamps_the_second_time_time_reads(tmp_path, monkeypatch):
    # half a millisecond before a second ends: the stamp is that second, as
    # time.time() tells it, whatever the kernel's coarse clock reads
    second = 1_700_000_000
    monkeypatch.setattr(time, "time", lambda: second + 0.9995)
    assert optimize_into(tmp_path, OPTIMIZE_CONFIG, tmp_path / "out") == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["timestamp"] == time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(second))


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize(
    "fault, code",
    [(None, 0), ("usage", 2), (ConfigError("x"), 2), (NoRootError("x"), 3), (KeyError("x"), KeyError)],
    ids=["ok", "usage", "config", "anomaly", "escaping"],
)
def test_main_pauses_gc_and_restores_it(tmp_path, monkeypatch, capsys, enabled, fault, code):
    # the cyclic collector is off while a command runs, and main leaves it as
    # the caller had it, however the command ends
    seen = []

    def command(args, out_dir):
        seen.append(gc.isenabled())
        if fault is not None:
            raise fault
        yield from ()

    def parse(argv):
        args = _parse(argv)
        args.command = command
        return args

    monkeypatch.setattr(cli, "_parse", parse)
    argv = ["optimize", "--config", "c.json", "--out", str(tmp_path)] + ["--bogus"] * (fault == "usage")
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            result = main(argv)
        except SystemExit as exc:  # a usage error
            result = exc.code
        except KeyError:
            result = KeyError
        assert result == code
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert seen == ([] if fault == "usage" else [False])


def test_simulate_directory_failure_keeps_earlier_scenarios(tmp_path, capsys):
    # scenarios run in name order, and each directory's manifest is written
    # with its outputs: "b" fails, "a" is whole, "c" never runs
    configs = tmp_path / "scenarios"
    configs.mkdir()
    write_json(configs / "a.json", SIM_CONFIG)
    write_json(configs / "b.json", edited(SIM_CONFIG, horizon="1"))
    write_json(configs / "c.json", SIM_CONFIG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(configs), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "a.json: 5 txs, revert rate 0.800\n"
    assert captured.err.startswith(f"error: {configs / 'b.json'}: config.horizon: ")
    assert sorted(p.name for p in (out / "a").iterdir()) == [
        "manifest.json", "metrics.json", "per_bot_profit.csv", "report.json", "revert_position_histogram.csv"
    ]
    assert not (out / "b").exists() and not (out / "c").exists()


def test_simulate_directory_anomaly_leaves_no_directory(tmp_path, capsys):
    # "b" exits 3 once it has run, before any output of its own is written
    configs = tmp_path / "scenarios"
    configs.mkdir()
    write_json(configs / "a.json", SIM_CONFIG)
    write_json(configs / "b.json", edited(SIM_CONFIG, bots=[dict(BOT, latency_mean=1.7e308)]))
    out = tmp_path / "out"
    assert main(["--quiet", "simulate", "--config", str(configs), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"numerical anomaly: {configs}/b.json: arrival time 1.7e+308 has no block")
    assert sorted(p.name for p in out.iterdir()) == ["a"]
    assert len(list((out / "a").iterdir())) == 5


@pytest.mark.parametrize("beside", [(), ("a.json",)])
@pytest.mark.parametrize("name, stem", [("..json", "."), ("...json", "..")])
def test_simulate_refuses_dot_scenario_names(tmp_path, capsys, name, stem, beside):
    # the stem of "..json" is ".", of "...json" "..": its outputs would land in --out itself, or
    # in its parent; refused before any scenario of the directory runs, so nothing is written
    configs = tmp_path / "scenarios"
    configs.mkdir()
    for scenario in (name, *beside):
        write_json(configs / scenario, SIM_CONFIG)
    work = tmp_path / "work"
    assert main(["simulate", "--config", str(configs), "--out", str(work / "out")]) == 2
    assert capsys.readouterr() == ("", (
        f"error: {configs / name}: the scenario name {stem!r} names no subdirectory of the output directory\n"
    ))
    assert [p.name for p in work.iterdir()] == ["out"] and list((work / "out").iterdir()) == []


def optimize_into(tmp_path, cfg, out) -> int:
    return main(["--quiet", "optimize", "--config", str(write_json(tmp_path / "cfg.json", cfg)), "--out", str(out)])


def test_rewrite_leaves_no_stale_tail(tmp_path, configs_dir):
    # a single-swap plan has a 10-row profit curve, the worked config's 40:
    # written over the longer one, it leaves the bytes a fresh run writes
    worked = json.loads((configs_dir / "optimize_worked.json").read_text())
    single = edited(worked, params=edited(worked["params"], gas_overhead=1e6))
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    for cfg, target in ((worked, out), (single, out), (single, fresh)):
        assert optimize_into(tmp_path, cfg, target) == 0
    for name in ("plan.json", "profit_curve.csv"):
        assert (out / name).read_bytes() == (fresh / name).read_bytes(), name
    assert len((out / "profit_curve.csv").read_bytes().splitlines()) == 11


def test_csv_rows_end_in_crlf(tmp_path, configs_dir):
    out = tmp_path / "out"
    assert main(["--quiet", "optimize", "--config", str(configs_dir / "optimize_worked.json"), "--out", str(out)]) == 0
    data = (out / "profit_curve.csv").read_bytes()
    assert data.startswith(b"n,expected_total_profit\r\n1,")
    assert data.count(b"\n") == data.count(b"\r\n") == 41


def test_new_outputs_get_the_mode_open_gives(tmp_path, configs_dir):
    # every output is created as open(path, "w") creates a file: 0o666 less the umask
    umask = os.umask(0o007)
    try:
        open(tmp_path / "reference", "w").close()
        assert main(["--quiet", "optimize", "--config", str(configs_dir / "optimize_worked.json"),
                     "--out", str(tmp_path / "out")]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE((tmp_path / "reference").stat().st_mode) == 0o660
    modes = {f.name: stat.S_IMODE(f.stat().st_mode) for f in (tmp_path / "out").iterdir()}
    assert modes == {"manifest.json": 0o660, "plan.json": 0o660, "profit_curve.csv": 0o660}


def command_argv(command, configs_dir, scenarios_dir, fixtures_dir):
    """``command`` and its input options, over the shipped config, scenario or fixture corpus."""
    if command == "analyze":
        return [command, "--traces", str(fixtures_dir / "traces"), "--labels", str(fixtures_dir / "labels.csv"),
                "--records", str(fixtures_dir / "records.csv")]
    config = {"optimize": configs_dir / "optimize_worked.json", "simulate": scenarios_dir / "fcfs_duplicates.json"}
    return [command, "--config", str(config[command])]


@pytest.mark.parametrize("command, names", [
    ("optimize", ("plan.json", "profit_curve.csv")),
    ("simulate", ("report.json", "metrics.json")),
    ("analyze", ("classifications.jsonl", "breakdown_pair.csv")),
], ids=["optimize", "simulate", "analyze"])
def test_short_writes_are_completed(tmp_path, configs_dir, scenarios_dir, fixtures_dir, monkeypatch, command, names):
    # a write may take fewer bytes than it was given; the rest follow
    argv = ["--quiet", *command_argv(command, configs_dir, scenarios_dir, fixtures_dir), "--out"]
    assert main([*argv, str(tmp_path / "whole")]) == 0
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:7]))
    assert main([*argv, str(tmp_path / "short")]) == 0
    monkeypatch.undo()
    for name in names:
        assert (tmp_path / "short" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes(), name


def disk_full_error(path) -> str:
    """The error line of a write to ``path`` that fails for a full disk: it names the file."""
    return f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: {str(path)!r}\n"


def test_report_write_that_fails_leaves_no_partial_file(tmp_path, scenarios_dir, monkeypatch, capsys):
    # the disk fills once the report's first piece is written: the partial report.json is removed
    monkeypatch.setattr(sequencer_sim, "_PIECE_ROWS", 2)  # the 5 rows of fcfs_duplicates in 3 pieces
    write, sizes = os.write, []

    def full_after_first_piece(fd, data):
        if sizes:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        sizes.append(write(fd, data))
        return sizes[-1]

    monkeypatch.setattr(os, "write", full_after_first_piece)
    out = tmp_path / "out"
    assert main(["--quiet", "simulate", "--config", str(scenarios_dir / "fcfs_duplicates.json"), "--out", str(out)]) == 2
    assert capsys.readouterr().err == disk_full_error(out / "report.json")
    assert sizes and os.listdir(out) == []


def test_report_is_written_in_bounded_memory(tmp_path, scenarios_dir, monkeypatch):
    # about 20k rows: the writer holds a piece of the report's text at a time, not the whole text
    config = json.loads((scenarios_dir / "fcfs_duplicates.json").read_text())
    config.update(horizon=40.0, opportunity_refresh=0.01)  # 4,001 opportunities × 5 copies
    (tmp_path / "big.json").write_text(json.dumps(config))
    summarize = sequencer_sim.summarize

    def summarize_then_trace(report):  # what is allocated from here on is the outputs' writing
        metrics = summarize(report)
        tracemalloc.start()
        return metrics

    monkeypatch.setattr(sequencer_sim, "summarize", summarize_then_trace)
    try:
        assert main(["--quiet", "simulate", "--config", str(tmp_path / "big.json"), "--out", str(tmp_path / "out")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "out" / "report.json").stat().st_size
    assert size > 3_500_000
    assert peak < size / 4, (peak, size)


# every write to /dev/full fails with ENOSPC: an output linked to it is a disk that fills at that file
needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@needs_dev_full
@pytest.mark.parametrize("command, name", [("simulate", "metrics.json"), ("analyze", "classifications.jsonl")])
def test_failed_output_leaves_no_file_of_its_directory(
    tmp_path, configs_dir, scenarios_dir, fixtures_dir, capsys, command, name
):
    # every file written before the failing one goes with it (report.json before metrics.json); no manifest is written
    out = tmp_path / "out"
    out.mkdir()
    (out / name).symlink_to("/dev/full")
    assert main(["--quiet", *command_argv(command, configs_dir, scenarios_dir, fixtures_dir), "--out", str(out)]) == 2
    assert capsys.readouterr().err == disk_full_error(out / name)
    assert os.listdir(out) == []


@needs_dev_full
def test_failed_scenario_output_keeps_earlier_scenarios_whole(tmp_path, scenarios_dir, capsys):
    # "b" fails at its fourth file: its earlier three go too, and "a" stays as a run of its own writes it
    configs = tmp_path / "scenarios"
    configs.mkdir()
    for stem in ("a", "b"):
        (configs / f"{stem}.json").write_bytes((scenarios_dir / "fcfs_duplicates.json").read_bytes())
    out = tmp_path / "out"
    (out / "b").mkdir(parents=True)
    (out / "b" / "per_bot_profit.csv").symlink_to("/dev/full")
    assert main(["--quiet", "simulate", "--config", str(configs), "--out", str(out)]) == 2
    assert capsys.readouterr().err == disk_full_error(out / "b" / "per_bot_profit.csv")
    assert os.listdir(out / "b") == []
    assert main(["--quiet", "simulate", "--config", str(configs / "a.json"), "--out", str(tmp_path / "alone")]) == 0
    names = sorted(os.listdir(out / "a"))
    assert names == sorted(os.listdir(tmp_path / "alone")) and len(names) == 5
    for name in names:
        assert name == "manifest.json" or (out / "a" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()
    assert json.loads((out / "a" / "manifest.json").read_text())["out_dir"] == str(out / "a")


@pytest.mark.parametrize("command, name", [
    pytest.param("optimize", "plan.json", id="plan.json"),
    pytest.param("optimize", "profit_curve.csv", id="profit_curve.csv"),
    pytest.param("optimize", "manifest.json", id="manifest.json"),
    pytest.param("simulate", "report.json", id="report.json"),
    pytest.param("analyze", "classifications.jsonl", id="classifications.jsonl"),
])
def test_unwritable_output_exit_code(tmp_path, configs_dir, scenarios_dir, fixtures_dir, capsys, command, name):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)  # as a file without write permission; root ignores chmod
    argv = ["--quiet", *command_argv(command, configs_dir, scenarios_dir, fixtures_dir)]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out / name) in err and "Traceback" not in err


def test_outputs_are_utf8_whatever_the_locale(tmp_path, fixtures_dir):
    # a pool's pair symbol outside ASCII, in the C locale without locale
    # coercion or UTF-8 mode, where open()'s default encoding is ASCII
    labels = tmp_path / "labels.csv"
    labels.write_bytes((fixtures_dir / "labels.csv").read_bytes().replace(b"USDC-WETH", "USD₮0-WETH".encode()))
    args = ["--quiet", "analyze", "--traces", str(fixtures_dir / "traces"), "--labels", str(labels),
            "--records", str(fixtures_dir / "records.csv"), "--out"]
    src = str(pathlib.Path(splitmev.__file__).parents[1])
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "splitmev.cli", *args, str(tmp_path / "c")], env=env,
                          capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert main([*args, str(tmp_path / "here")]) == 0
    pairs = (tmp_path / "c" / "breakdown_pair.csv").read_bytes()
    assert "USD₮0-WETH,".encode() in pairs
    for name in ("breakdown_pair.csv", "classifications.jsonl"):
        assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "here" / name).read_bytes(), name


def test_analyze_trace_larger_than_a_read_buffer(tmp_path, fixtures_dir):
    # one JSON-lines trace file of over 1 MiB, read in one piece: each of its
    # copies of a call tree is classified as the single tree is
    tree = json.dumps(json.loads((fixtures_dir / "traces" / "t01_v3_swap_usdc_weth_500.json").read_text()))
    copies = 2**20 // len(tree) + 1
    traces = tmp_path / "traces"
    traces.mkdir()
    (traces / "big.json").write_text((tree + "\n") * copies)
    assert len((traces / "big.json").read_bytes()) > max(io.DEFAULT_BUFFER_SIZE, 2**20)
    out = tmp_path / "out"
    assert main(["--quiet", "analyze", "--traces", str(traces), "--labels", str(fixtures_dir / "labels.csv"),
                 "--records", str(fixtures_dir / "records.csv"), "--out", str(out)]) == 0
    rows = (out / "classifications.jsonl").read_text().splitlines()
    assert len(rows) == copies and len(set(rows)) == 1
    assert json.loads(rows[0])["pair"] == "USDC-WETH"


# tokens for argvs: the subcommands and their options, abbreviations, "--",
# "--=x" (an abbreviation of every long option), and good and bad values: a
# lone "-", an "=" inside a value, a space and a character outside ASCII
ARGV_TOKENS = ["--quiet", "optimize", "simulate", "analyze", "--config", "--out", "--seed-override", "--traces",
               "--labels", "--records", "--min-bot-reverts", "-h", "--q", "--conf", "--", "--quiet=1", "--out=o",
               "--=x", "", "x", "0", "-1", "abc", "-", "a=b", "a b", "\u00e9\u20ae"]


def parse_outcome(parse, argv):
    """The namespace, exit code, stdout and stderr of ``parse(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    namespace = code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = parse(argv)
        except SystemExit as exc:
            code = exc.code
    return namespace, code, out.getvalue(), err.getvalue()


@settings(max_examples=500)
@given(st.one_of(
    st.lists(st.sampled_from(ARGV_TOKENS), max_size=7),
    st.builds(lambda quiet, name, rest: quiet + [name] + rest, st.sampled_from([[], ["--quiet"]]),
              st.sampled_from(["optimize", "simulate", "analyze"]), st.lists(st.sampled_from(ARGV_TOKENS), max_size=6)),
))
@example(["optimize", "--config", "c", "--out", "o"])
@example(["--quiet", "analyze", "--traces", "t", "--labels", "l", "--records", "r", "--min-bot-reverts", "3"])
@example(["simulate", "--config", "c", "--=x"])
@example(["simulate", "--config", "c", "--seed-override", "-1"])
@example(["optimize", "--config", "c", "--quiet"])
@example(["optimize", "--config", "a", "--config", "b"])  # argparse's last value wins
@example(["optimize", "--config", "a", "--out", "-"])
@example(["optimize", "--config", "--out"])  # an option where a value should be
@example(["simulate", "--config", "a=b", "--out", "a b"])
@example(["--quiet", "optimize", "--config", "\u00e9\u20ae", "--out", "o"])
@example(["optimize", "--config", "c", "--out"])  # an odd number of tokens
@example(["analyze", "--traces", "t", "--labels", "l", "--records", "r", "--min-bot-reverts", "0"])
@example(["optimize", "-h"])
@example(["-h"])
@example([])
def test_parse_is_the_full_parser(argv):
    # the canonical path gives what the full parser gives, or is not taken
    assert parse_outcome(_parse, argv) == parse_outcome(build_parser().parse_args, argv)


@pytest.mark.parametrize("argv", [
    ["--quiet", "optimize", "--config", "c.json", "--out", "o"],
    ["simulate", "--out", "o", "--seed-override", "7", "--config", "scenarios/"],
    ["analyze", "--traces", "t", "--labels", "l", "--records", "r", "--out", "o", "--min-bot-reverts", "3"],
], ids=["optimize", "simulate", "analyze"])
def test_canonical_argv_skips_argparse(monkeypatch, argv):
    expected = build_parser().parse_args(argv)

    def refuse(self, *args, **kwargs):
        raise AssertionError("argparse parsed a canonical argv")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    assert _parse(argv) == expected


# a fresh interpreter: the exit code of main on an argv, and whether it built the argparse parser
CANONICAL_CALL = """
import sys
import splitmev.cli
code = splitmev.cli.main(sys.argv[1:])
print(code, splitmev.cli.build_parser.cache_info().currsize)
"""


@pytest.mark.parametrize("argv", [
    ["--quiet", "optimize", "--config", "configs/optimize_worked.json"],
    ["--quiet", "simulate", "--config", "scenarios/fcfs_duplicates.json", "--seed-override", "7"],
    ["--quiet", "analyze", "--traces", "tests/fixtures/traces", "--labels", "tests/fixtures/labels.csv",
     "--records", "tests/fixtures/records.csv", "--min-bot-reverts", "3"],
], ids=["optimize", "simulate", "analyze"])
def test_canonical_call_builds_no_argparse_parser(tmp_path, argv):
    root = pathlib.Path(__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(splitmev.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", CANONICAL_CALL, *argv, "--out", str(tmp_path)], cwd=root, env=env,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "0 0\n")


class FloatSubclass(float):
    pass


class DictSubclass(dict):
    pass


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # NaN and infinities included
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, math.nan, math.inf, -math.inf, 10**30]),
    st.builds(FloatSubclass, st.floats()),
    st.text(),  # non-ASCII, surrogates and control characters included
)
json_keys = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())


def json_containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        *(st.dictionaries(keys, children, max_size=4) for keys in (st.text(), st.integers(), st.floats())),
        st.dictionaries(json_keys, children, max_size=3),  # of mixed key types, which do not sort
        st.dictionaries(st.text(), children, max_size=3).map(DictSubclass),
    )


def json_outcome(encode, doc):
    try:
        return encode(doc)
    except TypeError as exc:
        return repr(exc)


@settings(max_examples=500)
@given(st.recursive(json_scalars, json_containers, max_leaves=20))
@example({"revert_position_histogram": {10: 1, 2: 3}, "a": [], "b": {}, "c": [[]], "d": (1, True)})
@example({True: 1, None: 2, 1.5: math.nan})
@example(["\x00\x1f\"\\é₮\U0001f600", -0.0, 5e-324, -math.inf])
def test_json_text_is_json_dumps(doc):
    assert json_outcome(lambda d: _json_text(d, "\n"), doc) == json_outcome(
        lambda d: json.dumps(d, indent=2, sort_keys=True), doc
    )


@pytest.mark.parametrize("doc", [b"x", {1, 2}, 1j, object(), [1, {"a": b"x"}], {(1, 2): 1}, {"a": 1, 2: 3}],
                         ids=["bytes", "set", "complex", "object", "nested", "tuple-key", "mixed-keys"])
def test_json_text_rejects_what_json_dumps_rejects(doc):
    with pytest.raises(TypeError) as expected:
        json.dumps(doc, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as got:
        _json_text(doc, "\n")
    assert str(got.value) == str(expected.value)
