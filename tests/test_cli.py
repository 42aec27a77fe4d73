import builtins
import collections
import csv
import hashlib
import json
import math
import pathlib

import pytest

from splitmev.cli import main

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
    "opt-model-floor": ("optimize", edited(OPT, model=edited(OPT["model"], floor=0.5)), "config.model.floor"),
    "opt-table-check": ("optimize", edited(OPT, model=TABLE_NOT_INCREASING), "config.model.parameters.qs"),
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
    assert f"error: {field}: " in err
    assert "Traceback" not in err


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


def test_simulate_empty_directory_is_config_error(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["--quiet", "simulate", "--config", str(empty), "--out", str(tmp_path / "o")]) == 2


def test_simulate_unknown_field_exit_code(tmp_path, scenarios_dir, capsys):
    cfg = json.loads((scenarios_dir / "fcfs_duplicates.json").read_text())
    cfg["speed_mode"] = "ludicrous"
    path = write_json(tmp_path / "cfg.json", cfg)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "speed_mode" in capsys.readouterr().err


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

    bots = (out / "bots.csv").read_text().splitlines()
    assert bots[1:] == [
        "0xeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee01",
        "0xeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee02",
    ]


def test_analyze_reads_each_input_once(tmp_path, fixtures_dir, monkeypatch):
    opened = collections.Counter()
    real_open, real_path_open = builtins.open, pathlib.Path.open

    def counting_open(file, *args, **kwargs):
        opened[str(file)] += 1
        return real_open(file, *args, **kwargs)

    def counting_path_open(self, *args, **kwargs):  # read_bytes and read_text go through it
        opened[str(self)] += 1
        return real_path_open(self, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(pathlib.Path, "open", counting_path_open)
    labels, records = fixtures_dir / "labels.csv", fixtures_dir / "records.csv"
    out = tmp_path / "out"
    argv = ["--quiet", "analyze", "--traces", str(fixtures_dir / "traces"), "--labels", str(labels)]
    assert main(argv + ["--records", str(records), "--out", str(out)]) == 0
    inputs = [labels, records, *sorted((fixtures_dir / "traces").glob("*.json"))]
    assert {str(p): opened[str(p)] for p in inputs} == {str(p): 1 for p in inputs}
    manifest = json.loads((out / "manifest.json").read_text())
    # the manifest hashes the digest of the two inputs, as it did before they were read once
    inputs_digest = hashlib.sha256(labels.read_bytes() + records.read_bytes()).digest()
    assert manifest["config_sha256"] == hashlib.sha256(inputs_digest).hexdigest()


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
    bad = tmp_path / "labels.csv"
    bad.write_text("address,kind\n0xaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa01,router\n")
    rc = main(
        [
            "analyze",
            "--traces",
            str(fixtures_dir / "traces"),
            "--labels",
            str(bad),
            "--records",
            str(fixtures_dir / "records.csv"),
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert rc == 2
    assert "header" in capsys.readouterr().err


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


def test_analyze_rejects_min_bot_reverts_below_one(tmp_path, fixtures_dir, capsys):
    argv = ["analyze", "--traces", str(fixtures_dir / "traces"), "--labels", str(fixtures_dir / "labels.csv")]
    argv += ["--records", str(fixtures_dir / "records.csv"), "--out", str(tmp_path / "o")]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--min-bot-reverts", "0"])
    assert exc.value.code == 2
    assert "--min-bot-reverts: must be >= 1" in capsys.readouterr().err


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
    monkeypatch.delenv("SPLITMEV_OUT")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "the following arguments are required: --out" in capsys.readouterr().err
    assert main(argv + ["--out", str(tmp_path / "third")]) == 0
    assert (tmp_path / "third" / "plan.json").exists()
