import copy
import io
import os
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import config_reference as reference
from splitmev.config import ConfigError, read_input
from splitmev.failure_models import from_config
from splitmev.sequencer_sim import SimConfig
from splitmev.split_optimizer import OptimizeConfig, optimize_config

TEXTS = {
    "empty": "",
    "one-byte": "{",
    # a three-byte character across each boundary of a default read buffer
    "buffer-and-a-bit": "₮" * (io.DEFAULT_BUFFER_SIZE // 3 * 2 + 1),
    "over-1-MiB": "x₮\n" * (2**20 // 4),
}


@pytest.mark.parametrize("text", TEXTS.values(), ids=TEXTS)
def test_read_input_reads_the_whole_file(tmp_path, text):
    path = tmp_path / "input"
    path.write_bytes(text.encode("utf-8"))
    assert read_input(path, ConfigError) == (text, text.encode("utf-8"))


def test_read_input_reads_past_a_size_that_understates(tmp_path):
    # a FIFO's st_size is 0, whatever its writer sends: the reader reads on to EOF
    path = tmp_path / "fifo"
    os.mkfifo(path)
    parts = ["{", '"a": "\u20ae"', ", " * 40000, "}"]

    def feed():
        with open(path, "wb") as fh:
            for part in parts:
                fh.write(part.encode("utf-8"))
                fh.flush()

    writer = threading.Thread(target=feed, daemon=True)  # a failed read leaves it blocked in open
    writer.start()
    try:
        text = "".join(parts)
        assert read_input(path, ConfigError) == (text, text.encode("utf-8"))
    finally:
        writer.join(timeout=10)


# JSON values of every kind a document can carry, and a few that only Python callers pass
# (tuples); strings with lone surrogates, which a JSON escape can make; ints past the float range
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2**1023).map(lambda n: n * 2**100), st.floats(),
    st.sampled_from([0, 1, -1, 0.0, -0.0, 0.5, 2, 1e300]), st.text(max_size=4),
    st.sampled_from(["\ud800", "a\udfff", "linear_clamped", "fcfs", "pfa", "split_n", "a"]),
)
json_values = st.recursive(
    json_scalars,
    lambda kids: st.lists(kids, max_size=3) | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(st.sampled_from(["reserve_x", "slope", "name", "x", "version"]) | st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)
# keys known at some level of some document, and others: unknown at most levels
KEYS = ["version", "pool", "params", "model", "family", "parameters", "reserve_x", "reserve_y", "fee", "total_size",
        "cex_price", "gas_overhead", "slope", "q_max", "alpha", "a", "b", "qs", "ps", "bots", "name", "strategy",
        "trade_size", "n_chunks", "seed", "batch_window", "horizon", "block_time", "x", ""]
PARAMETERS = {"linear_clamped": {"slope": 0.01}, "power_concave": {"q_max": 200.0, "alpha": 2.0},
              "quadratic_concave": {"a": 0.001, "b": 1e-5}, "table_interpolated": {"qs": [0, 50, 200.0], "ps": [1, 0.9, 0.5]},
              "constant": {}}
OPTIMIZE = {"version": 1, "pool": {"reserve_x": 1000.0, "reserve_y": 2000, "fee": 0.003},
            "params": {"total_size": 100.0, "cex_price": 1.9, "gas_overhead": 1.0, "liquidation_penalty": 0.5}}
SCENARIO = {"version": 1, "block_time": 0.25, "ordering": "fcfs", "pool": {"reserve_x": 1000.0, "reserve_y": 2000.0},
            "cex_price": 1.8, "horizon": 1.0, "seed": 42, "batch_window": None,
            "bots": [{"name": "a", "strategy": "duplicate_k", "trade_size": 10.0, "k_copies": 5},
                     {"strategy": "split_n", "trade_size": 4, "n_chunks": 2, "latency_mean": 0.01}]}


def _containers(value) -> list:
    """Every dict and list in ``value``, ``value`` first if it is one."""
    if not isinstance(value, (dict, list)):
        return []
    found = [value]
    for item in value.values() if isinstance(value, dict) else value:
        found += _containers(item)
    return found


@st.composite
def documents(draw, base):
    """``base`` with up to three edits, each at any level: a key removed, or a key (mostly one
    already there) or a list item set to any JSON value; now and then a value of any kind in its place."""
    if draw(st.integers(0, 19)) == 0:
        return draw(json_values)
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(0, 3))):
        node = draw(st.sampled_from(_containers(doc)))
        if isinstance(node, dict):
            key = draw(st.sampled_from(sorted(node) if node and draw(st.integers(0, 3)) else KEYS))
            if key in node and draw(st.integers(0, 3)) == 0:
                del node[key]
            else:
                node[key] = draw(json_values)
        elif node and draw(st.booleans()):
            node[draw(st.integers(0, len(node) - 1))] = draw(json_values)
        else:
            node.append(draw(json_values))
    return doc


def outcome(function, *args):
    """What ``function(*args)`` gives: its result, or the class and message of its exception.
    A result is compared by ``repr``, which tells NaN from NaN and -0.0 from 0.0 as ``==`` cannot."""
    try:
        return "result", repr(function(*args))
    except Exception as exc:  # whatever it is, the reference must raise the same
        return type(exc), str(exc)


@given(st.sampled_from(sorted(PARAMETERS)).flatmap(
    lambda family: documents({**OPTIMIZE, "model": {"family": family, "parameters": PARAMETERS[family]}})))
@settings(max_examples=400, deadline=None)
def test_optimize_config_matches_the_reference_builder(doc):
    def reference_config(doc):
        cfg = reference.build(OptimizeConfig, doc)
        return cfg, reference.from_config(cfg.model.family, cfg.model.parameters)

    assert outcome(optimize_config, doc) == outcome(reference_config, doc)


@given(st.sampled_from(sorted(PARAMETERS)) | st.text(max_size=3) | st.sampled_from(["\ud800", "Constant"]), st.data())
@settings(max_examples=400, deadline=None)
def test_each_failure_family_matches_the_reference_builder(family, data):
    parameters = data.draw(documents(PARAMETERS.get(family, {"slope": 0.01})))
    assert outcome(from_config, family, parameters) == outcome(reference.from_config, family, parameters)


@given(documents(SCENARIO))
@settings(max_examples=400, deadline=None)
def test_sim_config_matches_the_reference_builder(doc):
    assert outcome(SimConfig.from_dict, doc) == outcome(reference.sim_config_from_dict, doc)

