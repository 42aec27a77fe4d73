import datetime as dt
import json

import pytest

from splitmev import (
    LabelLibrary,
    SchemaError,
    TraceFrame,
    TraceParseError,
    TxRecord,
    breakdown,
    build_graph,
    classify_swap,
    identify_bots,
    load_trace_file,
    read_labels_csv,
)
from splitmev.trace_analysis import LabelEntry

ROUTER = "0xaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa01"
POOL_V3 = "0xbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb02"
SENDER = "0xffffffffffffffffffffffffffffffffffffff02"


@pytest.fixture(scope="module")
def labels(fixtures_dir):
    return read_labels_csv(fixtures_dir / "labels.csv")


@pytest.fixture(scope="module")
def expected(fixtures_dir):
    with open(fixtures_dir / "expected_classifications.json") as fh:
        return json.load(fh)


def frame(frm, to, kind="call", depth=0, children=(), selector=None):
    return {
        "from_address": frm,
        "to_address": to,
        "call_kind": kind,
        "depth": depth,
        "selector": selector,
        "children": list(children),
    }


def test_corpus_classifications(fixtures_dir, labels, expected):
    paths = sorted((fixtures_dir / "traces").glob("*.json"))
    assert len(paths) == 20
    for path in paths:
        (tree,) = load_trace_file(path)
        result = classify_swap(build_graph(tree), labels)
        want = expected[path.stem]
        got = result.to_dict()
        assert {k: got[k] for k in want} == want, path.stem


def test_graph_structure(fixtures_dir):
    (tree,) = load_trace_file(fixtures_dir / "traces" / "t02_v3_swap_revert.json")
    graph = build_graph(tree)
    assert len(graph.nodes) == 5
    assert len(graph.edges) == 4
    assert graph.root == ROUTER
    assert graph.edges[0].caller == SENDER
    assert graph.edges[1].callee == POOL_V3
    assert graph.edges[1].selector == "0x128acb08"


def test_edges_are_a_multiset():
    # the same B -> C call made twice must yield two edges
    a, b, c = (f"0x{ch * 40}" for ch in "abc")
    tree = TraceFrame.from_dict(
        frame(
            a,
            b,
            children=[
                frame(b, c, depth=1),
                frame(b, c, depth=1),
            ],
        )
    )
    graph = build_graph(tree)
    assert len(graph.edges) == 3
    assert len(graph.nodes) == 3
    assert graph.edges[1] == graph.edges[2]


def test_multihop_first_touch_wins(fixtures_dir, labels):
    (tree,) = load_trace_file(fixtures_dir / "traces" / "t08_v3_multihop.json")
    result = classify_swap(build_graph(tree), labels)
    assert result.pool == "0xbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb01"
    # both pool touches stay in the evidence trail
    pool_lines = [e for e in result.evidence if "pool 0xbb" in e]
    assert len(pool_lines) >= 2


def test_staticcall_to_pool_is_not_a_swap(labels):
    tree = TraceFrame.from_dict(
        frame(SENDER, ROUTER, children=[frame(ROUTER, POOL_V3, kind="staticcall", depth=1)])
    )
    assert not classify_swap(build_graph(tree), labels).is_swap


def test_v4_pair_is_sorted_symbols(fixtures_dir, labels):
    (tree,) = load_trace_file(fixtures_dir / "traces" / "t10_v4_swap_wbtc_weth.json")
    result = classify_swap(build_graph(tree), labels)
    assert result.pair == "WBTC-WETH"
    assert result.dex == "uniswap_v4"


def test_trace_parse_errors():
    with pytest.raises(TraceParseError, match="bad address"):
        TraceFrame.from_dict(frame("0x12", "0x" + "a" * 40))
    with pytest.raises(TraceParseError, match="call_kind"):
        TraceFrame.from_dict(frame("0x" + "a" * 40, "0x" + "b" * 40, kind="jump"))
    with pytest.raises(TraceParseError, match=r"children\[0\]"):
        TraceFrame.from_dict(
            frame(
                "0x" + "a" * 40,
                "0x" + "b" * 40,
                children=[frame("0x" + "b" * 40, "0x" + "c" * 40, depth=5)],
            )
        )
    with pytest.raises(TraceParseError, match="missing field"):
        TraceFrame.from_dict({"from_address": "0x" + "a" * 40})


def test_load_trace_file_jsonl(tmp_path):
    doc = frame("0x" + "a" * 40, "0x" + "b" * 40)
    path = tmp_path / "multi.jsonl"
    path.write_text(json.dumps(doc) + "\n" + json.dumps(doc) + "\n")
    assert len(load_trace_file(path)) == 2
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert load_trace_file(empty) == []


def deep_chain(levels):
    """JSON text of a call chain ``levels`` frames deep."""
    a = "0x" + "a" * 40
    head = '{"from_address": "%s", "to_address": "%s", "depth": %d, "children": ['
    return "".join(head % (a, a, d) for d in range(levels)) + "]}" * levels


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(json.dumps(frame("0x" + "a" * 40, "0x" + "b" * 40)) + "\n{not json\n", "Expecting property name", id="bad-jsonl"),
        pytest.param("5", r"\[0\]: expected a JSON object", id="not-an-object"),
        pytest.param(deep_chain(600), "maximum recursion depth", id="too-deep"),
        pytest.param(json.dumps({**frame("0x" + "a" * 40, "0x" + "b" * 40), "depth": "abc"}), "bad depth 'abc'", id="depth-not-int"),
        pytest.param(json.dumps({**frame("0x" + "a" * 40, "0x" + "b" * 40), "depth": "1"}), "bad depth '1'", id="depth-string"),
        pytest.param(json.dumps({**frame("0x" + "a" * 40, "0x" + "b" * 40), "depth": 2.9}), "bad depth 2.9", id="depth-float"),
        pytest.param(json.dumps({**frame("0x" + "a" * 40, "0x" + "b" * 40), "depth": True}), "bad depth True", id="depth-bool"),
        pytest.param(json.dumps({**frame("0x" + "a" * 40, "0x" + "b" * 40), "children": 5}), "children must be a list", id="children-not-list"),
        pytest.param(b"\xff\xfe", "can't decode byte 0xff", id="not-utf8"),
    ],
)
def test_load_trace_file_input_errors(tmp_path, text, message):
    path = tmp_path / "bad.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(TraceParseError, match=message):
        load_trace_file(path)


def test_labels_csv_bad_header(tmp_path):
    bad = tmp_path / "labels.csv"
    bad.write_text("address,kind\n0x1,router\n")
    with pytest.raises(SchemaError):
        read_labels_csv(bad)


def _record(to, n=0, status="reverted"):
    return TxRecord(
        tx_hash=f"0x{to[-4:]}{n}",
        day=dt.date(2025, 5, 1),
        block_number=1,
        tx_index=0,
        status=status,
        from_address=SENDER,
        to_address=to,
        gas_price=1,
        priority_fee_per_gas=0,
        gas_used=21000,
        l1_fee=0,
        chain="arbitrum",
    )


def test_identify_bots_rules():
    lib = LabelLibrary()
    addrs = {
        # qualifies: enough reverts, has code, no owner, not infra
        "bot_ok": "0x1111111111111111111111111111111111111101",
        # below the revert count threshold
        "too_few": "0x1111111111111111111111111111111111111102",
        # router kind is infrastructure
        "router": "0x1111111111111111111111111111111111111103",
        # known owner label disqualifies
        "owned": "0x1111111111111111111111111111111111111104",
        # no bytecode (an EOA)
        "eoa": "0x1111111111111111111111111111111111111105",
        # unlabeled address
        "unknown": "0x1111111111111111111111111111111111111106",
        # only successful transactions
        "success_only": "0x1111111111111111111111111111111111111107",
        # second qualifying bot
        "bot_ok2": "0x1111111111111111111111111111111111111108",
        # pool kind is infrastructure
        "pool": "0x1111111111111111111111111111111111111109",
        # pool manager kind is infrastructure
        "manager": "0x111111111111111111111111111111111111110a",
    }
    kinds = {
        "bot_ok": ("other", "", True),
        "too_few": ("other", "", True),
        "router": ("router", "", True),
        "owned": ("other", "exchange:binance", True),
        "eoa": ("other", "", False),
        "success_only": ("other", "", True),
        "bot_ok2": ("other", "", True),
        "pool": ("pool_v3", "", True),
        "manager": ("pool_manager_v4", "", True),
    }
    for name, (kind, owner, code) in kinds.items():
        lib.add(LabelEntry(address=addrs[name], kind=kind, owner_label=owner, has_code=code))

    records = []
    for name, count in (
        ("bot_ok", 5),
        ("too_few", 2),
        ("router", 5),
        ("owned", 5),
        ("eoa", 5),
        ("unknown", 5),
        ("bot_ok2", 3),
        ("pool", 5),
        ("manager", 5),
    ):
        records += [_record(addrs[name], n=i) for i in range(count)]
    records += [_record(addrs["success_only"], n=i, status="success") for i in range(5)]

    assert identify_bots(records, lib, min_count=3) == {addrs["bot_ok"], addrs["bot_ok2"]}
    assert identify_bots(records, lib, min_count=6) == set()
    with pytest.raises(ValueError):
        identify_bots(records, lib, min_count=0)


def test_identify_bots_fixture(fixtures_dir, labels):
    from splitmev import read_records_csv

    records = read_records_csv(fixtures_dir / "records.csv")
    assert identify_bots(records, labels, min_count=3) == {
        "0xeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee01",
        "0xeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee02",
    }


def test_breakdown_counts_and_ties(fixtures_dir, labels, expected):
    pairs = []
    for path in sorted((fixtures_dir / "traces").glob("*.json")):
        (tree,) = load_trace_file(path)
        pairs.append((classify_swap(build_graph(tree), labels), _record("0x" + "e" * 40)))
    tables = breakdown(pairs, k=3)
    # 10 swaps: 5 v3 uniswap, 1 v2 uniswap, 1 v2 sushi, 3 v4 uniswap
    assert tables["dex"][0] == ("uniswap_v3", 5, 0.5)
    assert tables["dex"][1] == ("uniswap_v4", 3, 0.3)
    # ties at count 1 break lexicographically
    assert tables["dex"][2] == ("sushiswap_v2", 1, 0.1)
    assert tables["pair"][0] == ("USDC-WETH", 6, 0.6)
    assert tables["sender"][0][1] == 10
    # order independence
    assert breakdown(pairs[::-1], k=3) == tables


def test_breakdown_empty_and_bad_k():
    assert breakdown([], k=2) == {"dex": [], "pair": [], "sender": []}
    with pytest.raises(ValueError):
        breakdown([], k=0)
