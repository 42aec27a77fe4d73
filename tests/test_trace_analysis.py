import datetime as dt
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitmev import (
    LabelLibrary,
    SchemaError,
    TraceParseError,
    TxRecord,
    breakdown,
    build_graph,
    classify_swap,
    identify_bots,
    load_trace_file,
    read_labels_csv,
)
from splitmev.cli import main
from splitmev.trace_analysis import CALL_KINDS, Edge, LabelEntry

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
        (graph,) = load_trace_file(path)
        result = classify_swap(graph, labels)
        want = expected[path.stem]
        got = result.to_dict()
        assert {k: got[k] for k in want} == want, path.stem


def test_graph_structure(fixtures_dir):
    (graph,) = load_trace_file(fixtures_dir / "traces" / "t02_v3_swap_revert.json")
    assert len(graph.nodes) == 5
    assert len(graph.edges) == 4
    assert graph.root == ROUTER
    assert graph.edges[0].caller == SENDER
    assert graph.edges[1].callee == POOL_V3
    assert graph.edges[1].selector == "0x128acb08"


def test_edges_are_a_multiset():
    # the same B -> C call made twice must yield two edges
    a, b, c = (f"0x{ch * 40}" for ch in "abc")
    graph = build_graph(
        frame(
            a,
            b,
            children=[
                frame(b, c, depth=1),
                frame(b, c, depth=1),
            ],
        )
    )
    assert len(graph.edges) == 3
    assert len(graph.nodes) == 3
    assert graph.edges[1] == graph.edges[2]


def test_multihop_first_touch_wins(fixtures_dir, labels):
    (graph,) = load_trace_file(fixtures_dir / "traces" / "t08_v3_multihop.json")
    result = classify_swap(graph, labels)
    assert result.pool == "0xbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb01"
    # both pool touches stay in the evidence trail
    pool_lines = [e for e in result.evidence if "pool 0xbb" in e]
    assert len(pool_lines) >= 2


def test_staticcall_to_pool_is_not_a_swap(labels):
    graph = build_graph(
        frame(SENDER, ROUTER, children=[frame(ROUTER, POOL_V3, kind="staticcall", depth=1)])
    )
    assert not classify_swap(graph, labels).is_swap


def test_v4_pair_is_sorted_symbols(fixtures_dir, labels):
    (graph,) = load_trace_file(fixtures_dir / "traces" / "t10_v4_swap_wbtc_weth.json")
    result = classify_swap(graph, labels)
    assert result.pair == "WBTC-WETH"
    assert result.dex == "uniswap_v4"


def test_trace_parse_errors():
    with pytest.raises(TraceParseError, match="bad address"):
        build_graph(frame("0x12", "0x" + "a" * 40))
    with pytest.raises(TraceParseError, match="call_kind"):
        build_graph(frame("0x" + "a" * 40, "0x" + "b" * 40, kind="jump"))
    with pytest.raises(TraceParseError, match=r"children\[0\]"):
        build_graph(
            frame(
                "0x" + "a" * 40,
                "0x" + "b" * 40,
                children=[frame("0x" + "b" * 40, "0x" + "c" * 40, depth=5)],
            )
        )
    with pytest.raises(TraceParseError, match="missing field"):
        build_graph({"from_address": "0x" + "a" * 40})


def test_load_trace_file_jsonl(tmp_path):
    doc = frame("0x" + "a" * 40, "0x" + "b" * 40)
    path = tmp_path / "multi.jsonl"
    path.write_text(json.dumps(doc) + "\n" + json.dumps(doc) + "\n")
    assert len(load_trace_file(path)) == 2
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert load_trace_file(empty) == []


def deep_chain(levels, bottom="0x" + "a" * 40):
    """JSON text of a call chain ``levels`` frames deep whose deepest call
    goes to ``bottom``."""
    a = "0x" + "a" * 40
    head = '{"from_address": "%s", "to_address": "%s", "depth": %d, "children": ['
    frames = (head % (a, a if d < levels - 1 else bottom, d) for d in range(levels))
    return "".join(frames) + "]}" * levels


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(json.dumps(frame("0x" + "a" * 40, "0x" + "b" * 40)) + "\n{not json\n", "Expecting property name", id="bad-jsonl"),
        pytest.param("5", r"\[0\]: expected a JSON object", id="not-an-object"),
        pytest.param(deep_chain(5000), "maximum recursion depth", id="too-deep"),
        pytest.param(deep_chain(1026), r"\[0\](\.children\[0\]){1025}: call depth 1025 exceeds the EVM's 1024", id="past-evm-depth"),
        pytest.param(json.dumps(frame("0x" + "a" * 40, "0x" + "b" * 40 + "\n")), r"bad address '0x(b){40}\\n'", id="address-newline"),
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
    limit = sys.getrecursionlimit()
    with pytest.raises(TraceParseError, match=message):
        load_trace_file(path)
    assert sys.getrecursionlimit() == limit


def test_evm_depth_chain_loads_and_classifies(tmp_path, fixtures_dir, labels, capsys):
    # 1,025 frames: the root plus the EVM's 1,024 nested calls
    traces = tmp_path / "traces"
    traces.mkdir()
    (traces / "deep.json").write_text(deep_chain(1025, bottom=POOL_V3))
    limit = sys.getrecursionlimit()
    (graph,) = load_trace_file(traces / "deep.json")
    assert sys.getrecursionlimit() == limit
    assert len(graph.edges) == 1025
    assert classify_swap(graph, labels).pool == POOL_V3
    argv = ["--quiet", "analyze", "--traces", str(traces), "--labels", str(fixtures_dir / "labels.csv")]
    argv += ["--records", str(fixtures_dir / "records.csv"), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    (traces / "deep.json").write_text(deep_chain(1026))
    assert main(argv) == 2
    assert "call depth 1025 exceeds the EVM's 1024" in capsys.readouterr().err


ADDRESSES = st.sampled_from(["0x" + ch * 40 for ch in "abc"] + ["0x" + "D" * 40])


@st.composite
def call_trees(draw, depth, levels):
    """A valid decoded call tree; optional fields are sometimes left out."""
    tree = {"from_address": draw(ADDRESSES), "to_address": draw(ADDRESSES), "depth": depth}
    kind = draw(st.sampled_from(CALL_KINDS + (None,)))
    if kind is not None:
        tree["call_kind"] = kind
    selector = draw(st.sampled_from([None, "", "0x128acb08", "0xABCDEF01"]))
    if selector is not None:
        tree["selector"] = selector
    if levels and draw(st.booleans()):
        tree["children"] = draw(st.lists(call_trees(depth + 1, levels - 1), max_size=3))
    return tree


def reference_graph(tree):
    """Recursive pre-order walk: (edges, nodes, root) of a valid tree."""
    edges = []

    def visit(d):
        selector = str(d["selector"]).lower() if d.get("selector") else None
        edges.append(Edge(d["from_address"].lower(), d["to_address"].lower(), selector, d.get("call_kind", "call")))
        for child in d.get("children", []):
            visit(child)

    visit(tree)
    return tuple(edges), frozenset(a for e in edges for a in (e.caller, e.callee)), edges[0].callee


@settings(max_examples=300)
@given(st.integers(0, 3).flatmap(lambda depth: call_trees(depth, 4)))
def test_build_graph_matches_recursive_reference(tree):
    graph = build_graph(tree)
    assert (graph.edges, graph.nodes, graph.root) == reference_graph(tree)


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
        (graph,) = load_trace_file(path)
        pairs.append((classify_swap(graph, labels), _record("0x" + "e" * 40)))
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
