import datetime as dt
import json
import re
import sys

import pytest
from hypothesis import assume, given, settings
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
from splitmev import trace_analysis
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


ONE = json.dumps(frame("0x" + "a" * 40, "0x" + "b" * 40))


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
        pytest.param(json.dumps(json.loads(ONE), indent=2) + "\ngarbage\n", r"Expecting property name enclosed in double quotes: line 1 column 2 \(char 1\)", id="pretty-then-garbage"),
        pytest.param(ONE + " " + ONE + "\n", "Extra data: line 1 column", id="two-on-one-line"),
        pytest.param(ONE + "\n" + ONE + " x\n", "Extra data: line 1 column", id="junk-after-line-2"),
        pytest.param(ONE + "\n\ufeff" + ONE + "\n", r"Unexpected UTF-8 BOM \(decode using utf-8-sig\)", id="bom-on-line-2"),
        pytest.param("\ufeff" + ONE, r"Unexpected UTF-8 BOM \(decode using utf-8-sig\)", id="bom"),
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


class FixedLimitDecoder(json.JSONDecoder):
    """The C decoder as Python 3.12+ runs it: its nesting limit is its own,
    and lifting the recursion limit does not reach it."""

    def __init__(self, limit):
        super().__init__()
        self.limit = limit

    def raw_decode(self, s, idx=0):
        lifted = sys.getrecursionlimit()
        sys.setrecursionlimit(self.limit)
        try:
            return super().raw_decode(s, idx)
        finally:
            sys.setrecursionlimit(lifted)


def test_deep_chain_falls_back_to_the_python_scanner(tmp_path, fixtures_dir, monkeypatch, capsys):
    traces = tmp_path / "traces"
    traces.mkdir()
    deep = traces / "deep.json"
    deep.write_text(deep_chain(5000))
    with pytest.raises(TraceParseError) as c_error:
        load_trace_file(deep)
    limit = sys.getrecursionlimit()
    monkeypatch.setattr(trace_analysis, "_DECODER", FixedLimitDecoder(limit))
    with pytest.raises(TraceParseError) as fallback_error:
        load_trace_file(deep)
    # the pure-Python scanner fails too, and the C decoder's error is the one raised
    assert str(fallback_error.value) == str(c_error.value)
    assert "maximum recursion depth" in str(c_error.value)
    deep.write_text(deep_chain(1025, bottom=POOL_V3))
    python_scanner = trace_analysis._PY_DECODER
    monkeypatch.setattr(trace_analysis, "_PY_DECODER", trace_analysis._DECODER)
    with pytest.raises(TraceParseError, match="maximum recursion depth"):  # no fallback: exit 2, as before
        load_trace_file(deep)
    monkeypatch.setattr(trace_analysis, "_PY_DECODER", python_scanner)
    (graph,) = load_trace_file(deep)
    assert sys.getrecursionlimit() == limit
    assert len(graph.edges) == 1025
    argv = ["--quiet", "analyze", "--traces", str(traces), "--labels", str(fixtures_dir / "labels.csv")]
    argv += ["--records", str(fixtures_dir / "records.csv"), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    deep.write_text(deep_chain(5000))
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {c_error.value}\n"


@pytest.mark.parametrize(
    "text, edges",
    [
        pytest.param(json.dumps(frame("0x" + "a" * 40, "0x" + "b" * 40, children=[frame("0x" + "b" * 40, "0x" + "c" * 40, depth=1)]), indent=2), [2], id="pretty-printed"),
        pytest.param(ONE + " \t\n\n" + ONE + "\r\n" + ONE + "\n", [1, 1, 1], id="jsonl-blanks"),
        pytest.param(json.dumps([json.loads(ONE), json.loads(ONE)]), [1, 1], id="array"),
        pytest.param("\n  " + ONE + "  \n", [1], id="padded"),
    ],
)
def test_load_trace_file_layouts(tmp_path, text, edges):
    path = tmp_path / "t.json"
    path.write_bytes(text.encode())
    assert [len(g.edges) for g in load_trace_file(path)] == edges


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


def reference_error(tree, path="root"):
    """The message of the first fault of a tree in pre-order, found by a
    recursive walk that checks each frame as ``build_graph`` does."""

    def visit(d, path, parent_depth, level):
        if not isinstance(d, dict):
            return f"{path}: expected a JSON object"
        kind = d.get("call_kind", "call")
        if kind not in CALL_KINDS:
            return f"{path}: unknown call_kind {kind!r}"
        depth = d.get("depth", 0)
        if type(depth) is not int:
            return f"{path}: bad depth {depth!r}"
        if depth < 0:
            return f"{path}: negative depth"
        children = d.get("children", [])
        if not isinstance(children, list):
            return f"{path}: children must be a list, got {children!r}"
        for key in ("from_address", "to_address"):
            if key not in d:
                return f"{path}: missing field {key!r}"
            if not re.fullmatch(r"0x[0-9a-f]{40}", str(d[key]).lower()):
                return f"{path}: bad address {d[key]!r}"
        if parent_depth is not None and depth != parent_depth + 1:
            return f"{path}: depth {depth} != parent depth + 1"
        if level > 1024:
            return f"{path}: call depth {level} exceeds the EVM's 1024"
        for i, child in enumerate(children):
            error = visit(child, f"{path}.children[{i}]", depth, level + 1)
            if error:
                return error
        return None

    return visit(tree, path, None, 0)


def slots(tree, holder, key):
    """Pre-order (frame, its holder, its key in the holder, calls below the root)."""
    out, stack = [], [(holder, key, 0)]
    while stack:
        holder, key, level = stack.pop()
        out.append((holder[key], holder, key, level))
        children = holder[key].get("children", [])
        stack += [(children, i, level + 1) for i in range(len(children) - 1, -1, -1)]
    return out


def shift_depths(tree, k):
    tree["depth"] += k
    for child in tree.get("children", []):
        shift_depths(child, k)


def without(key):
    return lambda f: {k: v for k, v in f.items() if k != key}


# each fault maps a frame to its faulty replacement
FAULTS = {
    "not-an-object": lambda f: [f],
    "bad-call-kind": lambda f: {**f, "call_kind": "jump"},
    "string-depth": lambda f: {**f, "depth": str(f["depth"])},
    "float-depth": lambda f: {**f, "depth": float(f["depth"])},
    "bool-depth": lambda f: {**f, "depth": True},
    "negative-depth": lambda f: {**f, "depth": -1},
    "depth-not-parent-plus-one": lambda f: {**f, "depth": f["depth"] + 2},
    "children-not-a-list": lambda f: {**f, "children": {"0": f.get("children", [])}},
    "missing-from": without("from_address"),
    "missing-to": without("to_address"),
    "short-address": lambda f: {**f, "from_address": "0x12"},
    "address-newline": lambda f: {**f, "to_address": f["to_address"] + "\n"},
    "unhashable-address": lambda f: {**f, "to_address": [f["to_address"]]},
    "number-address": lambda f: {**f, "from_address": 5},
    "past-evm-depth": None,  # the frame is moved 1,025 calls below the root
}


@settings(max_examples=400)
@given(call_trees(0, 4), st.sampled_from(sorted(FAULTS)), st.data())
def test_build_graph_faults_match_recursive_reference(tree, fault, data):
    box = [tree]
    frames = slots(tree, box, 0)
    # a root has no parent depth to disagree with
    first = 1 if fault == "depth-not-parent-plus-one" else 0
    assume(len(frames) > first)
    victim, holder, key, level = frames[data.draw(st.integers(first, len(frames) - 1), label="frame")]
    if fault == "past-evm-depth":
        extra = 1025 - level
        shift_depths(tree, extra)
        a = "0x" + "e" * 40
        for depth in range(extra - 1, -1, -1):
            box[0] = frame(a, a, depth=depth, children=[box[0]])
    else:
        holder[key] = FAULTS[fault](victim)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 1100)  # the reference recurses once per frame
    try:
        expected = reference_error(box[0])
    finally:
        sys.setrecursionlimit(limit)
    assert expected is not None
    with pytest.raises(TraceParseError) as info:
        build_graph(box[0])
    assert str(info.value) == expected


def test_mixed_case_repeats_are_one_node():
    lower, upper = "0x" + "ab" * 20, "0x" + "AB" * 20
    mixed = "0x" + "aB" * 20
    graph = build_graph(frame(lower, upper, children=[frame(mixed, upper, depth=1), frame(upper, lower, depth=1)]))
    assert graph.nodes == {lower}
    assert {a for e in graph.edges for a in (e.caller, e.callee)} == {lower}
    assert graph.root == lower


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
