import csv
import datetime as dt
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitmev import (
    SchemaError,
    TxRecord,
    position_histogram,
    priority_fee_distribution,
    read_records_csv,
    revert_differential,
    revert_stats,
)
from splitmev.fee_accounting import TX_RECORD_HEADER

DAY = dt.date(2025, 5, 1)


def make_record(**overrides):
    base = dict(
        tx_hash="0xabc",
        day=DAY,
        block_number=100,
        tx_index=0,
        status="success",
        from_address="0xAA00000000000000000000000000000000000001",
        to_address="0xBB00000000000000000000000000000000000002",
        gas_price=100,
        priority_fee_per_gas=20,
        gas_used=1000,
        l1_fee=500,
        chain="arbitrum",
    )
    base.update(overrides)
    return TxRecord(**base)


def test_record_validation():
    assert make_record().from_address.startswith("0xaa")  # lowercased
    with pytest.raises(SchemaError):
        make_record(status="failed")
    for name in INT_COLUMNS:
        with pytest.raises(SchemaError, match=f"^{name} must be nonnegative$"):
            make_record(**{name: -1})
        with pytest.raises(SchemaError, match=rf"^{name} must be below 2\*\*256$"):
            make_record(**{name: 2**256})
        assert getattr(make_record(**{name: 2**256 - 1}), name) == 2**256 - 1
    assert make_record(status="reverted").reverted


def test_revert_stats_small_example():
    records = [
        make_record(status="reverted", priority_fee_per_gas=5),
        make_record(status="success", priority_fee_per_gas=0),
        make_record(status="success", priority_fee_per_gas=0),
        make_record(status="success", priority_fee_per_gas=0, chain="base"),
    ]
    rates, pf = revert_stats(records)
    assert rates == {("arbitrum", DAY): pytest.approx(1 / 3), ("base", DAY): 0.0}
    # priority subset: only the reverted tx pays a priority fee
    assert pf == {("arbitrum", DAY): 1.0}
    diff = revert_differential(rates, pf)
    assert diff == {("arbitrum", DAY): pytest.approx(2 / 3)}


def test_stats_permutation_invariant():
    records = [
        make_record(tx_hash=f"0x{i}", status="reverted" if i % 3 else "success", tx_index=i % 4)
        for i in range(12)
    ]
    assert revert_stats(records) == revert_stats(records[::-1])
    assert position_histogram(records) == position_histogram(records[::-1])


def read_fixture_records(fixtures_dir):
    path = fixtures_dir / "records.csv"
    return read_records_csv(path, path.read_text(encoding="utf-8"))


def test_fixture_revert_rates(fixtures_dir):
    records = read_fixture_records(fixtures_dir)
    assert len(records) == 49
    rates = revert_stats(records)[0]
    assert rates == {
        ("arbitrum", dt.date(2025, 5, 1)): pytest.approx(0.5),
        ("base", dt.date(2025, 5, 1)): pytest.approx(0.75),
        ("base", dt.date(2025, 5, 2)): pytest.approx(0.2),
    }


def test_fixture_priority_differential(fixtures_dir):
    rates, pf = revert_stats(read_fixture_records(fixtures_dir))
    assert pf[("arbitrum", dt.date(2025, 5, 1))] == pytest.approx(2 / 3)
    assert pf[("base", dt.date(2025, 5, 1))] == pytest.approx(1.0)
    diff = revert_differential(rates, pf)
    assert diff[("arbitrum", dt.date(2025, 5, 1))] == pytest.approx(1 / 6)
    assert diff[("base", dt.date(2025, 5, 1))] == pytest.approx(0.25)
    assert ("base", dt.date(2025, 5, 2)) not in diff


def test_fixture_position_histogram(fixtures_dir):
    assert position_histogram(read_fixture_records(fixtures_dir)) == {0: 10, 1: 6, 2: 4, 3: 3, 4: 1}


def test_fixture_priority_fee_distribution(fixtures_dir):
    dist = priority_fee_distribution(read_fixture_records(fixtures_dir))
    assert dist["count"] == 24
    assert dist["zero_fee_share"] == pytest.approx(0.5)
    assert dist["one_wei_share"] == pytest.approx(10 / 24)
    assert dist["quantiles"][0.5] <= dist["quantiles"][0.99]


@given(st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**63 - 1)), min_size=1, max_size=60))
@example([7])  # n = 1
@example([0, 0, 1, 1, 1, 5])  # ties
@example([2**63 - 1, 2**63 - 1, 0, 2**53 + 1])  # past 2**53, where the quantiles round
@settings(max_examples=50)
def test_priority_fee_distribution_matches_numpy(fees):
    # plain-Python shares and quantiles, bit for bit as np.mean and np.quantile give them
    records = [make_record(status="reverted", priority_fee_per_gas=fee) for fee in fees]
    dist = priority_fee_distribution([make_record(status="success", priority_fee_per_gas=0), *records])
    arr = np.asarray(fees)
    expected = [float(np.mean(arr == 0)), float(np.mean(arr == 1))]
    expected += [float(np.quantile(arr, q)) for q in (0.25, 0.5, 0.75, 0.9, 0.99)]
    got = [dist["zero_fee_share"], dist["one_wei_share"], *dist["quantiles"].values()]
    assert dist["count"] == len(fees) and list(dist["quantiles"]) == [0.25, 0.5, 0.75, 0.9, 0.99]
    assert [type(x) for x in got] == [float] * 7
    assert [x.hex() for x in got] == [x.hex() for x in expected]


def test_priority_fee_distribution_empty():
    dist = priority_fee_distribution([make_record(status="success")])
    assert dist == {"count": 0, "zero_fee_share": 0.0, "one_wei_share": 0.0, "quantiles": {}}


def test_csv_rejects_bad_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("tx_hash,day,status\n0x1,2025-05-01,success\n")
    with pytest.raises(SchemaError, match="expected header"):
        read_records_csv(bad, bad.read_text())


def test_csv_rejects_bad_row(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        ",".join(
            [
                "tx_hash",
                "day",
                "block_number",
                "tx_index",
                "status",
                "from_address",
                "to_address",
                "gas_price",
                "priority_fee_per_gas",
                "gas_used",
                "l1_fee",
                "chain",
            ]
        )
        + "\n0x1,2025-05-01,1,0,success,0xa,0xb,ten,0,21000,0,base\n"
    )
    with pytest.raises(SchemaError, match=f"^{re.escape(str(bad))} line 2: invalid literal"):
        read_records_csv(bad, bad.read_text())


@pytest.mark.parametrize("cells", [11, 5, 13])
def test_csv_rejects_short_row(tmp_path, cells):
    # csv.DictReader fills the missing trailing cells of a short row with
    # None, and files the extra cells of a long one under the key None
    row = "0x1,2025-05-01,1,0,success,0xa,0xb,10,0,21000,0,base,extra".split(",")
    bad = tmp_path / "short.csv"
    bad.write_text(",".join(TX_RECORD_HEADER) + "\n" + ",".join(row[:cells]) + "\n")
    with pytest.raises(SchemaError, match=f"^{re.escape(str(bad))} line 2: expected 12 cells$"):
        read_records_csv(bad, bad.read_text())


def dictreader_records(path):
    """The records parser as it was on ``csv.DictReader``: the reference."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != TX_RECORD_HEADER:
            raise SchemaError(f"{path}: expected header {TX_RECORD_HEADER}, got {reader.fieldnames}")
        records = []
        for line_no, row in enumerate(reader, start=2):
            if None in row or None in row.values():
                raise SchemaError(f"line {line_no}: expected {len(TX_RECORD_HEADER)} cells")
            try:
                records.append(TxRecord(**{
                    **row,
                    "day": dt.date.fromisoformat(row["day"]),
                    **{k: int(row[k]) for k in INT_COLUMNS},
                }))
            except (KeyError, ValueError) as exc:
                raise SchemaError(f"line {line_no}: {exc}") from exc
        return records


GOOD = f"0x1,2025-05-01,1,0,success,0x{'A' * 40},0x{'b' * 40},10,0,21000,0,base"
INT_COLUMNS = ("block_number", "tx_index", "gas_price", "priority_fee_per_gas", "gas_used", "l1_fee")


def with_cell(name, value):
    cells = GOOD.split(",")
    cells[TX_RECORD_HEADER.index(name)] = value
    return ",".join(cells)


@pytest.mark.parametrize(
    "body",
    [
        pytest.param([GOOD, GOOD.replace("0x1", "0x2")], id="valid"),
        pytest.param([GOOD, "", GOOD, "0x1,2025-05-01,1"], id="short-after-blank"),
        pytest.param([GOOD, GOOD + ",extra"], id="long"),
        pytest.param(["", "", GOOD, "", GOOD.replace(",10,", ",ten,")], id="bad-int-after-blanks"),
        pytest.param([GOOD.replace("2025-05-01", "2025-13-01")], id="bad-day"),
        pytest.param([GOOD.replace("success", "pending")], id="bad-status"),
        *[pytest.param([GOOD, with_cell(name, "0xab")], id=f"bad-{name}") for name in ("from_address", "to_address")],
        *[pytest.param([with_cell(name, "-1")], id=f"negative-{name}") for name in INT_COLUMNS],
        pytest.param([GOOD.replace(",0,base", ",-1,base").replace(",1,0,", ",-1,0,")], id="two-negatives"),
        pytest.param(["", GOOD], id="blank-first-row"),
        pytest.param(['"0x1",2025-05-01,1,0,success,"0xa,0xb",0xb,10,0,21000,0,base'], id="quoted-comma"),
    ],
)
def test_records_parser_matches_dictreader_reference(tmp_path, body):
    path = tmp_path / "records.csv"
    path.write_text(",".join(TX_RECORD_HEADER) + "\n" + "\n".join(body) + "\n")
    text = path.read_text(encoding="utf-8")
    try:
        expected = dictreader_records(path)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as info:
            read_records_csv(path, text)
        assert str(info.value) == f"{path} {exc}"  # a row error names the file
    else:
        assert read_records_csv(path, text) == expected


@pytest.mark.parametrize("text", ["", "\n" + ",".join(TX_RECORD_HEADER) + "\n", "tx_hash,day\n"])
def test_records_header_errors_match_dictreader_reference(tmp_path, text):
    path = tmp_path / "records.csv"
    path.write_text(text)
    with pytest.raises(SchemaError) as expected:
        dictreader_records(path)
    with pytest.raises(SchemaError) as info:
        read_records_csv(path, text)
    assert str(info.value) == str(expected.value)
