"""Table emission: every command's rows are tuples in header order;
`to_csv` writes them in one call (a table's rows a level at a time, from
the levels' lists), and its bytes match `csv.DictWriter` on the rows zipped
with the header, as `--format json` writes them."""

import csv
import io
import tracemalloc
from pathlib import Path

import pytest

from equivol import tables
from equivol.cli import load_scenario, main
from equivol.corpus import scenario_path
from equivol.counting import isotypic_table, section_dimension

DOCS = Path(__file__).parent / "docs"


def dictwriter_csv(rows, fieldnames):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


COMMANDS = {
    "table_rank1": ["table", "--scenario", str(scenario_path("p2_skew")), "--k-max", "5"],
    "table_rank2": ["table", "--scenario", str(scenario_path("p1p1_diag")), "--k-max", "3"],
    "multiplicity_su2": ["multiplicity", "--scenario", str(scenario_path("su2_p5")), "--k", "4", "--all-mu"],
    "volume": ["volume", "--scenario", str(scenario_path("p2p1_product")), "--mu-range=-2..2"],
    "volume_zero": ["volume", "--scenario", str(scenario_path("p1_unstable")), "--mu-range=-1..1"],
    "predict": ["predict", "--scenario", str(scenario_path("p2_skew"))],
    "table_rank3": ["table", "--scenario", str(DOCS / "circle_rank3_p4.json"), "--k-max", "4"],
    "multiplicity_past_64_bits": ["multiplicity", "--scenario", str(DOCS / "width9_p25.json"), "--k", "60", "--all-mu"],
    "multiplicity_zero": ["multiplicity", "--scenario", str(scenario_path("p2_circle")), "--k", "2", "--mu", "99"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_to_csv_matches_dictwriter(name, monkeypatch, capsys):
    emitted = []
    to_csv = tables.to_csv

    def recording(rows, fieldnames):
        text = to_csv(rows, fieldnames)  # the object the command passed
        if hasattr(rows, "levels"):
            # a table is written from its levels, and its rows are still
            # unread; the reference is built from the levels alone
            reference = [(k, tables.render_weight(mu), n) for k, mus, ns in rows.levels for mu, n in zip(mus, ns)]
            assert list(rows) == reference
            rows = reference
        emitted.append((list(rows), fieldnames))
        return text

    monkeypatch.setattr(tables, "to_csv", recording)
    assert main(COMMANDS[name]) == 0
    (rows, fieldnames), = emitted
    assert rows
    assert all(type(row) is tuple and len(row) == len(fieldnames) for row in rows)
    dicts = [dict(zip(fieldnames, row)) for row in rows]
    text = dictwriter_csv(dicts, fieldnames)
    assert capsys.readouterr().out == text
    # JSON writes the same rows as objects keyed by the header
    assert main(COMMANDS[name] + ["--format", "json"]) == 0
    assert capsys.readouterr().out == tables.to_json(dicts)
    if name == "table_rank2":
        assert '"(1,-1)"' in text
    if name == "table_rank3":
        assert '\n1,"(1,0,0)",1\n' in text
    if name == "multiplicity_past_64_bits":
        assert max(n for _, _, n in rows) >= 2**64
    if name == "multiplicity_zero":
        assert text == "k,mu,dim\n2,99,0\n"


@pytest.mark.parametrize("fieldnames", [["k", "mu", "dim"], [], ["mu", "value", "status", "residue", "period"]])
def test_to_csv_of_no_rows_matches_dictwriter(fieldnames):
    assert tables.to_csv([], fieldnames) == dictwriter_csv([], fieldnames)


def test_to_csv_single_field():
    rows = [("(1,-2)",), ("3",)]
    dicts = [{"mu": "(1,-2)"}, {"mu": "3"}]
    assert tables.to_csv(rows, ["mu"]) == dictwriter_csv(dicts, ["mu"]) == 'mu\n"(1,-2)"\n3\n'


def test_multiplicity_rows_share_rendered_weights():
    rows = list(tables.multiplicity_rows(None, [(0, [(0, 1)], [1]), (1, [(-1, 0), (0, 1)], [3, 2])]))
    assert rows == [
        (0, "(0,1)", 1),
        (1, "(-1,0)", 3),
        (1, "(0,1)", 2),
    ]
    assert rows[0][1] is rows[2][1]


def test_table_csv_matches_csv_writer_on_its_rows():
    # a level at a time: int and tuple weights, a 1-tuple (no comma, so not
    # quoted), empty levels, negative weights and counts past 64 bits
    levels = [
        (0, [], []),
        (1, [-3, 0, 7], [1, 2**70, 3]),
        (2, [(3,), (-4,)], [5, 6]),
        (3, [(0, 1), (-1, 0)], [1, 2]),
        (4, [], []),
        (5, [(1, -2, 3)], [2**64]),
    ]
    text = tables.to_csv(tables.multiplicity_rows(None, levels), ["k", "mu", "dim"])
    assert text == tables.to_csv(list(tables.multiplicity_rows(None, levels)), ["k", "mu", "dim"])
    assert "\n2,(3),5\n" in text and '\n5,"(1,-2,3)",18446744073709551616\n' in text


def test_table_rows_stream_from_the_levels_lists(capsys):
    s = load_scenario(str(scenario_path("p1p1_diag")))
    table = isotypic_table(s, 60)
    levels = table.sorted_items()
    assert [lv[0] for lv in levels] == list(range(61))
    # the levels are the table's own lists, not copies
    for k, mus, ns in levels:
        assert mus is table.levels[k][1] and ns is table.levels[k][2]
    rows = tables.multiplicity_rows(s, levels)
    assert iter(rows) is rows
    # the rows are read once, with no list of rows or items behind them:
    # emitting 77,531 rows a level at a time peaks at about 2.1 bytes a CSV
    # byte (the level strings and their join), where csv.writer rows took
    # 5.8 and lists of items and rows 13
    tracemalloc.start()
    try:
        text = tables.to_csv(rows, ["k", "mu", "dim"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("\n") == 1 + sum(len(mus) for _, mus, _ in levels) == 77_532
    assert peak < 3 * len(text)
    # a single weight is one level of one row
    assert main(["multiplicity", "--scenario", str(scenario_path("p1p1_diag")), "--k", "4", "--mu", "0,0"]) == 0
    assert capsys.readouterr().out == f'k,mu,dim\n4,"(0,0)",{section_dimension(s, 4, (0, 0))}\n'
