"""Table emission: `to_csv` writes every row in one call, and its bytes
match `csv.DictWriter` on the rows each command emits."""

import csv
import io

import pytest

from equivol import tables
from equivol.cli import main
from equivol.corpus import scenario_path


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
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_to_csv_matches_dictwriter(name, monkeypatch, capsys):
    emitted = []
    to_csv = tables.to_csv

    def recording(rows, fieldnames=None):
        emitted.append((rows, fieldnames))
        return to_csv(rows, fieldnames)

    monkeypatch.setattr(tables, "to_csv", recording)
    assert main(COMMANDS[name]) == 0
    (rows, fieldnames), = emitted
    assert rows
    text = dictwriter_csv(rows, fieldnames)
    assert capsys.readouterr().out == text
    assert to_csv(rows) == text  # the first row's keys are the fields
    if name == "table_rank2":
        assert '"(1,-1)"' in text


@pytest.mark.parametrize("fieldnames", [None, [], ["mu", "value", "status", "residue", "period"]])
def test_to_csv_of_no_rows_matches_dictwriter(fieldnames):
    assert tables.to_csv([], fieldnames) == dictwriter_csv([], fieldnames or [])


def test_to_csv_single_field():
    rows = [{"mu": "(1,-2)"}, {"mu": "3"}]
    assert tables.to_csv(rows) == dictwriter_csv(rows, ["mu"]) == 'mu\n"(1,-2)"\n3\n'


def test_multiplicity_rows_share_rendered_weights():
    rows = tables.multiplicity_rows(None, [((1, (0, 1)), 2), ((0, (0, 1)), 1), ((1, (-1, 0)), 3)])
    assert rows == [
        {"k": 0, "mu": "(0,1)", "dim": 1},
        {"k": 1, "mu": "(-1,0)", "dim": 3},
        {"k": 1, "mu": "(0,1)", "dim": 2},
    ]
    assert rows[0]["mu"] is rows[2]["mu"]
