"""Table emission: every command's rows are tuples in header order;
`to_csv` writes them in one call, and its bytes match `csv.DictWriter` on
the rows zipped with the header, as `--format json` writes them."""

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

    def recording(rows, fieldnames):
        emitted.append((rows, fieldnames))
        return to_csv(rows, fieldnames)

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


@pytest.mark.parametrize("fieldnames", [["k", "mu", "dim"], [], ["mu", "value", "status", "residue", "period"]])
def test_to_csv_of_no_rows_matches_dictwriter(fieldnames):
    assert tables.to_csv([], fieldnames) == dictwriter_csv([], fieldnames)


def test_to_csv_single_field():
    rows = [("(1,-2)",), ("3",)]
    dicts = [{"mu": "(1,-2)"}, {"mu": "3"}]
    assert tables.to_csv(rows, ["mu"]) == dictwriter_csv(dicts, ["mu"]) == 'mu\n"(1,-2)"\n3\n'


def test_multiplicity_rows_share_rendered_weights():
    rows = tables.multiplicity_rows(None, [((0, (0, 1)), 1), ((1, (-1, 0)), 3), ((1, (0, 1)), 2)])
    assert rows == [
        (0, "(0,1)", 1),
        (1, "(-1,0)", 3),
        (1, "(0,1)", 2),
    ]
    assert rows[0][1] is rows[2][1]
