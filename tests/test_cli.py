"""CLI surface: commands, formats, determinism, exit codes."""

import json

import pytest

from equivol.cli import main
from equivol.corpus import scenario_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


P2 = str(scenario_path("p2_circle"))
P1 = str(scenario_path("p1_hyperplane"))
SU2 = str(scenario_path("su2_p3"))
UNSTABLE = str(scenario_path("p1_unstable"))


def test_multiplicity_single(capsys):
    code, out, _ = run(capsys, "multiplicity", "--scenario", P2, "--k", "4", "--mu", "0")
    assert code == 0
    assert out.splitlines() == ["k,mu,dim", "4,0,3"]


def test_multiplicity_all_mu(capsys):
    code, out, _ = run(capsys, "multiplicity", "--scenario", SU2, "--k", "3", "--all-mu")
    assert code == 0
    assert out.splitlines() == ["k,mu,dim", "3,1,4", "3,3,16"]


def test_multiplicity_k0(capsys):
    code, out, _ = run(capsys, "multiplicity", "--scenario", P2, "--k", "0", "--all-mu")
    assert code == 0
    assert out.splitlines() == ["k,mu,dim", "0,0,1"]


def test_volume_range(capsys):
    code, out, _ = run(capsys, "volume", "--scenario", P1, "--mu-range=-3..3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mu,value,status,residue,period"
    assert len(lines) == 8
    assert all(line.split(",")[1] == "1" for line in lines[1:])


def test_volume_p2_half(capsys):
    code, out, _ = run(capsys, "volume", "--scenario", P2, "--mu", "1")
    assert code == 0
    assert out.splitlines()[1].startswith("1,1/2,exact")


def test_volume_trivial_statuses(capsys):
    trivial = str(scenario_path("p2_trivial"))
    code, out, _ = run(capsys, "volume", "--scenario", trivial, "--mu-range=-1..1")
    assert code == 0
    rows = {line.split(",")[0]: line.split(",")[2] for line in out.splitlines()[1:]}
    assert rows["0"] == "infinite"
    assert rows["1"] == "zero" and rows["-1"] == "zero"


def test_exponent_command(capsys):
    code, out, _ = run(capsys, "exponent", "--scenario", P1, "--m-max", "10")
    assert code == 0
    assert "exponent: 2" in out
    assert "semigroup: [2, 4, 6, 8, 10]" in out


def test_classify_regular(capsys):
    code, out, _ = run(capsys, "classify", "--scenario", P2)
    assert code == 0
    assert "stability: regular" in out
    assert "generic_stabilizer_order: 2" in out
    assert "interval [-1, 1]" in out


def test_classify_unstable_emits_bounds(capsys):
    code, out, _ = run(capsys, "classify", "--scenario", UNSTABLE, "--mu-range", "4..6")
    assert code == 0
    assert "stability: unstable_everywhere" in out
    assert "mu=5: r_mu=6" in out


def test_predict_table(capsys):
    code, out, _ = run(capsys, "predict", "--scenario", SU2, "--mu-range", "0..3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mu,compatible,witness,predicted"
    assert lines[1] == "0,True,2,1"
    assert lines[4] == "3,True,1,16"


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "exponent_law")
    assert code == 0
    assert "suite exponent_law:" in out


def test_table_export_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for dest in (out1, out2):
        code, _, _ = run(capsys, "table", "--scenario", P1, "--k-max", "4", "--out", str(dest))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().splitlines()[0] == "k,mu,dim"


def test_json_format(capsys):
    code, out, _ = run(capsys, "volume", "--scenario", P2, "--mu", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["value"] == "1/2"


def test_missing_field_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"group": "circle_power", "g": 1, "factors": [{"dim": 1, "weights": [1, -1]}], "bundle": {}}')
    code, _, err = run(capsys, "volume", "--scenario", str(bad), "--mu", "0")
    assert code == 2
    assert "degrees" in err


def test_unreadable_scenario_is_input_error(capsys):
    code, _, err = run(capsys, "classify", "--scenario", "/nonexistent.json")
    assert code == 2


def test_mu_required(capsys):
    code, _, err = run(capsys, "volume", "--scenario", P2)
    assert code == 2


def test_empty_table_header_only(tmp_path, capsys):
    # a weight outside the reachable range yields a zero row, never a crash
    code, out, _ = run(capsys, "multiplicity", "--scenario", P1, "--k", "2", "--mu", "9")
    assert code == 0
    assert out.splitlines() == ["k,mu,dim", "2,9,0"]


def test_csv_of_no_rows_is_header_only():
    from equivol.tables import to_csv

    assert to_csv([], ["mu", "value", "status", "residue", "period"]) == (
        "mu,value,status,residue,period\n"
    )


# sparse rank-2 weights of size 1000: the packed counts of level 50 exceed
# the default cell budget
SPARSE_RANK2 = {
    "group": "circle_power",
    "g": 2,
    "factors": [
        {"dim": 1, "weights": [[1000, 0], [-1000, 0]]},
        {"dim": 1, "weights": [[0, 1000], [0, -1000]]},
    ],
    "bundle": {"degrees": [1, 1]},
}


def test_engine_limit_is_input_error(tmp_path, capsys):
    doc = tmp_path / "sparse.json"
    doc.write_text(json.dumps(SPARSE_RANK2))
    code, out, err = run(capsys, "multiplicity", "--scenario", str(doc), "--k", "50", "--mu", "0,0")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "budget 60000000" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flag, field",
    [("--p-max=0", "period_factor_max"), ("--k-max=0", "m_max"), ("--p-max=-1", "period_factor_max")],
)
def test_bad_fit_horizon_is_input_error(capsys, flag, field):
    code, out, err = run(capsys, "volume", "--scenario", P2, "--mu", "0", flag)
    assert code == 2 and out == ""
    assert f"`{field}`" in err
