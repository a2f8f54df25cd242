"""CLI surface: commands, formats, determinism, exit codes."""

import json
import shlex
from pathlib import Path

import pytest

from equivol import cli
from equivol.cli import main
from equivol.corpus import scenario_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_one_error_line(code, out, err, cause):
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert cause in lines[0]


P2 = str(scenario_path("p2_circle"))
P1 = str(scenario_path("p1_hyperplane"))
SU2 = str(scenario_path("su2_p3"))
UNSTABLE = str(scenario_path("p1_unstable"))
SU2_UNSTABLE = str(scenario_path("su2_p1"))  # classify lists r_mu only when unstable
# P(Sym^1) x P(Sym^2): a valid document outside the su2 geometry's scope
SU2_PRODUCT = {"group": "su2", "g": 3, "factors": [{"dim": 1, "sym_powers": [1]}, {"dim": 2, "sym_powers": [2]}],
               "bundle": {"degrees": [1, 1]}}


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


def test_classify_polygon(capsys):
    code, out, _ = run(capsys, "classify", "--scenario", str(scenario_path("p1p1_diag")))
    assert code == 0
    assert out.splitlines() == [
        "stability: regular",
        "zero_position: inside",
        "moment_image: polygon [(-1,-1), (1,-1), (1,1), (-1,1)]",
        "generic_stabilizer_order: 4",
        "invariant_factors: 2,2",
    ]


def test_classify_trivial_su2_stabilizer_is_infinite(tmp_path, capsys):
    doc = tmp_path / "trivial_su2.json"
    doc.write_text(json.dumps({**SU2_BASE, "factors": [{"dim": 1, "sym_powers": [0, 0]}]}))
    code, out, _ = run(capsys, "classify", "--scenario", str(doc))
    assert code == 0
    assert out.splitlines() == [
        "stability: trivial_action",
        "zero_position: on_vertex_or_wall",
        "moment_image: dominant interval [0, 0]",
        "generic_stabilizer_order: infinite",
    ]


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


def test_verify_extra_scenario_json(tmp_path, capsys):
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps(BASE))
    code, out, _ = run(capsys, "verify", "--suite", "oracle", "--scenario", str(extra), "--format", "json")
    assert code == 0
    summary, payload = out.split("\n", 1)
    assert summary.startswith("suite oracle: ")
    (report,) = json.loads(payload)
    assert report["suite"] == "oracle" and report["passed"]
    assert report["scenarios"][-1] == str(extra)
    assert report["checks_passed"] == report["checks_total"] == len(report["records"])
    assert any(r["scenario"] == str(extra) for r in report["records"])


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
    assert_one_error_line(*run(capsys, "volume", "--scenario", str(bad), "--mu", "0"), "`degrees`")


def test_unreadable_scenario_is_input_error(capsys):
    assert_one_error_line(*run(capsys, "classify", "--scenario", "/nonexistent.json"), "cannot read scenario")


def test_mu_required(capsys):
    assert_one_error_line(*run(capsys, "volume", "--scenario", P2), "volume needs --mu or --mu-range")


@pytest.mark.parametrize(
    "argv, cause",
    [
        (["classify", "--scenario", "NOT_JSON"], "is not valid JSON: line 1"),
        (["multiplicity", "--scenario", P2, "--k", "1", "--mu", "1,x"], "cannot parse weight '1,x'"),
        (["volume", "--scenario", P1, "--mu-range", "3..1"], "empty range '3..1'"),
        (["volume", "--scenario", P1, "--mu-range", "1-3"], "cannot parse range '1-3'"),
        (["multiplicity", "--scenario", P2, "--k", "1"], "multiplicity needs --mu or --all-mu"),
        (["multiplicity", "--scenario", P2, "--k", "-1", "--all-mu"], "tensor power must be >= 0"),
        (["table", "--scenario", P2, "--k-max", "-1"], "--k-max must be >= 0, got -1"),
        (["volume", "--scenario", SU2, "--mu-range=-5..-1"], "no dominant weight in range '-5..-1'"),
        (["predict", "--scenario", SU2, "--mu-range=-5..-1"], "no dominant weight in range '-5..-1'"),
        (["classify", "--scenario", SU2_UNSTABLE, "--mu-range=-5..-1"], "no dominant weight in range '-5..-1'"),
        (["classify", "--scenario", SU2, "--mu-range=abc"], "cannot parse range 'abc'"),
        (["classify", "--scenario", SU2, "--mu-range=3..1"], "empty range '3..1'"),
        (["multiplicity", "--scenario", P2, "--k", "1", "--mu", "1", "--all-mu"], "takes --mu or --all-mu, not both"),
        (["classify", "--scenario", "SU2_PRODUCT"], "su2 geometry supports single-factor scenarios"),
        # a box past the cell budget is refused before its weights are listed
        (["volume", "--scenario", P2, "--mu-range=-100000000..100000000"],
         "--mu-range '-100000000..100000000' spans 200000001 weights > budget 60000000"),
        (["predict", "--scenario", P2, "--mu-range=-100000000..100000000"], "spans 200000001 weights"),
        (["classify", "--scenario", UNSTABLE, "--mu-range=-100000000..100000000"], "spans 200000001 weights"),
        (["volume", "--scenario", str(scenario_path("p1p1_diag")), "--mu-range=-4000..4000"],
         "--mu-range '-4000..4000' spans 64016001 weights"),
        (["volume", "--scenario", SU2, "--mu-range=-100000000..60000000"], "spans 60000001 weights"),
        # the weight flags are read before any count, fit or classification
        (["volume", "--scenario", UNSTABLE, "--mu", "1", "--mu-range=abc"], "volume takes --mu or --mu-range, not both"),
        (["volume", "--scenario", P2, "--mu", "0", "--mu-range=0..2"], "volume takes --mu or --mu-range, not both"),
        (["predict", "--scenario", UNSTABLE, "--mu-range=abc"], "cannot parse range 'abc'"),
        (["classify", "--scenario", UNSTABLE, "--mu-range="], "cannot parse range ''"),
        # a document that is not an object, a weight of the wrong length, a bad --m-max
        (["classify", "--scenario", "LIST_DOC"], "scenario document must be an object"),
        (["multiplicity", "--scenario", str(scenario_path("p1p1_diag")), "--k", "1", "--mu", "1,2,3"],
         "weight (1, 2, 3) must have length 2"),
        (["exponent", "--scenario", P2, "--m-max", "0"], "m_max must be >= 1"),
    ],
)
def test_bad_document_or_flag_is_input_error(tmp_path, capsys, argv, cause):
    docs = {name: tmp_path / f"{name.lower()}.json" for name in ("NOT_JSON", "LIST_DOC", "SU2_PRODUCT")}
    docs["NOT_JSON"].write_text('{"group": "circle_power", "g": 1,')
    docs["LIST_DOC"].write_text("[]")
    docs["SU2_PRODUCT"].write_text(json.dumps(SU2_PRODUCT))
    argv = [str(docs[a]) if a in docs else a for a in argv]
    assert_one_error_line(*run(capsys, *argv), cause)


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--scenario", P2, "--k-max", "2"],
        ["volume", "--scenario", P1, "--mu", "0"],
        ["verify", "--suite", "continuity"],
    ],
    ids=["table", "volume", "verify"],
)
@pytest.mark.parametrize("target, reason", [("missing/x.csv", "No such file or directory"), (".", "Is a directory")])
def test_unwritable_out_is_input_error(tmp_path, capsys, argv, target, reason):
    out = tmp_path / target
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert (code, err) == (2, f"error: cannot write {out}: {reason}\n")
    # verify prints its summaries before it writes the report
    assert argv[0] == "verify" or stdout == ""


def test_classify_takes_no_format(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--scenario", P2, "--format", "json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


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


# sparse rank-2 weights of size 1000: every coordinate moves in steps of
# 2000, which the packed counts divide out
SPARSE_RANK2 = {
    "group": "circle_power",
    "g": 2,
    "factors": [
        {"dim": 1, "weights": [[1000, 0], [-1000, 0]]},
        {"dim": 1, "weights": [[0, 1000], [0, -1000]]},
    ],
    "bundle": {"degrees": [1, 1]},
}

# the same weights with a unit step added to each coordinate: the packed
# counts of level 50 span 100001 x 100001 slots, over the default budget
DENSE_RANK2 = {
    "group": "circle_power",
    "g": 2,
    "factors": [
        {"dim": 2, "weights": [[1000, 0], [-1000, 0], [1, 0]]},
        {"dim": 2, "weights": [[0, 1000], [0, -1000], [0, 1]]},
    ],
    "bundle": {"degrees": [1, 1]},
}


def test_sparse_weights_are_counted_in_steps(tmp_path, capsys):
    doc = tmp_path / "sparse.json"
    doc.write_text(json.dumps(SPARSE_RANK2))
    code, out, err = run(capsys, "multiplicity", "--scenario", str(doc), "--k", "50", "--mu", "0,0")
    assert (code, out, err) == (0, 'k,mu,dim\n50,"(0,0)",1\n', "")


def test_engine_limit_is_input_error(tmp_path, capsys):
    doc = tmp_path / "dense.json"
    doc.write_text(json.dumps(DENSE_RANK2))
    code, out, err = run(capsys, "multiplicity", "--scenario", str(doc), "--k", "50", "--mu", "0,0")
    assert_one_error_line(code, out, err, "need 10000200001 slots > budget 60000000")


# a rank-2 fit of period P = 44,767,800 and 6 samples per class
LARGE_PERIOD = {
    "group": "circle_power",
    "g": 2,
    "factors": [
        {"dim": 2, "weights": [[-1, 3], [0, 0], [-2, 0]]},
        {"dim": 2, "weights": [[3, -2], [1, 2], [3, 1]]},
        {"dim": 2, "weights": [[-3, -2], [-2, 2], [3, -3]]},
    ],
    "bundle": {"degrees": [2, 1, 3], "twist": [-2, 0]},
}


def test_fit_over_budget_is_input_error(tmp_path, capsys):
    # the fit's sample levels are counted before any of them is built
    doc = tmp_path / "large_period.json"
    doc.write_text(json.dumps(LARGE_PERIOD))
    code, out, err = run(capsys, "volume", "--scenario", str(doc), "--mu", "0,0")
    assert_one_error_line(code, out, err, "fit needs 268606800 sample levels > budget 60000000")


# documents that each give one field a value of the wrong JSON type
BASE = {"group": "circle_power", "g": 1, "factors": [{"dim": 2, "weights": [1, 0, -1]}],
        "bundle": {"degrees": [1]}}
SU2_BASE = {"group": "su2", "g": 3, "factors": [{"dim": 3, "sym_powers": [3]}], "bundle": {"degrees": [1]}}


def _with(base, path, value):
    """A copy of `base` with the entry at the key path set to `value`."""
    doc = json.loads(json.dumps(base))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "doc, field",
    [
        (_with(BASE, ("factors", 0, "dim"), "2"), "factors[0].dim"),
        (_with(BASE, ("factors", 0, "weights"), None), "factors[0].weights"),
        (_with(BASE, ("factors", 0, "weights"), [1, 0.5, -1]), "factors[0].weights"),
        (_with(BASE, ("bundle", "degrees"), 1), "bundle.degrees"),
        (_with(BASE, ("g",), True), "g"),
        (_with(BASE, ("bundle", "degrees"), "1"), "bundle.degrees"),
        (_with(BASE, ("bundle", "degrees"), [True]), "bundle.degrees"),
        (_with(SU2_BASE, ("factors", 0, "sym_powers"), "3"), "factors[0].sym_powers"),
        (_with(BASE, ("bundle", "twist"), "1"), "bundle.twist"),
        # well-typed values that no scenario takes
        (_with(BASE, ("bundle", "degrees"), [0]), "bundle.degrees"),
        (_with(BASE, ("bundle", "degrees"), [1, 1]), "bundle.degrees"),
        (_with(BASE, ("factors", 0, "dim"), 0), "factors[0].dim"),
        (_with(BASE, ("factors", 0, "weights"), [1, -1]), "factors[0].weights"),
        (_with(BASE, ("factors", 0, "weights"), [[1, 0], [0, 1], [0, 0]]), "factors[0].weights"),
        (_with(SU2_BASE, ("g",), 2), "g"),
        (_with(SU2_BASE, ("factors", 0, "sym_powers"), [1]), "factors[0].sym_powers"),
        (_with(SU2_BASE, ("bundle", "twist"), [1]), "bundle.twist"),
        (_with(BASE, ("bundle", "twist"), [0, 0]), "bundle.twist"),
        # a factor carrying the other group kind's field
        (_with(SU2_BASE, ("factors", 0, "weights"), [3, 1, -1, -3]), "factors[0].weights"),
        (_with(BASE, ("factors", 0), {"dim": 2, "sym_powers": [2]}), "weights"),
        # an unknown group, a factor with no dim
        (_with(BASE, ("group",), "u1"), "group"),
        (_with(BASE, ("factors", 0), {"weights": [1, 0, -1]}), "dim"),
    ],
)
def test_mistyped_field_is_input_error(tmp_path, capsys, doc, field):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert_one_error_line(*run(capsys, "classify", "--scenario", str(path)), f"`{field}`")


def _documented_commands():
    """Every `equivol ...` line of the README's command-line block and of the
    cli module docstring, as argument lists."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.splitlines() + cli.__doc__.splitlines()
    commands = [line for line in lines if line.strip().startswith("equivol ")]
    return [shlex.split(line, comments=True)[1:] for line in commands]


def test_documented_commands_parse():
    commands = _documented_commands()
    assert len(commands) >= 16
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"documented command does not parse: equivol {shlex.join(argv)}")
