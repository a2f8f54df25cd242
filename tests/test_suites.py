"""Verification suites over the shipped corpus."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import equivol
from equivol import counting, su2_scenario, suites
from equivol.suites import SUITE_NAMES, run_suite


@pytest.fixture(scope="module")
def reports(corpus):
    return {name: run_suite(name, corpus) for name in SUITE_NAMES}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_passes(reports, name):
    rep = reports[name]
    failures = [r for r in rep.records if not r.passed]
    assert rep.passed, failures[:3]


def test_reports_carry_rerun_data(reports):
    for rep in reports.values():
        for r in rep.records:
            assert r.scenario and r.claim
            d = r.to_dict()
            assert set(d) == {"scenario", "claim", "lhs", "rhs", "passed", "witness"}


# per suite, the scenarios that get records and how many, in record order;
# the scope of each suite and the order of its checks on the corpus
SCOPES = {
    "oracle": {
        "p1_hyperplane": 18, "p1_square": 18, "p2_circle": 18, "p3_semistable": 18,
        "p3_last_coordinate": 18, "p1_unstable": 18, "p2_trivial": 18, "p3_balanced": 18,
        "p2_skew": 18, "p1p1_diag": 18, "p2p1_product": 18, "su2_p3": 18, "su2_p1": 18, "su2_p5": 18,
    },
    "homogeneity": {
        "p1_hyperplane": 16, "p1_square": 16, "p2_circle": 16, "p3_semistable": 6,
        "p3_last_coordinate": 6, "p1_unstable": 6, "p3_balanced": 16, "p2_skew": 16,
        "p1p1_diag": 56, "p2p1_product": 6, "su2_p3": 12, "su2_p1": 6, "su2_p5": 12,
    },
    "exponent_law": {
        "p1_hyperplane": 12, "p1_square": 12, "p2_circle": 12, "p3_semistable": 12,
        "p3_last_coordinate": 12, "p2_trivial": 12, "p3_balanced": 12, "p2_skew": 12,
        "p1p1_diag": 12, "p2p1_product": 12, "su2_p3": 12, "su2_p5": 12,
    },
    "compatibility": {
        "p1_hyperplane": 14, "p1_square": 14, "p2_circle": 14, "p3_balanced": 14,
        "p2_skew": 14, "p1p1_diag": 26, "su2_p3": 8, "su2_p5": 8,
    },
    "vanishing": {
        "p1_hyperplane": 1, "p1_square": 1, "p2_circle": 1, "p3_semistable": 1,
        "p3_last_coordinate": 1, "p1_unstable": 14, "p2_trivial": 1, "p3_balanced": 1,
        "p2_skew": 1, "p1p1_diag": 1, "p2p1_product": 1, "su2_p3": 1, "su2_p1": 8, "su2_p5": 1,
    },
    "monotonicity": {
        "p1_hyperplane": 7, "p1_square": 7, "p2_circle": 7, "p3_semistable": 7,
        "p3_last_coordinate": 7, "p1_unstable": 7, "p2_trivial": 7, "p3_balanced": 7,
        "p2_skew": 7, "p1p1_diag": 25, "p2p1_product": 7, "su2_p3": 4, "su2_p5": 4,
    },
    "translation": {
        "p1_hyperplane": 9, "p1_square": 9, "p2_circle": 9, "p3_balanced": 9,
        "p2_skew": 9, "p1p1_diag": 25, "su2_p3": 5, "su2_p5": 5,
    },
    "continuity": {"p2_family": 31},
}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_scope_on_corpus(reports, corpus, name):
    rep = reports[name]
    runs = [(label, len(list(group))) for label, group in itertools.groupby(r.scenario for r in rep.records)]
    assert runs == list(SCOPES[name].items())
    assert rep.scenarios == (["p2_family"] if name == "continuity" else [label for label, _ in corpus])


def test_geometry_suites_skip_unsupported_scenarios():
    # two SU(2) factors lie outside the geometry: no check runs, none fails
    pair = ("su2_two_factors", su2_scenario([[1], [1]], [1, 1]))
    for name in ("homogeneity", "compatibility", "vanishing", "monotonicity", "translation"):
        rep = run_suite(name, [pair])
        assert (rep.scenarios, rep.records, rep.passed) == (["su2_two_factors"], [], True)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("sym", [[1], [2], [1, 0], [0, 1], [0, 0], [0, 0, 0]])
def test_small_su2_documents_pass_every_suite(sym, degree):
    # SU(2) on P^1 and P^2, where n - g < 0 for every document: each law
    # normalizes with the clamped degree max(n - g, 0), as volumes do
    s = su2_scenario([sym], [degree])
    for name in [n for n in SUITE_NAMES if n != "continuity"]:  # continuity runs on its own family
        rep = run_suite(name, [("doc", s)])
        assert rep.passed, (name, [r for r in rep.records if not r.passed][:3])


def test_corpus_covers_all_classes(corpus):
    from equivol import classify_stability

    seen = set()
    kinds = set()
    for _, s in corpus:
        kinds.add(s.group.kind)
        if s.group.is_su2 and len(s.factors) > 1:
            continue
        if not s.group.is_su2 and s.group.dim > 2:
            continue
        seen.add(classify_stability(s).stability)
    assert seen == {"regular", "boundary", "unstable_everywhere", "trivial_action"}
    assert kinds == {"circle_power", "su2"}


def test_continuity_reports_finite_constant(reports):
    rep = reports["continuity"]
    final = rep.records[-1]
    assert final.passed
    assert final.lhs.startswith("C = ")
    # on this family vol_0(d, c) = (d - c)/2, so the sharp constant is 1
    assert final.lhs == "C = 1"


def test_unknown_suite_rejected(corpus):
    with pytest.raises(KeyError):
        run_suite("nope", corpus)


def test_homogeneity_p2_values(p2_circle):
    # the p in {3,5} checks on the P^2 example produce 3/2 and 5/2
    from equivol import equivariant_volume, scenario_power

    assert equivariant_volume(scenario_power(p2_circle, 3), 1).value == Fraction(3, 2)
    assert equivariant_volume(scenario_power(p2_circle, 5), 1).value == Fraction(5, 2)


def test_homogeneity_reads_the_exponent_off_the_fit(monkeypatch, reports):
    # the law takes e_G(L) from vol_0's fit, never from the sampled semigroup
    def unsampled(*args, **kwargs):
        raise AssertionError("homogeneity sampled the invariant semigroup")

    monkeypatch.setattr(suites, "g_exponent", unsampled)
    assert run_suite("homogeneity", equivol.default_corpus()).to_dict() == reports["homogeneity"].to_dict()


def test_oracle_records_broken_conservation(monkeypatch, p1_hyperplane):
    # engine and oracle agree on a distribution that has lost a monomial
    def lossy(s, k):
        return {0: 1}

    monkeypatch.setattr(suites, "full_weight_distribution", lossy)
    monkeypatch.setattr(suites, "brute_force_oracle", lossy)
    rep = run_suite("oracle", [("p1", p1_hyperplane)])
    assert not rep.passed
    bad = [r for r in rep.records if not r.passed]
    assert [r.claim for r in bad] == [f"conservation at k={k}" for k in range(1, 9)]
    assert (bad[0].lhs, bad[0].rhs) == ("1", "2")


def count_ladders(monkeypatch) -> list:
    """Record the number of levels of every ladder that is run."""
    ladders = []
    true_ladder = counting._ladder

    def counted(layout, top, ladder):
        ladder = list(ladder)
        ladders.append(len(ladder))
        return true_ladder(layout, top, ladder)

    monkeypatch.setattr(counting, "_ladder", counted)
    return ladders


# the most ladders a law may run on one freshly parsed document: the oracle
# law builds its levels 0..8 in one, the vanishing law its levels 1..12 in
# one and, on an unstable-everywhere document, the range up to k = 40 in a
# second; the exponent law reads levels 1..60 and then the powers' levels
LADDERS_PER_DOCUMENT = {"oracle": 1, "vanishing": 2, "exponent_law": 2}


@pytest.mark.parametrize("name", sorted(LADDERS_PER_DOCUMENT))
def test_each_law_reads_its_levels_in_few_ladders(monkeypatch, name):
    ladders = count_ladders(monkeypatch)
    per_document = {}
    for label, s in equivol.default_corpus():  # freshly parsed: empty stores
        ladders.clear()
        assert run_suite(name, [(label, s)]).passed
        per_document[label] = len(ladders)
    cap = LADDERS_PER_DOCUMENT[name]
    assert max(per_document.values()) <= cap, per_document
    if name == "oracle":
        assert set(per_document.values()) == {1}, per_document


def test_a_law_meets_the_budget_at_its_first_level_past_it(monkeypatch):
    # the levels a law reads are built in one ladder; past the budget the
    # law meets the limit at the first level over it, as a read of one
    # level at a time does, not at its top level
    s = su2_scenario([[3]], [2])
    monkeypatch.setattr(counting, "CELL_BUDGET", 400)
    first = None
    for k in range(0, 9):
        try:
            equivol.full_weight_distribution(equivol.validate_scenario(s), k)
        except equivol.EngineLimit as exc:
            first = str(exc)
            break
    assert first is not None and k < 8
    with pytest.raises(equivol.EngineLimit) as got:
        run_suite("oracle", [("doc", equivol.validate_scenario(s))])
    assert str(got.value) == first


def test_verify_under_optimized_python():
    # every suite passes with asserts stripped, so no engine invariant rests on one
    src = str(Path(equivol.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "equivol.cli", "verify"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    totals = {name: sum(runs.values()) for name, runs in SCOPES.items()}
    assert proc.stdout.splitlines() == [f"suite {name}: {n}/{n} checks passed" for name, n in totals.items()]
