"""Verification suites over the shipped corpus."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import equivol
from equivol import suites
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


def test_oracle_suite_under_optimized_python():
    src = str(Path(equivol.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "equivol.cli", "verify", "--suite", "oracle"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
