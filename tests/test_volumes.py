"""Semigroups, exponents and exact volume fits."""

import json
from fractions import Fraction

import pytest

from equivol import (
    EngineLimit,
    circle_scenario,
    corpus_scenario,
    counting,
    equivariant_volume,
    g_exponent,
    g_semigroup,
    mu_semigroup,
    residue_volume,
    scenario_from_dict,
    scenario_power,
    section_dimension,
    su2_scenario,
    validate_scenario,
    vanishing_certificate,
    volumes,
    with_bundle,
)
from equivol.cli import main


# --- semigroups and exponents -------------------------------------------------


def test_g_semigroup_even(p1_hyperplane):
    assert g_semigroup(p1_hyperplane, 8) == {2, 4, 6, 8}


def test_g_semigroup_squared(p1_square):
    assert g_semigroup(p1_square, 5) == {1, 2, 3, 4, 5}


def test_g_semigroup_empty(p1_unstable):
    assert g_semigroup(p1_unstable, 10) == frozenset()


def test_g_exponent_values(p1_hyperplane, p1_square, su2_p3):
    assert g_exponent(p1_hyperplane, 20).exponent == 2
    assert g_exponent(p1_square, 20).exponent == 1
    assert g_exponent(su2_p3, 20).exponent == 2


def test_g_exponent_undetermined(p1_unstable):
    res = g_exponent(p1_unstable, 20)
    assert res.exponent is None
    assert res.semigroup == frozenset()


def test_exponent_divides_semigroup(corpus):
    for name, s in corpus:
        if s.group.dim > 2 and not s.group.is_su2:
            continue
        res = g_exponent(s, 24)
        if res.exponent is None:
            continue
        assert all(m % res.exponent == 0 for m in res.semigroup), name
        tail = [m for m in range(res.exponent, 25, res.exponent) if m > res.m_stab]
        assert all(m in res.semigroup for m in tail), name


def test_mu_semigroup(p1_hyperplane, p1_square):
    assert mu_semigroup(p1_hyperplane, 1, 9) == {1, 3, 5, 7, 9}
    assert mu_semigroup(p1_square, 1, 12) == frozenset()
    # mu = 0 coincides with the invariant semigroup
    assert mu_semigroup(p1_hyperplane, 0, 9) == g_semigroup(p1_hyperplane, 9)


# --- residue volumes ----------------------------------------------------------


def test_residue_volume_p2(p2_circle):
    rv = residue_volume(p2_circle, 0, 0)
    assert rv.status == "exact"
    assert rv.value == Fraction(1, 2)


def test_residue_volume_odd_class_zero(p1_hyperplane):
    rv = residue_volume(p1_hyperplane, 0, 1)
    assert rv.status == "zero"
    assert rv.value == 0


def test_residue_volume_unstable(p1_unstable):
    for f in (0, 1):
        for mu in (-2, 0, 3):
            rv = residue_volume(p1_unstable, mu, f)
            assert rv.status == "zero"


def test_residue_reduced_mod_exponent(p1_hyperplane):
    a = residue_volume(p1_hyperplane, 0, 0)
    b = residue_volume(p1_hyperplane, 0, 2)
    assert (a.value, a.status) == (b.value, b.status)


# --- equivariant volumes ------------------------------------------------------


def test_volume_p1_all_weights(p1_hyperplane):
    for mu in range(-6, 7):
        est = equivariant_volume(p1_hyperplane, mu)
        assert est.status == "exact" and est.value == 1, mu


def test_volume_p1_square_odd_zero(p1_square):
    for mu in range(-5, 6):
        est = equivariant_volume(p1_square, mu)
        if mu % 2:
            assert est.status == "zero" and est.value == 0
        else:
            # n - g = 0: the volume is the eventual dimension itself
            assert est.status == "exact" and est.value == 1


def test_volume_p2(p2_circle):
    for mu in range(-4, 5):
        est = equivariant_volume(p2_circle, mu)
        assert est.value == Fraction(1, 2), mu


def test_volume_semitrivial_weights_all_zero():
    s = circle_scenario([[0, 1, 1, 1]], [1])
    for mu in range(-4, 5):
        est = equivariant_volume(s, mu)
        assert est.status == "zero" and est.value == 0, mu


def test_volume_last_coordinate_step():
    s = circle_scenario([[0, 0, 0, 1]], [1])
    for mu in range(0, 5):
        assert equivariant_volume(s, mu).value == 1, mu
    for mu in range(-4, 0):
        assert equivariant_volume(s, mu).value == 0, mu


def test_volume_su2(su2_p3):
    for mu in range(0, 7):
        est = equivariant_volume(su2_p3, mu)
        assert est.value == (mu + 1) ** 2, mu


def test_volume_su2_p5(su2_p5):
    # frozen: vol_mu = (mu+1)^2 / 4 (n - g = 2, vol_0 = 1/4)
    for mu in range(0, 5):
        est = equivariant_volume(su2_p5, mu)
        assert est.value == Fraction((mu + 1) ** 2, 4), mu


def test_volume_su2_unstable():
    s = su2_scenario([[1]], [1])
    for mu in range(0, 5):
        est = equivariant_volume(s, mu)
        assert est.status == "zero"
        assert "negative_quotient_clamped" in est.flags


def test_volume_trivial_action_infinite():
    s = circle_scenario([[0, 0, 0]], [1])
    est0 = equivariant_volume(s, 0)
    assert est0.status == "infinite"
    for mu in (-2, -1, 1, 2):
        assert equivariant_volume(s, mu).status == "zero"


def test_volume_skew_periodic():
    s = circle_scenario([[-1, 1, 2]], [1])
    for mu in range(-3, 4):
        est = equivariant_volume(s, mu)
        assert est.value == Fraction(1, 6), mu
        assert est.fit.period == 6


def test_volume_rank2(p1p1_diag):
    for m1 in range(-2, 3):
        for m2 in range(-2, 3):
            est = equivariant_volume(p1p1_diag, (m1, m2))
            expect = 1 if (m1 - m2) % 2 == 0 else 0
            assert est.value == expect, (m1, m2)


def test_vanishing_shortcut_answers_a_moving_row_dependency():
    # the rows of A satisfy x + y = k on P^1 with weights e1, e2, so
    # mu = (1, 1) is counted only at k = 2.  The fit's k0 does not read
    # that dependency, so the moment image must answer before any fit
    # runs; this pins today's answer on the one route that gives it
    s = circle_scenario([[(1, 0), (0, 1)]], [1])
    assert [section_dimension(s, k, (1, 1)) for k in range(7)] == [0, 0, 1, 0, 0, 0, 0]
    assert vanishing_certificate(s, (1, 1)) == 3
    est = equivariant_volume(s, (1, 1))
    assert (est.status, est.value, est.fit) == ("zero", 0, None)


def test_volume_product():
    s = circle_scenario([[-1, 1, 1], [1, -1]], [1, 1])
    for mu in range(-4, 5):
        est = equivariant_volume(s, mu)
        expect = 1 if mu % 2 == 0 else 0
        assert est.value == expect, mu


def test_volume_twisted_p2():
    # invariants of (O(d), twist c): counts k(d-c)/2 + 1, so vol_0 = (d-c)/2
    for d, c in ((2, 1), (3, 1), (3, -2)):
        s = circle_scenario([[-1, 1, 1]], [d], twist=c)
        assert equivariant_volume(s, 0).value == Fraction(d - c, 2), (d, c)


def test_volume_wide_weights_p2():
    # closed form 2/15; 161 invariants at k = 1200
    s = circle_scenario([[-2, 3, -3]], [1], twist=1)
    assert equivariant_volume(s, 0).value == Fraction(2, 15)


@pytest.mark.parametrize(
    "weights, degrees, twist, mu, vol",
    [
        ([[1, -3, 2]], [1], 2, 0, Fraction(1, 20)),  # = dh_slice_volume
        ([[3, -3], [3, -2]], [1, 1], -2, 0, Fraction(2, 15)),
        ([[-3, 1, -2, 3]], [2], 1, -3, Fraction(53, 120)),
        # weight rows with a common factor: the period comes from the rows
        # divided by it, and the twist confines solutions to one class of k
        ([[100, -100]], [1], 0, 0, 1),
        ([[8, -8, 4, 0]], [2], 2, -4, Fraction(49, 96)),  # = predicted_volume
    ],
)
def test_volume_pins(weights, degrees, twist, mu, vol):
    s = circle_scenario(weights, degrees, twist=twist)
    assert equivariant_volume(s, mu).value == vol


FOUND_RANK2 = circle_scenario([[(1, 0), (1, 2)], [(-2, -1), (1, -2), (-1, 2)]], [2, 2])

# (P, k0) of a fit at the zero weight, and at mu = 2 (rank 1) or
# mu = (-1, 0) (rank 2)
FIT_PINS = {
    "p1_hyperplane": ((2, 1), (2, 3)),
    "p1_square": ((2, 1), (2, 2)),
    "p2_circle": ((2, 1), (2, 3)),
    "p3_semistable": ((1, 1), (1, 3)),
    "p3_last_coordinate": ((1, 1), (1, 3)),
    "p1_unstable": ((1, 1), (1, 3)),
    "p2_trivial": ((1, 1), (1, 1)),
    "p3_balanced": ((2, 1), (2, 3)),
    "p2_skew": ((6, 1), (6, 3)),
    "p1p1_diag": ((4, 1), (4, 2)),
    "p2p1_product": ((2, 1), (2, 2)),
    "su2_p3": ((2, 3), (2, 5)),
    "su2_p1": ((2, 3), (2, 5)),
    "su2_p5": ((2, 3), (2, 5)),
    "su2_sym5": ((120, 3), (120, 5)),
    "found_rank2": ((60, 1), (60, 1)),
}


def test_fit_period_and_start(corpus):
    # P is the number of classes, and k0 the least level a class starts at
    docs = dict(corpus, su2_sym5=su2_scenario([[5]], [1]), found_rank2=FOUND_RANK2)
    assert docs.keys() == FIT_PINS.keys()
    for name, s in docs.items():
        mu = 2 if s.group.torus_rank == 1 else (-1, 0)
        got = []
        for weight in (s.zero_weight, mu):
            levels = volumes._levels(s, weight)
            got.append((len(levels), min(row[0] for row in levels)))
        assert tuple(got) == FIT_PINS[name], name


def test_fit_levels_budget_guard(monkeypatch):
    # p2_skew reads P = 6 classes of 3 levels; the budget is read at call time
    s = corpus_scenario("p2_skew")
    with monkeypatch.context() as m:
        m.setattr(counting, "CELL_BUDGET", 17)
        with pytest.raises(EngineLimit, match=r"^fit needs 18 sample levels > budget 17$"):
            volumes._levels(s, 0)
        m.setattr(counting, "CELL_BUDGET", 18)
        assert len(volumes._levels(s, 0)) == 6


def test_fit_guard_catches_a_perturbed_sample(monkeypatch, p2_circle):
    # every class carries one sample beyond those it is interpolated from;
    # shifting the first sample at mu = 1 by one must be caught, not absorbed.
    # A fresh copy: the shared fixture's space may already hold the fit
    s = validate_scenario(p2_circle)
    true_counts = volumes.section_dimensions
    shifted = []

    def perturbed(s, mu, ks):
        counts = true_counts(s, mu, ks)
        if mu == 1 and not shifted:
            shifted.append(ks[0])
            counts[0] += 1
        return counts

    monkeypatch.setattr(volumes, "section_dimensions", perturbed)
    with pytest.raises(RuntimeError, match="fit no polynomial"):
        equivariant_volume(s, 1)
    assert len(shifted) == 1
    assert s.space.fit_store == {}  # a fit that raises stores nothing


def count_fits(monkeypatch) -> list:
    """Record the weight of every fit that is made, not read from a store."""
    fits = []
    true_levels = volumes._levels

    def counted(s, mu):
        fits.append(mu)
        return true_levels(s, mu)

    monkeypatch.setattr(volumes, "_levels", counted)
    return fits


def test_one_fit_per_space_bundle_and_weight(monkeypatch, p2_circle):
    s = validate_scenario(p2_circle)  # a space of its own, with no fit stored
    fits = count_fits(monkeypatch)
    vol0 = equivariant_volume(s, 0)
    assert equivariant_volume(s, 0) == vol0
    assert fits == [0]
    # the same bundle on the same space reads the same fit
    assert equivariant_volume(scenario_power(s, 1), 0) == vol0
    assert equivariant_volume(with_bundle(s, s.bundle), 0) == vol0
    assert fits == [0]
    # e_G(L) is read off the stored fit at the zero weight, which is not refit
    for mu in (1, 2, -1):
        assert equivariant_volume(s, mu).value == Fraction(1, 2)
    assert fits == [0, 1, 2, -1]
    assert set(s.space.fit_store) == {(s.bundle, (mu,)) for mu in (0, 1, 2, -1)}
    # another power is another bundle, fitted on the same space
    equivariant_volume(scenario_power(s, 3), 0)
    assert fits == [0, 1, 2, -1, 0] and len(s.space.fit_store) == 5
    # a separately validated copy has a space of its own and fits again
    assert equivariant_volume(validate_scenario(s), 0) == vol0
    assert fits == [0, 1, 2, -1, 0, 0]


def test_fit_store_follows_the_budget_rules(monkeypatch):
    # p2_skew's fit reads 18 sample levels; the budget guards new fits only
    s = validate_scenario(corpus_scenario("p2_skew"))
    with monkeypatch.context() as m:
        m.setattr(counting, "CELL_BUDGET", 17)
        with pytest.raises(EngineLimit, match="fit needs 18 sample levels"):
            equivariant_volume(s, 0)
    assert s.space.fit_store == {}
    vol0 = equivariant_volume(s, 0)
    fits = count_fits(monkeypatch)
    monkeypatch.setattr(counting, "CELL_BUDGET", 17)
    assert equivariant_volume(s, 0) == vol0
    assert fits == []


def test_a_repeat_reads_the_stored_estimates(monkeypatch):
    # p2_skew has e = 1 at mu = 1 and p1_square has e = 2: a repeat at a
    # stored bundle and weight makes no fit, reads no level and returns the
    # very estimates of the first call
    for name, mu in (("p2_skew", 1), ("p1_square", 0), ("p1_square", 1)):
        s = validate_scenario(corpus_scenario(name))  # a space of its own
        first = equivariant_volume(s, mu)
        classes = [residue_volume(s, mu, f) for f in range(4)]
        fits, reads = count_fits(monkeypatch), []
        records = counting._records
        monkeypatch.setattr(counting, "_records", lambda s, ks: reads.append(ks) or records(s, ks))
        assert equivariant_volume(s, mu) is first
        assert equivariant_volume(scenario_power(s, 1), mu) == first
        again = [residue_volume(s, mu, f) for f in range(4)]
        assert again == classes and all(a is b for a, b in zip(again, classes))
        assert (fits, reads) == ([], []), name
        monkeypatch.undo()


def test_fit_classes_at_the_zero_weight_give_the_exponent(corpus):
    # two routes to e_G(L): the exponent the fit at the zero weight reads
    # off its classes, and the gcd of the invariant semigroup read up to
    # M_MAX.  A fit at any other weight reports the same e_G(L)
    checked = []
    for name, s in corpus:
        if vanishing_certificate(s, s.zero_weight) is not None:
            continue
        e = g_exponent(s).exponent
        assert e is not None and equivariant_volume(s, s.zero_weight).fit.exponent == e, name
        for mu in s.default_mus(2):
            if vanishing_certificate(s, mu) is None:
                assert equivariant_volume(s, mu).fit.exponent == e, (name, mu)
        checked.append(name)
    assert len(checked) == 12


# SU(2) on P(Sym^5): P = 120 and six samples per class, so a fit reads 720
# levels up to k = 722
SYM5 = {"group": "su2", "g": 3, "factors": [{"dim": 5, "sym_powers": [5]}], "bundle": {"degrees": [1]}}


def count_factor_rows(monkeypatch) -> list:
    """Record the top degree of every run of the factor recurrence."""
    runs = []
    true_rows = counting._factor_rows

    def counted(ws, reach, m, nbytes):
        runs.append(m)
        return true_rows(ws, reach, m, nbytes)

    monkeypatch.setattr(counting, "_factor_rows", counted)
    return runs


def test_sym5_fit_reads_its_levels_from_one_ladder(monkeypatch):
    s = scenario_from_dict(SYM5)  # freshly parsed: its level store is empty
    runs = count_factor_rows(monkeypatch)
    first = equivariant_volume(s, 0)
    assert runs == [722]
    got = [first] + [equivariant_volume(s, mu) for mu in range(1, 7)]
    assert [est.value for est in got] == [Fraction((mu + 1) ** 2, 96) for mu in range(7)]
    assert [est.fit.period for est in got] == [24, 24, 8, 12, 24, 8, 24]


def test_sym5_degree_2_stops_before_any_level_is_built(tmp_path, capsys, monkeypatch):
    doc = tmp_path / "sym5_degree2.json"
    doc.write_text(json.dumps(dict(SYM5, bundle={"degrees": [2]})))
    runs = count_factor_rows(monkeypatch)
    assert main(["volume", "--scenario", str(doc), "--mu", "0"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: weight DP needs 62432838 cells > budget 60000000\n")
    assert runs == []


# --- transformation laws ------------------------------------------------------


def test_prime_power_homogeneity(p2_circle):
    # gcd(p, e) = 1: vol(L^p) = p^(n-g) vol(L), counted directly
    for p in (3, 5):
        sp = scenario_power(p2_circle, p)
        for mu in (-2, 0, 1):
            lhs = equivariant_volume(sp, mu).value
            rhs = Fraction(p) ** p2_circle.quotient_degree * equivariant_volume(p2_circle, mu).value
            assert lhs == rhs, (p, mu)


def test_trivial_rep_homogeneity(su2_p5):
    base = equivariant_volume(su2_p5, 0).value
    for q in range(1, 5):
        sq = scenario_power(su2_p5, q)
        assert equivariant_volume(sq, 0).value == Fraction(q) ** 2 * base, q


def test_volume_invariant_under_residue_max(corpus):
    # each class estimate names its class f mod e in its fit, and a finite
    # volume is the largest class volume
    for name, s in corpus:
        for mu in s.default_mus(2):
            vol = equivariant_volume(s, mu)
            e = vol.fit.exponent if vol.fit else 1
            classes = [residue_volume(s, mu, f) for f in range(2 * e)]
            for f, est in enumerate(classes):
                assert est.fit is None or (est.fit.residue, est.fit.exponent) == (f % e, e), (name, mu, f)
            if vol.finite:
                assert max(est.value for est in classes) == vol.value, (name, mu)
