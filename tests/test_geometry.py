"""Moment images, stability classes, stabilizers, compatibility, slices."""

from fractions import Fraction

import pytest

from equivol import (
    UnsupportedScenario,
    circle_scenario,
    classify_stability,
    dh_slice_volume,
    equivariant_volume,
    generic_stabilizer,
    geometry,
    moment_image,
    numerically_compatible,
    predicted_volume,
    scenario_power,
    section_dimension,
    section_dimensions,
    su2_scenario,
    validate_scenario,
    vanishing_certificate,
    with_bundle,
)


# --- moment images ----------------------------------------------------------


def test_interval_p2(p2_circle):
    assert moment_image(p2_circle).interval == (-1, 1)


def test_interval_unstable(p1_unstable):
    assert moment_image(p1_unstable).interval == (1, 2)


def test_rank2_square(p1p1_diag):
    img = moment_image(p1p1_diag)
    assert set(img.vertices) == {(1, 1), (-1, 1), (-1, -1), (1, -1)}


def test_image_scales_with_degree():
    s1 = circle_scenario([[-1, 1, 1]], [1])
    s3 = circle_scenario([[-1, 1, 1]], [3])
    lo1, hi1 = moment_image(s1).interval
    lo3, hi3 = moment_image(s3).interval
    assert (lo3, hi3) == (3 * lo1, 3 * hi1)


def test_image_is_weight_hull_at_small_k(corpus):
    # k-th section support sits inside k * image, with extremes attained
    from equivol import full_weight_distribution

    for name, s in corpus:
        if s.group.dim > 2 and not s.group.is_su2:
            continue
        img = moment_image(s)
        for k in (1, 2, 3):
            supp = list(full_weight_distribution(s, k))
            for mu in supp:
                assert img.scaled_contains(s.weight_vec(mu), k), (name, k, mu)


@pytest.mark.parametrize(
    "weights, mu, scales, zero",
    [
        # rank 1, a point: one scale, and only at a multiple
        ([[2, 2]], 6, (3, 3), (False,)),
        ([[2, 2]], 5, (None, None), (False,)),
        # rank 1, an end at 0: that half-plane has beta = 0
        ([[0, 3]], -1, (None, None), (True,)),
        ([[0, 3]], 2, (1, None), (True,)),
        # rank 2, a point: two opposite pairs per coordinate, integral or
        # not, of either sign
        ([[(2, -1), (2, -1)]], (6, -3), (3, 3), (False,)),
        ([[(2, -1), (2, -1)]], (5, -3), (None, None), (False,)),
        ([[(2, -1), (2, -1)]], (-2, 1), (None, None), (False,)),
        # rank 2, the origin: opposite pairs with beta = 0
        ([[(0, 0), (0, 0)]], (0, 0), (1, None), (True,)),
        ([[(0, 0), (0, 0)]], (1, 0), (None, None), (True,)),
        # rank 2, a segment on a line through 0 (beta = 0), then off it
        ([[(1, 1), (3, 3)]], (2, 2), (1, 2), (False,)),
        ([[(1, 1), (3, 3)]], (2, 3), (None, None), (False,)),
        ([[(1, 0), (1, 2)]], (3, 1), (3, 3), (False,)),
        ([[(2, 0), (2, 2)]], (3, 1), (None, None), (False,)),
        # rank 2, a polygon around 0, and one with 0 on an edge
        ([[(1, 0), (-1, 0)], [(0, 1), (0, -1)]], (3, -2), (3, None), (True,)),
        ([[(0, 0), (2, 0), (2, 2), (0, 2)]], (1, -1), (None, None), (True,)),
        ([[(0, 0), (2, 0), (2, 2), (0, 2)]], (1, 1), (1, None), (True,)),
        # rank 2, a point off the origin at a multiple and between two, and
        # a segment off the origin with several scales (kept last, so the
        # earlier case ids stay)
        ([[(1, 2), (1, 2)]], (3, 6), (3, 3), (False,)),
        ([[(1, 2), (1, 2)]], (3, 5), (None, None), (False,)),
        ([[(1, 1), (3, 3)]], (7, 7), (3, 7), (False,)),
    ],
)
def test_scale_range_degenerate_branches(weights, mu, scales, zero):
    s = circle_scenario(weights, [1] * len(weights), g=1 if isinstance(mu, int) else 2)
    img = moment_image(s)
    vec = s.weight_vec(mu)
    assert img.scale_range(vec) == scales
    assert (img.contains_zero(),) == zero
    r_min, r_max = scales
    admitted = set() if r_min is None else set(range(r_min, (r_max or 9) + 1))
    assert {r for r in range(1, 10) if img.scaled_contains(vec, r)} == admitted
    # the cached half-planes are no field: a queried image equals and
    # prints as a fresh one
    fresh = moment_image(s)
    assert (img, repr(img)) == (fresh, repr(fresh))


def test_su2_images(su2_p3):
    assert moment_image(su2_p3).interval == (0, 1)
    assert moment_image(su2_scenario([[1]], [2])).interval == (2, 2)


# --- stability classes ------------------------------------------------------


def test_classify_regular(p2_circle):
    rep = classify_stability(p2_circle)
    assert rep.stability == "regular"
    assert rep.zero_position == "inside"


def test_classify_boundary_fixed_image():
    rep = classify_stability(circle_scenario([[0, 1, 1, 1]], [1]))
    assert rep.stability == "boundary"


def test_classify_unstable(p1_unstable):
    rep = classify_stability(p1_unstable)
    assert rep.stability == "unstable_everywhere"
    assert rep.zero_position == "outside"


def test_classify_trivial():
    rep = classify_stability(circle_scenario([[0, 0, 0]], [1]))
    assert rep.stability == "trivial_action"


def test_classify_interior_fixed_point_is_boundary():
    # 0 is interior to the image but is also a fixed-point image
    rep = classify_stability(circle_scenario([[-1, 0, 1]], [1]))
    assert rep.stability == "boundary"


def test_classify_rank2(p1p1_diag):
    assert classify_stability(p1p1_diag).stability == "regular"


def test_classify_rank2_critical_segment():
    # second factor weights both satisfy <w, (1,0)> = 0, and the summed
    # critical segment passes through the origin: a wall scenario
    s = circle_scenario(
        [[(1, 0), (-1, 0)], [(0, 1), (0, -1)]],
        [2, 1],
    )
    assert classify_stability(s).stability == "regular"
    walled = circle_scenario(
        [[(1, 1), (-1, 1), (0, -1)], [(0, 1), (0, -1)]],
        [1, 1],
    )
    # factor-1 pair ((1,1),(-1,1)) is constant along xi=(0,1); combined
    # with a factor-2 singleton the segment hits 0
    assert classify_stability(walled).stability == "boundary"
    # on P^3 the pair ((1,0),(-1,0)) spans a critical segment through 0,
    # though 0 is interior and no fixed point maps there; split over
    # P^1 x P^1 the same weights leave 0 regular
    axes = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    assert classify_stability(circle_scenario([axes], [1])).stability == "boundary"
    assert classify_stability(circle_scenario([axes[:2], axes[2:]], [1, 1])).stability == "regular"


def test_classify_su2(su2_p3):
    assert classify_stability(su2_p3).stability == "regular"
    assert classify_stability(su2_scenario([[1]], [1])).stability == "unstable_everywhere"
    assert classify_stability(su2_scenario([[0, 0]], [1])).stability == "trivial_action"
    assert classify_stability(su2_scenario([[2]], [1])).stability == "boundary"
    assert classify_stability(su2_scenario([[2, 1]], [1])).stability == "boundary"


def test_one_stability_report_per_space_and_bundle(p2_circle, monkeypatch):
    # the report and its moment image are made once per bundle and kept on
    # the space; every scenario with that space and bundle reads them
    s = validate_scenario(p2_circle)
    builds = []
    true_image = geometry.moment_image

    def counted(t):
        builds.append(t.bundle)
        return true_image(t)

    monkeypatch.setattr(geometry, "moment_image", counted)
    rep = classify_stability(s)
    for t in (s, scenario_power(s, 1), with_bundle(s, s.bundle)):
        assert classify_stability(t) is rep
        vanishing_certificate(t, 3)
        equivariant_volume(t, 3)
    assert builds == [s.bundle] and s.space.stability_store == {s.bundle: rep}
    square = scenario_power(s, 2)
    assert classify_stability(square).moment_image.interval == (-2, 2)
    assert builds == [s.bundle, square.bundle]
    # a separately validated copy has a space of its own, with an empty store
    copy = validate_scenario(s)
    assert copy.space.stability_store == {}
    assert classify_stability(copy) == rep and len(builds) == 3


# --- stabilizers ------------------------------------------------------------


def test_stabilizer_p1(p1_hyperplane):
    k = generic_stabilizer(p1_hyperplane)
    assert k.finite and k.order == 2


def test_stabilizer_trivial_order_one():
    k = generic_stabilizer(circle_scenario([[0, 1]], [1]))
    assert k.finite and k.order == 1


def test_stabilizer_infinite_for_trivial_action():
    k = generic_stabilizer(circle_scenario([[0, 0, 0]], [1]))
    assert not k.finite


def test_stabilizer_rank2(p1p1_diag):
    k = generic_stabilizer(p1p1_diag)
    assert k.finite and k.order == 4
    assert k.invariant_factors == (2, 2)


def test_stabilizer_rank2_mixed():
    s = circle_scenario([[(1, 0), (-1, 0)], [(1, 3), (1, 0)]], [1, 1])
    k = generic_stabilizer(s)
    # difference lattice spanned by (2,0) and (0,3): order 6, cyclic
    assert k.finite and k.order == 6
    assert k.invariant_factors == (1, 6)


def test_stabilizer_su2(su2_p3):
    assert generic_stabilizer(su2_p3).order == 2
    assert generic_stabilizer(su2_scenario([[2, 0]], [1])).order == 2
    assert generic_stabilizer(su2_scenario([[2, 1]], [1])).order == 1
    # every block Sym^0: the torus acts trivially and pins no element
    assert not generic_stabilizer(su2_scenario([[0, 0]], [1])).finite


# --- numerical compatibility ------------------------------------------------


def test_compatibility_p1_hyperplane(p1_hyperplane):
    # O(1): every mu admits a witness
    for mu in range(-4, 5):
        cert = numerically_compatible(p1_hyperplane, mu)
        assert cert.compatible
        assert cert.witness in (1, 2)
        assert (cert.witness - mu) % 2 == 0


def test_compatibility_p1_square(p1_square):
    # O(2): chi is trivial, odd mu have no witness
    for mu in range(-4, 5):
        cert = numerically_compatible(p1_square, mu)
        assert cert.compatible == (mu % 2 == 0)


def test_compatibility_su2(su2_p3):
    for mu in range(0, 7):
        assert numerically_compatible(su2_p3, mu).compatible


def test_compatibility_su2_even_degree():
    s = su2_scenario([[1, 1]], [2])
    for mu in range(0, 7):
        assert numerically_compatible(s, mu).compatible == (mu % 2 == 0)


def test_compatibility_rank2(p1p1_diag):
    for m1 in range(-3, 4):
        for m2 in range(-3, 4):
            cert = numerically_compatible(p1p1_diag, (m1, m2))
            assert cert.compatible == ((m1 - m2) % 2 == 0), (m1, m2)


def test_compatibility_twisted_matches_counted_volumes():
    # the twist moves the fiber character: chi = -3 + 1 is even, so the
    # even weights are compatible, and exactly they have positive volume
    s = circle_scenario([[-3, 1, 3]], [1], twist=1)
    for mu in range(-3, 4):
        cert = numerically_compatible(s, mu)
        assert cert.compatible == (mu % 2 == 0) == (equivariant_volume(s, mu).value > 0), mu


def test_compatibility_infinite_stabilizer_rejected():
    with pytest.raises(UnsupportedScenario):
        numerically_compatible(circle_scenario([[0, 0]], [1]), 0)


def test_exponent_equals_character_order(corpus):
    # on regular scenarios the G-exponent is the order of the bundle's
    # fiber character in the stabilizer's character group: the least r with
    # r*b1 in the column lattice, the compatibility witness of the zero weight
    from equivol import g_exponent

    checked = 0
    for name, s in corpus:
        if s.group.is_su2 and len(s.factors) > 1:
            continue
        if not s.group.is_su2 and s.group.dim > 2:
            continue
        if classify_stability(s).stability != "regular":
            continue
        assert g_exponent(s, 40).exponent == numerically_compatible(s, s.zero_weight).witness, name
        checked += 1
    assert checked >= 8


# --- predictions and slices -------------------------------------------------


def test_predicted_volume_p2(p2_circle):
    assert predicted_volume(p2_circle, 3, Fraction(1, 2)) == Fraction(1, 2)


def test_predicted_volume_su2(su2_p3):
    assert predicted_volume(su2_p3, 2, Fraction(1)) == 9


def test_predicted_volume_incompatible(p1_square):
    assert predicted_volume(p1_square, 1, Fraction(1)) == 0


def test_predicted_volume_needs_regular(p1_unstable):
    with pytest.raises(UnsupportedScenario):
        predicted_volume(p1_unstable, 0, Fraction(1))


def test_dh_slice_p2(p2_circle):
    assert dh_slice_volume(p2_circle) == Fraction(1, 2)


def test_dh_slice_p1(p1_hyperplane):
    assert dh_slice_volume(p1_hyperplane) == 1


def test_dh_slice_p3_balanced():
    s = circle_scenario([[-1, -1, 1, 1]], [1])
    # frozen regression constant, derived from the invariant counts
    # h^0_0(O(2m)) = (m+1)^2 before the build
    assert dh_slice_volume(s) == Fraction(1, 2)


def test_dh_slice_p2_skew():
    assert dh_slice_volume(circle_scenario([[-1, 1, 2]], [1])) == Fraction(1, 6)


@pytest.mark.parametrize(
    "weights, degree, twist, vol0",
    [
        ((-1, -1, -1, 1, 1), 1, 0, Fraction(3, 8)),
        ((-1, -1, -1, 1, 1, 1), 1, 0, Fraction(3, 8)),
        ((-1, -1, 1, 1, 1), 2, 1, Fraction(9, 8)),
    ],
)
def test_dh_slice_beyond_p3_equals_fitted_volume(weights, degree, twist, vol0):
    s = circle_scenario([list(weights)], [degree], twist=twist)
    assert dh_slice_volume(s) == vol0
    assert equivariant_volume(s, 0).value == vol0


def test_dh_slice_p2_wide_weights():
    # regression value of the earlier simplex slicer; 161 invariant
    # monomials of O(1200) give 161/1200 ~ 0.134
    s = circle_scenario([[-2, 3, -3]], [1], twist=1)
    assert dh_slice_volume(s) == Fraction(2, 15)


def test_dh_slice_matches_counting_asymptotics(p2_circle):
    # independent route: (n-1)! h^0_0(L^k) / k^(n-1) stabilizes at the
    # slice volume along the exponent progression
    vals = [Fraction(section_dimension(p2_circle, k, 0), k) for k in (40, 42, 44)]
    diffs = {b - a for a, b in zip(vals, vals[1:])}
    assert dh_slice_volume(p2_circle) == Fraction(1, 2)
    assert max(vals) - Fraction(1, 2) < Fraction(1, 20)


# --- vanishing certificates --------------------------------------------------


def test_vanishing_certificate_example(p1_unstable):
    assert vanishing_certificate(p1_unstable, 5) == 6
    # soundness: no sections at or beyond the bound
    for mu in range(-6, 7):
        r = vanishing_certificate(p1_unstable, mu)
        for k in range(r, r + 20):
            assert section_dimension(p1_unstable, k, mu) == 0


def test_vanishing_certificate_absent_on_regular(p2_circle):
    assert vanishing_certificate(p2_circle, 3) is None


def test_vanishing_certificate_reads_every_bundle(corpus):
    # 0 lies on a vertex of [0, 1], so no weight below it is in any dilate,
    # and every weight above it is in every large one
    s = dict(corpus)["p3_last_coordinate"]
    for mu in range(-3, 0):
        assert vanishing_certificate(s, mu) == 1
        assert not any(section_dimensions(s, mu, range(1, 13))), mu
        assert equivariant_volume(s, mu).status == "zero"
    assert [vanishing_certificate(s, mu) for mu in range(0, 4)] == [None] * 4


def test_vanishing_certificate_strictly_positive_weights():
    s = circle_scenario([[2, 3, 4]], [1])
    assert vanishing_certificate(s, 0) == 1


def test_vanishing_certificate_su2():
    s = su2_scenario([[1]], [1])
    for mu in range(0, 7):
        r = vanishing_certificate(s, mu)
        assert r == mu + 1
        for k in range(r, r + 10):
            assert section_dimension(s, k, mu) == 0
