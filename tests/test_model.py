"""Core model: validation, bundle algebra, the weight sign convention."""

import re
from fractions import Fraction

import pytest

from equivol import (
    LinearizedBundle,
    ScenarioError,
    circle_scenario,
    equivariant_volume,
    full_weight_distribution,
    mu_semigroup,
    numerically_compatible,
    predicted_volume,
    residue_volume,
    scenario_from_dict,
    scenario_power,
    scenario_to_dict,
    scenario_path,
    section_dimension,
    section_dimensions,
    su2_scenario,
    tensor_power,
    tensor_product,
    validate_scenario,
    vanishing_certificate,
    with_bundle,
)
from equivol.cli import main


def test_valid_p1(p1_hyperplane):
    s = p1_hyperplane
    assert s.dim == 1
    assert s.group.dim == 1
    assert s.quotient_degree == 0


def test_su2_factor_accounting(su2_p3):
    assert su2_p3.dim == 3
    assert su2_p3.group.dim == 3
    assert su2_p3.quotient_degree == 0


def test_dimension_mismatch_rejected():
    from equivol import GroupSpec, ProjectiveFactor, Scenario, Space

    bad = Scenario(
        Space(
            GroupSpec("circle_power", 1),
            (ProjectiveFactor(dim=1, weights=((1,), (-1,), (0,))),),  # 3 weights on P^1
        ),
        LinearizedBundle((1,), (0,)),
    )
    with pytest.raises(ScenarioError):
        validate_scenario(bad)


def test_su2_with_circle_weights_rejected():
    from equivol import GroupSpec, ProjectiveFactor, Scenario, Space

    bad = Scenario(
        Space(GroupSpec("su2", 3), (ProjectiveFactor(dim=1, weights=((1,), (-1,))),)),
        LinearizedBundle((1,), ()),
    )
    with pytest.raises(ScenarioError):
        validate_scenario(bad)


def test_nonpositive_degree_rejected():
    with pytest.raises(ScenarioError):
        circle_scenario([[1, -1]], [0])


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: circle_scenario([], [1]), "factors"),
        (lambda: circle_scenario([[]], [1]), "factors[0].dim"),
        (lambda: circle_scenario([[1, -1]], [0]), "bundle.degrees"),
        (lambda: circle_scenario([[1, -1]], [1], twist=(0, 0)), "bundle.twist"),
        (lambda: su2_scenario([[1, 1]], [1, 1]), "bundle.degrees"),
    ],
)
def test_builders_name_the_rejected_field(build, field):
    with pytest.raises(ScenarioError, match=f"`{re.escape(field)}`"):
        build()


def test_su2_block_count_mismatch_explicit():
    from equivol import GroupSpec, ProjectiveFactor, Scenario, Space

    bad = Scenario(
        Space(GroupSpec("su2", 3), (ProjectiveFactor(dim=3, sym_powers=(1,)),)),
        LinearizedBundle((1,), ()),
    )
    with pytest.raises(ScenarioError):
        validate_scenario(bad)


def test_tensor_power_componentwise():
    b = LinearizedBundle((1, 2), (3,))
    assert tensor_power(b, 3) == LinearizedBundle((3, 6), (9,))
    assert tensor_power(LinearizedBundle((1,), (0,)), 2) == LinearizedBundle((2,), (0,))
    assert tensor_power(LinearizedBundle((2,), (-1,)), 1) == LinearizedBundle((2,), (-1,))


def test_tensor_power_composes():
    b = LinearizedBundle((1, 2), (-1,))
    assert tensor_power(tensor_power(b, 2), 3) == tensor_power(b, 6)


def test_tensor_product_adds():
    a = LinearizedBundle((1,), (2,))
    b = LinearizedBundle((3,), (-1,))
    assert tensor_product(a, b) == LinearizedBundle((4,), (1,))


def test_validation_idempotent(p2_circle):
    assert validate_scenario(p2_circle) == p2_circle


def test_rational_arithmetic_roundtrip():
    from fractions import Fraction

    for num, den in ((1, 2), (-7, 3), (22, 4), (5, 1)):
        x = Fraction(num, den)
        assert x * (1 / x) == 1
        assert x.denominator > 0  # stored in lowest terms, positive denominator
        from math import gcd

        assert gcd(x.numerator, x.denominator) == 1


def test_p2_counts_pin_the_sign_convention(p2_circle):
    # z0^(k-a-b) z1^a z2^b has weight 2(a+b) - k, so weight mu takes
    # a+b = (k+mu)/2: (k+mu)/2 + 1 monomials.  The opposite convention
    # would count (k-mu)/2 + 1
    for k in range(7):
        for mu in range(-k - 2, k + 3):
            want = (k + mu) // 2 + 1 if (k + mu) % 2 == 0 and abs(mu) <= k else 0
            assert section_dimension(p2_circle, k, mu) == want, (k, mu)


def test_twist_shifts_every_weight_of_a_level():
    # weights (1, -1) give z0^a z1^(k-a) the weight 2a - k; the twist c = 1
    # adds k*c, so level k has the weights 0, 2, ..., 2k, each once
    s = circle_scenario([[1, -1]], [1], twist=1)
    for k in range(7):
        assert full_weight_distribution(s, k) == {mu: 1 for mu in range(0, 2 * k + 1, 2)}, k


def test_zero_weight(p1_hyperplane, p1p1_diag, su2_p3):
    assert p1_hyperplane.zero_weight == 0
    assert p1p1_diag.zero_weight == (0, 0)
    assert su2_p3.zero_weight == 0


def test_twist_vec(corpus):
    for name, s in corpus:
        if s.group.is_su2:
            assert s.bundle.twist == () and s.twist_vec == (0,), name
        else:
            assert s.twist_vec == s.bundle.twist == (0,) * s.group.dim, name
    assert circle_scenario([[1, -1]], [1], twist=3).twist_vec == (3,)
    assert circle_scenario([[(1, 0), (0, 1)]], [2], twist=(-1, 2)).twist_vec == (-1, 2)
    # the ray b1 = (degrees, -twist) of the weight matrix's columns
    assert circle_scenario([[(1, 0), (0, 1)], [(0, 0), (1, 1)]], [2, 3], twist=(-1, 2)).ray == (2, 3, 1, -2)
    assert su2_scenario([[1, 1]], [2]).ray == (2, 0)


def test_torus_weights(p1p1_diag, su2_p3):
    assert p1p1_diag.space.torus_weights == (((1, 0), (-1, 0)), ((0, 1), (0, -1)))
    assert su2_p3.space.torus_weights == (((1,), (-1,), (1,), (-1,)),)
    assert su2_p3.space.torus_weights is su2_p3.space.torus_weights


def test_weight_layout(p1p1_diag, su2_p3):
    # each coordinate's weights reduced by their common step (2 in every
    # coordinate here); a constant coordinate keeps step 1
    assert su2_p3.space.weight_layout == (((-1,),), (2,), (((1,), (0,), (1,), (0,)),), ((1,),))
    assert p1p1_diag.space.weight_layout == (
        ((-1, 0), (0, -1)),
        (2, 2),
        (((1, 0), (0, 0)), ((0, 1), (0, 0))),
        ((1, 0), (0, 1)),
    )
    s = circle_scenario([[(3, 7), (-1, 7), (1, 7)]], [1])
    assert s.space.weight_layout == (((-1, 7),), (2, 1), (((2, 0), (0, 0), (1, 0)),), ((2, 0),))
    # built once per space, which the tensor powers of a scenario share
    assert su2_p3.space.weight_layout is su2_p3.space.weight_layout
    # so is the column lattice, which the fit, the generic stabilizer and
    # the stability class read
    assert p1p1_diag.space.column_lattice.stabilizer == ((2, 0), (0, 2))
    cube = scenario_power(p1p1_diag, 3)
    assert cube.space is p1p1_diag.space
    assert cube.space.weight_layout is p1p1_diag.space.weight_layout
    assert cube.space.torus_weights is p1p1_diag.space.torus_weights
    assert scenario_power(p1p1_diag, 3).space.column_lattice is p1p1_diag.space.column_lattice
    assert cube.bundle.degrees == (3, 3)


def test_with_bundle_validates_and_shares_the_space(p1p1_diag):
    s = validate_scenario(p1p1_diag)
    with pytest.raises(ScenarioError, match="bundle.degrees"):
        with_bundle(s, LinearizedBundle((1,), (0, 0)))
    with pytest.raises(ScenarioError, match="bundle.twist"):
        with_bundle(s, LinearizedBundle((1, 1), (0,)))
    t = with_bundle(s, LinearizedBundle((1, 2), (1, 0)))
    assert t.bundle == LinearizedBundle((1, 2), (1, 0))
    assert t.space is s.space and (t.group, t.factors) == (s.group, s.factors)
    # what the space determines is built once, through whichever scenario
    # reads it first, and the other reads the same object
    layout, lattice = t.space.weight_layout, t.space.column_lattice
    assert s.space.weight_layout is layout and s.space.column_lattice is lattice
    assert section_dimension(t, 1, (2, 2)) == 1  # z0 w0^2, moved by the twist (1, 0)
    assert s.space.level_store.keys() == {(1, 2)}
    # equal and hashed by value: the same bundle again, or the same space
    # parsed on its own, which starts with an empty store
    same, twin = with_bundle(s, s.bundle), validate_scenario(s)
    assert same == s == twin and hash(same) == hash(s) == hash(twin)
    assert twin.space is not s.space and twin.space.level_store == {}


def test_dim_irrep(p2_circle, p1p1_diag, su2_p3):
    assert p2_circle.dim_irrep(5) == 1
    assert p1p1_diag.dim_irrep((-3, 2)) == 1
    assert su2_p3.dim_irrep(3) == 4
    assert su2_p3.dim_irrep(0) == 1
    with pytest.raises(ScenarioError, match=">= 0"):
        su2_p3.dim_irrep(-1)


def test_weights_in_box(p1_hyperplane, p1p1_diag, su2_p3):
    g3 = circle_scenario([[(1, 0, 0), (0, 1, 0), (0, 0, 1)]], [1])
    assert p1_hyperplane.weights_in_box(-2, 1) == [-2, -1, 0, 1]
    assert p1p1_diag.weights_in_box(0, 1) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert g3.weights_in_box(0, 1) == [
        (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)
    ]
    box = g3.weights_in_box(-1, 1)
    assert len(box) == 27 and box == sorted(set(box))
    # su2 highest weights start at 0
    assert su2_p3.weights_in_box(-3, 2) == [0, 1, 2]
    assert su2_p3.weights_in_box(-3, -1) == []


@pytest.mark.parametrize(
    "read",
    [
        lambda s: s.weight_vec(-1),
        lambda s: s.dim_irrep(-1),
        lambda s: section_dimension(s, 2, -1),
        lambda s: section_dimensions(s, -1, [1, 2]),
        lambda s: mu_semigroup(s, -1, 4),
        lambda s: equivariant_volume(s, -1),
        lambda s: residue_volume(s, -1, 0),
        lambda s: vanishing_certificate(s, -1),
        lambda s: numerically_compatible(s, -1),
        lambda s: predicted_volume(s, -1, Fraction(1)),
        ["volume", "--mu", "-1"],
        ["multiplicity", "--k", "2", "--mu", "-1"],
    ],
    ids=[
        "weight_vec", "dim_irrep", "section_dimension", "section_dimensions", "mu_semigroup",
        "equivariant_volume", "residue_volume", "vanishing_certificate", "numerically_compatible",
        "predicted_volume", "cli-volume", "cli-multiplicity",
    ],
)
def test_every_weight_entry_point_rejects_negative_su2_weights(su2_p3, capsys, read):
    message = "su2 highest weights must be >= 0"
    if isinstance(read, list):  # a command line: exit 2 with the one error line
        code = main([read[0], "--scenario", str(scenario_path("su2_p3")), *read[1:]])
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (2, "", f"error: {message}\n")
        return
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        read(su2_p3)


def test_default_mus(p1_hyperplane, p1p1_diag, su2_p3):
    assert p1_hyperplane.default_mus() == list(range(-6, 7))
    assert su2_p3.default_mus() == list(range(0, 7))
    assert p1p1_diag.default_mus() == [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    assert p1_hyperplane.default_mus(3) == list(range(-3, 4))
    assert p1p1_diag.default_mus(1) == [(a, b) for a in range(-1, 2) for b in range(-1, 2)]


def test_document_roundtrip(corpus):
    for name, s in corpus:
        assert scenario_from_dict(scenario_to_dict(s)) == s, name


def test_document_missing_field_named():
    with pytest.raises(ScenarioError, match="degrees"):
        scenario_from_dict(
            {"group": "circle_power", "g": 1,
             "factors": [{"dim": 1, "weights": [1, -1]}], "bundle": {}}
        )
    with pytest.raises(ScenarioError, match="factors"):
        scenario_from_dict({"group": "circle_power", "g": 1, "bundle": {"degrees": [1]}})
