"""Cross-module structural invariants."""

import ast
import importlib
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import pytest

import equivol
from equivol import (
    EngineLimit,
    UnsupportedScenario,
    circle_scenario,
    classify_stability,
    counting,
    dh_slice_volume,
    equivariant_volume,
    full_weight_distribution,
    g_exponent,
    g_semigroup,
    moment_image,
    mu_semigroup,
    residue_volume,
    section_dimension,
    su2_scenario,
)
from equivol.geometry import supported


def test_support_exactly_fills_image_away_from_vertices():
    # inside the dilated image and away from the vertices by a
    # coin-problem margin, every lattice point in the right residue class
    # is attained; near a vertex gaps can persist at every k (weights
    # (-1,1,2): mu = -k+1 is never attained)
    s = circle_scenario([[-1, 1, 2]], [1])
    assert section_dimension(s, 20, -19) == 0  # the persistent gap
    k = 20
    lo, hi = moment_image(s).interval
    margin = 9  # > Frobenius bound for the difference steps {1,2,3}
    supp = set(full_weight_distribution(s, k))
    for mu in range(int(lo * k) + margin, int(hi * k) - margin + 1):
        assert mu in supp, mu


def test_support_containment_all_k(corpus):
    for name, s in corpus:
        if s.group.is_su2 and len(s.factors) > 1:
            continue
        img = moment_image(s)
        for k in (1, 4, 9):
            for mu in full_weight_distribution(s, k):
                assert img.scaled_contains(s.weight_vec(mu), k), (name, k, mu)


def test_invariant_count_degree_bounded_on_regular(corpus):
    # dim H^0(L^(el))^G grows at most like l^(n-g): the exact fit on a
    # regular scenario reaches a polynomial of degree <= n-g
    for name, s in corpus:
        if not supported(s):
            continue
        if classify_stability(s).stability != "regular":
            continue
        est = equivariant_volume(s, s.zero_weight)
        assert est.status == "exact", name
        assert est.fit.degree <= max(s.quotient_degree, 0), name


def test_residue_bounded_by_volume(p2_circle):
    e = g_exponent(p2_circle, 20).exponent
    vol = equivariant_volume(p2_circle, 1).value
    for f in range(e):
        rv = residue_volume(p2_circle, 1, f)
        assert rv.value <= vol


def test_mu_semigroup_translation_structure(su2_p3):
    from equivol import numerically_compatible

    gs = g_semigroup(su2_p3, 30)
    for mu in (1, 2, 3):
        r = numerically_compatible(su2_p3, mu).witness
        expect = ({r} | {r + m for m in gs}) & set(range(mu, 31))
        assert mu_semigroup(su2_p3, mu, 30) == expect


def test_cell_budget_guard(monkeypatch):
    monkeypatch.setattr(counting, "CELL_BUDGET", 1000)
    s = circle_scenario([[10**3, -(10**3)]], [1])
    with pytest.raises(EngineLimit):
        section_dimension(s, 10**4, 0)


def test_dh_slice_preconditions():
    with pytest.raises(UnsupportedScenario):
        dh_slice_volume(circle_scenario([[1, 2]], [1]))  # not regular
    with pytest.raises(UnsupportedScenario):
        dh_slice_volume(circle_scenario([[-1, 1, 1], [1, -1]], [1, 1]))  # product
    with pytest.raises(UnsupportedScenario):
        dh_slice_volume(su2_scenario([[1, 1]], [1]))  # wrong group


def test_dh_slice_equals_counted_volume_on_supported(corpus):
    for name, s in corpus:
        if s.group.is_su2 or s.group.dim != 1 or len(s.factors) != 1:
            continue
        if classify_stability(s).stability != "regular":
            continue
        assert dh_slice_volume(s) == equivariant_volume(s, 0).value, name


def test_dh_slice_twisted_p2():
    # regular twisted classes on P^2: vol_0 = (d - c)/2
    for d, c in ((2, 1), (3, -1), (4, 3)):
        s = circle_scenario([[-1, 1, 1]], [d], twist=c)
        assert classify_stability(s).stability == "regular"
        assert dh_slice_volume(s) == Fraction(d - c, 2)
        assert equivariant_volume(s, 0).value == Fraction(d - c, 2)


def test_asymmetric_product_degrees():
    # P^2 x P^1 with multidegree (1,3): the P^2 weight range dominates, so
    # h^0_0(k) = (k+1)(k+2)/2 and vol_mu = 1 on even weights, 0 on odd
    s = circle_scenario([[-1, 1, 1], [1, -1]], [1, 3])
    assert section_dimension(s, 4, 0) == 15
    for mu in (-2, 0, 2):
        assert equivariant_volume(s, mu).value == 1, mu
    for mu in (-1, 1):
        assert equivariant_volume(s, mu).value == 0, mu


def test_asymmetric_product_with_twist():
    # adding twist 1 shifts the support parity with the level, making
    # every weight compatible: vol_mu = 1 for all mu
    s = circle_scenario([[-1, 1, 1], [1, -1]], [1, 3], twist=1)
    for mu in range(-2, 3):
        assert equivariant_volume(s, mu).value == 1, mu


def test_degenerate_segment_image():
    # collinear rank-2 weights: the image is a segment off the origin
    from equivol import vanishing_certificate

    s = circle_scenario([[(1, 1), (2, 2)]], [1], g=2)
    img = moment_image(s)
    assert len(img.vertices) == 2
    assert not img.contains_zero()
    assert classify_stability(s).stability == "unstable_everywhere"
    # (3,3) is attainable exactly for k in {2, 3}
    assert img.scale_range((3, 3)) == (2, 3)
    assert vanishing_certificate(s, (3, 3)) == 4
    for k in (1, 2, 3, 4, 5):
        expect = 1 if k in (2, 3) else 0
        assert section_dimension(s, k, (3, 3)) == expect, k


def test_point_image_rank2():
    from equivol import vanishing_certificate

    s = circle_scenario([[(2, 3), (2, 3)]], [1], g=2)
    img = moment_image(s)
    assert len(img.vertices) == 1
    assert img.scale_range((4, 6)) == (2, 2)
    assert img.scale_range((3, 6)) == (None, None)
    assert vanishing_certificate(s, (4, 6)) == 3
    assert vanishing_certificate(s, (3, 6)) == 1


def test_volume_estimate_immutable(p2_circle):
    est = equivariant_volume(p2_circle, 0)
    with pytest.raises(Exception):
        est.value = Fraction(1)


def test_g3_pointwise_counting_supported():
    # higher circle rank: pointwise queries work, dense geometry does not
    s = circle_scenario(
        [[(1, 0, 0), (0, 1, 0), (0, 0, 1)]],
        [1],
        g=3,
    )
    assert section_dimension(s, 2, (1, 1, 0)) == 1
    assert section_dimension(s, 2, (2, 0, 0)) == 1
    assert section_dimension(s, 2, (1, 0, 0)) == 0
    with pytest.raises(UnsupportedScenario):
        moment_image(s)
    with pytest.raises(UnsupportedScenario):
        equivariant_volume(s, (0, 0, 0))


def test_engine_has_no_assert_statements():
    # asserts vanish under python -O; engine invariants raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(equivol.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found



def _is_cache(node) -> bool:
    """Whether `node` names functools' lru_cache or cache, or calls it."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in ("lru_cache", "cache")


# containers that start empty however they are called: a defaultdict takes
# only its factory, the weak maps usually nothing
_EMPTY_KINDS = {"defaultdict", "WeakKeyDictionary", "WeakValueDictionary"}
# containers that start empty when called with no arguments
_EMPTY_WHEN_BARE = {"dict", "set", "list", "OrderedDict", "Counter"}


def _is_empty_container(node) -> bool:
    """Whether `node` builds an empty container, as a cache starts: an
    empty dict or list display, a bare dict(), set(), list(),
    OrderedDict() or Counter(), or any defaultdict, WeakKeyDictionary or
    WeakValueDictionary, called by name or through its module."""
    if isinstance(node, (ast.Dict, ast.List)):
        return not (node.keys if isinstance(node, ast.Dict) else node.elts)
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name in _EMPTY_KINDS or (name in _EMPTY_WHEN_BARE and not node.args and not node.keywords)


@pytest.mark.parametrize(
    "source, empty",
    [
        ("x = {}", True),
        ("x = []", True),
        ("x: dict = dict()", True),
        ("x = set()", True),
        ("x = defaultdict(list)", True),
        ("x = collections.defaultdict(dict)", True),
        ("x = OrderedDict()", True),
        ("x = Counter()", True),
        ("x = weakref.WeakKeyDictionary()", True),
        ("x = WeakValueDictionary()", True),
        ("x = {1: 2}", False),
        ("x = [1]", False),
        ("x = dict(a=1)", False),
        ("x = Counter('ab')", False),
        ("x = (1,)", False),
    ],
)
def test_module_state_check_flags_empty_containers(source, empty):
    assert _is_empty_container(ast.parse(source).body[0].value) == empty


def test_no_new_module_level_caches():
    # per-scenario state belongs on objects: a module-level cache grows
    # without bound.  The packed levels, the volume fits and the stability
    # reports live on the space (Space.level_store, Space.fit_store,
    # Space.stability_store), so nothing is allowed here
    found = set()
    for path in sorted(Path(equivol.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_is_cache(d) for d in node.decorator_list):
                    found.add(f"{path.stem}.{node.name}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_empty_container(node.value):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found.update(f"{path.stem}.{getattr(x, 'id', x.lineno)}" for x in targets)
            elif any(_is_cache(n) for n in ast.walk(node)):
                found.add(f"{path.stem}:{node.lineno}")
    assert not found, found


def test_only_geometry_reads_the_moment_image_scale():
    # one vanishing rule: no module outside geometry builds a moment image
    # or reads its scale range.  Reading a stability report's moment_image
    # field, as cli does, is not a call and stays allowed
    found = []
    for path in sorted(Path(equivol.__file__).parent.glob("*.py")):
        if path.stem == "geometry":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            func = node.func if isinstance(node, ast.Call) else None
            if (isinstance(node, ast.Attribute) and node.attr == "scale_range") or (
                func is not None
                and (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == "moment_image"
            ):
                found.append(f"{path.stem}:{node.lineno}")
    assert not found, found


def test_no_instance_dict_access():
    # scenarios on one space share what it determines by holding the same
    # Space, so no module reads or writes an object's __dict__ to copy
    # cached state from one object to another
    found = [
        f"{path.stem}:{node.lineno}"
        for path in sorted(Path(equivol.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Attribute) and node.attr == "__dict__")
        or (isinstance(node, ast.Name) and node.id == "__dict__")
        or (isinstance(node, ast.Constant) and node.value == "__dict__")
    ]
    assert not found, found


def _capability_entry_points() -> list[str]:
    """The backticked names in the entry-point column of README's
    capability table."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## What the library computes", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")][2:]  # past the header
    return [name for row in rows for name in row.rstrip(" |").rsplit("|", 1)[1].split("`")[1::2]]


def test_readme_entry_points_resolve():
    # a documented entry point must exist: `equivol.a.b` names a module's
    # attribute, any other name one of the package's, and `Scenario.space.X`
    # reads as `Space.X`
    names = _capability_entry_points()
    assert "equivariant_volume" in names and "Scenario.space.level_store" in names
    missing = []
    for name in names:
        parts = name.replace("Scenario.space.", "Space.").split(".")
        if parts[0] == "equivol":
            obj, parts = importlib.import_module(".".join(parts[:-1])), parts[-1:]
        else:
            obj = equivol
        for part in parts:
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(name)
    assert not missing, missing


def test_public_surface_is_a_literal_list_of_names():
    # equivol.__all__ is written out, so the public surface changes only
    # when that list does: every entry resolves, and none is a submodule
    init = Path(equivol.__file__)
    (value,) = [
        node.value
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
    ]
    assert isinstance(value, ast.List) and all(isinstance(e, ast.Constant) for e in value.elts)
    assert [e.value for e in value.elts] == equivol.__all__
    missing = [name for name in equivol.__all__ if not hasattr(equivol, name)]
    assert not missing, missing
    modules = [name for name in equivol.__all__ if isinstance(getattr(equivol, name), ModuleType)]
    assert not modules, modules
