"""Property tests: the packed counting engine, read one weight at many
levels per call, against the brute-force oracle on random small scenarios
of every torus rank, with negative weights,
constant coordinates and twists; levels built together in one ladder
against levels built alone; the table's CSV against ``csv.DictWriter``
over each level's distribution; the closed-form Duistermaat-Heckman
volume against invariant counts on random regular P^2 scenarios and
against the fitted volume on random regular P^1..P^5 scenarios; moment
image queries against a point-in-hull test in Fractions; generic
stabilizers against the gcd of the maximal minors of the weight
differences and of the weight matrix's columns, whose kept rows are
checked against a rank in Fractions; stability classes against a search
over coordinate supports; the homogeneity and exponent laws on random
rank-1 scenarios; and random scenarios read back from their document form.

Examples are derandomized; their number is bounded for run time only.
"""

import csv
import io
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from equivol import (
    brute_force_oracle,
    circle_scenario,
    classify_stability,
    counting,
    dh_slice_volume,
    equivariant_volume,
    full_weight_distribution,
    g_exponent,
    generic_stabilizer,
    isotypic_table,
    moment_image,
    scenario_from_dict,
    scenario_power,
    scenario_to_dict,
    section_dimension,
    section_dimensions,
    su2_scenario,
    total_dimension,
    validate_scenario,
)
from equivol.counting import conservation_sides
from equivol.tables import multiplicity_rows, to_csv

SETTINGS = settings(derandomize=True, database=None, max_examples=100, deadline=None)
LEVELS = st.integers(0, 3)


@st.composite
def rank1_scenarios(draw):
    factors = draw(st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=3), min_size=1, max_size=2))
    degrees = draw(st.lists(st.integers(1, 2), min_size=len(factors), max_size=len(factors)))
    return circle_scenario(factors, degrees, twist=draw(st.integers(-2, 2)))


@st.composite
def rank2_scenarios(draw):
    factors = []
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.integers(2, 3))
        axes = []
        for _ in range(2):
            if draw(st.booleans()):  # a coordinate on which every weight agrees
                axes.append([draw(st.integers(-2, 2))] * n)
            else:
                axes.append(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
        factors.append(list(zip(*axes)))
    degrees = draw(st.lists(st.integers(1, 2), min_size=len(factors), max_size=len(factors)))
    twist = draw(st.tuples(st.integers(-1, 1), st.integers(-1, 1)))
    return circle_scenario(factors, degrees, twist=twist)


@st.composite
def stepped_scenarios(draw):
    """Rank-1 and rank-2 scenarios with each coordinate's weights scaled by
    a step of 1 to 3 and the twist left unscaled, so the packed counts
    divide the step out and read most weights as 0."""
    s = draw(st.one_of(rank1_scenarios(), rank2_scenarios()))
    steps = draw(st.lists(st.integers(1, 3), min_size=s.group.torus_rank, max_size=s.group.torus_rank))
    factors = [[tuple(x * g for x, g in zip(w, steps)) for w in ws] for ws in s.torus_weights]
    return circle_scenario(factors, s.bundle.degrees, twist=s.bundle.twist)


@st.composite
def su2_scenarios(draw):
    blocks = st.lists(st.integers(0, 3), min_size=1, max_size=2).filter(lambda b: sum(b) + len(b) >= 2)
    factors = draw(st.lists(blocks, min_size=1, max_size=2))
    degrees = draw(st.lists(st.integers(1, 2), min_size=len(factors), max_size=len(factors)))
    return su2_scenario(factors, degrees)


@SETTINGS
@given(st.one_of(rank1_scenarios(), rank2_scenarios(), su2_scenarios()))
def test_document_form_round_trips(s):
    # the builders validate through the document form, which must read
    # back every scenario it writes
    assert scenario_from_dict(scenario_to_dict(s)) == s
    assert validate_scenario(s) == s


def _vec(mu):
    return mu if isinstance(mu, tuple) else (mu,)


def check_engine(s, data):
    # one batched read per weight covers every level of ks: unsorted, with
    # a repeat and with 0
    ks = data.draw(st.lists(LEVELS, min_size=1, max_size=3))
    ks = data.draw(st.permutations(ks + ks[:1] + [0]))
    dists = {}
    for k in set(ks):
        dists[k] = full_weight_distribution(s, k)
        assert dists[k] == brute_force_oracle(s, k), k
        lhs, rhs = conservation_sides(s, k, dists[k])
        assert lhs == rhs, k
    # every weight of the supports' bounding box, one step wider
    support = [_vec(mu) for dist in dists.values() for mu in dist]
    axes = [range(min(c) - 1, max(c) + 2) for c in zip(*support)]
    for vec in product(*axes):
        mu = s.weight_key(vec)
        if s.group.is_su2 and mu < 0:
            continue
        expect = [dists[k].get(mu, 0) * s.dim_irrep(mu) for k in ks]
        assert section_dimensions(s, mu, ks) == expect, (ks, mu)
        assert section_dimension(s, ks[0], mu) == expect[0], (ks, mu)


@SETTINGS
@given(rank1_scenarios(), st.data())
def test_rank1_engine_matches_oracle(s, data):
    check_engine(s, data)


@SETTINGS
@given(rank2_scenarios(), st.data())
def test_rank2_engine_matches_oracle(s, data):
    check_engine(s, data)


@SETTINGS
@given(su2_scenarios(), st.data())
def test_su2_engine_matches_oracle(s, data):
    check_engine(s, data)


@SETTINGS
@given(stepped_scenarios(), st.data())
def test_stepped_engine_matches_oracle(s, data):
    check_engine(s, data)


# the table reads every level from one ladder with slots sized at k_max;
# a level read alone from an empty store sizes its slots at that level
KINDS = {"rank1": rank1_scenarios(), "rank2": rank2_scenarios(), "su2": su2_scenarios(), "stepped": stepped_scenarios()}


@pytest.mark.parametrize("kind", sorted(KINDS))
@SETTINGS
@given(data=st.data())
def test_isotypic_table_matches_levels(kind, data):
    s = data.draw(KINDS[kind])
    k_max = data.draw(st.integers(0, 6))
    expect = {
        (k, mu): n * s.dim_irrep(mu)
        for k in range(k_max + 1)
        for mu, n in full_weight_distribution(s, k).items()
    }
    assert isotypic_table(s, k_max).entries == expect


def _dictwriter_table(s, k_max):
    """The table's CSV built apart from the row emitters: one dict per
    weight of each level's distribution, sorted by (k, weight vector)."""
    rows = [
        (k, s.weight_vec(mu), {"k": k, "mu": str(mu).replace(" ", ""), "dim": n * s.dim_irrep(mu)})
        for k in range(k_max + 1)
        for mu, n in full_weight_distribution(s, k).items()
    ]
    rows.sort(key=lambda r: r[:2])
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["k", "mu", "dim"], lineterminator="\n")
    writer.writeheader()
    writer.writerows(r[2] for r in rows)
    return buf.getvalue()


@pytest.mark.parametrize("kind", ["rank1", "rank2", "su2"])
@SETTINGS
@given(data=st.data())
def test_table_csv_matches_dictwriter_of_levels(kind, data):
    s = data.draw(KINDS[kind])
    k_max = data.draw(st.integers(0, 6))
    table = isotypic_table(s, k_max)
    items = table.sorted_items()
    assert to_csv(multiplicity_rows(s, items), ["k", "mu", "dim"]) == _dictwriter_table(s, k_max)
    assert table.entries == dict(items)


LADDER_KINDS = {"rank1": rank1_scenarios(), "rank2": rank2_scenarios(), "su2": su2_scenarios()}
# the SU(2) oracle takes about 2 s at 50,000 monomials, far below ORACLE_BUDGET;
# past this size the levels are compared with levels built alone only
LADDER_ORACLE_MONOMIALS = 20_000


def _built_alone(s, k):
    """The level-k distribution from a record built alone in an empty store."""
    counting._packed.clear()
    return full_weight_distribution(s, k)


@pytest.mark.parametrize("kind", sorted(LADDER_KINDS))
@SETTINGS
@given(data=st.data())
def test_ladder_records_match_levels_built_alone(kind, data):
    # a read builds the levels it misses in one ladder, whose slots are
    # sized by its top level: from an empty store, and from one that
    # already holds some of the levels, built alone
    s = data.draw(LADDER_KINDS[kind])
    ks = data.draw(st.lists(st.integers(0, 6), min_size=1, max_size=5))
    ks = data.draw(st.permutations(ks + ks[:1]))
    dists = {k: _built_alone(s, k) for k in set(ks)}
    for k, dist in dists.items():
        if total_dimension(s, k) <= LADDER_ORACLE_MONOMIALS:
            assert dist == brute_force_oracle(s, k), k
    mus = sorted({mu for dist in dists.values() for mu in dist})
    expect = [[dists[k].get(mu, 0) * s.dim_irrep(mu) for k in ks] for mu in mus]
    counting._packed.clear()
    assert [section_dimensions(s, mu, ks) for mu in mus] == expect, ks
    counting._packed.clear()
    for k in data.draw(st.lists(st.sampled_from(ks), max_size=3)):
        full_weight_distribution(s, k)
    assert counting._section_counts(s, mus, ks) == expect, ks
    assert [section_dimensions(s, mu, ks) for mu in mus] == expect, ks


@st.composite
def regular_p2_scenarios(draw):
    weights = draw(st.lists(st.integers(-4, 4), min_size=3, max_size=3))
    s = circle_scenario([weights], [draw(st.integers(1, 3))], twist=draw(st.integers(-4, 4)))
    assume(classify_stability(s).stability == "regular")
    return s


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(regular_p2_scenarios())
def test_dh_volume_is_lattice_length_of_invariant_slice(s):
    # the invariant monomials of L^k are the lattice points of a segment of
    # lattice length vol_0 * k, so their number is within 1 of it
    vol = dh_slice_volume(s)
    for k in range(1, 151):
        h = section_dimension(s, k, 0)
        if h > 0:
            assert vol * k - 1 <= h <= vol * k + 1, (k, h, vol)


@st.composite
def regular_single_factor_scenarios(draw):
    n = draw(st.integers(1, 5))
    span = 3 if n <= 3 else 2
    weights = draw(st.lists(st.integers(-span, span), min_size=n + 1, max_size=n + 1))
    s = circle_scenario([weights], [draw(st.integers(1, 2))], twist=draw(st.integers(-2, 2)))
    assume(classify_stability(s).stability == "regular")
    return s


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(regular_single_factor_scenarios())
def test_fitted_volume_equals_dh_slice_volume(s):
    assert equivariant_volume(s, 0).value == dh_slice_volume(s)


# --- moment images ------------------------------------------------------------


def _sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def in_hull(points, x) -> bool:
    """x in the convex hull of `points`, by Caratheodory: one of the
    points, segments between two points or nondegenerate triangles on three
    points holds x.  Rank-1 points are read as (w, 0)."""
    points = list(dict.fromkeys(p + (0,) * (2 - len(p)) for p in points))
    x = x + (0,) * (2 - len(x))
    if x in points:
        return True
    for p, q in combinations(points, 2):
        d, y = _sub(q, p), _sub(x, p)
        if _cross(d, y) == 0 and 0 <= d[0] * y[0] + d[1] * y[1] <= d[0] ** 2 + d[1] ** 2:
            return True
    for a, b, c in combinations(points, 3):
        if _cross(_sub(b, a), _sub(c, a)) == 0:
            continue
        sides = [_cross(_sub(v, u), _sub(x, u)) for u, v in ((a, b), (b, c), (c, a))]
        if all(t >= 0 for t in sides) or all(t <= 0 for t in sides):
            return True
    return False


@st.composite
def moment_images(draw):
    """(image, the points it is the hull of, a weight mu) for one factor of
    degree 1: a rank-1 interval, or a rank-2 polygon, segment or point."""
    coord = st.integers(-3, 3)
    shape = draw(st.sampled_from(["interval", "polygon", "segment", "point"]))
    if shape == "interval":
        weights = [(w,) for w in draw(st.lists(coord, min_size=2, max_size=4))]
        twist = (draw(st.integers(-2, 2)),)
    else:
        base = draw(st.tuples(coord, coord))
        if shape == "polygon":
            weights = [base] + draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=4))
        elif shape == "segment":
            step = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any))
            ts = draw(st.lists(st.integers(-1, 1), min_size=1, max_size=3, unique=True).filter(lambda ts: ts != [0]))
            weights = [base] + [(base[0] + t * step[0], base[1] + t * step[1]) for t in ts]
        else:
            weights = [base, base]
        twist = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    s = circle_scenario([weights], [1], twist=twist if len(twist) == 2 else twist[0], g=len(twist))
    points = [tuple(x + c for x, c in zip(w, twist)) for w in weights]
    img = moment_image(s)
    if shape == "polygon":
        assume(len(img.vertices) >= 3)
    rank = len(twist)
    if draw(st.booleans()):  # near a multiple of a hull point, where degenerate images are hit
        p = draw(st.sampled_from(points))
        r = draw(st.integers(0, 4))
        mu = tuple(r * x + draw(st.integers(-1, 1)) for x in p)
    else:
        mu = tuple(draw(st.integers(-8, 8)) for _ in range(rank))
    return img, points, mu


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(moment_images())
def test_moment_image_queries_match_fraction_hull(case):
    img, points, mu = case
    assert img.contains_zero() == in_hull(points, (0,) * img.rank)
    assert img.scaled_contains(mu, 0) == (not any(mu))
    for k in range(1, 7):
        x = tuple(Fraction(m, k) for m in mu)
        assert img.scaled_contains(mu, k) == in_hull(points, x), (k, mu)
    # a bounded range ends at <a, mu> // beta for an integer facet normal a
    # with entries at most the image's width and beta >= 1, so below the
    # horizon
    width = max(max(c) - min(c) for c in zip(*points))
    horizon = 2 + 2 * max(width, 1) * max(map(abs, mu))
    admitted = [r for r in range(1, horizon + 1) if img.scaled_contains(mu, r)]
    r_min, r_max = img.scale_range(mu)
    if not admitted:
        assert (r_min, r_max) == (None, None)
        return
    assert admitted == list(range(admitted[0], admitted[-1] + 1))
    assert r_min == admitted[0]
    assert r_max == (None if admitted[-1] == horizon else admitted[-1])


# --- generic stabilizers ------------------------------------------------------


def _difference_vectors(s):
    return [
        tuple(x - y for x, y in zip(a, b))
        for ws in s.torus_weights
        for a, b in combinations(ws, 2)
    ]


@SETTINGS
@example(su2_scenario([[0, 0]], [1]))  # every block Sym^0: the action is trivial
@given(
    st.one_of(
        rank1_scenarios(),
        rank2_scenarios(),
        su2_scenarios().filter(lambda s: len(s.factors) == 1),
    )
)
def test_generic_stabilizer_matches_maximal_minors(s):
    # |K| is the index of the difference lattice: the gcd of the maximal
    # minors of the difference vectors, 0 when they do not span
    diffs = _difference_vectors(s)
    rank = s.group.torus_rank
    minors = [d[0] for d in diffs] if rank == 1 else [_cross(a, b) for a, b in combinations(diffs, 2)]
    order = gcd(*minors)
    stab = generic_stabilizer(s)
    assert (stab.finite, stab.order) == (order > 0, order or None)
    if not order:
        return
    content = gcd(*(x for d in diffs for x in d))
    assert stab.invariant_factors == ((order,) if rank == 1 else (content, order // content))
    assert all(stab.contains(d) for d in diffs)
    # order * Z^r lies in the lattice, so a box of side `order` meets every
    # coset; residue picks one representative of each
    residues = {stab.residue(v) for v in product(range(order), repeat=rank)}
    assert len(residues) == order
    assert all(stab.residue(r) == r for r in residues)


def _weight_matrix_rows(s):
    """The rows of A: one column (e_j, w) per coordinate of factor j."""
    nf = len(s.factors)
    return list(zip(*(tuple(int(i == j) for i in range(nf)) + w for j, ws in enumerate(s.torus_weights) for w in ws)))


def _fraction_rank(rows) -> int:
    """Rank of an integer matrix, by Gaussian elimination in Fractions."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _fraction_det(rows) -> Fraction:
    """Determinant of a square integer matrix, by Gaussian elimination in
    Fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    out = Fraction(1)
    for c in range(len(a)):
        piv = next((i for i in range(c, len(a)) if a[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv], out = a[piv], a[c], -out
        out *= a[c][c]
        for i in range(c + 1, len(a)):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return out


@SETTINGS
@example(su2_scenario([[0, 0]], [1]))  # every block Sym^0: the action is trivial
@example(circle_scenario([[(1, 2), (3, 6)], [(0, 0), (-1, -2)]], [1, 1]))  # differences on one line
@given(
    st.one_of(
        rank1_scenarios(),
        rank2_scenarios(),
        su2_scenarios().filter(lambda s: len(s.factors) == 1),
    )
)
def test_column_lattice_minors_give_the_stabilizer_order(s):
    # the kept rows of A are those independent of the rows above them, and
    # when they are all of A, the gcd of its maximal minors is |K|: the
    # index of the column lattice, Z^(nf+r) modulo the columns being Z^r
    # modulo the difference lattice
    rows = _weight_matrix_rows(s)
    keep = s.column_lattice.keep
    for i in range(len(rows)):
        assert (_fraction_rank(rows[: i + 1]) > _fraction_rank(rows[:i])) == (i in keep), i
    stab = generic_stabilizer(s)
    assert stab.finite == (len(keep) == len(rows))
    if stab.finite:
        cols = list(zip(*rows))
        minors = [_fraction_det(m) for m in combinations(cols, len(rows))]
        assert gcd(*map(int, minors)) == stab.order


@st.composite
def stratum_scenarios(draw):
    """Rank-1 and rank-2 scenarios with 1 to 3 factors, and a twist that
    puts 0 at most one step from a lattice point of the image, so that
    fixed points, edges and critical segments through 0 are frequent."""
    rank = draw(st.integers(1, 2))
    weight = st.tuples(*[st.integers(-2, 2)] * rank)
    # a rank-2 image has interior points only with 3 coordinates or more
    factors = draw(st.lists(st.lists(weight, min_size=rank + 1, max_size=3), min_size=1, max_size=3))
    degrees = draw(st.lists(st.integers(1, 3), min_size=len(factors), max_size=len(factors)))
    # -twist is a sum of d_j weights of each factor j, then moved by one step
    twist = draw(st.tuples(*[st.integers(-1, 1)] * rank))
    for ws, d in zip(factors, degrees):
        for w in draw(st.lists(st.sampled_from(ws), min_size=d, max_size=d)):
            twist = tuple(c - x for c, x in zip(twist, w))
    return circle_scenario(factors, degrees, twist=twist, g=rank)


def _spans_less(diffs, rank) -> bool:
    if rank == 1:
        return not any(d[0] for d in diffs)
    return not any(_cross(a, b) for a, b in combinations(diffs, 2))


def _zero_is_critical(s) -> bool:
    """Whether 0 is the moment image of a point whose coordinate supports
    S_j (one nonempty subset of each factor's weights) have weight
    differences spanning less than R^r.  The images of those points fill
    the weighted Minkowski sum of the hulls of the S_j plus the twist; a
    factor with one weight left moves into the twist."""
    rank = s.group.torus_rank
    choices = [
        [c for n in range(1, len(set(ws)) + 1) for c in combinations(sorted(set(ws)), n)]
        for ws in s.torus_weights
    ]
    for supports in product(*choices):
        diffs = [tuple(x - y for x, y in zip(a, b)) for S in supports for a, b in combinations(S, 2)]
        if not _spans_less(diffs, rank):
            continue
        twist = list(s.twist_vec)
        rest = []
        for S, d in zip(supports, s.bundle.degrees):
            if len(S) == 1:
                twist = [c + d * x for c, x in zip(twist, S[0])]
            else:
                rest.append((S, d))
        if not rest:
            if not any(twist):
                return True
            continue
        restricted = circle_scenario([S for S, _ in rest], [d for _, d in rest], twist=tuple(twist), g=rank)
        if moment_image(restricted).contains_zero():
            return True
    return False


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(stratum_scenarios())
def test_stability_class_matches_stratum_reference(s):
    if not moment_image(s).contains_zero():
        expect = ("unstable_everywhere", "outside")
    elif all(len(set(ws)) == 1 for ws in s.torus_weights):
        expect = ("trivial_action", "on_vertex_or_wall")
    elif _zero_is_critical(s):
        expect = ("boundary", "on_vertex_or_wall")
    else:
        expect = ("regular", "inside")
    rep = classify_stability(s)
    assert (rep.stability, rep.zero_position) == expect


# --- homogeneity and exponent laws ----------------------------------------------


@st.composite
def small_rank1_scenarios(draw, max_step=1):
    # a common weight step makes exponents above 1 frequent
    step = draw(st.integers(1, max_step))
    weights = st.lists(st.integers(-2, 2).map(lambda w: step * w), min_size=2, max_size=3)
    factors = draw(st.lists(weights, min_size=1, max_size=2))
    degrees = draw(st.lists(st.integers(1, 2), min_size=len(factors), max_size=len(factors)))
    return circle_scenario(factors, degrees, twist=draw(st.integers(-2, 2)))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(small_rank1_scenarios(), st.integers(2, 5), st.integers(-2, 2))
def test_homogeneity_law(s, p, mu):
    # vol_mu(L^p) = p^(n-g) vol_mu(L) when gcd(p, e) = 1
    e = g_exponent(s).exponent
    assume(e is not None and gcd(p, e) == 1)
    base = equivariant_volume(s, mu)
    power = equivariant_volume(scenario_power(s, p), mu)
    assert power.status == base.status
    if base.finite:
        assert power.value == Fraction(p) ** s.growth_degree * base.value


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(small_rank1_scenarios(max_step=3), st.integers(2, 4))
def test_exponent_law(s, p):
    # e_G(L^p) = e / gcd(p, e)
    e = g_exponent(s).exponent
    assume(e is not None)
    assert g_exponent(scenario_power(s, p)).exponent == e // gcd(p, e)
