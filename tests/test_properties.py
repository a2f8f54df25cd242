"""Property tests: the packed counting engine against the brute-force oracle
on random small scenarios of every torus rank, with negative weights,
constant coordinates and twists; and the closed-form Duistermaat-Heckman
volume against invariant counts on random regular P^2 scenarios and
against the fitted volume on random regular P^1..P^5 scenarios.

Examples are derandomized; their number is bounded for run time only.
"""

from itertools import product

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from equivol import (
    brute_force_oracle,
    circle_scenario,
    classify_stability,
    dh_slice_volume,
    equivariant_volume,
    full_weight_distribution,
    section_dimension,
    su2_scenario,
)
from equivol.counting import conservation_sides

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
def su2_scenarios(draw):
    blocks = st.lists(st.integers(0, 3), min_size=1, max_size=2).filter(lambda b: sum(b) + len(b) >= 2)
    factors = draw(st.lists(blocks, min_size=1, max_size=2))
    degrees = draw(st.lists(st.integers(1, 2), min_size=len(factors), max_size=len(factors)))
    return su2_scenario(factors, degrees)


def _vec(mu):
    return mu if isinstance(mu, tuple) else (mu,)


def check_engine(s, k):
    dist = full_weight_distribution(s, k)
    assert dist == brute_force_oracle(s, k)
    lhs, rhs = conservation_sides(s, k, dist)
    assert lhs == rhs
    # every weight of the support's bounding box, one step wider
    support = [_vec(mu) for mu in dist]
    axes = [range(min(c) - 1, max(c) + 2) for c in zip(*support)]
    for vec in product(*axes):
        mu = s.weight_key(vec)
        if s.group.is_su2 and mu < 0:
            continue
        assert section_dimension(s, k, mu) == dist.get(mu, 0) * s.dim_irrep(mu), (k, mu)


@SETTINGS
@given(rank1_scenarios(), LEVELS)
def test_rank1_engine_matches_oracle(s, k):
    check_engine(s, k)


@SETTINGS
@given(rank2_scenarios(), LEVELS)
def test_rank2_engine_matches_oracle(s, k):
    check_engine(s, k)


@SETTINGS
@given(su2_scenarios(), LEVELS)
def test_su2_engine_matches_oracle(s, k):
    check_engine(s, k)


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
