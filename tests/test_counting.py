"""Multiplicity engine against the brute-force oracle and pinned values.

The oracle (explicit monomial enumeration; raising-operator kernel ranks
for SU(2)) is the independent route: everything the packed counting engine
produces is checked against it on small levels before any asymptotics are
trusted.
"""

import json
import random
import sys
import time
from array import array
from itertools import product
from math import prod
from operator import mul
from pathlib import Path

import pytest

from equivol import (
    EngineLimit,
    LinearizedBundle,
    ScenarioError,
    brute_force_oracle,
    circle_scenario,
    counting,
    full_weight_distribution,
    g_exponent,
    isotypic_table,
    scenario_from_dict,
    scenario_power,
    section_dimension,
    section_dimensions,
    su2_scenario,
    total_dimension,
    validate_scenario,
    with_bundle,
)
from equivol.cli import main
from equivol.counting import conservation_sides

DOCS = Path(__file__).with_name("docs")


def assert_oracle_agrees(s, k_range):
    for k in k_range:
        dist = full_weight_distribution(s, k)
        assert dist == brute_force_oracle(s, k), f"k={k}"
        lhs, rhs = conservation_sides(s, k, dist)
        assert lhs == rhs, f"k={k}"


def test_p1_distribution_small(p1_hyperplane):
    assert full_weight_distribution(p1_hyperplane, 2) == {-2: 1, 0: 1, 2: 1}
    assert full_weight_distribution(p1_hyperplane, 0) == {0: 1}


def test_p1_section_dimension(p1_hyperplane):
    # the five monomials of O(4) have weights 4, 2, 0, -2, -4
    assert section_dimension(p1_hyperplane, 4, 2) == 1
    assert section_dimension(p1_hyperplane, 4, 3) == 0
    assert section_dimension(p1_hyperplane, 4, 6) == 0


def test_p2_invariants_match_reduced_space(p2_circle):
    # dim H^0(P^2, O(2r))_0 = 1 + r
    for r in (1, 2, 5, 9):
        assert section_dimension(p2_circle, 2 * r, 0) == 1 + r
    assert section_dimension(p2_circle, 3, 0) == 0


def test_su2_p3_pattern(su2_p3):
    # isotypic dimension (mu+1)^2 exactly when mu <= k and k = mu mod 2
    for k in range(0, 9):
        for mu in range(0, k + 3):
            expect = (mu + 1) ** 2 if (mu <= k and (k - mu) % 2 == 0) else 0
            assert section_dimension(su2_p3, k, mu) == expect, (k, mu)
    assert section_dimension(su2_p3, 5, 3) == 16


def test_su2_p3_distribution_small(su2_p3):
    # Sym^2(V + V) = Sym^2(V)^3 + trivial
    assert full_weight_distribution(su2_p3, 2) == {0: 1, 2: 3}
    assert full_weight_distribution(su2_p3, 0) == {0: 1}


def test_su2_multiplicity_vs_dimension(su2_p3):
    assert full_weight_distribution(su2_p3, 5)[3] == 4
    assert section_dimension(su2_p3, 5, 3) == 16


def test_total_dimension_binomials(p2_circle, su2_p3):
    assert total_dimension(p2_circle, 3) == 10
    assert total_dimension(su2_p3, 2) == 10
    prod = circle_scenario([[-1, 1, 1], [1, -1]], [1, 1])
    assert total_dimension(prod, 2) == 6 * 3


def test_oracle_p1(p1_hyperplane):
    assert_oracle_agrees(p1_hyperplane, range(0, 9))


def test_oracle_p1_twisted():
    s = circle_scenario([[1, -1]], [1], twist=1)
    assert_oracle_agrees(s, range(0, 7))
    assert full_weight_distribution(s, 2) == {0: 1, 2: 1, 4: 1}


def test_oracle_p2(p2_circle):
    assert_oracle_agrees(p2_circle, range(0, 7))


def test_oracle_p2_skew():
    assert_oracle_agrees(circle_scenario([[-1, 1, 2]], [1]), range(0, 7))


def test_oracle_product():
    prod = circle_scenario([[-1, 1, 1], [1, -1]], [1, 1])
    assert_oracle_agrees(prod, range(0, 6))


def test_oracle_rank2(p1p1_diag):
    assert_oracle_agrees(p1p1_diag, range(0, 7))
    assert full_weight_distribution(p1p1_diag, 1) == {
        (1, 1): 1, (1, -1): 1, (-1, 1): 1, (-1, -1): 1
    }


def test_oracle_su2_p3(su2_p3):
    assert_oracle_agrees(su2_p3, range(0, 9))


def test_oracle_su2_p1():
    s = su2_scenario([[1]], [1])
    assert_oracle_agrees(s, range(0, 9))
    # Sym^k(V) is irreducible: support is exactly {k}
    assert full_weight_distribution(s, 5) == {5: 1}


def test_oracle_su2_p5(su2_p5):
    assert_oracle_agrees(su2_p5, range(0, 6))


def test_oracle_su2_mixed_blocks():
    s = su2_scenario([[2, 0]], [1])
    assert_oracle_agrees(s, range(0, 7))


def test_weight_negation_symmetry(p2_circle):
    # negating all weights and the twist reflects the distribution
    neg = circle_scenario([[1, -1, -1]], [1])
    for k in range(0, 7):
        dist = full_weight_distribution(p2_circle, k)
        assert full_weight_distribution(neg, k) == {-m: c for m, c in dist.items()}


def test_twist_shifts_distribution():
    base = circle_scenario([[-1, 1, 1]], [1])
    tw = circle_scenario([[-1, 1, 1]], [1], twist=2)
    for k in range(0, 6):
        dist = full_weight_distribution(base, k)
        assert full_weight_distribution(tw, k) == {m + 2 * k: c for m, c in dist.items()}


def test_isotypic_table_support(p1_hyperplane):
    table = isotypic_table(p1_hyperplane, 4)
    assert table.entries[(2, 0)] == 1
    assert (3, 0) not in table.entries
    assert table.entries[(0, 0)] == 1


def test_sorted_items_in_weight_order(corpus):
    for name, s in corpus:
        table = isotypic_table(s, 6)
        by_vector = sorted(table.entries.items(), key=lambda kv: (kv[0][0], s.weight_vec(kv[0][1])))
        flat = [((k, mu), n) for k, mus, ns in table.sorted_items() for mu, n in zip(mus, ns)]
        assert flat == by_vector, name


def level_entries(s, k_max):
    """The table's entries, level by level from the cached packed counts."""
    return {
        (k, mu): n * s.dim_irrep(mu)
        for k in range(k_max + 1)
        for mu, n in full_weight_distribution(s, k).items()
    }


def test_isotypic_table_matches_levels_on_corpus(corpus):
    for name, s in corpus:
        for k_max in (0, 1, 7):
            assert isotypic_table(s, k_max).entries == level_entries(s, k_max), (name, k_max)


# the level-60 weight DP of these two is past the budget
TABLE_TOPS = {"circle_rank3_p4": 20, "rank2_p1p2_engine_limit": 20}


@pytest.mark.parametrize("path", sorted(DOCS.glob("*.json")), ids=lambda path: path.stem)
def test_isotypic_table_matches_levels_beyond_corpus(path):
    # circle rank 3, SU(2) products and counts past 8 bytes, far up the
    # ladder: each level of the table, weights in order, as read alone
    s = scenario_from_dict(json.loads(path.read_text()))
    k_max = TABLE_TOPS.get(path.stem, 60)
    levels = [(k, full_weight_distribution(s, k)) for k in range(k_max + 1)]
    assert isotypic_table(s, k_max).levels == [
        (k, list(dist), [n * s.dim_irrep(mu) for mu, n in dist.items()]) for k, dist in levels
    ]


def test_isotypic_table_leaves_packed_cache_alone(corpus):
    # a freshly parsed scenario starts with an empty level store
    for name, s in corpus:
        fresh = validate_scenario(s)
        isotypic_table(fresh, 9)
        assert fresh.space.level_store == {}, name


def test_isotypic_table_budget_guard(p2_circle, p1p1_diag, monkeypatch):
    monkeypatch.setattr(counting, "CELL_BUDGET", 1000)
    with pytest.raises(EngineLimit, match="cells"):
        isotypic_table(p2_circle, 50)
    monkeypatch.setattr(counting, "CELL_BUDGET", 2000)
    with pytest.raises(EngineLimit, match="slots"):
        isotypic_table(p1p1_diag, 50)
    assert isotypic_table(p2_circle, -1).entries == {}


def test_budget_checked_on_the_top_level_before_any_level_list(p2_circle, monkeypatch):
    # a table or a semigroup far past the budget fails on its top level,
    # before a level tuple is built for every k below it
    calls = []
    true_degrees = counting._level_degrees

    def counted(s, k):
        calls.append(k)
        return true_degrees(s, k)

    monkeypatch.setattr(counting, "_level_degrees", counted)
    with pytest.raises(EngineLimit, match="budget"):
        isotypic_table(p2_circle, 10**6)
    with pytest.raises(EngineLimit, match="budget"):
        g_exponent(p2_circle, 10**6)
    assert len(calls) <= 4


def test_budget_check_reads_the_top_of_a_range_off_its_ends(p2_circle):
    # g_exponent asks for the levels range(1, m_max + 1): iterating a
    # hundred million of them to find the top took about 4 s of CPU time
    start = time.process_time()
    with pytest.raises(EngineLimit, match="budget"):
        g_exponent(p2_circle, 10**8)
    with pytest.raises(EngineLimit, match="budget"):
        counting._records(p2_circle, range(10**8, 0, -1))
    assert time.process_time() - start < 0.5
    # an empty range reads level 0, as an empty list does
    assert counting._records(p2_circle, range(0)) == counting._records(p2_circle, []) == []


def test_packed_counts_divide_out_the_weight_step(p1_hyperplane, su2_p3):
    # weights (1, -1) move in steps of 2: level 4 spans 5 slots, not 9, and
    # the decoded counts keep the zeros between the weights
    (p,) = counting._records(p1_hyperplane, [4])
    assert (p.lo, p.steps, p.spans) == ((-4,), (2,), (5,))
    assert [section_dimension(p1_hyperplane, 2, mu) for mu in range(-2, 3)] == [1, 0, 1, 0, 1]
    assert full_weight_distribution(su2_p3, 1) == {1: 2}
    assert section_dimension(p1_hyperplane, 4, 1) == 0
    # a constant coordinate keeps step 1 and span 1
    s = circle_scenario([[(2, 5), (-2, 5)], [(0, 5), (4, 5)]], [1, 1])
    (p,) = counting._records(s, [3])
    assert (p.lo, p.steps, p.spans) == ((-6, 30), (4, 1), (7, 1))
    assert_oracle_agrees(s, range(0, 4))


def slotwise_place(h, src, box, strides, nbytes):
    """Reference for counting._place: the corner `box` of `h`, laid out in
    the box `src`, copied slot by slot into the layout with `strides`."""
    bits = 8 * nbytes
    src_strides = [prod(src[i + 1 :]) for i in range(len(src))]
    out = 0
    for idx in product(*map(range, box)):
        slot = h >> bits * sum(map(mul, idx, src_strides)) & (1 << bits) - 1
        out |= slot << bits * sum(map(mul, idx, strides))
    return out


@pytest.mark.parametrize(
    "src, box, spans",
    [
        ((7,), (4,), (9,)),
        ((4, 5), (3, 2), (6, 4)),
        ((4, 5), (4, 5), (4, 5)),
        ((4, 1), (3, 1), (5, 3)),  # a constant last coordinate
        ((1, 5), (1, 4), (1, 6)),  # a constant leading coordinate
        ((3, 2, 4), (2, 2, 3), (4, 3, 5)),
        ((3, 2, 2, 3), (2, 2, 1, 3), (4, 3, 2, 5)),
        # the box fills its source along the last two axes and the layout
        # along the last: the join along the middle axis has no gap, and
        # the join along the first has one
        ((3, 2, 4), (2, 2, 4), (3, 3, 4)),
    ],
)
@pytest.mark.parametrize("nbytes", (1, 3, 8))
def test_place_matches_slotwise_copy(src, box, spans, nbytes):
    # a row fills only its corner box of the source layout
    rng = random.Random(f"{src}{box}{nbytes}")
    src_strides = [prod(src[i + 1 :]) for i in range(len(src))]
    h = 0
    for idx in product(*map(range, box)):
        h |= rng.randrange(1, 256**nbytes) << 8 * nbytes * sum(map(mul, idx, src_strides))
    strides = [prod(spans[i + 1 :]) for i in range(len(spans))]
    placed = counting._place(h, list(src), list(box), strides, nbytes)
    assert placed == slotwise_place(h, src, box, strides, nbytes)


@pytest.mark.parametrize("nbytes", range(1, 10))
def test_slots_decode_every_width(nbytes):
    values = [0, 1, 255, 2 ** (8 * nbytes) - 1, 7]
    raw = b"".join(v.to_bytes(nbytes, sys.byteorder) for v in values)
    counts = counting._counts(int.from_bytes(raw, sys.byteorder), len(values), nbytes)
    assert list(counts) == values


# P^11 with four weights -1, four 0 and four 1: the total dimension at
# k = 0, 1, 3, 8, 40 needs 1, 1, 2, 3, 5 bytes.  P^25 with nine -1, eight 0
# and nine 1 needs 9 at k = 60.
P11 = [-1] * 4 + [0] * 4 + [1] * 4
P25 = [-1] * 9 + [0] * 8 + [1] * 9


@pytest.mark.parametrize(
    "weights, k, itemsize",
    [(P11, 0, 1), (P11, 1, 1), (P11, 3, 2), (P11, 8, 4), (P11, 40, 8), (P25, 60, None)],
)
def test_ladder_counts_are_machine_words(weights, k, itemsize):
    s = circle_scenario([weights], [1])
    (p,) = counting._ladder(s.space.weight_layout, (k,), [(k,)])
    if itemsize is None:  # past 8 bytes a slot, the counts are Python ints
        assert type(p.counts) is tuple
    else:
        assert isinstance(p.counts, array) and p.counts.itemsize == itemsize
    assert sum(p.counts) == total_dimension(s, k)
    assert p.counts[k] == section_dimension(s, k, 0)  # weights -k..k, one slot each


def _raise_weight_2(p):
    """Record `p` with the count at weight 2 one above the count at weight 0,
    which no SU(2) level has: N(0) = count(0) - count(2) turns negative."""
    counts = list(p.counts)
    at0 = -p.lo[0] // p.steps[0]
    counts[at0 + 2 // p.steps[0]] = counts[at0] + 1
    return p._replace(counts=tuple(counts))


def test_su2_point_and_level_reads_guard_unimodality(su2_p3, monkeypatch):
    records = counting._records
    monkeypatch.setattr(counting, "_records", lambda s, ks: list(map(_raise_weight_2, records(s, ks))))
    with pytest.raises(RuntimeError, match=r"not unimodal at mu=0, k=2: engine bug"):
        full_weight_distribution(su2_p3, 2)
    with pytest.raises(RuntimeError, match=r"not unimodal at mu=0, k=2: engine bug"):
        section_dimension(su2_p3, 2, 0)


def test_su2_table_guards_unimodality(su2_p3, monkeypatch):
    ladder = counting._ladder

    def one_bad_level(layout, top, levels):
        levels = list(levels)
        for lv, p in zip(levels, ladder(layout, top, levels)):
            yield _raise_weight_2(p) if lv == (2,) else p

    monkeypatch.setattr(counting, "_ladder", one_bad_level)
    with pytest.raises(RuntimeError, match=r"not unimodal at mu=0, k=2: engine bug"):
        isotypic_table(su2_p3, 4)


def test_oracle_budget_guard(p2_circle, corpus, monkeypatch):
    with pytest.raises(EngineLimit):
        brute_force_oracle(p2_circle, 10_000)
    # the budget is read at call time: P^2 at k = 2 has 6 basis monomials
    with monkeypatch.context() as m:
        m.setattr(counting, "ORACLE_BUDGET", 5)
        with pytest.raises(EngineLimit, match="needs 6 monomials > budget 5"):
            brute_force_oracle(p2_circle, 2)
        m.setattr(counting, "ORACLE_BUDGET", 6)
        assert brute_force_oracle(p2_circle, 2) == full_weight_distribution(p2_circle, 2)

    # P^3, O(1) at k = 200 has C(203, 3) > 10^6 monomials: the guard fires
    # before any enumeration starts
    def no_enumeration(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(counting, "combinations_with_replacement", no_enumeration)
    with pytest.raises(EngineLimit, match="oracle enumeration needs 1373701 monomials > budget 1000000"):
        brute_force_oracle(dict(corpus)["p3_balanced"], 200)


def test_oracle_matches_closed_forms_with_the_engine_off(p2_circle, p1p1_diag, monkeypatch):
    # no packed code can run: the oracle alone must give each closed form
    def engine_off(*args):
        raise AssertionError("the packed engine ran")

    for name in ("_ladder", "_factor_rows", "_records"):
        monkeypatch.setattr(counting, name, engine_off)
    su2_p1, sym2 = su2_scenario([[1]], [1]), su2_scenario([[2]], [1])
    for k in range(9):
        # P^2 with weights (-1, 1, 1): x0^a of weight k - 2a times the
        # (k + mu)/2 + 1 monomials of degree k - a in x1, x2
        assert brute_force_oracle(p2_circle, k) == {mu: (k + mu) // 2 + 1 for mu in range(-k, k + 1, 2)}
        # P^1 x P^1 with weights (+-1, 0), (0, +-1): one monomial per weight
        # of each factor's weights -k, -k + 2, ..., k
        assert brute_force_oracle(p1p1_diag, k) == dict.fromkeys(product(range(-k, k + 1, 2), repeat=2), 1)
        # H^0(P(V), O(k)) = Sym^k V = V_k
        assert brute_force_oracle(su2_p1, k) == {k: 1}
        # Sym^k(Sym^2 V) = V_2k + V_(2k-4) + ..., down to V_0 or V_2
        assert brute_force_oracle(sym2, k) == dict.fromkeys(range(2 * k, -1, -4), 1)
        for s in (p2_circle, p1p1_diag, su2_p1, sym2):
            lhs, rhs = conservation_sides(s, k, brute_force_oracle(s, k))
            assert lhs == rhs, (s, k)


def test_one_cell_budget(p2_circle, p1p1_diag, monkeypatch):
    # freshly parsed scenarios, whose level stores start empty
    s, square = validate_scenario(p2_circle), validate_scenario(p1p1_diag)
    cached = full_weight_distribution(s, 3)
    monkeypatch.setattr(counting, "CELL_BUDGET", 10)
    with pytest.raises(EngineLimit, match="budget 10"):
        section_dimensions(s, 0, [4])
    with pytest.raises(EngineLimit, match="budget 10"):
        full_weight_distribution(square, 2)
    with pytest.raises(EngineLimit, match="budget 10"):
        isotypic_table(s, 3)
    # the budget guards new work only: a level cached before it fell is served
    assert full_weight_distribution(s, 3) == cached
    assert section_dimensions(s, 1, [3]) == [cached[1]]


# a rank-2 factor whose coordinate weights all coincide, beside one that varies
CONSTANT_FACTOR_DOC = {
    "group": "circle_power",
    "g": 2,
    "factors": [
        {"dim": 1, "weights": [[1, 0], [-1, 0]]},
        {"dim": 1, "weights": [[0, 1], [0, 1]]},
    ],
    "bundle": {"degrees": [1, 1], "twist": [0, -1]},
}


def test_rank2_constant_factor_counts_all_monomials(tmp_path, capsys):
    s = scenario_from_dict(CONSTANT_FACTOR_DOC)
    assert_oracle_agrees(s, range(0, 4))
    path = tmp_path / "constant_factor.json"
    path.write_text(json.dumps(CONSTANT_FACTOR_DOC))
    assert main(["table", "--scenario", str(path), "--k-max", "2"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert {dim for k, *_, dim in rows if k == "1"} == {"2"}
    assert {dim for k, *_, dim in rows if k == "2"} == {"3"}


def test_rank2_cell_budget_guard(monkeypatch):
    # steps of 1 next to weights of size 1000: no common step to divide out
    s = circle_scenario([[(1000, 0), (-1000, 0), (1, 0)], [(0, 1000), (0, -1000), (0, 1)]], [1, 1])
    with monkeypatch.context() as m:
        m.setattr(counting, "CELL_BUDGET", 10**6)
        with pytest.raises(EngineLimit):
            section_dimension(s, 50, (0, 0))
    with pytest.raises(EngineLimit):
        full_weight_distribution(s, 50)
    assert section_dimension(s, 1, (1000, 1000)) == 1


def test_section_dimensions_pins(su2_p3, p2_circle):
    assert section_dimensions(su2_p3, 3, [5, 0, 4, 3, 5]) == [16, 0, 0, 16, 16]
    assert section_dimensions(p2_circle, 0, [2 * r for r in range(5)]) == [1, 2, 3, 4, 5]
    assert section_dimensions(p2_circle, 0, (2 * r for r in range(5))) == [1, 2, 3, 4, 5]
    assert section_dimensions(p2_circle, 0, []) == []


def test_section_dimensions_rejects_bad_input(su2_p3, p1p1_diag, p2_circle):
    with pytest.raises(ScenarioError, match="tensor power"):
        section_dimensions(su2_p3, 1, [2, -1])
    # the level readers share the check of k
    for read in (full_weight_distribution, brute_force_oracle):
        for s in (su2_p3, p2_circle):
            with pytest.raises(ScenarioError, match="tensor power must be >= 0"):
                read(s, -1)
    with pytest.raises(ScenarioError, match="highest weights"):
        section_dimensions(su2_p3, -1, [2])
    with pytest.raises(ScenarioError, match="length 2"):
        section_dimensions(p1p1_diag, 0, [2])


def stored_records(s):
    """Every packed product in the level store of `s`, as (levels, record)."""
    return list(s.space.level_store.items())


def assert_same_records(got, built):
    assert [lv for lv, _ in got] == [lv for lv, _ in built]
    assert all(a is b for (_, a), (_, b) in zip(got, built))


def test_packed_counts_are_shared_along_a_lineage(p1_hyperplane):
    # the tensor powers of a scenario, and the scenario with any other
    # bundle on its space, hold its very level store, built or not
    s = validate_scenario(p1_hyperplane)
    cube = scenario_power(s, 3)
    twisted = with_bundle(s, LinearizedBundle((2,), (1,)))
    assert cube.space.level_store is s.space.level_store
    assert twisted.space.level_store is s.space.level_store
    assert scenario_power(cube, 2).space.level_store is s.space.level_store
    # a level read through a derived scenario is not rebuilt for `s`:
    # level 1 of L^3 is level 3 of L, and level 1 of O(2) twisted by 1
    # is level 2 of L, its weights moved by 1
    assert section_dimension(cube, 1, 1) == 1
    assert section_dimension(twisted, 1, 3) == 1
    built = stored_records(s)
    assert [lv for lv, _ in built] == [(3,), (2,)]
    assert [section_dimension(s, 3, mu) for mu in (-3, -1, 1, 3)] == [1, 1, 1, 1]
    assert section_dimension(s, 2, 2) == 1
    assert_same_records(stored_records(s), built)
    # an equal scenario parsed on its own, or an SU(2) action with the same
    # torus weights, starts with its own empty store
    twin = validate_scenario(s)
    assert twin == s and twin.space.level_store is not s.space.level_store and twin.space.level_store == {}
    su2_p1 = su2_scenario([[1]], [1])
    assert su2_p1.space.weight_layout == s.space.weight_layout
    assert section_dimension(su2_p1, 5, 1) == 0  # H^0(O(5)) = V_5
    assert section_dimension(su2_p1, 5, 5) == 6
    assert list(su2_p1.space.level_store) == [(5,)]
    assert_same_records(stored_records(s), built)
