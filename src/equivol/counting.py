"""Exact isotypic dimensions of section spaces.

Two independent routes are implemented:

* the production route packs weight generating functions into Python big
  ints (Kronecker substitution) and lets big-int arithmetic do the exact
  counting; SU(2) isotypic multiplicities are read off as m(mu) - m(mu+2)
  from the torus weight counts;
* :func:`brute_force_oracle` re-derives the same numbers by listing every
  monomial basis element once, with ``itertools`` iterators (each factor's
  monomials as multisets of its coordinates, the product's as tuples of
  those), and for SU(2) by computing the kernel dimension of the raising
  operator on each weight space mu >= 0 by exact sparse Gaussian
  elimination.  It shares nothing with the packing, the ladder or the
  level store.

The packed representation.  At level k, factor j contributes the
complete homogeneous polynomial h_{k d_j} in its coordinates' weight
monomials x^{w_i}.  Each monomial x^w becomes the integer 2^(b * slot(w)):
weights are first shifted to be nonnegative in every coordinate and
divided by that coordinate's common step (the gcd over all factors of
w_i - min w_i; SU(2) weights move in steps of 2), then laid out in mixed
radix over the *product's* per-coordinate span (the last coordinate
varies fastest), and every slot is b = 8 * nbytes bits, enough to hold the
total dimension, so no coefficient ever carries into its neighbour.  A
weight off its coordinate's step counts 0.  The factor recurrence
h_m += x_i * h_(m-1) is then a shift-add on ints, run in the box of the
factor's own weights.  At torus rank 1 a row's slots already sit where the
product's layout puts them, so the rows multiply as they are; at rank >= 2
each row is first joined into the product's layout, axis by axis.  The
product over factors is one big-int multiply.  A slot is a machine word of
1, 2, 4 or 8 bytes (past 8 bytes, the exact width), so each product is
decoded once, as it is built, into ``_Packed.counts``: an ``array`` of
that word, or a tuple of ints past 8 bytes.  Every reader indexes that one
sequence.

The ladder.  One recurrence up to degree M yields every row h_0..h_M, so
:func:`_ladder` runs each factor's recurrence once, up to its last level,
and reads level k from row k * d_j, with slots sized by the total
dimension at the last level.  :func:`isotypic_table` takes every level
0..k_max from one ladder and caches nothing.  Point reads go through the
space's store, ``Space.level_store``: a dict of factor degrees -> packed
products (:class:`_Packed`), laid out by the space's torus weights
reduced by their steps (``Space.weight_layout``).  The counts depend on
the space alone, and every scenario that ``model.with_bundle`` derives
from another (its tensor powers, its products with other bundles) is on
the very same ``Space``, so they all read one store.  A read collects the
levels it needs that are not stored yet (the set of its levels less the
store's keys), builds them in one ladder sorted by k, stores them and
then reads the slots; a stored level is never rebuilt, also after
CELL_BUDGET falls, since the budget guards new work only.  The twist
never enters the store but is applied as an offset when a slot is read.
Both readers take many levels in one call, so that a caller that needs
several levels pays one ladder for them: :func:`section_dimensions` reads
one weight at each level (a volume fit reads all its sample levels in
one such call; at torus rank 1 a level costs one divmod), and
:func:`full_weight_distributions` reads every weight of each level (the
verification suites read their level sets so).
:func:`section_dimension` and :func:`full_weight_distribution` are their
one-level cases.

Every DP and product is checked against one cap, CELL_BUDGET, read at call
time; a request past it raises :class:`EngineLimit`.  For a deliberately
huge run, assign ``equivol.counting.CELL_BUDGET`` first.

The two routes must agree everywhere the oracle runs; the verification
suites check this.

Vocabulary: for a dominant weight mu, ``full_weight_distribution`` maps mu
to the *multiplicity* N(mu) of the irreducible V_mu, while
``section_dimension`` returns the *isotypic dimension* N(mu)*dim(V_mu).
The two coincide for circle powers.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, combinations_with_replacement, compress, groupby, product, repeat, starmap
from math import comb, gcd, prod
from operator import add, mul, sub
from typing import NamedTuple

from .model import Scenario, ScenarioError, WeightLayout

# Cap on packed DP cells (degree x packed slots x coordinates, per factor),
# on the packed slots of the product and on the sample levels of a volume
# fit, read at call time; for a deliberately huge run, assign
# equivol.counting.CELL_BUDGET first.
CELL_BUDGET = 60_000_000

# Cap on the basis monomials brute_force_oracle enumerates.
ORACLE_BUDGET = 10**6


class EngineLimit(RuntimeError):
    """A configurable safety bound was exceeded; raise it and retry."""


def _level_degrees(s: Scenario, k: int) -> tuple[int, ...]:
    """The factor degrees k * d_j of L^k; every reader of a level checks
    its k here."""
    if k < 0:
        raise ScenarioError("tensor power must be >= 0")
    return tuple([k * d for d in s.bundle.degrees])


def total_dimension(s: Scenario, k: int) -> int:
    """dim H^0(M, L^k) = prod_j C(n_j + k d_j, n_j)."""
    return prod(comb(f.dim + m, f.dim) for f, m in zip(s.factors, _level_degrees(s, k)))


# ---------------------------------------------------------------------------
# packed weight generating functions


class _Packed(NamedTuple):
    """Torus weight counts of one product of factors at fixed levels, twist
    excluded: weight w counts 0 unless every w_i - lo_i is a multiple of
    steps_i, and otherwise its count is ``counts[j]`` for the slot
    j = sum_i (w_i - lo_i) / steps_i * prod(spans[i+1:])."""

    lo: tuple[int, ...]
    steps: tuple[int, ...]
    spans: tuple[int, ...]
    counts: array | tuple[int, ...]


_ORDER = sys.byteorder
# slot width in bytes -> the array typecode of that machine word: 1, 2, 4, 8
_SLOT_FORMATS = {array(c).itemsize: c for c in "BHIQ"}


def _factor_rows(ws: tuple, reach: tuple, m: int, nbytes: int) -> list[int]:
    """Rows h_0..h_m of the complete homogeneous polynomials in the weight
    monomials of one factor, whose reduced weights `ws` lie in 0..reach_i.
    Every row is packed in the box of the degree-m weights, sides
    1 + m * reach_i; row j fills its corner box of sides 1 + j * reach_i."""
    box = [1 + m * r for r in reach]
    bits = [8 * nbytes * prod(box[i + 1 :]) for i in range(len(box))]
    rows = [1] + [0] * m
    for w in ws:
        sh = sum(map(mul, w, bits))
        for deg in range(1, m + 1):
            rows[deg] += rows[deg - 1] << sh
    return rows


def _place(h: int, src: list[int], box: list[int], strides: list[int], nbytes: int) -> int:
    """Move the corner `box` of packed `h`, laid out in the box `src`, into
    the layout with the given strides.  Along each axis, the blocks of the
    next axis are joined with the zero gap that separates them in that
    layout; along the last axis but one, those blocks are runs of `src`.
    One recursion serves every rank."""
    if prod(box[:-1]) == 1:  # one run, at the start of both layouts
        return h
    run, last = box[-1] * nbytes, len(box) - 2
    src_steps = [prod(src[i + 1 :]) * nbytes for i in range(last + 1)]  # bytes between blocks
    data = h.to_bytes(sum((n - 1) * g for n, g in zip(box, src_steps)) + run, _ORDER)

    def block(i: int, at: int) -> bytes:
        step = src_steps[i]
        starts = range(at, at + box[i] * step, step)
        blocks = [data[a : a + run] for a in starts] if i == last else [block(i + 1, a) for a in starts]
        return bytes(strides[i] * nbytes - len(blocks[0])).join(blocks)

    return int.from_bytes(block(0, 0), _ORDER)


def _counts(packed: int, nslots: int, nbytes: int) -> array | tuple[int, ...]:
    """The `nslots` counts of `packed`, `nbytes` bytes a slot, decoded once:
    an array of the machine word that wide, or past 8 bytes a tuple of
    ints."""
    raw = packed.to_bytes(nslots * nbytes, _ORDER)
    if nbytes in _SLOT_FORMATS:
        return array(_SLOT_FORMATS[nbytes], raw)
    return tuple(int.from_bytes(raw[i : i + nbytes], _ORDER) for i in range(0, len(raw), nbytes))


def _check_budget(layout: WeightLayout, top: tuple[int, ...]) -> None:
    """Raise EngineLimit when a ladder up to the factor degrees `top` exceeds
    CELL_BUDGET: the packed slots of the product, or the DP cells of a
    factor (degree x packed slots x coordinates, every row kept).  It reads
    `top` alone, so callers run it before they build any per-level list."""
    reduced, reach = layout.reduced, layout.reach
    nslots = prod(1 + sum(map(mul, top, axis)) for axis in zip(*reach))
    if nslots > CELL_BUDGET:
        raise EngineLimit(f"packed weight counts need {nslots} slots > budget {CELL_BUDGET}")
    for ws, r, m in zip(reduced, reach, top):
        cells = (m + 1) * len(ws) * prod(1 + m * x for x in r)
        if cells > CELL_BUDGET:
            raise EngineLimit(f"weight DP needs {cells} cells > budget {CELL_BUDGET}")


def _ladder(layout: WeightLayout, top: tuple[int, ...], ladder):
    """Weight counts of the product of factors with weights `layout`, one
    packed record per tuple of levels in the iterable `ladder`, whose last
    tuple `top` bounds every other.  `top` is checked against the budget
    before the first level of `ladder` is read.

    Each factor's recurrence runs once, up to its last level, in the box of
    its own reduced weights, so a factor that moves in one coordinate only
    stays as small as at rank 1.  Slots are sized by the total dimension at
    the last levels, so every product fits, and rounded up to a machine
    word (1, 2, 4 or 8 bytes; past 8 bytes the exact width), so each
    level's counts decode into one array.  What the ladder alone fixes is
    read before the first level; a level then costs its spans, its least
    weight, one product and one decode.  At torus rank 1 a row's corner
    already is its place in the product's layout, so the rows at a level's
    degrees multiply as they are; at rank >= 2 each is placed first.
    """
    _check_budget(layout, top)
    mins, steps, reduced, reach = layout
    total = prod(comb(len(ws) - 1 + m, m) for ws, m in zip(reduced, top))
    nbytes = (total.bit_length() + 7) // 8
    nbytes = min((w for w in _SLOT_FORMATS if w >= nbytes), default=nbytes)
    rows = [_factor_rows(ws, r, m, nbytes) for ws, r, m in zip(reduced, reach, top)]
    axis_reach, axis_mins = list(zip(*reach)), list(zip(*mins))  # per axis, per factor
    if len(steps) == 1:
        (factor_reach,), (factor_mins,) = axis_reach, axis_mins
        for levels in ladder:
            span = 1 + sum(map(mul, levels, factor_reach))
            packed = prod([rs[m] for rs, m in zip(rows, levels)])
            yield _Packed((sum(map(mul, levels, factor_mins)),), steps, (span,), _counts(packed, span, nbytes))
        return
    srcs = [[1 + m * x for x in r] for r, m in zip(reach, top)]
    for levels in ladder:
        spans = tuple([1 + sum(map(mul, levels, r)) for r in axis_reach])
        strides = [prod(spans[i + 1 :]) for i in range(len(spans))]
        packed = prod([
            _place(rs[m], src, [1 + m * x for x in r], strides, nbytes)
            for rs, src, r, m in zip(rows, srcs, reach, levels)
        ])
        lo = tuple([sum(map(mul, levels, a)) for a in axis_mins])
        yield _Packed(lo, steps, spans, _counts(packed, prod(spans), nbytes))


def _records(s: Scenario, ks) -> list[_Packed]:
    """The packed products of the factors of `s` at each level of the
    sequence `ks`, in order, read from the space's level store.  The levels
    not stored yet are built in one :func:`_ladder`, sorted by k, and stored
    first.  A top level that is not stored is checked against the budget
    before the per-level list is built, so a huge request fails at once;
    the ends of a range are read off it, without iterating it."""
    store, layout = s.space.level_store, s.space.weight_layout
    ends = (ks[0], ks[-1]) if isinstance(ks, range) and ks else ks
    _level_degrees(s, min(ends, default=0))  # a negative k is refused here
    top = _level_degrees(s, max(ends, default=0))
    if top not in store:
        _check_budget(layout, top)
    levels = list(zip(*[[k * d for k in ks] for d in s.bundle.degrees]))
    missing = sorted(set(levels) - store.keys())
    if missing:
        store.update(zip(missing, _ladder(layout, missing[-1], missing)))
    return list(map(store.__getitem__, levels))


def _multiplicities(p: _Packed, k: int, twist, su2: bool) -> tuple[list, list]:
    """The weights mu with N(mu) > 0 in the level-k counts `p` of a bundle
    with character `twist`, in weight order (a rank-1 mu is an int), and
    their multiplicities N(mu)."""
    counts = p.counts
    if len(p.spans) == 1:
        (a,), (c,), (g,), (n,) = p.lo, twist, p.steps, p.spans
        weights = range(a + k * c, a + k * c + g * n, g)
    else:
        weights = product(*[range(a + k * c, a + k * c + g * n, g) for a, c, g, n in zip(p.lo, twist, p.steps, p.spans)])
    if su2:
        # su2 torus weights are symmetric about 0 with step g = 1 or 2, so
        # weight mu + 2 sits 2 // g slots after mu; N(mu) = count(mu) -
        # count(mu + 2) for mu >= 0
        i, j = -(weights[0] // p.steps[0]), 2 // p.steps[0]
        counts = list(map(sub, counts[i:], chain(counts[i + j :], repeat(0, j))))
        weights = weights[i:]
        if min(counts, default=0) < 0:
            mu = weights[counts.index(min(counts))]
            raise RuntimeError(f"su2 weight distribution not unimodal at mu={mu}, k={k}: engine bug")
    return list(compress(weights, counts)), list(filter(None, counts))


def _weight_count(p: _Packed, vec, k: int, twist) -> int:
    """Count of weight `vec` in the level-k counts `p` of a bundle with
    character `twist`, read from one slot."""
    idx = 0
    for x, c, a, g, n in zip(vec, twist, p.lo, p.steps, p.spans):
        x -= k * c + a
        if x % g:
            return 0
        x //= g
        if not 0 <= x < n:
            return 0
        idx = idx * n + x
    return p.counts[idx]


def section_dimensions(s: Scenario, mu, ks) -> list[int]:
    """Isotypic dimensions dim H^0(M, L^k)_mu = N(mu) * dim V_mu, one per
    level k of `ks`, in the order given; the levels not stored yet are
    built in one ladder.  A range is not expanded before the top level's
    budget check.

    The weight and the bundle are read once; each level then costs one
    slot of its record, two for SU(2), where N(mu) is the torus count at
    mu minus that at mu + 2.  At torus rank 1 (circle rank 1 and SU(2))
    the slot is found with one divmod; at rank >= 2 by
    :func:`_weight_count`.
    """
    vec, dim, twist = s.weight_vec(mu), s.dim_irrep(mu), s.twist_vec
    if iter(ks) is ks:  # a one-shot iterator; _records reads ks twice
        ks = list(ks)
    records = _records(s, ks)
    if len(vec) > 1:
        return [_weight_count(p, vec, k, twist) * dim for k, p in zip(ks, records)]
    (x,), (c,), su2 = vec, twist, s.group.is_su2
    out = []
    for k, (lo, steps, spans, counts) in zip(ks, records):
        i, off = divmod(x - k * c - lo[0], steps[0])
        n = counts[i] if not off and 0 <= i < spans[0] else 0
        if su2:
            # mu + 2 sits 2 // step slots after mu; steps are 1 or 2
            i += 2 // steps[0]
            n -= counts[i] if not off and 0 <= i < spans[0] else 0
            if n < 0:
                raise RuntimeError(f"su2 weight distribution not unimodal at mu={x}, k={k}: engine bug")
        out.append(n * dim)
    return out


def section_dimension(s: Scenario, k: int, mu) -> int:
    """Isotypic dimension dim H^0(M, L^k)_mu = N(mu) * dim V_mu."""
    return section_dimensions(s, mu, (k,))[0]


def full_weight_distributions(s: Scenario, ks) -> list[dict]:
    """Complete isotypic decompositions mu -> multiplicity N(mu), one dict
    per level k of `ks`, in the order given; the levels not stored yet are
    built in one ladder, as for :func:`section_dimensions`.

    Conservation: at each level, the sum over mu of dim(V_mu) * N(mu)
    equals :func:`total_dimension`.
    """
    twist, su2 = s.twist_vec, s.group.is_su2
    if iter(ks) is ks:  # a one-shot iterator; _records reads ks twice
        ks = list(ks)
    return [dict(zip(*_multiplicities(p, k, twist, su2))) for k, p in zip(ks, _records(s, ks))]


def full_weight_distribution(s: Scenario, k: int) -> dict:
    """Complete isotypic decomposition at level k: mu -> multiplicity N(mu),
    the one-level case of :func:`full_weight_distributions`."""
    return full_weight_distributions(s, (k,))[0]


@dataclass
class IsotypicTable:
    """Exact isotypic dimensions (k, mu) -> N(mu) * dim V_mu for
    k = 0, 1, ..., stored by level as the ladder yields them: ``levels[k]``
    is a triple (k, weights mu in weight order, their dimensions).

    Levels cover the support only; absent pairs have dimension 0.
    Treat instances as immutable once built.
    """

    levels: list = field(default_factory=list)

    def sorted_items(self) -> list:
        """The (k, weights, dims) levels in k order, grouped by level, each
        level's weights in weight vector order: the table's own triples and
        lists, not a copy."""
        return self.levels

    @property
    def entries(self) -> dict:
        """The map (k, mu) -> dim of every level."""
        return dict(chain.from_iterable(zip(zip(repeat(k), mus), ns) for k, mus, ns in self.levels))


def isotypic_table(s: Scenario, k_max: int) -> IsotypicTable:
    """Every level 0..k_max from one ladder: each factor's recurrence runs
    once, up to k_max * d_j, and nothing is cached.  Level k_max is checked
    against the budget before any level is built; the degrees of each
    level are read off the ranges of k * d_j, as no k here is negative."""
    if k_max < 0:
        return IsotypicTable()
    twist, su2, degrees = s.twist_vec, s.group.is_su2, s.bundle.degrees
    ladder = zip(*[range(0, (k_max + 1) * d, d) for d in degrees])
    levels = []
    for k, p in enumerate(_ladder(s.space.weight_layout, _level_degrees(s, k_max), ladder)):
        mus, ns = _multiplicities(p, k, twist, su2)
        if su2:  # dim V_mu = mu + 1; it is 1 for circle powers
            ns = [n * (mu + 1) for mu, n in zip(mus, ns)]
        levels.append((k, mus, ns))
    return IsotypicTable(levels)


# ---------------------------------------------------------------------------
# brute-force oracle


def brute_force_oracle(s: Scenario, k: int) -> dict:
    """Recompute :func:`full_weight_distribution` by explicit enumeration.

    A degree-m monomial of a factor is a multiset of m of its coordinates,
    so ``itertools.combinations_with_replacement`` lists each factor's
    monomials and ``itertools.product`` lists the basis of H^0(M, L^k),
    every one of its :func:`total_dimension` monomials exactly once.
    Circle powers: each monomial's weight is summed directly and the
    weights are counted.  SU(2): the raising-operator matrix is built on
    each torus weight space mu >= 0 and the multiplicity of V_mu is the
    exact kernel dimension dim W_mu - rank(E|_{W_mu}).

    Only feasible for small total dimension (at most ORACLE_BUDGET basis
    monomials, checked before any is listed); meant as an independent
    check of the packed counting engine.
    """
    total = total_dimension(s, k)
    if total > ORACLE_BUDGET:
        raise EngineLimit(f"oracle enumeration needs {total} monomials > budget {ORACLE_BUDGET}")
    if s.group.is_su2:
        return _su2_oracle(s, k)

    pairs = zip(s.space.torus_weights, _level_degrees(s, k))
    shift = [k * c for c in s.twist_vec]
    if s.group.torus_rank == 1:
        plus, shift = add, shift[0]
        factor_weights = [map(sum, combinations_with_replacement([w for (w,) in ws], m)) for ws, m in pairs]
    else:
        # a monomial's weight vector is summed coordinate by coordinate, from zero
        plus, shift, zero = _add_vectors, tuple(shift), ((0,) * len(shift),)
        factor_weights = [
            map(_vector_sum, map(zero.__add__, combinations_with_replacement(ws, m))) for ws, m in pairs
        ]
    # one weight per basis monomial of the product, less the twist
    counts = Counter(_combine(factor_weights, plus))
    return {s.weight_key(plus(x, shift)): n for x, n in counts.items()}


def _combine(factor_items, plus=add):
    """One item per element of the product of the factors' items, folded
    with `plus`: a product monomial, or its weight, from its factors'."""
    return reduce(lambda xs, ys: starmap(plus, product(xs, ys)), factor_items)


def _vector_sum(vectors) -> tuple[int, ...]:
    return tuple(map(sum, zip(*vectors)))


def _add_vectors(u, v) -> tuple[int, ...]:
    return tuple(map(add, u, v))


def _su2_oracle(s: Scenario, k: int) -> dict:
    # coordinate (i, a) of a factor's block i = Sym^(m_i) is e+^a e-^(m_i - a),
    # of torus weight 2a - m_i; coordinates are numbered factor by factor and
    # (i, a+1) comes right after (i, a).  A monomial is the sorted tuple of
    # its coordinates' numbers.  The raising operator acts as the derivation
    # E . (i, a) = (m_i - a) * (i, a+1).
    weight, lift, factor_monos, factor_weights = [], [], [], []
    for f, m in zip(s.factors, _level_degrees(s, k)):
        first = len(weight)
        for p in f.sym_powers:
            weight.extend(range(-p, p + 1, 2))
            lift.extend(range(p, -1, -1))
        factor_monos.append(combinations_with_replacement(range(first, len(weight)), m))
        factor_weights.append(map(sum, combinations_with_replacement(weight[first:], m)))
    # every monomial is listed; those of weight mu >= 0 are kept, and their
    # weight spaces are runs of them sorted by weight
    weights = list(_combine(factor_weights))
    kept = list(map((0).__le__, weights))
    monos, weights = list(compress(_combine(factor_monos), kept)), list(compress(weights, kept))
    spaces: dict[int, list] = {}
    for w, run in groupby(sorted(range(len(weights)), key=weights.__getitem__), weights.__getitem__):
        spaces[w] = list(map(monos.__getitem__, run))
    # E maps W_mu into W_(mu+2), so only the spaces mu >= 2 are targets
    targets = {w: dict(zip(sp, range(len(sp)))) for w, sp in spaces.items() if w >= 2}

    out = {}
    for mu, space in spaces.items():
        target = targets.get(mu + 2)
        n = len(space) - (_sparse_rank(_raised(space, target, lift)) if target else 0)
        if n < 0:
            raise RuntimeError(f"raising operator has rank above dim W_{mu} = {len(space)}: oracle bug")
        if n:
            out[mu] = n
    return out


def _raised(space: list, target: dict, lift: list):
    """The image under E of each monomial of `space`: a dict of its
    monomials' indices in `target` -> their coefficients.  E raises one
    coordinate (i, a), numbered c, at a time: its last occurrence becomes
    c + 1 = (i, a+1), so the tuple stays sorted, with coefficient the
    multiplicity of c times m_i - a = ``lift[c]``."""
    for mono in space:
        image = {}
        for c in set(mono):
            if lift[c]:
                end = bisect_right(mono, c)
                image[target[mono[: end - 1] + (c + 1,) + mono[end:]]] = lift[c] * mono.count(c)
        yield image


def _sparse_rank(rows: Iterable[dict[int, int]]) -> int:
    """Exact rank over Q of a sparse integer matrix given as row dicts."""
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            if c not in pivots:
                g = gcd(*row.values())
                if g > 1:
                    row = {j: v // g for j, v in row.items()}
                pivots[c] = row
                rank += 1
                break
            p = pivots[c]
            a, b = row[c], p[c]
            g = gcd(a, b)
            fa, fb = b // g, a // g
            new = {}
            for j, v in row.items():
                new[j] = fa * v
            for j, v in p.items():
                new[j] = new.get(j, 0) - fb * v
            row = {j: v for j, v in new.items() if v}
    return rank


def conservation_sides(s: Scenario, k: int, dist: dict) -> tuple[int, int]:
    """Both sides of total-dimension conservation for the level-k
    decomposition `dist` (mu -> N(mu)): the sum of dim(V_mu) * N(mu), and
    :func:`total_dimension`."""
    return sum(s.dim_irrep(mu) * n for mu, n in dist.items()), total_dimension(s, k)
