"""Exact isotypic dimensions of section spaces.

Two independent routes are implemented:

* the production route packs weight generating functions into Python big
  ints (Kronecker substitution) and lets big-int arithmetic do the exact
  counting; SU(2) isotypic multiplicities are read off as m(mu) - m(mu+2)
  from the torus weight counts;
* :func:`brute_force_oracle` re-derives the same numbers by enumerating
  every monomial basis element, and for SU(2) by computing the kernel
  dimension of the raising operator on each weight space by exact sparse
  Gaussian elimination.

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
h_m += x_i * h_(m-1) is then a shift-add on ints (run in the box of the
factor's own weights, then placed into the product's layout), the product
over factors is one big-int multiply, and the same code serves every
torus rank.

The ladder.  One recurrence up to degree M yields every row h_0..h_M, so
:func:`_ladder` runs each factor's recurrence once, up to its last level,
and reads level k from row k * d_j, with slots sized by the total
dimension at the last level.  :func:`isotypic_table` takes every level
0..k_max from one ladder and caches nothing.  Point reads go through one
store: for each scenario's weight layout (its torus weights reduced by
their steps), a dict of levels -> packed products (:class:`_Packed`).  A
read collects the levels it needs that are not stored yet, builds them in
one ladder sorted by k, stores them and then reads the slots; a stored
level is never rebuilt.  The twist never enters the store but is applied
as an offset when a slot is read.  :func:`section_dimensions` reads one
weight at many levels in one call, :func:`_section_counts` several
weights at the same levels (a volume fit reads mu and the zero weight),
and :func:`full_weight_distribution` reads every weight of one level.

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

import struct
import sys
from dataclasses import dataclass, field
from itertools import chain, compress, product, repeat
from math import comb, gcd, prod
from operator import mul, sub
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
    steps_i, and otherwise its count sits in slot sum_i (w_i - lo_i) /
    steps_i * prod(spans[i+1:]) of ``raw``, as an ``nbytes``-byte int in
    native byte order."""

    lo: tuple[int, ...]
    steps: tuple[int, ...]
    spans: tuple[int, ...]
    nbytes: int
    raw: bytes


_ORDER = sys.byteorder
_SLOT_FORMATS = {struct.calcsize(c): c for c in "BHIQ"}
# the narrowest machine format that holds a slot of 1..8 bytes
_SLOT_WIDTHS = {nb: min(w for w in _SLOT_FORMATS if w >= nb) for nb in range(1, 9)}


def _factor_rows(ws: tuple, reach: tuple, m: int, nbytes: int) -> list[int]:
    """Rows h_0..h_m of the complete homogeneous polynomials in the weight
    monomials of one factor, whose reduced weights `ws` lie in 0..reach_i.
    Every row is packed in the box of the degree-m weights, sides
    1 + m * reach_i; row j fills its corner box of sides 1 + j * reach_i."""
    box = [1 + m * r for r in reach]
    cells = (m + 1) * len(ws) * prod(box)  # every row is kept
    if cells > CELL_BUDGET:
        raise EngineLimit(f"weight DP needs {cells} cells > budget {CELL_BUDGET}")
    bits = [8 * nbytes * prod(box[i + 1 :]) for i in range(len(box))]
    rows = [1] + [0] * m
    for w in ws:
        sh = sum(map(mul, w, bits))
        for deg in range(1, m + 1):
            rows[deg] += rows[deg - 1] << sh
    return rows


def _place(h: int, src: list[int], box: list[int], strides: list[int], nbytes: int) -> int:
    """Move the corner `box` of packed `h`, laid out in the box `src`, into
    the layout with the given strides, one run along the last coordinate at
    a time."""
    if len(box) == 1:
        return h
    at, fr = [0], [0]  # byte offsets of every run, in the layout and in `src`
    for i, n in enumerate(box[:-1]):
        step, src_step = strides[i] * nbytes, prod(src[i + 1 :]) * nbytes
        at = [a + x for a in at for x in range(0, n * step, step)]
        fr = [f + x for f in fr for x in range(0, n * src_step, src_step)]
    run = box[-1] * nbytes
    data = h.to_bytes(fr[-1] + run, _ORDER)
    out = bytearray(at[-1] + run)
    for a, f in zip(at, fr):
        out[a : a + run] = data[f : f + run]
    return int.from_bytes(out, _ORDER)


def _ladder(layout: WeightLayout, ladder: list[tuple[int, ...]]):
    """Weight counts of the product of factors with weights `layout`, one
    packed record per tuple of levels in `ladder`, whose last tuple bounds
    every other.

    Each factor's recurrence runs once, up to its last level, in the box of
    its own reduced weights, so a factor that moves in one coordinate only
    stays as small as at rank 1.  Each tuple of levels then places its
    factors' rows into its own product layout and multiplies them; slots
    are sized by the total dimension at the last levels, so every product
    fits.
    """
    mins, steps, reduced, reach = layout
    top = ladder[-1]
    axes = range(len(steps))
    nslots = prod(1 + sum(m * r[i] for m, r in zip(top, reach)) for i in axes)
    if nslots > CELL_BUDGET:
        raise EngineLimit(f"packed weight counts need {nslots} slots > budget {CELL_BUDGET}")
    total = prod(comb(len(ws) - 1 + m, m) for ws, m in zip(reduced, top))
    nbytes = max(1, (total.bit_length() + 7) // 8)
    rows = [_factor_rows(ws, r, m, nbytes) for ws, r, m in zip(reduced, reach, top)]
    srcs = [[1 + m * x for x in r] for r, m in zip(reach, top)]
    for levels in ladder:
        boxes = [[1 + m * x for x in r] for r, m in zip(reach, levels)]
        spans = tuple(1 + sum(box[i] - 1 for box in boxes) for i in axes)
        strides = [prod(spans[i + 1 :]) for i in axes]
        packed = 1
        for rs, src, box, m in zip(rows, srcs, boxes, levels):
            packed *= _place(rs[m], src, box, strides, nbytes)
        lo = tuple(sum(m * a[i] for m, a in zip(levels, mins)) for i in axes)
        yield _Packed(lo, steps, spans, nbytes, packed.to_bytes(prod(spans) * nbytes, _ORDER))


# The engine's one cache: per weight layout, the packed products stored by
# tuple of levels.  A layout depends on the torus weights alone, so
# scenarios that share them (an SU(2) block and the circle action with its
# weights) share every level.  The budget is a guard, not an input: a level
# stored before CELL_BUDGET changes is still served.  Clear it with
# ``_packed.clear()``.
_packed: dict[WeightLayout, dict[tuple[int, ...], _Packed]] = {}


def _records(layout: WeightLayout, levels: list[tuple[int, ...]]) -> list[_Packed]:
    """The packed products of `layout` at each tuple of `levels`, in order.
    The tuples not stored yet are built in one :func:`_ladder`, sorted by k
    (each is k * d_j), and stored first."""
    store = _packed.setdefault(layout, {})
    missing = sorted({lv for lv in levels if lv not in store})
    if missing:
        store.update(zip(missing, _ladder(layout, missing)))
    return [store[lv] for lv in levels]


def _slots(p: _Packed) -> tuple[int, ...]:
    nb, raw = p.nbytes, p.raw
    width = _SLOT_WIDTHS.get(nb)
    if width is None:
        return tuple(int.from_bytes(raw[i : i + nb], _ORDER) for i in range(0, len(raw), nb))
    if width > nb:  # widen every slot to a machine format, one byte lane at a time
        wide = bytearray(len(raw) // nb * width)
        pad = width - nb if _ORDER == "big" else 0
        for j in range(nb):
            wide[pad + j :: width] = raw[j::nb]
        raw = wide
    return tuple(memoryview(raw).cast(_SLOT_FORMATS[width]))


def _multiplicities(p: _Packed, k: int, twist, su2: bool) -> tuple[list, list]:
    """The weights mu with N(mu) > 0 in the level-k counts `p` of a bundle
    with character `twist`, in weight order (a rank-1 mu is an int), and
    their multiplicities N(mu)."""
    counts = _slots(p)
    axes = [range(a + k * c, a + k * c + g * n, g) for a, c, g, n in zip(p.lo, twist, p.steps, p.spans)]
    weights = product(*axes) if len(axes) > 1 else axes[0]
    if su2:
        # su2 torus weights are symmetric about 0 with step g = 1 or 2, so
        # weight mu + 2 sits 2 // g slots after mu; N(mu) = count(mu) -
        # count(mu + 2) for mu >= 0
        i, j = -(weights[0] // p.steps[0]), 2 // p.steps[0]
        counts = list(map(sub, counts[i:], counts[i + j :] + (0,) * j))
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
    nb = p.nbytes
    return int.from_bytes(p.raw[idx * nb : idx * nb + nb], _ORDER)


def _section_counts(s: Scenario, mus, ks) -> list[list[int]]:
    """Isotypic dimensions dim H^0(M, L^k)_mu = N(mu) * dim V_mu, one list
    per weight mu of `mus`, each with one entry per level k of `ks`, in the
    order given.

    Each weight and the bundle are read once, and every level's record is
    fetched once for all weights; a weight then costs one slot of it, two
    for SU(2), where N(mu) is the torus count at mu minus that at mu + 2.
    """
    reads = []
    for mu in mus:
        vec = s.weight_vec(mu)
        reads.append((vec, (vec[0] + 2,) if s.group.is_su2 else None, s.dim_irrep(mu)))
    ks = list(ks)
    twist = s.twist_vec
    records = _records(s.weight_layout, [_level_degrees(s, k) for k in ks])
    out = [[] for _ in reads]
    for k, p in zip(ks, records):
        for counts, (vec, above, dim) in zip(out, reads):
            n = _weight_count(p, vec, k, twist)
            if above:
                n -= _weight_count(p, above, k, twist)
                if n < 0:
                    raise RuntimeError(f"su2 weight distribution not unimodal at mu={vec[0]}, k={k}: engine bug")
            counts.append(n * dim)
    return out


def section_dimensions(s: Scenario, mu, ks) -> list[int]:
    """Isotypic dimensions dim H^0(M, L^k)_mu = N(mu) * dim V_mu, one per
    level k of `ks`, in the order given; the levels not stored yet are
    built in one ladder."""
    return _section_counts(s, (mu,), ks)[0]


def section_dimension(s: Scenario, k: int, mu) -> int:
    """Isotypic dimension dim H^0(M, L^k)_mu = N(mu) * dim V_mu."""
    return section_dimensions(s, mu, (k,))[0]


def full_weight_distribution(s: Scenario, k: int) -> dict:
    """Complete isotypic decomposition at level k: mu -> multiplicity N(mu).

    Conservation: sum over mu of dim(V_mu) * N(mu) equals
    :func:`total_dimension`.
    """
    (p,) = _records(s.weight_layout, [_level_degrees(s, k)])
    return dict(zip(*_multiplicities(p, k, s.twist_vec, s.group.is_su2)))


@dataclass
class IsotypicTable:
    """Exact isotypic dimensions (k, mu) -> N(mu) * dim V_mu for
    k = 0..k_max, stored by level as the ladder yields them: ``levels[k]``
    is a pair of lists (weights mu in weight order, their dimensions).

    Levels cover the support only; absent pairs have dimension 0.
    Treat instances as immutable once built.
    """

    scenario: Scenario
    k_max: int
    levels: list = field(default_factory=list)

    def sorted_items(self) -> list:
        """((k, mu), dim) items in (k, weight vector) order."""
        return list(chain.from_iterable(zip(zip(repeat(k), mus), ns) for k, (mus, ns) in enumerate(self.levels)))

    @property
    def entries(self) -> dict:
        """The map (k, mu) -> dim of :meth:`sorted_items`."""
        return dict(self.sorted_items())


def isotypic_table(s: Scenario, k_max: int) -> IsotypicTable:
    """Every level 0..k_max from one ladder: each factor's recurrence runs
    once, up to k_max * d_j, and nothing is cached."""
    if k_max < 0:
        return IsotypicTable(s, k_max)
    twist, su2 = s.twist_vec, s.group.is_su2
    ladder = [_level_degrees(s, k) for k in range(k_max + 1)]
    levels = []
    for k, p in enumerate(_ladder(s.weight_layout, ladder)):
        mus, ns = _multiplicities(p, k, twist, su2)
        if su2:  # dim V_mu = mu + 1; it is 1 for circle powers
            ns = [n * (mu + 1) for mu, n in zip(mus, ns)]
        levels.append((mus, ns))
    return IsotypicTable(s, k_max, levels)


# ---------------------------------------------------------------------------
# brute-force oracle


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def brute_force_oracle(s: Scenario, k: int) -> dict:
    """Recompute :func:`full_weight_distribution` by explicit enumeration.

    Circle powers: every monomial is listed and its weight summed directly.
    SU(2): the raising-operator matrix is built on each torus weight space
    and the multiplicity of V_mu is the exact kernel dimension
    dim W_mu - rank(E|_{W_mu}).

    Only feasible for small total dimension (at most ORACLE_BUDGET basis
    monomials); meant as an independent check of the packed counting engine.
    """
    total = total_dimension(s, k)
    if total > ORACLE_BUDGET:
        raise EngineLimit(f"oracle enumeration needs {total} monomials > budget {ORACLE_BUDGET}")
    if s.group.is_su2:
        return _su2_oracle(s, k)

    r = s.group.torus_rank
    shift = tuple(k * c for c in s.bundle.twist)
    factor_weight_lists = []
    for f, ws, d in zip(s.factors, s.torus_weights, s.bundle.degrees):
        lst = []
        for alpha in _compositions(k * d, f.dim + 1):
            lst.append(tuple(sum(a * w[i] for a, w in zip(alpha, ws)) for i in range(r)))
        factor_weight_lists.append(lst)

    counts: dict = {}
    stack = [shift]
    for lst in factor_weight_lists:
        stack = [tuple(a + b for a, b in zip(x, w)) for x in stack for w in lst]
    for x in stack:
        counts[x] = counts.get(x, 0) + 1
    return {s.weight_key(x): c for x, c in counts.items()}


def _su2_oracle(s: Scenario, k: int) -> dict:
    # basis of W per factor: coordinate (block i, a) = e+^a e-^(m_i - a),
    # torus weight 2a - m_i; the raising operator acts as the derivation
    # E . (i, a) = (m_i - a) * (i, a+1).
    factor_coords = []
    for f in s.factors:
        coords = []
        for i, m in enumerate(f.sym_powers):
            coords.extend((i, a, m) for a in range(m + 1))
        factor_coords.append(coords)

    monos = [()]
    for coords, d in zip(factor_coords, s.bundle.degrees):
        block = list(_compositions(k * d, len(coords)))
        monos = [m + b for m in monos for b in block]

    all_coords = [c for coords in factor_coords for c in coords]
    weight_of = [2 * a - m for (_, a, m) in all_coords]
    raise_to = {}
    for idx, (i, a, m) in enumerate(all_coords):
        if a < m:
            raise_to[idx] = (idx + 1, m - a)  # (i, a+1) sits next in the listing

    by_weight: dict[int, list] = {}
    index_in_space: dict = {}
    for mono in monos:
        w = sum(b * weight_of[i] for i, b in enumerate(mono))
        sp = by_weight.setdefault(w, [])
        index_in_space[mono] = len(sp)
        sp.append(mono)

    out = {}
    top = max(by_weight) if by_weight else 0
    for mu in range(0, top + 1):
        dim_mu = len(by_weight.get(mu, []))
        if dim_mu == 0:
            continue
        rows: dict[int, dict[int, int]] = {}
        for col, mono in enumerate(by_weight[mu]):
            for idx, b in enumerate(mono):
                if b and idx in raise_to:
                    tgt, coeff = raise_to[idx]
                    image = list(mono)
                    image[idx] -= 1
                    image[tgt] += 1
                    row = index_in_space[tuple(image)]
                    r = rows.setdefault(row, {})
                    r[col] = r.get(col, 0) + b * coeff
        n = dim_mu - _sparse_rank(list(rows.values()))
        if n < 0:
            raise RuntimeError(f"raising operator has rank above dim W_{mu} = {dim_mu}: oracle bug")
        if n:
            out[mu] = n
    return out


def _sparse_rank(rows: list[dict[int, int]]) -> int:
    """Exact rank over Q of a sparse integer matrix given as row dicts."""
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            if c not in pivots:
                g = 0
                for v in row.values():
                    g = gcd(g, v)
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
