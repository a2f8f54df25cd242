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
weights are first shifted to be nonnegative in every coordinate, then
laid out in mixed radix over the *product's* per-coordinate span (the
last coordinate varies fastest), and every slot is b = 8 * nbytes bits,
enough to hold the total dimension, so no coefficient ever carries into
its neighbour.  The factor recurrence h_m += x_i * h_(m-1) is then a
shift-add on ints (run in the box of the factor's own weights, then placed
into the product's layout), the product over factors is one big-int
multiply, and the same code serves every torus rank.  The product is
cached as bytes (:class:`_Packed`), keyed by the factors' torus weights and
levels; the twist never enters the cache key but is applied as an offset
when a slot is read.  :func:`section_dimensions` reads one weight at many
levels in one call.

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
from functools import lru_cache
from itertools import product
from math import comb, gcd, prod
from typing import NamedTuple

from .model import Scenario, ScenarioError

# Cap on packed DP cells (degree x packed slots x coordinates, per factor)
# and on the packed slots of the product; raise for deliberately huge runs.
DEFAULT_CELL_BUDGET = 60_000_000

ORACLE_BUDGET = 10**6


class EngineLimit(RuntimeError):
    """A configurable safety bound was exceeded; raise it and retry."""


def total_dimension(s: Scenario, k: int) -> int:
    """dim H^0(M, L^k) = prod_j C(n_j + k d_j, n_j)."""
    return prod(comb(f.dim + k * d, f.dim) for f, d in zip(s.factors, s.bundle.degrees))


# ---------------------------------------------------------------------------
# packed weight generating functions


class _Packed(NamedTuple):
    """Torus weight counts of one product of factors at fixed levels, twist
    excluded: the count of weight w sits in slot sum_i (w_i - lo_i) *
    prod(spans[i+1:]) of ``raw``, as an ``nbytes``-byte int in native byte
    order."""

    lo: tuple[int, ...]
    spans: tuple[int, ...]
    nbytes: int
    raw: bytes


_ORDER = sys.byteorder
_SLOT_FORMATS = {struct.calcsize(c): c for c in "BHIQ"}


def _complete_homogeneous(shifts: list[int], m: int) -> int:
    """h_m(2^shift_1, ..., 2^shift_n): the packed sum over the degree-m
    monomials in coordinates whose weight monomials sit at those bit shifts."""
    rows = [1] + [0] * m
    for sh in shifts:
        for deg in range(1, m + 1):
            rows[deg] += rows[deg - 1] << sh
    return rows[m]


def _place(h: int, box: list[int], strides: list[int], nbytes: int) -> int:
    """Move packed `h` from the layout of its own box into the layout with
    the given strides, one run along the last coordinate at a time."""
    if len(box) == 1:
        return h
    run = box[-1] * nbytes
    src = h.to_bytes(prod(box) * nbytes, _ORDER)
    out = bytearray((1 + sum((n - 1) * st for n, st in zip(box, strides))) * nbytes)
    for j, lead in enumerate(product(*map(range, box[:-1]))):
        at = nbytes * sum(x * st for x, st in zip(lead, strides))
        out[at : at + run] = src[j * run : (j + 1) * run]
    return int.from_bytes(out, _ORDER)


@lru_cache(maxsize=None)
def _packed(wss: tuple, levels: tuple[int, ...], cell_budget: int) -> _Packed:
    """Weight counts of the degree-`levels` monomials of the product of
    factors with torus weights `wss` (one tuple of weight vectors per
    factor), as one packed record.

    Each factor's DP runs in the box of its own weights, so a factor that
    moves in one coordinate only stays as small as at rank 1; it is then
    placed into the product's layout for the multiply.  Keyed by torus
    weights, so scenarios that share them (an SU(2) block and the circle
    action with its weights) share every level.
    """
    axes = range(len(wss[0][0]))
    mins = [[min(w[i] for w in ws) for i in axes] for ws in wss]
    boxes = [
        [1 + m * (max(w[i] for w in ws) - a[i]) for i in axes] for ws, m, a in zip(wss, levels, mins)
    ]
    lo = tuple(sum(m * a[i] for m, a in zip(levels, mins)) for i in axes)
    spans = tuple(1 + sum(box[i] - 1 for box in boxes) for i in axes)
    nslots = prod(spans)
    if nslots > cell_budget:
        raise EngineLimit(f"packed weight counts need {nslots} slots > budget {cell_budget}")
    total = prod(comb(len(ws) - 1 + m, m) for ws, m in zip(wss, levels))
    nbytes = max(1, (total.bit_length() + 7) // 8)
    strides = [prod(spans[i + 1 :]) for i in axes]
    packed = 1
    for ws, m, a, box in zip(wss, levels, mins, boxes):
        cells = (m + 1) * len(ws) * prod(box)
        if cells > cell_budget:
            raise EngineLimit(f"weight DP needs {cells} cells > budget {cell_budget}")
        box_strides = [prod(box[i + 1 :]) for i in axes]
        shifts = [8 * nbytes * sum((w[i] - a[i]) * box_strides[i] for i in axes) for w in ws]
        packed *= _place(_complete_homogeneous(shifts, m), box, strides, nbytes)
    return _Packed(lo, spans, nbytes, packed.to_bytes(nslots * nbytes, _ORDER))


def _slots(p: _Packed) -> tuple[int, ...]:
    fmt = _SLOT_FORMATS.get(p.nbytes)
    if fmt:
        return tuple(memoryview(p.raw).cast(fmt))
    nb = p.nbytes
    return tuple(int.from_bytes(p.raw[i : i + nb], _ORDER) for i in range(0, len(p.raw), nb))


def torus_weight_counts(s: Scenario, k: int, cell_budget: int = DEFAULT_CELL_BUDGET):
    """Torus-weight multiplicity function of H^0(M, L^k), twist included.

    Rank 1 returns (offset, counts tuple) over the hull of the weights;
    rank >= 2 returns a dict keyed by the weight vectors of the support.
    """
    p = _packed(s.torus_weights, tuple([k * d for d in s.bundle.degrees]), cell_budget)
    twist = s.bundle.twist or (0,) * len(p.lo)  # weights are read at an offset of k * twist
    counts = _slots(p)
    if len(p.spans) == 1:
        return p.lo[0] + k * twist[0], counts
    axes = [range(a + k * c, a + k * c + n) for a, c, n in zip(p.lo, twist, p.spans)]
    return {w: c for w, c in zip(product(*axes), counts) if c}


def _weight_count(p: _Packed, vec, k: int, twist) -> int:
    """Count of weight `vec` in the level-k counts `p` of a bundle with
    character `twist`, read from one slot."""
    idx = 0
    for x, c, a, n in zip(vec, twist, p.lo, p.spans):
        x -= k * c + a
        if not 0 <= x < n:
            return 0
        idx = idx * n + x
    nb = p.nbytes
    return int.from_bytes(p.raw[idx * nb : idx * nb + nb], _ORDER)


def section_dimensions(s: Scenario, mu, ks, cell_budget: int = DEFAULT_CELL_BUDGET) -> list[int]:
    """Isotypic dimensions dim H^0(M, L^k)_mu = N(mu) * dim V_mu, one per
    level k of `ks`, in the order given.

    `mu` and the bundle are read once; each level then costs one slot of
    its packed counts, two for SU(2), where N(mu) is the torus count at mu
    minus that at mu + 2.
    """
    vec = s.weight_vec(mu)
    dim = s.dim_irrep(mu)
    wss = s.torus_weights
    degrees = s.bundle.degrees
    twist = s.bundle.twist or (0,) * len(vec)
    above = (vec[0] + 2,) if s.group.is_su2 else None
    out = []
    for k in ks:
        if k < 0:
            raise ScenarioError("tensor power must be >= 0")
        p = _packed(wss, tuple([k * d for d in degrees]), cell_budget)
        n = _weight_count(p, vec, k, twist)
        if above:
            n -= _weight_count(p, above, k, twist)
            if n < 0:
                raise RuntimeError(f"su2 weight distribution not unimodal at mu={vec[0]}, k={k}: engine bug")
        out.append(n * dim)
    return out


def section_dimension(s: Scenario, k: int, mu, cell_budget: int = DEFAULT_CELL_BUDGET) -> int:
    """Isotypic dimension dim H^0(M, L^k)_mu = N(mu) * dim V_mu."""
    return section_dimensions(s, mu, (k,), cell_budget)[0]


def isotypic_multiplicity(s: Scenario, k: int, mu, cell_budget: int = DEFAULT_CELL_BUDGET) -> int:
    """Multiplicity N(mu) of V_mu inside H^0(M, L^k)."""
    return section_dimensions(s, mu, (k,), cell_budget)[0] // s.dim_irrep(mu)


def full_weight_distribution(s: Scenario, k: int, cell_budget: int = DEFAULT_CELL_BUDGET) -> dict:
    """Complete isotypic decomposition at level k: mu -> multiplicity N(mu).

    Conservation: sum over mu of dim(V_mu) * N(mu) equals
    :func:`total_dimension`.
    """
    if s.group.torus_rank > 1:
        return torus_weight_counts(s, k, cell_budget)
    off, counts = torus_weight_counts(s, k, cell_budget)
    if not s.group.is_su2:
        return {off + i: c for i, c in enumerate(counts) if c}
    # torus weights of su2 are symmetric about 0, so counts[-off] is weight 0
    counts = counts[-off:] + (0, 0)
    out = {}
    for mu in range(len(counts) - 2):
        n = counts[mu] - counts[mu + 2]
        if n < 0:
            raise RuntimeError(f"su2 weight distribution not unimodal at mu={mu}, k={k}: engine bug")
        if n:
            out[mu] = n
    return out


@dataclass
class IsotypicTable:
    """Exact map (k, mu) -> isotypic dimension, for k = 0..k_max.

    Entries cover the support only; absent pairs have dimension 0.
    Treat instances as immutable once built.
    """

    scenario: Scenario
    k_max: int
    entries: dict = field(default_factory=dict)

    def sorted_items(self):
        """Entries in (k, weight vector) order: the weights of one table are
        all ints or all tuples, so their natural order is that order."""
        return sorted(self.entries.items())


def isotypic_table(s: Scenario, k_max: int, cell_budget: int = DEFAULT_CELL_BUDGET) -> IsotypicTable:
    entries = {}
    for k in range(0, k_max + 1):
        for mu, n in full_weight_distribution(s, k, cell_budget).items():
            entries[(k, mu)] = n * s.dim_irrep(mu)
    return IsotypicTable(s, k_max, entries)


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


def brute_force_oracle(s: Scenario, k: int, budget: int = ORACLE_BUDGET) -> dict:
    """Recompute :func:`full_weight_distribution` by explicit enumeration.

    Circle powers: every monomial is listed and its weight summed directly.
    SU(2): the raising-operator matrix is built on each torus weight space
    and the multiplicity of V_mu is the exact kernel dimension
    dim W_mu - rank(E|_{W_mu}).

    Only feasible for small total dimension (default bound 10^6 basis
    monomials); meant as an independent check of the packed counting engine.
    """
    total = total_dimension(s, k)
    if total > budget:
        raise EngineLimit(f"oracle enumeration needs {total} monomials > budget {budget}")
    if s.group.is_su2:
        return _su2_oracle(s, k)

    r = s.group.torus_rank
    shift = tuple(k * c for c in s.bundle.twist)
    factor_weight_lists = []
    for f, d in zip(s.factors, s.bundle.degrees):
        ws = f.torus_weights()
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
