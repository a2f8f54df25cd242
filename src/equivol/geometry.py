"""Moment images, stability classes, stabilizers and compatibility.

Every answer here reads one of two objects the space owns: the column
lattice (``Space.column_lattice``) and one stability report per bundle
(``Space.stability_store``), which :func:`classify_stability` makes once
and which carries the bundle's moment image.

Moment images of ample linearizations on products of projective spaces are
computed combinatorially: the image of the Fubini-Study moment map of a
diagonal linear action is the multidegree-weighted Minkowski sum of the
per-factor coordinate-weight hulls, translated by the character twist.
Every section weight of L^k lies in k times this image, so mu's counts
vanish for large k unless mu lies in every large dilate of it; that one
rule is :func:`vanishing_certificate`, and no other module reads the
image's scale range.  Each image keeps its facets as integer half-planes,
so asking whether mu lies in k times it, or for which k it does, takes
integer dot products and floor division, never a Fraction.

Stability of a bundle is read off the position of the origin, in one
order for both group kinds:

* outside the image              -> every point is unstable;
* every factor's torus weights coincide -> the action is trivial;
* a critical value               -> semistable != stable (a wall);
* a regular value                -> regular (stable = semistable != empty).

For SU(2) the image is the dominant one, which misses the origin only for
P(Sym^1); whether the origin is critical then follows the classical
stability theory of binary forms (regular when every block Sym^m has m
odd), restricted to the supported single-factor scenarios.  For circle
powers a critical value is the image of a stratum whose coordinate
weights span less than the torus, and by Caratheodory such an image lies
in the cone of a wall of the column lattice (``Space.column_lattice``):
the origin is critical exactly when the stabilizer is infinite or the ray
b1 = (degrees, -twist) lies in the closed cone of rank A - 1 independent
columns (e_j, w).  Images of fixed points, edges of the image and
critical segments inside it all lie in such cones.

The generic stabilizer is read off the same column lattice for both group
kinds (an SU(2) block Sym^m has the torus weights m - 2a): its character
group is Z^(nf+r) modulo the columns, which is Z^r modulo the lattice the
coordinate-weight differences span, kept as one lower-triangular basis at
every torus rank.  A weight mu is compatible with L when some r*b1 + (0, mu)
lies in the column lattice, for the ray b1 = (degrees, -twist).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, prod
from operator import mul

from .model import Rational, Scenario, UnsupportedScenario

REGULAR = "regular"
BOUNDARY = "boundary"
UNSTABLE = "unstable_everywhere"
TRIVIAL = "trivial_action"

INSIDE = "inside"
ON_WALL = "on_vertex_or_wall"
OUTSIDE = "outside"


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def _hull(points):
    """Vertices of the convex hull of integer points: the two ends (min,
    max) in dimension 1, else the counterclockwise monotone chain."""
    pts = sorted(set(points))
    if len(pts[0]) == 1:
        return (pts[0], pts[-1])
    if len(pts) <= 2:
        return tuple(pts)

    def chain(seq):  # one half of the hull, turning left at every vertex
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(
                (out[-1][0] - out[-2][0], out[-1][1] - out[-2][1]),
                (p[0] - out[-2][0], p[1] - out[-2][1]),
            ) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    hull = chain(pts) + chain(reversed(pts))
    if len(hull) < 3:  # all points collinear
        return (pts[0], pts[-1])
    return tuple(hull)


@dataclass(frozen=True)
class MomentImage:
    """Moment map image of the bundle itself (tensor power k scales by k).

    Vertices are integer tuples of the image's rank.  Rank 1 (circle g=1,
    and the su2 dominant picture) stores the two ends of an interval;
    rank 2 stores a hull vertex list in counterclockwise order (1 or 2
    vertices when degenerate).

    Queries run on one list of integer half-planes computed once per
    image: a pair (beta, a) means beta*r <= <a, mu>, and mu lies in
    r * image exactly when every pair holds.
    """

    vertices: tuple
    dominant: bool = False

    @property
    def rank(self) -> int:
        return len(self.vertices[0])

    @property
    def interval(self) -> tuple[int, int]:
        if self.rank != 1:
            raise ValueError("interval only defined for rank-1 images")
        (lo,), (hi,) = self.vertices
        return (lo, hi)

    @cached_property
    def _half_planes(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Integer pairs (beta, a), each read as beta*r <= <a, mu>.

        A polygon gives one pair per counterclockwise edge e from v,
        cross(e, v)*r <= cross(e, mu), and an interval [lo, hi] the pairs
        lo*r <= mu and -hi*r <= -mu.  A segment pq gives its two ends and
        its line as two opposite pairs; a point two opposite pairs per
        coordinate.
        """
        vs = self.vertices
        if self.rank == 1:
            lo, hi = self.interval
            return ((lo, (1,)), (-hi, (-1,)))
        if len(vs) == 1:
            ((x, y),) = vs
            return ((x, (1, 0)), (-x, (-1, 0)), (y, (0, 1)), (-y, (0, -1)))
        edges = [(v, (w[0] - v[0], w[1] - v[1])) for v, w in zip(vs, vs[1:] + vs[:1])]
        planes = [(_cross(e, v), (-e[1], e[0])) for v, e in edges]
        if len(vs) == 2:
            (p, e), (q, _) = edges
            planes += [(_dot(p, e), e), (-_dot(q, e), (-e[0], -e[1]))]
        return tuple(planes)

    def contains_zero(self) -> bool:
        return self.scaled_contains((0,) * self.rank, 1)

    def scaled_contains(self, mu_vec: tuple[int, ...], k: int) -> bool:
        """Exact test mu in k * image."""
        return k >= 0 and all(beta * k <= sum(map(mul, a, mu_vec)) for beta, a in self._half_planes)

    def scale_range(self, mu_vec: tuple[int, ...]) -> tuple[int | None, int | None]:
        """Integer interval of scales r >= 1 with mu in r*image.

        Returns (r_min, r_max); r_max is None when unbounded, (None, None)
        when no scale admits mu.
        """
        r_min, r_max = 1, None
        for beta, a in self._half_planes:
            alpha = sum(map(mul, a, mu_vec))
            if beta > 0:
                r_max = alpha // beta if r_max is None else min(r_max, alpha // beta)
            elif beta < 0:
                r_min = max(r_min, -(alpha // -beta))
            elif alpha < 0:
                return (None, None)
        if r_max is not None and r_max < r_min:
            return (None, None)
        return (r_min, r_max)


def supported(s: Scenario) -> bool:
    """Whether the geometry here covers `s`: single-factor su2, or circle
    rank <= 2."""
    if s.group.is_su2:
        return len(s.factors) == 1
    return s.group.dim <= 2


def _require_supported(s: Scenario, what: str) -> None:
    if not supported(s):
        raise UnsupportedScenario(
            "su2 geometry supports single-factor scenarios"
            if s.group.is_su2
            else f"{what} implemented for circle rank <= 2, got g={s.group.dim}"
        )


def moment_image(s: Scenario) -> MomentImage:
    """Weight hull of the bundle: Minkowski sum of d_j-scaled factor hulls
    plus the twist.  For su2 this is the dominant interval."""
    _require_supported(s, "moment images")
    if s.group.is_su2:
        sym = s.factors[0].sym_powers
        d = s.bundle.degrees[0]
        lo = d if sym == (1,) else 0
        return MomentImage(((lo,), (d * max(sym),)), dominant=True)
    image = (s.bundle.twist,)
    for ws, d in zip(s.space.torus_weights, s.bundle.degrees):
        image = _hull([tuple(x + d * y for x, y in zip(p, w)) for p in image for w in _hull(ws)])
    return MomentImage(image)


@dataclass(frozen=True)
class StabilityReport:
    """The stability class of a bundle and its moment image; where the
    origin sits in the image follows from the class."""

    stability: str  # regular | boundary | unstable_everywhere | trivial_action
    moment_image: MomentImage

    @property
    def zero_position(self) -> str:
        return {REGULAR: INSIDE, UNSTABLE: OUTSIDE}.get(self.stability, ON_WALL)


def classify_stability(s: Scenario) -> StabilityReport:
    """The stability class of the bundle and its moment image, made once per
    bundle and kept on the space (``Space.stability_store``), where every
    scenario on that space reads it."""
    store = s.space.stability_store
    if s.bundle not in store:
        store[s.bundle] = _stability_report(s)
    return store[s.bundle]


def _stability_report(s: Scenario) -> StabilityReport:
    img = moment_image(s)
    if not img.contains_zero():
        return StabilityReport(UNSTABLE, img)
    if all(len(set(ws)) == 1 for ws in s.space.torus_weights):
        return StabilityReport(TRIVIAL, img)
    if s.group.is_su2:
        regular = all(m % 2 == 1 for m in s.factors[0].sym_powers)
    else:
        lat = s.space.column_lattice
        regular = lat.stabilizer is not None and not lat.on_wall(lat.cut(s.ray))
    return StabilityReport(REGULAR if regular else BOUNDARY, img)


# ---------------------------------------------------------------------------
# generic stabilizers and compatibility


@dataclass(frozen=True)
class StabilizerData:
    """Generic stabilizer of the action, as far as the torus data sees it.

    Its character group is Z^r modulo the lattice spanned by the
    coordinate-weight differences of the torus weights, whose
    lower-triangular basis the column lattice keeps
    (``ColumnLattice.stabilizer``): ``order`` is the product of its
    diagonal, and ``invariant_factors`` are the group's Smith invariants.
    For circle powers this is the full generic stabilizer (kernel of all
    coordinate-weight differences).  For su2 it is the part in the maximal
    torus, {+-1} or trivial; a generic stabilizer outside the torus, as for
    binary cubics, is not seen.  For su2, ``order`` is an order in SU(2):
    {+-1} has order 2, and its image in PSL(2) = SO(3) has half that order.
    """

    order: int | None
    invariant_factors: tuple[int, ...] = ()

    @property
    def finite(self) -> bool:
        return self.order is not None


def generic_stabilizer(s: Scenario) -> StabilizerData:
    _require_supported(s, "stabilizers")
    lattice = s.space.column_lattice.stabilizer
    if lattice is None:
        return StabilizerData(order=None)
    order = prod(col[i] for i, col in enumerate(lattice))
    # Smith invariants at rank <= 2: the gcd of all entries, then the rest
    content = gcd(*itertools.chain.from_iterable(lattice))
    return StabilizerData(order, (content, order // content)[: len(lattice)])


@dataclass(frozen=True)
class CompatibilityCertificate:
    """Witness of the positivity criterion chi^r . conj(mu_K) = 1:
    ``witness`` is the least r in [1, |K|] with r*b1 + (0, mu) in the
    column lattice, or None when no r exists."""

    witness: int | None

    @property
    def compatible(self) -> bool:
        return self.witness is not None


def numerically_compatible(s: Scenario, mu) -> CompatibilityCertificate:
    """Search r in [1, |K|] with r*b1 + (0, mu) in the column lattice, for
    b1 = ``Scenario.ray``.  Reducing by the basis vectors (e_j, w_j0) leaves
    mu - r(c + sum_j d_j w_j0), which lies in the difference lattice exactly
    when r*chi = mu_K for the fiber character chi of L: existence is the
    positivity criterion for vol_mu on regular bundles."""
    stab = generic_stabilizer(s)
    if not stab.finite:
        raise UnsupportedScenario("compatibility undefined for infinite generic stabilizers")
    b0 = (0,) * len(s.factors) + s.weight_vec(mu)
    s.check_dominant(mu)
    lat = s.space.column_lattice
    witness = next(
        (r for r in range(1, stab.order + 1) if lat.spans(tuple(r * x + y for x, y in zip(s.ray, b0)))), None
    )
    return CompatibilityCertificate(witness)


def predicted_volume(s: Scenario, mu, vol0: Rational) -> Rational:
    """Closed-form volume on regular scenarios: 0 without a compatibility
    witness, else dim(V_mu)^2 * vol0 (vol0 = counted trivial-weight volume,
    which equals the reduced-space volume since dim V_0 = 1)."""
    report = classify_stability(s)
    if report.stability != REGULAR:
        raise UnsupportedScenario(f"prediction defined for regular scenarios, got {report.stability}")
    cert = numerically_compatible(s, mu)
    if not cert.compatible:
        return Fraction(0)
    return Fraction(s.dim_irrep(mu)) ** 2 * Fraction(vol0)


# ---------------------------------------------------------------------------
# reduced-space volume as a Duistermaat-Heckman B-spline


def dh_slice_volume(s: Scenario) -> Rational:
    """Exact normalized volume of the zero-level slice of the moment
    simplex, for rank-1 single-factor regular scenarios.

    Normalization is pinned to counting: the returned value equals
    lim (n-1)! h^0_0(L^k)/k^(n-1) along the exponent progression.  The
    push-forward of the simplex measure is the Curry-Schoenberg B-spline M
    (integral 1) with knots d*w_i (Duistermaat-Heckman), so

        vol_0 = |K| d^n / n * M(-c | d w_0, ..., d w_n)

    with |K| the order of the generic stabilizer.  M is evaluated by the
    Curry-Schoenberg recursion over windows of consecutive sorted knots;
    regularity keeps -c off every knot.
    """
    if s.group.is_su2 or s.group.dim != 1 or len(s.factors) != 1:
        raise UnsupportedScenario("slice volumes implemented for rank-1 single factors")
    report = classify_stability(s)
    if report.stability != REGULAR:
        raise UnsupportedScenario(f"slice volume needs a regular scenario, got {report.stability}")

    n = s.factors[0].dim
    d = s.bundle.degrees[0]
    x = Fraction(-s.bundle.twist[0])
    t = sorted(d * w[0] for w in s.factors[0].weights)
    # spline[i] is the B-spline on the knots t[i..i+r]; start at r = 1
    spline = [Fraction(1, b - a) if a < x < b else Fraction(0) for a, b in zip(t, t[1:])]
    for r in range(2, n + 1):
        spline = [
            r * ((x - t[i]) * spline[i] + (t[i + r] - x) * spline[i + 1])
            / ((r - 1) * (t[i + r] - t[i]))
            if t[i] < t[i + r]
            else Fraction(0)
            for i in range(len(spline) - 1)
        ]
    return generic_stabilizer(s).order * Fraction(d) ** n / n * spline[0]


def vanishing_certificate(s: Scenario, mu) -> int | None:
    """The least r >= 1 such that mu lies outside k times the moment image
    for every k >= r, so that dim H^0(L^k)_mu = 0 there; None when mu lies
    in every large dilate.  This is the one reading of the image's scale
    range: ``volumes`` calls a weight eventually zero exactly when it is
    not None."""
    img = classify_stability(s).moment_image
    mu_vec = s.weight_vec(mu)
    s.check_dominant(mu)
    r_min, r_max = img.scale_range(mu_vec)
    if r_min is None:
        return 1
    return None if r_max is None else r_max + 1
