"""Moment images, stability classes, stabilizers and compatibility.

Moment images of ample linearizations on products of projective spaces are
computed combinatorially: the image of the Fubini-Study moment map of a
diagonal linear action is the multidegree-weighted Minkowski sum of the
per-factor coordinate-weight hulls, translated by the character twist.
Every section weight of L^k lies in k times this image, which is what the
vanishing machinery exploits.  Each image keeps its facets as integer
half-planes, so asking whether mu lies in k times it, or for which k it
does, takes integer dot products and floor division, never a Fraction.

Stability of a bundle is read off the position of the origin:

* outside the image              -> every point is unstable;
* at the image of a fixed point
  or on a critical segment       -> semistable != stable (a wall);
* interior and non-critical      -> regular (stable = semistable != empty).

For rank-2 torus actions the critical values of the moment map are the
weighted Minkowski sums of per-factor weight groups that are constant
along some direction orthogonal to a coordinate-weight difference; the
origin is a regular value iff it avoids all of them.  SU(2) factors are
classified through the classical stability theory of binary forms,
restricted to the supported single-factor scenarios.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
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


def _hull2d(points):
    """Monotone-chain convex hull, counterclockwise; exact arithmetic."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return tuple(pts)
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(
            (lower[-1][0] - lower[-2][0], lower[-1][1] - lower[-2][1]),
            (p[0] - lower[-2][0], p[1] - lower[-2][1]),
        ) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(
            (upper[-1][0] - upper[-2][0], upper[-1][1] - upper[-2][1]),
            (p[0] - upper[-2][0], p[1] - upper[-2][1]),
        ) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:  # all points collinear
        return (pts[0], pts[-1])
    return tuple(hull)


@dataclass(frozen=True)
class MomentImage:
    """Moment map image of the bundle itself (tensor power k scales by k).

    rank 1 (circle g=1, and the su2 dominant picture) stores an interval;
    rank 2 stores a hull vertex list in counterclockwise order (1 or 2
    vertices when degenerate).

    Queries run on integer half-planes computed once per image: a pair
    (beta, a) means beta*r <= <a, mu>, so mu lies in r * image exactly when
    every inequality holds and every equality beta*r == <a, mu> does.
    """

    rank: int
    vertices: tuple
    dominant: bool = False

    @property
    def interval(self) -> tuple[Rational, Rational]:
        if self.rank != 1:
            raise ValueError("interval only defined for rank-1 images")
        vals = [v[0] for v in self.vertices]
        return (min(vals), max(vals))

    @cached_property
    def _half_planes(self) -> tuple[tuple, tuple]:
        """(inequalities, equalities), each a tuple of integer pairs
        (beta, a) read as beta*r <= <a, mu> or beta*r == <a, mu>.

        An interval [lo, hi] gives lo*r <= mu and -hi*r <= -mu (times the
        denominators); a polygon one inequality per counterclockwise edge
        e from v, cross(e, v)*r <= cross(e, mu); a segment pq the line
        through it as an equality and its two ends; a point one equality
        per coordinate.
        """
        if self.rank == 1:
            lo, hi = self.interval
            return ((lo.numerator, (lo.denominator,)), (-hi.numerator, (-hi.denominator,))), ()
        vs = self.vertices
        if len(vs) == 1:
            ((x, y),) = vs
            return (), ((x, (1, 0)), (y, (0, 1)))
        edges = [(v, (w[0] - v[0], w[1] - v[1])) for v, w in zip(vs, vs[1:] + vs[:1])]
        if len(vs) == 2:
            (p, e), (q, _) = edges
            return ((_dot(p, e), e), (-_dot(q, e), (-e[0], -e[1]))), ((_cross(e, p), (-e[1], e[0])),)
        return tuple((_cross(e, v), (-e[1], e[0])) for v, e in edges), ()

    def contains_zero(self) -> bool:
        ineqs, eqs = self._half_planes
        return all(beta <= 0 for beta, _ in ineqs) and all(beta == 0 for beta, _ in eqs)

    def zero_interior(self) -> bool:
        ineqs, eqs = self._half_planes
        return not eqs and all(beta < 0 for beta, _ in ineqs)

    def scaled_contains(self, mu_vec: tuple[int, ...], k: int) -> bool:
        """Exact test mu in k * image."""
        ineqs, eqs = self._half_planes
        return (
            k >= 0
            and all(beta * k <= sum(map(mul, a, mu_vec)) for beta, a in ineqs)
            and all(beta * k == sum(map(mul, a, mu_vec)) for beta, a in eqs)
        )

    def scale_range(self, mu_vec: tuple[int, ...]) -> tuple[int | None, int | None]:
        """Integer interval of scales r >= 1 with mu in r*image.

        Returns (r_min, r_max); r_max is None when unbounded, (None, None)
        when no scale admits mu.
        """
        ineqs, eqs = self._half_planes
        r_min, r_max = 1, None
        for beta, a in ineqs:
            alpha = sum(map(mul, a, mu_vec))
            if beta > 0:
                r_max = alpha // beta if r_max is None else min(r_max, alpha // beta)
            elif beta < 0:
                r_min = max(r_min, -(alpha // -beta))
            elif alpha < 0:
                return (None, None)
        for beta, a in eqs:
            alpha = sum(map(mul, a, mu_vec))
            if beta == 0:
                if alpha:
                    return (None, None)
                continue
            r, rem = divmod(alpha, beta)
            if rem:
                return (None, None)
            r_min = max(r_min, r)
            r_max = r if r_max is None else min(r_max, r)
        if r_max is not None and r_max < r_min:
            return (None, None)
        return (r_min, r_max)


def supported(s: Scenario) -> bool:
    """Whether the geometry here covers `s`: single-factor su2, or circle
    rank <= 2."""
    if s.group.is_su2:
        return len(s.factors) == 1
    return s.group.dim <= 2


def moment_image(s: Scenario) -> MomentImage:
    """Weight hull of the bundle: Minkowski sum of d_j-scaled factor hulls
    plus the twist.  For su2 this is the dominant interval."""
    if s.group.is_su2:
        if len(s.factors) != 1:
            raise UnsupportedScenario("su2 geometry supports single-factor scenarios")
        sym = s.factors[0].sym_powers
        d = s.bundle.degrees[0]
        hi = d * max(sym)
        lo = d if sym == (1,) else 0
        return MomentImage(rank=1, vertices=((Fraction(lo),), (Fraction(hi),)), dominant=True)
    g = s.group.dim
    if g == 1:
        lo = sum(d * min(w[0] for w in f.weights) for f, d in zip(s.factors, s.bundle.degrees))
        hi = sum(d * max(w[0] for w in f.weights) for f, d in zip(s.factors, s.bundle.degrees))
        c = s.bundle.twist[0]
        return MomentImage(rank=1, vertices=((Fraction(lo + c),), (Fraction(hi + c),)))
    if g == 2:
        c = s.bundle.twist
        sums = [c]
        for f, d in zip(s.factors, s.bundle.degrees):
            verts = _hull2d([(d * w[0], d * w[1]) for w in f.weights])
            sums = [(x[0] + v[0], x[1] + v[1]) for x in sums for v in verts]
        return MomentImage(rank=2, vertices=_hull2d(sums))
    raise UnsupportedScenario(f"moment images implemented for circle rank <= 2, got g={g}")


def fixed_point_images(s: Scenario) -> set:
    """Moment images of the torus-fixed points: one distinct coordinate
    weight per factor, d-weighted and twisted."""
    if s.group.is_su2:
        raise UnsupportedScenario("fixed-point images are a torus-side computation")
    per_factor = [
        {tuple(d * x for x in w) for w in f.weights}
        for f, d in zip(s.factors, s.bundle.degrees)
    ]
    out = set()
    for combo in itertools.product(*per_factor):
        v = tuple(sum(x) + c for x, c in zip(zip(*combo), s.bundle.twist))
        out.add(s.weight_key(v))
    return out


def _primitive(v: tuple[int, int]) -> tuple[int, int]:
    g = gcd(v[0], v[1])
    return (v[0] // g, v[1] // g)


def _zero_is_critical_rank2(s: Scenario) -> bool:
    # 0 lies on a critical segment: some direction xi orthogonal to a
    # weight difference, per-factor weight groups constant along xi whose
    # weighted sum line passes through 0 with 0 inside the segment.
    dirs = set()
    for f in s.factors:
        ws = f.weights
        for a, b in itertools.combinations(ws, 2):
            d = (a[0] - b[0], a[1] - b[1])
            if d != (0, 0):
                xi = _primitive((-d[1], d[0]))
                dirs.add(xi if xi > (-xi[0], -xi[1]) else (-xi[0], -xi[1]))
    c = s.bundle.twist
    for xi in dirs:
        tau = (-xi[1], xi[0])
        groups_per_factor = []
        for f in s.factors:
            groups: dict[int, list] = {}
            for w in f.weights:
                groups.setdefault(_dot(w, xi), []).append(w)
            groups_per_factor.append(groups)
        for combo in itertools.product(*(g.items() for g in groups_per_factor)):
            level = sum(
                d * v for d, (v, _) in zip(s.bundle.degrees, combo)
            ) + _dot(c, xi)
            if level != 0:
                continue
            lo = sum(
                d * min(_dot(w, tau) for w in ws)
                for d, (_, ws) in zip(s.bundle.degrees, combo)
            ) + _dot(c, tau)
            hi = sum(
                d * max(_dot(w, tau) for w in ws)
                for d, (_, ws) in zip(s.bundle.degrees, combo)
            ) + _dot(c, tau)
            if lo <= 0 <= hi:
                return True
    return False


@dataclass(frozen=True)
class StabilityReport:
    stability: str  # regular | boundary | unstable_everywhere | trivial_action
    moment_image: MomentImage
    zero_position: str  # inside | on_vertex_or_wall | outside


def classify_stability(s: Scenario) -> StabilityReport:
    img = moment_image(s)
    if s.group.is_su2:
        sym = s.factors[0].sym_powers
        if all(m == 0 for m in sym):
            return StabilityReport(TRIVIAL, img, ON_WALL)
        if sym == (1,):
            return StabilityReport(UNSTABLE, img, OUTSIDE)
        if all(m % 2 == 1 for m in sym):
            return StabilityReport(REGULAR, img, INSIDE)
        return StabilityReport(BOUNDARY, img, ON_WALL)

    if not img.contains_zero():
        return StabilityReport(UNSTABLE, img, OUTSIDE)
    action_trivial = all(len(set(f.weights)) == 1 for f in s.factors)
    if action_trivial:
        return StabilityReport(TRIVIAL, img, ON_WALL)
    stab = generic_stabilizer(s)
    if not stab.finite:
        return StabilityReport(BOUNDARY, img, ON_WALL)
    critical = s.zero_weight in fixed_point_images(s)
    if not critical and s.group.dim == 2:
        critical = _zero_is_critical_rank2(s)
    if critical or not img.zero_interior():
        return StabilityReport(BOUNDARY, img, ON_WALL)
    return StabilityReport(REGULAR, img, INSIDE)


# ---------------------------------------------------------------------------
# generic stabilizers and associated characters


@dataclass(frozen=True)
class StabilizerData:
    """Generic stabilizer of the action, as far as the torus data sees it.

    For circle powers this is the full generic stabilizer (kernel of all
    coordinate-weight differences).  For su2 it is the central part,
    {+-1} when every factor's blocks share a parity; the supported
    scenarios have central generic stabilizers so the two coincide.
    """

    finite: bool
    order: int | None
    invariant_factors: tuple[int, ...] = ()
    # Hermite data (a, b, c) of the rank-2 difference lattice, columns
    # (a, b) and (0, c); None for rank 1 / su2.
    hermite: tuple[int, int, int] | None = None

    def residue(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        if not self.finite:
            raise UnsupportedScenario("residues undefined for infinite stabilizers")
        if self.hermite is None:
            d = self.order
            return (vec[0] % d,) if d > 1 else (0,)
        a, b, c = self.hermite
        sdiv, rx = divmod(vec[0], a)
        ry = (vec[1] - b * sdiv) % c
        return (rx, ry)

    def contains(self, vec: tuple[int, ...]) -> bool:
        """Membership of an integer vector in the difference lattice."""
        return self.residue(vec) == self.residue((0,) * len(vec))


def _difference_vectors(s: Scenario):
    for f in s.factors:
        ws = f.weights
        for a, b in itertools.combinations(ws, 2):
            d = tuple(x - y for x, y in zip(a, b))
            if any(d):
                yield d


def generic_stabilizer(s: Scenario) -> StabilizerData:
    if s.group.is_su2:
        if len(s.factors) != 1:
            raise UnsupportedScenario("su2 geometry supports single-factor scenarios")
        parities = {m % 2 for m in s.factors[0].sym_powers}
        if len(parities) == 1:
            return StabilizerData(finite=True, order=2, invariant_factors=(2,))
        return StabilizerData(finite=True, order=1, invariant_factors=(1,))
    g = s.group.dim
    diffs = list(_difference_vectors(s))
    if g == 1:
        d = 0
        for v in diffs:
            d = gcd(d, v[0])
        if d == 0:
            return StabilizerData(finite=False, order=None)
        return StabilizerData(finite=True, order=d, invariant_factors=(d,) if d > 1 else (1,))
    if g == 2:
        herm = _hermite_2(diffs)
        if herm is None:
            return StabilizerData(finite=False, order=None)
        a, b, c = herm
        order = a * c
        f1 = 0
        for v in diffs:
            f1 = gcd(f1, gcd(v[0], v[1]))
        f2 = order // f1
        return StabilizerData(
            finite=True, order=order, invariant_factors=(f1, f2), hermite=herm
        )
    raise UnsupportedScenario(f"stabilizers implemented for circle rank <= 2, got g={g}")


def _hermite_2(cols) -> tuple[int, int, int] | None:
    """Column Hermite form [[a,0],[b,c]] of the lattice spanned by `cols`;
    None when the lattice has rank < 2."""
    cols = [tuple(c) for c in cols if any(c)]
    if not cols:
        return None
    # reduce to a single column with nonzero x plus columns with x = 0
    work = list(cols)
    lead = None
    rest = []
    for v in work:
        if v[0] == 0:
            rest.append(v[1])
            continue
        if lead is None:
            lead = v
            continue
        a, b = lead, v
        while b[0]:
            q = a[0] // b[0]
            a, b = b, (a[0] - q * b[0], a[1] - q * b[1])
        lead = a
        if b[1]:
            rest.append(b[1])
    if lead is None:
        return None
    if lead[0] < 0:
        lead = (-lead[0], -lead[1])
    c = 0
    for y in rest:
        c = gcd(c, y)
    if c == 0:
        return None
    a, b = lead[0], lead[1] % c
    return (a, b, c)


@dataclass(frozen=True)
class CompatibilityCertificate:
    """Witness data for the positivity criterion chi^r . conj(mu_K) = 1.

    ``chi`` and ``mu_k`` are residues of the bundle fiber character and of
    the restricted weight character in the stabilizer's residue
    coordinates; ``witness`` is the smallest r in [1, |K|] solving
    r*chi = mu_k, or None when no r exists.
    """

    stabilizer: StabilizerData
    chi: tuple[int, ...]
    mu_k: tuple[int, ...]
    witness: int | None

    @property
    def compatible(self) -> bool:
        return self.witness is not None


def bundle_fiber_character(s: Scenario, stab: StabilizerData) -> tuple[int, ...]:
    """Residue of the character by which K acts on the fiber of L at a
    general point: sum_j d_j * w_{j,0} + c restricted to K."""
    if s.group.is_su2:
        sigma = sum(d * f.sym_powers[0] for f, d in zip(s.factors, s.bundle.degrees))
        return stab.residue((sigma,))
    g = s.group.dim
    base = [0] * g
    for f, d in zip(s.factors, s.bundle.degrees):
        for i in range(g):
            base[i] += d * f.weights[0][i]
    for i in range(g):
        base[i] += s.bundle.twist[i]
    res = stab.residue(tuple(base))
    # well-definedness: every coordinate choice must give the same residue
    for f, d in zip(s.factors, s.bundle.degrees):
        for w in f.weights:
            delta = tuple(d * (w[i] - f.weights[0][i]) for i in range(g))
            if not stab.contains(delta):
                raise RuntimeError("fiber character depends on the reference coordinate")
    return res


def numerically_compatible(s: Scenario, mu) -> CompatibilityCertificate:
    """Search r in [1, |K|] with r*chi = mu_K in the stabilizer's character
    group; existence is exactly the positivity criterion for vol_mu on
    regular bundles."""
    stab = generic_stabilizer(s)
    if not stab.finite:
        raise UnsupportedScenario("compatibility undefined for infinite generic stabilizers")
    mu_vec = s.weight_vec(mu)
    s.check_dominant(mu)
    chi = bundle_fiber_character(s, stab)
    mu_res = stab.residue(mu_vec)
    witness = None
    for r in range(1, stab.order + 1):
        acc = tuple(r * x for x in chi)
        diff = tuple(a - b for a, b in zip(acc, mu_res))
        if stab.contains(diff):
            witness = r
            break
    return CompatibilityCertificate(stab, chi, mu_res, witness)


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
    """Explicit r beyond which mu falls outside every r-scaled moment
    image, hence all its isotypic dimensions vanish; None when 0 lies in
    the image (no certificate)."""
    img = moment_image(s)
    if img.contains_zero():
        return None
    mu_vec = s.weight_vec(mu)
    s.check_dominant(mu)
    r_min, r_max = img.scale_range(mu_vec)
    if r_max is None:
        if r_min is None:
            return 1
        raise RuntimeError("unbounded scale range although 0 is outside the image")
    return r_max + 1
