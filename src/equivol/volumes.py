"""Equivariant volumes by certified quasi-polynomial interpolation.

Along the ray k*b1 + b0 the isotypic dimension h(k) = dim H^0(M, L^k)_mu
is a vector partition function #{alpha >= 0 : A alpha = k b1 + b0}: A has
one column (e_j, w) per homogeneous coordinate (the indicator of its
factor j, then its torus weight w), b1 = (degrees, -twist), b0 = (0, mu),
and for SU(2) h is dim V_mu times the torus count at mu minus that at
mu + 2.  Its period divides the lcm P of the nonzero maximal minors of A
(Sturmfels, "On vector partition functions", JCTA 1995), and past the
ray's last crossing k0 of a wall spanned by columns of A it is a single
quasi-polynomial (Brion-Vergne, JAMS 1997).  So on each class
k = r (mod P), k >= k0, h is a polynomial of degree <= #columns - rank A:
it is interpolated exactly and checked at one more sample, and a mismatch
is a bug, never a reason to search on.  The minors and the walls depend
on the columns alone and are read from the space's column lattice
(``Space.column_lattice``; b1 is ``Scenario.ray``); a fit only
scales the minors' lcm by the classes b1 leaves to each row's content and
finds k0 from dot products with the walls' normals.

A weight whose counts the moment image shows to vanish for large k
(``geometry.vanishing_certificate`` is not None) has volume 0 with no
fit.  ``equivariant_volume`` and ``residue_volume`` share that shortcut,
after the dominance check, and otherwise read the same class estimates.
A fit reads one weight: its class polynomials depend on the space, the
bundle and mu alone, so each is made once and kept on the space
(``Space.fit_store``, by bundle and weight), where every scenario on that
space reads it.  The entry also keeps the residue-class estimates read
off the fit, once made, so a repeated ``equivariant_volume`` or
``residue_volume`` call at that bundle and weight reads a stored list and
redoes neither the vanishing certificate nor the exponent.  A stored fit
is served also after CELL_BUDGET falls, and a fit that raises stores
nothing.

The volume vol_mu(L) = limsup (n-g)!/k^(n-g) dim H^0(M, L^k)_mu is the
largest (n-g)! * (coefficient of k^(n-g)) over the classes; growth of
higher degree is an infinite volume, never an error.  A fitted result
carries its class f modulo e_G(L) and e_G(L) itself, the gcd of P and the
classes whose invariant count is eventually nonzero: those whose
polynomial in the fit at the zero weight is not 0.  This is the exponent
the homogeneity law reads; ``g_exponent`` samples the invariant semigroup
instead, as an independent derivation.  No floating point is used
anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm
from operator import mul

from . import counting, geometry
from .counting import EngineLimit, section_dimensions
from .model import Rational, Scenario, ScenarioError

EXACT = "exact"
ZERO = "zero"
INFINITE = "infinite"

# semigroup horizon of g_exponent and `equivol exponent`
M_MAX = 60


@dataclass(frozen=True)
class ExponentResult:
    """Sampled invariant semigroup and its gcd.

    `exponent` is None ("undetermined") when no invariants were found up
    to m_max; `m_stab` is the smallest witnessed point after which every
    multiple of the exponent up to m_max carries invariants.
    """

    semigroup: frozenset[int]
    exponent: int | None
    m_stab: int | None
    m_max: int


@dataclass(frozen=True)
class FitData:
    """The residue class f mod e_G(L) a volume was read from, the least
    period (a multiple of e dividing P) of its class polynomials, their
    largest degree, and the exponent e = e_G(L) itself, read off the fit at
    the zero weight."""

    residue: int
    period: int
    degree: int
    exponent: int


@dataclass(frozen=True)
class VolumeEstimate:
    value: Rational | None
    status: str
    fit: FitData | None = None
    flags: tuple[str, ...] = ()

    @property
    def finite(self) -> bool:
        return self.status in (EXACT, ZERO)

    @property
    def positive(self) -> bool:
        return self.status == EXACT and self.value > 0


def _estimate(s: Scenario, value, status: str, fit=None) -> VolumeEstimate:
    """An estimate for `s`, flagged when n - g < 0 and the normalization
    degree is clamped to 0."""
    flags = ("negative_quotient_clamped",) if s.negative_quotient else ()
    return VolumeEstimate(value, status, fit, flags)


def g_semigroup(s: Scenario, m_max: int) -> frozenset[int]:
    """{m in [1, m_max] : L^m has a nonzero invariant section}."""
    return mu_semigroup(s, s.zero_weight, m_max)


def mu_semigroup(s: Scenario, mu, m_max: int) -> frozenset[int]:
    """{m in [1, m_max] : H^0(M, L^m)_mu != 0}."""
    if m_max < 1:
        raise ScenarioError("m_max must be >= 1")
    ms = range(1, m_max + 1)
    return frozenset(m for m, h in zip(ms, section_dimensions(s, mu, ms)) if h > 0)


def g_exponent(s: Scenario, m_max: int = M_MAX) -> ExponentResult:
    sg = g_semigroup(s, m_max)
    if not sg:
        return ExponentResult(sg, None, None, m_max)
    e = 0
    for m in sg:
        e = gcd(e, m)
    missing = [m for m in range(e, m_max + 1, e) if m not in sg]
    m_stab = max(missing) if missing else 0
    return ExponentResult(sg, e, m_stab, m_max)


# ---------------------------------------------------------------------------
# certified quasi-polynomial fitting


def _interpolate(k_first: int, step: int, ys: list[int]) -> tuple[list[int], int]:
    """Newton's forward-difference form of samples ys[j] = p(k_first + j*step):
    the integer coefficients, constant term first and trailing zeros
    dropped, of cap! step^cap p for the polynomial p of degree <= cap =
    len(ys) - 2 through all samples but the last, and the (cap+1)-th
    difference, which is zero exactly when the last sample lies on p too."""
    cap = len(ys) - 2
    poly = [0] * (cap + 1)
    falling = [1]  # prod_(t < i) (k - k_first - t*step), constant term first
    for i in range(cap + 1):
        scale = ys[0] * (factorial(cap) // factorial(i)) * step ** (cap - i)
        for c, b in enumerate(falling):
            poly[c] += scale * b
        ys = [b - a for a, b in zip(ys, ys[1:])]
        root = k_first + i * step
        falling = [p - root * q for p, q in zip([0] + falling, falling + [0])]
    while poly and not poly[-1]:
        poly.pop()
    return poly, ys[0]


def _levels(s: Scenario, mu) -> list[list[int]]:
    """For each class r mod P, the #columns - rank A + 2 levels k = r (mod P),
    step P, at which the fit at weight `mu` samples, from a start k0 past
    which the counts at mu are polynomial on each class.

    Raises EngineLimit before any level is built when the P * width levels
    exceed counting.CELL_BUDGET: the top level is at least (width - 1) * P
    and every factor has two coordinates or more, so the weight DP of such
    a fit would exceed the same budget."""
    lat = s.space.column_lattice
    nf = len(s.factors)
    b1 = lat.cut(s.ray)
    # a row whose entries share the factor g has solutions only for k in one
    # class mod g / gcd(g, b1_i), where it may be divided by g
    period = lcm(*(g // gcd(g, b) for g, b in zip(lat.contents, b1))) * lat.minors_lcm
    width = sum(map(len, s.space.torus_weights)) - len(lat.keep) + 2
    if period * width > counting.CELL_BUDGET:
        raise EngineLimit(f"fit needs {period * width} sample levels > budget {counting.CELL_BUDGET}")
    nu = s.weight_vec(mu)
    b0s = [lat.cut((0,) * nf + w) for w in ([nu, (nu[0] + 2,)] if s.group.is_su2 else [nu])]
    # <n, b> = det(wall, b) for a wall's normal n, so the ray crosses it at
    # k = -<n, b0> / <n, b1>
    k0 = 0
    for _, n in lat.walls:
        slope = sum(map(mul, n, b1))
        for b0 in b0s if slope else ():
            k0 = max(k0, 1 + -sum(map(mul, n, b0)) // slope)
    return [[k0 + (r - k0) % period + j * period for j in range(width)] for r in range(period)]


@dataclass
class _Fit:
    """One weight's fit, as ``Space.fit_store`` keeps it: cap = #columns -
    rank A; for each class r mod P, cap! P^cap times the polynomial that
    dim H^0(L^k)_mu equals on k = r (mod P) past the start, as a tuple of
    coefficients; and the residue-class estimates read off them, once
    :func:`_residue_estimates` has made them (None until then)."""

    cap: int
    polys: tuple[tuple[int, ...], ...]
    estimates: list[VolumeEstimate] | None = None


def _fit(s: Scenario, mu) -> _Fit:
    """The fit at weight `mu`, each class interpolated from cap + 1 samples
    and checked at one more.  Each fit is made once and kept in the space's
    ``fit_store`` by (bundle, weight); a fit that raises stores nothing."""
    store, key = s.space.fit_store, (s.bundle, s.weight_vec(mu))
    if key in store:
        return store[key]
    levels = _levels(s, mu)
    period, width = len(levels), len(levels[0])
    counts = section_dimensions(s, mu, [k for row in levels for k in row])
    polys = []
    for r, row in enumerate(levels):
        ys = counts[r * width : (r + 1) * width]
        poly, excess = _interpolate(row[0], period, ys)
        if excess:
            raise RuntimeError(
                f"samples {ys} of dim H^0(L^k)_{mu} at k = {row[0]} + {period} j fit "
                f"no polynomial of degree <= {width - 2}: fitter bug"
            )
        polys.append(tuple(poly))
    store[key] = _Fit(width - 2, tuple(polys))
    return store[key]


def _residue_estimates(s: Scenario, mu) -> list[VolumeEstimate]:
    """vol_mu restricted to each residue class f mod e_G(L), f in [0, e),
    for a dominant `mu`; a single zero estimate with no fit where the
    counts at mu vanish for large k.  The list read off a fit is kept in
    the fit's store entry, so a repeat at that bundle and weight reads it;
    its estimates are frozen, and shared."""
    stored = s.space.fit_store.get((s.bundle, s.weight_vec(mu)))
    if stored is not None and stored.estimates is not None:
        return stored.estimates
    if geometry.vanishing_certificate(s, mu) is not None:
        return [_estimate(s, Fraction(0), ZERO)]
    fit = _fit(s, mu)
    cap, polys = fit.cap, fit.polys  # cap! P^cap times each class's polynomial
    period = len(polys)
    # e: the gcd of P and the classes on which the invariant count is
    # eventually nonzero, read off the fit at the zero weight
    e = gcd(period, *(r for r, p in enumerate(_fit(s, s.zero_weight).polys) if p))
    D = s.growth_degree
    out = []
    for f in range(e):
        cls = polys[f::e]
        n = len(cls)
        # the least shift t | n under which the class polynomials repeat
        t = next(t for t in range(1, n + 1) if n % t == 0 and cls == cls[t:] + cls[:t])
        degree = max(len(p) for p in cls) - 1
        data = FitData(f, t * e, max(degree, 0), e)
        if degree > D:
            out.append(_estimate(s, None, INFINITE, data))
            continue
        top = max(p[D] if len(p) > D else 0 for p in cls)
        value = Fraction(factorial(D) * top, factorial(cap) * period**cap)
        out.append(_estimate(s, value, EXACT if value > 0 else ZERO, data))
    fit.estimates = out
    return out


def residue_volume(s: Scenario, mu, f: int) -> VolumeEstimate:
    """limsup of (n-g)! h^0_mu(L^k)/k^(n-g) along k = f (mod e_G(L)); the
    estimate's fit names the class, f mod e."""
    estimates = _residue_estimates(s, mu)
    return estimates[f % len(estimates)]


def equivariant_volume(s: Scenario, mu) -> VolumeEstimate:
    """vol_mu(L): the maximum of the residue-class volumes, attained first
    at the reported residue, or the first infinite one."""
    estimates = _residue_estimates(s, mu)
    infinite = [est for est in estimates if est.status == INFINITE]
    return infinite[0] if infinite else max(estimates, key=lambda est: est.value)
