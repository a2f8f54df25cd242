"""Equivariant volumes by exact quasi-polynomial fitting.

The isotypic dimension k -> dim H^0(M, L^k)_mu is eventually
quasi-polynomial on the supported spaces (lattice-point counts on slices
of dilated polytopes), so the limsup defining the volume

    vol_mu(L) = limsup (n-g)!/k^(n-g) dim H^0(M, L^k)_mu

is attained along residue classes mod the invariant exponent e = e_G(L)
and can be computed exactly: sample along k = f + m e, refine the class
by a period P = t e until every sub-progression is a polynomial in k of
some degree (witnessed by vanishing finite differences over a window),
and read off the degree-(n-g) coefficient.  Growth of degree above n-g is
reported as an infinite volume, never an error; failure to stabilize
within the configured horizons is reported honestly as not_stabilized.

No floating point is used anywhere; all values are Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

from . import geometry
from .counting import section_dimension
from .model import Rational, Scenario, ScenarioError

EXACT = "exact"
ZERO = "zero"
INFINITE = "infinite"
NOT_STABILIZED = "not_stabilized"


@dataclass(frozen=True)
class FitParams:
    """Horizons for semigroup scans and quasi-polynomial fits.

    Defaults cover every shipped scenario; all bounds are configurable.
    The fit window holds degree+window_pad samples plus `confirm` extra
    samples that the fitted polynomial must also reproduce.
    """

    m_max: int = 60
    window_pad: int = 4
    confirm: int = 2
    far_check: int = 5
    period_factor_max: int = 24
    start_max: int = 16
    max_samples: int = 600

    def __post_init__(self):
        for f in fields(self):
            least = 1 if f.name in ("m_max", "period_factor_max") else 0
            value = getattr(self, f.name)
            if value < least:
                raise ScenarioError(f"fit parameter `{f.name}` must be >= {least}, got {value}")


DEFAULT_PARAMS = FitParams()


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
    residue: int
    period: int
    start_k: int
    samples: tuple[int, ...]
    degree: int
    leading: Rational


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


@dataclass(frozen=True)
class ResidueVolume:
    residue: int
    estimate: VolumeEstimate


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
    return frozenset(m for m in range(1, m_max + 1) if section_dimension(s, m, mu) > 0)


@lru_cache(maxsize=None)
def g_exponent(s: Scenario, m_max: int = DEFAULT_PARAMS.m_max) -> ExponentResult:
    sg = g_semigroup(s, m_max)
    if not sg:
        return ExponentResult(sg, None, None, m_max)
    e = 0
    for m in sg:
        e = gcd(e, m)
    missing = [m for m in range(e, m_max + 1, e) if m not in sg]
    m_stab = max(missing) if missing else 0
    return ExponentResult(sg, e, m_stab, m_max)


def _working_exponent(s: Scenario, params: FitParams) -> int | None:
    """Cheap class partition for the fits: the gcd of a semigroup prefix.

    Sound because it is a multiple of the true exponent and the volume is
    the maximum over residue classes of *any* partition; the refinement
    search re-subdivides as needed.  Escalates to the full horizon before
    declaring the exponent undetermined.
    """
    e = g_exponent(s, min(16, params.m_max)).exponent
    if e is not None:
        return e
    return g_exponent(s, params.m_max).exponent


# ---------------------------------------------------------------------------
# quasi-polynomial fitting


def _diffs(seq):
    return [b - a for a, b in zip(seq, seq[1:])]


def _nth_diff(seq, order):
    for _ in range(order):
        seq = _diffs(seq)
    return seq


class _Sampler:
    """Memoized h(m) = dim H^0(L^(f + m e))_mu with a sample budget."""

    def __init__(self, s: Scenario, mu, e: int, f: int, budget: int):
        self.s, self.mu, self.e, self.f = s, mu, e, f
        self.budget = budget
        self.cache: dict[int, int] = {}

    def __call__(self, m: int) -> int:
        if m not in self.cache:
            if len(self.cache) >= self.budget:
                raise _BudgetExhausted
            self.cache[m] = section_dimension(self.s, self.f + m * self.e, self.mu)
        return self.cache[m]


class _BudgetExhausted(Exception):
    pass


def _extends_polynomially(h, rho, t, j0, W, deg, ys, far: int) -> bool:
    """Check the window's degree-`deg` polynomial also predicts the sample
    `far` steps past the window (catches transients that merely look
    polynomial locally)."""
    if far <= 0:
        return True
    tail = list(ys[-(deg + 1) :])
    # vanishing (deg+1)-th differences: y_next = sum_i (-1)^i C(deg+1, i+1) y_(n-i)
    signs = [(-1) ** i * comb(deg + 1, i + 1) for i in range(deg + 1)]
    for _ in range(far):
        nxt = sum(c * y for c, y in zip(signs, reversed(tail)))
        tail = tail[1:] + [nxt]
    return tail[-1] == h(rho + (j0 + W - 1 + far) * t)


def _fit_subprogression(h, rho, t, target_deg, deg_cap, m_floor, params):
    """Fit the samples along m = rho + j t (m >= max(1, m_floor)).

    Returns (degree, coeff_target, fitdata) where coeff_target is the
    exact degree-`target_deg` coefficient times target_deg! (i.e. the
    volume contribution) when degree <= target_deg, else None.  Returns
    None when no polynomial of degree <= deg_cap fits within the horizon.
    """
    j_base = 0
    while rho + j_base * t < max(1, m_floor):
        j_base += 1
    P = t * h.e
    for j0 in range(j_base, j_base + params.start_max + 1):
        for deg in range(0, deg_cap + 1):
            W = max(deg, target_deg) + params.window_pad + params.confirm
            try:
                ys = [h(rho + (j0 + i) * t) for i in range(W)]
                if any(d != 0 for d in _nth_diff(ys, deg + 1)):
                    continue
                if not _extends_polynomially(h, rho, t, j0, W, deg, ys, params.far_check):
                    continue
            except _BudgetExhausted:
                return None
            k0 = h.f + (rho + j0 * t) * h.e
            if deg > target_deg:
                lead = Fraction(_nth_diff(ys, deg)[0])
                if lead <= 0:
                    raise RuntimeError(f"degree overshoot with leading term {lead} <= 0: fitter bug")
                fd = FitData(h.f, P, k0, tuple(ys), deg, lead / P**deg)
                return deg, None, fd
            coeff = Fraction(_nth_diff(ys, target_deg)[0]) / Fraction(P) ** target_deg
            fd = FitData(h.f, P, k0, tuple(ys), deg, coeff)
            return deg, coeff, fd
    return None


def residue_volume(s: Scenario, mu, f: int, params: FitParams = DEFAULT_PARAMS) -> ResidueVolume:
    """limsup of (n-g)! h^0_mu(L^k)/k^(n-g) along k = f (mod e_G(L))."""
    s.check_dominant(mu)
    e = g_exponent(s, params.m_max).exponent
    if e is not None:
        return _residue_volume_with_exponent(s, mu, f, e, params)
    if geometry.moment_image(s).contains_zero():
        return ResidueVolume(f, _estimate(s, None, NOT_STABILIZED))
    return ResidueVolume(f, _estimate(s, Fraction(0), ZERO))


def _residue_volume_with_exponent(
    s: Scenario, mu, f: int, e: int, params: FitParams
) -> ResidueVolume:
    img = geometry.moment_image(s)
    f = f % e

    mu_vec = s.weight_vec(mu)
    k_min, k_max = img.scale_range(mu_vec)
    if k_min is None or k_max is not None:
        # mu outside every dilate of the image, or a finite support: the
        # dimension sequence is eventually zero
        return ResidueVolume(f, _estimate(s, Fraction(0), ZERO))
    m_floor = max(1, -(-(k_min - f) // e))  # first m with f + m e >= k_min

    D = s.growth_degree
    deg_cap = s.dim  # counts grow at most like k^n
    h = _Sampler(s, mu, e, f, params.max_samples)
    try:
        for t in range(1, params.period_factor_max + 1):
            fits = []
            for rho in range(1, t + 1):
                res = _fit_subprogression(h, rho, t, D, deg_cap, m_floor, params)
                if res is None:
                    fits = None
                    break
                fits.append(res)
            if fits is None:
                continue
            worst = max(fits, key=lambda r: r[0])
            if worst[0] > D:
                return ResidueVolume(f, _estimate(s, None, INFINITE, worst[2]))
            best = max(fits, key=lambda r: r[1])
            value = best[1]
            status = EXACT if value > 0 else ZERO
            return ResidueVolume(f, _estimate(s, value, status, best[2]))
    except _BudgetExhausted:
        pass
    return ResidueVolume(f, _estimate(s, None, NOT_STABILIZED))


def equivariant_volume(s: Scenario, mu, params: FitParams = DEFAULT_PARAMS) -> VolumeEstimate:
    """vol_mu(L): maximum of the residue-class volumes over f in [0, e)."""
    s.check_dominant(mu)
    if not geometry.moment_image(s).contains_zero():
        # unstable everywhere: isotypic dimensions vanish for large powers
        return _estimate(s, Fraction(0), ZERO)
    e = _working_exponent(s, params)
    if e is None:
        return _estimate(s, None, NOT_STABILIZED)
    best: VolumeEstimate | None = None
    for f in range(e):
        rv = _residue_volume_with_exponent(s, mu, f, e, params).estimate
        if rv.status == INFINITE:
            return rv
        if rv.status == NOT_STABILIZED:
            return rv
        if best is None or rv.value > best.value:
            best = rv
    return best


def homogeneity_transform(
    est: VolumeEstimate, from_power: int, to_power: int, exponent: int, degree: int
) -> VolumeEstimate:
    """Transport a volume computed at L^a to L^q via the scaling law
    vol_mu(L^q) = (q/gcd(q,e))^(n-g) vol_mu(L^(gcd(q,e))).

    Requires from_power == gcd(to_power, exponent).
    """
    a, q = from_power, to_power
    if a != gcd(q, exponent):
        raise ScenarioError(f"homogeneity transform needs a = gcd(q, e): {a} != gcd({q},{exponent})")
    if not est.finite:
        return est
    scale = Fraction(q, a) ** degree
    return replace(est, value=est.value * scale)
