"""Verification suites tying counted values to the structural laws.

A suite is one law and one scope.  The law takes one scenario and yields
its checks, each a tuple ``(claim, lhs, rhs, passed[, witness])``; the
scope says which scenarios the law applies to: every one, those the
geometry covers (:func:`geometry.supported`), or the supported regular
ones.  :func:`run_suite` is the only loop over a corpus: it runs the law
on each scenario in scope, in corpus order, and wraps every check in a
:class:`CheckRecord` labelled with the scenario's name.  ``_SUITES`` maps
each suite name to its law and scope, so adding a suite is one entry
there.  The continuity suite reads no corpus document: its one scenario
is the whole P^2 bundle family, labelled ``p2_family``.

Each law that reads a set of levels builds them first in one ladder, by
one read of the zero weight at all of them (:func:`_build_levels`), and
then reads them one by one from the space's store: the oracle law levels
0..8, the vanishing law levels 1..12, and the exponent law every level
its powers' semigroups read.

A suite passes only if every record passes, and every record carries the
data needed to re-run it in isolation.  An estimate that is not finite
where a law needs a finite one fails the affected check with its status
recorded, never silently.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import gcd

from . import geometry
from .counting import (
    EngineLimit,
    brute_force_oracle,
    conservation_sides,
    full_weight_distribution,
    section_dimension,
    section_dimensions,
)
from .model import LinearizedBundle, Scenario, circle_scenario, scenario_power, tensor_product, with_bundle
from .tables import render_rational, render_weight
from .volumes import equivariant_volume, g_exponent, g_semigroup, mu_semigroup


@dataclass
class CheckRecord:
    scenario: str
    claim: str
    lhs: str
    rhs: str
    passed: bool
    witness: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)


@dataclass
class SuiteReport:
    suite: str
    scenarios: list
    records: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def counts(self):
        ok = sum(r.passed for r in self.records)
        return (ok, len(self.records))

    def to_dict(self):
        ok, total = self.counts
        return {
            "suite": self.suite,
            "scenarios": list(self.scenarios),
            "passed": self.passed,
            "checks_passed": ok,
            "checks_total": total,
            "records": [r.to_dict() for r in self.records],
        }

    def summary(self) -> str:
        ok, total = self.counts
        return f"suite {self.suite}: {ok}/{total} checks passed"


def run_suite(name: str, corpus) -> SuiteReport:
    """Run one named suite over corpus pairs (label, scenario): its law on
    each scenario in its scope, in corpus order.  The continuity suite
    runs on its own family and ignores `corpus`."""
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    law, in_scope = _SUITES[name]
    if name == "continuity":
        corpus = [("p2_family", continuity_family())]
    records = [CheckRecord(label, *check) for label, s in corpus if in_scope(s) for check in law(s)]
    return SuiteReport(name, [label for label, _ in corpus], records)


# ---------------------------------------------------------------------------
# scopes; each looks `geometry`'s functions up at call time, so a wrapped or
# patched one is the one called


def _every(s) -> bool:
    return True


def _supported(s) -> bool:
    return geometry.supported(s)


def _regular(s) -> bool:
    """Covered by the geometry and of stability class regular."""
    return geometry.supported(s) and geometry.classify_stability(s).stability == "regular"


# ---------------------------------------------------------------------------
# laws


def _estimate(est) -> str:
    return f"{render_rational(est.value)} [{est.status}]"


def _build_levels(s, ks) -> None:
    """Build the levels `ks` of `s` in one ladder, by one read of the zero
    weight, so that a law's reads of those levels find them in the space's
    store.  Past the budget nothing is built, and each later read meets the
    limit where it would have without this call."""
    try:
        section_dimensions(s, s.zero_weight, ks)
    except EngineLimit:
        pass


def _oracle(s):
    """Engine distribution == brute-force enumeration, plus conservation,
    at k = 0..8."""
    _build_levels(s, range(0, 9))
    for k in range(0, 9):
        engine = full_weight_distribution(s, k)
        oracle = brute_force_oracle(s, k)
        ok = engine == oracle
        yield (
            f"full_weight_distribution == brute_force_oracle at k={k}",
            f"{len(engine)} weights",
            f"{len(oracle)} weights",
            ok,
            {} if ok else {"engine": str(engine), "oracle": str(oracle)},
        )
        lhs, rhs = conservation_sides(s, k, engine)
        yield f"conservation at k={k}", str(lhs), str(rhs), lhs == rhs


def _homogeneity(s):
    """vol_mu(L^p) = p^(n-g) vol_mu(L) for gcd(p, e)=1, and the
    unconditional trivial-representation law for q in [1, 6].  The exponent
    n - g is clamped at 0, as every volume is normalized
    (``Scenario.growth_degree``); e = e_G(L) is the one vol_0's fit reads,
    which a regular scenario always has.

    At q = 1 both sides read one stored fit, since ``scenario_power(s, 1)``
    has the space and the bundle of `s`: that check compares one
    deterministic computation with itself, not two derivations."""
    D = s.growth_degree
    vol0 = equivariant_volume(s, s.zero_weight)
    if vol0.finite:
        for q in range(1, 7):
            lhs = equivariant_volume(scenario_power(s, q), s.zero_weight)
            want = Fraction(q) ** D * vol0.value
            ok = lhs.finite and lhs.value == want
            yield f"vol_0(L^{q}) = {q}^(n-g) vol_0(L)", _estimate(lhs), render_rational(want), ok, {"q": q}
    powers = [p for p in (3, 5) if gcd(p, vol0.fit.exponent) == 1] if _regular(s) else []
    for p in powers:
        sp = scenario_power(s, p)
        for mu in s.default_mus(2):
            base, lhs = equivariant_volume(s, mu), equivariant_volume(sp, mu)
            want = Fraction(p) ** D * base.value if base.finite else None
            yield (
                f"vol_mu(L^{p}) = {p}^(n-g) vol_mu(L) at mu={render_weight(mu)}",
                _estimate(lhs),
                render_rational(want),
                base.finite and lhs.finite and lhs.value == want,
                {"p": p, "mu": render_weight(mu)},
            )


def _exponent_law(s):
    """e_G(L^p) = e_G(L)/gcd(p, e_G(L)) for p in [1, 12], each power's
    semigroup read up to m = 12 (exponents stabilize at once on the corpus)."""
    e = g_exponent(s).exponent
    if e is None:
        return
    _build_levels(s, sorted({p * m for p in range(1, 13) for m in range(1, 13)}))
    for p in range(1, 13):
        got = g_exponent(scenario_power(s, p), 12).exponent
        want = e // gcd(p, e)
        yield f"e_G(L^{p}) = e_G(L)/gcd({p}, e_G(L))", str(got), str(want), got == want, {"p": p, "e": e}


def _compatibility(s):
    """vol_mu > 0 iff a compatibility witness exists, and positive volumes
    equal dim(V_mu)^2 vol_0 exactly.

    At mu = 0 both sides read one stored fit, the one vol_0 is read from:
    that check compares one deterministic computation with itself, not two
    derivations."""
    vol0 = equivariant_volume(s, s.zero_weight)
    yield "vol_0 is exact and positive on a regular scenario", _estimate(vol0), "positive", vol0.positive
    if not vol0.positive:
        return
    for mu in s.default_mus():
        cert = geometry.numerically_compatible(s, mu)
        est = equivariant_volume(s, mu)
        predicted = geometry.predicted_volume(s, mu, vol0.value)
        yield (
            f"vol_mu > 0 iff compatible, and equals dim(V_mu)^2 vol_0, mu={render_weight(mu)}",
            _estimate(est),
            render_rational(predicted),
            est.finite and (est.value > 0) == cert.compatible and est.value == predicted,
            {"witness": cert.witness, "mu": render_weight(mu)},
        )


def _vanishing(s):
    """Counted support lies in the scaled moment image for k <= 12; on
    unstable scenarios the counts vanish from the emitted bound up to
    k = 40."""
    report = geometry.classify_stability(s)
    _build_levels(s, range(1, 13))
    bad = [
        (k, render_weight(mu))
        for k in range(1, 13)
        for mu in full_weight_distribution(s, k)
        if not report.moment_image.scaled_contains(s.weight_vec(mu), k)
    ]
    claim = "support of H^0(L^k) inside k * moment image, k <= 12"
    yield claim, f"{len(bad)} escapes", "0 escapes", not bad, {"escapes": bad[:5]}
    if report.stability != "unstable_everywhere":
        return
    for mu in s.default_mus():
        r = geometry.vanishing_certificate(s, mu)
        ok = r is not None and not any(section_dimensions(s, mu, range(r, 41)))
        at = render_weight(mu)
        yield f"counts vanish for k >= r_mu, mu={at}", f"r_mu={r}", "zero up to k=40", ok, {"mu": at, "r_mu": r}


def _invariantly_effective_bundle(s: Scenario):
    """Small bundle A on the same space with a nonzero invariant section."""
    nf = len(s.factors)
    twist_choices = [()] if s.group.is_su2 else list(product(range(-3, 4), repeat=s.group.dim))
    for dmax in range(1, 4):
        for degs in product(range(1, dmax + 1), repeat=nf):
            if max(degs) != dmax:
                continue
            for tw in twist_choices:
                cand = LinearizedBundle(degs, tw)
                if section_dimension(with_bundle(s, cand), 1, s.zero_weight) > 0:
                    return cand
    return None


def _monotonicity(s):
    """Tensoring with an invariantly effective bundle never shrinks volumes."""
    aux = _invariantly_effective_bundle(s)
    if aux is None:
        return
    bigger = with_bundle(s, tensor_product(s.bundle, aux))
    for mu in s.default_mus(3):
        lo = equivariant_volume(s, mu)
        hi = equivariant_volume(bigger, mu)
        if lo.status == "infinite":
            ok = hi.status == "infinite"
        else:
            ok = lo.finite and (hi.status == "infinite" or (hi.finite and lo.value <= hi.value))
        yield (
            f"vol_mu(H) <= vol_mu(H (x) A), mu={render_weight(mu)}",
            _estimate(lo),
            _estimate(hi),
            ok,
            {"aux_degrees": aux.degrees, "aux_twist": aux.twist},
        )


def _translation(s):
    """Beyond a finite prefix, the mu-semigroup is the witness translate of
    the invariant semigroup, read up to m = 40; the prefix may reach
    m = 20."""
    m_max = 40
    gs = g_semigroup(s, m_max)
    for mu in s.default_mus(4):
        cert = geometry.numerically_compatible(s, mu)
        if not cert.compatible:
            # no witness: the mu-semigroup must be empty
            empty = mu_semigroup(s, mu, m_max) == frozenset()
            yield (
                f"incompatible mu has empty semigroup, mu={render_weight(mu)}",
                "empty" if empty else "nonempty",
                "empty",
                empty,
                {"mu": render_weight(mu)},
            )
            continue
        r = cert.witness
        translated = {r} | {r + m for m in gs}
        ms = mu_semigroup(s, mu, m_max)
        stab_point = next(
            (
                m0
                for m0 in range(0, m_max // 2 + 1)
                if ms & (window := set(range(m0 + 1, m_max + 1))) == translated & window
            ),
            None,
        )
        yield (
            f"mu-semigroup = witness + invariant semigroup beyond m_stab, mu={render_weight(mu)}",
            f"m_stab={stab_point}",
            f"m_stab <= {m_max // 2}",
            stab_point is not None,
            {"r": r, "mu": render_weight(mu)},
        )


def continuity_family():
    """The rank-one family on P^2 with weights (-1,1,1): bundles (d, c) for
    d in 1..6 and c in -3..3, each derived from one base scenario, so the
    members share its space: one level store and one column lattice."""
    base = circle_scenario([[-1, 1, 1]], [1])
    return [((d, c), with_bundle(base, LinearizedBundle((d,), (c,)))) for d in range(1, 7) for c in range(-3, 4)]


def _continuity(family):
    """On the regular members of the family, |vol_0(D) - vol_0(D')| is
    bounded by C ||D - D'|| in the max-coordinate norm; the law reports
    the minimal such C (the bound exponent n-g-1 is 0 here)."""
    values = {}
    for key, s in family:
        if not _regular(s):
            continue
        est = equivariant_volume(s, 0)
        witness = {"d": key[0], "c": key[1]}
        yield f"vol_0 finite on regular class (d, c)={key}", _estimate(est), "finite", est.finite, witness
        if est.finite:
            values[key] = est.value
    # (a, b, |vol_0(a) - vol_0(b)|, max-norm(a - b)) over every grid pair
    pairs = [
        (a, b, abs(values[a] - values[b]), max(abs(a[0] - b[0]), abs(a[1] - b[1])))
        for a, b in combinations(sorted(values), 2)
    ]
    c_min, worst = Fraction(0), None
    for a, b, gap, dist in pairs:
        if gap / dist > c_min:
            c_min, worst = gap / dist, (a, b)
    yield (
        "finite C with |vol_0(D) - vol_0(D')| <= C max-norm(D - D') over all grid pairs",
        f"C = {render_rational(c_min)}",
        "finite",
        all(gap <= c_min * dist for _, _, gap, dist in pairs),
        {"grid_points": len(values), "attained_at": worst, "norm": "max_coordinate"},
    )


# each suite's law and scope, in the order `equivol verify` runs them
_SUITES = {
    "oracle": (_oracle, _every),
    "homogeneity": (_homogeneity, _supported),
    "exponent_law": (_exponent_law, _every),
    "compatibility": (_compatibility, _regular),
    "vanishing": (_vanishing, _supported),
    "monotonicity": (_monotonicity, _supported),
    "translation": (_translation, _regular),
    "continuity": (_continuity, _every),
}
SUITE_NAMES = tuple(_SUITES)
