"""Verification suites tying counted values to the structural laws.

Each suite runs a family of exact checks over a scenario corpus and
returns a :class:`SuiteReport`; a suite passes only if every record
passes, and every record carries the data needed to re-run it in
isolation.  An estimate that is not finite where a law needs a finite one
fails the affected check with its status recorded, never silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import gcd

from . import geometry
from .counting import (
    brute_force_oracle,
    conservation_sides,
    full_weight_distribution,
    section_dimension,
    section_dimensions,
)
from .model import LinearizedBundle, Scenario, scenario_power, tensor_product, with_bundle
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
        return {
            "scenario": self.scenario,
            "claim": self.claim,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "passed": self.passed,
            "witness": self.witness,
        }


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
    """Run one named suite over corpus pairs (label, scenario)."""
    if name not in _RUNNERS:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    return _RUNNERS[name](corpus)


# ---------------------------------------------------------------------------


def suite_oracle(corpus) -> SuiteReport:
    """Engine distribution == brute-force enumeration, plus conservation,
    at k = 0..8."""
    records = []
    for name, s in corpus:
        for k in range(0, 9):
            engine = full_weight_distribution(s, k)
            oracle = brute_force_oracle(s, k)
            ok = engine == oracle
            records.append(
                CheckRecord(
                    name,
                    f"full_weight_distribution == brute_force_oracle at k={k}",
                    f"{len(engine)} weights",
                    f"{len(oracle)} weights",
                    ok,
                    {} if ok else {"engine": str(engine), "oracle": str(oracle)},
                )
            )
            lhs, rhs = conservation_sides(s, k, engine)
            records.append(CheckRecord(name, f"conservation at k={k}", str(lhs), str(rhs), lhs == rhs))
    return SuiteReport("oracle", [n for n, _ in corpus], records)


def suite_homogeneity(corpus) -> SuiteReport:
    """vol_mu(L^p) = p^(n-g) vol_mu(L) for gcd(p, e)=1, and the
    unconditional trivial-representation law for q in [1, 6]."""
    records = []
    for name, s in corpus:
        if not geometry.supported(s):
            continue
        D = s.quotient_degree
        vol0 = equivariant_volume(s, s.zero_weight)
        if vol0.finite:
            for q in range(1, 7):
                lhs = equivariant_volume(scenario_power(s, q), s.zero_weight)
                ok = lhs.finite and lhs.value == Fraction(q) ** D * vol0.value
                records.append(
                    CheckRecord(
                        name,
                        f"vol_0(L^{q}) = {q}^(n-g) vol_0(L)",
                        f"{render_rational(lhs.value)} [{lhs.status}]",
                        render_rational(Fraction(q) ** D * vol0.value),
                        ok,
                        {"q": q},
                    )
                )
        rep = geometry.classify_stability(s)
        er = g_exponent(s)
        if rep.stability != "regular" or er.exponent is None:
            continue
        for p in (3, 5):
            if gcd(p, er.exponent) != 1:
                continue
            sp = scenario_power(s, p)
            for mu in s.default_mus(2):
                base = equivariant_volume(s, mu)
                lhs = equivariant_volume(sp, mu)
                ok = (
                    base.finite
                    and lhs.finite
                    and lhs.value == Fraction(p) ** D * base.value
                )
                records.append(
                    CheckRecord(
                        name,
                        f"vol_mu(L^{p}) = {p}^(n-g) vol_mu(L) at mu={render_weight(mu)}",
                        f"{render_rational(lhs.value)} [{lhs.status}]",
                        render_rational(None if not base.finite else Fraction(p) ** D * base.value),
                        ok,
                        {"p": p, "mu": render_weight(mu)},
                    )
                )
    return SuiteReport("homogeneity", [n for n, _ in corpus], records)


def suite_exponent_law(corpus) -> SuiteReport:
    """e_G(L^p) = e_G(L)/gcd(p, e_G(L)) for p in [1, 12], each power's
    semigroup read up to m = 12 (exponents stabilize at once on the corpus)."""
    records = []
    for name, s in corpus:
        er = g_exponent(s)
        if er.exponent is None:
            continue
        e = er.exponent
        for p in range(1, 13):
            got = g_exponent(scenario_power(s, p), 12).exponent
            want = e // gcd(p, e)
            records.append(
                CheckRecord(
                    name,
                    f"e_G(L^{p}) = e_G(L)/gcd({p}, e_G(L))",
                    str(got),
                    str(want),
                    got == want,
                    {"p": p, "e": e},
                )
            )
    return SuiteReport("exponent_law", [n for n, _ in corpus], records)


def suite_compatibility(corpus) -> SuiteReport:
    """Regular scenarios: vol_mu > 0 iff a compatibility witness exists,
    and positive volumes equal dim(V_mu)^2 vol_0 exactly."""
    records = []
    for name, s in corpus:
        if not geometry.supported(s):
            continue
        if geometry.classify_stability(s).stability != "regular":
            continue
        vol0 = equivariant_volume(s, s.zero_weight)
        records.append(
            CheckRecord(
                name,
                "vol_0 is exact and positive on a regular scenario",
                f"{render_rational(vol0.value)} [{vol0.status}]",
                "positive",
                vol0.positive,
            )
        )
        if not vol0.positive:
            continue
        for mu in s.default_mus():
            cert = geometry.numerically_compatible(s, mu)
            est = equivariant_volume(s, mu)
            predicted = geometry.predicted_volume(s, mu, vol0.value)
            ok = est.finite and (est.value > 0) == cert.compatible and est.value == predicted
            records.append(
                CheckRecord(
                    name,
                    f"vol_mu > 0 iff compatible, and equals dim(V_mu)^2 vol_0, mu={render_weight(mu)}",
                    f"{render_rational(est.value)} [{est.status}]",
                    render_rational(predicted),
                    ok,
                    {"witness": cert.witness, "mu": render_weight(mu)},
                )
            )
    return SuiteReport("compatibility", [n for n, _ in corpus], records)


def suite_vanishing(corpus) -> SuiteReport:
    """Counted support lies in the scaled moment image for k <= 12; on
    unstable scenarios the counts vanish from the emitted bound up to
    k = 40."""
    records = []
    for name, s in corpus:
        if not geometry.supported(s):
            continue
        img = geometry.moment_image(s)
        bad = []
        for k in range(1, 13):
            for mu in full_weight_distribution(s, k):
                if not img.scaled_contains(s.weight_vec(mu), k):
                    bad.append((k, render_weight(mu)))
        records.append(
            CheckRecord(
                name,
                "support of H^0(L^k) inside k * moment image, k <= 12",
                f"{len(bad)} escapes",
                "0 escapes",
                not bad,
                {"escapes": bad[:5]},
            )
        )
        if geometry.classify_stability(s).stability != "unstable_everywhere":
            continue
        for mu in s.default_mus():
            r = geometry.vanishing_certificate(s, mu)
            ok = r is not None and not any(section_dimensions(s, mu, range(r, 41)))
            records.append(
                CheckRecord(
                    name,
                    f"counts vanish for k >= r_mu, mu={render_weight(mu)}",
                    f"r_mu={r}",
                    "zero up to k=40",
                    ok,
                    {"mu": render_weight(mu), "r_mu": r},
                )
            )
    return SuiteReport("vanishing", [n for n, _ in corpus], records)


def _invariantly_effective_bundle(s: Scenario):
    """Small bundle A on the same space with a nonzero invariant section."""
    nf = len(s.factors)
    g = 0 if s.group.is_su2 else s.group.dim
    degree_choices = range(1, 4)
    twist_choices = [()] if s.group.is_su2 else list(product(range(-3, 4), repeat=g))
    for dmax in degree_choices:
        for degs in product(range(1, dmax + 1), repeat=nf):
            if max(degs) != dmax:
                continue
            for tw in twist_choices:
                cand = LinearizedBundle(degs, tw)
                if section_dimension(with_bundle(s, cand), 1, s.zero_weight) > 0:
                    return cand
    return None


def suite_monotonicity(corpus) -> SuiteReport:
    """Tensoring with an invariantly effective bundle never shrinks volumes."""
    records = []
    for name, s in corpus:
        if not geometry.supported(s):
            continue
        aux = _invariantly_effective_bundle(s)
        if aux is None:
            continue
        bigger = with_bundle(s, tensor_product(s.bundle, aux))
        for mu in s.default_mus(3):
            lo = equivariant_volume(s, mu)
            hi = equivariant_volume(bigger, mu)
            if lo.status == "infinite":
                ok = hi.status == "infinite"
            else:
                ok = lo.finite and (hi.status == "infinite" or (hi.finite and lo.value <= hi.value))
            records.append(
                CheckRecord(
                    name,
                    f"vol_mu(H) <= vol_mu(H (x) A), mu={render_weight(mu)}",
                    f"{render_rational(lo.value)} [{lo.status}]",
                    f"{render_rational(hi.value)} [{hi.status}]",
                    ok,
                    {"aux_degrees": aux.degrees, "aux_twist": aux.twist},
                )
            )
    return SuiteReport("monotonicity", [n for n, _ in corpus], records)


def suite_translation(corpus) -> SuiteReport:
    """Beyond a finite prefix, the mu-semigroup is the witness translate of
    the invariant semigroup on regular scenarios, read up to m = 40; the
    prefix may reach m = 20."""
    m_max = 40
    records = []
    for name, s in corpus:
        if not geometry.supported(s):
            continue
        if geometry.classify_stability(s).stability != "regular":
            continue
        gs = g_semigroup(s, m_max)
        for mu in s.default_mus(4):
            cert = geometry.numerically_compatible(s, mu)
            if not cert.compatible:
                # no witness: the mu-semigroup must be empty
                empty = mu_semigroup(s, mu, m_max) == frozenset()
                records.append(
                    CheckRecord(
                        name,
                        f"incompatible mu has empty semigroup, mu={render_weight(mu)}",
                        "empty" if empty else "nonempty",
                        "empty",
                        empty,
                        {"mu": render_weight(mu)},
                    )
                )
                continue
            r = cert.witness
            translated = {r} | {r + m for m in gs}
            ms = mu_semigroup(s, mu, m_max)
            stab_point = None
            for m0 in range(0, m_max // 2 + 1):
                window = set(range(m0 + 1, m_max + 1))
                if ms & window == translated & window:
                    stab_point = m0
                    break
            records.append(
                CheckRecord(
                    name,
                    f"mu-semigroup = witness + invariant semigroup beyond m_stab, mu={render_weight(mu)}",
                    f"m_stab={stab_point}",
                    f"m_stab <= {m_max // 2}",
                    stab_point is not None,
                    {"r": r, "mu": render_weight(mu)},
                )
            )
    return SuiteReport("translation", [n for n, _ in corpus], records)


def continuity_family():
    """The rank-one family on P^2 with weights (-1,1,1): bundles (d, c) for
    d in 1..6 and c in -3..3."""
    from .model import circle_scenario

    fam = []
    for d in range(1, 7):
        for c in range(-3, 4):
            fam.append(((d, c), circle_scenario([[-1, 1, 1]], [d], twist=c)))
    return fam


def suite_continuity(corpus) -> SuiteReport:
    """On the regular members of the P^2 family, |vol_0(D) - vol_0(D')| is
    bounded by C ||D - D'|| in the max-coordinate norm; the suite reports
    the minimal such C (the bound exponent n-g-1 is 0 here)."""
    records = []
    values = {}
    for key, s in continuity_family():
        if geometry.classify_stability(s).stability != "regular":
            continue
        est = equivariant_volume(s, 0)
        records.append(
            CheckRecord(
                "p2_family",
                f"vol_0 finite on regular class (d, c)={key}",
                f"{render_rational(est.value)} [{est.status}]",
                "finite",
                est.finite,
                {"d": key[0], "c": key[1]},
            )
        )
        if est.finite:
            values[key] = est.value
    c_min = Fraction(0)
    worst = None
    keys = sorted(values)
    for i, a in enumerate(keys):
        for b in keys[i + 1 :]:
            dist = max(abs(a[0] - b[0]), abs(a[1] - b[1]))
            ratio = abs(values[a] - values[b]) / dist
            if ratio > c_min:
                c_min, worst = ratio, (a, b)
    bound_holds = all(
        abs(values[a] - values[b]) <= c_min * max(abs(a[0] - b[0]), abs(a[1] - b[1]))
        for a in keys
        for b in keys
        if a < b
    )
    records.append(
        CheckRecord(
            "p2_family",
            "finite C with |vol_0(D) - vol_0(D')| <= C max-norm(D - D') over all grid pairs",
            f"C = {render_rational(c_min)}",
            "finite",
            bound_holds,
            {"grid_points": len(values), "attained_at": worst, "norm": "max_coordinate"},
        )
    )
    return SuiteReport("continuity", ["p2_family"], records)


# the suites by name, in the order `equivol verify` runs them
_RUNNERS = {
    "oracle": suite_oracle,
    "homogeneity": suite_homogeneity,
    "exponent_law": suite_exponent_law,
    "compatibility": suite_compatibility,
    "vanishing": suite_vanishing,
    "monotonicity": suite_monotonicity,
    "translation": suite_translation,
    "continuity": suite_continuity,
}
SUITE_NAMES = tuple(_RUNNERS)
