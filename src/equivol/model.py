"""Exact scalar types, groups, spaces, linearized bundles and scenarios.

Everything downstream consumes the immutable records defined here.  All
arithmetic is exact: weights, degrees and twists are Python ints, volumes
are ``fractions.Fraction``.  Nothing in this package ever rounds.

Conventions
-----------
* A circle-power group ``(S^1)^g`` acts diagonally on a product of
  projective spaces; each homogeneous coordinate of each factor carries an
  integer weight vector of length ``g`` (``t . z_i = t^{w_i} z_i``).
* An SU(2) factor is ``P(W)`` with ``W`` a direct sum of symmetric powers
  ``Sym^{m_i}(C^2)``; the block list ``sym_powers`` records the ``m_i``.
* A linearized bundle is a multidegree (one entry >= 1 per factor) plus a
  character twist (circle powers only; SU(2) has no nontrivial characters).
* Sections transform covariantly with coordinates: the monomial
  ``z^alpha`` in ``H^0(M, L^{tensor k})`` has weight
  ``sum_i alpha_i w_i + k*c``.  The sign is pinned by counts in
  ``tests/test_model.py`` (``test_p2_counts_pin_the_sign_convention``): on
  the rank-one action with weights (-1, 1, 1) on P^2, the weight-mu
  monomials are exactly ``z0^(k-a-b) z1^a z2^b, a+b=(k+mu)/2``, so there
  are (k+mu)/2 + 1 of them.  The opposite convention corresponds to
  mu -> -mu.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd
from typing import NamedTuple

from .lattice import ColumnLattice, column_lattice

Rational = Fraction

CIRCLE_POWER = "circle_power"
SU2 = "su2"


class ScenarioError(ValueError):
    """Malformed scenario data (dimension mismatches, bad weights, ...)."""


class UnsupportedScenario(ValueError):
    """Structurally valid input outside the supported geometry scope."""


@dataclass(frozen=True)
class GroupSpec:
    """Compact connected group: a circle power or SU(2).

    ``dim`` is the real dimension of the group (the number of circle
    factors, or 3 for SU(2)); quotient dimensions are ``n - dim``.
    """

    kind: str
    dim: int

    @property
    def torus_rank(self) -> int:
        return 1 if self.kind == SU2 else self.dim

    @property
    def is_su2(self) -> bool:
        return self.kind == SU2


@dataclass(frozen=True)
class ProjectiveFactor:
    """One projective factor P^dim of the ambient product.

    Exactly one of ``weights`` / ``sym_powers`` is set, matching the group
    kind.  ``weights`` holds dim+1 integer vectors of length g;
    ``sym_powers`` holds the SU(2) block degrees m_i with
    sum(m_i + 1) = dim + 1.
    """

    dim: int
    weights: tuple[tuple[int, ...], ...] | None = None
    sym_powers: tuple[int, ...] | None = None

    def torus_weights(self) -> tuple[tuple[int, ...], ...]:
        """Per-coordinate torus weight vectors (length-1 for su2 blocks)."""
        if self.weights is not None:
            return self.weights
        out = []
        for m in self.sym_powers:
            out.extend((m - 2 * a,) for a in range(m + 1))
        return tuple(out)


@dataclass(frozen=True)
class LinearizedBundle:
    """Ample multidegree plus global character twist."""

    degrees: tuple[int, ...]
    twist: tuple[int, ...] = ()


class WeightLayout(NamedTuple):
    """The factors' torus weights on the lattice of each coordinate's
    common step: per factor, the least weight in each coordinate (``mins``),
    every weight reduced to (w_i - min_i) / steps_i (``reduced``) and the
    largest reduced weight in each coordinate (``reach``).  ``steps_i`` is
    the gcd over all factors of w_i - min_i, or 1 when the coordinate is
    constant; SU(2) weights move in steps of 2."""

    mins: tuple
    steps: tuple[int, ...]
    reduced: tuple
    reach: tuple


@dataclass(frozen=True)
class Space:
    """The group and the product of projective factors it acts on.

    What the space alone determines is built here once, as cached
    properties, and every scenario on this space reads the same objects:
    :func:`with_bundle` keeps the space and changes only the bundle.
    Equality and hashing are by value; a space parsed on its own starts
    with nothing built and empty stores."""

    group: GroupSpec
    factors: tuple[ProjectiveFactor, ...]

    @cached_property
    def torus_weights(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Each factor's torus weight vectors."""
        return tuple(f.torus_weights() for f in self.factors)

    @cached_property
    def weight_layout(self) -> WeightLayout:
        """The torus weights reduced by each coordinate's common step; the
        packed counts in :attr:`level_store` are laid out by it."""
        wss = self.torus_weights
        mins = tuple(tuple(map(min, zip(*ws))) for ws in wss)
        steps = tuple(
            gcd(*[w[i] - a[i] for ws, a in zip(wss, mins) for w in ws]) or 1 for i in range(len(mins[0]))
        )
        reduced = tuple(
            tuple(tuple((x - b) // g for x, b, g in zip(w, a, steps)) for w in ws) for ws, a in zip(wss, mins)
        )
        return WeightLayout(mins, steps, reduced, tuple(tuple(map(max, zip(*ws))) for ws in reduced))

    @cached_property
    def column_lattice(self) -> ColumnLattice:
        """The lattice of the weight matrix A's columns: the fit's period
        and walls, the generic stabilizer and the critical values all read
        it."""
        return column_lattice(self.torus_weights)

    @cached_property
    def level_store(self) -> dict:
        """The packed weight counts of the factors, by tuple of factor
        degrees (k * d_j at level k), as ``counting`` builds them.  They
        depend on the space alone, so every bundle on it reads and fills
        this one dict."""
        return {}

    @cached_property
    def fit_store(self) -> dict:
        """The volume fits on this space, by (bundle, weight vector), as
        ``volumes`` fits them: one weight's class polynomials each, and
        once read, that weight's residue-class estimates.  A fit depends on
        the bundle and the weight alone, so it is made once for every
        scenario on the space that reads it."""
        return {}

    @cached_property
    def stability_store(self) -> dict:
        """The stability reports on this space, by bundle, as
        ``geometry.classify_stability`` makes them: the class and the moment
        image of each bundle, made once for every scenario on the space."""
        return {}


@dataclass(frozen=True)
class Scenario:
    """A linearized bundle on a space.  ``group`` and ``factors`` read the
    space's own; what else the space determines is read as
    ``s.space.<name>``."""

    space: Space
    bundle: LinearizedBundle

    @property
    def group(self) -> GroupSpec:
        return self.space.group

    @property
    def factors(self) -> tuple[ProjectiveFactor, ...]:
        return self.space.factors

    @property
    def dim(self) -> int:
        """Complex dimension n of the ambient product."""
        return sum(f.dim for f in self.factors)

    @property
    def quotient_degree(self) -> int:
        """n - g; negative only for su2 on small spaces."""
        return self.dim - self.group.dim

    @property
    def growth_degree(self) -> int:
        """Exponent used in the volume normalization: max(n - g, 0)."""
        return max(self.quotient_degree, 0)

    @property
    def negative_quotient(self) -> bool:
        return self.quotient_degree < 0

    def weight_key(self, vec: tuple[int, ...] | int):
        """Public form of a weight: plain int when 1-dimensional."""
        if isinstance(vec, int):
            return vec
        return vec[0] if len(vec) == 1 else vec

    def weight_vec(self, mu) -> tuple[int, ...]:
        """Internal vector form of a public weight ``mu``: an int at torus
        rank 1, else a sequence of length torus rank.  Every public entry
        point that takes a weight parses and checks it here, once: its
        length, and for su2 that it is a highest weight, mu >= 0."""
        group = self.space.group
        r = group.torus_rank
        if isinstance(mu, int):
            if r != 1:
                raise ScenarioError(f"weight {mu!r} must be a vector of length {r}")
            vec = (mu,)
        else:
            vec = tuple(int(x) for x in mu)
            if len(vec) != r:
                raise ScenarioError(f"weight {vec!r} must have length {r}")
        if vec[0] < 0 and group.is_su2:  # a nonnegative weight pays one comparison
            raise ScenarioError("su2 highest weights must be >= 0")
        return vec

    @property
    def twist_vec(self) -> tuple[int, ...]:
        """The bundle's character as a torus weight vector: zeros for SU(2),
        whose twist is ``()``.  Level k's weights sit k * twist_vec away from
        those of the untwisted bundle."""
        return self.bundle.twist or (0,) * self.group.torus_rank

    @property
    def ray(self) -> tuple[int, ...]:
        """b1 = (degrees, -twist): the sections of L^k of weight mu are the
        alpha >= 0 with A alpha = k*b1 + (0, mu), for the weight matrix A of
        ``column_lattice``."""
        return self.bundle.degrees + tuple(-c for c in self.twist_vec)

    @property
    def zero_weight(self):
        """The trivial weight, where the invariant sections live."""
        return self.weight_key((0,) * self.group.torus_rank)

    def dim_irrep(self, mu) -> int:
        """dim V_mu: 1 for circle powers, mu+1 for su2, with the su2
        weight parsed and checked by :meth:`weight_vec`."""
        if not self.space.group.is_su2:
            return 1
        return self.weight_vec(mu)[0] + 1

    def weights_in_box(self, lo: int, hi: int) -> list:
        """Weights with every coordinate in lo..hi, in lexicographic order;
        su2 weights start at 0."""
        if self.group.is_su2:
            lo = max(lo, 0)
        return [self.weight_key(v) for v in product(range(lo, hi + 1), repeat=self.group.torus_rank)]

    def default_mus(self, radius: int = 6) -> list:
        """The dominant weights the verification laws range over: the box of
        the given radius, clamped to 2 at torus rank >= 2."""
        r = min(radius, 2) if self.group.torus_rank > 1 else radius
        return self.weights_in_box(-r, r)


def validate_scenario(s: Scenario) -> Scenario:
    """Validate a scenario built in code through its document form: returns
    an equal, normalized scenario on a space of its own, with nothing built,
    or raises ScenarioError naming the field at fault.  Idempotent."""
    return scenario_from_dict(scenario_to_dict(s))


def circle_scenario(weights_per_factor, degrees, twist=None, g: int | None = None) -> Scenario:
    """Build and validate a circle-power scenario through its document form.

    ``weights_per_factor`` is a list of per-factor coordinate weight lists;
    weights, degrees and twist are integers, and a scalar weight or twist
    stands for a vector of length 1.  ``g`` defaults to the length of the
    first weight.
    """
    factors = []
    for ws in weights_per_factor:
        ws = [w if isinstance(w, int) else list(w) for w in ws]
        factors.append({"dim": len(ws) - 1, "weights": ws})
    if g is None:  # with no first weight the document is rejected for any g
        ws = factors[0]["weights"] if factors else []
        g = len(ws[0]) if ws and not isinstance(ws[0], int) else 1
    bundle = {"degrees": list(degrees)}
    if twist is not None:
        bundle["twist"] = twist if isinstance(twist, int) else list(twist)
    return scenario_from_dict({"group": CIRCLE_POWER, "g": g, "factors": factors, "bundle": bundle})


def su2_scenario(sym_powers_per_factor, degrees) -> Scenario:
    """Build and validate an SU(2) scenario through its document form."""
    factors = [{"dim": sum(sym) + len(sym) - 1, "sym_powers": list(sym)} for sym in sym_powers_per_factor]
    return scenario_from_dict({"group": SU2, "g": 3, "factors": factors, "bundle": {"degrees": list(degrees)}})


def tensor_power(b: LinearizedBundle, p: int) -> LinearizedBundle:
    """L^(tensor p): multidegree and twist both scale by p."""
    if p < 1:
        raise ScenarioError("tensor power must be >= 1")
    return LinearizedBundle(tuple(d * p for d in b.degrees), tuple(c * p for c in b.twist))


def tensor_product(a: LinearizedBundle, b: LinearizedBundle) -> LinearizedBundle:
    if len(a.degrees) != len(b.degrees):
        raise ScenarioError("bundles live on different products")
    return LinearizedBundle(
        tuple(x + y for x, y in zip(a.degrees, b.degrees)),
        tuple(x + y for x, y in zip(a.twist, b.twist)),
    )


def scenario_power(s: Scenario, p: int) -> Scenario:
    """`s` with the bundle L^p, through :func:`with_bundle`."""
    return with_bundle(s, tensor_power(s.bundle, p))


def with_bundle(s: Scenario, bundle: LinearizedBundle) -> Scenario:
    """`s` with another bundle on the same space.  Only the bundle is
    checked, against the space, as the document form checks it; the new
    scenario holds the very space of `s`, so whatever either of them builds
    from the space the other reads."""
    return Scenario(s.space, _checked_bundle(s.space, list(bundle.degrees), list(bundle.twist)))


def scenario_to_dict(s: Scenario) -> dict:
    """Serialize to the documented scenario-document structure; a weight
    vector of length 1 is written as its scalar."""
    factors = []
    for f in s.factors:
        rf: dict = {"dim": f.dim}
        if f.weights is not None:
            rf["weights"] = [w[0] if len(w) == 1 else list(w) for w in f.weights]
        if f.sym_powers is not None:
            rf["sym_powers"] = list(f.sym_powers)
        factors.append(rf)
    bundle: dict = {"degrees": list(s.bundle.degrees)}
    if s.bundle.twist:
        bundle["twist"] = list(s.bundle.twist)
    return {"group": s.group.kind, "g": s.group.dim, "factors": factors, "bundle": bundle}


def _is_int(x) -> bool:
    """JSON integers only: a bool is not an int here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_int_list(x) -> bool:
    return isinstance(x, list) and all(_is_int(v) for v in x)


def _int_list_field(value, field: str) -> tuple[int, ...]:
    if not _is_int_list(value):
        raise ScenarioError(f"field `{field}` must be a list of integers, got {value!r}")
    return tuple(value)


def scenario_from_dict(doc: dict) -> Scenario:
    """Parse and validate a scenario document in one pass.

    Every structural check of a scenario lives here, the bundle's in
    :func:`_checked_bundle`, which :func:`with_bundle` shares, and each
    error names the field at fault.  Values are JSON integers (a bool is
    not one).  A circle factor reads `weights` and an su2 factor reads
    `sym_powers`; an su2 factor that carries `weights` is rejected, and a
    circle factor ignores `sym_powers` like any other unknown key.
    """
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be an object")
    for field in ("group", "g", "factors", "bundle"):
        if field not in doc:
            raise ScenarioError(f"scenario document missing field `{field}`")
    kind, g = doc["group"], doc["g"]
    if kind not in (CIRCLE_POWER, SU2):
        raise ScenarioError(f"field `group` must be '{CIRCLE_POWER}' or '{SU2}', got {kind!r}")
    if not _is_int(g) or g < 1:
        raise ScenarioError("field `g` must be a positive integer")
    su2 = kind == SU2
    if su2 and g != 3:
        raise ScenarioError(f"field `g` must be 3 for su2, got {g}")

    raw_factors = doc["factors"]
    if not isinstance(raw_factors, list) or not raw_factors:
        raise ScenarioError("field `factors` must be a non-empty list")
    factors = []
    for j, rf in enumerate(raw_factors):
        if not isinstance(rf, dict) or "dim" not in rf:
            raise ScenarioError(f"factors[{j}] missing field `dim`")
        dim = rf["dim"]
        if not _is_int(dim) or dim < 1:
            raise ScenarioError(f"field `factors[{j}].dim` must be a positive integer, got {dim!r}")
        if su2 and "weights" in rf:
            raise ScenarioError(f"field `factors[{j}].weights` is not allowed: su2 factors take `sym_powers`")
        name = "sym_powers" if su2 else "weights"
        if name not in rf:
            raise ScenarioError(f"factors[{j}] missing field `{name}`")
        field, raw = f"factors[{j}].{name}", rf[name]
        if su2:
            sym = _int_list_field(raw, field)
            if min(sym, default=0) < 0 or sum(sym) + len(sym) != dim + 1:
                raise ScenarioError(
                    f"field `{field}` must hold powers m >= 0 with sum(m + 1) = dim + 1 = {dim + 1}, "
                    f"got {list(sym)}"
                )
            factors.append(ProjectiveFactor(dim=dim, sym_powers=sym))
            continue
        if not isinstance(raw, list) or not all(_is_int(w) or _is_int_list(w) for w in raw):
            raise ScenarioError(
                f"field `{field}` must be a list of integers or of integer lists, got {raw!r}"
            )
        if len(raw) != dim + 1:
            raise ScenarioError(f"field `{field}` has {len(raw)} coordinate weights, expected {dim + 1}")
        ws = tuple((w,) if _is_int(w) else tuple(w) for w in raw)
        if any(len(w) != g for w in ws):
            raise ScenarioError(f"field `{field}` must hold weight vectors of length {g}, got {raw!r}")
        factors.append(ProjectiveFactor(dim=dim, weights=ws))

    raw_bundle = doc["bundle"]
    if not isinstance(raw_bundle, dict) or "degrees" not in raw_bundle:
        raise ScenarioError("field `bundle` missing field `degrees`")
    space = Space(GroupSpec(kind, g), tuple(factors))
    return Scenario(space, _checked_bundle(space, raw_bundle["degrees"], raw_bundle.get("twist", [])))


def _checked_bundle(space: Space, degrees, twist) -> LinearizedBundle:
    """The bundle on `space` with the document's `bundle.degrees` and
    `bundle.twist` (a list of integers, or one integer for a twist of
    length 1), or ScenarioError naming the field at fault.  Both
    :func:`scenario_from_dict` and :func:`with_bundle` check bundles here."""
    degrees = _int_list_field(degrees, "bundle.degrees")
    if len(degrees) != len(space.factors) or min(degrees) < 1:
        raise ScenarioError(
            f"field `bundle.degrees` must hold one degree >= 1 (ample) per factor, "
            f"got {list(degrees)} for {len(space.factors)} factors"
        )
    twist = (twist,) if _is_int(twist) else _int_list_field(twist, "bundle.twist")
    if space.group.is_su2:
        if any(twist):
            raise ScenarioError(f"field `bundle.twist` must be zero for su2, got {list(twist)}")
        twist = ()
    else:
        g = space.group.dim
        twist = twist or (0,) * g
        if len(twist) != g:
            raise ScenarioError(f"field `bundle.twist` must have length {g}, got {list(twist)}")
    return LinearizedBundle(degrees, twist)
