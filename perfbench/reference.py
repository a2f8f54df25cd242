"""Independent arithmetic the workload checks compare against.

Nothing here calls equivol: weight counts come from an explicit recursion
over the coordinates of each factor, and total dimensions from binomial
coefficients, all read from the scenario document as written.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb


def factor_coordinates(doc: dict) -> list[tuple[tuple[int, ...], ...]]:
    """Per factor, the torus weight vector of every homogeneous coordinate."""
    out = []
    for f in doc["factors"]:
        if "sym_powers" in f:
            out.append(tuple((m - 2 * a,) for m in f["sym_powers"] for a in range(m + 1)))
        else:
            out.append(tuple(tuple(w) if isinstance(w, list) else (w,) for w in f["weights"]))
    return out


def twist_vector(doc: dict) -> tuple[int, ...]:
    rank = 1 if doc["group"] == "su2" else doc["g"]
    twist = doc["bundle"].get("twist") or [0] * rank
    return tuple(twist)


def total_dimension(doc: dict, k: int) -> int:
    """dim H^0(M, L^k) = prod_j C(n_j + k d_j, n_j)."""
    out = 1
    for f, d in zip(doc["factors"], doc["bundle"]["degrees"]):
        out *= comb(f["dim"] + k * d, f["dim"])
    return out


@lru_cache(maxsize=4096)
def _monomial_weights(coords: tuple[tuple[int, ...], ...], degree: int) -> tuple:
    """(weight, count) pairs over the degree-`degree` monomials in `coords`,
    found by choosing the exponent of the first coordinate and recursing."""
    head, rest = coords[0], coords[1:]
    if not rest:
        return ((tuple(degree * x for x in head), 1),)
    acc: dict = {}
    for a in range(degree + 1):
        for w, c in _monomial_weights(rest, degree - a):
            key = tuple(x + a * y for x, y in zip(w, head))
            acc[key] = acc.get(key, 0) + c
    return tuple(acc.items())


def torus_counts(doc: dict, k: int) -> dict:
    """Torus weight vector -> number of section monomials of L^k, twist included."""
    shift = tuple(k * c for c in twist_vector(doc))
    dist = {shift: 1}
    for coords, d in zip(factor_coordinates(doc), doc["bundle"]["degrees"]):
        nxt: dict = {}
        for w, c in _monomial_weights(coords, k * d):
            for x, a in dist.items():
                key = tuple(p + q for p, q in zip(x, w))
                nxt[key] = nxt.get(key, 0) + a * c
        dist = nxt
    return dist


def isotypic_dimensions(doc: dict, k: int) -> dict:
    """Dominant weight vector -> isotypic dimension dim H^0(M, L^k)_mu.

    Circle powers: the torus count itself.  SU(2): the multiplicity of V_mu
    is c(mu) - c(mu + 2) of the torus counts, times dim V_mu = mu + 1.
    """
    counts = torus_counts(doc, k)
    if doc["group"] != "su2":
        return {w: c for w, c in counts.items() if c}
    out = {}
    for (mu,), c in counts.items():
        if mu >= 0:
            n = c - counts.get((mu + 2,), 0)
            if n:
                out[(mu,)] = n * (mu + 1)
    return out
