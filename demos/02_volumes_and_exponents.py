"""Equivariant volumes, invariant semigroups and exponents.

The equivariant volume vol_mu(L) measures the growth of the mu-isotypic
part of the section ring: limsup of (n-g)! dim H^0(L^k)_mu / k^(n-g).
On these spaces the dimension counts are eventually quasi-polynomial, with
a period and a start computed from the weights, so the limsup is computed
exactly by interpolating each residue class.
"""

from equivol import (
    circle_scenario,
    equivariant_volume,
    g_exponent,
    g_semigroup,
    mu_semigroup,
    residue_volume,
    scenario_power,
    su2_scenario,
)

# Invariant sections of O(m) on P^1 with weights (1,-1) need balanced
# exponents, so they exist exactly in even degrees: exponent 2.
p1 = circle_scenario([[1, -1]], [1])
print("P^1, weights (1,-1):")
print("  invariant semigroup up to 12:", sorted(g_semigroup(p1, 12)))
print("  exponent:", g_exponent(p1, 12).exponent)
print("  mu=1 semigroup:", sorted(mu_semigroup(p1, 1, 12)))

# Volumes per residue class: odd powers carry the odd weights.
for f in (0, 1):
    rv = residue_volume(p1, 1, f)
    print(f"  residue f={f}: value {rv.value} [{rv.status}]")
print("  vol_mu(O(1)) for mu in -3..3:",
      [equivariant_volume(p1, mu).value for mu in range(-3, 4)])

# Squaring the bundle kills the odd classes outright.
p1_sq = scenario_power(p1, 2)
print("  vol_1(O(2)):", equivariant_volume(p1_sq, 1).value)

# A positive-dimensional quotient: the volume is a genuine rational.
p2 = circle_scenario([[-1, 1, 1]], [1])
print("\nP^2, weights (-1,1,1):  vol_mu(O(1)) =",
      equivariant_volume(p2, 0).value)

# Weights (-1,1,2) refine the residue class: the invariant count follows a
# period-6 pattern, the lcm of the weight differences 2, 3 and 1.
skew = circle_scenario([[-1, 1, 2]], [1])
est = equivariant_volume(skew, 0)
print("\nP^2, weights (-1,1,2): vol_0 =", est.value,
      f"(fit period {est.fit.period}, degree {est.fit.degree})")

# Trivial actions have infinite 0-volume: flagged, never an error.
trivial = circle_scenario([[0, 0, 0]], [1])
print("\ntrivial action: vol_0 status =", equivariant_volume(trivial, 0).status,
      "/ vol_1 =", equivariant_volume(trivial, 1).value)

# SU(2) on P^5 = P(V+V+V): quotient dimension 2, volumes (mu+1)^2 / 4.
su2 = su2_scenario([[1, 1, 1]], [1])
print("\nSU(2) on P^5: vol_mu =",
      [str(equivariant_volume(su2, mu).value) for mu in range(4)])
