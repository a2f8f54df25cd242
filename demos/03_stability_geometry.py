"""Moment images, stability classes and the closed-form volume law.

The moment image of a linearized bundle is its weight hull; where the
origin sits relative to that hull classifies the bundle:

* regular: 0 interior and not a critical value -> stable = semistable,
  and vol_mu(L) = dim(V_mu)^2 vol_0 exactly when mu is numerically
  compatible with the bundle's stabilizer character, else 0;
* boundary: 0 on a wall (strictly semistable points exist);
* unstable everywhere: 0 outside the image, all volumes vanish with an
  explicit bound;
* trivial action.
"""

from equivol import (
    circle_scenario,
    classify_stability,
    dh_slice_volume,
    equivariant_volume,
    generic_stabilizer,
    numerically_compatible,
    predicted_volume,
    section_dimension,
    su2_scenario,
    vanishing_certificate,
)

examples = [
    ("P^2 (-1,1,1)", circle_scenario([[-1, 1, 1]], [1])),
    ("P^3 (0,1,1,1)", circle_scenario([[0, 1, 1, 1]], [1])),
    ("P^1 (1,2)", circle_scenario([[1, 2]], [1])),
    ("P^2 trivial", circle_scenario([[0, 0, 0]], [1])),
    ("su2 P^3 {1,1}", su2_scenario([[1, 1]], [1])),
]
print("stability classification:")
for label, s in examples:
    rep = classify_stability(s)
    img = rep.moment_image
    desc = f"interval {img.interval}" if img.rank == 1 else f"polygon {img.vertices}"
    print(f"  {label:18s} {rep.stability:22s} zero: {rep.zero_position:18s} {desc}")

# Generic stabilizers carry the characters deciding positivity.
p2 = circle_scenario([[-1, 1, 1]], [1])
print("\ngeneric stabilizer of the P^2 example: order",
      generic_stabilizer(p2).order)
for mu in (0, 1, 2):
    cert = numerically_compatible(p2, mu)
    print(f"  mu={mu}: witness r = {cert.witness}")

# On regular scenarios the counted volume matches the prediction exactly.
vol0 = equivariant_volume(p2, 0).value
print("\nprediction vs counted on P^2:")
for mu in range(-2, 3):
    pred = predicted_volume(p2, mu, vol0)
    got = equivariant_volume(p2, mu).value
    print(f"  mu={mu:+d}: predicted {pred}, counted {got}")

# The reduced-space volume has an independent closed form: the
# Duistermaat-Heckman density of the moment simplex at 0, a B-spline whose
# knots are the weights (here the square slice of a tetrahedron).
p3 = circle_scenario([[-1, -1, 1, 1]], [1])
print("\nslice volume on P^3 (-1,-1,1,1):", dh_slice_volume(p3),
      "= counted vol_0:", equivariant_volume(p3, 0).value)

# Unstable scenarios come with explicit vanishing bounds.
unstable = circle_scenario([[1, 2]], [1])
print("\nvanishing bounds on the unstable P^1:")
for mu in (0, 3, 5):
    r = vanishing_certificate(unstable, mu)
    alive = [k for k in range(1, r) if section_dimension(unstable, k, mu)]
    print(f"  mu={mu}: zero for k >= {r} (support below: {alive})")
