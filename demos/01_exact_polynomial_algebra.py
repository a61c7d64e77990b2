"""Tour of the exact algebra layer.

Every regular tube of radius r (and signal eps in the Lorentzian space)
satisfies the linear curvature relation K*r^2 - 2*r*H + eps = 0.  A
polynomial relation Q(K, H) = 0 therefore holds on *all* tubes of radius
r exactly when Q is divisible by the generator x*r^2 - 2*r*y + eps, and
that divisibility is decidable by a single substitution.  This script
walks through the machinery on two worked examples.
"""

from fractions import Fraction

from weingarten_tubes import (
    divide_by_tube_factor,
    gamma_at,
    gamma_cleared,
    substitute_tube,
    tube_generator,
)
from weingarten_tubes.cli import parse_poly

Q = parse_poly("14*y - 25*x + 100*x*y - 40*y^2 - 1")
print("Q(x, y) =", Q)

print("\nSubstituting the tube curvature pencil (x -> x/r, y -> (x*r+1)/(2*r)):")
for r in (Fraction(2), Fraction(5)):
    image = substitute_tube(Q, r)
    verdict = "vanishes identically" if image.is_zero else f"= {image}"
    print(f"  r = {r}: Q(x/{r}, (x*{r}+1)/{2*r}) {verdict}")

print("\nSo Q is divisible by the radius-5 generator", tube_generator(5), ":")
print("  quotient =", divide_by_tube_factor(Q, 5))
print("  (verified by exact multiplication before being returned)")

print("\nThe substitution image coefficients come from an explicit formula;")
print("denominator-cleared they become polynomials in r whose common roots")
print("locate every radius at which the image vanishes:")
for k, g in enumerate(gamma_cleared(Q)):
    print(f"  g_{k}(r) = {g.to_string('r')}")

big = parse_poly(
    "4*x^4 + 8*x^2*y^2 - 12*x*y^3 + 9*x^3 + 9*x^2*y - 9*x*y^2 - 4*y^3"
    " + 22*x^2 - 8*x*y - 7*y^2 - 91*x + 98*y - 24"
)
print("\nA degree-4 example:")
print("  Q =", big)
print("  gamma coefficients at r = 1:", gamma_at(big, 1))
print("  in the ideal at r = 2?", substitute_tube(big, 2).is_zero)
print("  in the ideal at r = 1?", substitute_tube(big, 1).is_zero)
print("  quotient at r = 2:", divide_by_tube_factor(big, 2))

print("\nEverything above is exact rational arithmetic; no floats were involved.")
