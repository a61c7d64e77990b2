"""The Lorentzian causality/section table.

A Lorentzian tube is built from a central curve (spacelike or timelike),
the causality of its principal normal, and a choice of normal section:
Lorentzian circles (<x - gamma, x - gamma> = +r^2) or Lorentzian
hyperbolas (= -r^2).  Five of the six combinations exist; a timelike
curve has a spacelike normal plane, so hyperbola sections around it are
empty.  The signal eps of the resulting surface equals the section sign.
"""

import math

from weingarten_tubes import geometry as geo
from weingarten_tubes.errors import InvalidSpecRow

# the (mu, eta) pairs a section can have, at delta = +1
PAIRS = {"cos-sin": (math.cos, math.sin), "cosh-sinh": (math.cosh, math.sinh), "sinh-cosh": (math.sinh, math.cosh)}

ROWS = [
    ("spacelike", "spacelike", geo.l3_spacelike_helix_spacelike_normal(2.0, 1.0)),
    ("spacelike", "timelike", geo.l3_spacelike_helix_timelike_normal(2.0, 1.0)),
    ("timelike", "spacelike", geo.l3_timelike_helix(1.0, 2.0)),
]

print(f"{'curve':>10} | {'normal':>10} | {'section':>10} | outcome")
print("-" * 66)
for curve_kind, normal_kind, curve in ROWS:
    for section, label in ((geo.SECTION_L_CIRCLE, "circles"), (geo.SECTION_L_HYPERBOLA, "hyperbolas")):
        try:
            spec = geo.TubeSpec(curve, 0.4, section, delta=1)
        except InvalidSpecRow:
            print(f"{curve_kind:>10} | {normal_kind:>10} | {label:>10} | does not exist")
            continue
        mu, eta, *_ = spec.mu_eta(0.7)
        sample = geo.curvatures(spec, 0.5, 0.7)
        pair = next(name for name, (f, g) in PAIRS.items() if (mu, eta) == (f(0.7), g(0.7)))
        print(
            f"{curve_kind:>10} | {normal_kind:>10} | {label:>10} | "
            f"(mu, eta) = {pair:>9}, signal {sample.eps:+d}"
        )

print("\nRight cylinders (geodesic central curves) skip the Frenet frame and")
print("carry a constant orthonormal completion instead:")
for causality, normal in (("spacelike", "spacelike"), ("spacelike", "timelike"), ("timelike", "spacelike")):
    line = geo.l3_line(causality, normal)
    section = geo.SECTION_L_CIRCLE
    spec = geo.TubeSpec(line, 1.5, section)
    sample = geo.curvatures(spec, 0.3, 1.1)
    print(
        f"  {causality} line, {normal} normal, circles: "
        f"K = {sample.K:+.3e}, H = {sample.H:+.6f} (= eps/(2r), eps = {sample.eps:+d})"
    )
