"""Numeric verification: sample real tubes and evaluate the relations.

The algebra modules prove membership exactly; this script rebuilds the
surfaces in floating point, computes Gaussian/mean curvature from first
and second fundamental forms, and checks that the algebraic answers hold
to machine precision on sampled grids.
"""

import math
from fractions import Fraction

from weingarten_tubes import geometry as geo
from weingarten_tubes.cli import parse_poly
from weingarten_tubes.polyalg import Poly2

# --- Euclidean torus: circle of radius 10, tube radius 2 --------------------
spec = geo.TubeSpec(geo.e3_circle(10.0), 2.0, geo.SECTION_EUCLIDEAN, name="e3-torus")
s_grid, t_grid = geo.default_grids(spec, 48, 48)

gen = parse_poly("4*x - 4*y + 1")  # the radius-2 tube relation
result = geo.verify_relation(gen, spec, s_grid, t_grid)
print(f"torus, relation {gen}: max residual {result.max_residual:.3e} "
      f"over {result.regular_points} regular points")

wrong = parse_poly("y - 1")
result = geo.verify_relation(wrong, spec, s_grid, t_grid)
print(f"torus, relation {wrong}: max residual {result.max_residual:.3e}  (honestly large)")

sample = geo.curvatures(spec, 0.7, 1.3)
print(f"sample at (s, t) = (0.7, 1.3): K = {sample.K:+.12f} (closed form {sample.K_cf:+.12f})")
print(f"                               H = {sample.H:+.12f} (closed form {sample.H_cf:+.12f})")

# --- Lorentzian helix tubes: both section types ------------------------------
helix = geo.l3_spacelike_helix_spacelike_normal(2.0, 1.0)
for section in (geo.SECTION_L_CIRCLE, geo.SECTION_L_HYPERBOLA):
    tube = geo.TubeSpec(helix, 0.5, section, delta=1)
    sg, tg = geo.default_grids(tube, 32, 32)
    eps = geo.curvatures(tube, float(sg[1]), float(tg[1])).eps
    generator = Poly2([((1, 0), Fraction(1, 4)), ((0, 1), -1), ((0, 0), eps)])
    res = geo.verify_relation(generator, tube, sg, tg)
    print(f"L^3 {section} (signal {eps:+d}): |K/4 - H + ({eps})| <= {res.max_residual:.3e}")

# --- Hyperbolic tube over a constant-curvature curve -------------------------
tube = geo.TubeSpec(geo.h3_circle(2.0), 1.0, geo.SECTION_HYPERBOLIC, name="h3-tube")
sg, tg = geo.default_grids(tube, 32, 32)
sh = math.sinh(1.0)
generator = Poly2([((1, 0), Fraction(sh * sh)), ((0, 1), Fraction(-2 * sh)), ((0, 0), 1)])
res = geo.verify_relation(generator, tube, sg, tg)
print(f"H^3 tube r=1: |K sinh^2(1) - 2H sinh(1) + 1| <= {res.max_residual:.3e}")

# psi = cosh(r) gamma + sinh(r) (mu N + eta B) on the Frenet frame at s = 0.4
frame = geo.frenet_frame(tube.curve, 0.4)
mu, eta, *_ = tube.mu_eta(2.0)
point = math.cosh(1.0) * frame.gamma + math.sinh(1.0) * (mu * frame.N + eta * frame.B)
norm = point[:3] @ point[:3] - point[3] * point[3]  # the Lorentzian form of L^4
print(f"H^3 point stays on the hyperboloid: <psi, psi> = {norm:+.15f}")

# --- regularity and CSV dumps ------------------------------------------------
tight = geo.TubeSpec(geo.e3_circle(1.0), 1.0, geo.SECTION_EUCLIDEAN)
scan = geo.verify_relation(gen, tight, [0.0, 1.0], [0.0, 0.5, math.pi])
singular = scan.total_points - scan.regular_points
print(f"\nkappa = 1, r = 1 tube: {singular} grid singularities (xi = 0 at t = 0)")

csv_text = geo.curvature_csv(gen, spec, s_grid[:3], t_grid[:3])
print("\nCSV sample dump (first rows):")
for line in csv_text.strip().split("\n")[:4]:
    print("  " + line)
