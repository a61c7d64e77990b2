"""The two classification directions and the classical corollaries.

solve_SQ answers: given the relation Q, which tubes satisfy it?
solve_QS answers: given one fixed tube, which relations does it satisfy?
The corollaries specialize to linear relations, constant second-
fundamental-form length, principal-curvature relations and the
true-nonlinear question.
"""

from fractions import Fraction

from weingarten_tubes import (
    EUCLIDEAN,
    TubeIdentity,
    classify_linear,
    classify_second_fundamental,
    solve_QS,
    solve_SQ,
    solve_SQ_principal,
    true_nonlinear_witness,
    tube_generator,
)
from weingarten_tubes.cli import parse_poly


def print_report(report):
    for lane in report.lanes:
        tag = f"{lane.tag.space}, eps={lane.tag.eps}"
        if lane.all_cylinders_any_radius:
            print(f"  [{tag}] right cylinders of every radius")
        for cls in lane.classes:
            rad = cls.radius
            value = str(rad.exact_value) if rad.exact_value is not None else f"~{rad.approx():.6f}"
            extra = f"  (quotient {cls.quotient})" if cls.quotient is not None else ""
            print(f"  [{tag}] {cls.kind} at radius {value}{extra}")
        if lane.is_empty:
            print(f"  [{tag}] no tubes at all")


Q = parse_poly("14*y - 25*x + 100*x*y - 40*y^2 - 1")
print("Which tubes satisfy Q(K, H) = 0 for Q =", Q, "?")
print_report(solve_SQ(Q, "euclidean"))

print("\nWhich relations does the Euclidean radius-2 tube family satisfy?")
tube = TubeIdentity(EUCLIDEAN, Fraction(2), is_right_cylinder=False)
description = solve_QS(tube)
print("  a principal ideal?", description.is_principal, " generator:", description.generator())
big = parse_poly(
    "4*x^4 + 8*x^2*y^2 - 12*x*y^3 + 9*x^3 + 9*x^2*y - 9*x*y^2 - 4*y^3"
    " + 22*x^2 - 8*x*y - 7*y^2 - 91*x + 98*y - 24"
)
print("  contains the degree-4 example?", description.contains(big))
print("  contains y - 1?", description.contains(parse_poly("y - 1")))

print("\nFor a right cylinder the relation set is the ideal of relations vanishing")
print("at its curvature point (0, 1/(2r)), generated by x and 2*r*y - 1 but not")
print("principal; membership means 'radius lies in the radius set':")
cylinder = TubeIdentity(EUCLIDEAN, Fraction(2), is_right_cylinder=True)
print("  cylinder r=2 satisfies Q?", solve_QS(cylinder).contains(Q))

print("\nLinear relations a*x + b*y - c:")
for a, b, c in ((Fraction(2), Fraction(0), Fraction(0)), (Fraction(-1, 8), Fraction(1), Fraction(2)), (Fraction(1), Fraction(2), Fraction(3))):
    print(f"  a={a}, b={b}, c={c}:")
    for case in classify_linear(a, b, c, "all"):
        detail = ""
        if case.radius is not None:
            key = "sinh r" if case.tag.space == "hyperbolic" else "r"
            detail = f" at {key} = {case.radius}"
            if case.discriminant is not None:
                detail += f" (discriminant {case.discriminant})"
        print(f"    [{case.tag.space}, eps={case.tag.eps}] {case.kind}{detail}")

print("\nConstant second-fundamental-form length |A| = 2 (relation -2x + 4y^2 - 4):")
print_report(classify_second_fundamental(Fraction(2), "all"))

print("\nPrincipal-curvature relation k1 + 2*k2 - 3 = 0 (Euclidean):")
print_report(solve_SQ_principal(parse_poly("k1 + 2*k2 - 3", ("k1", "k2"))))

print("\nTrue nonlinear relations: can a tube satisfy a nonlinear relation")
print("with no nontrivial divisor it also satisfies?")
verdict = true_nonlinear_witness(big, tube)
print(f"  non-cylinder tube: {verdict.kind}; dividing witness {verdict.witness}")
q_cyl = parse_poly("x^2 + 4*y^2 - 4*y + 1")  # x^2 + (2y-1)^2, vanishes at (0, 1/2)
verdict = true_nonlinear_witness(q_cyl, TubeIdentity(EUCLIDEAN, Fraction(1), True))
print(f"  right cylinder:    {verdict.kind} ({verdict.note})")

print("\nSquare of a generator is never 'true nonlinear' on its tube:")
gen = tube_generator(Fraction(3, 2))
verdict = true_nonlinear_witness(gen * gen, TubeIdentity(EUCLIDEAN, Fraction(3, 2), False))
print(f"  {verdict.kind}, witness {verdict.witness}")
