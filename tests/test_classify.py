"""Classification drivers: S(Q) and Q(S) solvers plus the corollaries."""

import random
from fractions import Fraction

import pytest

from conftest import random_poly2
from weingarten_tubes.classify import (
    ALL_REGULAR_TUBES,
    RIGHT_CYLINDERS,
    TubeIdentity,
    classify_linear,
    classify_second_fundamental,
    solve_QS,
    solve_SQ,
    solve_SQ_principal,
    true_nonlinear_witness,
)
from weingarten_tubes.errors import (
    DegenerateRelation,
    LinearInput,
    NonpositiveLength,
    NonpositiveRadius,
    NotMember,
    ZeroPolynomial,
)
from weingarten_tubes.polyalg import Poly2, tube_generator
from weingarten_tubes.radius import (
    EUCLIDEAN,
    HYPERBOLIC,
    LORENTZIAN_NEG,
    LORENTZIAN_POS,
    isolate_positive_roots,
    radius_set,
)
from weingarten_tubes.polyalg import Poly1

X = Poly2.variable("x")
Y = Poly2.variable("y")


def lane_of(report, tag):
    return next(lane for lane in report.lanes if lane.tag == tag)


class TestSolveSQ:
    def test_example_sq(self, sq_poly):
        report = solve_SQ(sq_poly, "euclidean")
        (lane,) = report.lanes
        assert not lane.all_cylinders_any_radius
        assert [(c.kind, c.radius.exact_value) for c in lane.classes] == [
            (RIGHT_CYLINDERS, 2),
            (ALL_REGULAR_TUBES, 5),
        ]
        assert lane.classes[1].quotient == 4 * Y - Poly2.constant(1)

    def test_nonpositive_mean_curvature_empty(self):
        for c in (Fraction(0), Fraction(-2)):
            report = solve_SQ(Y - Poly2.constant(c), "euclidean")
            assert report.is_empty

    def test_second_fundamental_relation_lorentzian(self):
        # Q_c = -2x + 4y^2 - c^2: right cylinders of radius 1/c in both lanes
        c = Fraction(3, 2)
        q = -2 * X + 4 * Y * Y - Poly2.constant(c * c)
        report = solve_SQ(q, "lorentzian")
        for tag in (LORENTZIAN_POS, LORENTZIAN_NEG):
            lane = lane_of(report, tag)
            assert [(k.kind, k.radius.exact_value) for k in lane.classes] == [
                (RIGHT_CYLINDERS, 1 / c)
            ]

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            solve_SQ(Poly2.zero())

    def test_all_positive_with_star_radius(self):
        # x * (9x - 6y + 1) has zero axis restriction (cylinders of any
        # radius) and additionally every tube of radius 3 satisfies it
        q = X * tube_generator(3)
        report = solve_SQ(q, "euclidean")
        (lane,) = report.lanes
        assert lane.all_cylinders_any_radius
        assert [(c.kind, c.radius.exact_value) for c in lane.classes] == [
            (ALL_REGULAR_TUBES, 3)
        ]

    def test_theorem_fidelity_randomized(self):
        rng = random.Random(61)
        tags = (EUCLIDEAN, LORENTZIAN_POS, LORENTZIAN_NEG, HYPERBOLIC)
        for _ in range(40):
            cofactor = random_poly2(rng, 3)
            r = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            tag = tags[rng.randrange(len(tags))]
            q = tube_generator(r, tag.eps) * cofactor
            if q.is_zero:
                continue
            lane = lane_of(solve_SQ(q, tag.space), tag)
            star_kinds = {
                c.radius.exact_value: c.kind for c in lane.classes if c.radius.exact_value == r
            }
            assert star_kinds.get(r) == ALL_REGULAR_TUBES

    def test_empty_iff_radius_empty(self):
        rng = random.Random(67)
        for _ in range(60):
            q = random_poly2(rng, 4)
            if q.is_zero:
                continue
            report = solve_SQ(q, "euclidean")
            (lane,) = report.lanes
            rset = radius_set(q, EUCLIDEAN)
            has_radii = rset.is_all_positive or bool(rset.entries)
            assert (not lane.is_empty) == has_radii

    def test_irrational_star_has_no_quotient_witness(self):
        q = 4 * X * X - 8 * Y * Y + 4 * X + Poly2.constant(1)
        (lane,) = solve_SQ(q, "euclidean").lanes
        (cls,) = lane.classes
        assert cls.kind == ALL_REGULAR_TUBES
        assert cls.radius.exact_value is None
        assert cls.quotient is None


class TestSolveQS:
    def test_non_cylinder_membership(self, exq_poly):
        tube = TubeIdentity(EUCLIDEAN, Fraction(2), False)
        desc = solve_QS(tube)
        assert desc.is_principal
        assert desc.generator() == tube_generator(2)
        assert desc.contains(tube_generator(2))
        assert desc.contains(exq_poly)
        assert not desc.contains(exq_poly + Poly2.constant(1))

    def test_cylinder_membership(self):
        # the tube relation itself vanishes on the cylinder of its radius
        r = Fraction(7, 3)
        cyl = TubeIdentity(EUCLIDEAN, r, True)
        desc = solve_QS(cyl)
        assert not desc.is_principal
        assert desc.generator() is None
        assert desc.contains(tube_generator(r))
        # the kernel of evaluation at (0, 1/(2r)): generated by x and 2ry - 1
        assert desc.contains(X) and desc.contains(2 * r * Y - Poly2.constant(1))
        assert not desc.contains(Y - Poly2.constant(1))

    def test_lorentzian_cylinder_sff_membership(self):
        c = Fraction(2)
        q = -2 * X + 4 * Y * Y - Poly2.constant(c * c)
        cyl = TubeIdentity(LORENTZIAN_POS, 1 / c, True)
        assert solve_QS(cyl).contains(q)

    def test_irrational_radius_membership(self):
        sqrt2 = isolate_positive_roots(Poly1([-2, 0, 1]))[0]
        tube = TubeIdentity(EUCLIDEAN, sqrt2, False)
        q = 4 * X * X - 8 * Y * Y + 4 * X + Poly2.constant(1)
        assert solve_QS(tube).contains(q)
        assert not solve_QS(tube).contains(q + Poly2.constant(1))
        cyl = TubeIdentity(EUCLIDEAN, sqrt2, True)
        assert solve_QS(cyl).contains(q)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(NonpositiveRadius):
            TubeIdentity(EUCLIDEAN, Fraction(0), True)
        with pytest.raises(NonpositiveRadius):
            TubeIdentity(EUCLIDEAN, Fraction(-1), False)


class TestClassifyLinear:
    def test_cylinders_any_radius(self):
        cases = classify_linear(Fraction(2), Fraction(0), Fraction(0), "euclidean")
        assert cases[0].kind == "cylinders-any-radius"

    def test_all_tubes_on_vanishing_discriminant(self):
        # b^2 + 4ac = 0: a = -1/4, b = 1, c = 1, radius 1/2
        (case,) = classify_linear(Fraction(-1, 4), Fraction(1), Fraction(1), "euclidean")
        assert case.kind == "all-tubes"
        assert case.radius == Fraction(1, 2)
        assert case.discriminant == 0

    def test_lorentzian_signal_selection(self):
        # b, c nonzero: only the lane eps = sgn(bc) is populated
        a, b, c = Fraction(1), Fraction(-2), Fraction(3)
        pos, neg = classify_linear(a, b, c, "lorentzian")
        assert pos.kind == "empty"
        assert neg.kind == "right-cylinders"
        assert neg.radius == b * (-1) / (2 * c)
        assert neg.discriminant == -b * b + 4 * a * c

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateRelation):
            classify_linear(Fraction(0), Fraction(0), Fraction(5))

    def test_sweep_small(self):
        rng = random.Random(71)
        for _ in range(150):
            a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            b = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            if a == 0 and b == 0:
                continue
            # classify_linear raises InternalMismatch if it ever disagrees
            # with solve_SQ, so calling it is the assertion
            classify_linear(a, b, c, "all")


class TestSecondFundamental:
    @pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(1), Fraction(3)])
    def test_cylinders_only(self, c):
        report = classify_second_fundamental(c, "all")
        for lane in report.lanes:
            (cls,) = lane.classes
            assert cls.kind == RIGHT_CYLINDERS
            assert cls.radius.exact_value == 1 / c

    def test_nonpositive_rejected(self):
        with pytest.raises(NonpositiveLength):
            classify_second_fundamental(Fraction(0))


class TestPrincipal:
    def test_all_tubes_without_slope(self):
        # Q = by - c with bc > 0: all tubes of radius b/c
        q = 2 * Y - Poly2.constant(3)
        (lane,) = solve_SQ_principal(q).lanes
        (cls,) = lane.classes
        assert cls.kind == ALL_REGULAR_TUBES
        assert cls.radius.exact_value == Fraction(2, 3)
        assert cls.quotient == Poly2.constant(2)

    def test_cylinders_with_slope(self):
        q = X + 2 * Y - Poly2.constant(3)
        (lane,) = solve_SQ_principal(q).lanes
        (cls,) = lane.classes
        assert cls.kind == RIGHT_CYLINDERS
        assert cls.radius.exact_value == Fraction(2, 3)

    def test_trivial_principal_relation(self):
        r0 = Fraction(5, 4)
        q = Y - Poly2.constant(1 / r0)
        (lane,) = solve_SQ_principal(q).lanes
        (cls,) = lane.classes
        assert cls.kind == ALL_REGULAR_TUBES and cls.radius.exact_value == r0

    def test_quotient_witness_verifies(self):
        rng = random.Random(73)
        for _ in range(30):
            r = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            cofactor = random_poly2(rng, 3)
            q = (Y - Poly2.constant(1 / r)) * cofactor
            if q.is_zero:
                continue
            (lane,) = solve_SQ_principal(q).lanes
            for cls in lane.classes:
                if cls.kind == ALL_REGULAR_TUBES and cls.radius.exact_value == r:
                    generator = Y - Poly2.constant(1 / r)
                    assert generator * cls.quotient == q


class TestTrueNonlinear:
    def test_exq_has_divisor(self, exq_poly):
        tube = TubeIdentity(EUCLIDEAN, Fraction(2), False)
        verdict = true_nonlinear_witness(exq_poly, tube)
        assert verdict.kind == "not-true"
        assert verdict.witness == tube_generator(2)

    def test_square_of_generator(self):
        r = Fraction(4, 3)
        tube = TubeIdentity(EUCLIDEAN, r, False)
        gen = tube_generator(r)
        verdict = true_nonlinear_witness(gen * gen, tube)
        assert verdict.kind == "not-true" and verdict.witness == gen

    def test_cylinder_case(self):
        # x^2 + (2y - 1)^2 vanishes at the cylinder curvature point (0, 1/2)
        q = X * X + 4 * Y * Y - 4 * Y + Poly2.constant(1)
        cyl = TubeIdentity(EUCLIDEAN, Fraction(1), True)
        verdict = true_nonlinear_witness(q, cyl)
        assert verdict.kind == "cylinder-case"
        assert verdict.witness is None

    def test_errors(self, exq_poly):
        tube = TubeIdentity(EUCLIDEAN, Fraction(2), False)
        with pytest.raises(LinearInput):
            true_nonlinear_witness(X + Y, tube)
        with pytest.raises(NotMember):
            true_nonlinear_witness(exq_poly + Poly2.constant(3), tube)
