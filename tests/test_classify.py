"""Classification drivers: S(Q) and Q(S) solvers plus the corollaries."""

import random
from fractions import Fraction

import pytest

from conftest import random_poly2
from weingarten_tubes import classify
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
    GeneratorFamily,
    isolate_positive_roots,
    radius_set,
    tube_family,
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


    @pytest.mark.parametrize("spaces", ["all", "euclidean", "lorentzian", "hyperbolic", ["euclidean", "hyperbolic"]])
    def test_one_decision_per_distinct_family(self, monkeypatch, exq_poly, spaces):
        # E3, L3 eps = +1 and H3 share one family row: one decide_radii call
        # decides each distinct row once, and when both signals are asked
        # the eps = -1 row reads the mirror image of the eps = +1 radius
        # poly's roots, so only the eps = +1 radius poly is built
        calls, built = [], []

        def counted(q, families):
            calls.append(list(families))
            return decide(q, families)

        def counted_radius_poly(family, q):
            built.append(family)
            return radius_poly(family, q)

        decide, radius_poly = classify.decide_radii, GeneratorFamily.radius_poly
        monkeypatch.setattr(classify, "decide_radii", counted)
        monkeypatch.setattr(GeneratorFamily, "radius_poly", counted_radius_poly)
        report = solve_SQ(exq_poly, spaces)
        families = {tube_family(lane.tag) for lane in report.lanes}
        assert len(calls) == 1 and set(calls[0]) == families
        paired = {tube_family(LORENTZIAN_POS), tube_family(LORENTZIAN_NEG)} <= families
        assert len(built) == len(set(built)) == len(families) - paired
        if spaces == "all":
            assert len(report.lanes) == 4 and built == [tube_family(EUCLIDEAN)]


class TestSolveQS:
    def test_non_cylinder_membership(self, exq_poly):
        tube = TubeIdentity(EUCLIDEAN, Fraction(2), False)
        desc = solve_QS(tube)
        assert desc.is_principal
        assert desc.generator() == tube_generator(2)
        assert desc.contains(tube_generator(2))
        assert desc.contains(exq_poly)
        assert not desc.contains(exq_poly + Poly2.constant(1))

    @pytest.mark.parametrize("cylinder", [False, True])
    def test_zero_polynomial_is_a_member(self, cylinder):
        # the zero relation holds on every surface
        assert solve_QS(TubeIdentity(LORENTZIAN_NEG, Fraction(1, 2), cylinder)).contains(Poly2.zero())

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

    @pytest.mark.parametrize("tag", [EUCLIDEAN, LORENTZIAN_POS, LORENTZIAN_NEG, HYPERBOLIC])
    def test_rational_radius_expands_at_that_radius_only(self, monkeypatch, tag):
        # a Fraction radius and an isolated root with an exact value: the
        # image of Q at r alone, no radius poly, star poly or evaluation
        r = Fraction(7, 3)
        gen = tube_generator(r, tag.eps)
        tubes = [
            (solve_QS(TubeIdentity(tag, radius, False)), solve_QS(TubeIdentity(tag, radius, True)))
            for radius in (r, isolate_positive_roots(Poly1([-7, 3]))[0])
        ]
        point = 2 * r * Y - Poly2.constant(tag.eps)  # H = eps/(2r) on the cylinder
        members, others = [gen, gen * (X * Y - Poly2.constant(5))], [gen + Poly2.constant(1), gen * X + Y]

        def refuse(*args):
            raise AssertionError("expanded Q over every radius")

        monkeypatch.setattr(GeneratorFamily, "radius_poly", refuse)
        monkeypatch.setattr(GeneratorFamily, "star_poly", refuse)
        monkeypatch.setattr(Poly1, "eval", refuse)
        for tube, cylinder in tubes:
            assert all(tube.contains(q) for q in members) and not any(tube.contains(q) for q in others)
            assert all(cylinder.contains(q) for q in (*members, X, point, X * Y + point))
            assert not any(cylinder.contains(q) for q in (Y - Poly2.constant(1), point + Poly2.constant(1)))

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(NonpositiveRadius):
            TubeIdentity(EUCLIDEAN, Fraction(0), True)
        with pytest.raises(NonpositiveRadius):
            TubeIdentity(EUCLIDEAN, Fraction(-1), False)

    def test_bool_radius_rejected(self):
        # as a float radius is: True would otherwise be the radius-1 tube
        for radius in (True, False, 1.0):
            with pytest.raises(NonpositiveRadius, match="^tube radius must be a positive rational, got"):
                TubeIdentity(EUCLIDEAN, radius, False)


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

    def test_inexact_coefficients_rejected(self):
        # 0.1 would be read as its binary value and True as 1
        for value in (0.1, 1.0, True):
            for args in ((value, 1, 2), (1, value, 2), (1, 1, value)):
                with pytest.raises(TypeError, match="^expected an exact rational, got "):
                    classify_linear(*args, "euclidean")

    def test_sweep_small(self):
        rng = random.Random(71)
        for _ in range(150):
            a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            b = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            if a == 0 and b == 0:
                continue
            # every case is read off solve_SQ; the paper's closed-form table
            # is compared with it in test_oracles, so this sweep checks
            # that no input in it raises
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

    def test_inexact_length_rejected(self):
        # 0.5 would report the radius 2, and True the length 1
        for c in (0.5, 1.0, True):
            with pytest.raises(TypeError, match="^expected an exact rational, got "):
                classify_second_fundamental(c)


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

    def test_rational_algebraic_radius_keeps_its_generator(self, sq_poly):
        # the all-tubes class of sq_poly, handed back as a surface: its
        # radius is an AlgebraicRadius with the exact value 5
        (cls,) = [c for c in lane_of(solve_SQ(sq_poly, "euclidean"), EUCLIDEAN).classes if c.kind == ALL_REGULAR_TUBES]
        tube = TubeIdentity(EUCLIDEAN, cls.radius, False)
        assert tube.rational_radius == 5
        assert solve_QS(tube).generator() == tube_generator(5)
        verdict = true_nonlinear_witness(sq_poly, tube)
        assert verdict.kind == "not-true" and verdict.witness == tube_generator(5)

    def test_errors(self, exq_poly):
        tube = TubeIdentity(EUCLIDEAN, Fraction(2), False)
        with pytest.raises(LinearInput):
            true_nonlinear_witness(X + Y, tube)
        with pytest.raises(NotMember):
            true_nonlinear_witness(exq_poly + Poly2.constant(3), tube)
