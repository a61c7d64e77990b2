"""Radius and star-radius sets: exact root isolation and the membership
flags in all three ambient spaces."""

import random
import re
from fractions import Fraction

import pytest

from conftest import axis_restriction, brute_substitute, linear_product, poly_product, random_poly2
from weingarten_tubes import radius
from weingarten_tubes.classify import ALL_REGULAR_TUBES, solve_SQ_principal
from weingarten_tubes.errors import InternalMismatch, ZeroPolynomial
from weingarten_tubes.polyalg import Poly1, Poly2, is_in_tube_ideal, tube_generator
from weingarten_tubes.radius import (
    EUCLIDEAN,
    HYPERBOLIC,
    LORENTZIAN_NEG,
    LORENTZIAN_POS,
    GeneratorFamily,
    SpaceTag,
    decide_radii,
    isolate_positive_roots,
    radius_set,
    star_radius_set,
    vanishes_at,
)

X = Poly2.variable("x")
Y = Poly2.variable("y")


class TestIsolation:
    def test_two_rational_roots(self):
        # -(r-2)(r-5) = -r^2 + 7r - 10
        roots = isolate_positive_roots(Poly1([-10, 7, -1]))
        assert [r.exact_value for r in roots] == [2, 5]

    def test_exq_gamma_zero_roots(self):
        # 96r^3 - 196r^2 + 7r + 2: positive roots 1/8 and 2, root -1/12 excluded
        roots = isolate_positive_roots(Poly1([2, 7, -196, 96]))
        assert [r.exact_value for r in roots] == [Fraction(1, 8), 2]

    def test_irrational_root(self):
        roots = isolate_positive_roots(Poly1([-2, 0, 1]))
        assert len(roots) == 1
        rad = roots[0]
        assert rad.exact_value is None
        assert rad.defining_poly == Poly1([-2, 0, 1])
        fine = rad.refined(Fraction(1, 10**6))
        assert fine.hi - fine.lo <= Fraction(1, 10**6)
        assert fine.refined(fine.hi - fine.lo) == fine  # already narrow enough
        assert abs(rad.approx() - 2**0.5) < 1e-9

    def test_refined_clears_the_defining_poly_once(self, monkeypatch):
        # one integer list serves the bisection and the sign checks of the
        # narrowed radius
        (rad,) = isolate_positive_roots(Poly1([-2, 0, 1]))
        calls = []
        integer_coeffs = radius._integer_coeffs

        def counting(coeffs):
            calls.append(coeffs)
            return integer_coeffs(coeffs)

        monkeypatch.setattr(radius, "_integer_coeffs", counting)
        for width in (radius.DISPLAY_WIDTH, Fraction(1, 3), Fraction(1, 7**9)):
            calls.clear()
            fine = rad.refined(width)
            assert len(calls) == 1
            assert fine.lo < fine.hi <= fine.lo + width and fine.lo**2 < 2 < fine.hi**2

    def test_every_construction_checks_the_sign_change(self):
        # a cell without a sign change, built past the constructor, is
        # refused when refined() or _replace builds from it
        p = Poly1([-2, 0, 1])
        with pytest.raises(ValueError, match="opposite signs"):
            radius.AlgebraicRadius(p, Fraction(2), Fraction(3))
        bad = radius._AlgebraicRadius.__new__(radius.AlgebraicRadius, p, Fraction(2), Fraction(3), None)
        with pytest.raises(ValueError, match="opposite signs"):
            bad.refined()
        with pytest.raises(ValueError, match="opposite signs"):
            bad._replace(hi=Fraction(5, 2))

    def test_nonpositive_width_rejected(self):
        # bisection never narrows a cell to width <= 0, nor takes a nan or
        # an infinite one as a Fraction
        (rad,) = isolate_positive_roots(Poly1([-2, 0, 1]))
        (two,) = isolate_positive_roots(Poly1([-2, 1]))
        for width in (Fraction(0), Fraction(-1), 0.0, float("nan"), float("inf"), float("-inf")):
            for r in (rad, two):
                with pytest.raises(ValueError, match="width must be positive"):
                    r.refined(width)
            with pytest.raises(ValueError, match="width must be positive"):
                rad.approx(width)

    def test_float_width_is_the_equal_fraction(self):
        # a float width is taken exactly, on both kinds of radius
        (rad,) = isolate_positive_roots(Poly1([-2, 0, 1]))
        (two,) = isolate_positive_roots(Poly1([-2, 1]))
        for r in (rad, two):
            for width in (0.001, 0.5, 1e-9):
                assert r.refined(width) == r.refined(Fraction(width))
                assert all(type(v) is Fraction for v in r.refined(width)[1:3])
                assert r.approx(width) == r.approx(Fraction(width))
        assert rad.refined(0.001) == (rad.defining_poly, Fraction(2895, 2048), Fraction(5793, 4096), None)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            isolate_positive_roots(Poly1())

    def test_integer_list_input_is_checked(self):
        # a caller's list keeps Poly1's contract: trailing zeros dropped, and
        # an all-zero list is the zero polynomial, a domain error
        assert isolate_positive_roots([-2, 0, 1, 0]) == isolate_positive_roots(Poly1([-2, 0, 1]))
        assert isolate_positive_roots([-6, 1, 0, 0]) == isolate_positive_roots([-6, 1])
        for zero in ([0], [0, 0]):
            with pytest.raises(ZeroPolynomial):
                isolate_positive_roots(zero)

    @pytest.mark.parametrize(
        "coeffs, k", [([-2.0, 0, 1], 0), ([-2, 0, Fraction(1, 2)], 2), ([Fraction(-2), 0, 1], 0)]
    )
    def test_integer_list_names_a_float_or_fraction_entry(self, coeffs, k):
        # refused at the door with the entry named, not deep in the root
        # scan; a Poly1 is the type for rational coefficients
        (sqrt2,) = isolate_positive_roots([-2, 0, 1])
        (six,) = isolate_positive_roots([-6, 1])
        entry = coeffs[k]
        message = f"^coefficient {k} of an integer list is {re.escape(repr(entry))}, a {type(entry).__name__}; "
        calls = [isolate_positive_roots, lambda p: vanishes_at(p, sqrt2), lambda p: vanishes_at(p, six)]
        for call in calls:
            with pytest.raises(TypeError, match=message):
                call(coeffs)
            if isinstance(entry, Fraction):
                call(Poly1(coeffs))  # the same coefficients as a Poly1 are taken

    def test_mixed_rational_and_irrational(self):
        # (r - 1)(r^2 - 2)(r + 3): positive roots 1 and sqrt(2), interleaved
        p = Poly1(poly_product([-1, 1], [-2, 0, 1], [3, 1]))
        roots = isolate_positive_roots(p)
        assert len(roots) == 2
        assert roots[0].exact_value == 1
        assert roots[1].exact_value is None
        assert abs(roots[1].approx() - 2**0.5) < 1e-9
        # isolating intervals must be pairwise disjoint
        assert roots[0].hi <= roots[1].lo or roots[1].hi <= roots[0].lo

    def test_random_linear_factor_products(self):
        rng = random.Random(41)
        for _ in range(60):
            roots = sorted({Fraction(rng.randint(1, 40), rng.randint(1, 6)) for _ in range(rng.randint(1, 4))})
            factors = [[-rho, 1] for rho in roots]
            # also a negative root and a repeated factor to exercise square-free handling
            factors += [[Fraction(rng.randint(1, 9)), 1], [-roots[0], 1]]
            found = isolate_positive_roots(Poly1(poly_product(*factors)))
            assert [f.exact_value for f in found] == roots

    def test_one_sturm_chain_per_isolation(self, monkeypatch):
        # (r - 1)(r^2 - 2)(r + 3)(2r - 5): rational roots on both sides of
        # sqrt(2), both inside its first bisection cell (0, 3]
        built = []
        sturm_chain = radius._sturm_chain

        def counting(s):
            built.append(s)
            return sturm_chain(s)

        monkeypatch.setattr(radius, "_sturm_chain", counting)
        p = Poly1(poly_product([-1, 1], [-2, 0, 1], [3, 1], [-5, 2]))
        roots = isolate_positive_roots(p)
        assert [r.exact_value for r in roots] == [1, None, Fraction(5, 2)]
        assert len(built) == 1

    def test_nodes_of_known_rationals_are_not_bisected(self, monkeypatch):
        # (4r - 1)(5r - 1)(r^2 - 2): B_d = 3, and (0, 3/4] holds 1/5 and
        # 1/4 and no irrational root.  The irrational pass evaluates the
        # five chain members at 0, 3, 3/2 and 3/4 only; bisecting (0, 3/4]
        # on to separate the two took four more midpoints, 40 sign
        # evaluations in all
        calls = []
        sign_at, sturm_cells = radius._sign_at, radius._sturm_cells
        in_cells = []

        def counting(coeffs, v):
            if in_cells:
                calls.append(v)
            return sign_at(coeffs, v)

        def cells(*args):
            in_cells.append(True)
            try:
                return sturm_cells(*args)
            finally:
                in_cells.pop()

        monkeypatch.setattr(radius, "_sign_at", counting)
        monkeypatch.setattr(radius, "_sturm_cells", cells)
        p = Poly1(poly_product([-1, 4], [-1, 5], [-2, 0, 1]))
        roots = isolate_positive_roots(p)
        assert [r.exact_value for r in roots] == [Fraction(1, 5), Fraction(1, 4), None]
        assert (roots[2].lo, roots[2].hi) == (Fraction(3, 4), Fraction(3, 2))
        assert len(calls) == 20
        assert set(calls) == {0, 3, Fraction(3, 2), Fraction(3, 4)}

    def test_multiplicity_is_ignored(self):
        p = Poly1(poly_product([-3, 1], [-3, 1], [-3, 1]))
        roots = isolate_positive_roots(p)
        assert [r.exact_value for r in roots] == [3]


class TestRationalRoots:
    def test_reciprocals_of_one_to_sixty(self):
        # prod (i*r - 1): the lead 60! is divisible by every prime below
        # 60, so the smallest usable prime is 61
        s = linear_product((i, 1) for i in range(1, 61))
        assert radius._rational_roots(s) == sorted(Fraction(1, i) for i in range(1, 61))
        roots = isolate_positive_roots(Poly1(s))
        assert [r.exact_value for r in roots] == sorted(Fraction(1, i) for i in range(1, 61))

    def test_forty_factors_near_ten_to_the_fourteen(self):
        # (10^14 + 31i)*r - (10^13 + i): a 561-digit lead coefficient
        factors = [(10**14 + 31 * i, 10**13 + i) for i in range(1, 41)]
        want = sorted(Fraction(p, q) for q, p in factors)
        s = linear_product(factors)
        assert radius._rational_roots(s) == want
        assert [r.exact_value for r in isolate_positive_roots(Poly1(s))] == want

    def test_negative_zero_and_irrational_roots(self):
        # r (3r + 5)(2r - 7)(r^2 - 2)
        p = poly_product(linear_product([(1, 0), (3, -5), (2, 7)]), [-2, 0, 1])
        assert radius._rational_roots(p) == [Fraction(-5, 3), 0, Fraction(7, 2)]

    def test_no_rational_root(self):
        # r^3 - 2 and (4r^2 - 3)(r^2 + 1): roots mod the prime that lift to nothing
        assert radius._rational_roots([-2, 0, 0, 1]) == []
        assert radius._rational_roots([-3, 0, 1, 0, 4]) == []


class TestSquarefreeCheck:
    @pytest.mark.parametrize(
        "p, prs, want",
        [
            # square-free modulo 2^61 - 1: no pseudo-remainder sequence
            ([-6, 1, 1], False, [-6, 1, 1]),
            ([4, -2, -6], False, [-2, 1, 3]),
            # planted squares (r - 2)^2 (r + 3) and (2r + 1)^2
            ([12, -8, -1, 1], True, [-6, 1, 1]),
            ([1, 4, 4], True, [1, 2]),
            # the lead is a multiple of 2^61 - 1, so the check cannot decide
            ([-1, 2**61 - 1], True, [-1, 2**61 - 1]),
        ],
    )
    def test_falls_through_to_the_sequence_only_when_needed(self, monkeypatch, p, prs, want):
        calls = []
        common_divisor = radius._common_divisor

        def counting(a, b):
            calls.append(a)
            return common_divisor(a, b)

        monkeypatch.setattr(radius, "_common_divisor", counting)
        assert radius._squarefree(p) == want
        assert bool(calls) == prs

    def test_planted_cube_times_square(self):
        # (2r + 1)^2 (r^2 - 2)^3 (3r - 1)
        square, cube, linear = [1, 2], [-2, 0, 1], [-1, 3]
        s = radius._squarefree(poly_product(square, square, cube, cube, cube, linear))
        assert s == poly_product(square, cube, linear)


class TestExactQuotient:
    @pytest.mark.parametrize(
        "a, b",
        [
            ([1, 0, 1], [-1, 1]),  # r^2 + 1 = (r - 1)(r + 1) + 2
            ([1, 0, 1], [-1, 2]),  # the top step of r^2 + 1 by 2r - 1 is 1/2
        ],
    )
    def test_remainder_is_an_internal_mismatch(self, a, b):
        # an assert would vanish under python -O; the CLI exits 3 on this
        with pytest.raises(InternalMismatch):
            radius._exact_quotient(a, b)


class TestGeneratorFamily:
    def test_literal_row_equals_the_table_row(self, sq_poly, exq_poly):
        # a family built from int tuples equal to the K-H row of eps = +1,
        # but not the table's object, is the same value
        family = GeneratorFamily((0, 0, 1), (0, -2), (1,), (1,))
        table = radius.tube_family(EUCLIDEAN)
        assert family is not table
        assert family == table and hash(family) == hash(table)
        for q in (exq_poly, sq_poly):
            assert decide_radii(q, family) == decide_radii(q, table)


class TestRadiusSet:
    def test_example_sq_euclidean(self, sq_poly):
        rset = radius_set(sq_poly, EUCLIDEAN)
        assert rset.kind == "finite"
        assert [e.radius.exact_value for e in rset.entries] == [2, 5]

    def test_constant_gauss_cases(self):
        assert radius_set(X, EUCLIDEAN).is_all_positive
        rset = radius_set(X - Poly2.constant(3), EUCLIDEAN)
        assert rset.kind == "finite" and not rset.entries

    def test_negative_mean_curvature_lorentzian(self):
        # Q = y - c with c < 0: the eps = -1 lane holds the cylinder radius -1/(2c)
        c = Fraction(-3, 4)
        q = Y - Poly2.constant(c)
        neg = radius_set(q, LORENTZIAN_NEG)
        assert [e.radius.exact_value for e in neg.entries] == [Fraction(-1, 1) / (2 * c)]
        pos = radius_set(q, LORENTZIAN_POS)
        assert not pos.entries

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            radius_set(Poly2.zero(), EUCLIDEAN)

    def test_definition_fidelity_rational(self, sq_poly, exq_poly):
        rng = random.Random(43)
        for q in (sq_poly, exq_poly, *(random_poly2(rng, 4) for _ in range(40))):
            if q.is_zero:
                continue
            for tag in (EUCLIDEAN, LORENTZIAN_POS, LORENTZIAN_NEG, HYPERBOLIC):
                rset = radius_set(q, tag)
                if rset.is_all_positive:
                    assert axis_restriction(q).is_zero
                    continue
                q0 = axis_restriction(q)
                for entry in rset.entries:
                    r = entry.radius.exact_value
                    if r is None:
                        continue
                    # hyperbolic entries live in rho = sinh(r); same target form
                    assert q0.eval(tag.eps * Fraction(1, 2) / r) == 0

    def test_all_positive_iff_axis_zero(self):
        rng = random.Random(47)
        for _ in range(60):
            q = random_poly2(rng, 4)
            if q.is_zero:
                continue
            assert radius_set(q, EUCLIDEAN).is_all_positive == axis_restriction(q).is_zero


class TestStarRadiusSet:
    def test_example_sq(self, sq_poly):
        rset = star_radius_set(sq_poly, EUCLIDEAN)
        assert [(e.radius.exact_value, e.star) for e in rset.entries] == [(2, False), (5, True)]

    def test_example_exq(self, exq_poly):
        rset = star_radius_set(exq_poly, EUCLIDEAN)
        assert [(e.radius.exact_value, e.star) for e in rset.entries] == [
            (Fraction(1, 8), False),
            (2, True),
        ]

    def test_square_of_generator(self):
        gen = tube_generator(3)
        rset = star_radius_set(gen * gen, EUCLIDEAN)
        assert [(e.radius.exact_value, e.star) for e in rset.entries] == [(3, True)]

    def test_irrational_star_radius(self):
        # (2x - 2*sqrt(2)y + 1)(2x + 2*sqrt(2)y + 1) = 4x^2 - 8y^2 + 4x + 1
        # has the single Euclidean radius sqrt(2), and it is a star radius
        q = 4 * X * X - 8 * Y * Y + 4 * X + Poly2.constant(1)
        rset = star_radius_set(q, EUCLIDEAN)
        assert len(rset.entries) == 1
        entry = rset.entries[0]
        assert entry.radius.exact_value is None
        assert abs(entry.radius.approx() - 2**0.5) < 1e-9
        assert entry.star

    def test_irrational_non_star_radius(self):
        # 12y^2 - 1 + x^2: radius sqrt(3) (from 12y^2 = 1 at y = 1/(2r)),
        # but the substitution image does not vanish there
        q = 12 * Y * Y + X * X - Poly2.constant(1)
        rset = star_radius_set(q, EUCLIDEAN)
        assert len(rset.entries) == 1
        entry = rset.entries[0]
        assert entry.radius.exact_value is None
        assert abs(entry.radius.approx() - 3**0.5) < 1e-9
        assert not entry.star

    def test_star_subset_and_soundness(self):
        rng = random.Random(53)
        tags = (EUCLIDEAN, LORENTZIAN_POS, LORENTZIAN_NEG, HYPERBOLIC)
        for _ in range(40):
            quotient = random_poly2(rng, 3)
            r = Fraction(rng.randint(1, 12), rng.randint(1, 4))
            tag = tags[rng.randrange(len(tags))]
            q = tube_generator(r, tag.eps) * quotient
            if q.is_zero:
                continue
            rset = star_radius_set(q, tag)
            if rset.is_all_positive:
                continue
            values = {e.radius.exact_value: e.star for e in rset.entries}
            assert values.get(r) is True
            for value, star in values.items():
                if value is None:
                    continue
                assert is_in_tube_ideal(q, value, tag.eps) == star
                assert (brute_substitute(q, value, tag.eps) == []) == star


def principal_entries(lane) -> list[tuple]:
    """(exact radius, star flag) of each class of a principal lane."""
    return [(cls.radius.exact_value, cls.kind == ALL_REGULAR_TUBES) for cls in lane.classes]


class TestPrincipalRadiusSet:
    def test_constant_k2(self):
        # Q = y - c, c > 0: all tubes of radius 1/c (Q(x, c) vanishes identically)
        c = Fraction(4, 3)
        (lane,) = solve_SQ_principal(Y - Poly2.constant(c)).lanes
        assert principal_entries(lane) == [(1 / c, True)]

    def test_linear_with_slope(self):
        # a != 0, bc > 0: cylinders at b/c only
        a, b, c = Fraction(2), Fraction(3), Fraction(5)
        q = a * X + b * Y - Poly2.constant(c)
        (lane,) = solve_SQ_principal(q).lanes
        assert principal_entries(lane) == [(b / c, False)]

    def test_quadratic_example(self):
        # x^2 + y - 2: radius 1/2, not star since Q(x, 2) = x^2
        q = X * X + Y - Poly2.constant(2)
        (lane,) = solve_SQ_principal(q).lanes
        assert principal_entries(lane) == [(Fraction(1, 2), False)]

    def test_principal_star_randomized(self):
        rng = random.Random(59)
        for _ in range(40):
            r = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            cofactor = random_poly2(rng, 3)
            gen = Y - Poly2.constant(1 / r)
            q = gen * cofactor
            if q.is_zero or axis_restriction(q).is_zero:
                continue
            (lane,) = solve_SQ_principal(q).lanes
            values = dict(principal_entries(lane))
            assert values.get(r) is True


class TestSpaceTag:
    def test_non_lorentzian_eps_rejected(self):
        with pytest.raises(ValueError):
            SpaceTag("euclidean", -1)

    def test_unknown_space_rejected(self):
        with pytest.raises(ValueError):
            SpaceTag("galilean")


class TestRadiusChecks:
    """The constructor's three value checks decide by the sign of an
    integer form: the defining poly's coefficients cleared to integers."""

    HALF = Poly1([Fraction(-3, 4), Fraction(1, 2)])  # r/2 - 3/4, root 3/2
    QUARTER = Poly1([Fraction(1, 2), 0, Fraction(-1, 4)])  # 1/2 - r^2/4, root sqrt(2)

    def test_valid_radii_are_built(self):
        rad = radius.AlgebraicRadius(self.HALF, Fraction(1), Fraction(3, 2), Fraction(3, 2))
        assert rad.approx() == 1.5
        rad = radius.AlgebraicRadius(self.QUARTER, Fraction(1), Fraction(2))
        assert abs(rad.approx() - 2**0.5) < 1e-12

    def test_exact_value_that_is_not_a_root(self):
        with pytest.raises(ValueError, match="^exact_value is not a root of the defining polynomial$"):
            radius.AlgebraicRadius(self.HALF, Fraction(1), Fraction(2), Fraction(5, 3))

    def test_exact_value_outside_the_interval(self):
        with pytest.raises(ValueError, match="^exact_value outside the isolating interval$"):
            radius.AlgebraicRadius(self.HALF, Fraction(0), Fraction(1), Fraction(3, 2))
        with pytest.raises(ValueError, match="^exact_value outside the isolating interval$"):
            radius.AlgebraicRadius(self.HALF, Fraction(3, 2), Fraction(2), Fraction(3, 2))  # (lo, hi] is open at lo

    def test_interval_without_a_sign_change(self):
        for lo, hi in ((Fraction(0), Fraction(1)), (Fraction(3, 2), Fraction(2)), (Fraction(2), Fraction(3))):
            with pytest.raises(ValueError, match="^defining polynomial must have opposite signs at lo and hi$"):
                radius.AlgebraicRadius(self.QUARTER, lo, hi)

    def test_float_ends_are_refused(self):
        # a float has no numerator for the integer forms: refused up front
        for args in ((1.0, Fraction(2)), (Fraction(1), 2.0)):
            with pytest.raises(TypeError, match="^expected an exact rational, got float$"):
                radius.AlgebraicRadius(self.QUARTER, *args)
        with pytest.raises(TypeError, match="^expected an exact rational, got float$"):
            radius.AlgebraicRadius(self.HALF, Fraction(1), Fraction(2), 1.5)

    def test_no_fraction_evaluation(self, monkeypatch):
        # construction, isolation and refinement evaluate no Fraction poly
        def refuse(*args):
            raise AssertionError("Poly1.eval ran")

        monkeypatch.setattr(Poly1, "eval", refuse)
        radius.AlgebraicRadius(self.HALF, Fraction(1), Fraction(3, 2), Fraction(3, 2))
        radius.AlgebraicRadius(self.QUARTER, Fraction(1), Fraction(2)).refined(Fraction(1, 10**6))
        assert [rad.exact_value for rad in isolate_positive_roots([6, -2, -3, 1])] == [None, 3]  # (r - 3)(r^2 - 2)


class TestVanishesAt:
    def test_rational_point(self):
        p = Poly1([-6, 1])
        roots = isolate_positive_roots(p)
        assert vanishes_at(p, roots[0])
        assert not vanishes_at(Poly1([1, 1]), roots[0])

    def test_irrational_point(self):
        sqrt2 = isolate_positive_roots(Poly1([-2, 0, 1]))[0]
        assert vanishes_at(Poly1([-2, 0, 1]), sqrt2)
        assert vanishes_at(Poly1([-4, 0, 0, 0, 1]), sqrt2)  # r^4 - 4
        assert not vanishes_at(Poly1([-3, 0, 1]), sqrt2)

    def test_integer_coefficients(self):
        # the radius and star polys of a family are integer lists
        sqrt2 = isolate_positive_roots([-2, 0, 1])[0]
        (six,) = isolate_positive_roots([-6, 1])
        assert vanishes_at([-4, 0, 0, 0, 1], sqrt2) and not vanishes_at([-3, 0, 1], sqrt2)
        assert vanishes_at([-12, 2], six) and vanishes_at([], six) and not vanishes_at([1, 1], six)
        # as in Poly1, a list's trailing zeros are dropped
        assert vanishes_at([-2, 0, 1, 0], sqrt2) and not vanishes_at([-3, 0, 1, 0, 0], sqrt2)
        assert vanishes_at([-6, 1, 0], six) and vanishes_at([0], sqrt2) and vanishes_at([0, 0], six)

    def test_defining_poly_with_repeated_factor(self):
        # (r^2 - 2)^3 changes sign across (1, 2], but the common factor
        # (r^2 - 2)^2 does not: only its square-free part does
        cube = radius.AlgebraicRadius(Poly1([-8, 0, 12, 0, -6, 0, 1]), Fraction(1), Fraction(2))
        assert vanishes_at([4, 0, -4, 0, 1], cube) and vanishes_at([], cube)
        assert not vanishes_at([-3, 0, 1], cube)

    def test_root_of_p_at_the_lower_end(self):
        # sqrt 2 on (1, 3/2]: r - 1 vanishes at lo, outside the half-open cell
        sqrt2 = radius.AlgebraicRadius(Poly1([-2, 0, 1]), Fraction(1), Fraction(3, 2))
        assert not vanishes_at([-1, 1], sqrt2)
        assert vanishes_at([2, -2, -1, 1], sqrt2)  # (r - 1)(r^2 - 2)
