"""Radius and star-radius sets: exact root isolation and the membership
flags in all three ambient spaces."""

import random
from fractions import Fraction

import pytest

from conftest import random_poly2
from weingarten_tubes import radius
from weingarten_tubes.errors import ZeroPolynomial
from weingarten_tubes.polyalg import Poly1, Poly2, is_in_tube_ideal, tube_generator
from weingarten_tubes.radius import (
    EUCLIDEAN,
    HYPERBOLIC,
    LORENTZIAN_NEG,
    LORENTZIAN_POS,
    SpaceTag,
    axis_restriction,
    isolate_positive_roots,
    principal_radius_set,
    radius_set,
    star_radius_set,
    vanishes_at,
)

X = Poly2.variable("x")
Y = Poly2.variable("y")


class TestAxisRestriction:
    def test_example_sq(self, sq_poly):
        assert axis_restriction(sq_poly) == Poly1([-1, 14, -40])

    def test_pure_x_vanishes(self):
        assert axis_restriction(X).is_zero

    def test_constant_gauss_relation(self):
        c = Fraction(5, 2)
        assert axis_restriction(X - Poly2.constant(c)) == Poly1([-c])


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

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            isolate_positive_roots(Poly1())

    def test_mixed_rational_and_irrational(self):
        # (r - 1)(r^2 - 2)(r + 3): positive roots 1 and sqrt(2), interleaved
        p = Poly1([-1, 1]) * Poly1([-2, 0, 1]) * Poly1([3, 1])
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
            p = Poly1([1])
            for rho in roots:
                p = p * Poly1([-rho, 1])
            # also a negative root and a repeated factor to exercise square-free handling
            p = p * Poly1([Fraction(rng.randint(1, 9)), 1]) * Poly1([-roots[0], 1])
            found = isolate_positive_roots(p)
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
        p = Poly1([-1, 1]) * Poly1([-2, 0, 1]) * Poly1([3, 1]) * Poly1([-5, 2])
        roots = isolate_positive_roots(p)
        assert [r.exact_value for r in roots] == [1, None, Fraction(5, 2)]
        assert len(built) == 1

    def test_nodes_of_known_rationals_are_not_bisected(self, monkeypatch):
        # (4r - 1)(5r - 1)(r^2 - 2): B_d = 3, and (0, 3/4] holds 1/5 and
        # 1/4 and no irrational root; bisecting it on to separate them
        # took four more midpoints, 103 sign evaluations in all
        calls = []
        sign_at = radius._sign_at

        def counting(coeffs, v):
            calls.append(v)
            return sign_at(coeffs, v)

        monkeypatch.setattr(radius, "_sign_at", counting)
        p = Poly1([-1, 4]) * Poly1([-1, 5]) * Poly1([-2, 0, 1])
        roots = isolate_positive_roots(p)
        assert [r.exact_value for r in roots] == [Fraction(1, 5), Fraction(1, 4), None]
        assert (roots[2].lo, roots[2].hi) == (Fraction(3, 4), Fraction(3, 2))
        assert len(calls) == 83

    def test_multiplicity_is_ignored(self):
        p = Poly1([-3, 1]) * Poly1([-3, 1]) * Poly1([-3, 1])
        roots = isolate_positive_roots(p)
        assert [r.exact_value for r in roots] == [3]


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


class TestPrincipalRadiusSet:
    def test_constant_k2(self):
        # Q = y - c, c > 0: all tubes of radius 1/c (Q(x, c) vanishes identically)
        c = Fraction(4, 3)
        rset = principal_radius_set(Y - Poly2.constant(c))
        assert [(e.radius.exact_value, e.star) for e in rset.entries] == [(1 / c, True)]

    def test_linear_with_slope(self):
        # a != 0, bc > 0: cylinders at b/c only
        a, b, c = Fraction(2), Fraction(3), Fraction(5)
        q = a * X + b * Y - Poly2.constant(c)
        rset = principal_radius_set(q)
        assert [(e.radius.exact_value, e.star) for e in rset.entries] == [(b / c, False)]

    def test_quadratic_example(self):
        # x^2 + y - 2: radius 1/2, not star since Q(x, 2) = x^2
        q = X * X + Y - Poly2.constant(2)
        rset = principal_radius_set(q)
        assert [(e.radius.exact_value, e.star) for e in rset.entries] == [(Fraction(1, 2), False)]

    def test_principal_star_randomized(self):
        rng = random.Random(59)
        for _ in range(40):
            r = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            cofactor = random_poly2(rng, 3)
            gen = Y - Poly2.constant(1 / r)
            q = gen * cofactor
            if q.is_zero or axis_restriction(q).is_zero:
                continue
            rset = principal_radius_set(q)
            values = {e.radius.exact_value: e.star for e in rset.entries}
            assert values.get(r) is True


class TestSpaceTag:
    def test_non_lorentzian_eps_rejected(self):
        with pytest.raises(ValueError):
            SpaceTag("euclidean", -1)

    def test_unknown_space_rejected(self):
        with pytest.raises(ValueError):
            SpaceTag("galilean")


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
