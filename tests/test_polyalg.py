"""Exact-arithmetic layer: ring operations, printing, substitution
machinery, quotients and the binomial identity."""

import itertools
import math
import random
import re
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import brute_product, brute_substitute, poly_product, random_poly2, random_rational
from paper_formulas import binom, binomial_alternating_sum, epsilon_transform, gamma_formula, lemma_identity_defined
from weingarten_tubes import polyalg
from weingarten_tubes.cli import parse_poly
from weingarten_tubes.errors import InternalMismatch, ZeroPolynomial, ZeroRadius
from weingarten_tubes.polyalg import (
    Poly1,
    Poly2,
    _divide,
    _family_image,
    _line_horner,
    _unpack,
    divide_by_tube_factor,
    gamma_at,
    gamma_cleared,
    substitute_tube,
    tube_generator,
)

X = Poly2.variable("x")
Y = Poly2.variable("y")

# 20-digit numerators and denominators, and the coefficients +-1 that the
# printers drop in front of a monomial
big_coefficients = st.one_of(
    st.sampled_from([Fraction(1), Fraction(-1)]),
    st.builds(Fraction, st.integers(-(10**20), 10**20), st.integers(1, 10**20)),
)


def dense_poly2s(max_degree: int):
    exps = st.tuples(st.integers(0, max_degree), st.integers(0, max_degree)).filter(lambda e: sum(e) <= max_degree)
    return st.lists(st.tuples(exps, big_coefficients), max_size=8).map(Poly2)


def axis_poly2s(max_degree: int, axis: int):
    """Polynomials in x alone (axis 0) or y alone (axis 1)."""
    return st.lists(big_coefficients, max_size=max_degree + 1).map(
        lambda cs: Poly2([((k, 0) if axis == 0 else (0, k), c) for k, c in enumerate(cs)])
    )


def poly2s(max_degree: int):
    """Dense, pure-x, pure-y and constant polynomials, zero among them."""
    return st.one_of(
        dense_poly2s(max_degree),
        axis_poly2s(max_degree, 0),
        axis_poly2s(max_degree, 1),
        big_coefficients.map(Poly2.constant),
    )


class TestRingOperations:
    def test_additive_inverse_is_zero(self):
        p = X + Y
        assert (p + (-p)).is_zero
        assert (p + (-p)) == Poly2.zero()

    def test_mul_generator_times_linear(self):
        # (25x - 10y + 1)(4y - 1) = 100xy - 40y^2 + 14y - 25x - 1
        gen = tube_generator(5)
        assert gen == 25 * X - 10 * Y + Poly2.constant(1)
        product = gen * (4 * Y - Poly2.constant(1))
        expected = 100 * X * Y - 40 * Y * Y + 14 * Y - 25 * X - Poly2.constant(1)
        assert product == expected

    def test_eq_is_reflexive(self):
        rng = random.Random(7)
        for _ in range(50):
            q = random_poly2(rng, 5)
            assert q == q

    def test_zero_polynomial_degree(self):
        assert Poly2.zero().degree == -1
        assert Poly1().degree == -1

    def test_truth_is_nonzero(self):
        assert Poly2.constant(Fraction(1, 3)) and X
        assert not Poly2.zero() and not Poly2([((1, 0), 0)])
        assert Poly1([0, 1]) and not Poly1() and not Poly1([0, 0])

    @pytest.mark.parametrize("p", [Poly2.constant(2), Poly1([2])], ids=["Poly2", "Poly1"])
    def test_a_number_is_not_a_polynomial(self, p):
        # the comparison is left to the other operand, so it falls back to identity
        assert p.__eq__(2) is NotImplemented
        assert p != 2 and p != "2"

    def test_bool_is_not_an_exact_rational(self):
        # bool is an int subclass, but a flag in place of a number is a
        # caller's mistake: the float error, not the radius-1 generator
        for value in (True, False):
            with pytest.raises(TypeError, match="^expected an exact rational, got bool$"):
                tube_generator(value)
            with pytest.raises(TypeError, match="^expected an exact rational, got bool$"):
                Poly2.constant(value)

    def test_bool_is_neither_a_coefficient_nor_a_point(self):
        # Poly1([True, False, True]) would be x^2 + 1, and eval(True, 2)
        # the value at x = 1
        for build in (
            lambda: Poly1([True, False, True]),
            lambda: Poly1([1, 2]).eval(True),
            lambda: (X + Y).eval(True, 2),
            lambda: (X + Y).eval(2, False),
        ):
            with pytest.raises(TypeError, match="^expected an exact rational, got bool$"):
                build()

    def test_a_number_adds_and_subtracts(self):
        # an int or a Fraction operand is Poly2.constant of it, on either
        # side, as for *; a float or a bool is refused as constant refuses it
        for c in (1, -3, Fraction(1, 2), Fraction(-7, 3)):
            const = Poly2.constant(c)
            assert X + c == c + X == X + const
            assert X - c == X - const and c - X == const - X == -(X - c)
        assert (str(X + 1), str(X - 1), str(1 + X), str(1 - X)) == ("x + 1", "x - 1", "x + 1", "-x + 1")
        assert str(Fraction(1, 2) - X * Y) == "-x*y + 1/2" and (X - X) + 0 == 0 + Poly2.zero() == Poly2.zero()
        for bad in (1.0, True):
            for build in (lambda: X + bad, lambda: bad + X, lambda: X - bad, lambda: bad - X):
                with pytest.raises(TypeError, match=f"^expected an exact rational, got {type(bad).__name__}$"):
                    build()

    def test_bool_is_not_a_signal(self):
        # tube_generator(1, True) would be the eps = +1 generator, and a
        # float or Fraction eps would put a non-integer into its line
        for eps in (True, False, 1.0, -1.0, Fraction(1)):
            with pytest.raises(ValueError, match=f"^eps must be -1 or \\+1, got {re.escape(repr(eps))}$"):
                tube_generator(1, eps)
            with pytest.raises(ValueError, match="^eps must be -1 or \\+1"):
                divide_by_tube_factor(X, 2, eps)
            with pytest.raises(ValueError, match="^eps must be -1 or \\+1"):
                substitute_tube(X, 2, eps)

    def test_exponents_must_be_integers(self):
        for e in (1.5, Fraction(1), 1.0):
            with pytest.raises(TypeError):
                Poly2([((e, 0), 1)])
            with pytest.raises(TypeError):
                Poly2({(0, e): 1})
        with pytest.raises(ValueError, match="nonnegative"):
            Poly2([((-1, 0), 1)])

    def test_canonical_order(self):
        p = Poly2([((0, 2), 1), ((1, 1), 1), ((2, 0), 1), ((0, 0), 3)])
        assert [e for e, _ in p.terms()] == [(2, 0), (1, 1), (0, 2), (0, 0)]

    def test_canonical_cleared_form(self):
        half, third = Poly2.constant(Fraction(1, 2)), Poly2.constant(Fraction(1, 3))
        routes = [
            # a sum that cancels, a negation, a product by a constant, a power 0
            (
                (half * X + third * Y) + (-(third * Y)),
                Poly2({(1, 0): Fraction(3, 6)}),
                (X + X) * Fraction(1, 4),
            ),
            (-(Y * Fraction(4, 6) - X), Poly2([((1, 0), 1), ((0, 1), Fraction(-2, 3))]), X - 2 * third * Y),
            ((X * 6 - Y * 4) * Fraction(1, 8), Poly2({(1, 0): Fraction(3, 4), (0, 1): Fraction(-1, 2)})),
            ((X * Fraction(7, 3) + Y) ** 0, Poly2.constant(1), Y - Y + Poly2.constant(Fraction(5, 5))),
            (X - X, Poly2.zero(), (half * Y) * 0),
            # numerators that sum to zero over a denominator above 1, with
            # content 1 and with content 2 to divide out
            (
                (X - Y) * (6 * X + 4 * Y) * Fraction(1, 9),
                Poly2({(2, 0): Fraction(2, 3), (1, 1): Fraction(-2, 9), (0, 2): Fraction(-4, 9)}),
                Poly2._from_cleared({(0, 2): -4, (1, 1): -2, (2, 0): 6}, 9),
            ),
            ((X - Y) * (6 * X + 4 * Y) * half, 3 * X**2 - X * Y - 2 * Y**2, Poly2._from_cleared({(1, 1): 4, (0, 2): 8, (2, 0): -12}, -4)),
        ]
        for built in routes:
            for p in built:
                den, nums = p._den, p._nums
                assert den > 0 and math.gcd(den, *nums.values()) == 1
                assert all(type(v) is int and v for v in nums.values())
                assert p == built[0] and hash(p) == hash(built[0])
                assert all(type(c) is Fraction for _, c in p.terms())
                assert type(p.coeff(1, 0)) is Fraction and type(p.coeff(5, 5)) is Fraction
                assert parse_poly(str(p)) == p

    def test_eval_float_adds_left_to_right(self):
        # the terms of -1e16*y^2 + y + 1e16 at y = 1 are -1e16, 1, 1e16 in
        # canonical order: 0 added left to right, 1 by the compensated
        # float sum() of Python 3.12
        q = Poly2([((0, 2), -(10**16)), ((0, 1), 1), ((0, 0), 10**16)])
        terms = [-1e16, 1.0, 1e16]
        assert (terms[0] + terms[1]) + terms[2] == 0.0 and math.fsum(terms) == 1.0
        assert q.eval_float(0.5, 1.0) == 0.0
        assert Poly2.zero().eval_float(1.0, 2.0) == 0.0


def reference_poly1(coeffs) -> tuple:
    """Poly1 as stored before 0.23.0: its coefficients as Fractions, with
    no trailing zero."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def reference_poly1_string(coeffs: tuple, var: str) -> str:
    """Poly1.to_string of the Fraction tuple coeffs (``reference_poly1``)
    as printed in 0.2.0, before ``_join_terms``."""
    if not coeffs:
        return "0"
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mono = "" if k == 0 else (var if k == 1 else f"{var}^{k}")
        if k == 0:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def reference_poly2_string(p: Poly2) -> str:
    """Poly2.__str__ as printed in 0.2.0, before ``_join_terms``."""
    den, nums = p._den, p._nums
    if not nums:
        return "0"
    parts = []
    for (i, j), v in nums.items():
        factors = []
        if i:
            factors.append("x" if i == 1 else f"x^{i}")
        if j:
            factors.append("y" if j == 1 else f"y^{j}")
        mono = "*".join(factors)
        g = math.gcd(v, den)
        value = str(abs(v) // g) if g == den else f"{abs(v) // g}/{den // g}"
        if not mono:
            body = value
        elif value == "1":
            body = mono
        else:
            body = f"{value}*{mono}"
        if not parts:
            parts.append(body if v > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if v > 0 else f"- {body}")
    return " ".join(parts)


class TestPrinters:
    @settings(max_examples=300, deadline=None)
    @given(p=poly2s(30))
    @example(p=Poly2.zero())
    @example(p=-(X**30) + X * Y - Y + Poly2.constant(-1))
    def test_poly2_prints_as_before(self, p):
        assert str(p) == reference_poly2_string(p)

    @settings(max_examples=300, deadline=None)
    @given(cs=st.lists(st.one_of(st.just(Fraction(0)), big_coefficients), max_size=31), var=st.sampled_from(["x", "r"]))
    @example(cs=[], var="r")
    @example(cs=[Fraction(-1), Fraction(1), Fraction(0), Fraction(-1)], var="r")
    def test_poly1_prints_as_before(self, cs, var):
        assert Poly1(cs).to_string(var) == reference_poly1_string(reference_poly1(cs), var)

    def test_str_and_repr(self):
        p = Poly1([-2, 0, 1])
        assert (str(p), repr(p)) == ("x^2 - 2", "Poly1('x^2 - 2')")
        assert (str(Poly1()), repr(Poly1())) == ("0", "Poly1('0')")
        assert repr(X * Y - Poly2.constant(Fraction(1, 2))) == "Poly2('x*y - 1/2')"


# int and Fraction coefficients, zero among them often
poly1_coefficients = st.one_of(
    st.just(0),
    st.integers(-(10**20), 10**20),
    st.builds(Fraction, st.integers(-(10**20), 10**20), st.integers(1, 10**20)),
)


class TestClearedPoly1:
    """Poly1 stored as integer numerators over one denominator keeps the
    values of the Fraction tuple it was stored as before 0.23.0."""

    @settings(max_examples=300, deadline=None)
    @given(
        cs=st.lists(poly1_coefficients, max_size=12),
        factor=st.sampled_from([1, 6, -4, Fraction(10, 3), Fraction(-1, 12)]),
        zeros=st.integers(0, 3),
        other=st.lists(poly1_coefficients, max_size=4),
        point=st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50)),
    )
    @example(cs=[], factor=1, zeros=0, other=[], point=Fraction(1))
    @example(cs=[0, 0], factor=6, zeros=2, other=[0], point=Fraction(-3, 7))
    @example(cs=[Fraction(1, 2), 0, 3], factor=-4, zeros=1, other=[2, 0, 6], point=Fraction(1, 2))
    def test_values_match_the_fraction_tuple(self, cs, factor, zeros, other, point):
        # a shared factor and trailing zeros, as a caller may pass them
        built = [c * factor for c in cs] + [0] * zeros
        p, ref = Poly1(built), reference_poly1(built)
        den, nums = p._den, p._nums
        assert type(den) is int and den > 0 and all(type(v) is int for v in nums)
        assert math.gcd(den, *nums) == 1 and (not nums or nums[-1])
        assert p.coeffs == ref and all(type(c) is Fraction for c in p.coeffs)
        for k in range(-2, len(ref) + 3):
            got = p.coeff(k)
            assert type(got) is Fraction and got == (ref[k] if 0 <= k < len(ref) else 0)
        assert (p.degree, p.is_zero, bool(p)) == (len(ref) - 1, not ref, bool(ref))
        value = Fraction(0)
        for c in reversed(ref):
            value = value * point + c
        assert type(p.eval(point)) is Fraction and p.eval(point) == value
        assert p.eval(int(point.numerator)) == sum(c * point.numerator**k for k, c in enumerate(ref))
        text = reference_poly1_string(ref, "x")
        assert (str(p), repr(p), p.to_string("r")) == (text, f"Poly1({text!r})", reference_poly1_string(ref, "r"))
        # equal values are equal and hash equal, whatever the route
        same = Poly1(ref)
        assert p == same and hash(p) == hash(same) and (same._den, same._nums) == (den, nums)
        q = Poly1(other)
        assert (p == q) == (ref == reference_poly1(other)) and (p != q) == (ref != reference_poly1(other))

    def test_round_trip(self):
        p = Poly1([Fraction(1, 2), 0, 3])
        assert (p._den, p._nums) == (2, (1, 0, 6))
        assert p.coeffs == (Fraction(1, 2), 0, 3) and str(p) == "3*x^2 + 1/2"
        assert p == Poly1([Fraction(2, 4), Fraction(0), 3, 0]) == Poly1(p.coeffs)
        assert Poly1([4, 6])._nums == (4, 6)  # content is shared with den, not taken from the numerators alone
        for zero in (Poly1(), Poly1([0, Fraction(0, 5)])):
            assert (zero._den, zero._nums) == (1, ())


class TestGamma:
    def test_gamma_exq_independent_term(self, exq_poly):
        # Gamma_0(r) = -(96r^3 - 196r^2 + 7r + 2)/(4r^3)
        for r in (Fraction(1), Fraction(3), Fraction(7, 5), Fraction(-2, 3)):
            expected = -Fraction(96 * r**3 - 196 * r**2 + 7 * r + 2, 1) / (4 * r**3)
            assert gamma_at(exq_poly, r)[0] == expected
        # zeros at r = 1/8, 2, -1/12
        for root in (Fraction(1, 8), Fraction(2), Fraction(-1, 12)):
            assert gamma_at(exq_poly, root)[0] == 0

    def test_gamma_xy_at_one(self):
        # x*y at r=1: Q(x, (x+1)/2) = x^2/2 + x/2
        assert gamma_at(X * Y, 1) == [Fraction(0), Fraction(1, 2), Fraction(1, 2)]

    def test_gamma_constant(self):
        assert gamma_at(Poly2.constant(Fraction(5, 3)), Fraction(2, 7)) == [Fraction(5, 3)]

    def test_gamma_zero_radius(self):
        with pytest.raises(ZeroRadius):
            gamma_at(X, 0)

    def test_gamma_at_expands_at_one_radius(self, monkeypatch, exq_poly):
        # the paper's double sum at r, with no expansion over every r
        r = Fraction(7, 5)
        expected = [g.eval(r) / (2 * r) ** exq_poly.degree for g in gamma_formula(exq_poly)]

        def refuse(q):
            raise AssertionError("gamma_cleared expands Q over every radius")

        monkeypatch.setattr(polyalg, "gamma_cleared", refuse)
        assert gamma_at(exq_poly, r) == expected
        # x*y**2: x**3/(4r) + x**2/(2r**2) + x/(4r**3); a member pads to n + 1 zeros
        assert gamma_at(X * Y * Y, r) == [Fraction(0), 1 / (4 * r**3), 1 / (2 * r * r), 1 / (4 * r)]
        assert gamma_at(tube_generator(r) * X, r) == [Fraction(0)] * 3

    def test_gamma_cleared_exq(self, exq_poly):
        # g_0(r) = 2^4 r^4 Gamma_0(r) = -4r(96r^3 - 196r^2 + 7r + 2)
        g0 = gamma_cleared(exq_poly)[0]
        assert g0 == Poly1([0, -8, -28, 784, -384])
        assert gamma_cleared(exq_poly) == gamma_formula(exq_poly)

    def test_gamma_cleared_mean_curvature(self):
        # Q = y - c: g_0 = 1 - 2cr, g_1 = r
        c = Fraction(3, 2)
        g = gamma_cleared(Y - Poly2.constant(c))
        assert g[0] == Poly1([1, -2 * c])
        assert g[1] == Poly1([0, 1])
        assert g == gamma_formula(Y - Poly2.constant(c))

    def test_gamma_cleared_gauss_relation(self):
        # Q = x: Gamma = [0, 1/r]; under the 2^n r^n scaling g_1 is the
        # constant 2 (and g_0 vanishes identically)
        g = gamma_cleared(X)
        assert g[0].is_zero
        assert g[1] == Poly1([2])
        assert g == gamma_formula(X)

    def test_gamma_cleared_rejects_zero(self):
        with pytest.raises(ZeroPolynomial):
            gamma_cleared(Poly2.zero())

    def test_gamma_cleared_matches_gamma_at(self):
        rng = random.Random(23)
        for _ in range(100):
            q = random_poly2(rng, 5)
            if q.is_zero:
                continue
            r = random_rational(rng)
            if r == 0:
                continue
            n = q.degree
            scale = Fraction(2) ** n * r**n
            cleared = gamma_cleared(q)
            for gk, value in zip(cleared, gamma_at(q, r)):
                assert gk.eval(r) == scale * value
            assert cleared == gamma_formula(q)

    @settings(max_examples=300, deadline=None)
    @given(q=poly2s(8))
    @example(q=X**3 * Y**5)
    @example(q=Y**8 - Poly2.constant(Fraction(10**20 - 1, 3)))
    def test_gamma_cleared_is_the_papers_formula(self, q):
        # the one integer expansion against the paper's binomial double sum
        if q.is_zero:
            with pytest.raises(ZeroPolynomial):
                gamma_formula(q)
        else:
            assert gamma_cleared(q) == gamma_formula(q)


class TestSubstitution:
    def test_example_sq_at_two(self, sq_poly):
        assert substitute_tube(sq_poly, 2) == Poly1([0, -3, 15])

    def test_example_exq_vanishes_at_two(self, exq_poly):
        assert substitute_tube(exq_poly, 2).is_zero

    def test_mean_curvature_image(self):
        # Q = y - c at r = 1/(2c): image is x/2
        c = Fraction(3)
        image = substitute_tube(Y - Poly2.constant(c), Fraction(1, 2 * c))
        assert image == Poly1([0, Fraction(1, 2)])

    def test_exq_full_coefficient_display(self, exq_poly):
        # all five substitution coefficients as rational functions of r
        for r in (Fraction(1), Fraction(2), Fraction(3), Fraction(-5, 7), Fraction(11, 4)):
            image = substitute_tube(exq_poly, r)
            assert image.coeff(4) == Fraction(-3 * r**3 + 4 * r**2 + 8, 1) / (2 * r**4)
            assert image.coeff(3) == -Fraction(2 * r**3 + 9 * r**2 - 52, 1) / (4 * r**3)
            assert image.coeff(2) == -Fraction(7 * r**4 + 22 * r**3 - 70 * r**2 - 8, 1) / (4 * r**4)
            assert image.coeff(1) == -Fraction(-196 * r**4 + 378 * r**3 + 22 * r**2 + 9 * r + 6, 1) / (4 * r**4)
            assert image.coeff(0) == -Fraction(96 * r**3 - 196 * r**2 + 7 * r + 2, 1) / (4 * r**3)

    def test_substitution_soundness_randomized(self):
        # eval-after-substitute equals substitute-after-eval, exactly
        rng = random.Random(101)
        for _ in range(1000):
            q = random_poly2(rng, rng.randint(0, 8), n_terms=5)
            r = random_rational(rng)
            if r == 0:
                continue
            eps = rng.choice((-1, 1))
            x0 = random_rational(rng)
            image = substitute_tube(q, r, eps)
            assert image.eval(x0) == q.eval(eps * x0 / r, eps * (x0 * r + 1) / (2 * r))

    def test_image_matches_independent_expansion(self):
        rng = random.Random(303)
        for _ in range(200):
            q = random_poly2(rng, 6)
            r = random_rational(rng)
            if r == 0:
                continue
            eps = rng.choice((-1, 1))
            assert list(substitute_tube(q, r, eps).coeffs) == brute_substitute(q, r, eps)


class TestIdealMembership:
    def test_exq_membership(self, exq_poly):
        assert substitute_tube(exq_poly, 2).is_zero
        assert not substitute_tube(exq_poly, 1).is_zero

    def test_zero_is_member(self):
        assert substitute_tube(Poly2.zero(), Fraction(7, 3), -1).is_zero

    def test_divide_exq(self, exq_poly):
        expected = (
            X * X * X + X * X * Y + 3 * X * Y * Y + 2 * X * X + 4 * X * Y + Y * Y
            + 5 * X + 2 * Y - Poly2.constant(24)
        )
        assert divide_by_tube_factor(exq_poly, 2) == expected

    def test_divide_sq(self, sq_poly):
        assert divide_by_tube_factor(sq_poly, 5) == 4 * Y - Poly2.constant(1)

    def test_divide_generator_by_itself(self):
        r = Fraction(9, 2)
        for eps in (1, -1):
            assert divide_by_tube_factor(tube_generator(r, eps), r, eps) == Poly2.constant(1)

    def test_divide_non_member_returns_none(self, exq_poly):
        assert divide_by_tube_factor(exq_poly, 1) is None

    def test_division_builds_no_remainder(self, monkeypatch, exq_poly):
        # a non-member is told by step 0 of the Horner pass alone: no
        # univariate value is built on the way to None
        def refuse(*args):
            raise AssertionError("Poly1 built")

        monkeypatch.setattr(polyalg, "Poly1", refuse)
        assert divide_by_tube_factor(exq_poly, 1) is None
        assert divide_by_tube_factor(exq_poly, Fraction(2, 3), -1) is None

    def test_membership_roundtrip_randomized(self):
        # r ranges over nonzero rationals of both signs
        rng = random.Random(505)
        for _ in range(150):
            quotient = random_poly2(rng, 6)
            r = random_rational(rng, -10, 10)
            if r == 0:
                continue
            eps = rng.choice((-1, 1))
            q = tube_generator(r, eps) * quotient
            assert substitute_tube(q, r, eps).is_zero
            assert divide_by_tube_factor(q, r, eps) == quotient

    def test_non_membership_randomized(self):
        rng = random.Random(707)
        for _ in range(150):
            quotient = random_poly2(rng, 5)
            r = random_rational(rng, 1, 10)
            eps = rng.choice((-1, 1))
            c = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((-1, 1))
            q = tube_generator(r, eps) * quotient + Poly2.constant(c)
            assert not substitute_tube(q, r, eps).is_zero


def line_image_oracle(q: Poly2, c: Fraction, a: Fraction, b: Fraction) -> list[Fraction]:
    """x-coefficients of den * b**n * Q(x, -(a*x + c)/b), n = deg_y Q and
    den the common denominator of Q, by Fraction expansion."""
    den = math.lcm(*(v.denominator for _, v in q.terms()))
    n = max((j for (_, j), _ in q.terms()), default=0)
    line = [-c / b, -a / b]
    out: list = []
    for (i, j), v in q.terms():
        term = poly_product([0] * i + [v * den * b**n], *[line] * j)
        out = [s + t for s, t in itertools.zip_longest(out, term, fillvalue=0)]
    return list(Poly1(out).coeffs)


def eval_list(p: list[int], v: Fraction) -> Fraction:
    return sum((c * v**k for k, c in enumerate(p)), Fraction(0))


def eval_rows(rows: list[list[int]], v: Fraction) -> list[Fraction]:
    return list(Poly1([eval_list(row, v) for row in rows]).coeffs)


big = st.integers(-(2**80), 2**80)
r_lists = st.lists(big, max_size=4)
nonzero_r_lists = st.lists(big, min_size=1, max_size=4).filter(lambda p: p[-1] != 0)
small_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    max_size=6,
).map(Poly2)


class TestPackedHorner:
    """``_family_image`` packs the line at r = 2**k and unpacks the rows;
    at every rational r it must agree with a Fraction expansion."""

    @settings(max_examples=150, deadline=None)
    @given(q=small_polys, c=r_lists, a=r_lists, b=nonzero_r_lists)
    @example(q=Poly2({(1, 2): 3, (0, 1): Fraction(-1, 2), (0, 0): 7}), c=[5, 0, -(2**80)], a=[], b=[1, -(2**80)])
    @example(q=Poly2({(2, 3): Fraction(2, 9), (1, 0): 1}), c=[-1], a=[0, 0, 2**80], b=[0, 0, 0, -3])
    # the cross term 2*a*c of (a*x + c)**2 needs |a|_1 + |c|_1 in the bound, not the larger
    @example(q=Poly2({(0, 2): 1}), c=[2**80], a=[2**80], b=[1])
    def test_rows_are_the_image_at_every_rational_r(self, q, c, a, b):
        rows = _family_image(q._nums, a, b, c)
        checked = 0
        for v in (Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(-7, 5), Fraction(11, 2), Fraction(0)):
            b_v = eval_list(b, v)
            if b_v:
                expected = line_image_oracle(q, eval_list(c, v), eval_list(a, v), b_v)
                assert eval_rows(rows, v) == expected
                checked += 1
        assert checked >= 3

    def test_coefficient_at_the_digit_edge(self):
        # Q = y on the axis with c = -+(2**80 - 1): the bound T * M**n is
        # 2**80 - 1, so k = 81 and the one row coefficient is -+(2**(k-1) - 1)
        edge = 2**80 - 1
        for sign in (1, -1):
            assert _family_image({(0, 1): 1}, [], [1], [-sign * edge]) == [[sign * edge]]
            assert _family_image({(0, 1): 1}, [], [3], [0, 0, -sign * edge]) == [[0, 0, sign * edge]]
        # balanced digits at both ends of [-2**(k-1), 2**(k-1)), next to zeros
        k = 81
        for digits in ([-(2**80), 2**80 - 1], [2**80 - 1, 0, -(2**80)], [0, -(2**80), -(2**80)], [-1, 2**80 - 1]):
            assert _unpack(sum(d << (k * e) for e, d in enumerate(digits)), k) == digits


class TestLineHorner:
    """``_line_horner`` packs x at 2**k: each step is one integer, whose
    balanced base-2**k digits are that step's coefficients."""

    def test_coefficient_at_the_digit_edge(self):
        # Q = y and +-(2**80 - 1) * y: the bound T * M**n is 2**80 - 1, so
        # k = 81 and one step coefficient is +-(2**(k-1) - 1)
        edge = 2**80 - 1
        for sign in (1, -1):
            # the image -c on the line y + c, in the x**0 digit
            assert _line_horner({(0, 1): 1}, 0, 1, -sign * edge) == ((sign * edge, 1), 81)
            # the image -a*x on the line a*x + y, next to a zero x**0 digit
            steps, k = _line_horner({(0, 1): 1}, -sign * edge, 1, 0)
            assert k == 81 and [_unpack(step, k) for step in steps] == [[0, sign * edge], [1]]
            # the member sign * edge * y of the line y: zero image, and its
            # quotient column sign * edge is at the edge
            assert _line_horner({(0, 1): sign * edge}, 0, 1, 0) == ((0, sign * edge), 81)
            assert _divide(Poly2({(0, 1): sign * edge}), 0, 1, 0, 1) == Poly2.constant(sign * edge)
        # the cross term 2*a*c of (a*x + c)**2 needs |a| + |c| in the bound,
        # not the larger of the two
        steps, k = _line_horner({(0, 2): 1}, 2**80, 1, 2**80)
        assert _unpack(steps[0], k) == [2**160, 2**161, 2**160]

    def test_memo_under_threads(self):
        # each relation's memo is one entry that each pass replaces whole:
        # threads that divide their own relations on their own lines,
        # switched every microsecond, each get their own answers.  A thread
        # finishes only when every answer was right: a wrong one or an
        # exception ends it early
        radii = [Fraction(k + 2, 3) for k in range(6)]
        members = [tube_generator(r, -1) * (X * Y + Poly2.constant(k + 1)) for k, r in enumerate(radii)]
        finished = []

        def work(k):
            q, r = members[k], radii[k]
            for _ in range(1000):
                if not (
                    substitute_tube(q, r, -1).is_zero
                    and divide_by_tube_factor(q, r, -1) == X * Y + Poly2.constant(k + 1)
                    and not substitute_tube(q, r, 1).is_zero
                    and divide_by_tube_factor(q, r, 1) is None
                ):
                    return
            finished.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(radii))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(finished) == list(range(len(radii)))


class TestDivideReadOff:
    """``_divide`` reads the quotient's y-columns off Horner steps 1..n,
    each scaled by d * b**j, and certifies line * quotient == d * Q in two
    halves: equal on Q's support, and zero off it."""

    # quotients whose y-columns have gaps, so that zero Horner steps sit
    # between nonzero ones: y**1 and y**4, and y**0 and y**5
    gapped = [X**3 * Y**4 - Poly2.constant(Fraction(5, 7)) * Y, Y**5 + Poly2.constant(1)]

    @pytest.mark.parametrize("a", gapped, ids=str)
    def test_gapped_quotient_on_a_raw_line(self, a):
        # b < 0 and d > 1: the column factor d * b**j changes sign and size
        # on every step, zero steps included
        line, d = (3, -5, 2), 4
        g = Poly2(zip([(1, 0), (0, 1), (0, 0)], [Fraction(v, d) for v in line]))
        q = Poly2(brute_product(g, a))
        assert _divide(q, *line, d) == a

    @pytest.mark.parametrize("a", gapped, ids=str)
    @pytest.mark.parametrize("eps", (1, -1))
    def test_gapped_quotient_on_a_tube(self, a, eps):
        r = Fraction(7, 3)
        q = Poly2(brute_product(tube_generator(r, eps), a))
        assert divide_by_tube_factor(q, r, eps) == a

    @pytest.mark.parametrize("eps", (1, -1))
    def test_zero_divides_to_zero(self, eps):
        # no quotient step at all: the read-off loop runs zero times
        assert divide_by_tube_factor(Poly2.zero(), Fraction(7, 3), eps) == Poly2.zero()

    @pytest.mark.parametrize(
        "corrupt",
        [
            # a wrong coefficient on Q's support
            lambda product: {**product, (0, 0): product[0, 0] + 1},
            # an extra term off Q's support, every term on it right
            lambda product: {**product, (40, 0): 1},
        ],
        ids=["on the support", "off the support"],
    )
    def test_each_certificate_half_raises(self, monkeypatch, corrupt):
        r = Fraction(7, 3)
        q = tube_generator(r, 1) * self.gapped[1]
        assert (0, 0) in q._nums and (40, 0) not in q._nums
        convolve = polyalg._convolve
        monkeypatch.setattr(polyalg, "_convolve", lambda p1, p2: corrupt(convolve(p1, p2)))
        with pytest.raises(InternalMismatch) as info:
            divide_by_tube_factor(q, r, 1)
        assert str(info.value) == "verified multiplication of the quotient failed"


class TestEpsilonTransform:
    def test_linear_example(self):
        p = X + Y + Poly2.constant(1)
        assert epsilon_transform(p, -1) == -X - Y + Poly2.constant(1)

    def test_identity_for_plus_one(self):
        rng = random.Random(13)
        for _ in range(20):
            q = random_poly2(rng, 6)
            assert epsilon_transform(q, 1) == q

    def test_involution(self):
        rng = random.Random(17)
        for _ in range(50):
            q = random_poly2(rng, 6)
            assert epsilon_transform(epsilon_transform(q, -1), -1) == q

    def test_membership_transfer(self):
        # Q in <x r^2 - 2ry + eps>  iff  Q_eps in <x r^2 - 2ry + 1>
        rng = random.Random(19)
        for _ in range(100):
            quotient = random_poly2(rng, 4)
            r = random_rational(rng, 1, 9)
            q = tube_generator(r, -1) * quotient
            assert substitute_tube(q, r, -1).is_zero
            assert substitute_tube(epsilon_transform(q, -1), r, 1).is_zero
            shifted = q + Poly2.constant(1)
            assert substitute_tube(shifted, r, -1).is_zero == substitute_tube(
                epsilon_transform(shifted, -1), r, 1
            ).is_zero


class TestBinomialLemma:
    def test_empty_alternation(self):
        assert binomial_alternating_sum(0, 7, 3) == 35

    def test_small_case(self):
        # C(5,3) - 2 C(4,3) + C(3,3) = 10 - 8 + 1 = 3 = C(3,1)
        assert binomial_alternating_sum(2, 5, 3) == 3
        assert binom(3, 1) == 3

    def test_negative_upper_index_corner(self):
        # hard-zero convention: every symbol C(2-m, 6) vanishes, so the
        # sum is 0, matching C(-2, 2) = 0 under the same convention
        assert binomial_alternating_sum(4, 2, 6) == 0
        assert binom(-2, 2) == 0

    def test_convention_pins(self):
        assert binom(5, -1) == 0
        assert binom(-3, 0) == 1
        assert binom(4, 7) == 0
        assert binom(6, 2) == 15

    def test_identity_on_defined_range(self):
        for n in range(0, 9):
            for x in range(-4, 13):
                for j in range(0, 13):
                    if lemma_identity_defined(n, x, j):
                        assert binomial_alternating_sum(n, x, j) == binom(x - n, j - n), (n, x, j)
