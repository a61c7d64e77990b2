"""Shared fixtures and independent oracles for the test suite."""

import math
import random
from fractions import Fraction

import pytest

from weingarten_tubes.polyalg import Poly1, Poly2


@pytest.fixture
def sq_poly() -> Poly2:
    # 14y - 25x + 100xy - 40y^2 - 1
    return Poly2(
        [((0, 1), 14), ((1, 0), -25), ((1, 1), 100), ((0, 2), -40), ((0, 0), -1)]
    )


@pytest.fixture
def exq_poly() -> Poly2:
    # 4x^4 + 8x^2y^2 - 12xy^3 + 9x^3 + 9x^2y - 9xy^2 - 4y^3
    #   + 22x^2 - 8xy - 7y^2 - 91x + 98y - 24
    return Poly2(
        [
            ((4, 0), 4),
            ((2, 2), 8),
            ((1, 3), -12),
            ((3, 0), 9),
            ((2, 1), 9),
            ((1, 2), -9),
            ((0, 3), -4),
            ((2, 0), 22),
            ((1, 1), -8),
            ((0, 2), -7),
            ((1, 0), -91),
            ((0, 1), 98),
            ((0, 0), -24),
        ]
    )


def random_rational(rng: random.Random, lo: int = -9, hi: int = 9, max_den: int = 9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_positive_rational(rng: random.Random, hi: int = 10, max_den: int = 9) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(1, hi * den), den)


def random_poly2(rng: random.Random, max_degree: int, n_terms: int = 6) -> Poly2:
    terms = []
    for _ in range(n_terms):
        i = rng.randint(0, max_degree)
        j = rng.randint(0, max_degree - i)
        terms.append(((i, j), random_rational(rng)))
    return Poly2(terms)


def brute_substitute(q: Poly2, r: Fraction, eps: int = 1) -> list[Fraction]:
    """Independent expansion of Q(eps*x/r, eps*(x*r + 1)/(2*r)) using only
    the binomial theorem on (x*r + 1)**j; returns dense coefficients."""
    n = q.degree
    if n < 0:
        return []
    out = [Fraction(0)] * (n + 1)
    for (i, j), a in q.terms():
        scale = a * Fraction(eps) ** (i + j) / (r**i * (2 * r) ** j)
        for m in range(j + 1):
            out[i + m] += scale * math.comb(j, m) * r**m
    while out and out[-1] == 0:
        out.pop()
    return out


def brute_product(p: Poly2, q: Poly2) -> dict:
    """Independent product of two polynomials, term by term over Fraction;
    returns {(i, j): coefficient} with cancelled terms dropped."""
    out: dict = {}
    for (i1, j1), a in p.terms():
        for (i2, j2), b in q.terms():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, Fraction(0)) + a * b
    return {key: c for key, c in out.items() if c != 0}


def axis_restriction(q: Poly2) -> Poly1:
    """The univariate restriction q0(y) = Q(0, y), read off Q's terms."""
    coeffs: dict = {}
    for (i, j), c in q.terms():
        if i == 0:
            coeffs[j] = c
    return Poly1([coeffs.get(j, 0) for j in range(max(coeffs, default=-1) + 1)])


def poly_product(*factors) -> list:
    """Coefficients, constant term first, of the product of the
    univariate polynomials with these coefficient lists (1 for none), by
    schoolbook convolution."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def linear_product(factors) -> list[int]:
    """Integer coefficients of the product of the factors q*r - p."""
    return poly_product(*([-p, q] for q, p in factors))
