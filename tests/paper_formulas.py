"""The paper's closed formulas, kept as test oracles.

None of this is on a decision path.  ``gamma_formula`` is the paper's
binomial double sum for the cleared coefficient polynomials g_k(r); the
library computes the same polynomials by one integer Horner expansion
(``polyalg.gamma_cleared``, a view of ``_family_image``), and the tests
compare the two.  ``linear_cases`` is the paper's closed-form case table
for the linear relation a*x + b*y = c, and ``second_fundamental_lanes``
its answer for a second fundamental form of constant length c; the
library reads both off ``solve_SQ`` (``classify.classify_linear`` and
``classify.classify_second_fundamental``).  The binomial symbol
and its alternating-sum identity pin the conventions that formula rests
on, and ``epsilon_transform`` carries statements between the eps = -1
and eps = +1 generators.  ``LANE_ROWS`` and ``PRINCIPAL_ROW`` write each
lane's tube relation as the paper states it, for the sympy reference of
``reference_sq``.
"""

import math
from fractions import Fraction

from weingarten_tubes.errors import ZeroPolynomial
from weingarten_tubes.polyalg import Poly1, Poly2, check_epsilon


def binom(p: int, q: int) -> int:
    """Binomial symbol with the pinned zero conventions.

    C(p, q) = 0 for q < 0; C(p, 0) = 1 for every integer p; for q > 0 the
    symbol is 0 whenever p < 0 (hard zero, not the generalized binomial)
    or 0 <= p < q, and the ordinary binomial coefficient otherwise.
    """
    if q < 0:
        return 0
    if q == 0:
        return 1
    if p < 0 or q > p:
        return 0
    return math.comb(p, q)


def binomial_alternating_sum(n: int, x: int, j: int) -> int:
    """Direct evaluation of sum_{m=0..n} (-1)^m C(x-m, j) C(n, m).

    Under the conventions of :func:`binom` this equals C(x-n, j-n)
    whenever no symbol involved has a negative upper index together with
    a positive lower index; see :func:`lemma_identity_defined`.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum((-1) ** m * binom(x - m, j) * math.comb(n, m) for m in range(n + 1))


def lemma_identity_defined(n: int, x: int, j: int) -> bool:
    """True when every binomial symbol in the alternating-sum identity is
    outside the negative-upper/positive-lower corner where the hard-zero
    convention and the generalized binomial disagree."""
    if any(x - m < 0 and j > 0 for m in range(n + 1)):
        return False
    if x - n < 0 and j - n > 0:
        return False
    return True


def epsilon_transform(q: Poly2, eps: int) -> Poly2:
    """Coefficient map a_{i,j} -> eps**(i+j) * a_{i,j}; equivalently the
    ring substitution x -> eps*x, y -> eps*y.  Identity for eps = +1,
    an involution for eps = -1."""
    check_epsilon(eps)
    if eps == 1:
        return q
    return Poly2([((i, j), c if (i + j) % 2 == 0 else -c) for (i, j), c in q.terms()])


def gamma_formula(q: Poly2) -> list[Poly1]:
    """g_k(r) = 2**n * r**n * gamma_k(r), k = 0..n, n the total degree of
    Q, by the paper's double sum: gamma_k(r) = sum_{i=0..k}
    sum_{j=0..n-k} C(k-i+j, j) * a_{i,k-i+j} / (2**(k-i+j) * r**(j+i))
    is the x**k coefficient of Q(x/r, (x*r + 1)/(2*r))."""
    if q.is_zero:
        raise ZeroPolynomial("gamma_formula requires a nonzero polynomial")
    n = q.degree
    out = []
    for k in range(n + 1):
        coeffs = [Fraction(0)] * (n + 1)
        for i in range(k + 1):
            for j in range(n - k + 1):
                a = q.coeff(i, k - i + j)
                if a == 0:
                    continue
                # 2^n r^n * C(k-i+j, j) a / (2^(k-i+j) r^(j+i))
                coeffs[n - j - i] += binom(k - i + j, j) * a * 2 ** (n - (k - i + j))
        out.append(Poly1(coeffs))
    return out


# (space, eps) of every lane, in report order
LANES = (("euclidean", 1), ("lorentzian", 1), ("lorentzian", -1), ("hyperbolic", 1))


def tube_row(eps: int):
    """The paper's relation r**2*K - 2*r*H + eps = 0 of every regular tube
    of radius r and signal eps, as r -> (a, b, c) with a*x + b*y + c its
    left side, x = K and y = H; r is rho = sinh r in the hyperbolic lane.
    Its right cylinder has the curvature point (0, eps/(2r)), where the
    line meets the axis x = 0."""
    return lambda r: (r**2, -2 * r, eps)


# (space, eps, row) of every lane of classify, in report order
LANE_ROWS = tuple((space, eps, tube_row(eps)) for space, eps in LANES)
# the Euclidean principal-curvature relation k2 = 1/r, x = k1 and y = k2
PRINCIPAL_ROW = ("euclidean", 1, lambda r: (0, 1, -1 / r))


def linear_cases(a: Fraction, b: Fraction, c: Fraction) -> list[tuple]:
    """The paper's case table for a*x + b*y - c = 0, (a, b) != (0, 0), as
    (space, eps, kind, radius, discriminant) per lane, in report order.

    A lane of signal eps holds right cylinders of every radius iff
    b = c = 0, and is otherwise nonempty iff b, c != 0 with sgn(b*c) = eps:
    then its radius (rho = sinh r in the hyperbolic lane) is b*eps/(2c),
    and it holds all tubes of that radius iff the discriminant
    eps*b**2 + 4ac is 0, right cylinders only otherwise.
    """
    out = []
    for space, eps in LANES:
        if b == 0 and c == 0:
            out.append((space, eps, "cylinders-any-radius", None, None))
        elif b != 0 and c != 0 and (b * c > 0) == (eps > 0):
            delta = eps * b * b + 4 * a * c
            kind = "all-tubes" if delta == 0 else "right-cylinders"
            out.append((space, eps, kind, b * eps / (2 * c), delta))
        else:
            out.append((space, eps, "empty", None, None))
    return out


def second_fundamental_lanes(c: Fraction) -> list[tuple]:
    """The paper's answer for tubes whose second fundamental form has
    constant length c > 0, as (space, eps, all_cylinders_any_radius,
    [(kind, radius)]) per lane, in report order: right cylinders only, of
    radius 1/c (rho = sinh r = 1/c in the hyperbolic lane), in every lane.

    The length is 4*H**2 - 2*K = c**2.  A right cylinder has K = 0 and
    H = eps/(2r), so 1/r**2 = c**2 under either signal.  On any other
    tube (K, H) runs along the line r**2*K - 2*r*H + eps = 0, where the
    relation is a quadratic in K with leading coefficient r**2 != 0."""
    return [(space, eps, False, [("right-cylinders", 1 / c)]) for space, eps in LANES]
