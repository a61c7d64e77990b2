"""Exact positive-root machinery and the radius / star-radius sets.

A radius is reported as an :class:`AlgebraicRadius`: a square-free
defining polynomial together with a half-open rational interval
``(lo, hi]`` isolating exactly one positive root, plus the exact value
whenever that root is rational.  A rational root p/q of a primitive
integer polynomial has q | a_n, so it lies on the grid Z/a_n: every real
root of the square-free part s is isolated by Sturm bisection, its cell
narrowed to width 1/|a_n|, and the one grid point left in it tested
exactly.  The same Sturm chain of s, bisected over (0, B_d] with B_d the
Cauchy bound of s deflated by its rational roots, gives each irrational
root its cell: the cells that hold no rational root, where a node
whose roots are all known rationals is not bisected.  The deflated
polynomial is their defining polynomial, and each isolation builds one
chain.  Every sign is that of an integer form (homogeneous Horner at p/q
over integer Sturm-chain members), so no divisor of a coefficient is
ever enumerated.  Intervals refine on demand but no decision ever
depends on interval width.

Every radius question runs through one :class:`GeneratorFamily`, the
relation G_r = 0 that all regular tubes of radius r satisfy: the K-H
relation x*r**2 - 2*r*y + eps of one lane, or the principal-curvature
relation y - 1/r.  A family supplies the polynomial in r whose positive
roots are the cylinder radii, the cleared polynomials whose common roots
are the star radii, and G_r itself at a rational r.  ``decide_radii``
decides each candidate radius once: a rational one by the certified
division by G_r (polyalg), an irrational one by the gcd of the cleared
polynomials and a Sturm count on its isolating interval.

The three ambient spaces are lanes of the K-H family.  The eps = -1
Lorentzian lane reads the sign-transformed polynomial, and hyperbolic
radii are computed in the substituted variable rho = sinh(r) (reported
alongside a numeric r = asinh(rho) rendering), so every membership
decision stays in exact rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Optional, Union

from .errors import ZeroPolynomial
from .polyalg import (
    Poly1,
    Poly2,
    certified_quotient,
    check_epsilon,
    divide_by_linear,
    epsilon_transform,
    gamma_cleared,
    tube_generator,
)

DISPLAY_WIDTH = Fraction(1, 10**12)

SPACES = ("euclidean", "lorentzian", "hyperbolic")


@dataclass(frozen=True)
class SpaceTag:
    """Ambient-space selector; eps is meaningful only for the Lorentzian
    space and fixed +1 otherwise."""

    space: str
    eps: int = 1

    def __post_init__(self):
        if self.space not in SPACES:
            raise ValueError(f"unknown space {self.space!r}")
        check_epsilon(self.eps)
        if self.space != "lorentzian" and self.eps != 1:
            raise ValueError("eps = -1 is only meaningful in the Lorentzian space")


EUCLIDEAN = SpaceTag("euclidean")
LORENTZIAN_POS = SpaceTag("lorentzian", 1)
LORENTZIAN_NEG = SpaceTag("lorentzian", -1)
HYPERBOLIC = SpaceTag("hyperbolic")


# ---------------------------------------------------------------------------
# univariate root tools


def _integer_coeffs(p: Poly1) -> list[int]:
    """Integer coefficients of a positive multiple of p: the content is
    divided out but the sign kept, so signs at every point are p's own
    (_primitive may flip them)."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    nums = [int(c * den) for c in p.coeffs]
    g = math.gcd(*nums)
    return [n // g for n in nums]


def _primitive(p: Poly1) -> Poly1:
    """Integer-coefficient scalar multiple with coprime coefficients and a
    positive leading coefficient."""
    if p.is_zero:
        return p
    nums = _integer_coeffs(p)
    return Poly1(nums if nums[-1] > 0 else [-n for n in nums])


def _gcd(a: Poly1, b: Poly1) -> Poly1:
    while not b.is_zero:
        a, b = b, a.divmod(b)[1]
    return _primitive(a)


def _squarefree(p: Poly1) -> Poly1:
    if p.degree < 1:
        return _primitive(p)
    g = _gcd(p, p.derivative())
    if g.degree < 1:
        return _primitive(p)
    quo, rem = p.divmod(g)
    assert rem.is_zero
    return _primitive(quo)


def _sign_at(coeffs: list[int], v: Fraction) -> int:
    """Sign of the integer polynomial sum c_k x**k at x = p/q, q > 0: the
    sign of the homogeneous form sum c_k p**k q**(d-k), by integer Horner."""
    p, q = v.numerator, v.denominator
    acc, q_power = 0, 1
    for c in reversed(coeffs):
        acc = acc * p + c * q_power
        q_power *= q
    return (acc > 0) - (acc < 0)


def _sturm_chain(s: Poly1) -> list[list[int]]:
    """Sturm chain of the square-free s, each member converted once to
    the integer coefficients of a positive multiple of itself."""
    chain = [s, s.derivative()]
    if chain[1].is_zero:
        chain = chain[:1]
    while chain[-1].degree > 0:
        rem = chain[-2].divmod(chain[-1])[1]
        if rem.is_zero:
            break
        chain.append(-rem)
    return [_integer_coeffs(p) for p in chain]


def _variations(chain: list[list[int]], v: Fraction) -> int:
    signs = [sign for sign in (_sign_at(p, v) for p in chain) if sign]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sturm_cells(
    chain: list[list[int]], lo: Fraction, hi: Fraction, known: list[Fraction]
) -> list[tuple[Fraction, Fraction]]:
    """Cells (a, b] that each hold exactly one root of the chain's
    square-free head and none of the roots ``known``, by bisection of
    (lo, hi]; every other root in (lo, hi] lies in one of them.  A node
    whose roots are all known is not bisected, so each cell is still the
    first dyadic node that holds its root and no other."""
    cells = []
    stack = [(lo, _variations(chain, lo), hi, _variations(chain, hi))]
    while stack:
        lo, v_lo, hi, v_hi = stack.pop()
        n = v_lo - v_hi
        if n == sum(lo < rho <= hi for rho in known):
            continue
        if n == 1:
            cells.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        v_mid = _variations(chain, mid)
        stack.append((lo, v_lo, mid, v_mid))
        stack.append((mid, v_mid, hi, v_hi))
    return cells


def _count_roots_halfopen(p: Poly1, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of p in (lo, hi]: V(lo) - V(hi) on the Sturm
    chain of its square-free part, which holds at endpoint roots too
    since V(c) = V(c+) at a root c."""
    if p.is_zero:
        raise ZeroPolynomial("cannot count roots of the zero polynomial")
    chain = _sturm_chain(_squarefree(p))
    return _variations(chain, lo) - _variations(chain, hi)


def _cauchy_bound(p: Poly1) -> Fraction:
    lead = abs(p.coeffs[-1])
    return 1 + max(abs(c) for c in p.coeffs) / lead


def _narrow(coeffs: list[int], lo: Fraction, hi: Fraction, width: Fraction) -> tuple[Fraction, Fraction, bool]:
    """Bisect the one-root cell (lo, hi] of the integer polynomial by the
    sign at hi until hi - lo <= width, stopping early when hi lands on the
    root; the flag says it did."""
    sign_hi = _sign_at(coeffs, hi)
    while sign_hi and hi - lo > width:
        mid = (lo + hi) / 2
        sign_mid = _sign_at(coeffs, mid)
        if sign_mid == sign_hi or sign_mid == 0:
            hi, sign_hi = mid, sign_mid
        else:
            lo = mid
    return lo, hi, sign_hi == 0


def _rational_roots(s: Poly1, chain: list[list[int]]) -> list[Fraction]:
    """All rational roots (any sign), ascending, of a square-free
    primitive integer polynomial s with Sturm chain ``chain``.

    A root p/q in lowest terms has q | a_n, so it lies on the grid
    Z/|a_n|.  Each real root is isolated by Sturm bisection of (-B, B],
    B the Cauchy bound, and its cell narrowed to width 1/|a_n|: a
    half-open cell that narrow holds one grid point, and that point, or
    a midpoint where s vanishes, is the only rational candidate.  The
    same chain later isolates the irrational roots.
    """
    coeffs = chain[0]
    lead = abs(coeffs[-1])
    bound = _cauchy_bound(s)
    roots = []
    for lo, hi in _sturm_cells(chain, -bound, bound, []):
        lo, hi, at_root = _narrow(coeffs, lo, hi, Fraction(1, lead))
        grid = hi if at_root else Fraction(math.floor(hi * lead), lead)
        if grid > lo and _sign_at(coeffs, grid) == 0:
            roots.append(grid)
    return sorted(roots)


@dataclass(frozen=True)
class AlgebraicRadius:
    """A positive real root: square-free defining polynomial plus an
    isolating half-open interval (lo, hi], and the exact value when the
    root is rational."""

    defining_poly: Poly1
    lo: Fraction
    hi: Fraction
    exact_value: Optional[Fraction] = None

    def __post_init__(self):
        if self.lo < 0 or not self.lo < self.hi:
            raise ValueError("isolating interval must satisfy 0 <= lo < hi")
        if self.exact_value is not None:
            if self.defining_poly.eval(self.exact_value) != 0:
                raise ValueError("exact_value is not a root of the defining polynomial")
            if not (self.lo < self.exact_value <= self.hi):
                raise ValueError("exact_value outside the isolating interval")

    @property
    def is_rational(self) -> bool:
        return self.exact_value is not None

    def refined(self, width: Fraction = DISPLAY_WIDTH) -> "AlgebraicRadius":
        """Equivalent radius whose interval has length <= width."""
        lo, hi = self.lo, self.hi
        if self.exact_value is not None:
            lo = max(lo, self.exact_value - width)
            return AlgebraicRadius(self.defining_poly, lo, self.exact_value, self.exact_value)
        lo, hi, at_root = _narrow(_integer_coeffs(self.defining_poly), lo, hi, width)
        return AlgebraicRadius(self.defining_poly, lo, hi, hi if at_root else None)

    def approx(self, width: Fraction = DISPLAY_WIDTH) -> float:
        if self.exact_value is not None:
            return float(self.exact_value)
        fine = self.refined(width)
        return float((fine.lo + fine.hi) / 2)

    def contains(self, v: Fraction) -> bool:
        return self.lo < v <= self.hi

    def __repr__(self) -> str:
        if self.exact_value is not None:
            return f"AlgebraicRadius({self.exact_value})"
        return (
            f"AlgebraicRadius({self.defining_poly.to_string('r')} on "
            f"({self.lo}, {self.hi}])"
        )


def vanishes_at(p: Poly1, rad: AlgebraicRadius) -> bool:
    """Exact test p(rho) = 0 at the (possibly irrational) root rho
    described by rad."""
    if p.is_zero:
        return True
    if rad.exact_value is not None:
        return p.eval(rad.exact_value) == 0
    common = _gcd(_squarefree(p), rad.defining_poly)
    return common.degree >= 1 and _count_roots_halfopen(common, rad.lo, rad.hi) >= 1


@dataclass(frozen=True)
class RadiusEntry:
    radius: AlgebraicRadius
    star: bool


@dataclass(frozen=True)
class RadiusSet:
    """Either every positive radius (axis restriction identically zero)
    or a finite sorted list of isolated radii with star flags."""

    kind: str  # "all-positive" | "finite"
    entries: tuple[RadiusEntry, ...] = ()

    def __post_init__(self):
        if self.kind not in ("all-positive", "finite"):
            raise ValueError(f"bad RadiusSet kind {self.kind!r}")
        if self.kind == "all-positive" and self.entries:
            raise ValueError("all-positive radius set carries no entries")

    @property
    def is_all_positive(self) -> bool:
        return self.kind == "all-positive"

    def star_entries(self) -> tuple[RadiusEntry, ...]:
        return tuple(e for e in self.entries if e.star)


# ---------------------------------------------------------------------------
# isolation


def isolate_positive_roots(p: Poly1) -> list[AlgebraicRadius]:
    """All roots of p in (0, +inf), as isolated AlgebraicRadius values
    sorted ascending with pairwise disjoint intervals.  A rational root
    rho gets (lo, rho], lo the largest irrational cell end or rational
    root below rho, or 0."""
    if p.is_zero:
        raise ZeroPolynomial("cannot isolate roots of the zero polynomial")
    s = _squarefree(p)
    if s.degree < 1:
        return []
    chain = _sturm_chain(s)
    rationals = _rational_roots(s, chain)
    positive = [rho for rho in rationals if rho > 0]
    deflated = s
    for rho in rationals:
        deflated, rem = deflated.divmod(Poly1([-rho, 1]))
        assert rem.is_zero
    entries = []
    if deflated.degree >= 1:
        # the cells of s over (0, B_d] away from the known rationals are
        # the first dyadic cells that hold one irrational root and nothing else
        deflated = _primitive(deflated)
        for lo, hi in _sturm_cells(chain, Fraction(0), _cauchy_bound(deflated), positive):
            entries.append(AlgebraicRadius(deflated, lo, hi, None))
    ends = [rad.hi for rad in entries] + positive
    for rho in positive:
        lo = max((v for v in ends if v < rho), default=Fraction(0))
        entries.append(AlgebraicRadius(_primitive(Poly1([-rho, 1])), lo, rho, rho))
    entries.sort(key=lambda rad: rad.lo)
    return entries


# ---------------------------------------------------------------------------
# radius sets


def axis_restriction(q: Poly2) -> Poly1:
    """The univariate restriction q0(y) = Q(0, y)."""
    terms = [(j, c) for (i, j), c in q.terms() if i == 0]
    if not terms:
        return Poly1()
    size = max(j for j, _ in terms) + 1
    coeffs = [Fraction(0)] * size
    for j, c in terms:
        coeffs[j] = c
    return Poly1(coeffs)


def _reversed_scaled(q0: Poly1, scale: int) -> Poly1:
    """(scale*t)**d * q0(1/(scale*t)) as an exact polynomial in t; its
    positive roots are 1/(scale * y*) for the positive roots y* of q0."""
    d = q0.degree
    return Poly1([q0.coeff(d - m) * Fraction(scale) ** m for m in range(d + 1)])


@dataclass(frozen=True)
class GeneratorFamily:
    """The relation G_r(x, y) = 0 that every regular tube of radius r
    satisfies, as a family in r.

    Two families exist: the K-H lane relation x*r**2 - 2*r*y + eps
    (``tube_family``; r is rho = sinh(r) in the hyperbolic space) and the
    principal-curvature relation y - 1/r (``PRINCIPAL``).  Q holds on every
    tube of radius r exactly when Q lies in the ideal of G_r, and on the
    right cylinder of radius r exactly when Q vanishes at the point
    (0, eps/(axis_scale*r)) where G_r meets the axis x = 0.

    ``generator`` gives G_r at a rational r; ``cleared`` gives polynomials
    in r whose common roots are the radii where Q lies in the ideal.
    """

    eps: int
    axis_scale: int
    generator: Callable[[Fraction], Poly2]
    cleared: Callable[[Poly2], list[Poly1]]

    def radius_poly(self, q: Poly2) -> Poly1:
        """Polynomial in r whose positive roots are the cylinder radii;
        zero when Q vanishes on the whole axis."""
        return _reversed_scaled(axis_restriction(epsilon_transform(q, self.eps)), self.axis_scale)

    def star_poly(self, q: Poly2) -> Poly1:
        """gcd of the cleared polynomials: its positive roots are exactly
        the radii at which Q lies in the ideal of G_r."""
        common = Poly1.zero()
        for g in self.cleared(q):
            common = _gcd(common, g)
        return common

    def contains(self, q: Poly2, radius: Union[Fraction, AlgebraicRadius]) -> bool:
        """Q lies in the ideal of G_r; a rational r is decided by the
        remainder of one division, an irrational one by the star poly."""
        if isinstance(radius, AlgebraicRadius):
            return vanishes_at(self.star_poly(q), radius)
        return divide_by_linear(q, self.generator(radius))[1].is_zero


def tube_family(tag: SpaceTag) -> GeneratorFamily:
    """The generator family x*r**2 - 2*r*y + eps of one lane."""
    eps = tag.eps
    return GeneratorFamily(
        eps, 2, partial(tube_generator, eps=eps), lambda q: gamma_cleared(epsilon_transform(q, eps))
    )


def _principal_generator(r: Fraction) -> Poly2:
    return Poly2([((0, 1), 1), ((0, 0), -1 / r)])


def _principal_cleared(q: Poly2) -> list[Poly1]:
    # r**deg * h(1/r) for each coefficient h(y) of a power of x in Q(x, 1/r)
    return [_reversed_scaled(h, 1) for h in q.x_coefficients() if not h.is_zero]


PRINCIPAL = GeneratorFamily(1, 1, _principal_generator, _principal_cleared)


def decide_radii(
    q: Poly2, family: GeneratorFamily
) -> tuple[bool, tuple[tuple[RadiusEntry, Optional[Poly2]], ...]]:
    """(all_positive, decisions) for Q in one generator family.

    Each decision is a radius entry with its star flag, plus the exact
    quotient of Q by G_r when the radius is a rational star.  The
    candidates are the positive roots of the radius poly or, when Q
    vanishes on the whole axis (right cylinders of every radius), of the
    star poly.  A rational candidate is decided once, by the certified
    division by G_r; an irrational one by the star poly.
    """
    if q.is_zero:
        raise ZeroPolynomial("the zero relation holds on every surface; radius sets are undefined")
    candidates = family.radius_poly(q)
    all_positive = candidates.is_zero
    star_poly = None
    if all_positive:
        candidates = star_poly = family.star_poly(q)
    radii = isolate_positive_roots(candidates) if candidates.degree >= 1 else []
    decisions = []
    for rad in radii:
        quotient = None
        if rad.exact_value is not None:
            quotient = certified_quotient(q, family.generator(rad.exact_value))
            star = quotient is not None
        else:
            if star_poly is None:
                star_poly = family.star_poly(q)
            star = vanishes_at(star_poly, rad)
        decisions.append((RadiusEntry(rad, star), quotient))
    return all_positive, tuple(decisions)


def _star_set(q: Poly2, family: GeneratorFamily) -> RadiusSet:
    all_positive, decisions = decide_radii(q, family)
    if all_positive:
        return RadiusSet("all-positive")
    return RadiusSet("finite", tuple(entry for entry, _ in decisions))


def radius_set(q: Poly2, tag: SpaceTag) -> RadiusSet:
    """Positive radii at which the right cylinder of that radius (and
    signal, in the Lorentzian lane) satisfies Q(K, H) = 0.

    Euclidean/Lorentzian entries are in the radius r itself; hyperbolic
    entries are in rho = sinh(r).  Star flags are left False; use
    star_radius_set for the full decision.
    """
    if q.is_zero:
        raise ZeroPolynomial("the zero relation holds on every surface; radius sets are undefined")
    p = tube_family(tag).radius_poly(q)
    if p.is_zero:
        return RadiusSet("all-positive")
    radii = isolate_positive_roots(p) if p.degree >= 1 else []
    return RadiusSet("finite", tuple(RadiusEntry(rad, False) for rad in radii))


def star_radius_set(q: Poly2, tag: SpaceTag) -> RadiusSet:
    """radius_set with star = True exactly where Q lies in the ideal of
    the tube relation at that radius (see decide_radii)."""
    return _star_set(q, tube_family(tag))


def principal_radius_set(q: Poly2) -> RadiusSet:
    """Radii for the principal-curvature problem Q(k1, k2) = 0: positive
    r with Q(0, 1/r) = 0, star-flagged when Q(x, 1/r) vanishes
    identically in x (membership in the ideal of y - 1/r)."""
    return _star_set(q, PRINCIPAL)
