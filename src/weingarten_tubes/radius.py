"""Exact positive-root machinery and the radius / star-radius sets.

A radius is reported as an :class:`AlgebraicRadius`: a square-free
defining polynomial together with a half-open rational interval
``(lo, hi]`` isolating exactly one positive root, plus the exact value
whenever that root is rational.  The rational roots of the square-free
part s come from its roots modulo one small prime l, lifted l-adically
(``_rational_roots``): l is the first prime not dividing a_n at which the
scan for those roots finds each simple, as at every l prime to
a_n * disc(s).  A root p/q has q | a_n, so p/q mod l is one of them, and
the integer a_n*p/q, smaller than the lift's modulus, is the lift's
symmetric residue.  Only when s deflated by its rational roots keeps a
degree is a Sturm chain of s built: bisected over (0, B_d], B_d the
Cauchy bound of the deflated polynomial, it gives each irrational root
its cell, the cells that hold no rational root, where a node whose roots
are all known rationals is not bisected.  The deflated polynomial is
their defining polynomial.  Every sign is that of an integer form
(homogeneous Horner at p/q over integer Sturm-chain members), so no
divisor of a coefficient is ever enumerated.  Intervals refine on demand
but no decision ever depends on interval width.

Inside this module a univariate polynomial is an integer coefficient
list, constant term first, as are the radius and star polys of a family;
``isolate_positive_roots`` and ``vanishes_at`` take such a list or a
``Poly1``, the public boundary type, whose numerators over its positive
denominator are one (``_integer_list``), as a defining poly's are to
``AlgebraicRadius``.  The gcd, the square-free part with its exact
quotient, the deflation by rational roots and the Sturm chain run a
primitive pseudo-remainder sequence, where each pseudo-remainder is
scaled by a power of |lc| and divided by its positive content.  Every
chain member is then a positive multiple of the Euclidean one over the
rationals, with the same signs everywhere.

Every radius question runs through one :class:`GeneratorFamily`, the
relation G_r = a(r)*x + b(r)*y + c(r) that all regular tubes of radius r
satisfy, printed divided by d(r), each field the integer coefficients of
a polynomial in r from the constant term up.  The families (r is the
radius its lane's algebra works in, which ``_LANE_TABLE`` maps to the tube's):

    K-H lane of signal eps   polyalg._tube_row(eps), r**2*x - 2*r*y + eps
    principal curvatures     (a, b, c, d) = ((), (0, 1), (-1,), (0, 1))
                             (r*y - 1) / r = y - 1/r

Everything derives from R(x, r) = b(r)**n * Q(x, -(a(r)*x + c(r))/b(r)),
n = deg_y Q, the image of Q on the line G_r = 0: Q lies in the ideal of
G_r iff R(x, r) vanishes identically in x, and holds on the right
cylinder of radius r iff R(0, r) = 0.  An integer Horner division in y
computes it, with one loop per kind of line (``polyalg`` docstring).
Over the family, with a, b and c packed at r = 2**k
(``polyalg._family_image``), it expands R as one integer list in r per
power of x: on Q's x**0 terms and the axis x = 0 the radius poly
R(0, r); on all of Q, the star poly, the gcd of R's rows (each without
its factor r**m: r = 0 is never a radius).  At a rational r, on the
integers of G_r (``polyalg._line_horner``), it is R(x, r) itself packed
at x = 2**k, one integer that is zero iff Q is in the ideal and whose
lowest balanced digit is R(0, r) (``classify.QSDescription.contains``).
The integers of G_r are ``polyalg._integer_line``, computed once per
family and rational r while a bounded cache keeps them: the one line that
the tube functions of ``polyalg``, ``tube_generator`` among them, read too.
``decide_radii`` decides each candidate radius once: a rational one by
the same division on the integers of G_r (``polyalg._divide``), which
unpacks the quotient columns of a member and certifies that quotient,
an irrational one by the sign change of the square-free part of
gcd(star poly, defining poly) across its isolating interval, unless it
is a star poly root.
One ``decide_radii`` call decides each distinct family value once, both
K-H rows from one isolation of the eps = +1 axis (its docstring).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import reduce
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .errors import InternalMismatch, ZeroPolynomial
from .polyalg import Poly1, Poly2, _divide, _family_image, _integer_line, _num_den, _tube_row, check_epsilon

DISPLAY_WIDTH = Fraction(1, 10**12)

SPACES = ("euclidean", "lorentzian", "hyperbolic")


# Records are immutable named tuples.  One that checks its fields is a
# subclass of its field tuple whose __new__ validates; its _make, and so
# _replace, goes through that __new__ too.


class _SpaceTag(NamedTuple):
    space: str
    eps: int = 1


class SpaceTag(_SpaceTag):
    """Ambient-space selector; eps is meaningful only for the Lorentzian
    space and fixed +1 otherwise."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, space: str, eps: int = 1):
        if space not in SPACES:
            raise ValueError(f"unknown space {space!r}")
        check_epsilon(eps)
        if space != "lorentzian" and eps != 1:
            raise ValueError("eps = -1 is only meaningful in the Lorentzian space")
        return super().__new__(cls, space, eps)


EUCLIDEAN = SpaceTag("euclidean")
LORENTZIAN_POS = SpaceTag("lorentzian", 1)
LORENTZIAN_NEG = SpaceTag("lorentzian", -1)
HYPERBOLIC = SpaceTag("hyperbolic")
LANES = (EUCLIDEAN, LORENTZIAN_POS, LORENTZIAN_NEG, HYPERBOLIC)  # in report order


# ---------------------------------------------------------------------------
# univariate root tools


def _primitive_part(p: list[int]) -> list[int]:
    """p divided by its positive content; the sign is kept."""
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _normal(p: list[int]) -> list[int]:
    """p divided by its content, with a positive leading coefficient."""
    p = _primitive_part(p)
    return [-c for c in p] if p and p[-1] < 0 else p


def _integer_list(p: Union[Poly1, list[int]]) -> list[int]:
    """A Poly1's numerators, or a list of ints without trailing zeros; any
    other entry, such as a float or a Fraction, is a TypeError naming it."""
    if isinstance(p, Poly1):
        return list(p._nums)
    coeffs = list(p)
    for k, c in enumerate(coeffs):
        if not isinstance(c, int):
            raise TypeError(
                f"coefficient {k} of an integer list is {c!r}, a {type(c).__name__}; "
                "pass a Poly1 for rational coefficients"
            )
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _derivative(p: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(p)][1:]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """|lc(b)|**e * (a mod b) for some e >= 0, on integers: a positive
    multiple of the remainder of a by b over the rationals.  Each step
    eliminates the top term by r -> lc(b)*r - top * x**shift * b."""
    r = list(a)
    d = len(b) - 1
    lead = b[-1]
    steps = 0
    for k in range(len(r) - 1, d - 1, -1):
        top = r.pop()
        if top:
            r = [lead * c for c in r]
            for m in range(d):
                r[k - d + m] -= top * b[m]
            steps += 1
    while r and r[-1] == 0:
        r.pop()
    return [-c for c in r] if lead < 0 and steps % 2 else r


def _common_divisor(a: list[int], b: list[int]) -> list[int]:
    """gcd over the rationals by the primitive pseudo-remainder sequence,
    in normal form (empty when both are zero)."""
    a, b = _primitive_part(a), _primitive_part(b)
    while b:
        a, b = b, _primitive_part(_pseudo_remainder(a, b))
    return _normal(a)


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for b dividing a, b primitive: by Gauss's lemma the quotient
    has integer coefficients, so every step divides exactly.  A step that
    does not, or a nonzero remainder, is an arithmetic bug."""
    r = list(a)
    d = len(b) - 1
    lead = b[-1]
    quo = [0] * (len(r) - d)
    for k in range(len(r) - 1, d - 1, -1):
        q, m = divmod(r.pop(), lead)
        if m:
            raise InternalMismatch("inexact step in an exact polynomial division")
        quo[k - d] = q
        for j in range(d):
            r[k - d + j] -= q * b[j]
    if any(r):
        raise InternalMismatch("nonzero remainder in an exact polynomial division")
    return quo


def _remainder_mod(a: list[int], b: list[int], m: int) -> list[int]:
    """a mod b over the integers modulo the prime m, for reduced a and b,
    b with a nonzero top coefficient."""
    r = list(a)
    d = len(b) - 1
    inverse = pow(b[-1], -1, m)
    for k in range(len(r) - 1, d - 1, -1):
        top = r.pop() * inverse % m
        if top:
            for j in range(d):
                r[k - d + j] = (r[k - d + j] - top * b[j]) % m
    while r and r[-1] == 0:
        r.pop()
    return r


def _squarefree_mod(p: list[int], m: int) -> bool:
    """p is square-free modulo the prime m and keeps its degree there:
    m does not divide lc(p), and p and p' are coprime mod m.  Then p is
    square-free over the rationals too, since a square factor f**2 of p,
    f primitive with lc(f) | lc(p), stays a square factor mod m."""
    if p[-1] % m == 0:
        return False
    a, b = [c % m for c in p], [c % m for c in _derivative(p)]
    while b and b[-1] == 0:
        b.pop()
    while b:
        a, b = b, _remainder_mod(a, b, m)
    return len(a) == 1


# the prime of the square-free check in front of the pseudo-remainder sequence
_CHECK_PRIME = 2**61 - 1


def _squarefree(p: list[int]) -> list[int]:
    """The square-free part of the nonzero p, in normal form.  When p is
    square-free modulo 2**61 - 1 it is its own square-free part, and no
    pseudo-remainder sequence runs.
    On a dense degree-40 axis restriction the check takes 0.7 ms, the sequence 24 ms (2-vCPU Xeon)."""
    if _squarefree_mod(p, _CHECK_PRIME):
        return _normal(p)
    return _normal(_exact_quotient(p, _common_divisor(p, _derivative(p))))


def _sign_at(coeffs: list[int], v: Fraction) -> int:
    return _form_sign(coeffs, v.numerator, v.denominator)


def _form_sign(coeffs: list[int], p: int, q: int) -> int:
    """Sign of the integer polynomial sum c_k x**k at x = p/q, q > 0: the
    sign of the homogeneous form sum c_k p**k q**(d-k), by integer Horner."""
    acc, q_power = 0, 1
    for c in reversed(coeffs):
        acc = acc * p + c * q_power
        q_power *= q
    return (acc > 0) - (acc < 0)


def _sturm_chain(s: list[int]) -> list[list[int]]:
    """Sturm chain of the square-free primitive s by the primitive
    pseudo-remainder sequence: each member the integer coefficients,
    content 1, of a positive multiple of the member over the rationals,
    so every sign and variation count is the same."""
    chain = [s, _primitive_part(_derivative(s))]
    while len(chain[-1]) > 1:
        chain.append(_primitive_part([-c for c in _pseudo_remainder(chain[-2], chain[-1])]))
    return chain


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


def _narrow(coeffs: list[int], lo: Fraction, hi: Fraction, width: Fraction) -> tuple[Fraction, Fraction, bool]:
    """Bisect the one-root cell (lo, hi] of the integer polynomial by the
    sign at hi until hi - lo <= width, stopping early when hi lands on the
    root; the flag says it did.  Integer ends a, b over one denominator
    den, all three doubled at each step: no step builds a Fraction."""
    den = math.lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
    sign_hi = _form_sign(coeffs, b, den)
    while sign_hi and (b - a) * width.denominator > width.numerator * den:
        mid, a, b, den = a + b, 2 * a, 2 * b, 2 * den
        sign_mid = _form_sign(coeffs, mid, den)
        if sign_mid == sign_hi or sign_mid == 0:
            b, sign_hi = mid, sign_mid
        else:
            a = mid
    return Fraction(a, den), Fraction(b, den), sign_hi == 0


def _value_mod(p: list[int], x: int, m: int) -> int:
    """p(x) mod m, by Horner."""
    acc = 0
    for c in reversed(p):
        acc = (acc * x + c) % m
    return acc


def _rational_roots(s: list[int]) -> list[Fraction]:
    """All rational roots (any sign), ascending, of the square-free
    primitive integer polynomial s of degree >= 1.

    The prime l is the first not dividing a_n at which every root alpha of
    s in F_l, from the same scan of s over 0 .. l-1, has s'(alpha) != 0
    mod l: all the lift needs.  Every l not dividing a_n * disc(s)
    qualifies, so the search ends; a repeated factor with no root in F_l
    rejects nothing.  Newton steps lift each root uniquely to a root alpha
    mod l**m >= 2*K, K = |a_n| + max |a_i|.  A rational root p/q has q | a_n
    and |p/q| < K/|a_n|, so N = a_n*p/q is an integer with |N| < K, and
    p/q mod l is one of the simple roots: by the uniqueness of the lift, N
    is the symmetric residue of a_n*alpha mod l**m.  Each residue is kept
    exactly when s vanishes at N/a_n, so every rational root is found,
    once, and nothing else is.
    """
    lead, deriv = s[-1], _derivative(s)
    for ell in itertools.count(2):
        if lead % ell and all(ell % k for k in range(2, math.isqrt(ell) + 1)):
            zeros = [alpha for alpha in range(ell) if not _value_mod(s, alpha, ell)]
            if all(_value_mod(deriv, alpha, ell) for alpha in zeros):
                break
    bound = 2 * (abs(lead) + max(map(abs, s)))
    roots = []
    for alpha in zeros:
        modulus = ell
        while modulus < bound:
            modulus *= modulus
            step = _value_mod(s, alpha, modulus) * pow(_value_mod(deriv, alpha, modulus), -1, modulus)
            alpha = (alpha - step) % modulus
        n = lead * alpha % modulus
        rho = Fraction(n - modulus if 2 * n > modulus else n, lead)
        if _sign_at(s, rho) == 0:
            roots.append(rho)
    return sorted(roots)


class _AlgebraicRadius(NamedTuple):
    defining_poly: Poly1
    lo: Fraction
    hi: Fraction
    exact_value: Optional[Fraction] = None


class AlgebraicRadius(_AlgebraicRadius):
    """A positive real root: square-free defining polynomial plus an
    isolating half-open interval (lo, hi], and the exact value when the
    root is rational.  An irrational root's cell must hold exactly one
    root, with neither end a root (the caller's contract; the library's
    cells meet it, their defining polynomial deflated of every rational
    root); the constructor checks the sign change this implies."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, defining_poly: Poly1, lo: Fraction, hi: Fraction, exact_value: Optional[Fraction] = None):
        if defining_poly.degree < 1:
            raise ValueError("defining polynomial must have degree >= 1")
        for v in (lo, hi) if exact_value is None else (lo, hi, exact_value):
            _num_den(v)  # the integer forms read numerator and denominator
        return cls._checked(defining_poly, lo, hi, exact_value)

    @classmethod
    def _checked(cls, defining_poly: Poly1, lo: Fraction, hi: Fraction, exact_value: Optional[Fraction]) -> "AlgebraicRadius":
        """The constructor's checks after the degree check, each sign that
        of an integer form of the defining poly's numerators."""
        coeffs = defining_poly._nums
        if lo < 0 or not lo < hi:
            raise ValueError("isolating interval must satisfy 0 <= lo < hi")
        if exact_value is not None:
            if _sign_at(coeffs, exact_value):
                raise ValueError("exact_value is not a root of the defining polynomial")
            if not (lo < exact_value <= hi):
                raise ValueError("exact_value outside the isolating interval")
        elif _sign_at(coeffs, lo) * _sign_at(coeffs, hi) >= 0:
            raise ValueError("defining polynomial must have opposite signs at lo and hi")
        return super().__new__(cls, defining_poly, lo, hi, exact_value)

    def refined(self, width: Fraction = DISPLAY_WIDTH) -> "AlgebraicRadius":
        """Equivalent radius whose interval has length <= width, a positive
        finite number taken exactly (a float as the Fraction it equals)."""
        if not 0 < width < math.inf:
            raise ValueError(f"refinement width must be positive and finite, got {width}")
        width = Fraction(width)
        if self.exact_value is not None:
            lo = max(self.lo, self.exact_value - width)
            return AlgebraicRadius(self.defining_poly, lo, self.exact_value, self.exact_value)
        lo, hi, at_root = _narrow(self.defining_poly._nums, self.lo, self.hi, width)
        return self._checked(self.defining_poly, lo, hi, hi if at_root else None)

    def approx(self, width: Fraction = DISPLAY_WIDTH) -> float:
        if self.exact_value is not None:
            return float(self.exact_value)
        fine = self.refined(width)
        return float((fine.lo + fine.hi) / 2)

    def __repr__(self) -> str:
        if self.exact_value is not None:
            return f"AlgebraicRadius({self.exact_value})"
        return f"AlgebraicRadius({self.defining_poly.to_string('r')} on ({self.lo}, {self.hi}])"


def vanishes_at(p: Union[Poly1, list[int]], rad: AlgebraicRadius) -> bool:
    """Exact test p(rho) = 0 at the (possibly irrational) root rho
    described by rad, p a Poly1 or integer coefficients.  At an irrational
    rho: the square-free part of gcd(p, defining poly) changes sign across
    the cell, which holds one root of the defining poly and none at its
    ends.  A zero p needs no branch: the gcd is then the defining
    polynomial, with a root there."""
    p = _integer_list(p)
    if rad.exact_value is not None:
        return _sign_at(p, rad.exact_value) == 0
    common = _squarefree(_common_divisor(p, _integer_list(rad.defining_poly)))
    return _sign_at(common, rad.lo) * _sign_at(common, rad.hi) < 0


class RadiusEntry(NamedTuple):
    radius: AlgebraicRadius
    star: bool


class _RadiusSet(NamedTuple):
    kind: str  # "all-positive" | "finite"
    entries: tuple[RadiusEntry, ...] = ()


class RadiusSet(_RadiusSet):
    """Either every positive radius (axis restriction identically zero)
    or a finite sorted list of isolated radii, as entries with star flags.
    An all-positive set from star_radius_set lists its star radii, the
    positive roots of the star poly; radius_set leaves every flag False
    and an all-positive set empty.  The principal-curvature problem has
    no RadiusSet view: its radii are the one lane of solve_SQ_principal."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, kind: str, entries: tuple[RadiusEntry, ...] = ()):
        if kind not in ("all-positive", "finite"):
            raise ValueError(f"bad RadiusSet kind {kind!r}")
        return super().__new__(cls, kind, entries)

    @property
    def is_all_positive(self) -> bool:
        return self.kind == "all-positive"


# ---------------------------------------------------------------------------
# isolation


def isolate_positive_roots(p: Union[Poly1, list[int]]) -> list[AlgebraicRadius]:
    """All roots of p in (0, +inf), as isolated AlgebraicRadius values
    sorted ascending with pairwise disjoint intervals, p a Poly1 or integer
    coefficients.  A rational root rho gets (lo, rho], lo the largest
    irrational cell end or rational root below rho, or 0."""
    coeffs = _integer_list(p)
    if not coeffs:
        raise ZeroPolynomial("cannot isolate roots of the zero polynomial")
    return _isolations(coeffs, False)[0]


def _mirror(p: list[int], parity: int) -> list[int]:
    """(-1)**parity * p(-r)."""
    return [-c if (k + parity) % 2 else c for k, c in enumerate(p)]


def _isolations(coeffs: list[int], mirrored: bool) -> list[list[AlgebraicRadius]]:
    """isolate_positive_roots of p, the nonzero integer list coeffs, and, if
    mirrored, of p(-r), from one square-free part s, lift, deflation d and Sturm chain.
    For p(-r) the rationals negate, d becomes (-1)**deg(d) * d(-r) and f_i
    (-1)**i * f_i(-r), a Sturm chain: its variation counts are root counts."""
    s = _squarefree(coeffs)
    rationals = _rational_roots(s) if len(s) > 1 else []
    deflated = s
    for rho in rationals:
        deflated = _exact_quotient(deflated, [-rho.numerator, rho.denominator])
    sides = [(rationals, deflated, _sturm_chain(s) if len(deflated) > 1 else [])]
    if mirrored:
        chain = [_mirror(f, i) for i, f in enumerate(sides[0][2])]
        sides.append(([-rho for rho in reversed(rationals)], _mirror(deflated, len(deflated) - 1), chain))
    found = []
    for rationals, deflated, chain in sides:
        positive = [rho for rho in rationals if rho > 0]
        entries = []
        if chain:
            # the cells of s over (0, B_d] away from the known rationals are
            # the first dyadic cells that hold one irrational root and nothing
            # else; deflated is primitive with a positive lead, as s and every
            # factor q*r - p are (Gauss's lemma), and B_d its Cauchy bound
            defining, bound = Poly1(deflated), 1 + Fraction(max(map(abs, deflated)), deflated[-1])
            for lo, hi in _sturm_cells(chain, Fraction(0), bound, positive):
                entries.append(AlgebraicRadius._checked(defining, lo, hi, None))
        ends = [rad.hi for rad in entries] + positive
        for rho in positive:
            lo = max((v for v in ends if v < rho), default=Fraction(0))
            entries.append(AlgebraicRadius._checked(Poly1([-rho.numerator, rho.denominator]), lo, rho, rho))
        found.append(sorted(entries, key=lambda rad: rad.lo))
    return found


# ---------------------------------------------------------------------------
# radius sets


def _without_r_power(row: list[int]) -> list[int]:
    """row / r**m, m the largest such power, without trailing zeros."""
    nonzero = [k for k, v in enumerate(row) if v]
    return row[nonzero[0] : nonzero[-1] + 1] if nonzero else []


class GeneratorFamily(NamedTuple):
    """The relation G_r of the module docstring, each field integer
    coefficients in r.  Every answer derives from R(x, r), computed by
    ``_family_image`` over the family and by ``_line_horner`` at a
    rational r."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    c: tuple[int, ...]
    d: tuple[int, ...]

    def radius_poly(self, q: Poly2) -> list[int]:
        """R(0, r) / r**m up to a constant factor, as integers: its positive
        roots are the cylinder radii; zero ([]) when Q vanishes on the whole
        axis.  The image of Q's x**0 terms alone on the line x = 0."""
        rows = _family_image({e: v for e, v in q._nums.items() if not e[0]}, (), self.b, self.c)
        return _without_r_power(rows[0]) if rows else []

    def star_poly(self, q: Poly2) -> list[int]:
        """The primitive gcd of the x-coefficients of R(x, r), each without
        its factor r**m, as integers: its positive roots are the radii at
        which Q lies in the ideal of G_r."""
        rows = _family_image(q._nums, self.a, self.b, self.c)
        return reduce(_common_divisor, map(_without_r_power, rows), [])


class _Lane(NamedTuple):  # a row of the lane table
    family: GeneratorFamily  # the lane's K-H family
    radius_key: Optional[str] = None  # the report key of its radius, where that is not r
    to_r: Optional[Callable[[float], float]] = None  # and the map from that radius to r


# the lane table, the one place that sets the radius each lane's algebra
# works in; the K-H rows of the two signals mirror each other on the axis
_LANE_TABLE = {
    EUCLIDEAN: _Lane(GeneratorFamily(*_tube_row(1))),
    LORENTZIAN_POS: _Lane(GeneratorFamily(*_tube_row(1))),
    LORENTZIAN_NEG: _Lane(GeneratorFamily(*_tube_row(-1))),
    HYPERBOLIC: _Lane(GeneratorFamily(*_tube_row(1)), "sinh_radius", math.asinh),  # rho = sinh r
}
_MIRRORED = (_LANE_TABLE[LORENTZIAN_POS].family, _LANE_TABLE[LORENTZIAN_NEG].family)
PRINCIPAL = GeneratorFamily((), (0, 1), (-1,), (0, 1))


def tube_family(tag: SpaceTag) -> GeneratorFamily:
    """The generator family x*r**2 - 2*r*y + eps of one lane (``_LANE_TABLE``)."""
    return _LANE_TABLE[tag].family


def _axis_radii(q: Poly2, families: Sequence[GeneratorFamily]) -> dict[GeneratorFamily, Optional[list[AlgebraicRadius]]]:
    """The positive roots of each distinct family's radius poly, None when
    it is zero (Q vanishes on the whole axis); one isolation serves both
    K-H rows when both are asked (``decide_radii``)."""
    if q.is_zero:
        raise ZeroPolynomial("the zero relation holds on every surface; radius sets are undefined")
    paired = all(family in families for family in _MIRRORED)
    radii = {}
    for family in families:
        pair = _MIRRORED if paired and family in _MIRRORED else (family,)
        if family not in radii:
            p = pair[0].radius_poly(q)
            radii.update(zip(pair, _isolations(p, len(pair) == 2) if p else [None, None]))
    return radii


def decide_radii(
    q: Poly2, families: Sequence[GeneratorFamily]
) -> dict[GeneratorFamily, tuple[bool, tuple[tuple[RadiusEntry, Optional[Poly2]], ...]]]:
    """(all_positive, decisions) for Q in each distinct family given.

    Each decision is a radius entry with its star flag, plus the exact
    quotient of Q by G_r when the radius is a rational star.  The
    candidates are the positive roots of the radius poly or, when Q
    vanishes on the whole axis (right cylinders of every radius), of the
    star poly.  A rational candidate is decided once, by the certified
    division by G_r; an irrational one by the star poly, or not at all
    when it is a root of the star poly by construction.  Both K-H rows
    take their radius poly roots from one isolation: R_-(0, r) =
    (-1)**n * R_+(0, -r), n = deg_y Q, as both are (-2r)**n * Q(0, eps/(2r)).
    Star decisions and quotients stay per family.
    """
    decided = {}
    for family, radii in _axis_radii(q, families).items():
        all_positive = radii is None
        star_poly = None
        if all_positive:
            star_poly = family.star_poly(q)
            radii = isolate_positive_roots(star_poly) if len(star_poly) > 1 else []
        decisions = []
        for rad in radii:
            quotient = None
            r = rad.exact_value
            if r is not None:
                quotient = _divide(q, *_integer_line(family, r.numerator, r.denominator))
                star = quotient is not None
            else:
                if star_poly is None:
                    star_poly = family.star_poly(q)
                star = all_positive or vanishes_at(star_poly, rad)  # all-positive: a star poly root
            decisions.append((RadiusEntry(rad, star), quotient))
        decided[family] = (all_positive, tuple(decisions))
    return decided


def _radius_sets(q: Poly2, tags: Sequence[SpaceTag], star: bool) -> list[RadiusSet]:
    """The radius_set, or star_radius_set when star, of each tag: one pass per distinct family."""
    families = [tube_family(tag) for tag in tags]
    decided = decide_radii(q, families) if star else {
        family: (radii is None, [(RadiusEntry(rad, False), None) for rad in radii or ()])
        for family, radii in _axis_radii(q, families).items()
    }
    return [
        RadiusSet("all-positive" if all_positive else "finite", tuple(entry for entry, _ in decisions))
        for all_positive, decisions in map(decided.get, families)
    ]


def radius_set(q: Poly2, tag: SpaceTag) -> RadiusSet:
    """Positive radii at which the right cylinder of that radius (and
    signal, in the Lorentzian lane) satisfies Q(K, H) = 0.

    Entries are in the radius of the lane's algebra (``_LANE_TABLE``).
    Star flags are left False; use star_radius_set for the full decision.
    """
    return _radius_sets(q, (tag,), False)[0]


def star_radius_set(q: Poly2, tag: SpaceTag) -> RadiusSet:
    """radius_set with star = True exactly where Q lies in the ideal of
    the tube relation at that radius (see decide_radii); an all-positive
    set lists the star radii, as classify does."""
    return _radius_sets(q, (tag,), True)[0]
