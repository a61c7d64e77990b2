"""Exact polynomial arithmetic and the tube-ideal machinery.

Every decision made here (equality, ideal membership, quotient
extraction) is exact and runs on Python ints.  Two types:

* ``Poly2`` -- sparse bivariate polynomial in (x, y), stored cleared:
  one positive integer denominator and nonzero integer numerators keyed
  by exponent pairs (i, j), with no factor common to all of them, in
  canonical term order.  Equality and hashing compare integers; sums,
  products, powers and negation work on the numerators and build no
  Fraction.  ``terms`` and ``coeff`` hand out Fractions.  The ring
  operations are three helpers on cleared (den, numerators) pairs that
  keep no canonical form, so the parser chains them and canonicalises
  once (``Poly2._from_cleared``): ``_add`` sums any number of signed
  parts into one dict, ``_convolve`` multiplies, and ``_expand_power``
  raises to a power in one pass over the support of the result (Miller's
  recurrence on a Kronecker index), not in k products.
* ``Poly1`` -- dense univariate polynomial: Fraction coefficient tuple
  indexed by exponent, trailing coefficient nonzero.  It is the public
  boundary type of the univariate results (substitution images, the
  paper's gamma polynomials, defining polynomials of radii), a value
  with no ring operations; the algebra behind them runs on integer lists.

On top of the ring arithmetic the module owns the one division by a
linear relation g = a*x + b*y + c, b != 0: how Q is divided on the line
g = 0.  ``radius`` only consumes it.

The division is one Horner loop in y, Q = (y - L) * sum_j H_j * y**(j-1)
+ H_0 with L = -(a*x + c)/b, run on Q's integer numerators with a Kronecker
substitution (von zur Gathen & Gerhard, Modern Computer Algebra, 8.4):
one variable is packed at 2**k, and each coefficient read back as a
balanced base-2**k digit.  Every coefficient of every step is at most
T * max(|a|_1 + |c|_1, |b|_1, 1)**n, T the sum of |numerators|, n the top
power of y and |p|_1 the sum of |coefficients| of p in r (|p| for an
integer p), and k is one past that bound's bit length.  Each kind of
line has its own loop, and both take the line in the order (a, b, c)
that ``_tube_row`` and ``_integer_line`` give it:

* ``_line_horner`` -- a rational line, a, b, c plain integers: x is
  packed, so each step is one integer and one big-integer multiply-add.
  Step 0 is the image b**n * Q(x, L), zero iff its integer is 0, with
  the constant term R(0) as its lowest digit; steps 1..n are the
  quotient columns, unpacked only for a member.
* ``_family_image`` -- a whole family, a, b, c integer coefficient tuples
  in r, constant term first (``_tube_row``): r is packed and x stays a
  list, one packed integer per power of x; each entry of step 0 is
  unpacked into an integer list in r.  It gives the radius and star
  polys of ``radius.GeneratorFamily``.  Packing x above r in the same
  integer would make this loop ``_line_horner`` too, but that ran 2.2x
  slower on the star poly of the eight-factor product of the pinned
  reports and 11x slower on (x + 2*y + 1)**30 (in-process, 2-vCPU
  host), nearly all of it in the Horner steps: each multiplies one
  integer of every row by the whole packed line, where the list loop
  multiplies each row by the small packed a and c alone.
* ``_divide`` -- Q / ((a*x + b*y + c)/d), all four integers as the
  library builds the line: None when step 0 of Q's ``_line_horner`` pass
  is nonzero, else the quotient read off steps 1..n in one plain loop,
  which unpacks only the nonzero steps and carries each column's factor
  d * b**j as a running product, zero steps included.  The quotient is
  certified once by line * quotient == d * Q on numerators: their
  convolution, cross-multiplied by the denominators, is compared in one
  loop that stops at the first term of Q's support where they differ,
  and then must leave no nonzero term off Q's support.  Neither loop
  opens a comprehension or generator: under CPython 3.11 each is a frame
  of its own, which on a member of a few terms costs more than the
  integer work.

The tube relation x*r**2 - 2*r*y + eps, eps in {-1, +1}, is written once,
as the family row ``_tube_row(eps)``; at a rational r its integers are
``_integer_line``, cached per (row, r), which ``radius.decide_radii`` and
``classify.QSDescription.contains`` read too.  On that one line
``tube_generator`` is the relation, ``divide_by_tube_factor`` is
``_divide`` and ``substitute_tube`` is step 0 of Q's pass unpacked and
rescaled: the image of Q under x -> eps*x/r, y -> eps*(x*r + 1)/(2*r).  ``gamma_at`` and
``gamma_cleared`` are the coefficients of that image at eps = +1, at one
radius by ``substitute_tube`` and as cleared polynomials in r by
``_family_image`` on ``_tube_row(1)``; the paper's binomial double sum for
them is a test oracle (tests/paper_formulas.py).

``_line_horner`` is a pure function.  Each ``Poly2`` keeps the last pass
asked of it, its line and steps, and ``Poly2._line_pass`` runs the loop
only for another line: a division or image of Q on the line of its last
pass, such as ``divide_by_tube_factor`` after
``classify.QSDescription.contains`` on one tube, reuses the packed steps,
since both read the one cached line, whatever other polynomials were
asked about in between.  A Poly2 never changes, so a kept pass is never
stale.  The memo skips only the Horner loop: every quotient is still
unpacked and certified by line * quotient == d * Q (``_divide``).

Both types print through one term printer, ``_join_terms``.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import InternalMismatch, ZeroPolynomial, ZeroRadius

RatLike = Union[int, Fraction]


def _frac(value: RatLike) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(_num_den(value)[0])


def _num_den(value: RatLike) -> tuple[int, int]:
    """(numerator, denominator > 0) of an exact rational."""
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value), 1
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def check_epsilon(eps: int) -> int:
    """eps itself when it is the int -1 or +1; a bool, float or Fraction
    equal to one of them is no signal."""
    if not isinstance(eps, int) or isinstance(eps, bool) or eps not in (-1, 1):
        raise ValueError(f"eps must be -1 or +1, got {eps!r}")
    return eps


def _join_terms(terms: Iterable[tuple[int, int, str]]) -> str:
    """The printed sum of num/den * mono over (num, den, mono) triples, num
    nonzero and den positive, in the order given; "0" for none.  The first
    term carries its sign, later ones are joined by "+ " or "- ", num/den
    is in lowest terms and a coefficient 1 is dropped before a monomial."""
    parts = []
    for num, den, mono in terms:
        if den == 1:
            value = str(abs(num))
        else:
            g = math.gcd(num, den)
            value = str(abs(num) // g) if g == den else f"{abs(num) // g}/{den // g}"
        body = value if not mono else mono if value == "1" else f"{value}*{mono}"
        if parts:
            parts.append(f"- {body}" if num < 0 else f"+ {body}")
        else:
            parts.append(f"-{body}" if num < 0 else body)
    return " ".join(parts) or "0"


class Poly1:
    """Dense univariate polynomial with exact rational coefficients: a
    value to build, compare, evaluate and print."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return Fraction(0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly1):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def eval(self, v: RatLike) -> Fraction:
        v = _frac(v)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * v + c
        return acc

    def to_string(self, var: str = "x") -> str:
        terms = reversed(tuple(enumerate(self._coeffs)))
        return _join_terms((c.numerator, c.denominator, f"{var}^{k}" if k > 1 else var if k else "") for k, c in terms if c)

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"Poly1({self.to_string()!r})"


# fixed odd multipliers (Knuth's multiplicative hash of 1..64) for the
# numerator combination of Poly2._from_cleared
_MIX = tuple((i * 2654435761) % 2**32 | 1 for i in range(1, 65))

# the line pass of a Poly2 that was asked none: no line is ()
_NO_PASS = ((), (0,), 1)


def _convolve(a: Mapping[tuple[int, int], int], b: Mapping[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """Product of two integer-coefficient polynomials given as exponent ->
    coefficient maps; cancelled terms stay as zeros."""
    out: dict[tuple[int, int], int] = {}
    get = out.get
    for (i1, j1), n1 in a.items():
        for (i2, j2), n2 in b.items():
            e = (i1 + i2, j1 + j2)
            out[e] = get(e, 0) + n1 * n2
    return out


def _add(parts: Sequence[tuple[int, int, Mapping[tuple[int, int], int]]]) -> tuple[int, dict[tuple[int, int], int]]:
    """sum(sign * nums / den for sign, den, nums in parts) as (den, numerators)
    over the lcm of the denominators, in one dict; cancelled terms dropped."""
    den = math.lcm(*(d for _, d, _ in parts))
    out: dict[tuple[int, int], int] = {}
    get = out.get
    for sign, d, nums in parts:
        scale = sign * (den // d)
        for e, v in nums.items():
            out[e] = get(e, 0) + v * scale
    return den, {e: v for e, v in out.items() if v}


def _expand_power(nums: Mapping[tuple[int, int], int], k: int) -> dict[tuple[int, int], int]:
    """p**k (1 for k = 0) of an integer-coefficient polynomial p given as an
    exponent -> coefficient map, by J.C.P. Miller's recurrence for the power
    of a power series (Knuth, TAOCP vol. 2, 4.7) on the Kronecker index
    e = i + s*j, s = k * deg_x(p) + 1, which is injective on p**k.  With
    p = t**e0 * sum a_d * t**d, a_0 != 0, the coefficients c_n of the sum's
    k-th power satisfy n * a_0 * c_n = sum_{d >= 1} ((k + 1)*d - n) * a_d * c_{n-d}.
    A heap visits only the n that are some nonzero c_m plus an offset d, so
    a sparse p costs its support, not the (k * deg)**2 box.  Every division
    is exact; a remainder is an arithmetic bug (InternalMismatch)."""
    if k == 0:
        return {(0, 0): 1}
    s = k * max((i for i, _ in nums), default=0) + 1
    terms = sorted((i + s * j, v) for (i, j), v in nums.items() if v)
    if not terms:
        return {}
    (e0, a0), k1 = terms[0], k + 1
    steps = [(e - e0, k1 * (e - e0), v) for e, v in terms[1:]]
    c = {0: a0**k}
    get = c.get
    heap = [d for d, _, _ in steps]  # ascending, so already a heap
    queued = set(heap)
    while heap:
        n = heapq.heappop(heap)
        acc = 0
        for d, kd, v in steps:
            if d > n:
                break
            m = get(n - d)
            if m:
                acc += (kd - n) * v * m
        cn, rem = divmod(acc, n * a0)
        if rem:
            raise InternalMismatch("inexact step in the power recurrence")
        if cn:
            c[n] = cn
            for d, _, _ in steps:
                if n + d not in queued:
                    queued.add(n + d)
                    heapq.heappush(heap, n + d)
    shift = k * e0
    return {((n + shift) % s, (n + shift) // s): v for n, v in c.items()}


class Poly2:
    """Sparse bivariate polynomial in (x, y) with exact rational coefficients.

    Stored cleared: one positive integer denominator and a map from
    exponent pairs to nonzero integer numerators, with no factor common to
    the denominator and all numerators, in graded lexicographic order with
    x before y, highest degree first.  Equal polynomials have equal fields
    and print identically; ``terms`` and ``coeff`` hand out Fractions.
    A third slot keeps the last line pass asked of the polynomial
    (``_line_pass``); it takes no part in equality or hashing.
    """

    __slots__ = ("_den", "_nums", "_pass")

    def __init__(self, terms: Union[Mapping, Iterable] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        parts = []
        for (i, j), c in items:
            i, j = operator.index(i), operator.index(j)
            if i < 0 or j < 0:
                raise ValueError("exponents must be nonnegative")
            num, den = _num_den(c)
            parts.append((1, den, {(i, j): num}))
        den, nums = _add(parts)
        canonical = Poly2._from_cleared(nums, den)
        self._den, self._nums, self._pass = canonical._den, canonical._nums, _NO_PASS

    @classmethod
    def zero(cls) -> "Poly2":
        return cls()

    @classmethod
    def constant(cls, c: RatLike) -> "Poly2":
        return cls([((0, 0), c)])

    @classmethod
    def variable(cls, name: str) -> "Poly2":
        if name == "x":
            return cls([((1, 0), 1)])
        if name == "y":
            return cls([((0, 1), 1)])
        raise ValueError(f"unknown variable {name!r}")

    @property
    def degree(self) -> int:
        """Total degree, that of the first term; -1 for the zero polynomial."""
        return sum(next(iter(self._nums), (-1, 0)))

    @property
    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self) -> bool:
        return bool(self._nums)

    def coeff(self, i: int, j: int) -> Fraction:
        return Fraction(self._nums.get((i, j), 0), self._den)

    def terms(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        """Iterate ((i, j), coefficient) in canonical order."""
        den = self._den
        return ((e, Fraction(v, den)) for e, v in self._nums.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly2):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._nums.items())))

    def __neg__(self) -> "Poly2":
        return Poly2._make({e: -v for e, v in self._nums.items()}, self._den)

    def __add__(self, other: "Poly2") -> "Poly2":
        den, nums = _add(((1, self._den, self._nums), (1, other._den, other._nums)))
        return Poly2._from_cleared(nums, den)

    def __sub__(self, other: "Poly2") -> "Poly2":
        den, nums = _add(((1, self._den, self._nums), (-1, other._den, other._nums)))
        return Poly2._from_cleared(nums, den)

    @classmethod
    def _make(cls, nums: dict[tuple[int, int], int], den: int) -> "Poly2":
        """A Poly2 on fields already in canonical form."""
        p = cls.__new__(cls)
        p._den, p._nums, p._pass = den, nums, _NO_PASS
        return p

    def _line_pass(self, a: int, b: int, c: int) -> tuple[tuple[int, ...], int]:
        """``_line_horner`` of the numerators on the line a*x + b*y + c = 0,
        run only when the last pass asked of this polynomial was on another
        line.  The pass replaces that one whole, so a hit is never stale:
        the numerators never change."""
        line, steps, k = self._pass
        if line != (a, b, c):
            steps, k = _line_horner(self._nums, a, b, c)
            self._pass = (a, b, c), steps, k
        return steps, k

    @classmethod
    def _from_cleared(cls, nums: Mapping[tuple[int, int], int], den: int) -> "Poly2":
        """The polynomial sum nums[e] / den * x**i * y**j, den != 0, in
        canonical form: zero numerators dropped, the content common to den
        and the numerators divided out (when it is not 1) with the sign that
        makes den positive, ordered by two C-level sorts: by exponent pair,
        then stably by total degree.  The content divides g = gcd(den, S) for any
        integer combination S of the numerators, so it is gcd(g, *numerators)
        taken from g, not from den: g is usually 1 or small, and the chain
        then costs one remainder per numerator, not a gcd of den with each.
        S is the numerators' sum, or a fixed pseudo-random combination when
        the sum is zero (a Q that vanishes at (1, 1), such as (x - y) * P)."""
        values = nums.values()
        combination = sum(values) or sum(map(operator.mul, itertools.cycle(_MIX), values))
        g = math.gcd(den, combination)
        if g != 1:
            g = math.gcd(g, *values)
        if den < 0:
            g = -g
        order = sorted(sorted(nums, reverse=True), key=sum, reverse=True)
        cleared = {e: nums[e] for e in order if nums[e]} if g == 1 else {e: nums[e] // g for e in order if nums[e]}
        return cls._make(cleared, den // g)

    def __mul__(self, other: Union["Poly2", RatLike]) -> "Poly2":
        """Product on numerators: one integer convolution over the product
        of the denominators."""
        if not isinstance(other, Poly2):
            other = Poly2.constant(other)
        return Poly2._from_cleared(_convolve(self._nums, other._nums), self._den * other._den)

    def __pow__(self, k: int) -> "Poly2":
        """self**k (1 for k = 0): ``_expand_power`` of the numerators over
        den**k."""
        if k < 0:
            raise ValueError("exponent must be nonnegative")
        return Poly2._from_cleared(_expand_power(self._nums, k), self._den**k)

    def __rmul__(self, other: RatLike) -> "Poly2":
        return self * other

    def eval(self, x: RatLike, y: RatLike) -> Fraction:
        x, y = _frac(x), _frac(y)
        return sum((v * x**i * y**j for (i, j), v in self._nums.items()), Fraction(0)) / self._den

    def eval_float(self, x: float, y: float) -> float:
        """Q(x, y) in floats, the terms added left to right in canonical
        order (not by ``sum``, which compensates from Python 3.12 on); each
        coefficient is numerator / den, correctly rounded."""
        acc = 0.0
        den = self._den
        for (i, j), v in self._nums.items():
            acc += v / den * x**i * y**j
        return acc

    def __str__(self) -> str:
        den, terms = self._den, []
        for (i, j), v in self._nums.items():  # monomials x^i*y^j, "x" for x^1, "" for x^0
            x, y = f"x^{i}" if i > 1 else "x" if i else "", f"y^{j}" if j > 1 else "y" if j else ""
            terms.append((v, den, f"{x}*{y}" if x and y else x or y))
        return _join_terms(terms)

    def __repr__(self) -> str:
        return f"Poly2({str(self)!r})"


def _tube_row(eps: int) -> tuple[tuple[int, ...], ...]:
    """The relation x*r**2 - 2*r*y + eps of every regular tube of radius r
    (signal eps) as a generator family (a, b, c, d): G_r = a(r)*x +
    b(r)*y + c(r), printed divided by d(r), each field the integer
    coefficients of a polynomial in r, constant term first.  The one place
    the K-H relation is written."""
    return (0, 0, 1), (0, -2), (check_epsilon(eps),), (1,)


@functools.lru_cache(maxsize=256)
def _integer_line(row: Sequence[Sequence[int]], p: int, q: int) -> tuple[int, int, int, int]:
    """The integers q**m * f(p/q) for f in a family row (a, b, c, d) at
    r = p/q, q > 0 and in lowest terms, m their top degree: G_r / d(r) up
    to the common factor.  Computed once per (row, r) while the bounded
    cache keeps it: a fixed tube is asked about many relations."""
    m = max(map(len, row)) - 1
    powers = [p**k * q ** (m - k) for k in range(m + 1)]
    return tuple([sum(map(operator.mul, f, powers)) for f in row])


def _tube_line(r: RatLike, eps: int) -> tuple[int, int, int, int]:
    """The integer line (a, b, c, d) of ``_tube_row(eps)`` at r != 0."""
    p, q = _num_den(r)
    if p == 0:
        raise ZeroRadius("generator requires a nonzero radius")
    return _integer_line(_tube_row(eps), p, q)


def tube_generator(r: RatLike, eps: int = 1) -> Poly2:
    """The linear relation x*r**2 - 2*r*y + eps satisfied by every
    regular tube of radius r (signal eps)."""
    a, b, c, d = _tube_line(r, eps)
    # (p**2*x - 2*p*q*y + eps*q**2) / q**2 at r = p/q, canonical as built: gcd(p, q) = 1
    return Poly2._make({(1, 0): a, (0, 1): b, (0, 0): c}, d)


def gamma_at(q: Poly2, r: RatLike) -> list[Fraction]:
    """Coefficients of Q(x/r, (x*r + 1)/(2*r)) as a polynomial in x.

    Entry k is sum_{i=0..k} sum_{j=0..n-k} C(k-i+j, j) * a_{i,k-i+j}
    / (2**(k-i+j) * r**(j+i)) with n the total degree of Q:
    ``substitute_tube`` at r, padded with zeros to n + 1 entries.
    """
    coeffs = list(substitute_tube(q, r).coeffs)
    return coeffs + [Fraction(0)] * (q.degree + 1 - len(coeffs))


def gamma_cleared(q: Poly2) -> list[Poly1]:
    """Denominator-cleared coefficient polynomials g_k(r) = 2**n * r**n *
    gamma_k(r), expanded exactly in r, n the total degree of Q.

    For every r != 0, g_k(r) = 0 iff gamma_k(r) = 0, so the common roots
    of the g_k locate the radii at which the substitution image vanishes
    identically.  The 2**n * r**n scaling is pinned for reproducibility;
    only the root sets matter downstream.  A view of ``_family_image`` on
    the family ``_tube_row(1)``, whose row k is den * (-2*r)**m * r**k *
    gamma_k(r), m the top power of y.
    """
    if q.is_zero:
        raise ZeroPolynomial("gamma_cleared requires a nonzero polynomial")
    a, b, c, _ = _tube_row(1)
    den, nums = q._den, q._nums
    n, m = q.degree, max(j for _, j in nums)
    scale = (-1) ** m * 2 ** (n - m)
    # g_k = scale * r**(n-m-k) * row_k / den; for k > n - m, row k carries
    # r**(k-n+m), and the n + 1 rows run to x**n
    return [
        Poly1([Fraction(v * scale, den) for v in [0] * (n - m - k) + row[max(k - n + m, 0) :]])
        for k, row in enumerate(_family_image(nums, a, b, c))
    ]


def _line_horner(nums: Mapping[tuple[int, int], int], a: int, b: int, c: int) -> tuple[tuple[int, ...], int]:
    """Horner division in y of Q, given by its integer numerators, by the
    line a*x + b*y + c = 0, L = -(a*x + c)/b:
    Q = (y - L) * sum_j H_j * y**(j-1) + H_0.  Returns (steps, k): step j
    is b**(n-j) * H_j (n the top power of y) packed at x = 2**k, k past the
    bound of the module docstring, so ``_unpack(step, k)`` is its list of
    integers per power of x.  Step 0 is the image b**n * Q(x, L), zero iff
    its packed integer is, with constant term the lowest balanced digit;
    H_j / b (j >= 1) is the y**(j-1) column of the quotient by
    a*x + b*y + c.  A zero a is the axis x = 0."""
    n = max(map(operator.itemgetter(1), nums), default=-1)
    bound = sum(map(abs, nums.values())) * max(abs(a) + abs(c), abs(b), 1) ** max(n, 0)
    k = bound.bit_length() + 1
    cols = [0] * (n + 1)
    for (i, j), v in nums.items():
        cols[j] += v << (k * i)
    line = -((a << k) + c)
    steps = []
    acc, b_power = 0, 1
    for col in reversed(cols):
        acc = acc * line + col * b_power
        steps.append(acc)
        b_power *= b
    return tuple(reversed(steps)) or (0,), k


def _unpack(v: int, k: int) -> list[int]:
    """The integer list p, entries in [-2**(k-1), 2**(k-1)) and no trailing
    zero, with p(2**k) = v: the balanced base-2**k digits of v."""
    half, mask = 1 << (k - 1), (1 << k) - 1
    digits = []
    while v:
        d = ((v + half) & mask) - half
        digits.append(d)
        v = (v - d) >> k
    return digits


def _family_image(
    nums: Mapping[tuple[int, int], int], a: Sequence[int], b: Sequence[int], c: Sequence[int]
) -> list[list[int]]:
    """The image b(r)**n * Q(x, -(a(r)*x + c(r))/b(r)) on a family line
    whose coefficients are integer lists in r: one integer list in r per
    power of x.  a, b and c are packed at r = 2**k, k past the bound of the
    module docstring, the Horner loop in y runs on a list of packed
    integers per power of x, and each entry of its last step is unpacked."""
    n = max((j for _, j in nums), default=0)
    norm_a, norm_b, norm_c = (sum(map(abs, p)) for p in (a, b, c))
    bound = sum(map(abs, nums.values())) * max(norm_a + norm_c, norm_b, 1) ** n
    k = bound.bit_length() + 1
    a, b, c = (sum(v << (k * e) for e, v in enumerate(p)) for p in (a, b, c))
    cols: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for (i, j), v in nums.items():
        cols[j].append((i, v))
    a, c = -a, -c
    rows: list[int] = []
    b_power = 1
    for col in reversed(cols):
        # rows times the line -(a*x + c), one row longer for a nonzero a,
        # plus the column times b**(n - j)
        rows = [u * c + w * a for u, w in zip(rows + [0], [0] + rows)] if a else [u * c for u in rows]
        for i, v in col:
            rows += [0] * (i + 1 - len(rows))
            rows[i] += v * b_power
        b_power *= b
    return [_unpack(v, k) for v in rows]


def _divide(q: Poly2, a: int, b: int, c: int, d: int) -> Optional[Poly2]:
    """Q / ((a*x + b*y + c)/d) for integers b != 0 and d != 0, by Q's pass
    on the line (``Poly2._line_pass``): None when Q is not in the ideal of
    the line (step 0 is a nonzero integer), else the quotient.  One loop
    over steps 1..n unpacks each nonzero step j + 1 into the y**j column,
    times d * b**j, and a second loop certifies line * quotient == d * Q:
    equal on Q's support, then zero off it (InternalMismatch on failure,
    an arithmetic bug)."""
    steps, k = q._line_pass(a, b, c)
    if steps[0]:
        return None
    den, nums = q._den, q._nums
    # step j is b**(n - j) * H_j for den * Q on the line; the quotient's
    # y**(j - 1) column d * H_j / (den * b) is step j * d * b**(j - 1)
    # over den * b**n.  Plain loops, no comprehension or generator (module
    # docstring)
    raw: dict[tuple[int, int], int] = {}
    column = d
    for j, step in enumerate(steps[1:]):
        if step:
            for i, v in enumerate(_unpack(step, k)):
                if v:
                    raw[i, j] = v * column
        column *= b
    quotient = Poly2._from_cleared(raw, den * b ** (len(steps) - 1))
    # line * quotient == d * Q cross-multiplied: equal on Q's support, zero off it
    product, product_den = _convolve({(1, 0): a, (0, 1): b, (0, 0): c}, quotient._nums), d * quotient._den
    for e, v in nums.items():
        if product.pop(e, 0) * den != v * product_den:
            break
    else:
        if not any(product.values()):
            return quotient
    raise InternalMismatch("verified multiplication of the quotient failed")


def substitute_tube(q: Poly2, r: RatLike, eps: int = 1) -> Poly1:
    """Exact univariate image Q(eps*x/r, eps*(x*r + 1)/(2*r)): step 0 of
    Q's pass on the generator's integer line (``Poly2._line_pass``),
    unpacked and rescaled.  No quotient is built."""
    a, b, c, _ = _tube_line(r, eps)
    steps, k = q._line_pass(a, b, c)
    # step 0 is den * b**n * Q(x, L), b = -2*p*s at r = p/s: over that
    # factor and with x -> eps*x/r it is the image
    p, s = _num_den(r)
    scale = q._den * b ** (len(steps) - 1)
    return Poly1([Fraction(v * (eps * s) ** e, scale * p**e) for e, v in enumerate(_unpack(steps[0], k))])


def divide_by_tube_factor(q: Poly2, r: RatLike, eps: int = 1) -> Optional[Poly2]:
    """Exact quotient R with Q = (x*r**2 - 2*r*y + eps) * R, or None when
    Q is not in the ideal; verified by multiplication before returning."""
    return _divide(q, *_tube_line(r, eps))
