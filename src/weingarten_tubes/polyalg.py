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

* ``_line_image`` -- one Horner loop in y on Q's integer numerators and
  integers a, b, c: each step is a quotient column, the last the image
  of Q on the line.  At one rational radius it is the division below.
* ``_family_image`` -- the same loop over a whole family, a, b, c
  integer coefficient tuples in r, constant term first, as in the
  family table of ``radius`` (the K-H row a, b, c = (0, 0, 1), (0, -2),
  (eps,)): each is packed at r = 2**k (Kronecker substitution) and each
  image row unpacked by balanced base-2**k digits.  Every coefficient in
  r of a row is at most T * max(|a|_1 + |c|_1, |b|_1, 1)**n, T the sum
  of |numerators| and n the top power of y, and k is one past that
  bound's bit length.  It gives the radius and star polys of
  ``radius.GeneratorFamily``.
* ``_divide`` -- Q / ((a*x + b*y + c)/d), all four integers as the
  library builds the line: None when step 0 of ``_line_image`` is nonzero,
  else the quotient read off the steps (``_quotient``), certified once
  by line * quotient == d * Q on numerators: their convolution,
  cross-multiplied by the denominators, equals Q's numerator on Q's
  support and is zero off it.
* ``substitute_tube`` / ``is_in_tube_ideal`` / ``divide_by_tube_factor``
  -- the division by the tube generator ``x*r**2 - 2*r*y + eps``, eps in
  {-1, +1}: the image of Q under x -> eps*x/r, y -> eps*(x*r + 1)/(2*r)
  is step 0 of ``_line_image`` rescaled (``_tube_image``), with no
  quotient built, and the quotient is ``_divide`` on the generator's
  integers.  ``_divide_or_substitute`` reads the quotient or, off the
  ideal, the image off one pass, as the CLI's divide report needs.
* ``gamma_at`` / ``gamma_cleared`` -- the coefficients of that image at
  eps = +1: at one radius by ``substitute_tube``, as cleared polynomials
  in r by ``_family_image`` on the line r**2*x - 2*r*y + 1.  The paper's
  binomial double sum for them is a test oracle (tests/paper_formulas.py).

Both types print through one term printer, ``_join_terms``.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import InternalMismatch, ZeroPolynomial, ZeroRadius

RatLike = Union[int, Fraction]


def _frac(value: RatLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _num_den(value: RatLike) -> tuple[int, int]:
    """(numerator, denominator > 0) of an exact rational."""
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, int):
        return int(value), 1
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def check_epsilon(eps: int) -> int:
    if eps not in (-1, 1):
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
    """

    __slots__ = ("_den", "_nums")

    def __init__(self, terms: Union[Mapping, Iterable] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        parts = []
        for (i, j), c in items:
            i, j = operator.index(i), operator.index(j)
            if i < 0 or j < 0:
                raise ValueError("exponents must be nonnegative")
            num, den = _num_den(c)
            if num:
                parts.append(((i, j), num, den))
        den = math.lcm(*(d for _, _, d in parts))
        nums: dict[tuple[int, int], int] = {}
        for e, num, d in parts:
            nums[e] = nums.get(e, 0) + num * (den // d)
        canonical = Poly2._from_cleared(nums, den)
        self._den, self._nums = canonical._den, canonical._nums

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
        p._den, p._nums = den, nums
        return p

    def _cleared(self) -> tuple[int, dict[tuple[int, int], int]]:
        """(den, numerators), every coefficient numerator / den: the stored
        fields themselves, not to be mutated."""
        return self._den, self._nums

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


def tube_generator(r: RatLike, eps: int = 1) -> Poly2:
    """The linear relation x*r**2 - 2*r*y + eps satisfied by every
    regular tube of radius r (signal eps)."""
    p, q = _num_den(r)
    if p == 0:
        raise ZeroRadius("generator requires a nonzero radius")
    check_epsilon(eps)
    # (p**2*x - 2*p*q*y + eps*q**2) / q**2, canonical as built: gcd(p, q) = 1
    return Poly2._make({(1, 0): p * p, (0, 1): -2 * p * q, (0, 0): eps * q * q}, q * q)


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
    the line r**2*x - 2*r*y + 1, whose row k is den * (-2*r)**m * r**k *
    gamma_k(r), m the top power of y.
    """
    if q.is_zero:
        raise ZeroPolynomial("gamma_cleared requires a nonzero polynomial")
    den, nums = q._cleared()
    n, m = q.degree, max(j for _, j in nums)
    scale = (-1) ** m * 2 ** (n - m)
    # g_k = scale * r**(n-m-k) * row_k / den; for k > n - m, row k carries
    # r**(k-n+m), and the n + 1 rows run to x**n
    return [
        Poly1([Fraction(v * scale, den) for v in [0] * (n - m - k) + row[max(k - n + m, 0) :]])
        for k, row in enumerate(_family_image(nums, (1,), (0, 0, 1), (0, -2)))
    ]


def _line_image(nums: Mapping[tuple[int, int], int], c: int, a: int, b: int) -> list[list[int]]:
    """Horner division in y of Q, given by its integer numerators, by the
    line a*x + b*y + c = 0, L = -(a*x + c)/b:
    Q = (y - L) * sum_j H_j * y**(j-1) + H_0.  Step j of the result is
    b**(n-j) * H_j (n the top power of y), one integer per power of x:
    step 0 is the image b**n * Q(x, L), and H_j / b (j >= 1) the
    y**(j-1) column of the quotient by a*x + b*y + c.  A zero a is the
    axis x = 0.  A family line runs through here packed (``_family_image``)."""
    cols: list[list[tuple[int, int]]] = [[] for _ in range(max((j for _, j in nums), default=-1) + 1)]
    for (i, j), v in nums.items():
        cols[j].append((i, v))
    c, a = -c, -a
    steps: list[list[int]] = []
    rows: list[int] = []
    b_power = 1
    for col in reversed(cols):
        # rows times the line -(a*x + c), one row longer for a nonzero a,
        # plus the column times b**(n - j)
        rows = [u * c + w * a for u, w in zip(rows + [0], [0] + rows)] if a else [u * c for u in rows]
        for i, v in col:
            rows += [0] * (i + 1 - len(rows))
            rows[i] += v * b_power
        steps.append(rows)
        b_power *= b
    return steps[::-1] or [[]]


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
    nums: Mapping[tuple[int, int], int], c: Sequence[int], a: Sequence[int], b: Sequence[int]
) -> list[list[int]]:
    """Step 0 of ``_line_image`` on a family line whose coefficients are
    integer lists in r: one integer list in r per power of x, packed at
    r = 2**k and unpacked with k past the bound of the module docstring."""
    n = max((j for _, j in nums), default=0)
    norm = [sum(map(abs, p)) for p in (c, a, b)]
    bound = sum(map(abs, nums.values())) * max(norm[0] + norm[1], norm[2], 1) ** n
    k = bound.bit_length() + 1
    packed = [sum(v << (k * e) for e, v in enumerate(p)) for p in (c, a, b)]
    return [_unpack(v, k) for v in _line_image(nums, *packed)[0]]


def _divide(q: Poly2, a: int, b: int, c: int, d: int) -> Optional[Poly2]:
    """Q / ((a*x + b*y + c)/d) for integers b != 0 and d != 0, by one
    ``_line_image`` pass on Q's numerators: None when Q is not in the ideal
    of the line, else the quotient of ``_quotient``."""
    den, nums = q._cleared()
    steps = _line_image(nums, c, a, b)
    return None if any(steps[0]) else _quotient(den, nums, steps, a, b, c, d)


def _quotient(
    den: int, nums: Mapping[tuple[int, int], int], steps: list[list[int]], a: int, b: int, c: int, d: int
) -> Poly2:
    """Q / ((a*x + b*y + c)/d), Q = nums / den, from the ``_line_image``
    steps of nums on the line, step 0 zero: certified by line * quotient
    == d * Q (InternalMismatch on failure, an arithmetic bug)."""
    # step j is b**(n - j) * H_j for den * Q on the line; the quotient's
    # y**(j - 1) column d * H_j / (den * b) is step j * column[j - 1] / scale
    scale = den * b ** (len(steps) - 1)
    column = [d * b**j for j in range(len(steps) - 1)]
    quotient = Poly2._from_cleared(
        {(i, j): v * column[j] for j, rows in enumerate(steps[1:]) for i, v in enumerate(rows) if v}, scale
    )
    # line * quotient == d * Q cross-multiplied: equal on Q's support, zero off it
    product, product_den = _convolve({(1, 0): a, (0, 1): b, (0, 0): c}, quotient._nums), d * quotient._den
    if any(product.pop(e, 0) * den != v * product_den for e, v in nums.items()) or any(product.values()):
        raise InternalMismatch("verified multiplication of the quotient failed")
    return quotient


def _tube_image(den: int, steps: list[list[int]], r: RatLike, eps: int) -> Poly1:
    """Q(eps*x/r, eps*(x*r + 1)/(2*r)) from the ``_line_image`` steps of
    den * Q on the generator's integer line p**2*x - 2*p*s*y + eps*s**2 at
    r = p/s: step 0 over den * (-2*p*s)**n, rescaled by x -> eps*x/r."""
    p, s = _num_den(r)
    scale = den * (-2 * p * s) ** (len(steps) - 1)
    return Poly1([Fraction(v * (eps * s) ** k, scale * p**k) for k, v in enumerate(steps[0])])


def substitute_tube(q: Poly2, r: RatLike, eps: int = 1) -> Poly1:
    """Exact univariate image Q(eps*x/r, eps*(x*r + 1)/(2*r)): step 0 of
    ``_line_image`` on the generator's integer line, rescaled.  No quotient
    is built."""
    g = tube_generator(r, eps)._nums  # r != 0 and eps checked
    den, nums = q._cleared()
    return _tube_image(den, _line_image(nums, g[0, 0], g[1, 0], g[0, 1]), r, eps)


def is_in_tube_ideal(q: Poly2, r: RatLike, eps: int = 1) -> bool:
    """Membership in the principal ideal generated by x*r**2 - 2*r*y + eps,
    decided by vanishing of the substitution image."""
    return substitute_tube(q, r, eps).is_zero


def divide_by_tube_factor(q: Poly2, r: RatLike, eps: int = 1) -> Optional[Poly2]:
    """Exact quotient R with Q = (x*r**2 - 2*r*y + eps) * R, or None when
    Q is not in the ideal; verified by multiplication before returning."""
    d, g = tube_generator(r, eps)._cleared()
    return _divide(q, g[1, 0], g[0, 1], g[0, 0], d)


def _divide_or_substitute(q: Poly2, r: RatLike, eps: int) -> tuple[Optional[Poly2], Optional[Poly1]]:
    """(divide_by_tube_factor, None) in the ideal, else (None,
    substitute_tube), from one ``_line_image`` pass."""
    d, g = tube_generator(r, eps)._cleared()
    a, b, c = g[1, 0], g[0, 1], g[0, 0]
    den, nums = q._cleared()
    steps = _line_image(nums, c, a, b)
    if any(steps[0]):
        return None, _tube_image(den, steps, r, eps)
    return _quotient(den, nums, steps, a, b, c, d), None
