"""Property tests of every rational decision against oracles that share no
code with the library:

* the tube families: ``conftest.brute_substitute``, a binomial-theorem
  expansion of Q on the generator line, and ``paper_formulas.gamma_formula``,
  the paper's double sum, against the rows of ``_family_image``;
* the principal family: ``brute_principal``, direct evaluation of Q(x, 1/r);
* the linear corollary: ``paper_formulas.linear_cases``, the paper's
  closed-form case table;
* the second-fundamental-form corollary:
  ``paper_formulas.second_fundamental_lanes``, the paper's closed form;
* the ring arithmetic: ``conftest.brute_product``, term-by-term Fraction
  products, and the validating constructor;
* the power recurrence: ``repeated_products``, k integer convolutions;
* the parser: ``expression_trees.expression_value``, a Fraction evaluation of
  the expression tree at random points;
* the integer Sturm chain: ``reference_chain``, a Fraction Euclidean chain;
* the l-adic rational roots: ``reference_rational_roots``, Sturm bisection
  on that chain narrowed to the grid Z/a_n;
* the integer bisection of ``AlgebraicRadius.refined``: ``fraction_narrow``,
  the Fraction bisection it replaced;
* the Horner division packed at x = 2**k: ``list_horner``, the loop on
  integer lists it replaced, and ``line_restriction``;
* the last pass of that division that each Poly2 keeps:
  ``conftest.brute_substitute`` and Q(0, eps/(2r)) after Q(S) calls on
  several lines in any order;
* the cached integer line of a family at r: ``family_line``, a Fraction
  evaluation of its coefficient polynomials;
* Q(S) membership against S(Q), the paper's duality: each class of
  ``solve_SQ`` at rational and quadratic irrational radii, asked through
  ``solve_QS``.

Each test stands in for a runtime cross-check that the library no longer
repeats on every call."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import axis_restriction, brute_product, brute_substitute, poly_product
from expression_trees import expression_degree, expression_text, expression_trees, expression_value
from paper_formulas import epsilon_transform, gamma_formula, linear_cases, second_fundamental_lanes
from weingarten_tubes import polyalg, radius
from weingarten_tubes.classify import (
    ALL_REGULAR_TUBES,
    TubeIdentity,
    classify_linear,
    classify_second_fundamental,
    solve_QS,
    solve_SQ,
    solve_SQ_principal,
)
from weingarten_tubes.cli import MAX_DEGREE, parse_poly
from weingarten_tubes.errors import InternalMismatch
from weingarten_tubes.polyalg import (
    Poly1,
    Poly2,
    _convolve,
    _expand_power,
    _divide,
    _family_image,
    _integer_line,
    _line_horner,
    _unpack,
    divide_by_tube_factor,
    substitute_tube,
    tube_generator,
)
from weingarten_tubes.radius import (
    DISPLAY_WIDTH,
    EUCLIDEAN,
    HYPERBOLIC,
    LANES,
    LORENTZIAN_NEG,
    LORENTZIAN_POS,
    PRINCIPAL,
    _LANE_TABLE,
    _narrow,
    _rational_roots,
    _sign_at,
    _squarefree,
    _sturm_chain,
    _variations,
    decide_radii,
    isolate_positive_roots,
    star_radius_set,
    tube_family,
)

X = Poly2.variable("x")
Y = Poly2.variable("y")

PROPERTY = settings(max_examples=60, deadline=None)

coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=9)
exponents = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda e: sum(e) <= 4)
polys = st.lists(st.tuples(exponents, coefficients), max_size=5).map(Poly2)
# a nonzero constant term keeps the axis restriction of G_r * A nonzero
cofactors = st.builds(lambda p, c: p + Poly2.constant(c), polys, coefficients.filter(bool))
positive_radii = st.fractions(min_value=Fraction(1, 9), max_value=10, max_denominator=9)
nonzero_radii = st.fractions(min_value=-10, max_value=10, max_denominator=9).filter(bool)
signals = st.sampled_from([-1, 1])
tags = st.sampled_from([EUCLIDEAN, LORENTZIAN_POS, LORENTZIAN_NEG, HYPERBOLIC])
# how Q is built from the generator G_r, a cofactor A and an extra term B:
# any Q, G_r*A (a planted member), G_r*A + x*B (r a cylinder radius that
# may or may not be a star), x*G_r*A (Q vanishes on the whole axis)
shapes = st.sampled_from(["free", "member", "cylinder", "axis"])
# rational roots with denominators up to 10**6, any sign, zero and repeats allowed
planted_roots = st.lists(
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6), min_size=1, max_size=4
)


def build(shape: str, gen: Poly2, a: Poly2, b: Poly2) -> Poly2:
    return {"free": a, "member": gen * a, "cylinder": gen * a + X * b, "axis": X * gen * a}[shape]


def evaluates_equal(q: Poly2, gen: Poly2, quotient: Poly2) -> bool:
    points = [(Fraction(2, 3), Fraction(-5, 7)), (Fraction(-3), Fraction(11, 2))]
    return all(q.eval(x, y) == gen.eval(x, y) * quotient.eval(x, y) for x, y in points)


def brute_principal(q: Poly2, r: Fraction) -> list[Fraction]:
    """Coefficients of Q(x, 1/r) in x, by direct evaluation of each term."""
    out: dict[int, Fraction] = {}
    for (i, j), a in q.terms():
        out[i] = out.get(i, Fraction(0)) + a / r**j
    return [c for c in out.values() if c != 0]


@PROPERTY
@given(shape=shapes, a=cofactors, b=polys, r=nonzero_radii, eps=signals)
def test_substitute_tube_matches_brute(shape, a, b, r, eps):
    q = build(shape, tube_generator(r, eps), a, b)
    assert list(substitute_tube(q, r, eps).coeffs) == brute_substitute(q, r, eps)


@PROPERTY
@given(shape=shapes, a=cofactors, b=polys, r=nonzero_radii, eps=signals)
def test_divide_quotient_iff_brute_image_zero(shape, a, b, r, eps):
    gen = tube_generator(r, eps)
    q = build(shape, gen, a, b)
    quotient = divide_by_tube_factor(q, r, eps)
    assert (quotient is not None) == (brute_substitute(q, r, eps) == [])
    if quotient is not None:
        assert evaluates_equal(q, gen, quotient)


# coefficients of a general line g = a*x + b*y + c, some with 20-digit denominators
line_coefficients = st.one_of(
    coefficients,
    st.builds(Fraction, st.integers(-(10**20), 10**20), st.integers(10**19, 10**20)),
)


def line_restriction(q: Poly2, a: Fraction, b: Fraction, c: Fraction) -> list[Fraction]:
    """Coefficients of Q(x, -(a*x + c)/b) in x: each term's power of the
    line expanded by repeated multiplication of coefficient lists."""
    line = [-c / b, -a / b]
    out: list[Fraction] = []
    for (i, j), coeff in q.terms():
        power = [Fraction(1)]
        for _ in range(j):
            power = [
                sum((power[k] * line[m - k] for k in range(len(power)) if 0 <= m - k < 2), Fraction(0))
                for m in range(len(power) + 1)
            ]
        out += [Fraction(0)] * (i + len(power) - len(out))
        for k, v in enumerate(power):
            out[i + k] += coeff * v
    while out and out[-1] == 0:
        out.pop()
    return out


@PROPERTY
@example(a=Poly2.constant(1), gx=Fraction(0), gy=Fraction(-3, 7), gc=Fraction(2), shift=Fraction(1))
@example(
    a=X * Y + Poly2.constant(1),
    gx=Fraction(3, 10**20 - 1),
    gy=Fraction(-(10**20) + 7, 10**19 + 3),
    gc=Fraction(5, 10**19 + 9),
    shift=Fraction(-2, 9),
)
@given(
    a=cofactors,
    gx=st.one_of(st.just(Fraction(0)), line_coefficients),
    gy=line_coefficients.filter(bool),
    gc=line_coefficients,
    shift=coefficients.filter(bool),
)
def test_division_by_a_general_line(a, gx, gy, gc, shift):
    """The one division by g = a*x + b*y + c, b != 0, on its integers: a
    planted g*A returns exactly A, a shift by a nonzero constant returns
    None, and the remainder, step 0 of the same Horner pass, is Q on the
    line g = 0."""
    g = Poly2([((1, 0), gx), ((0, 1), gy), ((0, 0), gc)])
    d, nums = g._den, g._nums
    line = (nums.get((1, 0), 0), nums[0, 1], nums.get((0, 0), 0), d)

    def remainder(q):
        den, q_nums = q._den, q._nums
        steps, k = _line_horner(q_nums, *line[:3])
        return list(Poly1([Fraction(v, den * line[1] ** (len(steps) - 1)) for v in _unpack(steps[0], k)]).coeffs)

    q = Poly2(brute_product(g, a))
    assert _divide(q, *line) == a
    assert remainder(q) == line_restriction(q, gx, gy, gc) == []
    shifted = q + Poly2.constant(shift)
    assert _divide(shifted, *line) is None
    assert remainder(shifted) == line_restriction(shifted, gx, gy, gc) == [shift]
    assert remainder(a) == line_restriction(a, gx, gy, gc)


def list_horner(nums: dict, c: int, a: int, b: int) -> list[list[int]]:
    """The Horner division in y by the line a*x + b*y + c = 0 on lists of
    integers, one per power of x, with no packing: step j is b**(n-j) *
    H_j, step 0 the image b**n * Q(x, -(a*x + c)/b)."""
    cols: list[list] = [[] for _ in range(max((j for _, j in nums), default=-1) + 1)]
    for (i, j), v in nums.items():
        cols[j].append((i, v))
    steps: list[list[int]] = []
    rows: list[int] = []
    for power, col in enumerate(reversed(cols)):
        rows = [-u * c - w * a for u, w in zip(rows + [0], [0] + rows)]
        for i, v in col:
            rows += [0] * (i + 1 - len(rows))
            rows[i] += v * b**power
        steps.append(rows)
    return steps[::-1] or [[]]


def without_trailing_zeros(row: list[int]) -> list[int]:
    while row and not row[-1]:
        row = row[:-1]
    return row


EDGE = 2**80 - 1  # the bound T * M**n for Q = y or EDGE * y, so k = 81
line_integers = st.integers(-(2**80), 2**80)


@PROPERTY
# the image -c of Q = y at the digit edge +-(2**(k-1) - 1), in the x**0 digit
@example(a=Y, gx=0, gy=1, gc=EDGE, d=1, shift=Fraction(1))
@example(a=Y, gx=0, gy=1, gc=-EDGE, d=1, shift=Fraction(1))
# the image -a*x of Q = y at the edge in the x**1 digit, next to a zero digit
@example(a=Y, gx=EDGE, gy=1, gc=0, d=1, shift=Fraction(1))
@example(a=Y, gx=-EDGE, gy=1, gc=0, d=1, shift=Fraction(1))
# the cross term 2*a*c of (a*x + c)**2 needs |a| + |c| in the bound, not the larger
@example(a=Y * Y, gx=2**80, gy=1, gc=2**80, d=1, shift=Fraction(1))
# the member +-EDGE * y of the line y: its quotient column is at the edge
@example(a=Poly2.constant(EDGE), gx=0, gy=1, gc=0, d=1, shift=Fraction(1))
@example(a=Poly2.constant(-EDGE), gx=0, gy=1, gc=0, d=1, shift=Fraction(1))
@given(
    a=cofactors,
    gx=st.one_of(st.just(0), line_integers),
    gy=line_integers.filter(bool),
    gc=line_integers,
    d=st.one_of(st.just(1), st.integers(1, 2**80)),
    shift=coefficients.filter(bool),
)
def test_packed_horner_matches_the_list_horner(a, gx, gy, gc, d, shift):
    """``_line_horner`` on an integer line a*x + b*y + c with coefficients
    up to 2**80: every step unpacked is the list Horner's step, the zero
    verdict and the step-0 image are those of ``line_restriction``, and the
    division of the planted member g*A, g = line / d, returns A."""
    g = Poly2([((1, 0), Fraction(gx, d)), ((0, 1), Fraction(gy, d)), ((0, 0), Fraction(gc, d))])
    member = Poly2(brute_product(g, a))
    for q in (member, member + Poly2.constant(shift), a):
        den, nums = q._den, q._nums
        steps, k = _line_horner(nums, gx, gy, gc)
        rows = [without_trailing_zeros(row) for row in list_horner(nums, gc, gx, gy)]
        assert [_unpack(step, k) for step in steps] == rows
        image = [Fraction(v, den * gy ** (len(steps) - 1)) for v in _unpack(steps[0], k)]
        expected = line_restriction(q, Fraction(gx), Fraction(gy), Fraction(gc))
        assert (steps[0] == 0) == (expected == [])
        assert list(Poly1(image).coeffs) == expected
    assert _divide(member, gx, gy, gc, d) == a
    assert _divide(member + Poly2.constant(shift), gx, gy, gc, d) is None


@PROPERTY
@given(shape=shapes, a=cofactors, b=polys, r=positive_radii, tag=tags)
def test_star_flags_match_brute_image(shape, a, b, r, tag):
    gen = tube_generator(r, tag.eps)
    q = build(shape, gen, a, b)
    assume(not q.is_zero)
    rset = star_radius_set(q, tag)
    for entry in rset.entries:
        v = entry.radius.exact_value
        if v is not None:
            assert entry.star == (brute_substitute(q, v, tag.eps) == [])
    (lane,) = [lane for lane in solve_SQ(q, tag.space).lanes if lane.tag == tag]
    assert lane.all_cylinders_any_radius == rset.is_all_positive
    for cls in lane.classes:
        v = cls.radius.exact_value
        if v is None:
            continue
        star = cls.kind == ALL_REGULAR_TUBES
        assert star == (brute_substitute(q, v, tag.eps) == [])
        assert (cls.quotient is not None) == star
        if star:
            assert evaluates_equal(q, tube_generator(v, tag.eps), cls.quotient)


@PROPERTY
@given(shape=shapes, a=cofactors, b=polys, r=positive_radii)
def test_principal_star_flags_match_brute(shape, a, b, r):
    q = build(shape, Y - Poly2.constant(1 / r), a, b)
    assume(not q.is_zero)
    (lane,) = solve_SQ_principal(q).lanes
    # Q(0, 1/r) vanishes for every r exactly when Q(0, y) does
    assert lane.all_cylinders_any_radius == axis_restriction(q).is_zero
    for cls in lane.classes:
        v = cls.radius.exact_value
        if v is None:
            continue
        star = cls.kind == ALL_REGULAR_TUBES
        assert star == (brute_principal(q, v) == [])
        assert (cls.quotient is not None) == star
        if star:
            assert evaluates_equal(q, Y - Poly2.constant(1 / v), cls.quotient)


# linear coefficients with zero drawn often, for the a = 0, b = 0 and c = 0 edges
linear_coefficients = st.one_of(st.just(Fraction(0)), coefficients)


@PROPERTY
@example(a=Fraction(3), b=Fraction(0), c=Fraction(0), tube_eps=None)  # cylinders of every radius
@example(a=Fraction(0), b=Fraction(2), c=Fraction(3), tube_eps=None)  # H = c/b
@example(a=Fraction(2), b=Fraction(0), c=Fraction(5), tube_eps=None)  # K = c/a: empty
@example(a=Fraction(2), b=Fraction(-3), c=Fraction(0), tube_eps=None)  # empty
@example(a=Fraction(0), b=Fraction(1), c=Fraction(-1), tube_eps=-1)  # all tubes at eps = -1
@given(a=linear_coefficients, b=linear_coefficients, c=linear_coefficients, tube_eps=st.sampled_from([None, -1, 1]))
def test_linear_cases_match_the_papers_table(a, b, c, tube_eps):
    """classify_linear in every lane against the closed-form table; a set
    tube_eps moves a to -tube_eps*b**2/(4c), where the discriminant of
    that signal vanishes and the lane holds all tubes."""
    if tube_eps is not None and c != 0:
        a = -tube_eps * b * b / (4 * c)
    assume(a != 0 or b != 0)
    got = classify_linear(a, b, c, "all")
    assert [(k.tag.space, k.tag.eps, k.kind, k.radius, k.discriminant) for k in got] == linear_cases(a, b, c)


@PROPERTY
@example(c=Fraction(7, 5))
@example(c=Fraction(10**14 + 31))
@given(c=st.fractions(min_value=Fraction(1, 10**6), max_value=10**6, max_denominator=10**6))
def test_second_fundamental_matches_the_papers_answer(c):
    """classify_second_fundamental in every lane against the closed form:
    right cylinders of radius 1/c only."""
    got = classify_second_fundamental(c, "all").lanes
    assert [
        (lane.tag.space, lane.tag.eps, lane.all_cylinders_any_radius, [(k.kind, k.radius.exact_value) for k in lane.classes])
        for lane in got
    ] == second_fundamental_lanes(c)


@PROPERTY
@example(a=Poly2.constant(1), b=Poly2.zero(), shift=Fraction(1), r=Fraction(1), eps=1)
@given(a=cofactors, b=polys, shift=coefficients, r=positive_radii, eps=signals)
def test_contains_at_rational_radii_matches_brute(a, b, shift, r, eps):
    """Membership as QSDescription.contains reads it at a rational r, step 0
    of ``_line_horner`` on the family's cached line ``_integer_line`` (the
    packed image is zero), on planted members G_r*A, the same shifted by a
    nonzero constant (never members) and by x*B (members or not), for the
    K-H row of signal eps and the principal row.  Its lowest base-2**k
    digit is zero iff Q vanishes where the line meets the axis x = 0, at
    y0 (the right-cylinder test).  The right cylinder of radius r in each
    of the four lanes holds each of these relations iff Q(0, eps/(2r)) = 0,
    its curvature point."""
    kh = tube_family(LORENTZIAN_NEG if eps < 0 else EUCLIDEAN)
    cylinders = [(solve_QS(TubeIdentity(tag, r, True)), tag.eps / (2 * r)) for tag in LANES]

    def packed_image(family, q):
        a, b, c, _ = _integer_line(family, r.numerator, r.denominator)
        steps, k = _line_horner(q._nums, a, b, c)
        return steps[0], k

    for family, gen, brute, y0 in (
        (kh, tube_generator(r, eps), lambda q: brute_substitute(q, r, eps), eps / (2 * r)),
        (PRINCIPAL, Y - Poly2.constant(1 / r), lambda q: brute_principal(q, r), 1 / r),
    ):
        member = gen * a
        assert packed_image(family, member)[0] == 0 and brute(member) == []
        candidates = [member]
        if shift:
            shifted = member + Poly2.constant(shift)
            assert packed_image(family, shifted)[0] != 0 and brute(shifted) != []
            candidates.append(shifted)
        cylinder = member + X * b
        image, k = packed_image(family, cylinder)
        assert (image == 0) == (brute(cylinder) == [])
        assert (image % 2**k == 0) == (cylinder.eval(0, y0) == 0)
        candidates.append(cylinder)
        for description, point in cylinders:
            for q in candidates:
                assert description.contains(q) == (q.eval(0, point) == 0)


# rho = (p + sqrt(d))/s > 0, d not a square
quadratic_radii = st.tuples(st.integers(-2, 4), st.sampled_from([2, 3, 5, 6, 7]), st.integers(1, 3)).filter(
    lambda t: t[0] + math.sqrt(t[1]) > 0
)
low_factors = st.lists(
    st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda e: sum(e) <= 2), coefficients),
    max_size=4,
).map(Poly2)


def generator_norm(p: int, d: int, s: int, eps: int) -> Poly2:
    """The product of the tube relations of signal eps at the conjugates
    (p +- sqrt(d))/s, with e1 and e2 their sum and product: rational, and
    in the ideal of G_rho at each conjugate."""
    e1, e2 = Fraction(2 * p, s), Fraction(p * p - d, s * s)
    return Poly2(
        [
            ((2, 0), e2 * e2),
            ((1, 1), -2 * e1 * e2),
            ((0, 2), 4 * e2),
            ((1, 0), eps * (e1 * e1 - 2 * e2)),
            ((0, 1), -2 * eps * e1),
            ((0, 0), 1),
        ]
    )


@settings(max_examples=300, deadline=None)
@example(rationals=[], quadratics=[((1, 2, 1), 1)], factor=X * Y - Poly2.constant(1))
@example(rationals=[(Fraction(3, 2), -1)], quadratics=[((0, 3, 2), -1)], factor=Poly2.constant(2))
@given(
    rationals=st.lists(st.tuples(positive_radii, signals), max_size=2),
    quadratics=st.lists(st.tuples(quadratic_radii, signals), max_size=1),
    factor=low_factors,
)
def test_qs_membership_is_dual_to_sq(rationals, quadratics, factor):
    """The paper's duality, a tube S lies in S(Q) iff Q lies in Q(S), at
    rational and quadratic irrational radii: for Q a product of planted
    tube relations and norms of them times a factor of degree <= 2, each
    class of every lane of solve_SQ(Q) is a tube of that radius that
    contains Q iff the class is all-regular-tubes, its right cylinder
    always contains Q, and at a rational star the tube's generator times
    the printed quotient is Q.  Every planted rational radius is such a
    star in each lane of its signal."""
    q = factor
    for r, eps in rationals:
        q = q * tube_generator(r, eps)
    for (p, d, s), eps in quadratics:
        q = q * generator_norm(p, d, s, eps)
    assume(not q.is_zero)
    for lane in solve_SQ(q).lanes:
        for cls in lane.classes:
            tube = solve_QS(TubeIdentity(lane.tag, cls.radius, False))
            assert tube.contains(q) == (cls.kind == ALL_REGULAR_TUBES)
            assert solve_QS(TubeIdentity(lane.tag, cls.radius, True)).contains(q)
            if cls.quotient is not None:
                assert tube.generator() * cls.quotient == q
        stars = {cls.radius.exact_value for cls in lane.classes if cls.kind == ALL_REGULAR_TUBES}
        assert {r for r, eps in rationals if eps == lane.tag.eps} <= stars


def line_relation(family, r: Fraction) -> Poly2:
    """G_r / d(r) at a rational r, read off the family's cached line."""
    a, b, c, d = _integer_line(family, r.numerator, r.denominator)
    return Poly2._from_cleared({(1, 0): a, (0, 1): b, (0, 0): c}, d)


def family_line(family, r: Fraction) -> tuple[int, ...]:
    """q**m * f(p/q) for each coefficient polynomial f of the family at
    r = p/q, m their top degree, by Fraction evaluation."""
    m = max(map(len, family)) - 1
    return tuple(int(sum(Fraction(v) * r**e for e, v in enumerate(f)) * r.denominator**m) for f in family)


@PROPERTY
@example(r=Fraction(1))
@given(r=positive_radii)
def test_cached_family_line_is_the_evaluated_one(r):
    """``polyalg._integer_line`` of a family through its bounded cache, on
    the first call at r and on a repeat, is the family evaluated at r, for
    every family of the lane table and the principal family;
    ``tube_generator(r, eps)``, which reads the same cache, is each K-H
    lane's generator, with the evaluated integers as its cleared fields,
    and the one that ``QSDescription.generator`` returns."""
    for family in (*(lane.family for lane in _LANE_TABLE.values()), PRINCIPAL):
        line = _integer_line(family, r.numerator, r.denominator)
        assert line == _integer_line(family, r.numerator, r.denominator) == family_line(family, r)
    for tag, (family, _, _) in _LANE_TABLE.items():
        a, b, c, d = family_line(family, r)
        generator = tube_generator(r, tag.eps)
        assert generator == line_relation(family, r) == solve_QS(TubeIdentity(tag, r, False)).generator()
        assert (generator._den, generator._nums) == (d, {(1, 0): a, (0, 1): b, (0, 0): c})
    assert isinstance(polyalg._integer_line.cache_info().maxsize, int)


# the Q(S) calls of a library caller, each (call, candidate, tube): the
# tubes are the principal tube and the right cylinder of both signals at
# two radii, the candidates a planted member, an equal copy that is a
# distinct object, the member shifted by a constant, the member of the
# other signal and the cofactor
qs_calls = st.lists(
    st.tuples(st.sampled_from(["contains", "divide", "image"]), st.integers(0, 4), st.integers(0, 7)),
    min_size=2,
    max_size=12,
)


@PROPERTY
# a membership on the member's own line, then the same Q on the line of
# the other signal: a memo that ignored the line would answer for the first
@example(a=Poly2.constant(1), r=Fraction(1), s=Fraction(2), calls=[("contains", 0, 0), ("image", 0, 2)])
@example(a=Poly2.constant(1), r=Fraction(1), s=Fraction(2), calls=[("divide", 3, 2), ("contains", 3, 0)])
@given(a=cofactors, r=positive_radii, s=positive_radii, calls=qs_calls)
def test_horner_memo_is_never_stale(a, r, s, calls):
    """contains, divide_by_tube_factor and substitute_tube in any order
    on a few candidates and tubes, so that the same Q, or an equal copy,
    meets several lines in a row: each answer is the oracle's,
    brute_substitute on the tube's generator line and Q(0, eps/(2r)) on a
    right cylinder."""
    member = tube_generator(r, 1) * a
    candidates = [
        member,
        Poly2(member.terms()),
        member + Poly2.constant(1),
        tube_generator(r, -1) * a,
        a,
    ]
    tubes = [(tag, rad, cylinder) for rad in (r, s) for tag in (EUCLIDEAN, LORENTZIAN_NEG) for cylinder in (False, True)]
    for call, qi, ti in calls:
        q, (tag, rad, cylinder) = candidates[qi], tubes[ti]
        eps = tag.eps
        image = brute_substitute(q, rad, eps)
        if call == "contains":
            expected = q.eval(0, eps / (2 * rad)) == 0 if cylinder else image == []
            assert solve_QS(TubeIdentity(tag, rad, cylinder)).contains(q) == expected
        elif call == "divide":
            quotient = divide_by_tube_factor(q, rad, eps)
            if image:
                assert quotient is None
            else:
                assert Poly2(brute_product(tube_generator(rad, eps), quotient)) == q
        else:
            assert list(substitute_tube(q, rad, eps).coeffs) == image


def test_member_certificate_runs_after_contains(monkeypatch):
    """divide_by_tube_factor right after contains on the same Q and tube,
    a principal tube or a right cylinder, reads the packed steps that
    contains left, and still certifies the quotient: the right quotient
    after a membership on another line, and InternalMismatch once the
    certificate's product is corrupted."""
    r, a = Fraction(7, 3), X * Y - Poly2.constant(Fraction(5, 2))
    convolve = polyalg._convolve
    for tag, cylinder in itertools.product((EUCLIDEAN, LORENTZIAN_NEG), (False, True)):
        eps = tag.eps
        q = tube_generator(r, eps) * a
        tube, other = (solve_QS(TubeIdentity(tag, rad, cylinder)) for rad in (r, r + 1))
        assert tube.contains(q) and not other.contains(q)
        assert divide_by_tube_factor(q, r, eps) == a
        assert tube.contains(q)
        # a term off Q's support in line * quotient
        monkeypatch.setattr(polyalg, "_convolve", lambda p1, p2: {**convolve(p1, p2), (40, 0): 1})
        with pytest.raises(InternalMismatch, match="^verified multiplication of the quotient failed$"):
            divide_by_tube_factor(q, r, eps)
        monkeypatch.undo()


def test_interleaved_relations_keep_their_own_pass(monkeypatch):
    """Each Poly2 keeps the last pass asked of it: Q1 on line A, then Q2 on
    line B, then Q1 on line A again, by division, image and membership,
    runs two Horner passes, not three, and every answer is right."""
    r, s = Fraction(7, 3), Fraction(5, 2)
    a = X * Y - Poly2.constant(Fraction(5, 2))
    q1, q2 = tube_generator(r, 1) * a, tube_generator(s, -1) * a + Poly2.constant(1)
    passes = []
    line_horner = polyalg._line_horner

    def counting(*args):
        passes.append(args)
        return line_horner(*args)

    monkeypatch.setattr(polyalg, "_line_horner", counting)
    assert divide_by_tube_factor(q1, r, 1) == a
    assert list(substitute_tube(q2, s, -1).coeffs) == brute_substitute(q2, s, -1) != []
    assert divide_by_tube_factor(q1, r, 1) == a
    assert solve_QS(TubeIdentity(EUCLIDEAN, r, False)).contains(q1)
    assert len(passes) == 2


@PROPERTY
@example(shape="axis", a=Poly2.constant(1), b=Poly2.zero(), r=Fraction(1), tag=EUCLIDEAN)
@given(shape=shapes, a=cofactors, b=polys, r=positive_radii, tag=tags)
def test_star_radius_sets_are_the_classified_lanes(shape, a, b, r, tag):
    """The entries of star_radius_set are the radii and star flags that
    solve_SQ reports, all-positive lanes included (x*(x - 2*y + 1) has
    the star radius 1)."""
    q = build(shape, tube_generator(r, tag.eps), a, b)
    assume(not q.is_zero)
    got = star_radius_set(q, tag)
    lane = next(lane for lane in solve_SQ(q, tag.space).lanes if lane.tag == tag)
    assert got.is_all_positive == lane.all_cylinders_any_radius
    assert [(e.radius, e.star) for e in got.entries] == [
        (cls.radius, cls.kind == ALL_REGULAR_TUBES) for cls in lane.classes
    ]


# The generator families against the paper's formula and direct evaluation.


def restriction_rows(family, q: Poly2) -> list[list[int]]:
    """The family's R(x, r) times Q's common denominator, by the library's
    one Horner routine: one integer list in r per power of x."""
    return _family_image(q._nums, family.a, family.b, family.c)


def restriction_columns(family, q: Poly2) -> dict[int, Poly1]:
    """The x-coefficients of the family's R(x, r), as polynomials in r."""
    return {i: Poly1(row) for i, row in enumerate(restriction_rows(family, q))}


def proportional_up_to_r_power(p: Poly1, g: Poly1) -> bool:
    """p = lambda * r**m * g for a rational lambda != 0 and an integer m."""
    p, g = (Poly1(f.coeffs[next((k for k, c in enumerate(f.coeffs) if c), 0):]) for f in (p, g))
    if p.is_zero or g.is_zero:
        return p.is_zero and g.is_zero
    return [c * g.coeffs[-1] for c in p.coeffs] == [c * p.coeffs[-1] for c in g.coeffs]


@settings(max_examples=200, deadline=None)
@given(shape=shapes, a=cofactors, b=polys, r=positive_radii, tag=tags)
def test_kh_restriction_is_the_papers_gamma_up_to_r_powers(shape, a, b, r, tag):
    q = build(shape, tube_generator(r, tag.eps), a, b)
    assume(not q.is_zero)
    columns = restriction_columns(tube_family(tag), q)
    gammas = gamma_formula(epsilon_transform(q, tag.eps))
    for k in range(max(len(gammas), max(columns, default=-1) + 1)):
        gamma = gammas[k] if k < len(gammas) else Poly1()
        assert proportional_up_to_r_power(columns.get(k, Poly1()), gamma)


def common_denominator(q: Poly2) -> int:
    return math.lcm(*(c.denominator for _, c in q.terms()))


def evaluate_restriction(family, q: Poly2, x: Fraction, r: Fraction) -> Fraction:
    rows = restriction_rows(family, q)
    return sum((c * x**i * r**k for i, row in enumerate(rows) for k, c in enumerate(row)), Fraction(0))


@PROPERTY
@given(shape=shapes, a=cofactors, b=polys, r=positive_radii, x0=coefficients, r0=nonzero_radii, eps=signals)
def test_restriction_is_q_on_the_generator_line(shape, a, b, r, x0, r0, eps):
    """R(x, r) = (-2r)**n * Q(x, (r**2 x + eps)/(2r)) for the K-H family of
    signal eps and r**n * Q(x, 1/r) for the principal one, n = deg_y Q,
    both times the common denominator of Q's coefficients."""
    for family, gen, y0, b0 in (
        (tube_family(LORENTZIAN_NEG if eps < 0 else EUCLIDEAN), tube_generator(r, eps),
         (r0 * r0 * x0 + eps) / (2 * r0), -2 * r0),
        (PRINCIPAL, Y - Poly2.constant(1 / r), 1 / r0, r0),
    ):
        q = build(shape, gen, a, b)
        assume(not q.is_zero)
        n = max(j for (_, j), _ in q.terms())
        direct = sum((c * x0**i * y0**j for (i, j), c in q.terms()), Fraction(0))
        assert evaluate_restriction(family, q, x0, r0) == common_denominator(q) * b0**n * direct


def axis_image(family, q: Poly2, r: Fraction) -> Fraction:
    """b(r)**n * Q(0, -c(r)/b(r)), n = deg_y Q, evaluated term by term."""
    n = max(j for (_, j), _ in q.terms())
    b = Poly1(family.b).eval(r)
    y0 = -Poly1(family.c).eval(r) / b
    return b**n * sum((c * y0**j for (i, j), c in q.terms() if i == 0), Fraction(0))


@PROPERTY
@given(
    shape=shapes, a=cofactors, b=polys, r=positive_radii, eps=signals,
    points=st.lists(nonzero_radii, min_size=3, max_size=3, unique=True),
)
def test_radius_poly_is_q_on_the_axis_up_to_r_powers(shape, a, b, r, eps, points):
    """R(0, v) = lambda * v**m * radius_poly(v) at every sampled v, for one
    lambda != 0 and one m >= 0 per Q; both vanish identically exactly
    when Q(0, y) does.  Every K-H row (eps = +1 and -1) and the principal
    row are checked."""
    assert {tube_family(tag) for tag in (EUCLIDEAN, LORENTZIAN_POS, LORENTZIAN_NEG, HYPERBOLIC)} == {
        tube_family(LORENTZIAN_POS), tube_family(LORENTZIAN_NEG)
    }
    kh = tube_family(LORENTZIAN_NEG if eps < 0 else LORENTZIAN_POS)
    for family, gen in ((kh, tube_generator(r, eps)), (PRINCIPAL, Y - Poly2.constant(1 / r))):
        q = build(shape, gen, a, b)
        assume(not q.is_zero)
        p = Poly1(family.radius_poly(q))  # integer coefficients, constant term first
        direct = [axis_image(family, q, v) for v in points]
        if all(i for (i, _), _ in q.terms()):  # Q(0, y) = 0
            assert p.is_zero and not any(direct)
            continue
        assert not p.is_zero
        values = [p.eval(v) for v in points]
        assert [d == 0 for d in direct] == [v == 0 for v in values]
        ratios = [(v, d / pv) for v, d, pv in zip(points, direct, values) if pv]
        assert not ratios or any(
            len({ratio / v**m for v, ratio in ratios}) == 1 for m in range(q.degree + 1)
        )


@PROPERTY
@given(shape=shapes, a=cofactors, b=polys, r=positive_radii, eps=signals)
def test_all_spaces_is_each_space_alone(shape, a, b, r, eps):
    """solve_SQ decides the rows shared by E3, L3 eps = +1 and H3 once:
    its lanes are those of the one-space calls, and each lane is the
    decision of its own tag's family asked alone, so the axis isolation
    the eps = -1 lane shares with the eps = +1 row changes none of its
    radii, stars or quotients."""
    q = build(shape, tube_generator(r, eps), a, b)
    assume(not q.is_zero)
    each = [lane for space in ("euclidean", "lorentzian", "hyperbolic") for lane in solve_SQ(q, space).lanes]
    assert list(solve_SQ(q, "all").lanes) == each
    for lane in each:
        ((all_positive, decisions),) = decide_radii(q, [tube_family(lane.tag)]).values()
        assert lane.all_cylinders_any_radius == all_positive
        assert [(cls.radius, cls.kind == ALL_REGULAR_TUBES, cls.quotient, cls.eps) for cls in lane.classes] == [
            (entry.radius, entry.star, quotient, lane.tag.eps) for entry, quotient in decisions
        ]


@PROPERTY
@given(r=nonzero_radii, tag=tags)
def test_family_generators_are_the_printed_relations(r, tag):
    for got, want in (
        (line_relation(tube_family(tag), r), tube_generator(r, tag.eps)),
        (line_relation(PRINCIPAL, r), Y - Poly2.constant(1 / r)),
    ):
        assert list(got.terms()) == list(want.terms())


@PROPERTY
@example(p=X + Y, q=X + Y)  # every term cancels in p - q
@example(p=Poly2.zero(), q=X)
@given(p=polys, q=polys)
def test_sums_are_the_validated_constructor(p, q):
    negated = [(e, -c) for e, c in q.terms()]
    for got, want in (
        (p + q, Poly2(list(p.terms()) + list(q.terms()))),
        (p - q, Poly2(list(p.terms()) + negated)),
        (-q, Poly2(negated)),
    ):
        assert list(got.terms()) == list(want.terms())
        assert got == want and hash(got) == hash(want)


def repeated_products(nums: dict, k: int) -> dict:
    """p**k by k integer convolutions, cancelled terms dropped: the power
    loop that the recurrence replaced."""
    acc = {(0, 0): 1}
    for _ in range(k):
        acc = _convolve(acc, nums)
    return {e: v for e, v in acc.items() if v}


@settings(max_examples=60, deadline=None)
@example(base={(0, 0): 0}, k=3)  # the zero polynomial
@example(base={(8, 3): -(10**20)}, k=10)  # a monomial
@example(base={(1, 0): 1, (0, 1): 2, (0, 0): 1}, k=10)
@example(base={(8, 0): 3, (0, 8): -5, (4, 4): 10**20}, k=10)  # no constant term
@given(
    base=st.dictionaries(
        st.tuples(st.integers(0, 8), st.integers(0, 8)), st.integers(-(10**20), 10**20), min_size=1, max_size=6
    ),
    k=st.integers(0, 10),
)
def test_power_recurrence_is_repeated_products(base, k):
    assert _expand_power(base, k) == repeated_products(base, k)


@PROPERTY
@example(tree=("sum", ((1, ("var", "x")), (-1, ("var", "x")))), points=[(Fraction(2), Fraction(3))])
@example(tree=("pow", ("sum", ((1, ("var", "x")), (-1, ("var", "x")))), 0), points=[(Fraction(0), Fraction(0))])
@given(
    tree=expression_trees,
    points=st.lists(st.tuples(coefficients, coefficients), min_size=1, max_size=3),
)
def test_parse_is_the_value_of_the_expression(tree, points):
    """parse_poly on nested sums, products and powers with rational
    constants, some cancelling to zero, against the tree's value."""
    assume(expression_degree(tree) <= MAX_DEGREE)
    terms = list(parse_poly(expression_text(tree)).terms())
    for x, y in points:
        assert sum((c * x**i * y**j for (i, j), c in terms), Fraction(0)) == expression_value(tree, x, y)


@PROPERTY
@given(
    roots=planted_roots,
    lead=st.integers(1, 10**30),
    b=st.integers(-50, 50),
    c=st.integers(-50, 50).filter(bool),
)
def test_isolation_finds_exactly_the_planted_rational_roots(roots, lead, b, c):
    # lead*t**2 + b*t + c times the planted linear factors.  The big lead
    # makes the rational-root grid fine; a quadratic without rational
    # roots adds only irrational ones, each located by its own sign change.
    disc = b * b - 4 * lead * c
    assume(disc < 0 or math.isqrt(disc) ** 2 != disc)
    p = Poly1(poly_product([c, b, lead], *([-rho, 1] for rho in roots)))

    def quadratic(t: Fraction) -> Fraction:
        return (lead * t + b) * t + c

    def planted(t: Fraction) -> Fraction:
        return math.prod((t - rho for rho in roots), start=Fraction(1))

    found = isolate_positive_roots(p)
    exact = [rad.exact_value for rad in found if rad.exact_value is not None]
    assert exact == sorted({rho for rho in roots if rho > 0})
    assert all(planted(v) == 0 for v in exact)
    # positive real roots of the quadratic, by Vieta: one when c/lead < 0,
    # two when both roots share the sign of -b/lead > 0
    positive = 0 if disc <= 0 else (1 if c < 0 else (2 if b < 0 else 0))
    irrational = [rad for rad in found if rad.exact_value is None]
    assert len(irrational) == positive
    for rad in irrational:
        assert quadratic(rad.lo) * quadratic(rad.hi) < 0
    for left, right in zip(found, found[1:]):
        assert 0 <= left.lo < left.hi <= right.lo < right.hi


# Reference Sturm machinery over Fraction, on Poly1 values and its own
# derivative and long division.


def reference_derivative(p: Poly1) -> Poly1:
    return Poly1([k * c for k, c in enumerate(p.coeffs)][1:])


def reference_remainder(a: Poly1, b: Poly1) -> Poly1:
    """a mod b by long division over Fraction, b nonzero."""
    rem, d, lead = list(a.coeffs), b.degree, b.coeffs[-1]
    for k in range(len(rem) - 1, d - 1, -1):
        q = rem[k] / lead
        for m in range(d + 1):
            rem[k - d + m] -= q * b.coeffs[m]
    return Poly1(rem)


def reference_chain(p: Poly1) -> list[Poly1]:
    chain = [p, reference_derivative(p)]
    while chain[-1].degree > 0:
        chain.append(Poly1([-c for c in reference_remainder(chain[-2], chain[-1]).coeffs]))
    return chain


def reference_variations(chain: list[Poly1], v: Fraction) -> int:
    signs = [value > 0 for value in (c.eval(v) for c in chain) if value != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def reference_irrational_cells(deflated: Poly1, rationals: set) -> list[tuple[Fraction, Fraction]]:
    """The cells the isolation gave before one chain served both kinds
    of root: bisection of (0, B] by the deflated polynomial's own chain,
    B its Cauchy bound, then each cell shrunk until it holds no positive
    rational root."""
    chain = reference_chain(deflated)

    def count(lo, hi):
        return reference_variations(chain, lo) - reference_variations(chain, hi)

    bound = 1 + max(abs(c) for c in deflated.coeffs) / abs(deflated.coeffs[-1])
    cells, todo = [], [(Fraction(0), bound)]
    while todo:
        lo, hi = todo.pop()
        n = count(lo, hi)
        if n > 1:
            mid = (lo + hi) / 2
            todo += [(lo, mid), (mid, hi)]
        elif n == 1:
            while any(lo < rho <= hi for rho in rationals):
                mid = (lo + hi) / 2
                if count(lo, mid) == 1:
                    hi = mid
                else:
                    lo = mid
            cells.append((lo, hi))
    return sorted(cells)


# primitive quadratics a*t**2 + b*t + c, a > 0; those with a rational root are assumed away
quadratics = st.lists(
    st.tuples(st.integers(1, 40), st.integers(-40, 40), st.integers(-40, 40).filter(bool)),
    min_size=1,
    max_size=2,
    unique=True,
)
# rational roots of the size of the quadratics' roots, so some fall in their cells
near_roots = st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=64), max_size=4)


@PROPERTY
@example(roots=[Fraction(1)], quads=[(1, 0, -2)])  # 1 in the first cell (0, 3] of sqrt(2)
@example(roots=[Fraction(10)], quads=[(1, 0, -2)])  # 10 beyond that cell
@example(roots=[Fraction(141, 100), Fraction(-3, 2)], quads=[(1, 0, -2), (2, -1, -4)])
@given(roots=near_roots, quads=quadratics)
def test_irrational_cells_match_the_deflated_chain(roots, quads):
    for a, b, c in quads:
        disc = b * b - 4 * a * c
        assume(math.gcd(a, b, c) == 1 and (disc < 0 or math.isqrt(disc) ** 2 != disc))
    deflated = Poly1(poly_product(*([c, b, a] for a, b, c in quads)))
    p = Poly1(poly_product(deflated.coeffs, *([-rho, 1] for rho in roots)))
    irrational = [rad for rad in isolate_positive_roots(p) if rad.exact_value is None]
    assert all(rad.defining_poly == deflated for rad in irrational)
    expected = reference_irrational_cells(deflated, {rho for rho in roots if rho > 0})
    assert [(rad.lo, rad.hi) for rad in irrational] == expected


def reference_rational_roots(s: Poly1) -> list[Fraction]:
    """The rational roots of the square-free integer s as the isolation
    found them before the l-adic lift: a root p/q has q | a_n, so each
    real root is isolated by Sturm bisection of (-B, B], B the Cauchy
    bound, its cell narrowed to width 1/|a_n|, and the one point of the
    grid Z/a_n left in it tested."""
    # each member scaled to integers, and its sign at p/q that of the
    # form sum c_k p**k q**(d-k)
    chain = []
    for member in reference_chain(s):
        den = math.lcm(*(c.denominator for c in member.coeffs))
        chain.append([int(c * den) for c in member.coeffs])

    def variations(v: Fraction) -> int:
        values = [sum(c * v.numerator**k * v.denominator ** (len(m) - 1 - k) for k, c in enumerate(m)) for m in chain]
        signs = [value > 0 for value in values if value]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    def count(lo, hi):
        return variations(lo) - variations(hi)

    lead = abs(s.coeffs[-1])
    bound = 1 + max(abs(c) for c in s.coeffs) / lead
    roots, todo = [], [(-bound, bound)]
    while todo:
        lo, hi = todo.pop()
        n = count(lo, hi)
        if n > 1:
            mid = (lo + hi) / 2
            todo += [(lo, mid), (mid, hi)]
        elif n == 1:
            while hi - lo > 1 / lead:
                mid = (lo + hi) / 2
                if count(lo, mid) == 1:
                    hi = mid
                else:
                    lo = mid
            grid = Fraction(math.floor(hi * lead), lead)
            if grid > lo and s.eval(grid) == 0:
                roots.append(grid)
    return sorted(roots)


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def has_integer_root(coeffs: list[int]) -> bool:
    """The monic integer polynomial with a nonzero constant term has an
    integer root: one that divides the constant term."""
    c0 = abs(coeffs[0])
    return any(
        Poly1(coeffs).eval(Fraction(sign * d)) == 0 for d in range(1, c0 + 1) if c0 % d == 0 for sign in (1, -1)
    )


# q*r - p with 15-digit q and p, and the two coefficients of the pinned
# prime and composite reports
big_ints = st.one_of(st.integers(1, 10**15), st.sampled_from([10**14 + 31, 367567200]))
linear_factors = st.tuples(big_ints, big_ints, st.sampled_from([1, -1]), st.integers(1, 3))
irreducible_quadratics = st.tuples(
    st.integers(1, 10**6), st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6).filter(bool)
).filter(lambda t: math.gcd(*t) == 1 and not is_square(t[1] ** 2 - 4 * t[0] * t[2])).map(lambda t: [t[2], t[1], t[0]])
irreducible_cubics = st.tuples(st.integers(-50, 50).filter(bool), st.integers(-20, 20), st.integers(-20, 20)).map(
    lambda t: [t[0], t[1], t[2], 1]
).filter(lambda c: not has_integer_root(c))


@PROPERTY
@example(linear=[(367567200, 5040, 1, 2), (10**14 + 31, 3, -1, 1)], quads=[[-2, 0, 1]], cubics=[], lead=1)
@example(linear=[(60, 1, 1, 1), (59, 1, 1, 1), (58, 1, 1, 1)], quads=[], cubics=[[-2, 0, 0, 1]], lead=7)
@given(
    linear=st.lists(linear_factors, min_size=1, max_size=4),
    quads=st.lists(irreducible_quadratics, max_size=1),
    cubics=st.lists(irreducible_cubics, max_size=1),
    lead=st.integers(-9, 9).filter(bool),
)
def test_rational_roots_match_the_sturm_grid_search(linear, quads, cubics, lead):
    # lead times planted factors q*r -+ p with multiplicities, an
    # irreducible quadratic and cubic; the reference sees the product of
    # the distinct factors, the library that of the repeated ones
    distinct = {Fraction(sign * p, q): m for q, p, sign, m in linear}
    factors = [[-rho.numerator, rho.denominator] for rho in distinct] + quads + cubics
    repeated = [[-rho.numerator, rho.denominator] for rho, m in distinct.items() for _ in range(m)]
    s = Poly1(poly_product(*factors))
    p = poly_product(*repeated, *quads, *quads, *cubics, *cubics)
    square_free = _squarefree([lead * c for c in p])
    assert Poly1(square_free) == s
    assert _rational_roots(square_free) == reference_rational_roots(s) == sorted(distinct)


# The lifting prime l needs only that every root of s in F_l be simple.
# Two roots that differ by a multiple of 2*3*...*29 collide modulo every
# prime below 30, so both rules pass over those primes.  A quartic
# g**2 + l*u, g irreducible modulo l, is square-free over Q but the square
# of g modulo l: its repeated roots lie outside F_l, so l is not rejected
# for it, where the square-free rule rejected it.

PRIMORIAL_29 = math.prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29))


@st.composite
def squares_modulo_a_prime(draw) -> list[int]:
    ell = draw(st.sampled_from([3, 5, 7, 31, 37, 41]))
    b, c = draw(st.integers(-20, 20)), draw(st.integers(-20, 20))
    # x**2 + b*x + c is irreducible mod the odd prime l: its discriminant
    # is a non-residue
    assume(pow((b * b - 4 * c) % ell, (ell - 1) // 2, ell) == ell - 1)
    u = draw(st.lists(st.integers(-3, 3), min_size=3, max_size=3).filter(any))
    return [v + ell * w for v, w in zip(poly_product([c, b, 1], [c, b, 1]), u + [0, 0])]


@PROPERTY
@example(roots=[Fraction(2), Fraction(3, 2)], shift=1, quartics=[[4, 0, 2, 0, 1]])
@example(roots=[Fraction(-7, 3)], shift=-2, quartics=[[1 + 31 * 2, 0, 2 + 31, 0, 1]])
@given(
    roots=st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=12), min_size=1, max_size=3, unique=True),
    shift=st.integers(-2, 2),
    quartics=st.lists(squares_modulo_a_prime(), max_size=2),
)
def test_rational_roots_with_roots_that_collide_mod_small_primes(roots, shift, quartics):
    # planted q*r - p factors, one pair differing by shift * PRIMORIAL_29
    # when shift != 0, times quartics that are squares modulo a prime
    planted = set(roots) | ({roots[0] + shift * PRIMORIAL_29} if shift else set())
    s = Poly1(poly_product(*([-rho.numerator, rho.denominator] for rho in planted), *quartics))
    assume(reference_gcd_degree(s, reference_derivative(s)) == 0)  # square-free over Q
    found = _rational_roots([int(c) for c in s.coeffs])
    assert found == reference_rational_roots(s)
    assert planted <= set(found)


def test_lifting_prime_needs_only_simple_roots_in_the_field(monkeypatch):
    # (r - 1)(r**4 + 2*r**2 + 4): modulo 3 the quartic is (r**2 + 1)**2,
    # with no root in F_3, and r = 1 is simple, so l = 3 serves; the rule
    # that asked for s square-free modulo l passed over 3 to 5
    s = poly_product([-1, 1], [4, 0, 2, 0, 1])
    assert [ell for ell in (2, 3, 5) if radius._squarefree_mod(s, ell)] == [5]
    moduli = set()
    value_mod = radius._value_mod

    def recording(p, x, m):
        moduli.add(m)
        return value_mod(p, x, m)

    monkeypatch.setattr(radius, "_value_mod", recording)
    assert _rational_roots(s) == [1] == reference_rational_roots(Poly1(s))
    # the primes scanned, the last of them accepted; the lift's moduli 9, 81 are not prime
    assert sorted(m for m in moduli if all(m % k for k in range(2, m))) == [2, 3]


# Bisection on integer numerators against the Fraction bisection it
# replaced.


def fraction_narrow(coeffs: list[int], lo: Fraction, hi: Fraction, width: Fraction) -> tuple:
    """``radius._narrow`` as it bisected on Fractions, one per step."""
    sign_hi = _sign_at(coeffs, hi)
    while sign_hi and hi - lo > width:
        mid = (lo + hi) / 2
        sign_mid = _sign_at(coeffs, mid)
        if sign_mid == sign_hi or sign_mid == 0:
            hi, sign_hi = mid, sign_mid
        else:
            lo = mid
    return lo, hi, sign_hi == 0


widths = st.one_of(
    st.just(DISPLAY_WIDTH),
    st.just(Fraction(1, 3)),
    st.integers(1, 14).map(lambda k: Fraction(1, 7**k)),
    st.fractions(min_value=Fraction(1, 10**6), max_value=2, max_denominator=10**6),
)


@PROPERTY
@example(factors=[[-2, 0, 1]], width=DISPLAY_WIDTH)
@example(factors=[[-2, 0, 3]], width=Fraction(1, 3))  # Cauchy bound 5/3
@example(factors=[[-7, 0, 0, 5]], width=Fraction(1, 7**9))  # Cauchy bound 12/5
@given(
    factors=st.lists(st.one_of(irreducible_quadratics, irreducible_cubics), min_size=1, max_size=2),
    width=widths,
)
def test_integer_narrow_matches_the_fraction_bisection(factors, width):
    # the cells of irrational radii: ends over the non-dyadic Cauchy bound
    # of a lead that is not a power of two
    p = Poly1(poly_product(*factors))
    for rad in isolate_positive_roots(p):
        if rad.exact_value is None:
            coeffs = [int(c) for c in rad.defining_poly.coeffs]
            assert _narrow(coeffs, rad.lo, rad.hi, width) == fraction_narrow(coeffs, rad.lo, rad.hi, width)


@PROPERTY
@example(num=3, den=8, lo=Fraction(0), hi=Fraction(1), width=DISPLAY_WIDTH)  # hi lands on 3/8
@given(
    num=st.integers(1, 200),
    den=st.integers(1, 64),
    lo=st.fractions(min_value=0, max_value=3, max_denominator=30),
    hi=st.fractions(min_value=0, max_value=300, max_denominator=30),
    width=widths,
)
def test_integer_narrow_matches_on_non_dyadic_ends(num, den, lo, hi, width):
    # one rational root in an arbitrary cell (lo, hi]: the at_root flag
    # and the ends at which the bisection lands on it
    rho = Fraction(num, den)
    assume(lo < rho <= hi)
    coeffs = [-rho.numerator, rho.denominator]
    assert _narrow(coeffs, lo, hi, width) == fraction_narrow(coeffs, lo, hi, width)


@PROPERTY
@given(
    roots=st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=20), min_size=1, max_size=5),
    picks=st.tuples(st.integers(0, 4), st.integers(0, 4)),
    m=st.integers(0, 30),
    lead=st.integers(-9, 9).filter(bool),
)
def test_root_count_with_roots_at_both_ends(roots, picks, m, lead):
    # lead * (t**2 - m) * prod(t - rho), repeats allowed, counted on
    # (lo, hi] whose ends are planted roots
    assume(m == 0 or math.isqrt(m) ** 2 != m)
    p = poly_product([lead], [-m, 0, 1] if m else [1], *([-rho.numerator, rho.denominator] for rho in roots))
    lo, hi = sorted(roots[i % len(roots)] for i in picks)

    def below(v: Fraction, sign: int) -> bool:
        # v < sign * sqrt(m), exactly
        return (v < 0 or v * v < m) if sign > 0 else (v < 0 and v * v > m)

    brute = sum(lo < rho <= hi for rho in set(roots))
    if m:
        brute += sum(below(lo, sign) and not below(hi, sign) for sign in (1, -1))
    chain = _sturm_chain(_squarefree(p))
    assert _variations(chain, lo) - _variations(chain, hi) == brute


# Integer ring arithmetic against term-by-term Fraction products.

# small coefficients so that terms cancel, 20-digit numerators, and
# denominators that are pairwise coprime primes
wide_coefficients = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.integers(-(10**20), 10**20).map(Fraction),
    st.builds(Fraction, st.integers(-(10**20), 10**20), st.sampled_from([3, 7, 11, 13, 10**9 + 7])),
)
wide_polys = st.lists(st.tuples(exponents, wide_coefficients), max_size=6).map(Poly2)


def brute_power(p: Poly2, k: int) -> dict:
    acc = {(0, 0): Fraction(1)}
    for _ in range(k):
        acc = brute_product(Poly2(acc), p)
    return acc


@PROPERTY
@example(p=X + Y, q=X - Y)  # the x*y terms cancel
@example(p=X + Poly2.constant(Fraction(1, 3)), q=X - Poly2.constant(Fraction(1, 3)))
@example(p=Poly2.zero(), q=X)
@given(p=wide_polys, q=wide_polys)
def test_product_matches_brute(p, q):
    product = p * q
    assert list(product.terms()) == list(Poly2(brute_product(p, q)).terms())
    assert all(c != 0 for _, c in product.terms())
    scaled = p * Fraction(-7, 10**20 + 39)
    assert scaled == Poly2(brute_product(p, Poly2.constant(Fraction(-7, 10**20 + 39))))


@PROPERTY
@example(p=X - Y, k=2)
@example(p=Poly2.zero(), k=0)
@given(p=wide_polys, k=st.integers(0, 4))
def test_power_matches_brute(p, k):
    assert list((p**k).terms()) == list(Poly2(brute_power(p, k)).terms())


@pytest.mark.parametrize("k", range(31))
def test_trinomial_power(k):
    # (x + 2y + 1)^k = sum over a + b + c = k of C(k, a) C(k - a, b) 2^b x^a y^b
    want = {
        (a, b): Fraction(math.comb(k, a) * math.comb(k - a, b) * 2**b)
        for a in range(k + 1)
        for b in range(k - a + 1)
    }
    base = X + 2 * Y + Poly2.constant(1)
    assert base**k == Poly2(want)
    assert parse_poly(f"(x + 2*y + 1)^{k}") == Poly2(want)


# Integer Sturm chains against the Fraction Euclidean chain.

integer_polys = st.lists(st.integers(-(10**6), 10**6), min_size=2, max_size=9).filter(lambda c: c[-1] != 0)


def reference_gcd_degree(p: Poly1, q: Poly1) -> int:
    while not q.is_zero:
        p, q = q, reference_remainder(p, q)
    return p.degree


@PROPERTY
@example(coeffs=[-2, 0, 1])
@example(coeffs=[0, -1, 0, 4])  # a root at 0
@example(coeffs=[6, -5, 1, 0, 0, 0, -3])
@given(coeffs=integer_polys)
def test_sturm_chain_is_positive_multiples_of_the_euclidean_chain(coeffs):
    s = Poly1([Fraction(c, 7) for c in coeffs])
    assume(reference_gcd_degree(s, reference_derivative(s)) == 0)  # square-free
    content = math.gcd(*coeffs)
    chain = _sturm_chain([c // content for c in coeffs])
    reference = reference_chain(s)
    assert len(chain) == len(reference)
    for member, want in zip(chain, reference):
        assert math.gcd(*member) == 1
        ratio = Fraction(member[-1]) / want.coeffs[-1]
        assert ratio > 0
        assert Poly1(member) == Poly1([c * ratio for c in want.coeffs])
