"""Three laws of S(Q), the set of tubes whose curvatures satisfy
Q(K, H) = 0, as hypothesis properties on whole ``solve_SQ`` reports.  Each
transformed input is built here, term by term, and each generator is
written out by hand, so no property shares code with the decision path:

* the signal law S_{L-}(Q(x, y)) = S_{L+}(Q(-x, -y)), because
  G^-_r(x, y) = -G^+_r(-x, -y): the eps = -1 lane of Q is the eps = +1
  lane of Q(-x, -y), radius for radius and star for star, and a quotient
  W of Q by G^-_r becomes the quotient -W(-x, -y) of Q(-x, -y) by G^+_r;
* the product law S(Q*F) = S(Q) u S(F), in all four lanes: G_r is
  irreducible, so (G_r) is a prime ideal, and the axis restriction is a
  ring map;
* scaling: S(c*Q) = S(Q) for rational c != 0, each quotient times c.
"""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from weingarten_tubes.classify import ALL_REGULAR_TUBES, solve_SQ
from weingarten_tubes.polyalg import Poly2

LAW = settings(max_examples=40, deadline=None)

X = Poly2.variable("x")

coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=4)
exponents = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda e: sum(e) <= 2)
small_polys = st.lists(st.tuples(exponents, coefficients), min_size=1, max_size=3).map(Poly2)
radii = st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)])
signals = st.sampled_from([-1, 1])
# any Q, a planted member G_r*A, a cylinder radius G_r*A + x*B that may be
# a star, x*G_r*A, which vanishes on the whole axis, and the same with
# G_r*G'_r at r = sqrt(m), the rational product of G_r and its conjugate
shapes = st.sampled_from(["free", "member", "cylinder", "axis"])


def generator(r: Fraction, eps: int) -> Poly2:
    """x*r**2 - 2*r*y + eps, written out."""
    return Poly2([((1, 0), r * r), ((0, 1), -2 * r), ((0, 0), eps)])


def negated_arguments(q: Poly2) -> Poly2:
    """Q(-x, -y): the sign of every term of odd total degree flips."""
    return Poly2([((i, j), -c if (i + j) % 2 else c) for (i, j), c in q.terms()])


def conjugate_generators(m: int, eps: int) -> Poly2:
    """(x*m + eps)**2 - 4*m*y**2, the product of the generators at
    r = sqrt(m) and at its conjugate -sqrt(m)."""
    return Poly2([((2, 0), m * m), ((1, 0), 2 * eps * m), ((0, 0), 1), ((0, 2), -4 * m)])


@st.composite
def relations(draw) -> Poly2:
    shape, eps, irrational = draw(shapes), draw(signals), draw(st.booleans())
    a, b = draw(small_polys), draw(small_polys)
    gen = conjugate_generators(draw(st.sampled_from([2, 3])), eps) if irrational else generator(draw(radii), eps)
    q = {"free": a + b, "member": gen * (a + Poly2.constant(1)), "cylinder": gen * a + X * b, "axis": X * gen * a}[shape]
    assume(not q.is_zero)
    return q


def radius_key(rad) -> tuple:
    """A rational radius by its value, an irrational one by its value to
    nine places: radii of different relations have different defining
    polys and cells."""
    return (rad.exact_value, None) if rad.exact_value is not None else (None, round(rad.approx(), 9))


def surfaces(lane) -> tuple:
    """(right cylinders of every radius, the right-cylinder radii, the
    all-tube radii) of one lane."""
    cylinders = {radius_key(cls.radius) for cls in lane.classes}
    stars = {radius_key(cls.radius) for cls in lane.classes if cls.kind == ALL_REGULAR_TUBES}
    return lane.all_cylinders_any_radius, cylinders, stars


@LAW
@given(q=relations())
def test_signal_law(q):
    flipped = negated_arguments(q)
    pos, neg = solve_SQ(q, "lorentzian").lanes
    flipped_pos, flipped_neg = solve_SQ(flipped, "lorentzian").lanes
    for minus, plus in ((neg, flipped_pos), (flipped_neg, pos)):
        assert (minus.tag.eps, plus.tag.eps) == (-1, 1)
        assert minus.all_cylinders_any_radius == plus.all_cylinders_any_radius
        assert [(cls.kind, cls.radius) for cls in minus.classes] == [(cls.kind, cls.radius) for cls in plus.classes]
        for cls_minus, cls_plus in zip(minus.classes, plus.classes):
            if cls_minus.quotient is None:
                assert cls_plus.quotient is None
            else:
                assert cls_plus.quotient == -negated_arguments(cls_minus.quotient)


@LAW
@given(q=relations(), f=relations())
def test_product_law(q, f):
    for lane_qf, lane_q, lane_f in zip(*(solve_SQ(p, "all").lanes for p in (q * f, q, f))):
        any_qf, cylinders_qf, stars_qf = surfaces(lane_qf)
        any_q, cylinders_q, stars_q = surfaces(lane_q)
        any_f, cylinders_f, stars_f = surfaces(lane_f)
        assert any_qf == (any_q or any_f)
        assert stars_qf == stars_q | stars_f
        if not any_qf:
            assert cylinders_qf == cylinders_q | cylinders_f


@LAW
@given(q=relations(), c=coefficients.filter(bool))
def test_scaling_law(q, c):
    for lane, scaled in zip(solve_SQ(q, "all").lanes, solve_SQ(c * q, "all").lanes):
        assert lane.all_cylinders_any_radius == scaled.all_cylinders_any_radius
        assert [cls[:3] for cls in lane.classes] == [cls[:3] for cls in scaled.classes]
        assert [None if cls.quotient is None else c * cls.quotient for cls in lane.classes] == [
            cls.quotient for cls in scaled.classes
        ]
