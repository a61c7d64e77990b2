"""A reference S(Q): the lanes of a ``classify`` report recomputed in sympy.

It shares no code with the library: nothing here imports
``weingarten_tubes``, and each lane's tube relation a(r)*x + b(r)*y + c(r)
is the paper's, as ``paper_formulas`` writes it (``LANE_ROWS``,
``PRINCIPAL_ROW``).  For one lane:

* Q restricted to the relation's line, y = -(a*x + c)/b, with its
  denominator cleared, is a polynomial R(x, r) over Q[r];
* the radius poly is R(0, r), Q at the axis point; when it vanishes
  identically the lane holds right cylinders of every radius, and the
  candidates are the roots of the star poly instead;
* the star poly is the gcd of the x-coefficients of R;
* each positive real root of the candidates, exact (a Rational or a
  CRootOf of an irreducible factor), is a star iff that factor divides the
  star poly, and a rational star carries ``sp.div(Q, G_r)``, whose
  remainder must be zero.

sympy is imported by the caller's module, which skips without it.
"""

from typing import NamedTuple, Optional

import sympy as sp

X, Y, R = sp.symbols("x y r")

ALL_REGULAR_TUBES = "all-regular-tubes"
RIGHT_CYLINDERS = "right-cylinders"


class ReferenceClass(NamedTuple):
    kind: str
    root: sp.Expr  # exact: Rational or CRootOf
    quotient: Optional[sp.Expr]  # Q / G_r at a rational star


class ReferenceLane(NamedTuple):
    all_cylinders_any_radius: bool
    classes: tuple[ReferenceClass, ...]


def parse(text: str) -> sp.Expr:
    """A polynomial as the CLI prints it (``^`` for powers, rationals as
    p/q), in x and y; k1 and k2 name them in principal mode."""
    return sp.expand(sp.sympify(text.replace("^", "**"), locals={"x": X, "y": Y, "k1": X, "k2": Y}))


def _line_image(q: sp.Expr, row) -> sp.Poly:
    """R(x, r) = sum_j Q_j(x) * (-(a*x + c))**j * b**(n - j), Q = sum_j
    Q_j(x) * y**j on the line a*x + b*y + c = 0 with its denominators
    cleared, as an integer polynomial in (x, r), summed from j = n down;
    a, b and c are first brought to polynomials in r over one denominator."""
    row = [sp.together(v) for v in row(R)]
    den = sp.lcm([sp.fraction(v)[1] for v in row])
    a, b, c = (sp.Poly(sp.cancel(v * den), X, R, domain="ZZ") for v in row)
    _, q = sp.Poly(q, X, Y, domain="QQ").clear_denoms(convert=True)
    n = q.degree(Y)
    columns: list[dict] = [{} for _ in range(n + 1)]
    for (i, j), v in q.terms():
        columns[j][(i, 0)] = v
    line = -(a * sp.Poly(X, X, R, domain="ZZ") + c)
    image, b_power = sp.Poly(0, X, R, domain="ZZ"), sp.Poly(1, X, R, domain="ZZ")
    for column in reversed(columns):
        image = image * line + sp.Poly.from_dict(column, X, R, domain="ZZ") * b_power
        b_power *= b
    return image


def lane(q: sp.Expr, row) -> ReferenceLane:
    """The lane of Q for one tube relation, classes in ascending radius."""
    rows: dict[int, dict] = {}
    for (i, k), v in _line_image(q, row).terms():
        rows.setdefault(i, {})[(k,)] = v
    coefficients = {i: sp.Poly.from_dict(terms, R, domain="ZZ") for i, terms in rows.items()}
    star = sp.Poly(0, R, domain="ZZ")
    for coefficient in coefficients.values():
        star = star.gcd(coefficient)
    axis = coefficients.get(0, sp.Poly(0, R, domain="ZZ"))
    all_cylinders = axis.is_zero
    candidates = star if all_cylinders else axis
    classes = []
    if not candidates.is_zero and candidates.degree() > 0:
        for factor, _ in candidates.factor_list()[1]:
            is_star = all_cylinders or star.rem(factor).is_zero
            for root in factor.real_roots(radicals=False):
                if not bool(root > 0):
                    continue
                quotient = None
                if is_star and root.is_Rational:
                    a, b, c = row(root)
                    quotient, remainder = sp.div(q, a * X + b * Y + c, X, Y)
                    assert remainder == 0, (q, root, remainder)
                classes.append(ReferenceClass(ALL_REGULAR_TUBES if is_star else RIGHT_CYLINDERS, root, quotient))
    classes.sort(key=lambda cls: sp.N(cls.root, 40))
    return ReferenceLane(all_cylinders, tuple(classes))
