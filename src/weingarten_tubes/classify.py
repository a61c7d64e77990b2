"""Classification drivers.

Two directions: given a polynomial relation Q, find every tube surface
whose Gaussian and mean curvatures satisfy Q(K, H) = 0 (``solve_SQ``);
given a fixed tube, describe every polynomial relation its curvatures
satisfy (``solve_QS``).  On top of those sit the linear relation (read
off one ``solve_SQ``), constant second-fundamental-form-length and
principal-curvature corollaries, and the true-nonlinear-relation verdict.
The two directions are dual: a tube of radius r lies in S(Q) exactly when
Q lies in Q(S), and each is answered by one call.  Q(S) membership is
``QSDescription.contains`` alone, one ``polyalg._line_horner`` pass on the
lane's cached integer line, and its generator is ``tube_generator``.

Every report comes from one lane driver, ``_classify``, over (lane tag,
generator family) rows: ``solve_SQ`` passes the K-H family of each tag,
``solve_SQ_principal`` the one row (Euclidean, principal family), and
the two corollaries are one ``solve_SQ`` each.

Conventions: hyperbolic radii appear in the substituted variable
rho = sinh(r) everywhere in this module, and the Lorentzian space always
contributes two lanes, one per signal eps in {-1, +1}.  The Euclidean
and hyperbolic lanes share the eps = +1 Lorentzian lane's family row, so
the driver decides that row once and builds all three lane reports from
the one decision.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Union

from .errors import (
    DegenerateRelation,
    LinearInput,
    NonpositiveLength,
    NonpositiveRadius,
    NotMember,
    ZeroPolynomial,
)
from .polyalg import Poly2, _line_horner, tube_generator
from .radius import (
    EUCLIDEAN,
    HYPERBOLIC,  # the lane tags are importable from this module too
    LANES,
    LORENTZIAN_NEG,
    LORENTZIAN_POS,
    PRINCIPAL,
    SPACES,
    AlgebraicRadius,
    GeneratorFamily,
    SpaceTag,
    decide_radii,
    tube_family,
    vanishes_at,
)

RIGHT_CYLINDERS = "right-cylinders"
ALL_REGULAR_TUBES = "all-regular-tubes"


def expand_spaces(spaces: Union[str, Iterable[str]] = "all") -> tuple[SpaceTag, ...]:
    """Normalize a space request into an ordered tuple of lane tags.
    The Lorentzian space expands into both signal lanes."""
    names = (SPACES if spaces == "all" else (spaces,)) if isinstance(spaces, str) else tuple(spaces)
    for name in names:
        if name not in SPACES:
            raise ValueError(f"unknown space {name!r}")
    return tuple(tag for tag in LANES if tag.space in names)


class SurfaceClass(NamedTuple):
    """One family in the answer: the right cylinders of a radius, or all
    regular tubes of that radius.  A quotient witness (the cofactor of
    the tube generator) is attached exactly when the family is
    all-regular-tubes and the radius is rational."""

    kind: str
    radius: AlgebraicRadius
    eps: int
    quotient: Optional[Poly2] = None


class LaneReport(NamedTuple):
    tag: SpaceTag
    all_cylinders_any_radius: bool
    classes: tuple[SurfaceClass, ...]

    @property
    def is_empty(self) -> bool:
        return not self.all_cylinders_any_radius and not self.classes


class ClassificationReport(NamedTuple):
    input_poly: Poly2
    lanes: tuple[LaneReport, ...]

    @property
    def is_empty(self) -> bool:
        return all(lane.is_empty for lane in self.lanes)


def _classify(q: Poly2, rows: Iterable[tuple[SpaceTag, GeneratorFamily]]) -> ClassificationReport:
    """The report of Q with one lane per (tag, family) row.

    Per lane: radii outside the star set contribute right cylinders
    only; star radii contribute arbitrary regular tubes (with an exact
    quotient witness at rational radii); a vanishing axis restriction
    means right cylinders of every radius (plus any star radii found by
    common vanishing of the cleared coefficient polynomials).

    Each distinct family among the rows is decided once per call, keyed
    by the family value with all its fields; lanes that share a family
    differ only in their tag and eps.
    """
    if q.is_zero:
        raise ZeroPolynomial("the zero relation holds on every surface")
    decided: dict[GeneratorFamily, tuple] = {}
    lanes = []
    for tag, family in rows:
        if family not in decided:
            decided[family] = decide_radii(q, family)
        all_positive, decisions = decided[family]
        classes = tuple(
            SurfaceClass(ALL_REGULAR_TUBES if entry.star else RIGHT_CYLINDERS, entry.radius, tag.eps, quotient)
            for entry, quotient in decisions
        )
        lanes.append(LaneReport(tag, all_positive, classes))
    return ClassificationReport(q, tuple(lanes))


def solve_SQ(q: Poly2, spaces: Union[str, Iterable[str]] = "all") -> ClassificationReport:
    """All regular tube surfaces whose curvatures satisfy Q(K, H) = 0:
    one lane per space tag, each with the K-H family of its signal."""
    return _classify(q, [(tag, tube_family(tag)) for tag in expand_spaces(spaces)])


# ---------------------------------------------------------------------------
# Q(S): relations satisfied by one fixed tube


class _TubeIdentity(NamedTuple):
    tag: SpaceTag
    radius: Union[Fraction, AlgebraicRadius]
    is_right_cylinder: bool


class TubeIdentity(_TubeIdentity):
    """A fixed tube surface: ambient lane, radius (rho = sinh r in the
    hyperbolic space), and whether the central curve is a geodesic.  An
    int radius is stored as a Fraction."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, tag: SpaceTag, radius: Union[Fraction, int, AlgebraicRadius], is_right_cylinder: bool):
        # isolated roots are positive by construction
        if not isinstance(radius, AlgebraicRadius):
            if not isinstance(radius, (int, Fraction)) or isinstance(radius, bool) or radius <= 0:
                raise NonpositiveRadius(f"tube radius must be a positive rational, got {radius!r}")
            radius = Fraction(radius)
        return super().__new__(cls, tag, radius, is_right_cylinder)

    @property
    def rational_radius(self) -> Optional[Fraction]:
        """The radius when it is rational, whether stored as a Fraction
        or as an AlgebraicRadius with an exact value."""
        return self.radius if isinstance(self.radius, Fraction) else self.radius.exact_value


class QSDescription(NamedTuple):
    """The set of polynomial relations satisfied by a fixed tube; it is
    always an ideal.

    For any regular tube that is not a right cylinder it is the principal
    ideal of the tube relation; ``generator`` returns the generator
    whenever the radius is rational.  For a right cylinder it is the
    kernel of evaluation at the cylinder's curvature point
    (0, eps/(2r)): a maximal ideal, generated by x and 2*r*y - eps when r
    is rational, but not a principal one.  ``contains`` decides
    membership in every case.
    """

    surface: TubeIdentity

    @property
    def is_principal(self) -> bool:
        return not self.surface.is_right_cylinder

    def generator(self) -> Optional[Poly2]:
        r = self.surface.rational_radius
        if self.surface.is_right_cylinder or r is None:
            return None
        return tube_generator(r, self.surface.tag.eps)

    def contains(self, q: Poly2) -> bool:
        """At a rational r, the image R(x, r) of Q packed at x = 2**k, step 0
        of ``polyalg._line_horner`` on the lane's cached integer line, is
        zero (its lowest base-2**k digit, the constant term R(0, r), for a
        right cylinder); at an irrational r, the star poly (the radius
        poly) vanishes there.  A right cylinder runs the pass on all of Q
        too, not on its x**0 terms alone: a division of the same Q by the
        same tube that follows then reuses it."""
        if q.is_zero:
            return True  # the zero polynomial vanishes on every surface
        family = tube_family(self.surface.tag)
        cylinder = self.surface.is_right_cylinder
        r = self.surface.rational_radius
        if r is None:
            return vanishes_at(family.radius_poly(q) if cylinder else family.star_poly(q), self.surface.radius)
        a, b, c, _ = family._at(r)
        steps, k = _line_horner(q._cleared()[1], c, a, b)
        return not (steps[0] & ((1 << k) - 1) if cylinder else steps[0])


def solve_QS(surface: TubeIdentity) -> QSDescription:
    """Describe every polynomial relation the given tube satisfies."""
    return QSDescription(surface)


# ---------------------------------------------------------------------------
# corollaries


class LinearCase(NamedTuple):
    tag: SpaceTag
    kind: str  # "cylinders-any-radius" | "all-tubes" | "right-cylinders" | "empty"
    radius: Optional[Fraction] = None  # rho for the hyperbolic lane
    discriminant: Optional[Fraction] = None


def classify_linear(
    a: Fraction, b: Fraction, c: Fraction, spaces: Union[str, Iterable[str]] = "all"
) -> tuple[LinearCase, ...]:
    """Case analysis for the linear relation a*x + b*y - c = 0, one case
    per lane of its ``solve_SQ`` report: "cylinders-any-radius" when the
    lane's axis restriction vanishes, "empty" with no class, else
    "all-tubes" or "right-cylinders" from its one class, with that rational
    radius (rho in the hyperbolic lane) and the discriminant eps*b**2 + 4ac.
    The paper's closed-form case table is a test oracle
    (tests/paper_formulas.py)."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a == 0 and b == 0:
        raise DegenerateRelation("need (a, b) != (0, 0)")
    q = Poly2([((1, 0), a), ((0, 1), b), ((0, 0), -c)])
    cases = []
    for lane in solve_SQ(q, spaces).lanes:
        if lane.all_cylinders_any_radius:
            cases.append(LinearCase(lane.tag, "cylinders-any-radius"))
        elif not lane.classes:
            cases.append(LinearCase(lane.tag, "empty"))
        else:
            cls = lane.classes[0]
            kind = "all-tubes" if cls.kind == ALL_REGULAR_TUBES else "right-cylinders"
            delta = lane.tag.eps * b * b + 4 * a * c
            cases.append(LinearCase(lane.tag, kind, cls.radius.exact_value, delta))
    return tuple(cases)


def classify_second_fundamental(
    c: Fraction, spaces: Union[str, Iterable[str]] = "all"
) -> ClassificationReport:
    """Tubes whose second fundamental form has constant length c > 0,
    i.e. the relation -2x + 4y**2 - c**2 = 0, by one ``solve_SQ``.  The
    paper's answer, right cylinders only, of radius 1/c in the Euclidean
    and Lorentzian lanes (both signals) and rho = 1/c in the hyperbolic
    lane, is a test oracle (tests/paper_formulas.py)."""
    c = Fraction(c)
    if c <= 0:
        raise NonpositiveLength("second-fundamental-form length must be positive")
    return solve_SQ(Poly2([((1, 0), -2), ((0, 2), 4), ((0, 0), -c * c)]), spaces)


# ---------------------------------------------------------------------------
# principal-curvature variant (Euclidean)


def solve_SQ_principal(q: Poly2) -> ClassificationReport:
    """Euclidean tubes whose principal curvatures satisfy Q(k1, k2) = 0:
    right cylinders at radii with Q(0, 1/r) = 0, all regular tubes where
    additionally Q(x, 1/r) vanishes identically in x: the one lane
    (Euclidean, principal family)."""
    return _classify(q, [(EUCLIDEAN, PRINCIPAL)])


# ---------------------------------------------------------------------------
# true nonlinear relations


class NonlinearVerdict(NamedTuple):
    kind: str  # "not-true" | "cylinder-case"
    witness: Optional[Poly2]
    note: str


def true_nonlinear_witness(q: Poly2, surface: TubeIdentity) -> NonlinearVerdict:
    """Decide whether a nonlinear relation satisfied by the tube could be
    a true nonlinear relation (one with no nontrivial divisor that the
    tube also satisfies).

    For a non-cylinder the answer is always no: the degree-1 tube
    relation divides Q and is returned as the witness.  For a right
    cylinder true nonlinear relations are possible; deciding one would
    require bivariate factorization, so the verdict only reports the
    open cylinder case.
    """
    if q.degree <= 1:
        raise LinearInput("true-nonlinear analysis needs total degree >= 2")
    description = solve_QS(surface)
    if not description.contains(q):
        raise NotMember("polynomial does not vanish on the given tube")
    if surface.is_right_cylinder:
        return NonlinearVerdict(
            "cylinder-case",
            None,
            "right cylinder: a true nonlinear relation is possible; deciding it "
            "requires factoring the candidate, which is out of scope",
        )
    return NonlinearVerdict(
        "not-true",
        description.generator(),
        "every relation satisfied by a non-cylinder tube is divisible by the "
        "degree-1 tube relation",
    )
