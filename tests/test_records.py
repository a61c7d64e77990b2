"""The result records: immutable named tuples with the constructors,
reprs, equality and validation messages they had as frozen dataclasses."""

import inspect
import re
from fractions import Fraction

import pytest

from weingarten_tubes import classify, radius
from weingarten_tubes import geometry as geo
from weingarten_tubes.cli import parse_poly
from weingarten_tubes.errors import DimensionMismatch, InvalidSpecRow, NonpositiveRadius
from weingarten_tubes.polyalg import Poly1, Poly2

TUBE_RELATION = parse_poly("4*x - 4*y + 1")  # the generator at radius 2
SQRT2 = radius.AlgebraicRadius(Poly1([-2, 0, 1]), Fraction(1), Fraction(2))
TWO = radius.AlgebraicRadius(Poly1([-2, 1]), Fraction(1), Fraction(2), Fraction(2))
TUBE = classify.TubeIdentity(radius.EUCLIDEAN, 2, False)
CIRCLE = geo.e3_circle(10.0)
SPEC = geo.TubeSpec(CIRCLE, 2.0, geo.SECTION_EUCLIDEAN, name="e3-torus")


def _lane() -> classify.LaneReport:
    return classify.solve_SQ(TUBE_RELATION, "euclidean").lanes[0]


# record -> (constructor parameters as the dataclasses had them, an instance
# whose fields are all hashable)
RECORDS = {
    radius.SpaceTag: ("space, eps=1", lambda: radius.SpaceTag("lorentzian", -1)),
    radius.AlgebraicRadius: ("defining_poly, lo, hi, exact_value=None", lambda: SQRT2),
    radius.RadiusEntry: ("radius, star", lambda: radius.RadiusEntry(TWO, True)),
    radius.RadiusSet: ("kind, entries=()", lambda: radius.RadiusSet("finite", (radius.RadiusEntry(SQRT2, False),))),
    radius.GeneratorFamily: ("a, b, c, d", lambda: radius.tube_family(radius.LORENTZIAN_NEG)),
    classify.SurfaceClass: ("kind, radius, eps, quotient=None", lambda: _lane().classes[0]),
    classify.LaneReport: ("tag, all_cylinders_any_radius, classes", _lane),
    classify.ClassificationReport: ("input_poly, lanes", lambda: classify.solve_SQ(parse_poly("x*y - 1"))),
    classify.TubeIdentity: ("tag, radius, is_right_cylinder", lambda: TUBE),
    classify.QSDescription: ("surface", lambda: classify.solve_QS(TUBE)),
    classify.LinearCase: (
        "tag, kind, radius=None, discriminant=None",
        lambda: classify.classify_linear(Fraction(-1, 8), 1, 2, "euclidean")[0],
    ),
    classify.NonlinearVerdict: (
        "kind, witness, note",
        lambda: classify.true_nonlinear_witness(parse_poly("(4*x - 4*y + 1)*x"), TUBE),
    ),
    geo.CentralCurve: (
        "space, name, jet, domain, periodic=False, eps_T=1, eps_N=1, normal0=None, binormal0=None",
        lambda: CIRCLE,
    ),
    geo.FrenetFrame: (
        "gamma, T, N, B, kappa, tau, eps_T, eps_N, eps_B",
        lambda: geo.FrenetFrame(*(tuple(v) for v in geo.frenet_frame(CIRCLE, 0.5)[:4]), 0.1, 0.0, 1, 1, 1),
    ),
    geo.TubeSpec: ("curve, radius, section, delta=1, name=''", lambda: SPEC),
    geo.CurvatureSample: ("s, t, K, H, K_cf, H_cf, xi, eps", lambda: geo.curvatures(SPEC, 0.5, 1.0)),
    geo.VerificationResult: (
        "max_residual, argmax_s, argmax_t, regular_points, total_points",
        lambda: geo.verify_relation(TUBE_RELATION, SPEC, [0.0, 1.0], [0.0, 1.0]),
    ),
}


def _signature(cls) -> str:
    empty = inspect.Parameter.empty
    params = inspect.signature(cls).parameters.values()
    return ", ".join(p.name if p.default is empty else f"{p.name}={p.default!r}" for p in params)


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    signature, make = RECORDS[cls]
    record = make()
    assert type(record) is cls and _signature(cls) == signature
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], getattr(record, cls._fields[0]))
    with pytest.raises(AttributeError):  # no __dict__ on any record
        record.extra = 1
    twin = cls(**record._asdict())
    assert twin is not record and twin == record and hash(twin) == hash(record)
    assert twin == tuple(record) and twin._replace() == record
    if cls is not radius.AlgebraicRadius:  # it prints its interval instead
        fields = ", ".join(f"{name}={value!r}" for name, value in record._asdict().items())
        assert repr(record) == f"{cls.__name__}({fields})"


def test_patched_methods_stay_on_the_exported_classes():
    # the traced benchmark run replaces these in the class __dict__
    assert "refined" in vars(radius.AlgebraicRadius)
    assert "contains" in vars(classify.QSDescription)


def test_algebraic_radius_repr():
    assert repr(TWO) == "AlgebraicRadius(2)"
    assert repr(SQRT2) == "AlgebraicRadius(r^2 - 2 on (1, 2])"


L3_TIMELIKE = geo.l3_timelike_helix(1.0, 2.0)

VALIDATORS = [
    (lambda: radius.SpaceTag("spherical"), ValueError, "unknown space 'spherical'"),
    (lambda: radius.SpaceTag("lorentzian", 0), ValueError, "eps must be -1 or +1, got 0"),
    (lambda: radius.SpaceTag("euclidean", -1), ValueError, "eps = -1 is only meaningful in the Lorentzian space"),
    (lambda: radius.AlgebraicRadius(Poly1([-2, 0, 1]), Fraction(2), Fraction(1)), ValueError, "isolating interval must satisfy 0 <= lo < hi"),
    (lambda: radius.AlgebraicRadius(Poly1([-2, 0, 1]), Fraction(-1), Fraction(2)), ValueError, "isolating interval must satisfy 0 <= lo < hi"),
    (lambda: radius.AlgebraicRadius(Poly1([-2, 1]), Fraction(0), Fraction(3), Fraction(1)), ValueError, "exact_value is not a root of the defining polynomial"),
    (lambda: radius.AlgebraicRadius(Poly1([-2, 1]), Fraction(0), Fraction(1), Fraction(2)), ValueError, "exact_value outside the isolating interval"),
    (lambda: radius.RadiusSet("some"), ValueError, "bad RadiusSet kind 'some'"),
    # a library caller can name a space the CLI's --space choices refuse
    (lambda: classify.expand_spaces("spherical"), ValueError, "unknown space 'spherical'"),
    (lambda: classify.expand_spaces(["euclidean", "spherical"]), ValueError, "unknown space 'spherical'"),
    (lambda: Poly2.variable("z"), ValueError, "unknown variable 'z'"),
    (lambda: Poly2.variable("x") ** -1, ValueError, "exponent must be nonnegative"),
    (lambda: classify.TubeIdentity(radius.EUCLIDEAN, 0, False), NonpositiveRadius, "tube radius must be a positive rational, got 0"),
    (lambda: classify.TubeIdentity(radius.EUCLIDEAN, 0.5, False), NonpositiveRadius, "tube radius must be a positive rational, got 0.5"),
    (lambda: geo.TubeSpec(CIRCLE, 0.0, geo.SECTION_EUCLIDEAN), NonpositiveRadius, "tube radius must be positive, got 0.0"),
    (lambda: geo.TubeSpec(CIRCLE, 1.0, geo.SECTION_EUCLIDEAN, 0), ValueError, "delta must be -1 or +1"),
    (lambda: geo.lorentz_cross([1.0, 0.0], [0.0, 1.0]), DimensionMismatch, "need 3- or 4-dimensional vectors"),
    (lambda: geo.lorentz_cross(), DimensionMismatch, "need 3- or 4-dimensional vectors"),
    # the guards of the curve builders that take parameters (`verify` reports them as exit 2)
    (lambda: geo.e3_circle(0.0), ValueError, "circle radius must be positive"),
    (lambda: geo.e3_helix(0.0, 1.0), ValueError, "helix needs a > 0"),
    (lambda: geo.l3_spacelike_helix_spacelike_normal(1.0, -1.0), ValueError, "spacelike helix with spacelike normal needs a > |b|"),
    (lambda: geo.l3_spacelike_helix_timelike_normal(0.0, 1.0), ValueError, "helix needs a > 0"),
    (lambda: geo.l3_timelike_helix(2.0, 1.0), ValueError, "timelike helix needs b > a > 0"),
    (lambda: geo.h3_circle(-1.0), ValueError, "needs r0 > 0"),
    # a delta equal to +-1 that is not an int, as for eps (check_epsilon)
    *(
        pytest.param(
            lambda v=v: geo.TubeSpec(CIRCLE, 1.0, geo.SECTION_EUCLIDEAN, v), ValueError, "delta must be -1 or +1", id=f"delta={v!r}"
        )
        for v in (True, 1.0, -1.0, Fraction(1))
    ),
    (lambda: geo.TubeSpec(CIRCLE, 1.0, geo.SECTION_HYPERBOLIC), InvalidSpecRow, "Euclidean tubes use 'euclidean-circle'"),
    (lambda: geo.TubeSpec(geo.h3_geodesic(), 1.0, geo.SECTION_EUCLIDEAN), InvalidSpecRow, "hyperbolic tubes use 'hyperbolic-circle'"),
    (lambda: geo.TubeSpec(L3_TIMELIKE, 1.0, geo.SECTION_EUCLIDEAN), InvalidSpecRow, "Lorentzian tubes use circle or hyperbola sections, got 'euclidean-circle'"),
    (
        lambda: geo.TubeSpec(L3_TIMELIKE, 1.0, geo.SECTION_L_HYPERBOLA),
        InvalidSpecRow,
        "no tube with curve causality -1, normal causality 1 and section 'lorentz-hyperbola' exists",
    ),
    # no sign change: no root in (0, 1], two in (0, 3]; approx() and
    # refined() would otherwise report a root that is not there
    (lambda: radius.AlgebraicRadius(Poly1([-2, 0, 1]), Fraction(0), Fraction(1)), ValueError, "defining polynomial must have opposite signs at lo and hi"),
    (lambda: radius.AlgebraicRadius(Poly1([2, -3, 1]), Fraction(0), Fraction(3)), ValueError, "defining polynomial must have opposite signs at lo and hi"),
    # a zero or constant polynomial has no root to isolate
    (lambda: radius.AlgebraicRadius(Poly1(), Fraction(0), Fraction(1), Fraction(1)), ValueError, "defining polynomial must have degree >= 1"),
    (lambda: radius.AlgebraicRadius(Poly1([3]), Fraction(0), Fraction(2)), ValueError, "defining polynomial must have degree >= 1"),
]


@pytest.mark.parametrize("build, error, message", VALIDATORS)
def test_validator_message(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


# one bad field per validated record, set through _replace
REPLACED = [
    (radius.SpaceTag("lorentzian", -1), {"space": "euclidean"}, ValueError, "eps = -1 is only meaningful"),
    (SQRT2, {"lo": Fraction(3)}, ValueError, "isolating interval must satisfy"),
    (radius.RadiusSet("all-positive"), {"kind": "none"}, ValueError, "bad RadiusSet kind"),
    (TUBE, {"radius": -2}, NonpositiveRadius, "tube radius must be a positive rational"),
    (SPEC, {"section": geo.SECTION_L_CIRCLE}, InvalidSpecRow, "Euclidean tubes use"),
]


@pytest.mark.parametrize("record, changes, error, message", REPLACED)
def test_replace_validates(record, changes, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        record._replace(**changes)


def test_tube_identity_keeps_a_fraction_radius():
    assert type(TUBE.radius) is Fraction and TUBE.radius == 2
    replaced = TUBE._replace(radius=3)
    assert type(replaced.radius) is Fraction and replaced.rational_radius == 3
    assert classify.TubeIdentity(radius.EUCLIDEAN, SQRT2, True).radius is SQRT2
