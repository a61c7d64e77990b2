"""Whole ``classify`` reports against the sympy reference S(Q) of
``reference_sq``, which shares no code with the library: every lane's
all-cylinders flag, class names and radius count, each exact root inside
its printed interval (or equal to its printed exact value), the star
flags, and at each rational star the printed quotient against
``sp.div(Q, G_r)``.  The inputs are every golden and pinned ``classify``
input and a hypothesis sample of degree <= 6: planted products of tube
generators at rational radii and of generator norms at quadratic
irrational radii rho = (p + sqrt(d))/s, times a random factor of degree
<= 2.  sympy is a test-only dependency; the module is skipped when it is
not installed."""

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

sp = pytest.importorskip("sympy")

import reference_sq  # noqa: E402  (needs sympy)
from paper_formulas import LANE_ROWS, PRINCIPAL_ROW  # noqa: E402
from weingarten_tubes.cli import main  # noqa: E402

X, Y = reference_sq.X, reference_sq.Y
GOLDEN = Path(__file__).parent / "golden"
CLASSIFY_GOLDENS = sorted(
    path for path in (*GOLDEN.glob("*.json"), *GOLDEN.glob("pinned/*.json")) if path.name.startswith("classify_")
)


def classify_report(q, principal: bool) -> dict:
    """The JSON of ``classify`` on Q, over every lane or in principal mode."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["classify", poly_text(q, principal), *(["--principal"] if principal else ["--space", "all"])])
    assert code == 0, err.getvalue()
    return json.loads(out.getvalue())


def poly_text(q, principal: bool) -> str:
    """Q in the CLI's syntax, one term per monomial, in k1 and k2 in
    principal mode."""
    x, y = ("k1", "k2") if principal else ("x", "y")
    return " + ".join(f"({c})*{x}^{i}*{y}^{j}" for (i, j), c in sp.Poly(q, X, Y).terms())


def assert_matches_reference(report: dict, q, principal: bool) -> None:
    rows = [PRINCIPAL_ROW] if principal else LANE_ROWS
    lanes = report["result"]["lanes"]
    assert [(lane["space"], lane["eps"]) for lane in lanes] == [(space, eps) for space, eps, _ in rows]
    for lane, (space, _, row) in zip(lanes, rows):
        want = reference_sq.lane(q, row)
        context = (space, lane["eps"], str(q))
        assert lane["all_cylinders_any_radius"] == want.all_cylinders_any_radius, context
        assert len(lane["classes"]) == len(want.classes), context
        for got, ref in zip(lane["classes"], want.classes):
            assert got["class"] == ref.kind, context
            body = got["radius"]["sinh_radius"] if space == "hyperbolic" else got["radius"]
            if ref.root.is_Rational:
                assert sp.Rational(body["exact"]) == ref.root, context
            else:
                assert "exact" not in body, context
                lo, hi = (sp.Rational(v) for v in body["interval"])
                assert bool(lo < ref.root) and bool(ref.root <= hi), context
            if ref.quotient is None:
                assert "quotient" not in got, context
            else:
                assert sp.expand(reference_sq.parse(got["quotient"]) - ref.quotient) == 0, context


@pytest.mark.parametrize("path", CLASSIFY_GOLDENS, ids=lambda path: path.stem)
def test_golden_inputs_match_the_reference(path):
    inputs = json.loads(path.read_text())["inputs"]
    q = reference_sq.parse(inputs["poly"])
    assert_matches_reference(classify_report(q, inputs["principal"]), q, inputs["principal"])


def rational(v: Fraction):
    return sp.Rational(v.numerator, v.denominator)


def planted(rational_radii, quadratic_radii, factor):
    """The paper's relation at each rational radius and the norm of the
    relation at each quadratic irrational radius, with its signal, times
    the factor, expanded."""
    q = factor
    for r, eps in rational_radii:
        q *= rational(r) ** 2 * X - 2 * rational(r) * Y + eps
    for (p, d, s), eps in quadratic_radii:
        rho, conjugate = ((p + sign * sp.sqrt(d)) / s for sign in (1, -1))
        q *= sp.expand((rho**2 * X - 2 * rho * Y + eps) * (conjugate**2 * X - 2 * conjugate * Y + eps))
    return sp.expand(q)


small = st.fractions(min_value=-5, max_value=5, max_denominator=4)
radii = st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=4)
# rho = (p + sqrt(d))/s > 0, d not a square
quadratics = st.tuples(st.integers(-2, 4), st.sampled_from([2, 3, 5, 6, 7]), st.integers(1, 3)).filter(
    lambda t: t[0] + t[1] ** 0.5 > 0
)
signals = st.sampled_from([-1, 1])
# 1, x, y, x^2, x*y, y^2
MONOMIALS = (1, X, Y, X**2, X * Y, Y**2)


@settings(max_examples=25, deadline=None)
# rho = 1 + sqrt(2) and its conjugate, of which only rho is positive
@example(rationals=[(Fraction(3, 2), 1)], quadratics=[((1, 2, 1), -1)], factor=[0, 0, 0, 0, 1, 0], principal=False)
@given(
    rationals=st.lists(st.tuples(radii, signals), max_size=2),
    quadratics=st.lists(st.tuples(quadratics, signals), max_size=1),
    factor=st.lists(small, min_size=6, max_size=6),
    principal=st.booleans(),
)
def test_planted_products_match_the_reference(rationals, quadratics, factor, principal):
    q = planted(rationals, quadratics, sum(rational(c) * m for c, m in zip(factor, MONOMIALS)))
    if q != 0:
        assert_matches_reference(classify_report(q, principal), q, principal)
