"""Differential tests of exact root isolation, of the integer gcd and
square-free machinery and of the parser's expansion against sympy, which
shares no code with the library.  sympy is a test-only dependency; the
module is skipped when it is not installed."""

import json
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import assume, given, settings

from expression_trees import expression_degree, expression_text, expression_trees
from weingarten_tubes.cli import MAX_DEGREE, main, parse_poly
from weingarten_tubes.polyalg import Poly1
from weingarten_tubes.radius import _common_divisor, _rational_roots, _squarefree, isolate_positive_roots

sp = pytest.importorskip("sympy")
R, Y = sp.symbols("r y")


def rational(v: Fraction):
    return sp.Rational(v.numerator, v.denominator)


def positive_real_roots(poly) -> list:
    """Distinct positive real roots of a sympy Poly in r, ascending, as
    exact numbers (Rational or CRootOf)."""
    roots = poly.real_roots(radicals=False)
    return list(dict.fromkeys(root for root in roots if bool(root > 0)))


def assert_same_root(lo: Fraction, hi: Fraction, exact, root) -> None:
    """One isolated radius, given by its cell (lo, hi] and exact value or
    None, against the sympy root of the same rank."""
    if root.is_Rational:
        assert exact == Fraction(int(root.p), int(root.q))
    else:
        assert exact is None
        assert bool(rational(lo) < root) and bool(root <= rational(hi))


def random_poly(rng: random.Random) -> list[int]:
    """Product of one to three integer factors of degree 1 to 3: rational
    roots of either sign, repeated roots and irrational roots all occur."""
    coeffs = [rng.choice([-1, 1]) * rng.randint(1, 9)]
    for _ in range(rng.randint(1, 3)):
        factor = [rng.randint(-20, 20) for _ in range(rng.randint(1, 3))] + [rng.randint(1, 12)]
        out = [0] * (len(coeffs) + len(factor) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        coeffs = out
    return coeffs


@pytest.mark.parametrize("seed", range(40))
def test_isolation_matches_sympy_real_roots(seed):
    coeffs = random_poly(random.Random(seed))
    found = isolate_positive_roots(Poly1(coeffs))
    roots = positive_real_roots(sp.Poly(list(reversed(coeffs)), R))
    assert len(found) == len(roots)
    for rad, root in zip(found, roots):
        assert_same_root(rad.lo, rad.hi, rad.exact_value, root)


def times_linear(coeffs: list[int], q: int, p: int) -> list[int]:
    """coeffs times q*r - p."""
    return [q * low - p * c for c, low in zip(coeffs + [0], [0] + coeffs)]


@pytest.mark.parametrize("seed", range(40))
def test_rational_roots_match_sympy_ground_roots(seed):
    # the random products above, times factors q*r - p with 15-digit q
    # and p in every other seed
    rng = random.Random(f"ground:{seed}")
    coeffs = random_poly(rng)
    for _ in range(rng.randint(1, 3) if seed % 2 else 0):
        coeffs = times_linear(coeffs, rng.randint(1, 10**15), rng.randint(-(10**15), 10**15))
    want = sp.Poly(list(reversed(coeffs)), R, domain="QQ").ground_roots()
    assert _rational_roots(_squarefree(coeffs)) == sorted(Fraction(int(v.p), int(v.q)) for v in want)


def primitive_coeffs(poly) -> list[Fraction]:
    """Low-to-high coefficients of the primitive, positive-lead integer
    multiple of a sympy Poly, the normal form of _common_divisor and
    _squarefree."""
    _, prim = poly.primitive()
    if prim.LC() < 0:
        prim = -prim
    return [Fraction(int(c)) for c in reversed(prim.all_coeffs())]


def scaled(coeffs: list[int], rng: random.Random) -> list[int]:
    # an integer multiple of either sign, so the content and the sign
    # are normalised on the way out
    scale = rng.choice([-3, 2, 5]) * rng.randint(1, 7)
    return [c * scale for c in coeffs]


@pytest.mark.parametrize("seed", range(40))
def test_gcd_and_squarefree_match_sympy(seed):
    rng = random.Random(f"gcd:{seed}")
    common = random_poly(rng)
    polys = []
    for _ in range(rng.randint(2, 3)):
        other = random_poly(rng)
        product = sp.Poly(list(reversed(common)), R) * sp.Poly(list(reversed(other)), R)
        polys.append([int(c) for c in reversed(product.all_coeffs())])
    want = sp.Poly(list(reversed(polys[0])), R)
    for coeffs in polys[1:]:
        want = want.gcd(sp.Poly(list(reversed(coeffs)), R))
    assert reduce(_common_divisor, (scaled(c, rng) for c in polys), []) == primitive_coeffs(want)
    for coeffs in polys:
        want = sp.Poly(list(reversed(coeffs)), R).sqf_part()
        assert _squarefree(scaled(coeffs, rng)) == primitive_coeffs(want)


P40 = 1234567890123456789012345678901234567891
Q40 = 9876543210987654321098765432109876543211


def test_forty_digit_classify_matches_sympy(capsys):
    # axis restriction (P y - 7)(y^2 - 3y - Q) with 40-digit P and Q: a
    # rational radius with a 40-digit numerator and irrational ones
    code = main(["classify", f"({P40}*y - 7)*(y^2 - 3*y - {Q40}) + x", "--space", "all"])
    out, err = capsys.readouterr()
    assert code == 0, err
    axis = (P40 * Y - 7) * (Y**2 - 3 * Y - Q40)
    lanes = json.loads(out)["result"]["lanes"]
    assert len(lanes) == 4
    exact_count = 0
    for lane in lanes:
        # the lane's radii r solve Q(0, eps/(2r)) = 0 (rho = sinh r in H^3)
        numer = sp.fraction(sp.together(axis.subs(Y, lane["eps"] / (2 * R))))[0]
        roots = positive_real_roots(sp.Poly(numer, R))
        bodies = [
            cls["radius"]["sinh_radius"] if lane["space"] == "hyperbolic" else cls["radius"]
            for cls in lane["classes"]
        ]
        assert len(bodies) == len(roots) > 0
        for body, root in zip(bodies, roots):
            if "exact" in body:
                assert_same_root(None, None, Fraction(body["exact"]), root)
                exact_count += 1
            else:
                lo, hi = (Fraction(v) for v in body["interval"])
                assert_same_root(lo, hi, None, root)
    assert exact_count == 3  # r = P/14 in every lane with eps = +1


@settings(max_examples=60, deadline=None)
@given(tree=expression_trees)
def test_parse_matches_sympy_expand(tree):
    """The strings of the parser's Fraction oracle, expanded by sympy."""
    assume(expression_degree(tree) <= MAX_DEGREE)
    text = expression_text(tree)
    x, y = sp.symbols("x y")
    expanded = sp.Poly(sp.expand(sp.sympify(text.replace("^", "**"), locals={"x": x, "y": y})), x, y)
    want = {e: Fraction(int(c.p), int(c.q)) for e, c in expanded.terms() if c != 0}
    assert dict(parse_poly(text).terms()) == want
