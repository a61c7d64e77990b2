"""The tube relation of every E^3 and L^3 row of ``geometry._SECTION_ROWS``,
derived in sympy from a tube written out by hand.

For each row a constant-curvature central curve with rational parameters
(a helix of the row's causal type) and its Frenet frame are written as
formulas, and the tube is psi = gamma + r*(mu*N + eta*B) with the row's
normal section (mu, eta) and the normal nu = -(mu*N + eta*B).  K and H come
from the first and second fundamental forms with the normal's causal sign
eps = <nu, nu>: K = eps*(e*g - f**2)/(E*G - F**2) and
H = eps*(e*G - 2*f*F + g*E)/(2*(E*G - F**2)).  After differentiation every
cos, sin, cosh and sinh is replaced by its rational parametrization, so
each identity below is a ``cancel`` to zero of a rational function in the
parameters and r, with r kept symbolic.  Per row and section branch
delta the module asserts:

* the frame: <T, T> = eps_T, <N, N> = eps_N, <B, B> = -eps_T*eps_N in L^3
  (1 in E^3), pairwise orthogonal, and T' = kappa*N;
* the normal: orthogonal to psi_s and psi_t, with <nu, nu> = eps, +1 on a
  circle section and -1 on a hyperbola section;
* the family row ``polyalg._tube_row(eps)``, a(r)*K + b(r)*H + c(r), is 0;
* ``radius.PRINCIPAL``: its root y = 1/r is an eigenvalue of I**-1 * II,
  det(II - I/r) = 0;
* ``geometry.curvatures`` of the same built-in tube at a few points gives
  K and H, and its closed forms K_cf and H_cf, equal to the derived ones.

The derivation reads none of the geometry module's frames or closed
forms; they are only compared with what it derives.  The H^3
row is not derived: its normal is not tangent to H^3 (``geometry`` module
docstring), and its oracle comes with that fix.  sympy is a test-only
dependency; the module is skipped when it is not installed."""

import math

import pytest

sp = pytest.importorskip("sympy")

from weingarten_tubes import geometry as geo  # noqa: E402
from weingarten_tubes.polyalg import _tube_row  # noqa: E402
from weingarten_tubes.radius import PRINCIPAL  # noqa: E402

S, T, R = sp.symbols("s t r")
U, V = sp.symbols("u v")  # the rational parameters of the s-angle and of t


def helix(a: int, b: int, c: int, euclidean: bool):
    """(a cos(s/c), a sin(s/c), b s/c) and its frame: the E^3 helix, or
    the L^3 helix with spacelike normal (spacelike when a > |b|, c**2 =
    a**2 - b**2; timelike when b > a, c**2 = b**2 - a**2).  B = T x N, whose
    last component flips in L^3 (the formal determinant's basis row ends in
    -e3)."""
    th = S / c
    gamma = sp.Matrix([a * sp.cos(th), a * sp.sin(th), b * th])
    normal = sp.Matrix([-sp.cos(th), -sp.sin(th), 0])
    binormal = sp.Matrix([b * sp.sin(th) / c, -b * sp.cos(th) / c, sp.Rational(a, c) * (1 if euclidean else -1)])
    angle = {sp.cos(th): (1 - U**2) / (1 + U**2), sp.sin(th): 2 * U / (1 + U**2)}
    return gamma, normal, binormal, sp.Rational(a, c**2), angle, lambda s: math.tan(s / (2 * c))


def timelike_normal_helix(a: int, b: int, c: int):
    """(a sinh(s/c), b s/c, a cosh(s/c)) in L^3, c**2 = a**2 + b**2: a
    spacelike helix with timelike normal N = (sinh, 0, cosh), B = T x N."""
    th = S / c
    gamma = sp.Matrix([a * sp.sinh(th), b * th, a * sp.cosh(th)])
    normal = sp.Matrix([sp.sinh(th), 0, sp.cosh(th)])
    binormal = sp.Matrix([b * sp.cosh(th) / c, -sp.Rational(a, c), b * sp.sinh(th) / c])
    angle = {sp.cosh(th): (U**2 + 1) / (2 * U), sp.sinh(th): (U**2 - 1) / (2 * U)}
    return gamma, normal, binormal, sp.Rational(a, c**2), angle, lambda s: math.exp(s / c)


CIRCLE = {sp.cos(T): (1 - V**2) / (1 + V**2), sp.sin(T): 2 * V / (1 + V**2)}
HYPERBOLA = {sp.cosh(T): (V**2 + 1) / (2 * V), sp.sinh(T): (V**2 - 1) / (2 * V)}

# each hand-written curve with its built-in tube
E3_HELIX = (helix(3, 4, 5, True), geo.e3_helix(3, 4))
SS_HELIX = (helix(5, 3, 4, False), geo.l3_spacelike_helix_spacelike_normal(5, 3))
ST_HELIX = (timelike_normal_helix(3, 4, 5), geo.l3_spacelike_helix_timelike_normal(3, 4))
TL_HELIX = (helix(3, 5, 4, False), geo.l3_timelike_helix(3, 5))
# (space, eps_T, eps_N, section) -> (hand-written curve, its built-in tube,
# (mu, eta) of the section on branch delta, eps = <nu, nu>)
ROWS = {
    ("euclidean", 1, 1, geo.SECTION_EUCLIDEAN): (*E3_HELIX, lambda d: (sp.cos(T), sp.sin(T)), 1),
    ("lorentzian", 1, 1, geo.SECTION_L_CIRCLE): (*SS_HELIX, lambda d: (d * sp.cosh(T), sp.sinh(T)), 1),
    ("lorentzian", 1, -1, geo.SECTION_L_CIRCLE): (*ST_HELIX, lambda d: (sp.sinh(T), d * sp.cosh(T)), 1),
    ("lorentzian", -1, 1, geo.SECTION_L_CIRCLE): (*TL_HELIX, lambda d: (d * sp.cos(T), sp.sin(T)), 1),
    ("lorentzian", 1, 1, geo.SECTION_L_HYPERBOLA): (*SS_HELIX, lambda d: (sp.sinh(T), d * sp.cosh(T)), -1),
    ("lorentzian", 1, -1, geo.SECTION_L_HYPERBOLA): (*ST_HELIX, lambda d: (d * sp.cosh(T), sp.sinh(T)), -1),
}


def test_rows_are_the_e3_and_l3_rows_of_the_geometry_table():
    assert set(ROWS) == {key for key in geo._SECTION_ROWS if key[0] != "hyperbolic"}


def inner(space: str, p, q):
    return sp.cancel(p[0] * q[0] + p[1] * q[1] + (1 if space == "euclidean" else -1) * p[2] * q[2])


def at_r(coefficients) -> sp.Expr:
    """A family field, integer coefficients in r from the constant term up."""
    return sum(v * R**k for k, v in enumerate(coefficients))


@pytest.mark.parametrize("key", list(ROWS), ids=lambda key: "-".join(map(str, key)))
def test_derived_curvatures_satisfy_the_family_rows(key):
    space, eps_t, eps_n, section = key
    (gamma, normal, binormal, kappa, angle, u_of_s), curve, mu_eta, eps = ROWS[key]

    def rational(m):  # every angle function by its rational parametrization
        return m.applyfunc(lambda e: sp.cancel(e.subs(angle).subs(CIRCLE).subs(HYPERBOLA)))

    tangent = gamma.diff(S)
    t_, n_, b_ = (rational(v) for v in (tangent, normal, binormal))
    eps_b = -eps_t * eps_n if space == "lorentzian" else 1
    assert [inner(space, p, q) for p, q in ((t_, t_), (n_, n_), (b_, b_), (t_, n_), (t_, b_), (n_, b_))] == [
        eps_t, eps_n, eps_b, 0, 0, 0
    ]
    assert rational(tangent.diff(S) - kappa * normal) == sp.zeros(3, 1)
    a, b, c, d = (at_r(f) for f in _tube_row(eps))
    principal = -at_r(PRINCIPAL.c) / at_r(PRINCIPAL.b)  # the root of b(r)*y + c(r), 1/r
    for delta in (1, -1) if space == "lorentzian" else (1,):
        mu, eta = mu_eta(delta)
        psi = gamma + R * (mu * normal + eta * binormal)
        nu = rational(-(mu * normal + eta * binormal))
        derivatives = (psi.diff(S), psi.diff(T), psi.diff(S, 2), psi.diff(S, T), psi.diff(T, 2))
        ps, pt, pss, pst, ptt = (rational(v) for v in derivatives)
        assert [inner(space, nu, ps), inner(space, nu, pt), inner(space, nu, nu)] == [0, 0, eps]
        E, F, G = inner(space, ps, ps), inner(space, ps, pt), inner(space, pt, pt)
        e, f, g = inner(space, pss, nu), inner(space, pst, nu), inner(space, ptt, nu)
        K = sp.cancel(eps * (e * g - f * f) / (E * G - F * F))
        H = sp.cancel(eps * (e * G - 2 * f * F + g * E) / (2 * (E * G - F * F)))
        assert sp.cancel((a * K + b * H + c) / d) == 0
        assert sp.cancel((e - principal * E) * (g - principal * G) - (f - principal * F) ** 2) == 0
        v_of_t = (lambda t: math.tan(t / 2)) if mu.has(sp.cos) else math.exp
        spec = geo.TubeSpec(curve, 0.5, section, delta)
        for s, t in ((0.25, 0.4), (1.5, -0.75), (-2.0, 1.25)):
            at = {U: u_of_s(s), V: v_of_t(t), R: 0.5}
            want = [float(K.subs(at)), float(H.subs(at))]
            got = geo.curvatures(spec, s, t)
            assert [got.K, got.H] == pytest.approx(want, rel=1e-9, abs=1e-12)
            assert [got.K_cf, got.H_cf] == pytest.approx(want, rel=1e-9, abs=1e-12)
