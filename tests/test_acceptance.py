"""Acceptance suite: one test per criterion, each printing a PASS line
with its stated tolerance once the criterion holds.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines."""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from conftest import brute_substitute, random_poly2, random_rational, random_positive_rational
from paper_formulas import binom, binomial_alternating_sum, gamma_formula, lemma_identity_defined
from weingarten_tubes import geometry as geo
from weingarten_tubes.classify import (
    RIGHT_CYLINDERS,
    classify_linear,
    classify_second_fundamental,
)
from weingarten_tubes.cli import main, parse_poly
from weingarten_tubes.polyalg import (
    Poly1,
    Poly2,
    divide_by_tube_factor,
    gamma_at,
    gamma_cleared,
    is_in_tube_ideal,
    substitute_tube,
    tube_generator,
)
from weingarten_tubes.radius import EUCLIDEAN, star_radius_set

from test_row_kernel import sample_grid

GOLDEN = Path(__file__).parent / "golden"

EXQ_TEXT = (
    "4*x^4 + 8*x^2*y^2 - 12*x*y^3 + 9*x^3 + 9*x^2*y - 9*x*y^2 - 4*y^3 "
    "+ 22*x^2 - 8*x*y - 7*y^2 - 91*x + 98*y - 24"
)
SQ_TEXT = "14*y - 25*x + 100*x*y - 40*y^2 - 1"


def run_cli_capture(argv: list[str]) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "weingarten_tubes.cli", *argv],
        capture_output=True,
        env={**os.environ},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_01_exq_golden(capsys):
    """Degree-4 example: radii {1/8 (cylinders), 2 (all tubes)}, exact
    quotient, byte-exact against the checked-in report."""
    argv = ["classify", EXQ_TEXT, "--space", "euclidean"]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    golden = (GOLDEN / "classify_exq_euclidean.json").read_text()
    assert out == golden, "report differs from checked-in golden file"
    doc = json.loads(out)
    (lane,) = doc["result"]["lanes"]
    assert [(c["class"], c["radius"]["exact"]) for c in lane["classes"]] == [
        ("right-cylinders", "1/8"),
        ("all-regular-tubes", "2"),
    ]
    assert lane["classes"][1]["quotient"] == (
        "x^3 + x^2*y + 3*x*y^2 + 2*x^2 + 4*x*y + y^2 + 5*x + 2*y - 24"
    )
    print("\nACCEPTANCE 1 PASS: degree-4 golden classification is byte-exact")


def test_criterion_02_sq_golden(capsys):
    """Rad_E = {2, 5}, star only at 5, substitution image at r=2 equals
    15x^2 - 3x exactly; classification report byte-exact."""
    q = parse_poly(SQ_TEXT)
    rset = star_radius_set(q, EUCLIDEAN)
    assert [(e.radius.exact_value, e.star) for e in rset.entries] == [(2, False), (5, True)]
    assert substitute_tube(q, 2) == Poly1([0, -3, 15])
    assert substitute_tube(q, 5).is_zero
    argv = ["classify", SQ_TEXT, "--space", "euclidean"]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / "classify_sq_euclidean.json").read_text()
    print("\nACCEPTANCE 2 PASS: Rad_E = {2,5}, star only at 5, image 15*x^2 - 3*x exact")


def test_criterion_03_linear_sweep():
    """1000 random rational triples: the linear case analysis agrees with
    the full solver in all three spaces; Lorentzian lane uses
    eps = sgn(bc) and Delta = eps*b^2 + 4ac.  Zero mismatches."""
    rng = random.Random(20240811)
    checked = 0
    while checked < 1000:
        a = random_rational(rng, -9, 9)
        b = random_rational(rng, -9, 9)
        c = random_rational(rng, -9, 9)
        if a == 0 and b == 0:
            continue
        # classify_linear reads every case off solve_SQ
        cases = classify_linear(a, b, c, "all")
        if b != 0 and c != 0:
            sgn = 1 if b * c > 0 else -1
            populated = [k for k in cases if k.tag.space == "lorentzian" and k.kind != "empty"]
            assert len(populated) == 1
            case = populated[0]
            assert case.tag.eps == sgn
            assert case.radius == b * sgn / (2 * c)
            assert case.discriminant == sgn * b * b + 4 * a * c
            assert case.kind == ("all-tubes" if case.discriminant == 0 else "right-cylinders")
        checked += 1
    print("\nACCEPTANCE 3 PASS: 1000/1000 linear triples agree in all three spaces")


def test_criterion_04_second_fundamental_form():
    """|A| = c for c in {1/2, 1, 3}: right cylinders only, radius 1/c in
    E and both Lorentzian signals, sinh-radius exactly 1/c in H."""
    for c in (Fraction(1, 2), Fraction(1), Fraction(3)):
        report = classify_second_fundamental(c, "all")
        assert len(report.lanes) == 4  # euclidean, lorentzian +1/-1, hyperbolic
        for lane in report.lanes:
            assert not lane.all_cylinders_any_radius
            (cls,) = lane.classes
            assert cls.kind == RIGHT_CYLINDERS
            assert cls.radius.exact_value == 1 / c  # rho = 1/c in the hyperbolic lane
    print("\nACCEPTANCE 4 PASS: |A| = c gives right cylinders of radius 1/c (rho = 1/c in H^3)")


def test_criterion_05_membership_roundtrip():
    """1000 random quotients (deg <= 6, coefficients in [-9,9]) at random
    rational r in (0,10], both signals: multiply, membership holds,
    quotient recovered exactly; 1000 perturbed non-members rejected."""
    rng = random.Random(50505)
    members = 0
    while members < 1000:
        quotient = random_poly2(rng, rng.randint(0, 6), n_terms=rng.randint(1, 8))
        if quotient.is_zero:
            continue
        r = random_positive_rational(rng, hi=10)
        eps = 1 if members % 2 == 0 else -1
        q = tube_generator(r, eps) * quotient
        assert is_in_tube_ideal(q, r, eps)
        assert divide_by_tube_factor(q, r, eps) == quotient
        members += 1
    rejected = 0
    while rejected < 1000:
        quotient = random_poly2(rng, rng.randint(0, 6), n_terms=rng.randint(1, 8))
        r = random_positive_rational(rng, hi=10)
        eps = 1 if rejected % 2 == 0 else -1
        c = random_rational(rng, -9, 9)
        if c == 0:
            continue
        q = tube_generator(r, eps) * quotient + Poly2.constant(c)
        assert not is_in_tube_ideal(q, r, eps)
        assert divide_by_tube_factor(q, r, eps) is None
        rejected += 1
    print("\nACCEPTANCE 5 PASS: 1000 round-trips exact, 1000 non-members rejected")


def test_criterion_06_gamma_oracle():
    """500 random polynomials (deg <= 6) at random rational r: the
    coefficient formula equals an independent binomial-theorem
    expansion, and its cleared polynomials the paper's double sum.  Exact
    equality."""
    rng = random.Random(60606)
    done = 0
    while done < 500:
        q = random_poly2(rng, rng.randint(0, 6), n_terms=rng.randint(1, 8))
        r = random_rational(rng, -9, 9)
        if r == 0:
            continue
        expected = brute_substitute(q, r, 1)
        expected += [Fraction(0)] * (q.degree + 1 - len(expected))
        assert gamma_at(q, r) == expected
        assert q.is_zero or gamma_cleared(q) == gamma_formula(q)
        done += 1
    print("\nACCEPTANCE 6 PASS: 500/500 coefficient vectors match the brute-force oracle")


def test_criterion_07_binomial_lemma():
    """Exhaustive alternating-sum identity over n <= 8, 0 <= x <= 12,
    0 <= j <= 12 by direct summation, everywhere the pinned hard-zero
    convention defines every symbol (the negative-upper/positive-lower
    corner is excluded; see the module docs)."""
    checked = 0
    excluded = 0
    for n in range(0, 9):
        for x in range(0, 13):
            for j in range(0, 13):
                if lemma_identity_defined(n, x, j):
                    assert binomial_alternating_sum(n, x, j) == binom(x - n, j - n), (n, x, j)
                    checked += 1
                else:
                    excluded += 1
    assert checked == 1089 and excluded == 432
    print(f"\nACCEPTANCE 7 PASS: identity exact on all {checked} convention-defined triples")


def _generator_poly(r: float, eps: int, space: str) -> Poly2:
    if space == "hyperbolic":
        sh = Fraction(math.sinh(r))
        return Poly2([((1, 0), sh * sh), ((0, 1), -2 * sh), ((0, 0), 1)])
    rr = Fraction(r)
    return Poly2([((1, 0), rr * rr), ((0, 1), -2 * rr), ((0, 0), eps)])


def test_criterion_08_numeric_generator_identity():
    """Max generator-relation residual <= 1e-8 on 64x64 regular grids for
    the E^3 torus (R=10, r=2), the L^3 spacelike-helix tubes (both
    section types, both delta) and an H^3 tube (r=1) over a
    constant-curvature curve; numeric vs closed-form (K, H) within
    1e-6 relative wherever |xi| >= 1e-3."""
    helix = geo.l3_spacelike_helix_spacelike_normal(2.0, 1.0)
    tubes = [geo.TubeSpec(geo.e3_circle(10.0), 2.0, geo.SECTION_EUCLIDEAN, name="e3-torus")]
    for section in (geo.SECTION_L_CIRCLE, geo.SECTION_L_HYPERBOLA):
        for delta in (1, -1):
            tubes.append(geo.TubeSpec(helix, 0.5, section, delta, name=f"{section},d={delta}"))
    tubes.append(geo.TubeSpec(geo.h3_circle(2.0), 1.0, geo.SECTION_HYPERBOLIC, name="h3-tube"))

    worst = 0.0
    for spec in tubes:
        s_grid, t_grid = geo.default_grids(spec, 64, 64)
        samples = [s for s in sample_grid(spec, s_grid, t_grid) if s is not None]
        assert samples, spec.name
        eps = samples[0].eps
        gen = _generator_poly(spec.radius, eps, spec.curve.space)
        for sample in samples:
            assert sample.eps == eps
            worst = max(worst, abs(gen.eval_float(sample.K, sample.H)))
            scale = max(1.0, abs(sample.K_cf), abs(sample.H_cf))
            assert abs(sample.K - sample.K_cf) <= 1e-6 * scale, spec.name
            assert abs(sample.H - sample.H_cf) <= 1e-6 * scale, spec.name
        assert worst <= 1e-8, spec.name
    print(f"\nACCEPTANCE 8 PASS: generator residual {worst:.3e} <= 1e-8 on all six tubes")


def test_criterion_09_frenet_fidelity():
    """Finite-difference derivatives of every built-in Frenet frame match
    the frame-equation matrices to 1e-6 at 100 samples per curve."""
    curves = [
        geo.e3_circle(10.0),
        geo.e3_helix(2.0, 1.0),
        geo.l3_spacelike_helix_spacelike_normal(2.0, 1.0),
        geo.l3_spacelike_helix_timelike_normal(2.0, 1.0),
        geo.l3_timelike_helix(1.0, 2.0),
        geo.h3_circle(2.0),
    ]
    h = 1e-5
    worst = 0.0
    for curve in curves:
        lo, hi = curve.domain
        for k in range(100):
            s = lo + (hi - lo) * (k + 0.5) / 100
            frames = {ds: geo.frenet_frame(curve, s + ds) for ds in (-2 * h, -h, 0.0, h, 2 * h)}
            fr = frames[0.0]

            def fd(attr):
                return (
                    -getattr(frames[2 * h], attr)
                    + 8 * getattr(frames[h], attr)
                    - 8 * getattr(frames[-h], attr)
                    + getattr(frames[-2 * h], attr)
                ) / (12 * h)

            if curve.space == "euclidean":
                rows = {"T": fr.kappa * fr.N, "N": -fr.kappa * fr.T + fr.tau * fr.B, "B": -fr.tau * fr.N}
            elif curve.space == "lorentzian":
                rows = {
                    "T": fr.kappa * fr.N,
                    "N": -fr.eps_T * fr.eps_N * fr.kappa * fr.T + fr.tau * fr.B,
                    "B": fr.eps_T * fr.tau * fr.N,
                }
            else:
                rows = {
                    "gamma": fr.T,
                    "T": fr.gamma + fr.kappa * fr.N,
                    "N": -fr.kappa * fr.T + fr.tau * fr.B,
                    "B": -fr.tau * fr.N,
                }
            for attr, expected in rows.items():
                residual = float(max(abs(fd(attr) - expected)))
                worst = max(worst, residual)
                assert residual < 1e-6, (curve.name, attr, s)
    print(f"\nACCEPTANCE 9 PASS: frame-equation residual {worst:.3e} < 1e-6 (100 samples/curve)")


def test_criterion_10_determinism():
    """Every CLI command produces byte-identical reports on repeated runs."""
    commands = [
        ["classify", SQ_TEXT, "--space", "all"],
        ["classify", "k1 + 3*k2 - 2", "--principal"],
        ["radius", EXQ_TEXT, "--space", "lorentzian", "--star"],
        ["radius", "4*x^2 - 8*y^2 + 4*x + 1", "--space", "euclidean", "--star"],
        ["divide", EXQ_TEXT, "--r", "2", "--eps", "+1"],
        ["verify", "4*x - 4*y + 1", "--tube", "e3-torus:R=10,r=2", "--grid", "12x12"],
        ["linear", "-1/8", "1", "2", "--space", "all"],
        ["sff", "3", "--space", "all"],
    ]
    for argv in commands:
        first = run_cli_capture(argv)
        second = run_cli_capture(argv)
        assert first == second, argv
    print("\nACCEPTANCE 10 PASS: all CLI commands byte-identical across runs")
