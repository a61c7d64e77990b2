"""Numeric geometry: inner products, frames, tube parametrizations,
curvature samples and finite-difference cross-checks."""

import math
from fractions import Fraction

import numpy as np
import pytest

from weingarten_tubes import geometry as geo
from weingarten_tubes.errors import (
    DegenerateFrame,
    DimensionMismatch,
    InvalidSpecRow,
    IrregularPoint,
    LightlikeNormal,
    NoRegularPoints,
)
from weingarten_tubes.polyalg import Poly2

X = Poly2.variable("x")
Y = Poly2.variable("y")

FRENET_CURVES = [
    geo.e3_circle(10.0),
    geo.e3_helix(2.0, 1.0),
    geo.l3_spacelike_helix_spacelike_normal(2.0, 1.0),
    geo.l3_spacelike_helix_timelike_normal(2.0, 1.0),
    geo.l3_timelike_helix(1.0, 2.0),
    geo.h3_circle(2.0),
]


def sample_params(curve, n):
    lo, hi = curve.domain
    return np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), n)


class TestInnerAndCross:
    def test_timelike_axis(self):
        assert geo.lorentz_inner([0, 0, 1], [0, 0, 1]) == -1

    def test_orthogonal_pair(self):
        assert geo.lorentz_inner([1, 0, 0], [0, 0, 1]) == 0

    def test_lightlike_vector(self):
        assert geo.lorentz_inner([3, 4, 5], [3, 4, 5]) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            geo.lorentz_inner([1, 0], [0, 1])
        with pytest.raises(DimensionMismatch):
            geo.lorentz_cross([1, 0, 0, 0], [0, 1, 0, 0])

    def test_cross_e1_e2(self):
        assert np.allclose(geo.lorentz_cross([1, 0, 0], [0, 1, 0]), [0, 0, -1])

    def test_cross_parallel_vanishes(self):
        v = np.array([2.0, -1.0, 0.5])
        assert np.allclose(geo.lorentz_cross(v, 3.0 * v), 0.0)

    def test_cross_orthogonality_3d(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            u, v = rng.normal(size=3), rng.normal(size=3)
            w = geo.lorentz_cross(u, v)
            assert abs(geo.lorentz_inner(w, u)) < 1e-10
            assert abs(geo.lorentz_inner(w, v)) < 1e-10

    def test_cross_orthogonality_4d(self):
        curve = geo.h3_circle(2.0)
        for s in sample_params(curve, 7):
            frame = geo.frenet_frame(curve, s)
            b = geo.lorentz_cross(frame.gamma, frame.T, frame.N)
            for v in (frame.gamma, frame.T, frame.N):
                assert abs(geo.lorentz_inner(b, v)) < 1e-10


class TestFrames:
    def test_euclidean_circle(self):
        curve = geo.e3_circle(10.0)
        frame = geo.frenet_frame(curve, 1.0)
        assert frame.kappa == pytest.approx(0.1, abs=1e-12)
        assert frame.tau == pytest.approx(0.0, abs=1e-12)

    def test_euclidean_helix_torsion(self):
        a, b = 2.0, 1.0
        frame = geo.frenet_frame(geo.e3_helix(a, b), 0.7)
        c2 = a * a + b * b
        assert frame.kappa == pytest.approx(a / c2, abs=1e-12)
        assert frame.tau == pytest.approx(b / c2, abs=1e-12)

    def test_geodesics_degenerate(self):
        with pytest.raises(DegenerateFrame):
            geo.frenet_frame(geo.l3_line(), 0.3)
        with pytest.raises(DegenerateFrame):
            geo.frenet_frame(geo.h3_geodesic(), 0.3)
        with pytest.raises(DegenerateFrame):
            geo.frenet_frame(geo.e3_line(), 0.3)

    def test_lightlike_acceleration_rejected(self):
        import numpy as np

        from weingarten_tubes.errors import LightlikeNormal

        curve = geo.CentralCurve(
            space="lorentzian",
            name="lightlike-acc",
            gamma=lambda s: np.array([s * s / 2, s, s * s / 2]),
            d1=lambda s: np.array([s, 1.0, s]),
            d2=lambda s: np.array([1.0, 0.0, 1.0]),
            d3=lambda s: np.zeros(3),
            domain=(0.0, 1.0),
        )
        with pytest.raises(LightlikeNormal):
            geo.frenet_frame(curve, 0.2)

    def test_frame_causalities(self):
        for curve in FRENET_CURVES:
            inner = (lambda u, v: float(np.dot(u, v))) if curve.space == "euclidean" else geo.lorentz_inner
            for s in sample_params(curve, 5):
                fr = geo.frenet_frame(curve, s)
                assert inner(fr.T, fr.T) == pytest.approx(fr.eps_T, abs=1e-8)
                assert inner(fr.N, fr.N) == pytest.approx(fr.eps_N, abs=1e-8)
                assert inner(fr.B, fr.B) == pytest.approx(fr.eps_B, abs=1e-8)
                assert inner(fr.T, fr.N) == pytest.approx(0.0, abs=1e-8)
                assert inner(fr.T, fr.B) == pytest.approx(0.0, abs=1e-8)
                assert inner(fr.N, fr.B) == pytest.approx(0.0, abs=1e-8)
                if curve.space == "hyperbolic":
                    for v in (fr.T, fr.N, fr.B):
                        assert geo.lorentz_inner(fr.gamma, v) == pytest.approx(0.0, abs=1e-8)

    def test_frenet_equation_residuals(self):
        # finite-difference frame derivatives against the frame equations
        h = 1e-5
        for curve in FRENET_CURVES:
            for s in sample_params(curve, 20):
                frames = {ds: geo.frenet_frame(curve, s + ds) for ds in (-2 * h, -h, h, 2 * h)}
                fr = geo.frenet_frame(curve, s)

                def fd(attr):
                    return (
                        -getattr(frames[2 * h], attr)
                        + 8 * getattr(frames[h], attr)
                        - 8 * getattr(frames[-h], attr)
                        + getattr(frames[-2 * h], attr)
                    ) / (12 * h)

                k, t = fr.kappa, fr.tau
                if curve.space == "euclidean":
                    expected = {
                        "T": k * fr.N,
                        "N": -k * fr.T + t * fr.B,
                        "B": -t * fr.N,
                    }
                elif curve.space == "lorentzian":
                    expected = {
                        "T": k * fr.N,
                        "N": -fr.eps_T * fr.eps_N * k * fr.T + t * fr.B,
                        "B": fr.eps_T * t * fr.N,
                    }
                else:
                    expected = {
                        "gamma": fr.T,
                        "T": fr.gamma + k * fr.N,
                        "N": -k * fr.T + t * fr.B,
                        "B": -t * fr.N,
                    }
                for attr, value in expected.items():
                    assert np.max(np.abs(fd(attr) - value)) < 1e-6, (curve.name, attr)


class TestTubePoints:
    def test_e3_point_on_normal(self):
        curve = geo.e3_circle(10.0)
        spec = geo.TubeSpec(curve, 2.0, geo.SECTION_EUCLIDEAN)
        s = 0.8
        frame = geo.frenet_frame(curve, s)
        point = geo.tube_point(spec, s, 0.0)
        assert np.allclose(point, frame.gamma + 2.0 * frame.N)
        assert np.linalg.norm(point - frame.gamma) == pytest.approx(2.0, abs=1e-12)

    def test_l3_circle_section_parametrization(self):
        curve = geo.l3_spacelike_helix_spacelike_normal(2.0, 1.0)
        for delta in (1, -1):
            spec = geo.TubeSpec(curve, 0.5, geo.SECTION_L_CIRCLE, delta)
            s, t = 0.4, 0.9
            frame = geo.frenet_frame(curve, s)
            expected = frame.gamma + 0.5 * delta * math.cosh(t) * frame.N + 0.5 * math.sinh(t) * frame.B
            assert np.allclose(geo.tube_point(spec, s, t), expected)

    def test_h3_points_on_hyperboloid(self):
        spec = geo.TubeSpec(geo.h3_circle(2.0), 1.0, geo.SECTION_HYPERBOLIC)
        for s in (0.1, 1.3, 4.0):
            for t in (0.0, 0.7, 2.9):
                point = geo.tube_point(spec, s, t)
                assert abs(geo.lorentz_inner(point, point) + 1.0) < 1e-10

    def test_invalid_row_rejected(self):
        timelike = geo.l3_timelike_helix(1.0, 2.0)
        with pytest.raises(InvalidSpecRow):
            geo.TubeSpec(timelike, 0.5, geo.SECTION_L_HYPERBOLA)
        with pytest.raises(InvalidSpecRow):
            geo.TubeSpec(geo.e3_circle(5.0), 1.0, geo.SECTION_L_CIRCLE)

    def test_section_derivative_identity(self):
        # mu' = delta * eps_T * eta and eta' = delta * mu for every row
        specs = [
            geo.TubeSpec(geo.l3_spacelike_helix_spacelike_normal(2.0, 1.0), 0.5, geo.SECTION_L_CIRCLE, 1),
            geo.TubeSpec(geo.l3_spacelike_helix_spacelike_normal(2.0, 1.0), 0.5, geo.SECTION_L_HYPERBOLA, -1),
            geo.TubeSpec(geo.l3_spacelike_helix_timelike_normal(2.0, 1.0), 0.5, geo.SECTION_L_CIRCLE, -1),
            geo.TubeSpec(geo.l3_spacelike_helix_timelike_normal(2.0, 1.0), 0.5, geo.SECTION_L_HYPERBOLA, 1),
            geo.TubeSpec(geo.l3_timelike_helix(1.0, 2.0), 0.5, geo.SECTION_L_CIRCLE, -1),
        ]
        for spec in specs:
            eps_T = spec.curve.eps_T
            for t in (-1.2, 0.0, 0.6, 2.5):
                mu, eta, mu_t, eta_t, mu_tt, eta_tt = spec.mu_eta(t)
                assert mu_t == pytest.approx(spec.delta * eps_T * eta, abs=1e-12)
                assert eta_t == pytest.approx(spec.delta * mu, abs=1e-12)
                assert mu_tt == pytest.approx(eps_T * mu, abs=1e-12)
                assert eta_tt == pytest.approx(eps_T * eta, abs=1e-12)


class TestRegularity:
    def test_wide_torus_never_irregular(self):
        spec = geo.TubeSpec(geo.e3_circle(10.0), 2.0, geo.SECTION_EUCLIDEAN)
        s_grid, t_grid = geo.default_grids(spec, 16, 16)
        assert geo.regularity_scan(spec, s_grid, t_grid) == []

    def test_critical_radius_violation(self):
        # kappa = 1, r = 1: xi vanishes at t = 0
        spec = geo.TubeSpec(geo.e3_circle(1.0), 1.0, geo.SECTION_EUCLIDEAN)
        violations = geo.regularity_scan(spec, [0.0], [0.0, 1.0])
        assert len(violations) == 1 and violations[0][1] == 0.0

    def test_cylinder_always_regular(self):
        spec = geo.TubeSpec(geo.e3_line(), 5.0, geo.SECTION_EUCLIDEAN)
        s_grid, t_grid = geo.default_grids(spec, 8, 8)
        assert geo.regularity_scan(spec, s_grid, t_grid) == []

    def test_irregular_point_raises(self):
        spec = geo.TubeSpec(geo.e3_circle(1.0), 1.0, geo.SECTION_EUCLIDEAN)
        with pytest.raises(IrregularPoint):
            geo.curvatures(spec, 0.0, 0.0)


class TestCurvatures:
    def test_e3_cylinder(self):
        spec = geo.TubeSpec(geo.e3_line(), 2.0, geo.SECTION_EUCLIDEAN)
        c = geo.curvatures(spec, 0.3, 1.1)
        assert c.K == pytest.approx(0.0, abs=1e-14)
        assert c.H == pytest.approx(0.25, abs=1e-14)

    def test_e3_top_of_tube(self):
        # cos t = 0: K = 0 and H = 1/(2r) from the closed forms
        spec = geo.TubeSpec(geo.e3_circle(10.0), 2.0, geo.SECTION_EUCLIDEAN)
        c = geo.curvatures(spec, 0.5, math.pi / 2)
        assert c.K == pytest.approx(0.0, abs=1e-14)
        assert c.H == pytest.approx(0.25, abs=1e-12)

    def test_torus_generator_residual(self):
        spec = geo.TubeSpec(geo.e3_circle(10.0), 2.0, geo.SECTION_EUCLIDEAN)
        gen = 4 * X - 4 * Y + Poly2.constant(1)
        s_grid, t_grid = geo.default_grids(spec, 32, 32)
        result = geo.verify_relation(gen, spec, s_grid, t_grid)
        assert result.max_residual <= 1e-8
        assert result.regular_points == 32 * 32

    def test_closed_form_agreement_all_spaces(self):
        specs = [
            geo.TubeSpec(geo.e3_circle(10.0), 2.0, geo.SECTION_EUCLIDEAN),
            geo.TubeSpec(geo.e3_helix(2.0, 1.0), 0.5, geo.SECTION_EUCLIDEAN),
            geo.TubeSpec(geo.l3_spacelike_helix_spacelike_normal(2.0, 1.0), 0.5, geo.SECTION_L_CIRCLE, 1),
            geo.TubeSpec(geo.l3_spacelike_helix_spacelike_normal(2.0, 1.0), 0.5, geo.SECTION_L_HYPERBOLA, -1),
            geo.TubeSpec(geo.l3_spacelike_helix_timelike_normal(2.0, 1.0), 0.5, geo.SECTION_L_CIRCLE, -1),
            geo.TubeSpec(geo.l3_spacelike_helix_timelike_normal(2.0, 1.0), 0.5, geo.SECTION_L_HYPERBOLA, 1),
            geo.TubeSpec(geo.l3_timelike_helix(1.0, 2.0), 0.5, geo.SECTION_L_CIRCLE, 1),
            geo.TubeSpec(geo.l3_line("spacelike", "timelike"), 1.5, geo.SECTION_L_HYPERBOLA, 1),
            geo.TubeSpec(geo.h3_circle(2.0), 1.0, geo.SECTION_HYPERBOLIC),
            geo.TubeSpec(geo.h3_geodesic(), 1.0, geo.SECTION_HYPERBOLIC),
        ]
        for spec in specs:
            s_grid, t_grid = geo.default_grids(spec, 12, 12)
            for sample in geo.sample_grid(spec, s_grid, t_grid):
                if sample is None:
                    continue
                scale = max(1.0, abs(sample.K_cf), abs(sample.H_cf))
                assert abs(sample.K - sample.K_cf) <= 1e-6 * scale, spec.name
                assert abs(sample.H - sample.H_cf) <= 1e-6 * scale, spec.name

    def test_signal_matches_section_type(self):
        curve = geo.l3_spacelike_helix_spacelike_normal(2.0, 1.0)
        circle = geo.TubeSpec(curve, 0.5, geo.SECTION_L_CIRCLE)
        hyper = geo.TubeSpec(curve, 0.5, geo.SECTION_L_HYPERBOLA)
        assert geo.curvatures(circle, 0.3, 0.4).eps == 1
        assert geo.curvatures(hyper, 0.3, 0.4).eps == -1

    @pytest.mark.parametrize(
        "run",
        [
            lambda spec, s, t: geo.verify_relation(Y, spec, s, t),
            lambda spec, s, t: geo.curvature_csv(Y, spec, s, t),
            lambda spec, s, t: geo.sample_grid(spec, s, t),
        ],
        ids=["verify_relation", "curvature_csv", "sample_grid"],
    )
    def test_non_unit_normal_names_first_offending_point(self, run):
        # a hand-built geodesic whose normal0 has length 2: <normal, normal>
        # = 4 cos^2 t + sin^2 t is 1 at t = pi/2 and 4 at t = 0, so in
        # row-major order (0.5, 0.0) is the first regular point to fail
        curve = geo.CentralCurve(
            space="euclidean",
            name="long-normal",
            gamma=lambda s: np.array([s, 0.0, 0.0]),
            d1=lambda s: np.array([1.0, 0.0, 0.0]),
            d2=lambda s: np.zeros(3),
            d3=lambda s: np.zeros(3),
            domain=(0.0, 1.0),
            normal0=(0.0, 2.0, 0.0),
            binormal0=(0.0, 0.0, 1.0),
        )
        spec = geo.TubeSpec(curve, 1.0, geo.SECTION_EUCLIDEAN)
        with pytest.raises(LightlikeNormal) as info:
            run(spec, [0.5, 1.0], [math.pi / 2, 0.0])
        assert str(info.value) == "|<normal, normal>| = 4.000000 is not 1 at (s, t) = (0.5, 0.0)"

    def test_finite_difference_cross_check(self):
        # independent fundamental forms from 4th-order stencils on the
        # embedding; second/mixed derivatives use a larger step because
        # the h**-2 roundoff amplification dominates below ~1e-4
        h = 1e-4
        specs = [
            geo.TubeSpec(geo.e3_circle(10.0), 2.0, geo.SECTION_EUCLIDEAN),
            geo.TubeSpec(geo.l3_spacelike_helix_spacelike_normal(2.0, 1.0), 0.5, geo.SECTION_L_CIRCLE, 1),
            geo.TubeSpec(geo.l3_spacelike_helix_timelike_normal(2.0, 1.0), 0.5, geo.SECTION_L_HYPERBOLA, 1),
            geo.TubeSpec(geo.h3_circle(2.0), 1.0, geo.SECTION_HYPERBOLIC),
        ]

        def stencil(f, x):
            return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)

        def stencil2(f, x):
            return (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x) + 16 * f(x - h) - f(x - 2 * h)) / (
                12 * h * h
            )

        for spec in specs:
            inner = (
                (lambda u, v: float(np.dot(u, v)))
                if spec.curve.space == "euclidean"
                else geo.lorentz_inner
            )
            for s, t in ((0.3, 0.7), (1.1, -0.4)):
                sample = geo.curvatures(spec, s, t)
                psi_s = stencil(lambda u: geo.tube_point(spec, u, t), s)
                psi_t = stencil(lambda u: geo.tube_point(spec, s, u), t)
                psi_ss = stencil2(lambda u: geo.tube_point(spec, u, t), s)
                psi_tt = stencil2(lambda u: geo.tube_point(spec, s, u), t)
                psi_st = stencil(lambda u: stencil(lambda w: geo.tube_point(spec, w, u), s), t)
                frame = geo._tube_frame(spec.curve, s)
                if spec.curve.space == "hyperbolic":
                    mu, eta = math.cos(t), math.sin(t)
                else:
                    mu, eta = spec.mu_eta(t)[:2]
                normal = -(mu * frame.N + eta * frame.B)
                eps = round(inner(normal, normal))
                E, F, G = inner(psi_s, psi_s), inner(psi_s, psi_t), inner(psi_t, psi_t)
                e, f, g = inner(psi_ss, normal), inner(psi_st, normal), inner(psi_tt, normal)
                denom = E * G - F * F
                K_fd = eps * (e * g - f * f) / denom
                H_fd = eps * (e * G - 2 * f * F + g * E) / (2 * denom)
                assert K_fd == pytest.approx(sample.K, abs=1e-6)
                assert H_fd == pytest.approx(sample.H, abs=1e-6)


class TestVerifyRelation:
    def test_generator_identity_links_modules(self):
        # the algebra side says the generator lies in the tube's relation
        # set; the geometry side confirms it on samples
        from fractions import Fraction

        from weingarten_tubes.classify import TubeIdentity, solve_QS
        from weingarten_tubes.polyalg import tube_generator
        from weingarten_tubes.radius import EUCLIDEAN

        r = Fraction(2)
        tube = TubeIdentity(EUCLIDEAN, r, is_right_cylinder=False)
        gen = tube_generator(r)
        assert solve_QS(tube).contains(gen)
        spec = geo.TubeSpec(geo.e3_circle(10.0), float(r), geo.SECTION_EUCLIDEAN)
        s_grid, t_grid = geo.default_grids(spec, 24, 24)
        assert geo.verify_relation(gen, spec, s_grid, t_grid).max_residual <= 1e-8

    def test_wrong_relation_has_large_residual(self):
        spec = geo.TubeSpec(geo.e3_circle(10.0), 2.0, geo.SECTION_EUCLIDEAN)
        s_grid, t_grid = geo.default_grids(spec, 16, 16)
        result = geo.verify_relation(Y - Poly2.constant(1), spec, s_grid, t_grid)
        assert result.max_residual > 1e-2

    def test_no_regular_points(self):
        spec = geo.TubeSpec(geo.e3_circle(1.0), 1.0, geo.SECTION_EUCLIDEAN)
        with pytest.raises(NoRegularPoints):
            geo.verify_relation(Y, spec, [0.0], [0.0])


class TestCsv:
    def test_header_and_shape(self):
        spec = geo.TubeSpec(geo.e3_circle(10.0), 2.0, geo.SECTION_EUCLIDEAN)
        s_grid, t_grid = geo.default_grids(spec, 4, 5)
        text = geo.curvature_csv(4 * X - 4 * Y + Poly2.constant(1), spec, s_grid, t_grid)
        lines = text.strip().split("\n")
        assert lines[0] == "s,t,K,H,K_cf,H_cf,xi,residual"
        assert len(lines) == 1 + 4 * 5
        # row-major: first four rows share s = s_grid[0]
        first_s = {line.split(",")[0] for line in lines[1:6]}
        assert len(first_s) == 1
        # 17 significant digits survive parsing
        row = lines[1].split(",")
        assert float(row[2]) == pytest.approx(0.0, abs=1e-12) or "." in row[2] or "e" in row[2]
