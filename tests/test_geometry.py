"""Numeric geometry: inner products, frames, tube parametrizations,
curvature samples and finite-difference cross-checks."""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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

from test_row_kernel import CURVES, regularity_scan, sample_grid, tube_frame

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


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# a small pool, so values repeat across rows and columns: both zeros, NaNs
# with other payloads and the sign bit, infinities, subnormals and
# neighbours one ulp apart
CSV_POOL = [
    0.0, -0.0, math.nan, _from_bits(0x7FF8000000000001), _from_bits(0xFFF8000000000000),
    _from_bits(0x7FF0000000000001), math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072009e-308,
    1.0, float(np.nextafter(1.0, 2.0)), float(np.nextafter(1.0, 0.0)), -1.0, 0.1, 1 / 3,
]
csv_values = st.sampled_from(CSV_POOL)


@st.composite
def csv_blocks(draw):
    """(s, t, regular, six columns) of a block of 1-4 rows and 1-5 columns;
    s may be a scalar when the block has one row, and t when it has one
    column."""
    rows, n_t = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    s = draw(csv_values) if rows == 1 and draw(st.booleans()) else draw(st.lists(csv_values, min_size=rows, max_size=rows))
    t = draw(csv_values) if n_t == 1 and draw(st.booleans()) else draw(st.lists(csv_values, min_size=n_t, max_size=n_t))
    regular = draw(st.lists(st.lists(st.booleans(), min_size=n_t, max_size=n_t), min_size=rows, max_size=rows))
    grid = st.lists(st.lists(csv_values, min_size=n_t, max_size=n_t), min_size=rows, max_size=rows)
    return s, t, regular, [draw(grid) for _ in range(6)]


def percent_placed_csv_block(s, t, regular, *columns) -> str:
    """The CSV writer as it was before its lines were joined: the distinct
    values printed by one %-format, then placed by an 8-field '%s' line
    format repeated per point."""
    s, t = (np.array(v, dtype=float).ravel() for v in (s, t))
    curvatures = [np.where(regular, v, np.nan) for v in columns[:4]]
    values = np.stack((*curvatures, *columns[4:]), axis=-1, dtype=float)
    bits, inverse = np.unique(values.ravel().view(np.uint64), return_inverse=True)
    distinct = [*bits.view(float).tolist(), *s.tolist(), *t.tolist()]
    digits = np.array(("%.17g," * len(distinct) % tuple(distinct)).split(",")[:-1], dtype=object)
    table = np.empty((s.size, t.size, 8), dtype=object)
    table[..., 0] = digits[bits.size : bits.size + s.size, None]
    table[..., 1] = digits[bits.size + s.size :]
    table[..., 2:] = digits[inverse].reshape(values.shape)
    return ("\n" + ",".join(["%s"] * 8)) * (table.size // 8) % tuple(table.ravel().tolist())


def lorentz_inner(u, v) -> float:
    """The kernel's Lorentzian inner product of two 3- or 4-vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.shape not in ((3,), (4,)):
        raise DimensionMismatch(f"need matching 3- or 4-vectors, got {u.shape} and {v.shape}")
    return float(geo._inner("lorentzian", u, v))


def tube_point(spec, s: float, t: float) -> np.ndarray:
    """Position of the tube parametrization at (s, t) on the block frame."""
    gamma, _, N, B = (v[:, 0] for v in geo._frames(spec.curve, [s])[:4])
    r = spec.radius
    mu, eta, *_ = spec.mu_eta(t)
    if spec.curve.space == "hyperbolic":
        return math.cosh(r) * gamma + math.sinh(r) * (mu * N + eta * B)
    return gamma + r * mu * N + r * eta * B


def sample_params(curve, n):
    lo, hi = curve.domain
    return np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), n)


class TestInnerAndCross:
    def test_timelike_axis(self):
        assert lorentz_inner([0, 0, 1], [0, 0, 1]) == -1

    def test_orthogonal_pair(self):
        assert lorentz_inner([1, 0, 0], [0, 0, 1]) == 0

    def test_lightlike_vector(self):
        assert lorentz_inner([3, 4, 5], [3, 4, 5]) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lorentz_inner([1, 0], [0, 1])
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
            assert abs(lorentz_inner(w, u)) < 1e-10
            assert abs(lorentz_inner(w, v)) < 1e-10

    def test_cross_orthogonality_4d(self):
        curve = geo.h3_circle(2.0)
        for s in sample_params(curve, 7):
            frame = geo.frenet_frame(curve, s)
            b = geo.lorentz_cross(frame.gamma, frame.T, frame.N)
            for v in (frame.gamma, frame.T, frame.N):
                assert abs(lorentz_inner(b, v)) < 1e-10


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
            jet=lambda s: ((s * s / 2, s, s * s / 2), (s, 1.0, s), (1.0, 0.0, 1.0), (0.0, 0.0, 0.0)),
            domain=(0.0, 1.0),
        )
        with pytest.raises(LightlikeNormal):
            geo.frenet_frame(curve, 0.2)

    def test_frame_causalities(self):
        for curve in FRENET_CURVES:
            inner = (lambda u, v: float(np.dot(u, v))) if curve.space == "euclidean" else lorentz_inner
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
                        assert lorentz_inner(fr.gamma, v) == pytest.approx(0.0, abs=1e-8)

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


@pytest.mark.parametrize("make", CURVES, ids=[make().name for make in CURVES])
def test_jet_derivatives_are_the_difference_quotients(make):
    # each derivative of the jet against a 4th-order central difference of
    # the order below it, unit speed <gamma', gamma'> = eps_T, and
    # <gamma, gamma> = -1 on the hyperboloid
    curve = make()
    dot = (lambda u, v: float(np.dot(u, v))) if curve.space == "euclidean" else lorentz_inner
    h = 1e-3
    for s in sample_params(curve, 9):
        jet = [np.array(v, dtype=float) for v in curve.jet(s)]
        near = {k: [np.array(v, dtype=float) for v in curve.jet(s + k * h)] for k in (-2, -1, 1, 2)}
        for order in (1, 2, 3):
            below = {k: v[order - 1] for k, v in near.items()}
            quotient = (below[-2] - 8.0 * below[-1] + 8.0 * below[1] - below[2]) / (12.0 * h)
            assert np.allclose(jet[order], quotient, rtol=1e-8, atol=1e-9), (curve.name, s, order)
        assert dot(jet[1], jet[1]) == pytest.approx(curve.eps_T, abs=1e-12)
        if curve.space == "hyperbolic":
            assert dot(jet[0], jet[0]) == pytest.approx(-1.0, abs=1e-12)


class TestTubePoints:
    def test_e3_point_on_normal(self):
        curve = geo.e3_circle(10.0)
        spec = geo.TubeSpec(curve, 2.0, geo.SECTION_EUCLIDEAN)
        s = 0.8
        frame = geo.frenet_frame(curve, s)
        point = tube_point(spec, s, 0.0)
        assert np.allclose(point, frame.gamma + 2.0 * frame.N)
        assert np.linalg.norm(point - frame.gamma) == pytest.approx(2.0, abs=1e-12)

    def test_l3_circle_section_parametrization(self):
        curve = geo.l3_spacelike_helix_spacelike_normal(2.0, 1.0)
        for delta in (1, -1):
            spec = geo.TubeSpec(curve, 0.5, geo.SECTION_L_CIRCLE, delta)
            s, t = 0.4, 0.9
            frame = geo.frenet_frame(curve, s)
            expected = frame.gamma + 0.5 * delta * math.cosh(t) * frame.N + 0.5 * math.sinh(t) * frame.B
            assert np.allclose(tube_point(spec, s, t), expected)

    def test_h3_points_on_hyperboloid(self):
        spec = geo.TubeSpec(geo.h3_circle(2.0), 1.0, geo.SECTION_HYPERBOLIC)
        for s in (0.1, 1.3, 4.0):
            for t in (0.0, 0.7, 2.9):
                point = tube_point(spec, s, t)
                assert abs(lorentz_inner(point, point) + 1.0) < 1e-10

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


# the admissible tubes: (space, eps_T, eps_N, section) and the (mu, eta)
# pair of the section
ADMISSIBLE = [
    ("euclidean", 1, 1, geo.SECTION_EUCLIDEAN, "cos-sin"),
    ("hyperbolic", 1, 1, geo.SECTION_HYPERBOLIC, "cos-sin"),
    ("lorentzian", 1, 1, geo.SECTION_L_CIRCLE, "cosh-sinh"),
    ("lorentzian", 1, -1, geo.SECTION_L_CIRCLE, "sinh-cosh"),
    ("lorentzian", -1, 1, geo.SECTION_L_CIRCLE, "cos-sin"),
    ("lorentzian", 1, 1, geo.SECTION_L_HYPERBOLA, "sinh-cosh"),
    ("lorentzian", 1, -1, geo.SECTION_L_HYPERBOLA, "cosh-sinh"),
]
SPACE_SECTIONS = {
    "euclidean": [geo.SECTION_EUCLIDEAN],
    "hyperbolic": [geo.SECTION_HYPERBOLIC],
    "lorentzian": [geo.SECTION_L_CIRCLE, geo.SECTION_L_HYPERBOLA],
}


def closed_mu_eta(pair: str, d: float, t: float) -> tuple:
    """(mu, eta, mu', eta', mu'', eta'') of a section pair, each written out."""
    if pair == "cos-sin":
        c, s = math.cos(t), math.sin(t)
        return d * c, s, -d * s, c, -d * c, -s
    ch, sh = math.cosh(t), math.sinh(t)
    if pair == "cosh-sinh":
        return d * ch, sh, d * sh, ch, d * ch, sh
    return sh, d * ch, ch, d * sh, sh, d * ch


def curve_of(space: str, eps_T: int, eps_N: int) -> geo.CentralCurve:
    return geo.e3_circle(1.0)._replace(space=space, eps_T=eps_T, eps_N=eps_N)


class TestSectionTable:
    @pytest.mark.parametrize("delta", [1, -1])
    @pytest.mark.parametrize("row", ADMISSIBLE, ids=lambda row: "/".join(map(str, row[1:4])) + f"@{row[0]}")
    def test_mu_eta_is_the_closed_form_bit_for_bit(self, row, delta):
        # delta signs the section in L^3 alone; t = 0 gives the -0.0 entries
        space, eps_T, eps_N, section, pair = row
        spec = geo.TubeSpec(curve_of(space, eps_T, eps_N), 0.5, section, delta)
        d = float(delta) if space == "lorentzian" else 1.0
        for t in (0.0, -0.7, 0.7, 2.5):
            got = spec.mu_eta(t)
            assert [struct.pack("<d", v) for v in got] == [struct.pack("<d", v) for v in closed_mu_eta(pair, d, t)]

    def test_exactly_the_admissible_tubes_exist(self):
        sections = [geo.SECTION_EUCLIDEAN, geo.SECTION_HYPERBOLIC, geo.SECTION_L_CIRCLE, geo.SECTION_L_HYPERBOLA]
        built = []
        for space in SPACE_SECTIONS:
            for eps_T in (1, -1):
                for eps_N in (1, -1):
                    for section in sections:
                        try:
                            geo.TubeSpec(curve_of(space, eps_T, eps_N), 0.5, section)
                        except InvalidSpecRow as ex:
                            if section not in SPACE_SECTIONS[space]:
                                message = {
                                    "euclidean": "Euclidean tubes use 'euclidean-circle'",
                                    "hyperbolic": "hyperbolic tubes use 'hyperbolic-circle'",
                                    "lorentzian": f"Lorentzian tubes use circle or hyperbola sections, got {section!r}",
                                }[space]
                            else:
                                message = (
                                    f"no tube with curve causality {eps_T}, normal causality {eps_N} "
                                    f"and section {section!r} exists"
                                )
                            assert str(ex) == message
                            continue
                        built.append((space, eps_T, eps_N, section))
        assert len(built) == 7 and set(built) == {row[:4] for row in ADMISSIBLE}


class TestRegularity:
    def test_wide_torus_never_irregular(self):
        spec = geo.TubeSpec(geo.e3_circle(10.0), 2.0, geo.SECTION_EUCLIDEAN)
        s_grid, t_grid = geo.default_grids(spec, 16, 16)
        assert regularity_scan(spec, s_grid, t_grid) == []

    def test_critical_radius_violation(self):
        # kappa = 1, r = 1: xi vanishes at t = 0
        spec = geo.TubeSpec(geo.e3_circle(1.0), 1.0, geo.SECTION_EUCLIDEAN)
        violations = regularity_scan(spec, [0.0], [0.0, 1.0])
        assert len(violations) == 1 and violations[0][1] == 0.0

    def test_cylinder_always_regular(self):
        spec = geo.TubeSpec(geo.e3_line(), 5.0, geo.SECTION_EUCLIDEAN)
        s_grid, t_grid = geo.default_grids(spec, 8, 8)
        assert regularity_scan(spec, s_grid, t_grid) == []

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
            for sample in sample_grid(spec, s_grid, t_grid):
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
            lambda spec, s, t: sample_grid(spec, s, t),
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
            jet=lambda s: ((s, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
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
                else lorentz_inner
            )
            for s, t in ((0.3, 0.7), (1.1, -0.4)):
                sample = geo.curvatures(spec, s, t)
                psi_s = stencil(lambda u: tube_point(spec, u, t), s)
                psi_t = stencil(lambda u: tube_point(spec, s, u), t)
                psi_ss = stencil2(lambda u: tube_point(spec, u, t), s)
                psi_tt = stencil2(lambda u: tube_point(spec, s, u), t)
                psi_st = stencil(lambda u: stencil(lambda w: tube_point(spec, w, u), s), t)
                frame = tube_frame(spec.curve, s)
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

    def test_residual_adds_left_to_right(self):
        # on this cylinder K = 0 and H = 1 exactly, so the terms of
        # -1e16*y^2 + y + 1e16 are -1e16, 1, 1e16 at every point: 0 added
        # left to right, 1 by the compensated float sum() of Python 3.12
        spec = geo.TubeSpec(geo.e3_line(), 0.5, geo.SECTION_EUCLIDEAN)
        q = Poly2([((0, 2), -(10**16)), ((0, 1), 1), ((0, 0), 10**16)])
        s_grid, t_grid = geo.default_grids(spec, 3, 4)
        assert {(p.K, p.H) for p in sample_grid(spec, s_grid, t_grid)} == {(0.0, 1.0)}
        assert math.fsum([-1e16, 1.0, 1e16]) == 1.0
        result = geo.verify_relation(q, spec, s_grid, t_grid)
        assert (result.max_residual, result.regular_points) == (0.0, 12)
        assert geo.curvature_csv(q, spec, s_grid, t_grid).endswith(",1,0\n")

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

    SPECIAL = [
        0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308, 1e-310,
        1.7976931348623157e308, 0.1, 1 / 3, -2.5, 7, 12345678901234567890,
        np.float64(0.1), np.float64(-0.0), np.float64(math.nan), np.float64(-math.inf), np.float64(5e-324),
    ]

    @pytest.mark.parametrize("offset", range(0, len(SPECIAL), 3))
    def test_line_matches_per_value_format(self, offset):
        # one %-format for a whole block: the same bytes as formatting each
        # value on its own with f"{v:.17g}", for special and numpy values
        # too, one line per point in row-major order
        def value(k):
            return self.SPECIAL[(offset + k) % len(self.SPECIAL)]

        s, t, *curvatures, xi, residual = values = [value(k) for k in range(8)]
        one = [np.array([[v]]) for v in (*curvatures, xi, residual)]
        assert geo._csv_block(s, t, True, *one) == "\n" + ",".join(f"{v:.17g}" for v in values)
        irregular = "\n" + ",".join(f"{v:.17g}" for v in (s, t, *[math.nan] * 4, xi, residual))
        assert geo._csv_block(s, t, False, *one) == irregular
        # a 2 x 3 block: s per row, t per column, irregular where (i + j) % 3 == 1
        s_col = np.array([[float(value(1))], [float(value(2))]])
        t_row = np.array([float(value(3 + j)) for j in range(3)])
        regular = np.array([[(i + j) % 3 != 1 for j in range(3)] for i in range(2)])
        columns = [np.array([[float(value(6 * c + 3 * i + j)) for j in range(3)] for i in range(2)]) for c in range(6)]
        want = ""
        for i in range(2):
            for j in range(3):
                point = [columns[c][i, j] if regular[i, j] or c >= 4 else math.nan for c in range(6)]
                want += "\n" + ",".join(f"{v:.17g}" for v in (s_col[i, 0], t_row[j], *point))
        assert geo._csv_block(s_col, t_row, regular, *columns) == want

    @settings(max_examples=100, deadline=None)
    @given(block=csv_blocks())
    @example(block=([1.0], [0.0, 1.0], [[True, True]], [[[0.0, -0.0]]] * 6))
    @example(block=([1.0, 2.0, 3.0], 0.5, [[True]] * 3, [[[0.0], [-0.0], [-0.0]]] * 6))
    @example(
        block=(
            [1.0, 2.0, 3.0],
            [0.0, 1.0],
            [[True, True]] * 3,
            [[[_from_bits(0x7FF8000000000001), 1.0], [_from_bits(0x7FF8000000000000), 1.0], [math.nan, 1.0]]] * 6,
        )
    )
    @example(block=([1.0, 2.0, 3.0], [0.0, 1.0], [[True, True]] * 3, [[[0.1, 1.0]] + [[math.nextafter(0.1, 1.0), 1.0]] * 2] * 6))
    @example(block=([1.0, 2.0, 3.0], 0.5, [[False], [False], [True]], [[[1.0], [2.0], [2.0]]] * 4 + [[[0.5]] * 3] * 2))
    def test_deduplicated_block_matches_per_value_format(self, block):
        # each distinct bit pattern is printed once per block, and a row
        # with the bits of the row above reuses its fields: the same bytes
        # as printing every value on its own, for -0.0 beside or below 0.0,
        # NaN payloads beside or below each other, values one ulp apart and
        # rows equal only once their irregular curvatures are nan
        s, t, regular, columns = block
        s_list, t_list = np.atleast_1d(s).tolist(), np.atleast_1d(t).tolist()
        want = ""
        for i, s_value in enumerate(s_list):
            for j, t_value in enumerate(t_list):
                point = [column[i][j] if regular[i][j] or c >= 4 else math.nan for c, column in enumerate(columns)]
                want += "\n" + ",".join(f"{v:.17g}" for v in (s_value, t_value, *point))
        arrays = [np.array(column, dtype=float) for column in columns]
        assert geo._csv_block(s, t, np.array(regular), *arrays) == want

    @settings(max_examples=200, deadline=None)
    @given(block=csv_blocks())
    @example(block=(0.5, -0.0, [[False]], [[[math.nan]], [[math.inf]], [[-math.inf]], [[5e-324]], [[-0.0]], [[0.0]]]))
    def test_joined_lines_match_the_percent_placement(self, block):
        # the joined lines are the bytes of the former %-placed lines, for
        # nan, signed zeros, infinities, subnormals, irregular points and
        # one-row and one-column blocks
        s, t, regular, columns = block
        arrays = [np.array(column, dtype=float) for column in columns]
        assert geo._csv_block(s, t, np.array(regular), *arrays) == percent_placed_csv_block(s, t, np.array(regular), *arrays)

    GRID_TUBES = [
        geo.TubeSpec(geo.e3_circle(1.0), 1.0, geo.SECTION_EUCLIDEAN),  # irregular where cos t = 1
        geo.TubeSpec(geo.l3_spacelike_helix_spacelike_normal(2.0, 1.0), 0.5, geo.SECTION_L_HYPERBOLA, -1),
        geo.TubeSpec(geo.h3_circle(1.0), 0.5, geo.SECTION_HYPERBOLIC),
        # right cylinders: a block of many rows is one kernel row outside H^3
        geo.TubeSpec(geo.e3_line(), 0.5, geo.SECTION_EUCLIDEAN),
        geo.TubeSpec(geo.l3_line("spacelike", "timelike"), 0.5, geo.SECTION_L_HYPERBOLA, -1),
        geo.TubeSpec(geo.h3_geodesic(), 1.0, geo.SECTION_HYPERBOLIC),
    ]

    @settings(max_examples=20, deadline=None)
    @given(spec=st.sampled_from(GRID_TUBES), n_s=st.integers(1, 80), n_t=st.integers(1, 80))
    @example(spec=GRID_TUBES[0], n_s=72, n_t=72)
    @example(spec=GRID_TUBES[2], n_s=45, n_t=3)
    @example(spec=GRID_TUBES[3], n_s=64, n_t=64)
    @example(spec=GRID_TUBES[4], n_s=80, n_t=51)
    @example(spec=GRID_TUBES[5], n_s=33, n_t=64)
    def test_grid_csv_is_the_same_at_every_block_size(self, spec, n_s, n_t):
        # blocks of one row (1 point, and 7 below a row of 8 or more), of a
        # few rows (7 over rows of 1-3 points, which 7 need not divide) and
        # of many rows (1024 and 4096, over grids of up to 80x80, which on
        # the E^3 and L^3 cylinders are one kernel row repeated): the same
        # bytes of the whole grid's CSV
        s_grid, t_grid = geo.default_grids(spec, n_s, n_t)
        default, csvs = geo.BLOCK_POINTS, set()
        try:
            for block_points in (1, 7, 1024, 4096):
                geo.BLOCK_POINTS = block_points
                csvs.add(geo.curvature_csv(X - 2 * Y + Poly2.constant(1), spec, s_grid, t_grid))
        finally:
            geo.BLOCK_POINTS = default
        assert len(csvs) == 1
