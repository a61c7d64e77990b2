"""The row curvature kernel against a per-point scalar reference, bit for bit.

``scalar_point`` below is the per-point evaluation the kernel replaced:
3- and 4-vectors per grid point, with an inner product of its own, on
the per-row frame of ``tube_frame``, which the block frame replaced: a
scalar Frenet frame with a cross product of one ``det`` per minor.  The
kernel must give the same doubles, not merely close ones, because the
pinned verify reports and CSVs print them with 17 significant digits.
"""

import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weingarten_tubes import cli
from weingarten_tubes import geometry as geo
from weingarten_tubes.errors import DegenerateFrame, FormUnderflow, InvalidSpecRow, LightlikeNormal
from weingarten_tubes.polyalg import Poly2

PINNED_TUBES = [
    "e3-line:r=1/2",
    "e3-torus:R=10,r=1/2",
    "e3-torus:R=1,r=1",  # irregular where cos t = 1
    "e3-circle:R=3,r=1/2",
    "e3-helix:a=2,b=1,r=1/2",
    *(
        f"{kind}:a={a},b={b},r=1/2,section={section},delta={delta}"
        for kind, a, b, sections in (
            ("l3-helix-ss", 2, 1, ("circle", "hyperbola")),
            ("l3-helix-st", 1, 1, ("circle", "hyperbola")),
            ("l3-helix-tl", 1, 2, ("circle",)),
        )
        for section in sections
        for delta in (1, -1)
    ),
    *(
        f"l3-line:causality={causality},normal={normal},r=1/2,section={section},delta={delta}"
        for causality, normal, sections in (
            ("spacelike", "spacelike", ("circle", "hyperbola")),
            ("spacelike", "timelike", ("circle", "hyperbola")),
            ("timelike", "spacelike", ("circle",)),
        )
        for section in sections
        for delta in (1, -1)
    ),
    "h3-geodesic:r=1",
    "h3-circle:r0=1,r=1/2",
]


def lorentz_inner(u, v) -> float:
    return float(np.dot(u[:-1], v[:-1]) - u[-1] * v[-1])


def lorentz_cross(*vectors) -> np.ndarray:
    """The formal-determinant cross product, one ``det`` per minor."""
    rows = np.array(vectors, dtype=float)
    dim = rows.shape[1]
    out = np.empty(dim)
    for k in range(dim):
        minor = np.delete(rows, k, axis=1)
        sign = -1.0 if k % 2 else 1.0
        if k == dim - 1:
            sign = -sign  # basis row entry is -e_dim
        out[k] = sign * np.linalg.det(minor)
    return out


def frenet_frame(curve, s: float) -> geo.FrenetFrame:
    """The Frenet frame at s, one row at a time."""
    pos = np.asarray(curve.gamma(s), dtype=float)
    t_vec = np.asarray(curve.d1(s), dtype=float)
    acc = np.asarray(curve.d2(s), dtype=float)
    jerk = np.asarray(curve.d3(s), dtype=float)

    if curve.space == "euclidean":
        kappa = float(np.linalg.norm(acc))
        if kappa < geo.BIREGULARITY_EPS:
            raise DegenerateFrame(f"curve {curve.name!r} has |gamma''| < {geo.BIREGULARITY_EPS} at s={s}")
        n_vec = acc / kappa
        b_vec = np.cross(t_vec, n_vec)
        kappa_dot = float(np.dot(acc, jerk)) / kappa
        n_prime = jerk / kappa - acc * (kappa_dot / kappa**2)
        tau = float(np.dot(n_prime, b_vec))
        return geo.FrenetFrame(pos, t_vec, n_vec, b_vec, kappa, tau, 1, 1, 1)

    if curve.space == "lorentzian":
        h = lorentz_inner(acc, acc)
        if np.linalg.norm(acc) < geo.BIREGULARITY_EPS:
            raise DegenerateFrame(f"curve {curve.name!r} has gamma'' ~ 0 at s={s}")
        if abs(h) < geo.BIREGULARITY_EPS**2:
            raise LightlikeNormal(f"curve {curve.name!r} has lightlike acceleration at s={s}")
        eps_T = 1 if lorentz_inner(t_vec, t_vec) > 0 else -1
        eps_N = 1 if h > 0 else -1
        kappa = math.sqrt(abs(h))
        n_vec = acc / kappa
        b_vec = lorentz_cross(t_vec, n_vec)
        eps_B = -eps_T * eps_N
        kappa_dot = eps_N * lorentz_inner(acc, jerk) / kappa
        n_prime = jerk / kappa - acc * (kappa_dot / kappa**2)
        tau = eps_B * lorentz_inner(n_prime, b_vec)
        return geo.FrenetFrame(pos, t_vec, n_vec, b_vec, kappa, tau, eps_T, eps_N, eps_B)

    w = acc - pos
    ww = lorentz_inner(w, w)
    if ww < geo.BIREGULARITY_EPS**2:
        raise DegenerateFrame(f"curve {curve.name!r} has |gamma'' - gamma| < {geo.BIREGULARITY_EPS} at s={s}")
    kappa = math.sqrt(ww)
    n_vec = w / kappa
    b_vec = lorentz_cross(pos, t_vec, n_vec)
    w_dot = jerk - t_vec
    kappa_dot = lorentz_inner(w, w_dot) / kappa
    n_prime = w_dot / kappa - w * (kappa_dot / kappa**2)
    tau = lorentz_inner(n_prime, b_vec)
    return geo.FrenetFrame(pos, t_vec, n_vec, b_vec, kappa, tau, 1, 1, 1)


def tube_frame(curve, s: float) -> geo.FrenetFrame:
    """The Frenet frame, or for a geodesic its constant completion."""
    if not curve.is_geodesic:
        return frenet_frame(curve, s)
    pos = np.asarray(curve.gamma(s), dtype=float)
    t_vec = np.asarray(curve.d1(s), dtype=float)
    n_vec = np.asarray(curve.normal0, dtype=float)
    b_vec = np.asarray(curve.binormal0, dtype=float)
    eps_B = -curve.eps_T * curve.eps_N if curve.space == "lorentzian" else 1
    return geo.FrenetFrame(pos, t_vec, n_vec, b_vec, 0.0, 0.0, curve.eps_T, curve.eps_N, eps_B)


def scalar_xi(spec, frame, mu: float) -> float:
    r = spec.radius
    if spec.curve.space == "euclidean":
        return 1.0 - r * frame.kappa * mu
    if spec.curve.space == "lorentzian":
        return 1.0 + frame.eps_B * r * frame.kappa * mu
    return math.cosh(r) - frame.kappa * mu * math.sinh(r)


def scalar_point(spec, frame, t: float):
    """(K, H, K_cf, H_cf, xi, eps) at (s, t) given the tube frame at s,
    or the xi alone where |xi| falls below the sampling cutoff."""
    space = spec.curve.space
    r = spec.radius
    kappa, tau = frame.kappa, frame.tau
    T, N, B = frame.T, frame.N, frame.B
    mu, eta, mu_t, eta_t, mu_tt, eta_tt = spec.mu_eta(t)
    xi = scalar_xi(spec, frame, mu)
    if abs(xi) < geo.REGULARITY_CUTOFF:
        return xi

    if space == "hyperbolic":
        sh, ch = math.sinh(r), math.cosh(r)
        t_prime = frame.gamma + kappa * N
        n_prime = -kappa * T + tau * B
        b_prime = -tau * N
        n_second = -kappa * frame.gamma - (kappa**2 + tau**2) * N
        b_second = tau * kappa * T - tau**2 * B
        psi_s = ch * T + sh * (mu * n_prime + eta * b_prime)
        psi_ss = ch * t_prime + sh * (mu * n_second + eta * b_second)
        psi_t = sh * (mu_t * N + eta_t * B)
        psi_ts = sh * (mu_t * n_prime + eta_t * b_prime)
        psi_tt = sh * (mu_tt * N + eta_tt * B)
        k_cf = -kappa * mu / (xi * sh)
        h_cf = (ch - 2.0 * kappa * mu * sh) / (2.0 * xi * sh)
    else:
        if space == "euclidean":
            t_prime = kappa * N
            n_prime = -kappa * T + tau * B
            b_prime = -tau * N
            n_second = -(kappa**2 + tau**2) * N
            b_second = tau * kappa * T - tau**2 * B
        else:
            eT, eN = frame.eps_T, frame.eps_N
            t_prime = kappa * N
            n_prime = -eT * eN * kappa * T + tau * B
            b_prime = eT * tau * N
            n_second = (eT * tau**2 - eT * eN * kappa**2) * N
            b_second = -eN * kappa * tau * T + eT * tau**2 * B
        psi_s = T + r * mu * n_prime + r * eta * b_prime
        psi_ss = t_prime + r * mu * n_second + r * eta * b_second
        psi_t = r * (mu_t * N + eta_t * B)
        psi_ts = r * (mu_t * n_prime + eta_t * b_prime)
        psi_tt = r * (mu_tt * N + eta_tt * B)
        if space == "euclidean":
            k_cf = kappa * mu / (r * (r * kappa * mu - 1.0))
            h_cf = (2.0 * r * kappa * mu - 1.0) / (2.0 * r * (r * kappa * mu - 1.0))
        else:
            eB = frame.eps_B
            sig = mu * mu * frame.eps_N + eta * eta * frame.eps_B
            k_cf = sig * eB * kappa * mu / (r * (1.0 + eB * r * kappa * mu))
            h_cf = sig * (2.0 * eB * r * kappa * mu + 1.0) / (2.0 * r * (1.0 + eB * r * kappa * mu))
    normal = -(mu * N + eta * B)

    inner = (lambda u, v: float(np.dot(u, v))) if space == "euclidean" else lorentz_inner
    eps_f = inner(normal, normal)
    assert abs(abs(eps_f) - 1.0) <= 1e-6
    eps = 1 if eps_f > 0 else -1

    E = inner(psi_s, psi_s)
    F = inner(psi_s, psi_t)
    G = inner(psi_t, psi_t)
    e = inner(psi_ss, normal)
    f = inner(psi_ts, normal)
    g = inner(psi_tt, normal)
    denom = E * G - F * F
    K = eps * (e * g - f * f) / denom
    H = eps * (e * G - 2.0 * f * F + g * E) / (2.0 * denom)
    if not (math.isfinite(K) and math.isfinite(H)):
        raise OverflowError(f"K = {K}, H = {H}")
    return K, H, k_cf, h_cf, xi, eps


def regularity_scan(spec, s_grid, t_grid) -> list:
    """Grid points of the block pass where |xi| < the sampling cutoff, as
    (s, t, xi)."""
    t_grid = list(t_grid)
    found = []
    for s_rows, regular, *_, xi, _ in geo._grid_blocks(spec, s_grid, t_grid):
        found += [(s_rows[i], t_grid[j], xi[i, j].item()) for i, j in zip(*np.nonzero(~regular))]
    return found


def sample_grid(spec, s_grid, t_grid) -> list:
    """The block pass as CurvatureSamples, row-major (s outer, t inner),
    None at irregular points."""
    t_grid = list(t_grid)
    samples = []
    for s_rows, *arrays in geo._grid_blocks(spec, s_grid, t_grid):
        for s, regular, *rows in zip(s_rows, *(a.tolist() for a in arrays)):
            samples += [geo.CurvatureSample(s, t, *values) if ok else None for t, ok, *values in zip(t_grid, regular, *rows)]
    return samples


def bits(values) -> tuple:
    """Exact identity of floats: -0.0 differs from 0.0, nan equals nan."""
    return tuple(struct.pack("<d", v) if isinstance(v, float) else v for v in values)


def grid_points(spec, s_grid, t_grid):
    """The block pass flattened to (s, t, regular, K, H, K_cf, H_cf, xi,
    eps) per point, row-major, as Python values."""
    t_grid = list(t_grid)
    points = []
    for s_rows, *arrays in geo._grid_blocks(spec, s_grid, t_grid):
        assert all(a.shape == (len(s_rows), len(t_grid)) for a in arrays)
        for s, *rows in zip(s_rows, *(a.tolist() for a in arrays)):
            points += [(s, t, *values) for t, *values in zip(t_grid, *rows)]
    return points


def assert_kernel_matches_reference(spec, s_grid, t_grid):
    points = grid_points(spec, s_grid, t_grid)
    assert len(points) == len(s_grid) * len(t_grid)
    expected_irregular = []
    for k, (s, t, regular, *values) in enumerate(points):
        assert (s, t) == (s_grid[k // len(t_grid)], t_grid[k % len(t_grid)])
        want = scalar_point(spec, tube_frame(spec.curve, s), t)
        if isinstance(want, float):
            assert not regular, (s, t)
            assert bits([values[4]]) == bits([want]), (s, t)
            expected_irregular.append((s, t, want))
        else:
            assert regular, (s, t)
            assert bits(values) == bits(want), (s, t)
            assert isinstance(values[5], int)
    assert regularity_scan(spec, s_grid, t_grid) == expected_irregular
    return expected_irregular


@pytest.mark.parametrize("tube", PINNED_TUBES)
def test_every_admissible_row_matches_reference(tube):
    spec, _ = cli._tube_from_arg(tube)
    for n_s, n_t in ((5, 4), (9, 7)):
        s_grid, t_grid = geo.default_grids(spec, n_s, n_t)
        irregular = assert_kernel_matches_reference(spec, s_grid, t_grid)
        if tube == "e3-torus:R=1,r=1":
            assert irregular and all(t == 0.0 for _, t, _ in irregular)


@pytest.mark.parametrize("block_points", [1, 21], ids=["row", "3-rows"])
@pytest.mark.parametrize("tube", PINNED_TUBES)
def test_every_block_size_matches_reference(tube, block_points, monkeypatch):
    # the default block holds every row of these grids; here blocks of one
    # row and of three (21 points of 7 columns: the 9-row grid ends in a
    # full block, the 5-row grid is one block of 5 rows of 4)
    monkeypatch.setattr(geo, "BLOCK_POINTS", block_points)
    test_every_admissible_row_matches_reference(tube)


def test_pinned_rows_cover_the_table():
    kinds = {tube.partition(":")[0] for tube in PINNED_TUBES}
    assert kinds == set(cli._TUBES)
    assert len(PINNED_TUBES) == 27


def test_single_point_is_a_one_point_row():
    spec, _ = cli._tube_from_arg("l3-helix-st:a=1,b=1,r=1/2,section=hyperbola,delta=-1")
    for s, t in ((0.3, 0.4), (-1.2, 0.9)):
        sample = geo.curvatures(spec, s, t)
        want = scalar_point(spec, tube_frame(spec.curve, s), t)
        assert (sample.s, sample.t) == (s, t)
        assert bits((sample.K, sample.H, sample.K_cf, sample.H_cf, sample.xi, sample.eps)) == bits(want)


@pytest.mark.parametrize("tube", ["e3-line:r=1", "h3-circle:r0=1,r=1"])
def test_underflowed_form_fails_like_the_reference(tube):
    # below r ~ 1e-160 the first fundamental form E*G - F*F underflows
    # to 0; the per-point evaluation divides by zero there, and the row
    # raises the domain error the CLI reports with exit 2
    spec, _ = cli._tube_from_arg(tube)
    spec = geo.TubeSpec(spec.curve, 1e-200, spec.section)
    with pytest.raises(ZeroDivisionError):
        scalar_point(spec, tube_frame(spec.curve, 0.5), 0.3)
    with pytest.raises(FormUnderflow, match=r"at \(s, t\) = \(0.5, 0.3\): radius 1e-200 is too small"):
        sample_grid(spec, [0.5], [0.3])


@pytest.mark.parametrize("tube", ["e3-torus:R=2,r=1", "l3-line:r=1", "l3-helix-ss:a=2,b=1,r=1"])
def test_overflowed_curvature_fails_like_the_reference(tube):
    # at r = 1e200 E*G - F*F overflows and H is nan; the per-point
    # evaluation gives the same non-finite pair, and the row raises the
    # OverflowError the CLI reports with exit 2
    spec, _ = cli._tube_from_arg(tube)
    spec = geo.TubeSpec(spec.curve, 1e200, spec.section)
    with pytest.raises(OverflowError, match=r"^K = .*, H = nan$"), np.errstate(all="ignore"):
        scalar_point(spec, tube_frame(spec.curve, 0.5), 0.3)
    with pytest.raises(OverflowError, match=r"at \(s, t\) = \(0.5, 0.3\): radius 1e\+200 is too large"):
        sample_grid(spec, [0.5], [0.3])


@pytest.mark.parametrize("block_points", [1, 8, geo.BLOCK_POINTS], ids=["row", "2-rows", "default"])
def test_first_error_in_row_major_order(monkeypatch, block_points):
    # row 1 has a non-unit normal and row 2 no frame; at r = 1e-100, x^4
    # overflows at every regular point.  Whatever the block size, the
    # first error in row-major order is raised, after the rows before it
    monkeypatch.setattr(geo, "BLOCK_POINTS", block_points)
    spec = geo.TubeSpec(geo.e3_circle(10.0), 1e-100, geo.SECTION_EUCLIDEAN)
    s_grid, t_grid = geo.default_grids(spec, 4, 4)
    frames_of = geo._frames

    def frames(curve, s_rows):
        frame = frames_of(curve, s_rows)
        if s_grid[2] in s_rows:
            raise DegenerateFrame("no frame in row 2")
        return frame._replace(N=np.where(np.equal(s_rows, s_grid[1])[:, None], 2.0 * frame.N, frame.N))

    monkeypatch.setattr(geo, "_frames", frames)
    x, y = Poly2.variable("x"), Poly2.variable("y")
    with pytest.raises(OverflowError) as raised:
        geo.verify_relation(x**4 + y, spec, s_grid, t_grid)
    assert raised.value.args == (34, "Numerical result out of range")
    with pytest.raises(LightlikeNormal, match=rf"at \(s, t\) = \({s_grid[1]}, 0.0\)"):
        geo.verify_relation(x, spec, s_grid, t_grid)
    with pytest.raises(LightlikeNormal):
        regularity_scan(spec, s_grid, t_grid)
    assert len(regularity_scan(spec, s_grid[:1], t_grid)) == 0
    with pytest.raises(DegenerateFrame, match="row 2"):
        sample_grid(spec, [s_grid[0], s_grid[2], s_grid[1]], t_grid)
    # at r = 1e-200 the form underflows at every point: row 0 fails first.
    # In row 1 the normal is unit only where mu = 0 (t = pi/2), and the
    # first non-unit normal (t = pi) is reported, not the underflow before it
    tiny = geo.TubeSpec(spec.curve, 1e-200, spec.section)
    with pytest.raises(FormUnderflow, match=rf"at \(s, t\) = \({s_grid[0]}, 0.0\)"):
        sample_grid(tiny, s_grid[:2], t_grid)
    with pytest.raises(LightlikeNormal, match=re.escape(f"at (s, t) = ({s_grid[1]}, {t_grid[2]})")):
        sample_grid(tiny, s_grid[1:2], t_grid[1:])


FLOATS = st.one_of(
    st.floats(),  # nan and +-inf included
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.3407807929942596e154, -1.4e154, 5.6e102, 1e308, 2.2e-308, 5e-324]),
)


@settings(max_examples=300, deadline=None)
@given(
    terms=st.lists(
        st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 5), st.integers(0, 5)), max_size=5
    ),
    points=st.lists(st.tuples(FLOATS, FLOATS, st.booleans()), min_size=2, max_size=12).filter(lambda p: len(p) % 2 == 0),
)
def test_block_residual_is_the_scalar_expression(terms, points):
    """``_residuals`` on a (2, n) block against the scalar expression with
    Python 3.11's float sum (from 0, left to right, not compensated):
    equal bits at regular points, nan at irregular ones, and an
    OverflowError where the scalar expression raises one first."""

    def scalar(K, H):
        acc = 0
        for c, i, j in terms:
            acc = acc + c * K**i * H**j
        return float(abs(acc))

    K, H, regular = (np.array(column).reshape(2, -1) for column in zip(*points))
    try:
        want = [scalar(k, h) if ok else math.nan for k, h, ok in points]
    except OverflowError as ex:
        with pytest.raises(OverflowError) as raised:
            geo._residuals(terms, regular, K, H)
        assert raised.value.args == ex.args
        return
    assert bits(geo._residuals(terms, regular, K, H).ravel().tolist()) == bits(want)


CURVES = [
    lambda: geo.e3_line(),
    lambda: geo.e3_circle(1.0),
    lambda: geo.e3_circle(3.0),
    lambda: geo.e3_helix(2.0, 1.0),
    lambda: geo.l3_spacelike_helix_spacelike_normal(2.0, 1.0),
    lambda: geo.l3_spacelike_helix_timelike_normal(1.0, 1.0),
    lambda: geo.l3_timelike_helix(1.0, 2.0),
    lambda: geo.l3_line("spacelike", "spacelike"),
    lambda: geo.l3_line("spacelike", "timelike"),
    lambda: geo.l3_line("timelike", "spacelike"),
    lambda: geo.h3_geodesic(),
    lambda: geo.h3_circle(1.0),
]
SECTIONS = {
    "euclidean": [geo.SECTION_EUCLIDEAN],
    "lorentzian": [geo.SECTION_L_CIRCLE, geo.SECTION_L_HYPERBOLA],
    "hyperbolic": [geo.SECTION_HYPERBOLIC],
}


@settings(max_examples=80, deadline=None)
@given(
    curve_index=st.integers(0, len(CURVES) - 1),
    section_index=st.integers(0, 1),
    delta=st.sampled_from([1, -1]),
    radius=st.one_of(st.floats(0.01, 4.0), st.just(1.0)),  # 1.0: irregular on e3_circle(1.0)
    s_unit=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
    t_grid=st.lists(
        st.one_of(st.floats(-3.5, 3.5), st.sampled_from([0.0, math.pi, math.pi / 2])),
        min_size=1,
        max_size=6,
    ),
)
def test_random_tubes_match_reference(curve_index, section_index, delta, radius, s_unit, t_grid):
    curve = CURVES[curve_index]()
    sections = SECTIONS[curve.space]
    section = sections[section_index % len(sections)]
    try:
        spec = geo.TubeSpec(curve, radius, section, delta)
    except InvalidSpecRow:
        return
    lo, hi = curve.domain
    s_grid = [lo + u * (hi - lo) for u in s_unit]
    assert_kernel_matches_reference(spec, s_grid, t_grid)


def test_frenet_frame_is_the_reference_frame():
    # the block frame on one row: same bits, Python floats for kappa and
    # tau and ints for the signs; geodesics fail with the reference message
    for make in CURVES:
        curve = make()
        lo, hi = curve.domain
        for s in (lo, 0.3 * lo + 0.7 * hi):
            try:
                want = frenet_frame(curve, s)
            except DegenerateFrame as ex:
                with pytest.raises(DegenerateFrame) as raised:
                    geo.frenet_frame(curve, s)
                assert raised.value.args == ex.args
                continue
            got = geo.frenet_frame(curve, s)
            assert [type(v) for v in got[4:]] == [float, float, int, int, int]
            assert [bits(v.tolist()) for v in got[:4]] == [bits(v.tolist()) for v in want[:4]]
            assert bits(got[4:]) == bits(want[4:])


def test_block_frame_fails_at_its_first_failing_row():
    # acceleration zero at s = 1/2 and lightlike at s = 1
    curve = geo.CentralCurve(
        space="lorentzian",
        name="test-curve",
        gamma=lambda s: np.zeros(3),
        d1=lambda s: np.array([1.0, 0.0, 0.0]),
        d2=lambda s: (s - 0.5) * np.array([1.0, 0.0, s]),
        d3=lambda s: np.zeros(3),
        domain=(0.0, 1.0),
    )
    for s_rows in ([0.0, 1.0, 0.5], [0.25, 0.5, 1.0], [0.0, 0.25, 0.75]):
        errors = []
        for s in s_rows:
            try:
                frenet_frame(curve, s)
            except (DegenerateFrame, LightlikeNormal) as ex:
                errors.append(ex)
        if not errors:
            assert geo._frames(curve, s_rows).kappa.shape == (3,)
            continue
        with pytest.raises(type(errors[0])) as raised:
            geo._frames(curve, s_rows)
        assert raised.value.args == errors[0].args


def test_vecdot_is_dot_bit_for_bit():
    """The kernel's one ``np.vecdot`` per inner product reproduces the
    per-point ``np.dot`` only where both run the same accumulation (one
    sequential FMA chain on the pinned numpy/OpenBLAS build).  A BLAS
    build without this property makes the verify goldens fail; this
    canary fails here first and names the cause."""
    rng = np.random.default_rng(20231018)
    for dim in (2, 3, 4):  # 2 and 3: the Lorentz slices in L^3 and L^4
        u = rng.standard_normal((20000, dim)) * np.exp(rng.uniform(-20, 20, (20000, 1)))
        v = rng.standard_normal((20000, dim))
        rows = np.vecdot(u, v)
        assert [float(np.dot(a, b)) for a, b in zip(u, v)] == rows.tolist(), dim
    sliced = np.vecdot(u[:, :-1], v[:, :-1])
    assert [float(np.dot(a[:-1], b[:-1])) for a, b in zip(u, v)] == sliced.tolist()



@settings(max_examples=300, deadline=None)
@given(dim=st.sampled_from([3, 4]), rows=st.integers(1, 5), data=st.data())
def test_stacked_cross_is_the_per_vector_cross(dim, rows, data):
    """``lorentz_cross`` of (rows, dim) stacks gives, row by row, the bits
    of its own per-vector call and of the reference's one ``det`` per
    minor."""
    values = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e150, 1e150), st.sampled_from([0.0, -0.0, 1.0, 5e-324]))
    size = (dim - 1) * rows * dim
    vectors = np.array(data.draw(st.lists(values, min_size=size, max_size=size))).reshape(dim - 1, rows, dim)
    with np.errstate(all="ignore"):  # determinants that overflow
        stacked = geo.lorentz_cross(*vectors)
        assert stacked.shape == (rows, dim)
        for k in range(rows):
            row = [v[k] for v in vectors]
            assert bits(stacked[k].tolist()) == bits(geo.lorentz_cross(*row).tolist())
            assert bits(stacked[k].tolist()) == bits(lorentz_cross(*row).tolist())
