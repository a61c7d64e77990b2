"""The row curvature kernel against a per-point scalar reference, bit for bit.

``scalar_point`` below is the per-point evaluation the kernel replaced:
3- and 4-vectors per grid point, with an inner product of its own.  The
kernel must give the same doubles, not merely close ones, because the
pinned verify reports and CSVs print them with 17 significant digits.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weingarten_tubes import cli
from weingarten_tubes import geometry as geo
from weingarten_tubes.errors import InvalidSpecRow

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
    return K, H, k_cf, h_cf, xi, eps


def bits(values) -> tuple:
    """Exact identity of floats: -0.0 differs from 0.0, nan equals nan."""
    return tuple(struct.pack("<d", v) if isinstance(v, float) else v for v in values)


def assert_kernel_matches_reference(spec, s_grid, t_grid):
    points = list(geo._grid_pass(spec, s_grid, t_grid))
    assert len(points) == len(s_grid) * len(t_grid)
    expected_irregular = []
    for k, (s, t, regular, *values) in enumerate(points):
        assert (s, t) == (s_grid[k // len(t_grid)], t_grid[k % len(t_grid)])
        want = scalar_point(spec, geo._tube_frame(spec.curve, s), t)
        if isinstance(want, float):
            assert not regular, (s, t)
            assert bits([values[4]]) == bits([want]), (s, t)
            expected_irregular.append((s, t, want))
        else:
            assert regular, (s, t)
            assert bits(values) == bits(want), (s, t)
            assert isinstance(values[5], int)
    assert geo.regularity_scan(spec, s_grid, t_grid) == expected_irregular
    return expected_irregular


@pytest.mark.parametrize("tube", PINNED_TUBES)
def test_every_admissible_row_matches_reference(tube):
    spec, _ = cli._tube_from_arg(tube)
    for n_s, n_t in ((5, 4), (9, 7)):
        s_grid, t_grid = geo.default_grids(spec, n_s, n_t)
        irregular = assert_kernel_matches_reference(spec, s_grid, t_grid)
        if tube == "e3-torus:R=1,r=1":
            assert irregular and all(t == 0.0 for _, t, _ in irregular)


def test_pinned_rows_cover_the_table():
    kinds = {tube.partition(":")[0] for tube in PINNED_TUBES}
    assert kinds == set(cli._TUBES)
    assert len(PINNED_TUBES) == 27


def test_single_point_is_a_one_point_row():
    spec, _ = cli._tube_from_arg("l3-helix-st:a=1,b=1,r=1/2,section=hyperbola,delta=-1")
    for s, t in ((0.3, 0.4), (-1.2, 0.9)):
        sample = geo.curvatures(spec, s, t)
        want = scalar_point(spec, geo._tube_frame(spec.curve, s), t)
        assert (sample.s, sample.t) == (s, t)
        assert bits((sample.K, sample.H, sample.K_cf, sample.H_cf, sample.xi, sample.eps)) == bits(want)


@pytest.mark.parametrize("tube", ["e3-line:r=1", "h3-circle:r0=1,r=1"])
def test_underflowed_form_fails_like_the_reference(tube):
    # below r ~ 1e-160 the first fundamental form E*G - F*F underflows
    # to 0; the per-point evaluation raised there, and so does the row
    spec, _ = cli._tube_from_arg(tube)
    spec = geo.TubeSpec(spec.curve, 1e-200, spec.section)
    with pytest.raises(ZeroDivisionError):
        scalar_point(spec, geo._tube_frame(spec.curve, 0.5), 0.3)
    with pytest.raises(ZeroDivisionError, match="float division by zero"):
        geo.sample_grid(spec, [0.5], [0.3])


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

