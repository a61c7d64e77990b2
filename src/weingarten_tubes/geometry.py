"""Numeric tube surfaces and their curvatures in E^3, L^3 and H^3.

Everything here is double-precision floating point; the algebra modules
never consume these values for decisions.  The module builds tubes over
built-in central curves (each shipping analytic derivatives to order
three), evaluates first and second fundamental forms through the frame
derivative equations, and compares the resulting Gaussian/mean
curvatures against the closed forms, so algebraic classifications can
be verified on sampled surfaces.

A sample grid is walked in one place, ``_grid_blocks``: one ``mu_eta``
per t column, then blocks of whole s-rows of at most ``BLOCK_POINTS``
points, each one call of the kernel ``_block`` (one ``_frames`` call
for the rows, whose one-row case is ``frenet_frame``, and all points as
(rows, n_t, dim) arrays); every grid function, ``curvatures`` as a
one-point block, reads that pass, and ``verify`` takes residual, argmax
and CSV per block.  The kernel gives the bits of per-point scalar
evaluation on per-row frames (the reference in
``tests/test_row_kernel.py``): section values and powers above 1 come
from Python's ``math`` and ``pow``, as numpy's SIMD libm can differ in
the last ulp; array expressions keep the scalar operand order; each
inner product is one ``np.vecdot``, the same sequential FMA chain as
``np.dot`` on this numpy/OpenBLAS build; a block's cross-product minors
go to one batched ``det``, which keeps each matrix's LAPACK bits.

Importing this module imports numpy.  A process that runs only exact
algebra loads neither: ``cli`` puts this module in ``sys.modules`` as a
lazy module (``importlib.util.LazyLoader``), whose source is compiled
and run, numpy import included, on its first attribute lookup, which
only ``verify`` makes.  The entry is there as soon as ``cli`` is
imported, for callers that look the module up in ``sys.modules``
(``bench/spans.py``), and an import of this module before or after
``cli`` gives the one module object.

Conventions:

* Lorentzian inner product: sum of the first dim-1 coordinate products
  minus the last.
* Lorentzian cross product: formal determinant whose basis row ends in
  -e_dim, so e1 x e2 = -e3 in L^3.
* Frame equations (Lopez's Lorentzian form, IEJG 2014): T' = kappa N,
  N' = -eps_T eps_N kappa T + tau B, B' = eps_T tau N, with tau defined
  as the N'-coefficient so the matrix holds exactly.  E^3 and H^3 frames
  obey them at eps_T = eps_N = -1, signs local to the kernel (the frames
  report +1); a hyperbolic curve, in the hyperboloid model in L^4, adds
  gamma' = T and T' = gamma + kappa N.  Every built-in curve has constant
  curvature and torsion, so the second frame derivatives carry no kappa'
  or tau' terms.
* Tube normal: -(mu N + eta B) in E^3/L^3 and -(cos t N + sin t B) in
  H^3 (the inward normal; with it the fundamental-form curvatures agree
  with the closed forms, including the right-cylinder value
  H = +1/(2r)).  The H^3 closed forms were derived with this same
  normal, which is not tangent to H^3 at the tube point
  (<normal, psi> = -sinh r).  The H^3 residual is therefore a
  consistency check of the code against its own convention, not an
  independent one, until the H^3 convention is settled (ROADMAP item 2).
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, TextIO

import numpy as np

from .errors import (
    DegenerateFrame,
    DimensionMismatch,
    FormUnderflow,
    InvalidSpecRow,
    IrregularPoint,
    LightlikeNormal,
    NonpositiveRadius,
    NoRegularPoints,
    ZeroPolynomial,
)
from .polyalg import Poly2


BIREGULARITY_EPS = 1e-10
REGULARITY_CUTOFF = 1e-3


def _inner(space: str, u, v):
    """The space's inner product over the last axis (H^3 lives in L^4)."""
    if space == "euclidean":
        return np.vecdot(u, v)
    return np.vecdot(u[..., :-1], v[..., :-1]) - u[..., -1] * v[..., -1]


def lorentz_cross(*vectors) -> np.ndarray:
    """Formal-determinant cross product of dim-1 vectors in L^3 or L^4, or
    row by row of equal stacks of them, shaped (..., dim); the basis row
    carries -e_dim, so the result is Lorentz-orthogonal to every input.
    All minors go to one batched ``det``."""
    vs = [np.asarray(v, dtype=float) for v in vectors]
    if not vs or vs[0].shape[-1:] not in ((3,), (4,)):
        raise DimensionMismatch("need 3- or 4-dimensional vectors")
    dim = vs[0].shape[-1]
    if len(vs) != dim - 1 or any(v.shape != vs[0].shape for v in vs):
        raise DimensionMismatch(f"need exactly {dim - 1} vectors of dimension {dim}")
    columns = [[j for j in range(dim) if j != k] for k in range(dim)]
    minors = np.stack(vs, axis=-2)[..., columns].swapaxes(-3, -2)  # (..., k, vector, column)
    signs = [(-1.0) ** k for k in range(dim - 1)] + [(-1.0) ** dim]  # basis row entry is -e_dim
    return signs * np.linalg.det(minors)


def _pow(x, n: int):
    """x**n per element by Python's float power, which raises OverflowError."""
    return np.frompyfunc(pow, 2, 1)(x, n).astype(float)


class CentralCurve(NamedTuple):
    """Unit-speed central curve with analytic derivatives to order 3.

    eps_T/eps_N are the (constant) causalities of the tangent and
    principal normal; both are +1 outside the Lorentzian space.  For
    geodesics (kappa = 0) no Frenet frame exists and a constant
    orthonormal completion (normal0, binormal0) is carried instead.
    Curvature and torsion are constant along every built-in curve.
    """

    space: str
    name: str
    gamma: Callable[[float], np.ndarray]
    d1: Callable[[float], np.ndarray]
    d2: Callable[[float], np.ndarray]
    d3: Callable[[float], np.ndarray]
    domain: tuple[float, float]
    periodic: bool = False
    eps_T: int = 1
    eps_N: int = 1
    normal0: Optional[tuple[float, ...]] = None
    binormal0: Optional[tuple[float, ...]] = None

    @property
    def is_geodesic(self) -> bool:
        return self.normal0 is not None


class FrenetFrame(NamedTuple):
    gamma: np.ndarray
    T: np.ndarray
    N: np.ndarray
    B: np.ndarray
    kappa: float
    tau: float
    eps_T: int
    eps_N: int
    eps_B: int


def _frames(curve: CentralCurve, s_rows: Sequence[float]) -> FrenetFrame:
    """The frames at the parameters s_rows as one record of (rows, dim)
    vectors and (rows,) kappa, tau and signs; a geodesic gets its constant
    completion.  Raises for the first row where the curve is not biregular
    (DegenerateFrame) or its acceleration numerically lightlike
    (LightlikeNormal), with that row's s."""
    space = curve.space
    derivatives = (curve.gamma, curve.d1, curve.d2, curve.d3)
    pos, t_vec, acc, jerk = (np.array([d(s) for s in s_rows], dtype=float) for d in derivatives)
    ones = np.ones(len(s_rows))
    if curve.is_geodesic:
        n_vec, b_vec = (np.broadcast_to(np.asarray(v, dtype=float), pos.shape) for v in (curve.normal0, curve.binormal0))
        eps = (curve.eps_T, curve.eps_N, -curve.eps_T * curve.eps_N if space == "lorentzian" else 1)
        return FrenetFrame(pos, t_vec, n_vec, b_vec, 0.0 * ones, 0.0 * ones, *(e * ones for e in eps))

    # the hyperbolic frame is built on gamma'' - gamma and its derivative
    w, w_dot = (acc - pos, jerk - t_vec) if space == "hyperbolic" else (acc, jerk)
    h = _inner(space, w, w)
    kappa = np.sqrt(abs(h))
    if space == "euclidean":
        degenerate, what = kappa < BIREGULARITY_EPS, f"has |gamma''| < {BIREGULARITY_EPS}"
    elif space == "lorentzian":
        degenerate, what = np.sqrt(np.vecdot(acc, acc)) < BIREGULARITY_EPS, "has gamma'' ~ 0"
    else:
        degenerate, what = h < BIREGULARITY_EPS**2, f"has |gamma'' - gamma| < {BIREGULARITY_EPS}"
    failed = degenerate | ((abs(h) < BIREGULARITY_EPS**2) & (space == "lorentzian"))
    if failed.any():
        k = int(failed.argmax())
        if degenerate[k]:
            raise DegenerateFrame(f"curve {curve.name!r} {what} at s={s_rows[k]}")
        raise LightlikeNormal(f"curve {curve.name!r} has lightlike acceleration at s={s_rows[k]}")

    eps_T = eps_N = eps_B = ones
    if space == "lorentzian":
        eps_T, eps_N = (np.where(v > 0, 1.0, -1.0) for v in (_inner(space, t_vec, t_vec), h))
        eps_B = -eps_T * eps_N
    n_vec = w / kappa[:, None]
    if space == "euclidean":
        b_vec = np.cross(t_vec, n_vec)
    else:
        b_vec = lorentz_cross(*([pos] if space == "hyperbolic" else []), t_vec, n_vec)
    kappa_dot = eps_N * _inner(space, w, w_dot) / kappa
    n_prime = w_dot / kappa[:, None] - w * (kappa_dot / _pow(kappa, 2))[:, None]
    # tau is the B-coefficient of N' so the frame equations hold exactly
    tau = eps_B * _inner(space, n_prime, b_vec)
    return FrenetFrame(pos, t_vec, n_vec, b_vec, kappa, tau, eps_T, eps_N, eps_B)


def frenet_frame(curve: CentralCurve, s: float) -> FrenetFrame:
    """Frame at parameter s, the block frame on one row.  Raises
    DegenerateFrame where the curve is not biregular, geodesics included
    (the tube machinery takes their constant completion instead), and
    LightlikeNormal if the acceleration is numerically lightlike."""
    # without its completion a geodesic fails the biregularity check
    frame = _frames(curve._replace(normal0=None, binormal0=None), [s])
    return FrenetFrame(*(v[0] for v in frame[:4]), *(v.item() for v in frame[4:6]), *(int(e.item()) for e in frame[6:]))


# ---------------------------------------------------------------------------
# tube construction

SECTION_EUCLIDEAN = "euclidean-circle"
SECTION_L_CIRCLE = "lorentz-circle"
SECTION_L_HYPERBOLA = "lorentz-hyperbola"
SECTION_HYPERBOLIC = "hyperbolic-circle"

# The table of admissible tubes: (space, eps_T, eps_N, section) of every
# tube that exists -> (circular, swapped).  (mu, eta) is (delta cos t, sin t)
# on a circular row, else (delta cosh t, sinh t), or (sinh t, delta cosh t)
# when swapped; delta is 1 outside L^3.
_SECTION_ROWS = {
    ("euclidean", 1, 1, SECTION_EUCLIDEAN): (True, False),
    ("hyperbolic", 1, 1, SECTION_HYPERBOLIC): (True, False),
    ("lorentzian", 1, 1, SECTION_L_CIRCLE): (False, False),
    ("lorentzian", 1, -1, SECTION_L_CIRCLE): (False, True),
    ("lorentzian", -1, 1, SECTION_L_CIRCLE): (True, False),
    ("lorentzian", 1, 1, SECTION_L_HYPERBOLA): (False, True),
    ("lorentzian", 1, -1, SECTION_L_HYPERBOLA): (False, False),
}
# a space's message for a section none of its rows has
_SECTION_ERRORS = {
    "euclidean": f"Euclidean tubes use {SECTION_EUCLIDEAN!r}",
    "hyperbolic": f"hyperbolic tubes use {SECTION_HYPERBOLIC!r}",
    "lorentzian": "Lorentzian tubes use circle or hyperbola sections, got {!r}",
}


def _section_row(curve: CentralCurve, section: str) -> tuple[bool, bool]:
    """The table row of the tube over curve with this section; raises
    InvalidSpecRow if no such tube exists."""
    row = _SECTION_ROWS.get((curve.space, curve.eps_T, curve.eps_N, section))
    if row is None and all(key[::3] != (curve.space, section) for key in _SECTION_ROWS):
        raise InvalidSpecRow(_SECTION_ERRORS.get(curve.space, _SECTION_ERRORS["lorentzian"]).format(section))
    if row is None:
        raise InvalidSpecRow(f"no tube with curve causality {curve.eps_T}, normal causality {curve.eps_N} and section {section!r} exists")
    return row


class _TubeSpec(NamedTuple):
    curve: CentralCurve
    radius: float
    section: str
    delta: int = 1
    name: str = ""


class TubeSpec(_TubeSpec):
    """A tube: central curve, radius, normal-section type and the sign
    delta selecting the branch of the section parametrization.

    In the hyperbolic space ``radius`` is the geodesic tube radius r
    itself (the algebra modules work in sinh r; the conversion happens
    at the reporting layer)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, curve: CentralCurve, radius: float, section: str, delta: int = 1, name: str = ""):
        if not radius > 0:
            raise NonpositiveRadius(f"tube radius must be positive, got {radius}")
        if delta not in (-1, 1):
            raise ValueError("delta must be -1 or +1")
        _section_row(curve, section)
        return super().__new__(cls, curve, radius, section, delta, name)

    def mu_eta(self, t: float) -> tuple[float, float, float, float, float, float]:
        """(mu, eta, mu', eta', mu'', eta'') at section parameter t."""
        circular, swapped = _section_row(self.curve, self.section)
        a, b = (math.cos(t), math.sin(t)) if circular else (math.cosh(t), math.sinh(t))
        d = float(self.delta) if self.curve.space == "lorentzian" else 1.0
        sign = -1.0 if circular else 1.0  # exact: -1.0 * d * b has the bits of -d * b
        mu, eta, mu_t, eta_t, mu_tt, eta_tt = d * a, b, sign * d * b, a, sign * d * a, sign * b
        return (eta, mu, eta_t, mu_t, eta_tt, mu_tt) if swapped else (mu, eta, mu_t, eta_t, mu_tt, eta_tt)


class CurvatureSample(NamedTuple):
    s: float
    t: float
    K: float
    H: float
    K_cf: float
    H_cf: float
    xi: float
    eps: int


# Points per block of the grid pass, bounded for memory: the kernel's
# arrays peak at about 0.3 KB per point.  On a 512x512 H^3 grid (2-vCPU x86
# host) one whole-grid block raised peak RSS from 30 to 112 MB.  A 512x512
# torus with --csv took 0.92 s in blocks of 4096 points and 0.96 s in blocks
# of 1024, at peaks of 34.4 and 31.8 MB.
BLOCK_POINTS = 1024


def _block(spec: TubeSpec, s_rows: list, t_grid: list, sec: np.ndarray) -> tuple:
    """The curvature kernel over a block of s-rows: the block's tube frames
    as (rows, 1, dim) and (rows, 1, 1) arrays, against the
    (6, 1, n_t, 1) section values (mu, eta, mu', eta', mu'', eta'') of the
    t columns.  K and H come from the first/second fundamental forms of
    psi = A*gamma + rho*(mu N + eta B), (A, rho) = (1, r), or
    (cosh r, sinh r) in H^3, through the one set of frame equations of the
    module docstring and the N'' and B'' they give, with H^3's gamma terms
    and its own grouping of psi_s and psi_ss.  K_cf and H_cf are the closed
    forms: E^3's xi and K_cf are L^3's at eps_B = -1, sig = 1, and so is
    its H_cf but for the sign of a zero.  Returns the (rows, n_t)
    arrays regular, K, H, K_cf, H_cf, xi and eps, where all but xi mean
    something only at regular points.  Raises LightlikeNormal at a regular
    point whose normal is not unit, else FormUnderflow where E*G - F^2 is
    0, else OverflowError where K or H is not finite.  cosh r, kappa**2
    and tau**2 are Python float powers, so they overflow with the same
    OverflowError as per point.  The frames' numpy warnings are silenced:
    they would depend on the block size, as a block builds frames past a
    row that fails."""
    space = spec.curve.space
    r = spec.radius
    with np.errstate(all="ignore"):
        frame = _frames(spec.curve, s_rows)
    ch, rho = (math.cosh(r), math.sinh(r)) if space == "hyperbolic" else (None, r)
    gamma, T, N, B = (v[:, None, :] for v in frame[:4])
    kappa, tau = (v[:, None, None] for v in frame[4:6])
    # E^3 and H^3 frames obey the Lorentzian frame equations at these signs
    eT, eN, eB = (v[:, None, None] for v in frame[6:]) if space == "lorentzian" else (-1.0, -1.0, -1.0)
    kappa2, tau2 = _pow(kappa, 2), _pow(tau, 2)
    mu, eta, mu_t, eta_t, mu_tt, eta_tt = sec
    # the closed forms divide by xi ~ 0 at irregular points
    with np.errstate(all="ignore"):
        t_prime = kappa * N
        n_prime = -eT * eN * kappa * T + tau * B
        b_prime = eT * tau * N
        n_second = (eT * tau2 - eT * eN * kappa2) * N
        b_second = -eN * kappa * tau * T + eT * tau2 * B
        psi_t = rho * (mu_t * N + eta_t * B)
        psi_ts = rho * (mu_t * n_prime + eta_t * b_prime)
        psi_tt = rho * (mu_tt * N + eta_tt * B)
        if space == "hyperbolic":
            t_prime = gamma + t_prime
            n_second = n_second - kappa * gamma
            xi = ch - kappa * mu * rho
            psi_s = ch * T + rho * (mu * n_prime + eta * b_prime)
            psi_ss = ch * t_prime + rho * (mu * n_second + eta * b_second)
            k_cf = -kappa * mu / (xi * rho)
            h_cf = (ch - 2.0 * kappa * mu * rho) / (2.0 * xi * rho)
        else:
            r_mu, r_eta = r * mu, r * eta
            psi_s = T + r_mu * n_prime + r_eta * b_prime
            psi_ss = t_prime + r_mu * n_second + r_eta * b_second
            xi = 1.0 + eB * r * kappa * mu
            sig = mu * mu * eN + eta * eta * eB if space == "lorentzian" else 1.0
            k_cf = sig * eB * kappa * mu / (r * xi)
            if space == "lorentzian":
                h_cf = sig * (2.0 * eB * r * kappa * mu + 1.0) / (2.0 * r * xi)
            else:  # the Lorentzian H_cf at eps_B = -1, sig = 1 is 0 where this is -0
                h_cf = (2.0 * r * kappa * mu - 1.0) / (2.0 * r * (r * kappa * mu - 1.0))
        regular = ~(abs(xi) < REGULARITY_CUTOFF)
        normal = -(mu * N + eta * B)

        def inner(u, v):
            return _inner(space, u, v)[..., None]

        eps_f = inner(normal, normal)
        E = inner(psi_s, psi_s)
        F = inner(psi_s, psi_t)
        G = inner(psi_t, psi_t)
        e = inner(psi_ss, normal)
        f = inner(psi_ts, normal)
        g = inner(psi_tt, normal)
        denom = E * G - F * F
        eps = np.where(eps_f > 0, 1, -1)
        K = eps * (e * g - f * f) / denom
        H = eps * (e * G - 2.0 * f * F + g * E) / (2.0 * denom)
        bad = regular & (abs(abs(eps_f) - 1.0) > 1e-6)
        underflow = regular & (denom == 0.0)  # r below ~1e-160
        overflow = regular & ~(np.isfinite(K) & np.isfinite(H))  # large r: the forms overflow to inf/inf
        failed = next((where for where in (bad, underflow, overflow) if where.any()), None)
        if failed is not None:
            k = int(failed.argmax())
            at = f"(s, t) = ({s_rows[k // len(t_grid)]}, {t_grid[k % len(t_grid)]})"
            if failed is bad:
                raise LightlikeNormal(f"|<normal, normal>| = {abs(eps_f.flat[k]):.6f} is not 1 at {at}")
            if failed is underflow:
                raise FormUnderflow(
                    f"first fundamental form underflows (E*G - F^2 = 0) at {at}: radius {r!r} is too small for double precision"
                )
            raise OverflowError(
                f"K = {float(K.flat[k])}, H = {float(H.flat[k])} at {at}: radius {r!r} is too large for double precision"
            )
    return tuple(a[..., 0] for a in (regular, K, H, k_cf, h_cf, xi, eps))


def _grid_blocks(spec: TubeSpec, s_grid: Sequence[float], t_grid: list) -> Iterator[tuple]:
    """The one walk over a sample grid, row-major (s outer, t inner), in
    blocks of whole s-rows of at most ``BLOCK_POINTS`` points (one row if
    a row is longer): one ``mu_eta`` per t column, then per block one
    ``_block`` call.  Yields the block's s values and its (rows, n_t)
    arrays.  A block that fails is walked again one row at a time, so the
    first error in row-major order is raised after the rows before it."""
    s_grid = list(s_grid)
    sec = np.array([spec.mu_eta(t) for t in t_grid], dtype=float).reshape(-1, 6).T.reshape(6, 1, -1, 1)
    step = max(1, BLOCK_POINTS // max(1, len(t_grid)))
    for start in range(0, len(s_grid), step):
        s_rows = s_grid[start : start + step]
        try:
            block = _block(spec, s_rows, t_grid, sec)
        except Exception:  # raised again below, by the row that fails
            block = None
        if block is not None:
            yield s_rows, *block
            continue
        for s in s_rows:
            yield [s], *_block(spec, [s], t_grid, sec)


def curvatures(spec: TubeSpec, s: float, t: float) -> CurvatureSample:
    """Gaussian and mean curvature at one regular tube point: the kernel
    on a one-point block.  Raises IrregularPoint when |xi| falls below the
    sampling cutoff."""
    ((_, regular, *values),) = _grid_blocks(spec, [s], [t])
    values = [v.item() for v in values]
    if not regular.item():
        raise IrregularPoint(f"|xi| = {abs(values[4]):.3e} < {REGULARITY_CUTOFF} at (s, t) = ({s}, {t})")
    return CurvatureSample(s, t, *values)


def _residuals(terms: list[tuple[float, int, int]], regular: np.ndarray, K: np.ndarray, H: np.ndarray) -> np.ndarray:
    """|Q(K, H)| at the regular points of a block, nan elsewhere, with the
    bits of the scalar ``abs(sum(c * K**i * H**j for c, i, j in terms))``
    of Python 3.11, whose float ``sum`` is not compensated: the terms
    accumulate left to right.  A power above 1 is Python's float pow per
    element (libm ``pow``; numpy's SIMD power rounds differently), so one
    that overflows raises OverflowError as the scalar expression does."""
    bases = (np.where(regular, K, 0.0), np.where(regular, H, 0.0))  # irregular points must not raise

    def power(v: int, n: int):
        if n < 2:  # x**0 is 1.0 and x**1 is x for every float, nan and inf included
            return bases[v] if n else 1.0
        return _pow(bases[v], n)

    acc = 0.0
    with np.errstate(all="ignore"):
        for c, i, j in terms:
            acc = acc + c * power(0, i) * power(1, j)
    return np.where(regular, abs(acc), np.nan)


class VerificationResult(NamedTuple):
    max_residual: float
    argmax_s: float
    argmax_t: float
    regular_points: int
    total_points: int


CSV_HEADER = "s,t,K,H,K_cf,H_cf,xi,residual"
_CSV_LINE = "\n" + ",".join(["%s"] * 8)


def _csv_block(s, t, regular, *columns) -> str:
    """CSV lines of a block, each led by a newline: s and t against the
    (rows, n_t) columns K, H, K_cf, H_cf, xi and residual, nan curvatures
    at irregular points.  A 17-digit print costs about 0.5 us and most
    values repeat (on constant-curvature curves K_cf, H_cf and xi vary with
    t alone), so one %-format prints s, t and each distinct bit pattern of
    the six columns once (0.0 and -0.0 print 0 and -0); a second places them."""
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
    return _CSV_LINE * (table.size // 8) % tuple(table.ravel().tolist())


def _verification(
    q: Poly2,
    spec: TubeSpec,
    s_grid: Sequence[float],
    t_grid: Sequence[float],
    write_csv: Optional[Callable[[str], object]],
    checked: bool,
) -> VerificationResult:
    """The grid pass with |Q(K, H)| per regular point, its maximum and where
    it first occurs (nan never wins); with ``write_csv`` given, each block's
    CSV lines are passed to it.  Q's coefficients become floats once, at the
    first block with a regular point.  ``checked`` refuses the zero
    polynomial and a grid without regular points."""
    if checked and q.is_zero:
        raise ZeroPolynomial("verification needs a nonzero relation")
    t_grid = list(t_grid)
    terms = None
    best, arg, regular_points, total = -1.0, (float("nan"), float("nan")), 0, 0
    for s_rows, regular, K, H, K_cf, H_cf, xi, _ in _grid_blocks(spec, s_grid, t_grid):
        if terms is None and regular.any():
            terms = [(float(c), i, j) for (i, j), c in q.terms()]
        residual = _residuals(terms or [], regular, K, H)
        peak = np.fmax.reduce(residual, axis=None, initial=-math.inf)
        if peak > best:
            best = float(peak)
            row, col = divmod(int(np.argmax(residual == peak)), len(t_grid))
            arg = (s_rows[row], t_grid[col])
        regular_points += int(regular.sum())
        total += regular.size
        if write_csv is not None:
            write_csv(_csv_block(s_rows, t_grid, regular, K, H, K_cf, H_cf, xi, residual))
    if checked and not regular_points:
        raise NoRegularPoints("every grid point is irregular")
    return VerificationResult(best, *arg, regular_points, total)


def verify_relation(
    q: Poly2, spec: TubeSpec, s_grid: Sequence[float], t_grid: Sequence[float], out: Optional[TextIO] = None
) -> VerificationResult:
    """Max |Q(K, H)| over the regular grid points and where it occurs.
    With ``out`` given, the text of ``curvature_csv`` is written to it from
    the same evaluation of each grid point, one block at a time, so no more
    than one block's text is held; when the pass raises, the blocks before
    the error are already written."""
    if out is None:
        return _verification(q, spec, s_grid, t_grid, None, True)
    out.write(CSV_HEADER)
    result = _verification(q, spec, s_grid, t_grid, out.write, True)
    out.write("\n")
    return result


def curvature_csv(
    q: Poly2, spec: TubeSpec, s_grid: Sequence[float], t_grid: Sequence[float]
) -> str:
    """CSV dump of the sampled grid: fixed header, 17 significant digits,
    row-major order; irregular points carry nan curvature columns."""
    lines = [CSV_HEADER]
    _verification(q, spec, s_grid, t_grid, lines.append, False)
    return "".join(lines) + "\n"


def default_grids(spec: TubeSpec, n_s: int, n_t: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic sampling grids: the curve domain in s (half-open for
    periodic curves) and the natural section range in t: a full period
    for circle-type sections, [-1, 1] for hyperbolic-function sections."""
    lo, hi = spec.curve.domain
    s_grid = np.linspace(lo, hi, n_s, endpoint=not spec.curve.periodic)
    circular, _ = _section_row(spec.curve, spec.section)
    if circular:
        return s_grid, np.linspace(0.0, 2.0 * math.pi, n_t, endpoint=False)
    return s_grid, np.linspace(-1.0, 1.0, n_t, endpoint=True)


# ---------------------------------------------------------------------------
# built-in central curves


def e3_line() -> CentralCurve:
    return CentralCurve(
        space="euclidean",
        name="e3-line",
        gamma=lambda s: np.array([s, 0.0, 0.0]),
        d1=lambda s: np.array([1.0, 0.0, 0.0]),
        d2=lambda s: np.zeros(3),
        d3=lambda s: np.zeros(3),
        domain=(0.0, 2.0 * math.pi),
        normal0=(0.0, 1.0, 0.0),
        binormal0=(0.0, 0.0, 1.0),
    )


def e3_circle(R: float) -> CentralCurve:
    if not R > 0:
        raise ValueError("circle radius must be positive")
    w = 1.0 / R
    return CentralCurve(
        space="euclidean",
        name=f"e3-circle(R={R:g})",
        gamma=lambda s: np.array([R * math.cos(w * s), R * math.sin(w * s), 0.0]),
        d1=lambda s: np.array([-math.sin(w * s), math.cos(w * s), 0.0]),
        d2=lambda s: np.array([-w * math.cos(w * s), -w * math.sin(w * s), 0.0]),
        d3=lambda s: np.array([w * w * math.sin(w * s), -w * w * math.cos(w * s), 0.0]),
        domain=(0.0, 2.0 * math.pi * R),
        periodic=True,
    )


def _circular_helix(
    space: str, name: str, a: float, b: float, c: float, eps_T: int, eps_N: int
) -> CentralCurve:
    """Unit-speed helix (a cos(s/c), a sin(s/c), b s/c) over one turn."""
    w = 1.0 / c
    return CentralCurve(
        space=space,
        name=name,
        gamma=lambda s: np.array([a * math.cos(w * s), a * math.sin(w * s), b * w * s]),
        d1=lambda s: np.array([-a * w * math.sin(w * s), a * w * math.cos(w * s), b * w]),
        d2=lambda s: np.array([-a * w * w * math.cos(w * s), -a * w * w * math.sin(w * s), 0.0]),
        d3=lambda s: np.array([a * w**3 * math.sin(w * s), -a * w**3 * math.cos(w * s), 0.0]),
        domain=(0.0, 2.0 * math.pi * c),
        eps_T=eps_T,
        eps_N=eps_N,
    )


def e3_helix(a: float, b: float) -> CentralCurve:
    if not a > 0:
        raise ValueError("helix needs a > 0")
    return _circular_helix("euclidean", f"e3-helix(a={a:g},b={b:g})", a, b, math.hypot(a, b), 1, 1)


def l3_spacelike_helix_spacelike_normal(a: float, b: float) -> CentralCurve:
    """Spacelike helix with spacelike principal normal: needs a > |b|."""
    if not a > abs(b):
        raise ValueError("spacelike helix with spacelike normal needs a > |b|")
    c = math.sqrt(a * a - b * b)
    return _circular_helix("lorentzian", f"l3-helix-ss(a={a:g},b={b:g})", a, b, c, 1, 1)


def l3_spacelike_helix_timelike_normal(a: float, b: float) -> CentralCurve:
    """Spacelike helix with timelike principal normal: needs a > 0."""
    if not a > 0:
        raise ValueError("helix needs a > 0")
    c = math.hypot(a, b)
    w = 1.0 / c
    return CentralCurve(
        space="lorentzian",
        name=f"l3-helix-st(a={a:g},b={b:g})",
        gamma=lambda s: np.array([a * math.sinh(w * s), b * w * s, a * math.cosh(w * s)]),
        d1=lambda s: np.array([a * w * math.cosh(w * s), b * w, a * w * math.sinh(w * s)]),
        d2=lambda s: np.array([a * w * w * math.sinh(w * s), 0.0, a * w * w * math.cosh(w * s)]),
        d3=lambda s: np.array([a * w**3 * math.cosh(w * s), 0.0, a * w**3 * math.sinh(w * s)]),
        domain=(-math.pi, math.pi),
        eps_T=1,
        eps_N=-1,
    )


def l3_timelike_helix(a: float, b: float) -> CentralCurve:
    """Timelike helix (spacelike principal normal): needs b > a > 0."""
    if not (b > a > 0):
        raise ValueError("timelike helix needs b > a > 0")
    c = math.sqrt(b * b - a * a)
    return _circular_helix("lorentzian", f"l3-helix-tl(a={a:g},b={b:g})", a, b, c, -1, 1)


def l3_line(causality: str = "spacelike", normal: str = "spacelike") -> CentralCurve:
    """Lorentzian geodesic with a constant orthonormal completion whose
    normal has the requested causality."""
    if causality == "spacelike":
        direction = np.array([1.0, 0.0, 0.0])
        eps_T = 1
        if normal == "spacelike":
            n0, b0, eps_N = (0.0, 1.0, 0.0), (0.0, 0.0, -1.0), 1  # b0 = e1 x e2 = -e3
        elif normal == "timelike":
            n0, b0, eps_N = (0.0, 0.0, 1.0), (0.0, -1.0, 0.0), -1  # b0 = e1 x e3 = -e2
        else:
            raise ValueError("normal must be spacelike or timelike")
    elif causality == "timelike":
        if normal != "spacelike":
            raise InvalidSpecRow("a timelike geodesic has a spacelike normal plane")
        direction = np.array([0.0, 0.0, 1.0])
        eps_T = -1
        n0, b0, eps_N = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), 1  # b0 = e3 x e1 = e2
    else:
        raise ValueError("causality must be spacelike or timelike")
    return CentralCurve(
        space="lorentzian",
        name=f"l3-line({causality},{normal})",
        gamma=lambda s: s * direction,
        d1=lambda s: direction.copy(),
        d2=lambda s: np.zeros(3),
        d3=lambda s: np.zeros(3),
        domain=(0.0, 2.0 * math.pi),
        eps_T=eps_T,
        eps_N=eps_N,
        normal0=n0,
        binormal0=b0,
    )


def h3_geodesic() -> CentralCurve:
    return CentralCurve(
        space="hyperbolic",
        name="h3-geodesic",
        gamma=lambda s: np.array([math.sinh(s), 0.0, 0.0, math.cosh(s)]),
        d1=lambda s: np.array([math.cosh(s), 0.0, 0.0, math.sinh(s)]),
        d2=lambda s: np.array([math.sinh(s), 0.0, 0.0, math.cosh(s)]),
        d3=lambda s: np.array([math.cosh(s), 0.0, 0.0, math.sinh(s)]),
        domain=(-1.5, 1.5),
        normal0=(0.0, 1.0, 0.0, 0.0),
        binormal0=(0.0, 0.0, 1.0, 0.0),
    )


def h3_circle(r0: float) -> CentralCurve:
    """Curve of constant curvature sqrt(1 + r0**2)/r0 > 1 on the
    hyperboloid (a Euclidean circle at constant height)."""
    if not r0 > 0:
        raise ValueError("needs r0 > 0")
    w = 1.0 / r0
    h = math.sqrt(1.0 + r0 * r0)
    return CentralCurve(
        space="hyperbolic",
        name=f"h3-circle(r0={r0:g})",
        gamma=lambda s: np.array([r0 * math.cos(w * s), r0 * math.sin(w * s), 0.0, h]),
        d1=lambda s: np.array([-math.sin(w * s), math.cos(w * s), 0.0, 0.0]),
        d2=lambda s: np.array([-w * math.cos(w * s), -w * math.sin(w * s), 0.0, 0.0]),
        d3=lambda s: np.array([w * w * math.sin(w * s), -w * w * math.cos(w * s), 0.0, 0.0]),
        domain=(0.0, 2.0 * math.pi * r0),
        periodic=True,
    )
