"""Numeric tube surfaces and their curvatures in E^3, L^3 and H^3.

Everything here is double-precision floating point; the algebra modules
never consume these values for decisions.  The module builds tubes over
built-in central curves (each shipping analytic derivatives to order
three), evaluates first and second fundamental forms through the frame
derivative equations, and compares the resulting Gaussian/mean
curvatures against the closed forms, so algebraic classifications can
be verified on sampled surfaces.

A sample grid is walked in one place, ``_grid_pass``: one ``mu_eta``
per t column, then per s-row one frame and one call of the kernel
``_row``, which evaluates the t-row as (n_t, dim) arrays; every grid
function, and ``curvatures`` as a one-point row, reads that pass.  The
kernel gives the bits of per-point scalar evaluation (the reference in
``tests/test_row_kernel.py``): section values come from ``math``, as
numpy's SIMD libm can differ in the last ulp; array expressions keep
the scalar operand order; each inner product is one ``np.vecdot``, the
same sequential FMA chain as ``np.dot`` on this numpy/OpenBLAS build;
results leave numpy through ``tolist``, so residuals and CSV digits
come from Python floats.

numpy is imported on the first attribute lookup of the module global
``np`` (``_DeferredNumpy``), so importing this module costs no numpy
and a process that runs only exact algebra never loads it.  The module
stays an eager import of ``cli``: ``bench/spans.py`` and
``tests/test_cli.py::TestBenchTargets`` look it up in ``sys.modules``
right after ``weingarten_tubes.cli`` is imported.

Conventions:

* Lorentzian inner product: sum of the first dim-1 coordinate products
  minus the last.
* Lorentzian cross product: formal determinant whose basis row ends in
  -e_dim, so e1 x e2 = -e3 in L^3.
* Frame equations: Euclidean curves use the classical Frenet equations
  (B' = -tau N); Lorentzian curves use T' = kappa N,
  N' = -eps_T eps_N kappa T + tau B, B' = eps_T tau N, with tau defined
  as the N'-coefficient so the matrix holds exactly; hyperbolic curves
  (in the hyperboloid model in L^4) use gamma' = T, T' = gamma + kappa N,
  N' = -kappa T + tau B, B' = -tau N.  Every built-in curve has constant
  curvature and torsion, so the second frame derivatives carry no
  kappa' or tau' terms.
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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

from .errors import (
    DegenerateFrame,
    DimensionMismatch,
    InvalidSpecRow,
    IrregularPoint,
    LightlikeNormal,
    NonpositiveRadius,
    NoRegularPoints,
    ZeroPolynomial,
)
from .polyalg import Poly2


class _DeferredNumpy:
    """The module global ``np`` until its first attribute lookup, which
    imports numpy and rebinds ``np`` to it: after that every lookup is
    plain numpy, and a process that never samples a tube never imports
    it."""

    def __getattr__(self, name: str):
        import numpy

        globals()["np"] = numpy
        return getattr(numpy, name)


if TYPE_CHECKING:
    import numpy as np
else:
    np = _DeferredNumpy()

BIREGULARITY_EPS = 1e-10
REGULARITY_CUTOFF = 1e-3


def lorentz_inner(u, v) -> float:
    """Index-1 bilinear form: u1*v1 + ... + u_{n-1}*v_{n-1} - u_n*v_n."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.shape not in ((3,), (4,)):
        raise DimensionMismatch(f"need matching 3- or 4-vectors, got {u.shape} and {v.shape}")
    return float(np.dot(u[:-1], v[:-1]) - u[-1] * v[-1])


def lorentz_cross(*vectors) -> np.ndarray:
    """Formal-determinant cross product of dim-1 vectors in L^3 or L^4;
    the basis row carries -e_dim, so the result is Lorentz-orthogonal to
    every input."""
    vs = [np.asarray(v, dtype=float) for v in vectors]
    if not vs or vs[0].shape not in ((3,), (4,)):
        raise DimensionMismatch("need 3- or 4-dimensional vectors")
    dim = vs[0].shape[0]
    if len(vs) != dim - 1 or any(v.shape != (dim,) for v in vs):
        raise DimensionMismatch(f"need exactly {dim - 1} vectors of dimension {dim}")
    rows = np.array(vs)
    out = np.empty(dim)
    for k in range(dim):
        minor = np.delete(rows, k, axis=1)
        sign = -1.0 if k % 2 else 1.0
        if k == dim - 1:
            sign = -sign  # basis row entry is -e_dim
        out[k] = sign * np.linalg.det(minor)
    return out


@dataclass(frozen=True)
class CentralCurve:
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


@dataclass(frozen=True)
class FrenetFrame:
    gamma: np.ndarray
    T: np.ndarray
    N: np.ndarray
    B: np.ndarray
    kappa: float
    tau: float
    eps_T: int
    eps_N: int
    eps_B: int


def frenet_frame(curve: CentralCurve, s: float) -> FrenetFrame:
    """Frame at parameter s.  Raises DegenerateFrame where the curve is
    not biregular (geodesics take the constant-completion path in the
    tube machinery instead) and LightlikeNormal if the acceleration is
    numerically lightlike."""
    pos = np.asarray(curve.gamma(s), dtype=float)
    t_vec = np.asarray(curve.d1(s), dtype=float)
    acc = np.asarray(curve.d2(s), dtype=float)
    jerk = np.asarray(curve.d3(s), dtype=float)

    if curve.space == "euclidean":
        kappa = float(np.linalg.norm(acc))
        if kappa < BIREGULARITY_EPS:
            raise DegenerateFrame(f"curve {curve.name!r} has |gamma''| < {BIREGULARITY_EPS} at s={s}")
        n_vec = acc / kappa
        b_vec = np.cross(t_vec, n_vec)
        kappa_dot = float(np.dot(acc, jerk)) / kappa
        n_prime = jerk / kappa - acc * (kappa_dot / kappa**2)
        tau = float(np.dot(n_prime, b_vec))
        return FrenetFrame(pos, t_vec, n_vec, b_vec, kappa, tau, 1, 1, 1)

    if curve.space == "lorentzian":
        h = lorentz_inner(acc, acc)
        if np.linalg.norm(acc) < BIREGULARITY_EPS:
            raise DegenerateFrame(f"curve {curve.name!r} has gamma'' ~ 0 at s={s}")
        if abs(h) < BIREGULARITY_EPS**2:
            raise LightlikeNormal(f"curve {curve.name!r} has lightlike acceleration at s={s}")
        eps_T = 1 if lorentz_inner(t_vec, t_vec) > 0 else -1
        eps_N = 1 if h > 0 else -1
        kappa = math.sqrt(abs(h))
        n_vec = acc / kappa
        b_vec = lorentz_cross(t_vec, n_vec)
        eps_B = -eps_T * eps_N
        kappa_dot = eps_N * lorentz_inner(acc, jerk) / kappa
        n_prime = jerk / kappa - acc * (kappa_dot / kappa**2)
        # tau is the B-coefficient of N' so the frame equations hold exactly
        tau = eps_B * lorentz_inner(n_prime, b_vec)
        return FrenetFrame(pos, t_vec, n_vec, b_vec, kappa, tau, eps_T, eps_N, eps_B)

    # hyperbolic (hyperboloid model, vectors in L^4)
    w = acc - pos
    ww = lorentz_inner(w, w)
    if ww < BIREGULARITY_EPS**2:
        raise DegenerateFrame(f"curve {curve.name!r} has |gamma'' - gamma| < {BIREGULARITY_EPS} at s={s}")
    kappa = math.sqrt(ww)
    n_vec = w / kappa
    b_vec = lorentz_cross(pos, t_vec, n_vec)
    w_dot = jerk - t_vec
    kappa_dot = lorentz_inner(w, w_dot) / kappa
    n_prime = w_dot / kappa - w * (kappa_dot / kappa**2)
    tau = lorentz_inner(n_prime, b_vec)
    return FrenetFrame(pos, t_vec, n_vec, b_vec, kappa, tau, 1, 1, 1)


def _tube_frame(curve: CentralCurve, s: float) -> FrenetFrame:
    """The Frenet frame, or for a geodesic its constant completion."""
    if not curve.is_geodesic:
        return frenet_frame(curve, s)
    pos = np.asarray(curve.gamma(s), dtype=float)
    t_vec = np.asarray(curve.d1(s), dtype=float)
    n_vec = np.asarray(curve.normal0, dtype=float)
    b_vec = np.asarray(curve.binormal0, dtype=float)
    eps_B = -curve.eps_T * curve.eps_N if curve.space == "lorentzian" else 1
    return FrenetFrame(pos, t_vec, n_vec, b_vec, 0.0, 0.0, curve.eps_T, curve.eps_N, eps_B)


# ---------------------------------------------------------------------------
# tube construction

SECTION_EUCLIDEAN = "euclidean-circle"
SECTION_L_CIRCLE = "lorentz-circle"
SECTION_L_HYPERBOLA = "lorentz-hyperbola"
SECTION_HYPERBOLIC = "hyperbolic-circle"

# (eps_T, eps_N, section) -> mu/eta pair kind; rows of the admissible table
_L3_PAIRS = {
    (1, 1, SECTION_L_CIRCLE): "cosh-sinh",
    (1, -1, SECTION_L_CIRCLE): "sinh-cosh",
    (-1, 1, SECTION_L_CIRCLE): "cos-sin",
    (1, 1, SECTION_L_HYPERBOLA): "sinh-cosh",
    (1, -1, SECTION_L_HYPERBOLA): "cosh-sinh",
}


@dataclass(frozen=True)
class TubeSpec:
    """A tube: central curve, radius, normal-section type and the sign
    delta selecting the branch of the section parametrization.

    In the hyperbolic space ``radius`` is the geodesic tube radius r
    itself (the algebra modules work in sinh r; the conversion happens
    at the reporting layer)."""

    curve: CentralCurve
    radius: float
    section: str
    delta: int = 1
    name: str = ""

    def __post_init__(self):
        if not self.radius > 0:
            raise NonpositiveRadius(f"tube radius must be positive, got {self.radius}")
        if self.delta not in (-1, 1):
            raise ValueError("delta must be -1 or +1")
        space = self.curve.space
        if space == "euclidean":
            if self.section != SECTION_EUCLIDEAN:
                raise InvalidSpecRow(f"Euclidean tubes use {SECTION_EUCLIDEAN!r}")
        elif space == "hyperbolic":
            if self.section != SECTION_HYPERBOLIC:
                raise InvalidSpecRow(f"hyperbolic tubes use {SECTION_HYPERBOLIC!r}")
        else:
            key = (self.curve.eps_T, self.curve.eps_N, self.section)
            if self.section not in (SECTION_L_CIRCLE, SECTION_L_HYPERBOLA):
                raise InvalidSpecRow(f"Lorentzian tubes use circle or hyperbola sections, got {self.section!r}")
            if key not in _L3_PAIRS:
                raise InvalidSpecRow(
                    f"no tube with curve causality {self.curve.eps_T}, normal causality "
                    f"{self.curve.eps_N} and section {self.section!r} exists"
                )

    def _pair_kind(self) -> str:
        if self.curve.space in ("euclidean", "hyperbolic"):
            return "cos-sin"
        return _L3_PAIRS[(self.curve.eps_T, self.curve.eps_N, self.section)]

    def mu_eta(self, t: float) -> tuple[float, float, float, float, float, float]:
        """(mu, eta, mu', eta', mu'', eta'') at section parameter t."""
        # Euclidean / hyperbolic sections ignore delta
        d = float(self.delta) if self.curve.space == "lorentzian" else 1.0
        kind = self._pair_kind()
        if kind == "cos-sin":
            return (
                d * math.cos(t), math.sin(t),
                -d * math.sin(t), math.cos(t),
                -d * math.cos(t), -math.sin(t),
            )
        if kind == "cosh-sinh":
            return (
                d * math.cosh(t), math.sinh(t),
                d * math.sinh(t), math.cosh(t),
                d * math.cosh(t), math.sinh(t),
            )
        # sinh-cosh
        return (
            math.sinh(t), d * math.cosh(t),
            math.cosh(t), d * math.sinh(t),
            math.sinh(t), d * math.cosh(t),
        )


def tube_point(spec: TubeSpec, s: float, t: float) -> np.ndarray:
    """Position of the tube parametrization at (s, t)."""
    frame = _tube_frame(spec.curve, s)
    r = spec.radius
    mu, eta, *_ = spec.mu_eta(t)
    if spec.curve.space == "hyperbolic":
        circ = mu * frame.N + eta * frame.B
        return math.cosh(r) * frame.gamma + math.sinh(r) * circ
    return frame.gamma + r * mu * frame.N + r * eta * frame.B


@dataclass(frozen=True)
class CurvatureSample:
    s: float
    t: float
    K: float
    H: float
    K_cf: float
    H_cf: float
    xi: float
    eps: int


def _row(spec: TubeSpec, frame: FrenetFrame, s: float, t_grid: list, sec: np.ndarray) -> tuple[list, ...]:
    """The curvature kernel: every t column of an s-row at once, given
    the tube frame at s and the (6, n_t) section values (mu, eta, mu',
    eta', mu'', eta'').  K and H come from the first/second fundamental
    forms, with the tube derivatives assembled through the frame
    derivative equations; K_cf and H_cf are the closed-form expressions.
    Returns Python lists over the columns: regular, K, H, K_cf, H_cf, xi
    and eps, where all but xi mean something only at regular points.
    Raises LightlikeNormal at the first regular column whose normal is
    not unit."""
    space = spec.curve.space
    r = spec.radius
    kappa, tau = frame.kappa, frame.tau
    T, N, B = frame.T, frame.N, frame.B
    mu, eta = sec[:2]
    # the section values as (n_t, 1) columns, to scale frame vectors per point
    mu_c, eta_c, mu_t_c, eta_t_c, mu_tt_c, eta_tt_c = sec[:, :, None]
    # the closed forms divide by xi ~ 0 at irregular points
    with np.errstate(all="ignore"):
        if space == "hyperbolic":
            ch, sh = math.cosh(r), math.sinh(r)
            xi = ch - kappa * mu * sh
            t_prime = frame.gamma + kappa * N
            n_prime = -kappa * T + tau * B
            b_prime = -tau * N
            n_second = -kappa * frame.gamma - (kappa**2 + tau**2) * N
            b_second = tau * kappa * T - tau**2 * B
            psi_s = ch * T + sh * (mu_c * n_prime + eta_c * b_prime)
            psi_ss = ch * t_prime + sh * (mu_c * n_second + eta_c * b_second)
            psi_t = sh * (mu_t_c * N + eta_t_c * B)
            psi_ts = sh * (mu_t_c * n_prime + eta_t_c * b_prime)
            psi_tt = sh * (mu_tt_c * N + eta_tt_c * B)
            k_cf = -kappa * mu / (xi * sh)
            h_cf = (ch - 2.0 * kappa * mu * sh) / (2.0 * xi * sh)
        else:
            t_prime = kappa * N
            if space == "euclidean":
                xi = 1.0 - r * kappa * mu
                n_prime = -kappa * T + tau * B
                b_prime = -tau * N
                n_second = -(kappa**2 + tau**2) * N
                b_second = tau * kappa * T - tau**2 * B
            else:
                eT, eN, eB = frame.eps_T, frame.eps_N, frame.eps_B
                xi = 1.0 + eB * r * kappa * mu
                n_prime = -eT * eN * kappa * T + tau * B
                b_prime = eT * tau * N
                n_second = (eT * tau**2 - eT * eN * kappa**2) * N
                b_second = -eN * kappa * tau * T + eT * tau**2 * B
            r_mu, r_eta = (r * mu)[:, None], (r * eta)[:, None]
            psi_s = T + r_mu * n_prime + r_eta * b_prime
            psi_ss = t_prime + r_mu * n_second + r_eta * b_second
            psi_t = r * (mu_t_c * N + eta_t_c * B)
            psi_ts = r * (mu_t_c * n_prime + eta_t_c * b_prime)
            psi_tt = r * (mu_tt_c * N + eta_tt_c * B)
            if space == "euclidean":
                k_cf = kappa * mu / (r * (r * kappa * mu - 1.0))
                h_cf = (2.0 * r * kappa * mu - 1.0) / (2.0 * r * (r * kappa * mu - 1.0))
            else:
                sig = mu * mu * eN + eta * eta * eB
                k_cf = sig * eB * kappa * mu / (r * (1.0 + eB * r * kappa * mu))
                h_cf = sig * (2.0 * eB * r * kappa * mu + 1.0) / (2.0 * r * (1.0 + eB * r * kappa * mu))
        regular = ~(abs(xi) < REGULARITY_CUTOFF)
        normal = -(mu_c * N + eta_c * B)

        def inner(u, v):
            if space == "euclidean":
                return np.vecdot(u, v)
            return np.vecdot(u[:, :-1], v[:, :-1]) - u[:, -1] * v[:, -1]

        eps_f = inner(normal, normal)
        bad = regular & (abs(abs(eps_f) - 1.0) > 1e-6)
        if bad.any():
            k = int(bad.argmax())
            message = f"|<normal, normal>| = {abs(eps_f[k]):.6f} is not 1 at (s, t) = ({s}, {t_grid[k]})"
            raise LightlikeNormal(message)
        eps = np.where(eps_f > 0, 1, -1)

        E = inner(psi_s, psi_s)
        F = inner(psi_s, psi_t)
        G = inner(psi_t, psi_t)
        e = inner(psi_ss, normal)
        f = inner(psi_ts, normal)
        g = inner(psi_tt, normal)
        denom = E * G - F * F
        if (regular & (denom == 0.0)).any():  # r below ~1e-160: raise as scalar division does
            raise ZeroDivisionError("float division by zero")
        K = eps * (e * g - f * f) / denom
        H = eps * (e * G - 2.0 * f * F + g * E) / (2.0 * denom)
    return tuple(a.tolist() for a in (regular, K, H, k_cf, h_cf, xi, eps))


def _grid_pass(spec: TubeSpec, s_grid: Sequence[float], t_grid: Sequence[float]) -> Iterator[tuple]:
    """The one walk over a sample grid, row-major (s outer, t inner): one
    ``mu_eta`` per t column, then per s-row one frame and one kernel
    call.  Yields (s, t, regular, K, H, K_cf, H_cf, xi, eps) per point."""
    t_grid = list(t_grid)
    sec = np.array([spec.mu_eta(t) for t in t_grid], dtype=float).reshape(-1, 6).T.copy()
    for s in s_grid:
        for point in zip(t_grid, *_row(spec, _tube_frame(spec.curve, s), s, t_grid, sec)):
            yield s, *point


def curvatures(spec: TubeSpec, s: float, t: float) -> CurvatureSample:
    """Gaussian and mean curvature at one regular tube point: the kernel
    on a one-point row.  Raises IrregularPoint when |xi| falls below the
    sampling cutoff."""
    ((_, _, regular, *values),) = _grid_pass(spec, [s], [t])
    if not regular:
        raise IrregularPoint(f"|xi| = {abs(values[4]):.3e} < {REGULARITY_CUTOFF} at (s, t) = ({s}, {t})")
    return CurvatureSample(s, t, *values)


def regularity_scan(
    spec: TubeSpec, s_grid: Sequence[float], t_grid: Sequence[float]
) -> list[tuple[float, float, float]]:
    """Grid points where |xi| < the sampling cutoff, as (s, t, xi)."""
    return [(s, t, xi) for s, t, regular, *_, xi, _ in _grid_pass(spec, s_grid, t_grid) if not regular]


def sample_grid(
    spec: TubeSpec, s_grid: Sequence[float], t_grid: Sequence[float]
) -> list[Optional[CurvatureSample]]:
    """Curvature samples in row-major (s outer, t inner) order; None at
    irregular points."""
    points = _grid_pass(spec, s_grid, t_grid)
    return [CurvatureSample(s, t, *values) if regular else None for s, t, regular, *values in points]


# (s, t, (K, H, K_cf, H_cf) or None at an irregular point, xi,
# |Q(K, H)| or nan at an irregular point)
_ScoredPoint = tuple[float, float, Optional[tuple[float, float, float, float]], float, float]


def _residual(terms: list[tuple[float, int, int]], K: float, H: float) -> float:
    """|Q(K, H)| in ``Poly2.eval_float``'s term order and expression."""
    return abs(sum(c * K**i * H**j for c, i, j in terms))


def _scored(
    q: Poly2, spec: TubeSpec, s_grid: Sequence[float], t_grid: Sequence[float]
) -> Iterator[_ScoredPoint]:
    """The grid pass with |Q(K, H)| per regular point, on Python floats;
    Q's coefficients become floats once, at the first regular point."""
    terms = None
    for s, t, regular, K, H, K_cf, H_cf, xi, _ in _grid_pass(spec, s_grid, t_grid):
        if not regular:
            yield s, t, None, xi, float("nan")
            continue
        if terms is None:
            terms = [(float(c), i, j) for (i, j), c in q.terms()]
        yield s, t, (K, H, K_cf, H_cf), xi, _residual(terms, K, H)


@dataclass(frozen=True)
class VerificationResult:
    max_residual: float
    argmax_s: float
    argmax_t: float
    regular_points: int
    total_points: int


def _verification(scored: Iterable[_ScoredPoint]) -> VerificationResult:
    best = -1.0
    arg = (float("nan"), float("nan"))
    regular = total = 0
    for s, t, values, _, residual in scored:
        total += 1
        if values is None:
            continue
        regular += 1
        if residual > best:
            best = residual
            arg = (s, t)
    if regular == 0:
        raise NoRegularPoints("every grid point is irregular")
    return VerificationResult(best, arg[0], arg[1], regular, total)


def verify_relation(
    q: Poly2, spec: TubeSpec, s_grid: Sequence[float], t_grid: Sequence[float]
) -> VerificationResult:
    """Max |Q(K, H)| over the regular grid points and where it occurs."""
    if q.is_zero:
        raise ZeroPolynomial("verification needs a nonzero relation")
    return _verification(_scored(q, spec, s_grid, t_grid))


CSV_HEADER = "s,t,K,H,K_cf,H_cf,xi,residual"
_NO_CURVATURES = (float("nan"),) * 4


def _csv_line(row: _ScoredPoint) -> str:
    s, t, values, xi, residual = row
    return ",".join(f"{v:.17g}" for v in (s, t, *(values or _NO_CURVATURES), xi, residual))


def curvature_csv(
    q: Poly2, spec: TubeSpec, s_grid: Sequence[float], t_grid: Sequence[float]
) -> str:
    """CSV dump of the sampled grid: fixed header, 17 significant digits,
    row-major order; irregular points carry nan curvature columns."""
    return "\n".join([CSV_HEADER, *map(_csv_line, _scored(q, spec, s_grid, t_grid))]) + "\n"


def verify_relation_csv(
    q: Poly2, spec: TubeSpec, s_grid: Sequence[float], t_grid: Sequence[float]
) -> tuple[VerificationResult, str]:
    """``verify_relation`` and ``curvature_csv`` from one evaluation of
    each grid point; only the CSV lines are kept, not the samples."""
    if q.is_zero:
        raise ZeroPolynomial("verification needs a nonzero relation")
    lines = [CSV_HEADER]

    def rows():
        for row in _scored(q, spec, s_grid, t_grid):
            lines.append(_csv_line(row))
            yield row

    result = _verification(rows())
    return result, "\n".join(lines) + "\n"


def default_grids(spec: TubeSpec, n_s: int, n_t: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic sampling grids: the curve domain in s (half-open for
    periodic curves) and the natural section range in t: a full period
    for circle-type sections, [-1, 1] for hyperbolic-function sections."""
    lo, hi = spec.curve.domain
    s_grid = np.linspace(lo, hi, n_s, endpoint=not spec.curve.periodic)
    kind = spec._pair_kind()
    if kind == "cos-sin":
        t_grid = np.linspace(0.0, 2.0 * math.pi, n_t, endpoint=False)
    else:
        t_grid = np.linspace(-1.0, 1.0, n_t, endpoint=True)
    return s_grid, t_grid


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
