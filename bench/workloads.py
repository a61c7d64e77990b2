"""The four benchmark workloads: inputs drawn from a seed, the timed
operation, and an output check that shares no code with the library
where that is possible (see oracle.py).

Every workload is a closed loop with one caller and one operation at a
time.  A round is a fixed mix of input shapes; each round draws fresh
content from its own seed, so seeds vary content and not proportions.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from oracle import (
    degree,
    eval_expr,
    generator,
    max_int_bits,
    next_prime,
    poly_add,
    poly_mul,
    poly_text,
    random_point,
)

ALL_REGULAR = "all-regular-tubes"
RIGHT_CYLINDERS = "right-cylinders"
RESIDUAL_BOUND = 1e-8  # acceptance criterion 8

# the two golden inputs of the test suite, with their checked-in reports
GOLDEN_INPUTS = (
    (
        "4*x^4 + 8*x^2*y^2 - 12*x*y^3 + 9*x^3 + 9*x^2*y - 9*x*y^2 - 4*y^3 "
        "+ 22*x^2 - 8*x*y - 7*y^2 - 91*x + 98*y - 24",
        "classify_exq_euclidean.json",
    ),
    ("14*y - 25*x + 100*x*y - 40*y^2 - 1", "classify_sq_euclidean.json"),
)

PRODUCT_RADII = tuple(Fraction(v) for v in ("2", "3/2", "5", "7/3", "11", "13/2", "3", "5/3"))


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """cli.main in-process with stdout and stderr captured.  main is
    looked up on the module at call time, so a traced copy is used."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def rand_frac(rng: random.Random, num_hi: int, den_hi: int) -> Fraction:
    return Fraction(rng.randint(1, num_hi), rng.randint(1, den_hi))


def random_factor(rng: random.Random, deg: int) -> dict:
    """Random dict polynomial of total degree <= deg with a nonzero
    constant term, so it never makes the axis restriction vanish."""
    p = {(0, 0): Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))}
    for _ in range(deg + 1):
        i = rng.randint(0, deg)
        j = rng.randint(0, deg - i)
        p = poly_add(p, {(i, j): Fraction(rng.randint(-9, 9), rng.randint(1, 4))})
    if (0, 0) not in p:
        p[(0, 0)] = Fraction(1)
    return p


def distinct_radii(rng: random.Random, count: int, num_hi: int, den_hi: int) -> list[Fraction]:
    radii: list[Fraction] = []
    while len(radii) < count:
        r = rand_frac(rng, num_hi, den_hi)
        if r not in radii:
            radii.append(r)
    return radii


class Workload:
    name = ""
    child_processes = False  # peak RSS is then that of the children
    # fixed per workload so runs compare; the harness runs enough
    # operations that at least ten samples lie beyond it
    tail_percentile = 75

    def __init__(self, lib, root: Path, tmp: Path):
        self.lib = lib
        self.root = root
        self.tmp = tmp

    def setup_rng(self, seed: int) -> None:
        """Draw the per-run fixtures (membership's tubes)."""

    def warmup_ops(self, rng: random.Random) -> list[dict]:
        """The set-up pass: about half a second of the workload's own
        operation kinds, so the import does not dominate setup_s."""
        raise NotImplementedError

    def make_round(self, rng: random.Random, tiny: bool = False) -> list[dict]:
        raise NotImplementedError

    def run(self, op: dict, tracer=None):
        raise NotImplementedError

    def warm(self, op: dict) -> None:
        """One set-up call; its time counts in setup_s."""
        self.run(op)

    def check(self, op: dict, outcome, rng: random.Random):
        """None when the outcome is right, else a one-line reason."""
        raise NotImplementedError

    def corrupt(self, outcome):
        """A deliberately wrong copy of an outcome, for the self-test."""
        raise NotImplementedError

    def note(self, op: dict, outcome) -> dict:
        """Small record of one operation.  The harness folds its keys
        degree, bits, points, csv_points, rational, irrational, radii and
        command into the input summary; rendered_irrational, csv_points,
        frame_rows and frame_rows_x_n_t are the bases of the traced
        ratios."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# report helpers shared by classify and cli-cold


def radius_body(lane: dict, cls: dict) -> dict:
    body = cls["radius"]
    return body["sinh_radius"] if lane["space"] == "hyperbolic" else body


def radius_key(lane: dict, body: dict) -> tuple:
    if "exact" in body:
        return (lane["space"], lane["eps"], body["exact"])
    return (lane["space"], lane["eps"], body["defining_poly"], tuple(body["interval"]))


def report_radii(doc: dict) -> list[tuple[dict, dict, dict]]:
    """(lane, class-or-entry, radius body) for every radius in a classify
    or radius report."""
    out = []
    for lane in doc.get("result", {}).get("lanes", []):
        for item in lane.get("classes", lane.get("entries", [])):
            out.append((lane, item, radius_body(lane, item)))
    return out


def check_interval(body: dict):
    """The defining polynomial changes sign on (lo, hi] or vanishes at hi."""
    lo, hi = (Fraction(v) for v in body["interval"])
    if not 0 <= lo < hi:
        return f"bad isolating interval {body['interval']}"
    f_lo = eval_expr(body["defining_poly"], {"r": lo})
    f_hi = eval_expr(body["defining_poly"], {"r": hi})
    if f_hi != 0 and f_lo * f_hi > 0:
        return f"no sign change of {body['defining_poly']} on {body['interval']}"
    return None


def in_interval(body: dict, r_squared: Fraction) -> bool:
    if "interval" not in body:
        return False
    lo, hi = (Fraction(v) for v in body["interval"])
    return 0 <= lo and lo * lo < r_squared <= hi * hi


def radii_note(out: str) -> dict:
    """Radii of one classify or radius report, for the input summary."""
    keys = [radius_key(lane, body) for lane, _, body in report_radii(json.loads(out))]
    return {
        "radii": keys,
        "rational": sum(len(k) == 3 for k in keys),
        "irrational": sum(len(k) == 4 for k in keys),
        "rendered_irrational": out.count('"defining_poly"'),
    }


# ---------------------------------------------------------------------------
# classify


class ClassifyWorkload(Workload):
    """In-process ``cli.main(["classify", ...])`` over distinct
    polynomials.  Root isolation, the polynomial expansions and the
    report render do nearly all the work; geometry does none."""

    name = "classify"

    def __init__(self, lib, root, tmp):
        super().__init__(lib, root, tmp)
        self.golden = [
            (text, (root / "tests" / "golden" / fname).read_text()) for text, fname in GOLDEN_INPUTS
        ]

    def warmup_ops(self, rng):
        ops = [self._golden(i) for i in range(2)] + [self._product(rng, m) for m in range(2, 7)]
        return ops + [self._power(rng, 10), self._power(rng, 20)]

    def make_round(self, rng, tiny=False):
        # shares chosen so the median and the p75 each fall in the middle
        # of a group of like operations (5 products of 4, 3 products of 7)
        ops = [self._golden(i) for i in range(2)]
        ops += [self._product(rng, m) for m in ((2, 3) if tiny else (2, 3, 4, 4, 4, 4, 4, 5, 6, 7, 7, 7, 8, 8))]
        ops += [self._irrational(rng) for _ in range(1 if tiny else 2)]
        ops += [self._power(rng, k) for k in ((10,) if tiny else (10, 20, 30))]
        ops += [self._principal(rng) for _ in range(1 if tiny else 2)]
        if not tiny:
            ops += [self._prime_coefficient(rng), self._composite_coefficient(rng)]
        return ops

    def _op(self, expr, stars=(), space="all", golden=None, principal=False, deg=0):
        argv = ["classify", expr, "--space", space] + (["--principal"] if principal else [])
        return {
            "argv": argv,
            "expr": expr,
            "vars": ("k1", "k2") if principal else ("x", "y"),
            "stars": list(stars),
            "golden": golden,
            "principal": principal,
            "degree": deg,
        }

    def _golden(self, index):
        text, golden = self.golden[index]
        return self._op(text, space="euclidean", golden=golden, deg=4 - 2 * index)

    def _product(self, rng, m):
        """m tube generators times a random constant, at the first m radii
        of a fixed pool: every radius is a planted star in each lane of
        its signal.  The pool lists radii in pairs of like size and each
        pair gets one signal of each kind in random order, so seeds
        change the polynomial but not its cost."""
        radii = PRODUCT_RADII[:m]
        signs = []
        for _ in range(0, m, 2):
            signs += rng.choice([[1, -1], [-1, 1]])
        signs = signs[:m]
        scale = rand_frac(rng, 9, 9)
        expr = f"{scale}*" + "*".join(f"({poly_text(generator(r, e))})" for r, e in zip(radii, signs))
        stars = [(e, "rational", r) for r, e in zip(radii, signs)]
        return self._op(expr, stars, deg=m)

    def _irrational(self, rng):
        """Norm of the generator at r = s*sqrt(d), for example
        (2x+1)^2 - 8y^2 at r = sqrt(2), times a random factor: a planted
        star radius that is a quadratic irrational."""
        d = rng.choice([2, 3, 5, 6, 7, 10, 11, 13, 14, 15])
        s = rand_frac(rng, 4, 3)
        eps = rng.choice([-1, 1])
        r2 = d * s * s
        norm = poly_add(poly_mul({(1, 0): r2, (0, 0): Fraction(eps)}, {(1, 0): r2, (0, 0): Fraction(eps)}),
                        {(0, 2): -4 * r2})
        factor = random_factor(rng, 1)
        expr = f"({poly_text(norm)})*({poly_text(factor)})"
        return self._op(expr, [(eps, "irrational", r2)], deg=2 + degree(factor))

    def _power(self, rng, k):
        """(x + 2y + 1)^k times a random constant, so the polynomial is
        new but its radii (1 in the eps = -1 lane) and cost are not."""
        scale = rand_frac(rng, 9, 9)
        return self._op(f"{scale}*(x + 2*y + 1)^{k}", deg=k)

    def _principal(self, rng):
        """Principal-curvature mode: a product of (k2 - 1/r) factors times a
        random linear factor; each r is a planted star radius."""
        radii = distinct_radii(rng, rng.randint(2, 4), 12, 4)
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        c = rng.choice([-1, 1]) * rng.randint(1, 7)
        factors = "*".join(f"(k2 - {1 / r})" for r in radii)
        expr = f"{factors}*({a}*k1 + {b}*k2 + {c})".replace("+ -", "- ")
        stars = [(1, "rational", r) for r in radii]
        return self._op(expr, stars, space="euclidean", principal=True, deg=len(radii) + 1)

    def _prime_coefficient(self, rng):
        """A prime of about 10^14 as the leading coefficient of the axis
        restriction: rational-root candidate search by trial division."""
        prime = next_prime(10**14 + rng.randint(0, 10**12))
        b = rng.choice([-1, 1]) * rng.randrange(1, 10, 2)
        d, a, c = rng.randint(1, 9), rng.randint(1, 9), rng.randint(-9, 9)
        expr = f"{prime}*y^2 + {b}*y + {d} + {a}*x + {c}*x*y".replace("+ -", "- ")
        return self._op(expr, space="euclidean", deg=2)

    def _composite_coefficient(self, rng):
        """The highly composite 367567200 leading and 5040 trailing in the
        axis restriction: every divisor pair is a rational-root candidate."""
        b = rng.choice([-1, 1]) * rng.choice([19, 23, 29, 31, 37, 41, 43, 47])
        a, c = rng.randint(1, 9), rng.randint(-9, 9)
        expr = f"367567200*y^2 + {b}*y + 5040 + {a}*x + {c}*x*y".replace("+ -", "- ")
        return self._op(expr, space="euclidean", deg=2)

    def run(self, op, tracer=None):
        return run_cli(self.lib.cli, op["argv"])

    def check(self, op, outcome, rng):
        code, out, err = outcome
        if code != 0:
            return f"exit {code}: {err.strip()}"
        if op["golden"] is not None and out != op["golden"]:
            return "report differs from the golden file"
        doc = json.loads(out)
        v0, v1 = op["vars"]

        def q_at(x, y):
            return eval_expr(op["expr"], {v0: x, v1: y})

        for _ in range(2):
            pt = random_point(rng)
            if eval_expr(doc["inputs"]["poly"], pt) != q_at(pt["x"], pt["y"]):
                return "echoed polynomial differs from the input"
        for lane, cls, body in report_radii(doc):
            eps = lane["eps"]
            if "exact" not in body:
                if "quotient" in cls:
                    return "quotient at an irrational radius"
                problem = check_interval(body)
                if problem:
                    return problem
                continue
            r = Fraction(body["exact"])
            axis_y = 1 / r if op["principal"] else Fraction(eps, 2) / r
            if q_at(0, axis_y) != 0:
                return f"radius {r} in lane {lane['space']}/{eps} is not a root of the axis restriction"
            if cls["class"] == RIGHT_CYLINDERS:
                if "quotient" in cls:
                    return "quotient attached to right cylinders"
                continue
            if "quotient" not in cls:
                return f"star radius {r} has no quotient"
            for _ in range(2):
                pt = random_point(rng)
                x, y = pt["x"], pt["y"]
                gen = y - 1 / r if op["principal"] else x * r * r - 2 * r * y + eps
                if q_at(x, y) != gen * eval_expr(cls["quotient"], pt):
                    return f"quotient times generator is not Q at radius {r}"
        lanes = doc["result"]["lanes"]
        for eps, kind, value in op["stars"]:
            for lane in lanes:
                if lane["eps"] != eps:
                    continue
                found = any(
                    cls["class"] == ALL_REGULAR
                    and (
                        radius_body(lane, cls).get("exact") == str(value)
                        if kind == "rational"
                        else in_interval(radius_body(lane, cls), value)
                    )
                    for cls in lane["classes"]
                )
                if not found:
                    return f"planted {kind} star {value} missing in lane {lane['space']}/{eps}"
        return None

    def corrupt(self, outcome):
        code, out, err = outcome
        doc = json.loads(out)
        doc["inputs"]["poly"] = f"2*({doc['inputs']['poly']})"
        return code, json.dumps(doc, indent=2) + "\n", err

    def note(self, op, outcome):
        code, out, _ = outcome
        note = {"degree": op["degree"], "bits": max_int_bits(out.split('"space"')[0])}
        if code == 0:
            note.update(radii_note(out))
        return note


# ---------------------------------------------------------------------------
# membership


class MembershipWorkload(Workload):
    """The Q(S) direction as a library caller: a few fixed tubes, each
    asked about many small candidates.  Thousands of small calls that
    share a radius, with no root isolation."""

    name = "membership"
    tail_percentile = 99
    PER_TUBE = 24

    def setup_rng(self, seed):
        rng = random.Random(f"membership-tubes:{seed}")
        c = self.lib.classify
        self.tubes = []
        for tag in (c.EUCLIDEAN, c.LORENTZIAN_POS, c.LORENTZIAN_NEG, c.HYPERBOLIC):
            for cylinder in (False, True):
                # radii of like size keep the cost alike from seed to seed
                r = Fraction(rng.randint(11, 30), rng.choice([3, 4, 5, 7]))
                self.tubes.append((tag, r, cylinder, c.TubeIdentity(tag, r, cylinder)))

    def warmup_ops(self, rng):
        return self.make_round(rng)

    def make_round(self, rng, tiny=False):
        per_tube = 2 if tiny else self.PER_TUBE
        return [
            self._candidate(rng, k, bool(n % 2))
            for k in range(len(self.tubes))
            for n in range(per_tube)
        ]

    def _candidate(self, rng, tube_index, shifted):
        """Generator times a random quotient of degree <= 5; shifted
        candidates add a nonzero constant and are not members."""
        tag, r, _, _ = self.tubes[tube_index]
        quotient = {}
        while not quotient:
            for _ in range(rng.randint(1, 8)):
                i = rng.randint(0, 5)
                j = rng.randint(0, 5 - i)
                quotient = poly_add(quotient, {(i, j): Fraction(rng.randint(-9, 9), rng.randint(1, 9))})
        q = poly_mul(generator(r, tag.eps), quotient)
        if shifted:
            q = poly_add(q, {(0, 0): Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))})
        return {
            "tube": tube_index,
            "q": self.lib.polyalg.Poly2(q.items()),
            "member": not shifted,
            "quotient": None if shifted else quotient,
            "degree": degree(q),
            "bits": max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in q.values()),
        }

    def run(self, op, tracer=None):
        tag, r, _, surface = self.tubes[op["tube"]]
        contained = self.lib.classify.solve_QS(surface).contains(op["q"])
        return contained, self.lib.polyalg.divide_by_tube_factor(op["q"], r, tag.eps)

    def check(self, op, outcome, rng):
        contained, quotient = outcome
        if contained != op["member"]:
            return f"membership {contained}, planted {op['member']}"
        if op["member"]:
            if quotient is None or dict(quotient.terms()) != op["quotient"]:
                return "planted quotient not recovered exactly"
        elif quotient is not None:
            return "quotient returned for a non-member"
        return None

    def corrupt(self, outcome):
        contained, quotient = outcome
        return not contained, quotient

    def note(self, op, outcome):
        tag, r = self.tubes[op["tube"]][:2]
        return {"degree": op["degree"], "bits": op["bits"], "radii": [(tag.space, tag.eps, str(r))], "rational": 1}


# ---------------------------------------------------------------------------
# built-in tubes for verify and cli-cold


def l3_eps(section: str) -> int:
    """Sign of <normal, normal>: +1 for circle sections, -1 for
    hyperbola sections, whatever the curve's causal type."""
    return 1 if section == "circle" else -1


# (kind, section, delta, extra parameters) for every admissible row:
# all nine built-in tubes, every Lorentzian section and delta
def tube_variants() -> list[tuple]:
    rows = [("e3-line", None, None, ""), ("e3-torus", None, None, ""), ("e3-helix", None, None, "")]
    l3 = [
        ("l3-helix-ss", ("circle", "hyperbola"), ""),
        ("l3-helix-st", ("circle", "hyperbola"), ""),
        ("l3-helix-tl", ("circle",), ""),
        ("l3-line", ("circle", "hyperbola"), "causality=spacelike,normal=spacelike"),
        ("l3-line", ("circle", "hyperbola"), "causality=spacelike,normal=timelike"),
        ("l3-line", ("circle",), "causality=timelike,normal=spacelike"),
    ]
    for kind, sections, extra in l3:
        for section in sections:
            for delta in (1, -1):
                rows.append((kind, section, delta, extra))
    rows += [("h3-geodesic", None, None, ""), ("h3-circle", None, None, "")]
    return rows


def draw_tube(rng: random.Random, variant: tuple) -> dict:
    """Parameters kept inside the regular range, so every grid point of
    the default grids is regular."""
    kind, section, delta, extra = variant
    params = []
    if kind == "e3-line":
        r = rand_frac(rng, 8, 4)
    elif kind == "e3-torus":
        big = rng.randint(5, 12)
        r = Fraction(rng.randint(2, 2 * big * 4 // 5), 2)
        params.append(f"R={big}")
    elif kind == "e3-helix" or kind == "l3-helix-st":
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        r = Fraction(rng.randint(1, 3), 8)
        params += [f"a={a}", f"b={b}"]
    elif kind == "l3-helix-ss":
        a = rng.randint(2, 4)
        b = rng.randint(-(a - 1), a - 1)
        r = Fraction(rng.randint(1, 3), 8)
        params += [f"a={a}", f"b={b}"]
    elif kind == "l3-helix-tl":
        a = rng.randint(1, 2)
        params += [f"a={a}", f"b={a + rng.randint(1, 2)}"]
        r = Fraction(rng.randint(1, 3), 8)
    elif kind == "l3-line":
        r = rand_frac(rng, 8, 4)
        params.append(extra)
    elif kind == "h3-geodesic":
        r = Fraction(rng.randint(1, 6), 4)
    else:  # h3-circle
        r0 = rng.randint(1, 3)
        r = Fraction(rng.randint(1, 3), 4)
        params.append(f"r0={r0}")
    params.append(f"r={r}")
    if section is not None:
        params += [f"section={section}", f"delta={delta}"]
    space = kind[:2]
    if space == "h3":
        # the library's current hyperbolic convention: the generator in sinh r
        rho = Fraction(math.sinh(float(r)))
        eps = 1
    else:
        rho = r
        eps = l3_eps(section) if space == "l3" else 1
    return {
        "tube": f"{kind}:{','.join(params)}",
        "relation": poly_text(generator(rho, eps)),
        "rho": float(rho),
        "eps": eps,
        "geodesic": kind in ("e3-line", "l3-line", "h3-geodesic"),
    }


def check_verify_report(doc: dict, n_s: int, n_t: int):
    body = doc["result"]
    if not float(body["max_residual"]) <= RESIDUAL_BOUND:
        return f"generator residual {body['max_residual']} > {RESIDUAL_BOUND}"
    if body["total_points"] != n_s * n_t:
        return f"total_points {body['total_points']} != {n_s * n_t}"
    if not 1 <= body["regular_points"] <= body["total_points"]:
        return f"regular_points {body['regular_points']} outside [1, total]"
    return None


def check_csv(text: str, tube: dict, n_s: int, n_t: int, regular: int):
    lines = text.splitlines()
    if lines[0] != "s,t,K,H,K_cf,H_cf,xi,residual" or len(lines) != n_s * n_t + 1:
        return "CSV header or row count wrong"
    rho, eps, finite = tube["rho"], tube["eps"], 0
    for line in lines[1:]:
        _, _, k, h = (float(v) for v in line.split(",")[:4])
        if math.isnan(k):
            continue
        finite += 1
        if not abs(k * rho * rho - 2 * rho * h + eps) <= RESIDUAL_BOUND:
            return f"CSV row {line!r} misses the generator by more than {RESIDUAL_BOUND}"
    if finite != regular:
        return f"CSV has {finite} regular rows, report says {regular}"
    return None


# ---------------------------------------------------------------------------
# verify


class VerifyWorkload(Workload):
    """In-process ``cli.main(["verify", ...])`` on every built-in tube
    with its own generator as the relation.  Geometry does nearly all
    the work and the algebra is idle."""

    name = "verify"
    tail_percentile = 90
    # 25 distinct grid sides 16, 18, ..., 64, spread over the tube kinds
    # by a fixed permutation; every second operation writes --csv.  Many
    # distinct costs leave no gap for the median or the tail to jump.
    SIDES = tuple(16 + 2 * (7 * k % 25) for k in range(25))

    def warmup_ops(self, rng):
        return [self._op(rng, v, 32, k % 2 == 1, k) for k, v in enumerate(tube_variants()[::6])]

    def make_round(self, rng, tiny=False):
        variants = tube_variants()
        if tiny:
            return [self._op(rng, v, 8, k % 2 == 1, k) for k, v in enumerate(variants[::4])]
        return [
            self._op(rng, v, self.SIDES[k], k % 2 == 1, k)
            for k, v in enumerate(variants)
        ]

    def _op(self, rng, variant, side, csv, index):
        tube = draw_tube(rng, variant)
        csv_path = str(self.tmp / f"verify-{index}.csv") if csv else None
        argv = ["verify", tube["relation"], "--tube", tube["tube"], "--grid", f"{side}x{side}"]
        if csv_path:
            argv += ["--csv", csv_path]
        return {"argv": argv, "tube": tube, "n_s": side, "n_t": side, "csv": csv_path}

    def run(self, op, tracer=None):
        return run_cli(self.lib.cli, op["argv"])

    def check(self, op, outcome, rng):
        code, out, err = outcome
        if code != 0:
            return f"exit {code}: {err.strip()}"
        doc = json.loads(out)
        problem = check_verify_report(doc, op["n_s"], op["n_t"])
        if problem is None and op["csv"]:
            path = Path(op["csv"])
            problem = check_csv(path.read_text(), op["tube"], op["n_s"], op["n_t"],
                                doc["result"]["regular_points"])
            path.unlink()
        return problem

    def corrupt(self, outcome):
        code, out, err = outcome
        doc = json.loads(out)
        doc["result"]["regular_points"] = doc["result"]["total_points"] + 1
        return code, json.dumps(doc, indent=2) + "\n", err

    def note(self, op, outcome):
        points = op["n_s"] * op["n_t"]
        rows = 0 if op["tube"]["geodesic"] else op["n_s"] * (2 if op["csv"] else 1)
        return {
            "degree": 1,
            "points": points,
            "csv_points": points if op["csv"] else 0,
            "frame_rows": rows,
            "frame_rows_x_n_t": rows * op["n_t"],
            "bits": max_int_bits(op["argv"][1]),
            "radii": [op["tube"]["tube"]],
            "rational": 1,
        }


# ---------------------------------------------------------------------------
# cli-cold


class CliColdWorkload(Workload):
    """One fresh ``python -m weingarten_tubes.cli`` per operation,
    cycling small inputs through all six subcommands.  Interpreter
    start-up and package import dominate."""

    name = "cli-cold"
    child_processes = True

    def __init__(self, lib, root, tmp):
        super().__init__(lib, root, tmp)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def warmup_ops(self, rng):
        return self.make_round(rng)[:2]

    def make_round(self, rng, tiny=False):
        r1, r2 = distinct_radii(rng, 2, 12, 4)
        e1, e2 = rng.choice([-1, 1]), rng.choice([-1, 1])
        product = f"({poly_text(generator(r1, e1))})*({poly_text(generator(r2, e2))})"
        factor = poly_text(random_factor(rng, 1))
        a, b, c = (Fraction(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(3))
        if a == 0 and b == 0:
            a = Fraction(1)
        tube = draw_tube(rng, rng.choice(tube_variants()))
        return [
            {"argv": ["classify", product]},
            {"argv": ["radius", f"({poly_text(generator(r1, 1))})*({factor})", "--star"]},
            {"argv": ["divide", product, "--r", str(r1), "--eps", "+1" if e1 > 0 else "-1"]},
            {"argv": ["verify", tube["relation"], "--tube", tube["tube"], "--grid", "8x8"], "tube": tube},
            {"argv": ["linear", str(a), str(b), str(c)]},
            {"argv": ["sff", str(rand_frac(rng, 9, 4))]},
        ]

    def run(self, op, tracer=None):
        if tracer is None:
            cmd = [sys.executable, "-m", "weingarten_tubes.cli", *op["argv"]]
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, timeout=120)
            return proc.returncode, proc.stdout.decode(), proc.stderr.decode()
        spans_path = self.tmp / "child-spans.json"
        cmd = [sys.executable, str(Path(__file__).parent / "child.py"), str(spans_path), *op["argv"]]
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, timeout=120)
        if spans_path.exists():
            recorded = json.loads(spans_path.read_text())
            spans_path.unlink()
            tracer.merge(recorded["spans"], recorded["counts"], tracer.op)
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode()

    def check(self, op, outcome, rng):
        code, out, err = outcome
        if code != 0:
            return f"exit {code}: {err.strip()}"
        expected = run_cli(self.lib.cli, op["argv"])
        if out != expected[1]:
            return "child stdout differs from the in-process report"
        if op["argv"][0] == "verify":
            return check_verify_report(json.loads(out), 8, 8)
        return None

    def corrupt(self, outcome):
        code, out, err = outcome
        return code, out + " ", err

    def note(self, op, outcome):
        code, out, _ = outcome
        command = op["argv"][0]
        note = {"command": command, "bits": max_int_bits(op["argv"][1])}
        if command == "verify":
            note["points"] = 64
        if code == 0 and command in ("classify", "radius"):
            note.update(radii_note(out))
        if command == "verify" and not op["tube"]["geodesic"]:
            note.update(frame_rows=8, frame_rows_x_n_t=64)
        return note


WORKLOADS = {
    w.name: w for w in (ClassifyWorkload, MembershipWorkload, VerifyWorkload, CliColdWorkload)
}
