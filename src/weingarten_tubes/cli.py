"""Command-line front end: polynomial parsing, classification commands,
JSON reports and CSV verification dumps.

Commands: ``classify`` (tube families satisfying a relation), ``radius``
(radius / star-radius sets), ``divide`` (exact quotient by the tube
relation), ``verify`` (numeric residuals on a sampled built-in tube),
``linear`` (linear-relation case analysis) and ``sff`` (constant
second-fundamental-form length).  All but ``verify`` are exact algebra:
``geometry`` is imported here for the tube table, but numpy is imported
only on its first numeric call, so they start without it.

Reports are JSON documents with a frozen field layout (see
docs/report_schema.md); identical inputs produce byte-identical output.
Exit codes: 0 success, 1 usage or syntax error, 2 domain error, 3
internal-check failure.  The environment variable WEINGARTEN_PRECISION
(default 12) sets the number of significant digits used for approximate
values in reports.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import geometry as geo
from .classify import (
    ClassificationReport,
    LinearCase,
    classify_linear,
    classify_second_fundamental,
    expand_spaces,
    solve_SQ,
    solve_SQ_principal,
)
from .errors import (
    DegreeTooLarge,
    DomainError,
    GridTooLarge,
    InternalMismatch,
    NonIntegerExponent,
    PolySyntaxError,
    UnknownVariable,
    UnwritableOutput,
    ZeroRadius,
)
from .polyalg import Poly2, divide_by_tube_factor, substitute_tube, tube_generator
from .radius import AlgebraicRadius, SpaceTag, radius_set, star_radius_set

SCHEMA_VERSION = "1"

# Budget for --grid.  A point costs 50 to 75 us of Python-level vector work
# (2-vCPU x86 host, Python 3.11), and with --csv its line of about 160 bytes
# is held until the file is written: 2**18 points (512x512) take about 15 s
# and 160 MB.  Uncapped, a grid like 100000x100000 would run for days.
MAX_GRID_POINTS = 2**18

# Budget for the parsed polynomial: no exponent and no product may exceed
# this total degree.  Dense inputs cost about d**3 (2-vCPU x86 host,
# Python 3.11): `classify "(x + 2*y + 1)^k"` takes 0.15 s at k = 30, the
# largest degree of any shipped input, 5 s at k = 100 and 16 s at k = 150.
# Unchecked, `y^99999999` never finishes parsing.
MAX_DEGREE = 100


# ---------------------------------------------------------------------------
# polynomial expression parser
#
# expr   := ['-'] term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := base ('^' nonneg-int)?
# base   := rational | variable | '(' expr ')'
# rational := int ('/' posint)?
#
# Implicit multiplication is rejected; '-' is binary between terms and
# unary only at the start of an expression (including after '(').


_TOKEN_OPS = "+-*^()"
_DIGITS = frozenset("0123456789")  # str.isdigit() also takes "²" and "٣"


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            start = i
            while i < n and text[i] in _DIGITS:
                i += 1
            num = int(text[start:i])
            if i < n and text[i] == "/":
                j = i + 1
                if j < n and text[j] in _DIGITS:
                    while j < n and text[j] in _DIGITS:
                        j += 1
                    den = int(text[i + 1 : j])
                    if den == 0:
                        raise PolySyntaxError("zero denominator", i + 1)
                    tokens.append(("number", Fraction(num, den), start))
                    i = j
                    continue
                raise PolySyntaxError("expected digits after '/'", i + 1)
            tokens.append(("number", Fraction(num), start))
            continue
        if ch.isalpha():
            start = i
            while i < n and text[i].isalpha():
                i += 1
            while i < n and text[i] in _DIGITS:
                i += 1
            tokens.append(("name", text[start:i], start))
            continue
        if ch in _TOKEN_OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise PolySyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, object, int]], variables: tuple[str, str]):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables

    def peek(self) -> tuple[str, object, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, object, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, value, at = self.take()
        if kind != "op" or value != op:
            raise PolySyntaxError(f"expected {op!r}", at)

    def parse_expr(self) -> Poly2:
        negate = False
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.take()
            negate = True
        acc = self.parse_term()
        if negate:
            acc = -acc
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                rhs = self.parse_term()
                acc = acc + rhs if value == "+" else acc - rhs
            else:
                return acc

    def parse_term(self) -> Poly2:
        acc = self.parse_factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.take()
                factor = self.parse_factor()
                degree = acc.degree + factor.degree
                if degree > MAX_DEGREE:
                    raise DegreeTooLarge(f"product of total degree {degree} is over the budget of {MAX_DEGREE}")
                acc = acc * factor
            else:
                return acc

    def parse_factor(self) -> Poly2:
        base = self.parse_base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.take()
            kind, value, at = self.take()
            if kind == "op" and value == "-":
                raise NonIntegerExponent("exponent must be a nonnegative integer", at)
            if kind != "number":
                raise PolySyntaxError("expected an exponent", at)
            if value.denominator != 1:
                raise NonIntegerExponent("exponent must be a nonnegative integer", at)
            power = int(value)
            degree = max(base.degree, 1) * power
            if degree > MAX_DEGREE:
                raise DegreeTooLarge(f"power of total degree {degree} is over the budget of {MAX_DEGREE}")
            result = Poly2.constant(1)
            for _ in range(power):
                result = result * base
            return result
        return base

    def parse_base(self) -> Poly2:
        kind, value, at = self.take()
        if kind == "number":
            return Poly2.constant(value)
        if kind == "name":
            if value == self.variables[0]:
                return Poly2.variable("x")
            if value == self.variables[1]:
                return Poly2.variable("y")
            raise UnknownVariable(
                f"unknown variable {value!r} (allowed: {self.variables[0]}, {self.variables[1]})", at
            )
        if kind == "op" and value == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise PolySyntaxError("expected a number, variable or parenthesized expression", at)


def parse_poly(text: str, variables: tuple[str, str] = ("x", "y")) -> Poly2:
    """Parse a polynomial expression with exact rational coefficients.

    Variables are (x, y) by default; principal mode maps (k1, k2) onto
    them.  Round-trips with str(): parse_poly(str(p)) == p.
    """
    parser = _Parser(_tokenize(text), variables)
    result = parser.parse_expr()
    kind, _, at = parser.peek()
    if kind != "end":
        raise PolySyntaxError("unexpected trailing input", at)
    return result


# ---------------------------------------------------------------------------
# report rendering


def _precision() -> int:
    raw = os.environ.get("WEINGARTEN_PRECISION", "12")
    try:
        prec = int(raw)
    except ValueError as ex:
        raise ValueError(f"WEINGARTEN_PRECISION must be an integer, got {raw!r}") from ex
    return min(max(prec, 1), 17)


def _fmt(value: float, prec: int) -> str:
    return format(value, f".{prec}g")


def _radius_json(rad: AlgebraicRadius, tag: SpaceTag, prec: int) -> dict:
    if rad.exact_value is not None:
        body: dict = {"exact": str(rad.exact_value)}
        value = float(rad.exact_value)
    else:
        fine = rad.refined()
        value = float((fine.lo + fine.hi) / 2)  # what rad.approx() returns
        body = {
            "defining_poly": rad.defining_poly.to_string("r"),
            "interval": [str(fine.lo), str(fine.hi)],
            "approx": _fmt(value, prec),
        }
    if tag.space == "hyperbolic":
        return {"sinh_radius": body, "radius_approx": _fmt(math.asinh(value), prec)}
    return body


def _classification_json(report: ClassificationReport, prec: int) -> dict:
    lanes = []
    for lane in report.lanes:
        classes = []
        for cls in lane.classes:
            entry = {
                "class": cls.kind,
                "radius": _radius_json(cls.radius, lane.tag, prec),
            }
            if cls.quotient is not None:
                entry["quotient"] = str(cls.quotient)
            classes.append(entry)
        lanes.append(
            {
                "space": lane.tag.space,
                "eps": lane.tag.eps,
                "all_cylinders_any_radius": lane.all_cylinders_any_radius,
                "classes": classes,
            }
        )
    return {"lanes": lanes}


def _document(command: str, inputs: dict, result: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "result": result,
    }


# ---------------------------------------------------------------------------
# argument helpers

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def _parse_rational(text: str, what: str) -> Fraction:
    if not _RATIONAL_RE.match(text):
        raise UsageError(f"{what} must be an exact rational 'p' or 'p/q', got {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise UsageError(f"{what} has a zero denominator")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1, not argparse's default 2
        raise UsageError(message)


_SPACE_CHOICES = ("euclidean", "lorentzian", "hyperbolic", "all")


# ---------------------------------------------------------------------------
# built-in tube catalog


# name -> (curve builder, its parameters, normal section).  A plain key is
# a required rational, a (key, default) pair a word; a None section is read
# with delta from the 'section' and 'delta' parameters (Lorentzian tubes).
_TUBES = {
    "e3-line": (geo.e3_line, (), geo.SECTION_EUCLIDEAN),
    "e3-torus": (geo.e3_circle, ("R",), geo.SECTION_EUCLIDEAN),
    "e3-circle": (geo.e3_circle, ("R",), geo.SECTION_EUCLIDEAN),
    "e3-helix": (geo.e3_helix, ("a", "b"), geo.SECTION_EUCLIDEAN),
    "l3-helix-ss": (geo.l3_spacelike_helix_spacelike_normal, ("a", "b"), None),
    "l3-helix-st": (geo.l3_spacelike_helix_timelike_normal, ("a", "b"), None),
    "l3-helix-tl": (geo.l3_timelike_helix, ("a", "b"), None),
    "l3-line": (geo.l3_line, (("causality", "spacelike"), ("normal", "spacelike")), None),
    "h3-geodesic": (geo.h3_geodesic, (), geo.SECTION_HYPERBOLIC),
    "h3-circle": (geo.h3_circle, ("r0",), geo.SECTION_HYPERBOLIC),
}
_SECTIONS = {"circle": geo.SECTION_L_CIRCLE, "hyperbola": geo.SECTION_L_HYPERBOLA}
_DELTAS = {"1": 1, "+1": 1, "-1": -1}


def _tube_from_arg(text: str) -> tuple[geo.TubeSpec, dict]:
    name, _, params_text = text.partition(":")
    params: dict[str, str] = {}
    if params_text:
        for item in params_text.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key or not value:
                raise UsageError(f"bad tube parameter {item!r} (expected key=value)")
            if key in params:
                raise UsageError(f"duplicate tube parameter {key!r}")
            params[key] = value
    if name not in _TUBES:
        raise UsageError(
            f"unknown tube {name!r}; built-ins: e3-line, e3-torus, e3-helix, l3-helix-ss, "
            "l3-helix-st, l3-helix-tl, l3-line, h3-geodesic, h3-circle"
        )
    builder, keys, section = _TUBES[name]

    def rat(key: str) -> float:
        if key not in params:
            raise UsageError(f"tube {name!r} requires parameter {key!r}")
        return float(_parse_rational(params.pop(key), f"tube parameter {key!r}"))

    curve = builder(*(params.pop(*key) if isinstance(key, tuple) else rat(key) for key in keys))
    r = rat("r")
    delta = 1
    if section is None:
        section = _SECTIONS.get(params.pop("section", "circle"))
        if section is None:
            raise UsageError("section must be 'circle' or 'hyperbola'")
        delta = _DELTAS.get(params.pop("delta", "1"))
        if delta is None:
            raise UsageError("delta must be +1 or -1")
    spec = geo.TubeSpec(curve, r, section, delta, name=name)
    if params:
        raise UsageError(f"unknown tube parameters for {name!r}: {', '.join(sorted(params))}")
    return spec, {"tube": text}


# ---------------------------------------------------------------------------
# commands


def _cmd_classify(args) -> dict:
    prec = _precision()
    if args.principal:
        if args.space not in ("euclidean", "all"):
            raise UsageError("--principal is the Euclidean principal-curvature problem")
        poly = parse_poly(args.poly, ("k1", "k2"))
        report = solve_SQ_principal(poly)
    else:
        poly = parse_poly(args.poly)
        report = solve_SQ(poly, args.space)
    inputs = {"poly": str(poly), "space": args.space, "principal": bool(args.principal)}
    return _document("classify", inputs, _classification_json(report, prec))


def _cmd_radius(args) -> dict:
    prec = _precision()
    poly = parse_poly(args.poly)
    lanes = []
    for tag in expand_spaces(args.space):
        rset = star_radius_set(poly, tag) if args.star else radius_set(poly, tag)
        lane: dict = {"space": tag.space, "eps": tag.eps, "kind": rset.kind}
        if rset.kind == "finite":
            entries = []
            for entry in rset.entries:
                item: dict = {"radius": _radius_json(entry.radius, tag, prec)}
                if args.star:
                    item["star"] = entry.star
                entries.append(item)
            lane["entries"] = entries
        lanes.append(lane)
    inputs = {"poly": str(poly), "space": args.space, "star": bool(args.star)}
    return _document("radius", inputs, {"lanes": lanes})


def _cmd_divide(args) -> dict:
    poly = parse_poly(args.poly)
    r = _parse_rational(args.r, "--r")
    if r == 0:
        raise ZeroRadius("--r must be nonzero")
    eps = 1 if args.eps in ("1", "+1") else -1
    quotient = divide_by_tube_factor(poly, r, eps)
    generator = tube_generator(r, eps)
    inputs = {"poly": str(poly), "r": str(r), "eps": eps}
    if quotient is None:
        image = substitute_tube(poly, r, eps)
        result = {
            "in_ideal": False,
            "generator": str(generator),
            "substitution_image": image.to_string("x"),
        }
    else:
        result = {"in_ideal": True, "generator": str(generator), "quotient": str(quotient)}
    return _document("divide", inputs, result)


def _cmd_verify(args) -> dict:
    prec = _precision()
    poly = parse_poly(args.poly)
    spec, tube_echo = _tube_from_arg(args.tube)
    match = re.match(r"^(\d+)x(\d+)$", args.grid)
    if not match:
        raise UsageError(f"--grid must look like 64x64, got {args.grid!r}")
    n_s, n_t = int(match.group(1)), int(match.group(2))
    if n_s < 2 or n_t < 2:
        raise UsageError("grid must be at least 2x2")
    if n_s * n_t > MAX_GRID_POINTS:
        raise GridTooLarge(f"grid {args.grid} has {n_s * n_t} points, over the budget of {MAX_GRID_POINTS}")
    s_grid, t_grid = geo.default_grids(spec, n_s, n_t)
    csv_path = args.csv or None
    if csv_path:
        try:  # opened before the grid pass, so a bad path costs no sampling
            handle = open(csv_path, "w")
        except OSError as ex:
            raise UnwritableOutput(f"cannot write --csv {csv_path!r}: {ex.strerror}") from ex
        with handle:
            result, csv_text = geo.verify_relation_csv(poly, spec, s_grid, t_grid)
            handle.write(csv_text)
    else:
        result = geo.verify_relation(poly, spec, s_grid, t_grid)
    inputs = {"poly": str(poly), **tube_echo, "grid": args.grid, "csv": csv_path}
    body = {
        "max_residual": _fmt(result.max_residual, 17),
        "argmax": {"s": _fmt(result.argmax_s, prec), "t": _fmt(result.argmax_t, prec)},
        "regular_points": result.regular_points,
        "total_points": result.total_points,
    }
    return _document("verify", inputs, body)


def _linear_case_json(case: LinearCase, prec: int) -> dict:
    body: dict = {"space": case.tag.space, "eps": case.tag.eps, "kind": case.kind}
    if case.radius is not None:
        if case.tag.space == "hyperbolic":
            body["sinh_radius"] = str(case.radius)
            body["radius_approx"] = _fmt(math.asinh(float(case.radius)), prec)
        else:
            body["radius"] = str(case.radius)
    if case.discriminant is not None:
        body["discriminant"] = str(case.discriminant)
    return body


def _cmd_linear(args) -> dict:
    prec = _precision()
    a = _parse_rational(args.a, "a")
    b = _parse_rational(args.b, "b")
    c = _parse_rational(args.c, "c")
    cases = classify_linear(a, b, c, args.space)
    inputs = {"a": str(a), "b": str(b), "c": str(c), "space": args.space}
    return _document("linear", inputs, {"cases": [_linear_case_json(k, prec) for k in cases]})


def _cmd_sff(args) -> dict:
    prec = _precision()
    c = _parse_rational(args.c, "c")
    report = classify_second_fundamental(c, args.space)
    inputs = {"c": str(c), "space": args.space}
    return _document("sff", inputs, _classification_json(report, prec))


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="weingarten-tubes",
        description="Classify polynomial Weingarten tube surfaces and verify the answers numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="solve: which tubes satisfy Q(K, H) = 0")
    p.add_argument("poly", help="polynomial in x, y (k1, k2 with --principal)")
    p.add_argument("--space", choices=_SPACE_CHOICES, default="all")
    p.add_argument("--principal", action="store_true", help="principal-curvature relation Q(k1, k2)")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("radius", help="radius / star-radius sets of a polynomial")
    p.add_argument("poly")
    p.add_argument("--space", choices=_SPACE_CHOICES, default="all")
    p.add_argument("--star", action="store_true", help="decide star membership per radius")
    p.set_defaults(handler=_cmd_radius)

    p = sub.add_parser("divide", help="exact quotient by x*r^2 - 2*r*y + eps")
    p.add_argument("poly")
    p.add_argument("--r", required=True, help="rational radius p/q")
    p.add_argument("--eps", choices=("+1", "1", "-1"), default="+1")
    p.set_defaults(handler=_cmd_divide)

    p = sub.add_parser("verify", help="max |Q(K, H)| on a sampled built-in tube")
    p.add_argument("poly")
    p.add_argument("--tube", required=True, help="e.g. e3-torus:R=10,r=2")
    p.add_argument("--grid", default="64x64")
    p.add_argument("--csv", default=None, help="write the sample grid as CSV to this path")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("linear", help="linear relation a*x + b*y - c case analysis")
    # let negative rationals like -1/8 through as positional values
    p._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("c")
    p.add_argument("--space", choices=_SPACE_CHOICES, default="all")
    p.set_defaults(handler=_cmd_linear)

    p = sub.add_parser("sff", help="tubes with second fundamental form of constant length c")
    p.add_argument("c")
    p.add_argument("--space", choices=_SPACE_CHOICES, default="all")
    p.set_defaults(handler=_cmd_sff)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        document = args.handler(args)
    except (UsageError, PolySyntaxError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    except DomainError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except OverflowError as ex:  # a tube parameter or radius beyond double range
        print(f"error: numeric overflow: {ex}", file=sys.stderr)
        return 2
    except InternalMismatch as ex:
        print(f"internal error: {ex}", file=sys.stderr)
        return 3
    except ValueError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    sys.stdout.write(json.dumps(document, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
