"""Command-line front end: polynomial parsing, classification commands,
JSON reports and CSV verification dumps.

Commands: ``classify`` (tube families satisfying a relation), ``radius``
(radius / star-radius sets), ``divide`` (exact quotient by the tube
relation), ``verify`` (numeric residuals on a sampled built-in tube),
``linear`` (linear-relation case analysis) and ``sff`` (constant
second-fundamental-form length).  All but ``verify`` are exact algebra
and start without ``geometry`` and numpy: this module registers
``geometry`` as a lazy module, whose source, numpy import included, is
compiled and run on its first attribute lookup, which only ``verify``
makes.  Run as a program, the CLI asks numpy's OpenBLAS for one thread:
``geometry`` makes no BLAS call a second thread could serve, and on a
2-vCPU host an idle pool took nearly a third of a cold ``verify``.
Setting any of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS
overrides it.

Reports are JSON documents with a frozen field layout (see
docs/report_schema.md); identical inputs produce byte-identical output.
Exit codes: 0 success, 1 usage or syntax error, 2 domain error, 3
internal-check failure.  The environment variable WEINGARTEN_PRECISION
(default 12, clamped to 1-17) sets the number of significant digits
used for approximate values in reports.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib.util
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

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
from .polyalg import Poly2, _add, _convolve, _expand_power, divide_by_tube_factor, substitute_tube, tube_generator
from .radius import SPACES, AlgebraicRadius, SpaceTag, _LANE_TABLE, _radius_sets

SCHEMA_VERSION = "1"

# Budget for --grid.  A point costs about 0.3 us of block-vectorised work
# (2-vCPU x86 host, Python 3.11.7, numpy 2.4.6, in-process), and with --csv
# about 1.4-1.5 us more to format its line of about 150 bytes, written block
# by block; a right cylinder's repeated rows cost less.  2**18 points take,
# medians of 5 runs of best of 3: 0.024 s (512x512 e3-line), 0.071 s
# (e3-torus) and 0.079 s (h3-circle), or 0.17, 0.43 and 0.48 s with --csv,
# at 30.9-32.3 MB, or 32.3-35.2 MB.  Uncapped, a grid like 100000x100000
# would run for hours.
MAX_GRID_POINTS = 2**18

# Budget for the parsed polynomial: no exponent and no product may exceed
# this total degree.  Dense inputs cost about d**3 (2-vCPU x86 host,
# Python 3.11, in-process, the budget raised for k = 150): `classify
# "(x + 2*y + 1)^k"` takes 0.003 s at k = 30, the largest degree of any
# shipped input, 0.03 s at k = 100 and 0.09 s at k = 150, of which the
# expansion of the power is about 40% and printing the echoed polynomial
# about a quarter.
# Unchecked, `y^99999999` never finishes parsing.
MAX_DEGREE = 100

# Budget for parenthesis nesting: each level costs the recursive parser
# four stack frames, so about 245 levels exhaust Python's default recursion
# limit.  No shipped input nests deeper than 3.
MAX_NESTING = 100


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
                    tokens.append(("number", (num, den), start))
                    i = j
                    continue
                raise PolySyntaxError("expected digits after '/'", i + 1)
            tokens.append(("number", (num, 1), start))
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
    """Recursive descent on cleared integer parts (den, {(i, j): numerator},
    total degree or -1 for zero): ``polyalg._add``, ``_convolve`` and
    ``_expand_power`` keep no canonical form, so ``parse_poly``
    canonicalises once, at the end; only a sum scans for its degree."""

    def __init__(self, tokens: list[tuple[str, object, int]], variables: tuple[str, str]):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables
        self.depth = 0

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

    def parse_expr(self) -> tuple[int, dict, int]:
        # the signed summands are added once, into one integer dict, so the
        # cost is linear in their number
        sign = 1
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.take()
            sign = -1
        summands = [(sign, *self.parse_term()[:2])]
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                summands.append((1 if value == "+" else -1, *self.parse_term()[:2]))
            else:
                den, nums = _add(summands)
                return den, nums, max(map(sum, nums), default=-1)

    def parse_term(self) -> tuple[int, dict, int]:
        den, nums, deg = self.parse_factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.take()
                factor_den, factor, factor_deg = self.parse_factor()
                degree = deg + factor_deg
                if degree > MAX_DEGREE:
                    raise DegreeTooLarge(f"product of total degree {degree} is over the budget of {MAX_DEGREE}")
                den, nums, deg = den * factor_den, _convolve(nums, factor), -1 if min(deg, factor_deg) < 0 else degree
            else:
                return den, nums, deg

    def parse_factor(self) -> tuple[int, dict, int]:
        den, nums, deg = self.parse_base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.take()
            kind, value, at = self.take()
            if kind == "op" and value == "-":
                raise NonIntegerExponent("exponent must be a nonnegative integer", at)
            if kind != "number":
                raise PolySyntaxError("expected an exponent", at)
            power, rem = divmod(*value)
            if rem:
                raise NonIntegerExponent("exponent must be a nonnegative integer", at)
            degree = max(deg, 1) * power
            if degree > MAX_DEGREE:
                raise DegreeTooLarge(f"power of total degree {degree} is over the budget of {MAX_DEGREE}")
            return den**power, _expand_power(nums, power), -1 if deg < 0 < power else deg * power
        return den, nums, deg

    def parse_base(self) -> tuple[int, dict, int]:
        kind, value, at = self.take()
        if kind == "number":
            num, den = value
            return (den, {(0, 0): num}, 0) if num else (den, {}, -1)
        if kind == "name":
            if value == self.variables[0]:
                return 1, {(1, 0): 1}, 1
            if value == self.variables[1]:
                return 1, {(0, 1): 1}, 1
            raise UnknownVariable(
                f"unknown variable {value!r} (allowed: {self.variables[0]}, {self.variables[1]})", at
            )
        if kind == "op" and value == "(":
            if self.depth == MAX_NESTING:
                raise PolySyntaxError(f"parentheses nested deeper than {MAX_NESTING}", at)
            self.depth += 1
            inner = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise PolySyntaxError("expected a number, variable or parenthesized expression", at)


def parse_poly(text: str, variables: tuple[str, str] = ("x", "y")) -> Poly2:
    """Parse a polynomial expression with exact rational coefficients.

    Variables are (x, y) by default; principal mode maps (k1, k2) onto
    them.  Round-trips with str(): parse_poly(str(p)) == p.
    """
    parser = _Parser(_tokenize(text), variables)
    den, nums, _ = parser.parse_expr()
    kind, _, at = parser.peek()
    if kind != "end":
        raise PolySyntaxError("unexpected trailing input", at)
    return Poly2._from_cleared(nums, den)


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


def _radius_body(rad: AlgebraicRadius, prec: int) -> tuple[dict, float]:
    """The printed radius, in its lane's radius, and its value."""
    if rad.exact_value is not None:
        return {"exact": str(rad.exact_value)}, float(rad.exact_value)
    fine = rad.refined()
    value = float((fine.lo + fine.hi) / 2)  # what rad.approx() returns
    body = {
        "defining_poly": rad.defining_poly.to_string("r"),
        "interval": [str(fine.lo), str(fine.hi)],
        "approx": _fmt(value, prec),
    }
    return body, value


def _radius_json(body: dict | str, value: float, tag: SpaceTag, prec: int) -> dict | str:
    """The printed radius of value: body, or, where the lane's algebra works
    in another radius (``radius._LANE_TABLE``), body under its key beside r."""
    _, key, to_r = _LANE_TABLE[tag]
    return {key: body, "radius_approx": _fmt(to_r(value), prec)} if key else body


def _classification_json(report: ClassificationReport, prec: int) -> dict:
    # lanes that share a family row share its radius and quotient objects
    # (classify.solve_SQ): each is printed once, keyed by id() while the
    # report keeps it alive
    printed: dict[int, object] = {}

    def once(obj, render):
        if id(obj) not in printed:
            printed[id(obj)] = render(obj)
        return printed[id(obj)]

    lanes = []
    for lane in report.lanes:
        classes = []
        for cls in lane.classes:
            body, value = once(cls.radius, lambda rad: _radius_body(rad, prec))
            entry = {
                "class": cls.kind,
                "radius": _radius_json(body, value, lane.tag, prec),
            }
            if cls.quotient is not None:
                entry["quotient"] = once(cls.quotient, str)
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


def _render(value, out: list, newline: str = "\n") -> None:
    """Append the text of json.dumps(value, indent=2) to out, piece by piece,
    for the types a report holds: dict (str keys), list, str, int, bool and
    None.  newline is the line break plus the indent of the value's own
    line.  json.dumps with an indent runs CPython's pure-Python encoder;
    this does the same work without its generator chain."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (dict, list)):
        is_dict = isinstance(value, dict)
        if not value:
            out.append("{}" if is_dict else "[]")
            return
        inner = newline + "  "
        out.append("{" if is_dict else "[")
        for n, item in enumerate(value.items() if is_dict else value):
            out.append("," + inner if n else inner)
            if is_dict:
                out.append(encode_basestring_ascii(item[0]) + ": ")
                item = item[1]
            _render(item, out, inner)
        out.append(newline + ("}" if is_dict else "]"))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _document(command: str, inputs: dict, result: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "result": result,
    }


# ---------------------------------------------------------------------------
# argument helpers

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")  # \d also takes "٣"


def _parse_rational(text: str, what: str) -> Fraction:
    if not _RATIONAL_RE.fullmatch(text):
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
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # after -h is added: any other single-dash argument, such as -1/8 or
        # a relation -x*y+1, is a positional value
        self._negative_number_matcher = re.compile(r"^-[^-]")

    def error(self, message):  # exit code 1, not argparse's default 2
        raise UsageError(message)


_SPACE_CHOICES = (*SPACES, "all")

# the words for a signal: --eps of divide and delta= of a Lorentzian tube
_SIGNALS = {"+1": 1, "1": 1, "-1": -1}


# ---------------------------------------------------------------------------
# built-in tube catalog


def _lazy_geometry():
    """The module weingarten_tubes.geometry: the one in sys.modules when it
    is imported, else a new entry there whose source is compiled and run on
    its first attribute lookup (importlib.util.LazyLoader), also set on the
    package as an import would.  The entry is made at once: the benchmark's
    span tracer (bench/spans.py) looks the module up in sys.modules right
    after importing this one."""
    name = f"{__package__}.geometry"
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], "geometry", module)
    return module


geo = _lazy_geometry()

# name -> (curve builder, its parameters, normal section), builder and
# section as names in geometry, read by verify alone.  A plain key is a
# required rational, a (key, default) pair a word; a None section is read
# with delta from the 'section' and 'delta' parameters (Lorentzian tubes).
_TUBES = {
    "e3-line": ("e3_line", (), "SECTION_EUCLIDEAN"),
    "e3-torus": ("e3_circle", ("R",), "SECTION_EUCLIDEAN"),
    "e3-circle": ("e3_circle", ("R",), "SECTION_EUCLIDEAN"),
    "e3-helix": ("e3_helix", ("a", "b"), "SECTION_EUCLIDEAN"),
    "l3-helix-ss": ("l3_spacelike_helix_spacelike_normal", ("a", "b"), None),
    "l3-helix-st": ("l3_spacelike_helix_timelike_normal", ("a", "b"), None),
    "l3-helix-tl": ("l3_timelike_helix", ("a", "b"), None),
    "l3-line": ("l3_line", (("causality", "spacelike"), ("normal", "spacelike")), None),
    "h3-geodesic": ("h3_geodesic", (), "SECTION_HYPERBOLIC"),
    "h3-circle": ("h3_circle", ("r0",), "SECTION_HYPERBOLIC"),
}
_SECTIONS = {"circle": "SECTION_L_CIRCLE", "hyperbola": "SECTION_L_HYPERBOLA"}


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
        raise UsageError(f"unknown tube {name!r}; built-ins: {', '.join(_TUBES)}")
    builder, keys, section = _TUBES[name]

    def rat(key: str) -> float:
        if key not in params:
            raise UsageError(f"tube {name!r} requires parameter {key!r}")
        return float(_parse_rational(params.pop(key), f"tube parameter {key!r}"))

    curve = getattr(geo, builder)(*(params.pop(*key) if isinstance(key, tuple) else rat(key) for key in keys))
    r = rat("r")
    delta = 1
    if section is None:
        section = _SECTIONS.get(params.pop("section", "circle"))
        if section is None:
            raise UsageError("section must be 'circle' or 'hyperbola'")
        delta = _SIGNALS.get(params.pop("delta", "1"))
        if delta is None:
            raise UsageError("delta must be +1 or -1")
    spec = geo.TubeSpec(curve, r, getattr(geo, section), delta, name=name)
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
    tags = expand_spaces(args.space)
    for tag, rset in zip(tags, _radius_sets(poly, tags, args.star)):
        lane: dict = {"space": tag.space, "eps": tag.eps, "kind": rset.kind}
        if rset.kind == "finite":
            lane["entries"] = [
                {"radius": _radius_json(*_radius_body(entry.radius, prec), tag, prec)}
                | ({"star": entry.star} if args.star else {})
                for entry in rset.entries
            ]
        lanes.append(lane)
    inputs = {"poly": str(poly), "space": args.space, "star": bool(args.star)}
    return _document("radius", inputs, {"lanes": lanes})


def _cmd_divide(args) -> dict:
    poly = parse_poly(args.poly)
    r = _parse_rational(args.r, "--r")
    if r == 0:
        raise ZeroRadius("--r must be nonzero")
    eps = _SIGNALS[args.eps]
    # a non-member's image reads the pass the division left on poly (Poly2._line_pass)
    quotient = divide_by_tube_factor(poly, r, eps)
    generator = tube_generator(r, eps)
    inputs = {"poly": str(poly), "r": str(r), "eps": eps}
    if quotient is None:
        result = {
            "in_ideal": False,
            "generator": str(generator),
            "substitution_image": substitute_tube(poly, r, eps).to_string("x"),
        }
    else:
        result = {"in_ideal": True, "generator": str(generator), "quotient": str(quotient)}
    return _document("divide", inputs, result)


def _cmd_verify(args) -> dict:
    try:  # the first lookup runs geometry, numpy import included
        geo.verify_relation
    except ModuleNotFoundError as ex:
        if ex.name != "numpy":
            raise
        raise UsageError("verify needs numpy, which is not installed") from ex
    prec = _precision()
    poly = parse_poly(args.poly)
    spec, tube_echo = _tube_from_arg(args.tube)
    match = re.fullmatch(r"([0-9]+)x([0-9]+)", args.grid)
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
            with open(csv_path, "w") as handle:
                try:
                    result = geo.verify_relation(poly, spec, s_grid, t_grid, handle)
                except BaseException:  # an in-pass error leaves an empty file where it can
                    with contextlib.suppress(OSError):  # unseekable, or its pending write fails
                        handle.seek(0)
                        handle.truncate()
                    raise
        except OSError as ex:
            raise UnwritableOutput(f"cannot write --csv {csv_path!r}: {ex.strerror or ex}") from ex
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
        radius = _radius_json(str(case.radius), float(case.radius), case.tag, prec)
        body.update(radius if _LANE_TABLE[case.tag].radius_key else {"radius": radius})
    if case.discriminant is not None:
        body["discriminant"] = str(case.discriminant)
    return body


def _cmd_linear(args) -> dict:
    prec = _precision()
    a, b, c = (_parse_rational(getattr(args, name), name) for name in "abc")
    cases = classify_linear(a, b, c, args.space)
    inputs = {"a": str(a), "b": str(b), "c": str(c), "space": args.space}
    return _document("linear", inputs, {"cases": [_linear_case_json(k, prec) for k in cases]})


def _cmd_sff(args) -> dict:
    prec = _precision()
    c = _parse_rational(args.c, "c")
    report = classify_second_fundamental(c, args.space)
    inputs = {"c": str(c), "space": args.space}
    return _document("sff", inputs, _classification_json(report, prec))


@functools.cache  # built once per process: parse_args leaves the parser as it was
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
    p.add_argument("--eps", choices=tuple(_SIGNALS), default="+1")
    p.set_defaults(handler=_cmd_divide)

    p = sub.add_parser("verify", help="max |Q(K, H)| on a sampled built-in tube")
    p.add_argument("poly")
    p.add_argument("--tube", required=True, help="e.g. e3-torus:R=10,r=2")
    p.add_argument("--grid", default="64x64")
    p.add_argument("--csv", default=None, help="write the sample grid as CSV to this path")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("linear", help="linear relation a*x + b*y - c case analysis")
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
    """Run one command on argv, or on sys.argv[1:] as a program, where
    OpenBLAS gets one thread unless the user chose a number (module doc)."""
    if argv is None and not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
        os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read as numpy loads, in verify
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
    text: list[str] = []
    _render(document, text)
    text.append("\n")
    sys.stdout.write("".join(text))
    return 0


if __name__ == "__main__":
    sys.exit(main())
