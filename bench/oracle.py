"""Independent checking arithmetic for the benchmark.

Nothing here imports the library: expressions in the CLI's polynomial
syntax are evaluated directly over ``Fraction`` and bivariate
polynomials are plain ``{(i, j): Fraction}`` dicts, so a defect in the
library's parser, expansion or printing cannot also hide in the check.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

_TOKEN = re.compile(r"\s*(?:(\d+)(?:/(\d+))?|([A-Za-z]+\d*)|(.))")


def eval_expr(text: str, point: dict[str, Fraction]) -> Fraction:
    """Value of a polynomial expression (numbers p or p/q, named
    variables, + - * ^ and parentheses) at the given point."""
    tokens = []
    for num, den, name, op in _TOKEN.findall(text):
        if num:
            tokens.append(("n", Fraction(int(num), int(den) if den else 1)))
        elif name:
            tokens.append(("v", point[name]))
        elif op.strip():
            tokens.append(("o", op))
    tokens.append(("o", "$"))
    pos = 0

    def peek():
        return tokens[pos]

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def expr() -> Fraction:
        sign = 1
        if peek() == ("o", "-"):
            take()
            sign = -1
        acc = sign * term()
        while peek() in (("o", "+"), ("o", "-")):
            op = take()[1]
            acc = acc + term() if op == "+" else acc - term()
        return acc

    def term() -> Fraction:
        acc = factor()
        while peek() == ("o", "*"):
            take()
            acc *= factor()
        return acc

    def factor() -> Fraction:
        kind, value = take()
        if kind == "o" and value == "(":
            base = expr()
            if take() != ("o", ")"):
                raise ValueError(f"unbalanced parenthesis in {text!r}")
        elif kind in ("n", "v"):
            base = value
        else:
            raise ValueError(f"unexpected {value!r} in {text!r}")
        if peek() == ("o", "^"):
            take()
            kind, power = take()
            if kind != "n" or power.denominator != 1:
                raise ValueError(f"bad exponent in {text!r}")
            base = base ** int(power)
        return base

    value = expr()
    if peek() != ("o", "$"):
        raise ValueError(f"trailing input in {text!r}")
    return value


def random_point(rng: random.Random, names: tuple[str, str] = ("x", "y")) -> dict[str, Fraction]:
    return {n: Fraction(rng.randint(-40, 40), rng.randint(1, 13)) for n in names}


# ---------------------------------------------------------------------------
# dict polynomials


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v != 0}


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v != 0}


def generator(r: Fraction, eps: int) -> dict:
    """x*r^2 - 2*r*y + eps as a dict polynomial."""
    return {(1, 0): r * r, (0, 1): -2 * r, (0, 0): Fraction(eps)}


def poly_text(p: dict) -> str:
    """Any valid expression for p; term order is irrelevant to the CLI."""
    if not p:
        return "0"
    text = ""
    for (i, j), c in sorted(p.items()):
        mono = (f"*x^{i}" if i else "") + (f"*y^{j}" if j else "")
        if text:
            text += f" {'-' if c < 0 else '+'} {abs(c)}{mono}"
        else:
            text = f"{'-' if c < 0 else ''}{abs(c)}{mono}"
    return text


def degree(p: dict) -> int:
    return max((i + j for i, j in p), default=-1)


# ---------------------------------------------------------------------------
# numbers


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_probable_prime(n):
        n += 1
    return n


def max_int_bits(text: str) -> int:
    """Largest bit length of any integer literal in a report string."""
    return max((int(m).bit_length() for m in re.findall(r"\d+", text)), default=0)
