"""Byte identity of the CLI over a seeded corpus of S(Q) invocations.

Each line of ``golden/pinned/corpus.txt`` is the sha256 of one
invocation's (exit code, stdout, stderr) followed by its argv as JSON.
The corpus mixes random relations, planted rational stars, planted
quadratic-irrational stars and relations x*P that vanish on the whole
axis, each asked as ``classify``, ``radius --star`` and
``classify --principal``.  Regenerate the file with
``PYTHONPATH=src python tests/test_corpus.py`` and only when an output
change is intended.
"""

import contextlib
import hashlib
import io
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from conftest import random_poly2, random_positive_rational, random_rational  # noqa: E402
from weingarten_tubes.cli import main  # noqa: E402
from weingarten_tubes.polyalg import Poly2  # noqa: E402

CORPUS = Path(__file__).parent / "golden" / "pinned" / "corpus.txt"
SEED = 1010
ROUNDS = 100
KINDS = ("random", "rational-star", "irrational-star", "axis")

X = Poly2.variable("x")
Y = Poly2.variable("y")


def _cofactor(rng: random.Random) -> Poly2:
    return random_poly2(rng, 2, 3) + Poly2.constant(rng.choice([-1, 1]) * rng.randint(1, 9))


def _conjugate_pair(rng: random.Random) -> tuple[Fraction, Fraction]:
    """(s, p) = (r1 + r2, r1 * r2) for two positive roots r1, r2 of
    t**2 - s*t + p that are conjugate quadratic irrationals."""
    while True:
        s, p = random_positive_rational(rng, 6, 4), random_positive_rational(rng, 6, 4)
        disc = s * s - 4 * p
        if disc > 0 and not _is_square(disc):
            return s, p


def _is_square(v: Fraction) -> bool:
    return all(math.isqrt(n) ** 2 == n for n in (v.numerator, v.denominator))


def _tube_relation(rng: random.Random, kind: str) -> Poly2:
    """A relation in (K, H) planted for a random K-H lane signal."""
    eps = rng.choice([-1, 1])
    if kind == "random":
        return random_poly2(rng, 4, 5)
    if kind == "axis":
        return X * random_poly2(rng, 3, 4)
    if kind == "rational-star":
        r = random_positive_rational(rng, 4, 6)
        gen = X * r * r - Y * (2 * r) + Poly2.constant(eps)
        q = gen * _cofactor(rng)
        return q + X * random_poly2(rng, 1, 2) if rng.random() < 0.3 else q
    # the product of the generators at r1 and r2, with rational coefficients
    s, p = _conjugate_pair(rng)
    pair = (
        X * X * (p * p) - X * Y * (2 * p * s) + X * (eps * (s * s - 2 * p))
        + Y * Y * (4 * p) - Y * (2 * eps * s) + Poly2.constant(1)
    )
    return pair * _cofactor(rng)


def _principal_relation(rng: random.Random, kind: str) -> Poly2:
    """A relation in (k1, k2) planted for the principal generator y - 1/r."""
    if kind == "random":
        return random_poly2(rng, 4, 5)
    if kind == "axis":
        return X * random_poly2(rng, 3, 4)
    if kind == "rational-star":
        gen = Y - Poly2.constant(1 / random_positive_rational(rng, 4, 6))
        return gen * _cofactor(rng)
    s, p = _conjugate_pair(rng)
    return (Y * Y - Y * (s / p) + Poly2.constant(1 / p)) * _cofactor(rng)


def _text(q: Poly2) -> str:
    # argparse would read a leading minus sign as an option
    return str(-q if str(q).startswith("-") else q)


def corpus_argvs() -> list[list[str]]:
    rng = random.Random(SEED)
    argvs = []
    for n in range(ROUNDS):
        kind = KINDS[n % len(KINDS)]
        q = _tube_relation(rng, kind)
        if rng.random() < 0.1:
            q = q * Poly2.constant(random_rational(rng, 1, 10**6, 10**6))
        argvs.append(["classify", _text(q)])
        argvs.append(["radius", _text(q), "--star"])
        principal = _text(_principal_relation(rng, kind)).replace("x", "k1").replace("y", "k2")
        argvs.append(["classify", principal, "--principal"])
    return argvs


def run_digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


def read_corpus() -> list[tuple[str, list[str]]]:
    lines = CORPUS.read_text().splitlines()
    return [(digest, json.loads(argv)) for digest, argv in (line.split(" ", 1) for line in lines)]


def test_corpus_is_the_seeded_one():
    assert [argv for _, argv in read_corpus()] == corpus_argvs()


def test_outputs_are_byte_identical():
    changed = [json.dumps(argv) for digest, argv in read_corpus() if run_digest(argv) != digest]
    assert not changed, f"{len(changed)} invocations changed output:\n" + "\n".join(changed)


if __name__ == "__main__":
    CORPUS.write_text("".join(f"{run_digest(argv)} {json.dumps(argv)}\n" for argv in corpus_argvs()))
