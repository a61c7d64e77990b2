"""Byte identity of the CLI over a seeded corpus of S(Q) invocations.

Each line of ``golden/pinned/corpus.txt`` is the sha256 of one
invocation's (exit code, stdout, stderr) followed by its argv as JSON.
The corpus mixes random relations, planted rational stars, planted
quadratic-irrational stars and relations x*P that vanish on the whole
axis, each asked as ``classify``, ``radius --star`` and
``classify --principal``.  ``golden/pinned/divide_corpus.txt`` pins
``divide`` the same way: planted members and non-members under both
signals, negative and large-denominator radii, and the zero polynomial.
``golden/pinned/verify_csv_corpus.txt`` pins the bytes of ``verify
--csv`` across block boundaries: the sha256 of the CSV of each argv of
``verify_tubes.json`` at 64x64 and at 45x37, each one block at the
default 4096 points per block and checked again at 1024 points per
block, where 64x64 is four blocks of 16 rows and 45x37 blocks of 27
rows, then 18.
``golden/pinned/power_corpus.txt`` pins the parser's sums, products and
powers: c*(x + 2*y + 1)^k for k = 0, 10, ..., 100, two powers with
20-digit and 15-digit coefficients, and typed expressions of nested
products and powers, some of which cancel or cross the degree budget.
``golden/pinned/corollary_corpus.txt`` pins the corollary commands:
``sff`` for eight lengths c, among them 0, a negative one, 10**14 + 31
and 1/367567200, under every ``--space``; ``linear`` on every triple of
nine coefficients, among them the degenerate a = b = 0; and plain
``radius --space all`` on each relation that ``corpus.txt`` classifies,
principal ones read in x and y.
Regenerate the files with ``PYTHONPATH=src python tests/test_corpus.py``
and only when an output change is intended.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from conftest import random_poly2, random_positive_rational, random_rational  # noqa: E402
from weingarten_tubes import geometry  # noqa: E402
from weingarten_tubes.cli import main  # noqa: E402
from weingarten_tubes.polyalg import Poly2  # noqa: E402

CORPUS = Path(__file__).parent / "golden" / "pinned" / "corpus.txt"
DIVIDE_CORPUS = CORPUS.with_name("divide_corpus.txt")
VERIFY_CSV_CORPUS = CORPUS.with_name("verify_csv_corpus.txt")
VERIFY_TUBES = CORPUS.with_name("verify_tubes.json")
POWER_CORPUS = CORPUS.with_name("power_corpus.txt")
COROLLARY_CORPUS = CORPUS.with_name("corollary_corpus.txt")
MULTI_BLOCK_GRIDS = ("64x64", "45x37")
SEED = 1010
DIVIDE_SEED = 1515
POWER_SEED = 2121
POWER_ROUNDS = 200
ROUNDS = 100
DIVIDE_KINDS = ("member", "non-member", "random", "member-plus-x")
KINDS = ("random", "rational-star", "irrational-star", "axis")
SPACES = ("euclidean", "lorentzian", "hyperbolic", "all")
SFF_LENGTHS = ("1/2", "1", "3", "7/5", str(10**14 + 31), "1/367567200", "0", "-2")
LINEAR_COEFFICIENTS = ("-2", "-1", "-1/8", "0", "1/4", "1/2", "1", "2", "3")

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


def _divide_radius(rng: random.Random, n: int) -> Fraction:
    """Small positive, negative and large-denominator radii in turn."""
    if n % 3 == 0:
        return random_positive_rational(rng, 6, 9)
    if n % 3 == 1:
        return -random_positive_rational(rng, 6, 9)
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**20), rng.randint(10**19, 10**20))


def divide_argvs() -> list[list[str]]:
    rng = random.Random(DIVIDE_SEED)
    argvs = []
    for n in range(ROUNDS):
        r, eps = _divide_radius(rng, n), rng.choice([-1, 1])
        kind = DIVIDE_KINDS[n % len(DIVIDE_KINDS)]
        gen = X * r * r - Y * (2 * r) + Poly2.constant(eps)
        if n % 20 == 0:
            q = Poly2.zero()
        elif kind == "random":
            q = random_poly2(rng, 4, 5)
        else:
            q = gen * _cofactor(rng)
            if kind == "non-member":
                q = q + Poly2.constant(random_rational(rng, 1, 9))
            elif kind == "member-plus-x":
                q = q + X * random_poly2(rng, 1, 2)
        argvs.append(["divide", _text(q), "--r", str(r), "--eps", rng.choice(["1", "+1"]) if eps == 1 else "-1"])
    return argvs


def _typed_sum(rng: random.Random, max_degree: int, n_terms: int) -> str:
    """n_terms random monomials c*x^i*y^j as a user types them, c a
    positive rational and each joined by " + " or " - "."""
    text = ""
    for n in range(n_terms):
        i = rng.randint(0, max_degree)
        j = rng.randint(0, max_degree - i)
        term = str(random_rational(rng, 1, 9)) + (f"*x^{i}" if i else "") + (f"*y^{j}" if j else "")
        text += (rng.choice([" + ", " - "]) if n else "") + term
    return text


def _typed_expression(rng: random.Random, shape: int) -> str:
    """One product or power expression of the given shape, built as text
    only, so the corpus does not depend on the arithmetic it pins."""
    def f(max_degree=2, n_terms=3):
        return f"({_typed_sum(rng, max_degree, rng.randint(1, n_terms))})"

    k, c = rng.randint(0, 8), random_rational(rng, 1, 9)
    if shape == 0:
        return f"{f(3, 4)}^{k}"
    if shape == 1:
        return f"{f()}*{f()}*{f()}"
    if shape == 2:
        return f"{c}*{f()}^{rng.randint(0, 4)}*{f()}^{rng.randint(0, 4)}"
    if shape == 3:
        return f"({f()}^{rng.randint(0, 3)} - {f()}*{f()})^{rng.randint(0, 3)}"
    if shape == 4:
        # the two products cancel, and so may the power of the rest
        a, b = f(), f()
        return f"{a}*{b} - {b}*{a} + {f(3)}^{rng.randint(0, 5)}"
    if shape == 5:
        # tube generators written with ^1, as in the benchmark's products
        return f"{c}*" + "*".join(
            f"({random_rational(rng, 1, 9)}*x^1 - {random_rational(rng, 1, 9)}*y^1 {rng.choice('+-')} 1)"
            for _ in range(rng.randint(2, 6))
        )
    if shape == 6:
        i, j = rng.randint(0, 2), rng.randint(0, 2)
        return f"(-{c}*x^{i}*y^{j} + {random_rational(rng, 1, 9)}*x + y - 1)^{rng.randint(1, 12)}"
    # a degree over the budget that cancellation may bring back under it
    e = rng.randint(40, 120)
    return f"(x^{e} + {_typed_sum(rng, 2, 2)} - x^{e})^{rng.randint(1, 60)}*x^{rng.randint(0, 60)}"


def power_argvs() -> list[list[str]]:
    rng = random.Random(POWER_SEED)
    argvs = [
        ["classify", f"{random_rational(rng, 1, 99)}*(x + 2*y + 1)^{k}", "--space", "all"] for k in range(0, 101, 10)
    ]
    argvs += [
        ["classify", "(12345678901234567890*x + 98765432109876543210*y + 1)^100", "--space", "all"],
        ["classify", "(x^10 + 123456789012345*y^3 - 1)^10", "--space", "all"],
    ]
    for n in range(POWER_ROUNDS):
        expr = _typed_expression(rng, n % 8)
        argvs.append(["radius", expr, "--star"] if n % 4 == 3 else ["classify", expr])
    return argvs


def corollary_argvs() -> list[list[str]]:
    argvs = [["sff", c, "--space", space] for c in SFF_LENGTHS for space in SPACES]
    argvs += [["linear", *abc] for abc in itertools.product(LINEAR_COEFFICIENTS, repeat=3)]
    for argv in corpus_argvs():
        if argv[0] == "classify":
            argvs.append(["radius", argv[1].replace("k1", "x").replace("k2", "y"), "--space", "all"])
    return argvs


def verify_csv_argvs() -> list[list[str]]:
    argvs = []
    for grid in MULTI_BLOCK_GRIDS:
        for case in json.loads(VERIFY_TUBES.read_text()):
            argv = list(case["argv"])
            argv[argv.index("--grid") + 1] = grid
            argvs.append(argv)
    return argvs


def csv_digest(argv: list[str], directory: Path) -> str:
    """The sha256 of the CSV that ``argv --csv`` writes into ``directory``."""
    path = directory / "samples.csv"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main([*argv, "--csv", str(path)])
    assert code == 0, err.getvalue()
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


def read_corpus(path: Path = CORPUS) -> list[tuple[str, list[str]]]:
    lines = path.read_text().splitlines()
    return [(digest, json.loads(argv)) for digest, argv in (line.split(" ", 1) for line in lines)]


def test_corpus_is_the_seeded_one():
    assert [argv for _, argv in read_corpus()] == corpus_argvs()


def test_outputs_are_byte_identical():
    changed = [json.dumps(argv) for digest, argv in read_corpus() if run_digest(argv) != digest]
    assert not changed, f"{len(changed)} invocations changed output:\n" + "\n".join(changed)


def test_divide_corpus_is_the_seeded_one():
    assert [argv for _, argv in read_corpus(DIVIDE_CORPUS)] == divide_argvs()


def test_divide_outputs_are_byte_identical():
    changed = [json.dumps(argv) for digest, argv in read_corpus(DIVIDE_CORPUS) if run_digest(argv) != digest]
    assert not changed, f"{len(changed)} invocations changed output:\n" + "\n".join(changed)


def test_power_corpus_is_the_seeded_one():
    assert [argv for _, argv in read_corpus(POWER_CORPUS)] == power_argvs()


def test_power_outputs_are_byte_identical():
    changed = [json.dumps(argv) for digest, argv in read_corpus(POWER_CORPUS) if run_digest(argv) != digest]
    assert not changed, f"{len(changed)} invocations changed output:\n" + "\n".join(changed)


def test_corollary_corpus_is_the_seeded_one():
    assert [argv for _, argv in read_corpus(COROLLARY_CORPUS)] == corollary_argvs()


def test_corollary_outputs_are_byte_identical():
    changed = [json.dumps(argv) for digest, argv in read_corpus(COROLLARY_CORPUS) if run_digest(argv) != digest]
    assert not changed, f"{len(changed)} invocations changed output:\n" + "\n".join(changed)


def test_verify_csv_corpus_is_the_pinned_tubes():
    assert [argv for _, argv in read_corpus(VERIFY_CSV_CORPUS)] == verify_csv_argvs()


def test_multi_block_csvs_are_byte_identical(monkeypatch, tmp_path):
    monkeypatch.delenv("WEINGARTEN_PRECISION", raising=False)
    changed = [json.dumps(argv) for digest, argv in read_corpus(VERIFY_CSV_CORPUS) if csv_digest(argv, tmp_path) != digest]
    assert not changed, f"{len(changed)} CSVs changed:\n" + "\n".join(changed)


def test_multi_block_csvs_at_1024_point_blocks(monkeypatch, tmp_path):
    # the same digests when the grids span several blocks, as they did
    # before blocks held 4096 points
    monkeypatch.setattr(geometry, "BLOCK_POINTS", 1024)
    test_multi_block_csvs_are_byte_identical(monkeypatch, tmp_path)


if __name__ == "__main__":
    for path, argvs in (
        (CORPUS, corpus_argvs()),
        (DIVIDE_CORPUS, divide_argvs()),
        (POWER_CORPUS, power_argvs()),
        (COROLLARY_CORPUS, corollary_argvs()),
    ):
        path.write_text("".join(f"{run_digest(argv)} {json.dumps(argv)}\n" for argv in argvs))
    with tempfile.TemporaryDirectory() as directory:
        lines = [f"{csv_digest(argv, Path(directory))} {json.dumps(argv)}\n" for argv in verify_csv_argvs()]
    VERIFY_CSV_CORPUS.write_text("".join(lines))
