"""Expression parser, report documents, exit codes and determinism."""

import importlib
import importlib.util
import json
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import random_poly2
from weingarten_tubes import cli, errors
from weingarten_tubes import geometry as geo
from weingarten_tubes.cli import main, parse_poly
from weingarten_tubes.errors import (
    NonIntegerExponent,
    PolySyntaxError,
    UnknownVariable,
)
from weingarten_tubes import polyalg
from weingarten_tubes.polyalg import Poly2

X = Poly2.variable("x")
Y = Poly2.variable("y")

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parent.parent

EXQ_TEXT = (
    "4*x^4 + 8*x^2*y^2 - 12*x*y^3 + 9*x^3 + 9*x^2*y - 9*x*y^2 - 4*y^3 "
    "+ 22*x^2 - 8*x*y - 7*y^2 - 91*x + 98*y - 24"
)
PRODUCT_8 = (
    "2/9*(-1 - 4*y^1 + 4*x^1)*(1 - 3*y^1 + 9/4*x^1)*(1 - 10*y^1 + 25*x^1)"
    "*(-1 - 14/3*y^1 + 49/9*x^1)*(-1 - 22*y^1 + 121*x^1)*(1 - 13*y^1 + 169/4*x^1)"
    "*(1 - 6*y^1 + 9*x^1)*(-1 - 10/3*y^1 + 25/9*x^1)"
)


class TestParser:
    def test_example_sq(self, sq_poly):
        assert parse_poly("14*y - 25*x + 100*x*y - 40*y^2 - 1") == sq_poly

    def test_zero(self):
        assert parse_poly("0").is_zero

    def test_sff_polynomial(self):
        q = parse_poly("-2*x + 4*y^2 - 9/4")
        assert q == -2 * X + 4 * Y * Y - Poly2.constant(Fraction(9, 4))

    def test_parentheses_and_unary_minus(self):
        assert parse_poly("-(x + 1)*y") == -(X + Poly2.constant(1)) * Y
        assert parse_poly("(x - y)^2") == (X - Y) * (X - Y)

    def test_principal_variables(self):
        q = parse_poly("k1 + 2*k2", ("k1", "k2"))
        assert q == X + 2 * Y

    def test_roundtrip_both_ways(self):
        rng = random.Random(79)
        for _ in range(100):
            q = random_poly2(rng, 5)
            assert parse_poly(str(q)) == q
        source = "3*x^2*y - 7/2*y + 1"
        assert str(parse_poly(source)) == source

    def test_syntax_error_position(self):
        with pytest.raises(PolySyntaxError) as err:
            parse_poly("x + @")
        assert err.value.position == 4

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            parse_poly("x + z")
        with pytest.raises(UnknownVariable):
            parse_poly("x + y", ("k1", "k2"))

    def test_non_integer_exponent(self):
        with pytest.raises(NonIntegerExponent):
            parse_poly("x^1/2")
        with pytest.raises(NonIntegerExponent):
            parse_poly("x^-2")

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(PolySyntaxError):
            parse_poly("2x")
        with pytest.raises(PolySyntaxError):
            parse_poly("x y")

    def test_decimals_rejected(self):
        with pytest.raises(PolySyntaxError):
            parse_poly("1.5*x")

    def test_zero_denominator(self):
        with pytest.raises(PolySyntaxError):
            parse_poly("1/0")

    def test_trailing_input(self):
        with pytest.raises(PolySyntaxError):
            parse_poly("x + y)")

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("²", "unexpected character '²'", 0),
            ("x^²", "unexpected character '²'", 2),
            ("1/²", "expected digits after '/'", 2),
            ("x^٣", "unexpected character '٣'", 2),
        ],
    )
    def test_only_ascii_digits(self, capsys, text, message, position):
        # str.isdigit() is true for both; int() then rejected "²" (exit 2)
        # and read "٣" as 3
        with pytest.raises(PolySyntaxError) as err:
            parse_poly(text)
        assert message in str(err.value) and err.value.position == position
        code, out, err = run_cli(capsys, "classify", text)
        assert code == 1 and out == "" and err.startswith("error: ")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommands:
    def test_classify_example(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "14*y-25*x+100*x*y-40*y^2-1", "--space", "euclidean")
        assert code == 0
        doc = json.loads(out)
        (lane,) = doc["result"]["lanes"]
        assert [c["class"] for c in lane["classes"]] == ["right-cylinders", "all-regular-tubes"]
        assert lane["classes"][0]["radius"] == {"exact": "2"}
        assert lane["classes"][1]["quotient"] == "4*y - 1"

    def test_classify_mean_curvature(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "y - 1", "--space", "euclidean")
        doc = json.loads(out)
        (lane,) = doc["result"]["lanes"]
        assert [(c["class"], c["radius"]["exact"]) for c in lane["classes"]] == [
            ("right-cylinders", "1/2")
        ]

    def test_classify_gauss_relation(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "x", "--space", "euclidean")
        doc = json.loads(out)
        (lane,) = doc["result"]["lanes"]
        assert lane["all_cylinders_any_radius"] is True
        assert lane["classes"] == []

    def test_radius_exq_lorentzian(self, capsys, exq_poly):
        code, out, _ = run_cli(capsys, "radius", str(exq_poly), "--space", "lorentzian")
        doc = json.loads(out)
        pos = doc["result"]["lanes"][0]
        assert pos["eps"] == 1
        assert [e["radius"]["exact"] for e in pos["entries"]] == ["1/8", "2"]

    def test_radius_empty_and_all_positive(self, capsys):
        code, out, _ = run_cli(capsys, "radius", "x - 1", "--space", "euclidean")
        assert json.loads(out)["result"]["lanes"][0]["entries"] == []
        code, out, _ = run_cli(capsys, "radius", "x", "--space", "euclidean")
        assert json.loads(out)["result"]["lanes"][0]["kind"] == "all-positive"

    def test_divide_quotient_order(self, capsys, exq_poly):
        code, out, _ = run_cli(capsys, "divide", str(exq_poly), "--r", "2")
        doc = json.loads(out)
        assert doc["result"]["in_ideal"] is True
        assert doc["result"]["quotient"] == (
            "x^3 + x^2*y + 3*x*y^2 + 2*x^2 + 4*x*y + y^2 + 5*x + 2*y - 24"
        )

    def test_divide_not_in_ideal_report(self, capsys, exq_poly):
        code, out, _ = run_cli(capsys, "divide", str(exq_poly), "--r", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["in_ideal"] is False
        assert "substitution_image" in doc["result"]

    def test_divide_trivial(self, capsys):
        code, out, _ = run_cli(capsys, "divide", "4*x-4*y+1", "--r", "2")
        assert json.loads(out)["result"]["quotient"] == "1"

    def test_verify_torus(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "4*x-4*y+1", "--tube", "e3-torus:R=10,r=2", "--grid", "16x16"
        )
        assert code == 0
        doc = json.loads(out)
        assert float(doc["result"]["max_residual"]) <= 1e-8
        assert doc["result"]["regular_points"] == 256

    def test_verify_honest_failure(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "y - 1", "--tube", "e3-torus:R=10,r=2", "--grid", "8x8"
        )
        assert code == 0
        assert float(json.loads(out)["result"]["max_residual"]) > 1e-2

    def test_verify_lorentzian_generators_both_signals(self, capsys):
        # circle sections carry signal +1, hyperbola sections -1
        for section, gen in (("circle", "1/4*x - y + 1"), ("hyperbola", "1/4*x - y - 1")):
            code, out, _ = run_cli(
                capsys,
                "verify",
                gen,
                "--tube",
                f"l3-helix-ss:a=2,b=1,r=1/2,section={section}",
                "--grid",
                "12x12",
            )
            assert code == 0
            assert float(json.loads(out)["result"]["max_residual"]) <= 1e-8

    def test_verify_csv(self, capsys, tmp_path):
        path = tmp_path / "samples.csv"
        code, out, _ = run_cli(
            capsys,
            "verify",
            "4*x-4*y+1",
            "--tube",
            "e3-torus:R=10,r=2",
            "--grid",
            "4x4",
            "--csv",
            str(path),
        )
        assert code == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "s,t,K,H,K_cf,H_cf,xi,residual"
        assert len(lines) == 17

    def test_linear_command(self, capsys):
        code, out, _ = run_cli(capsys, "linear", "-1/8", "1", "2", "--space", "euclidean")
        doc = json.loads(out)
        (case,) = doc["result"]["cases"]
        assert case["kind"] == "all-tubes" and case["radius"] == "1/4"
        code, out, _ = run_cli(capsys, "linear", "0", "1", "2", "--space", "euclidean")
        (case,) = json.loads(out)["result"]["cases"]
        assert case["kind"] == "right-cylinders" and case["discriminant"] == "1"

    def test_sff_command(self, capsys):
        code, out, _ = run_cli(capsys, "sff", "1/2", "--space", "euclidean")
        doc = json.loads(out)
        (lane,) = doc["result"]["lanes"]
        assert lane["classes"][0]["radius"] == {"exact": "2"}

    def test_principal_flag(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "k2 - 1/2", "--principal")
        assert code == 0
        doc = json.loads(out)
        (lane,) = doc["result"]["lanes"]
        assert [(c["class"], c["radius"]["exact"]) for c in lane["classes"]] == [
            ("all-regular-tubes", "2")
        ]


class TestGoldens:
    """Reports pinned byte for byte; each covers a path the two
    classification goldens of the acceptance suite do not reach."""

    @pytest.mark.parametrize(
        "golden, argv",
        [
            # irrational principal star radius plus a rational cylinder
            ("classify_principal_irrational_star.json",
             ["classify", "(k2^2 - 2)*(k1 + k2 - 3)", "--principal"]),
            # principal axis restriction vanishes; star quotient x
            ("classify_principal_all_positive.json", ["classify", "k1*(k2 - 2)", "--principal"]),
            # irrational star in every lane, with the H^3 sinh_radius rendering
            ("radius_irrational_star_all.json",
             ["radius", "((2*x+1)^2 - 8*y^2)*(x - y + 2)", "--star", "--space", "all"]),
            # all-positive lanes whose star radii are irrational
            ("classify_all_positive_irrational_all.json",
             ["classify", "x*(2*x - 3*y + 1)*((2*x+1)^2 - 8*y^2)", "--space", "all"]),
            # the substitution image of a non-member
            ("divide_exq_not_in_ideal.json", ["divide", EXQ_TEXT, "--r", "1", "--eps", "-1"]),
            # a prime near 10^14: irrational radii from a Cauchy bound near 5*10^12
            ("classify_prime_coefficient.json",
             ["classify", "100000000000031*y^2 + 3*y - 5 + 2*x - 4*x*y"]),
            # highly composite 367567200 and 5040, coprime content
            ("classify_composite_coefficient.json",
             ["classify", "367567200*y^2 - 2723401*y + 5040 + 2*x - 3*x*y"]),
            # eight tube generators: sixteen rational stars with quotients
            ("classify_product_8.json", ["classify", PRODUCT_8]),
            # irrational, positive rational and negative rational radius roots
            ("radius_irrational_negative_rational.json",
             ["radius", "((2*x+1)^2 - 8*y^2)*(x + 3*y + 2)*(x - y + 2)", "--star"]),
            # rational radius 1 inside the first bisection cell of sqrt(2)
            ("radius_rational_in_irrational_cell.json",
             ["radius", "(2*y - 1)*(8*y^2 - 1)", "--space", "all", "--star"]),
            # rational radius 10 beyond the Cauchy bound 3 of r^2 - 2
            ("radius_rational_beyond_deflated_bound.json",
             ["radius", "(20*y - 1)*(8*y^2 - 1)", "--space", "all", "--star"]),
        ],
    )
    def test_report_is_byte_identical(self, capsys, monkeypatch, golden, argv):
        monkeypatch.delenv("WEINGARTEN_PRECISION", raising=False)
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert out == (GOLDEN / "pinned" / golden).read_text()


class TestVerifyGoldens:
    """`verify` reports, CSV dumps and `--tube` errors pinned byte for
    byte: every built-in tube, both Lorentzian sections, both deltas,
    all three l3-line causality/normal rows and a grid with irregular
    points.  The floats come from libm and LAPACK, so the pins hold for
    one numpy/platform build."""

    TUBES = json.loads((GOLDEN / "pinned" / "verify_tubes.json").read_text())
    ERRORS = json.loads((GOLDEN / "pinned" / "verify_tube_errors.json").read_text())

    @pytest.mark.parametrize("case", TUBES, ids=[c["argv"][3] for c in TUBES])
    def test_report_and_csv(self, capsys, monkeypatch, tmp_path, case):
        monkeypatch.delenv("WEINGARTEN_PRECISION", raising=False)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *case["argv"])
        assert code == 0, err
        assert out == case["stdout"]
        code, out, err = run_cli(capsys, *case["argv"], "--csv", "samples.csv")
        assert code == 0, err
        assert out == case["stdout_csv"]
        assert (tmp_path / "samples.csv").read_text() == case["csv"]

    @pytest.mark.parametrize("case", ERRORS, ids=[" ".join(c["argv"][3:]) for c in ERRORS])
    def test_tube_error(self, capsys, case):
        code, out, err = run_cli(capsys, *case["argv"])
        assert (code, out, err) == (case["code"], "", case["stderr"])


class TestVerifyPasses:
    def test_one_frame_per_row_and_one_evaluation_per_point(self, capsys, monkeypatch, tmp_path):
        # verify --csv walks the grid once: a Frenet frame per s-row, one
        # section evaluation per t column for the whole pass and one
        # residual per regular point (t = 0 is irregular on this tube)
        calls = {"frenet_frame": 0, "mu_eta": 0, "_residual": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(geo, "frenet_frame", counted("frenet_frame", geo.frenet_frame))
        monkeypatch.setattr(geo.TubeSpec, "mu_eta", counted("mu_eta", geo.TubeSpec.mu_eta))
        monkeypatch.setattr(geo, "_residual", counted("_residual", geo._residual))
        code, out, err = run_cli(
            capsys, "verify", "x - 2*y + 1", "--tube", "e3-torus:R=1,r=1", "--grid", "6x5",
            "--csv", str(tmp_path / "samples.csv"),
        )
        assert code == 0, err
        result = json.loads(out)["result"]
        assert result["regular_points"] == 24 and result["total_points"] == 30
        assert calls == {"frenet_frame": 6, "mu_eta": 5, "_residual": 24}

    @pytest.mark.parametrize("csv", [False, True], ids=["report", "csv"])
    def test_irregular_points_raise_no_numpy_warning(self, capsys, tmp_path, csv):
        # the row kernel's closed forms divide by xi ~ 0 at the irregular
        # column t = 0 of this tube; nothing of that may reach stderr
        argv = ["verify", "x - 2*y + 1", "--tube", "e3-torus:R=1,r=1", "--grid", "5x4"]
        if csv:
            argv += ["--csv", str(tmp_path / "samples.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["result"]["regular_points"] == 15


class TestTubeArguments:
    def test_duplicate_parameter_is_one(self, capsys):
        code, out, err = run_cli(capsys, "verify", "x", "--tube", "e3-torus:R=10,R=3,r=2")
        assert (code, out, err) == (1, "", "error: duplicate tube parameter 'R'\n")

    @pytest.mark.parametrize(
        "tube, message",
        [
            ("e3-torus:R=1" + "0" * 400 + ",r=2", "integer division result too large for a float"),
            ("h3-geodesic:r=1000", "math range error"),
        ],
        ids=["R=10^400", "r=1000"],
    )
    def test_overflow_is_two(self, capsys, tube, message):
        code, out, err = run_cli(capsys, "verify", "x", "--tube", tube, "--grid", "4x4")
        assert (code, out, err) == (2, "", f"error: numeric overflow: {message}\n")

    def test_grid_budget_is_two(self, capsys, monkeypatch):
        assert cli.MAX_GRID_POINTS == 2**18  # checked first: without a budget the run takes hours
        code, out, err = run_cli(
            capsys, "verify", "x", "--tube", "e3-line:r=1", "--grid", "100000x100000"
        )
        assert (code, out) == (2, "")
        assert err == "error: grid 100000x100000 has 10000000000 points, over the budget of 262144\n"
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 16)
        assert run_cli(capsys, "verify", "x", "--tube", "e3-line:r=1", "--grid", "4x4")[0] == 0
        assert run_cli(capsys, "verify", "x", "--tube", "e3-line:r=1", "--grid", "4x5")[0] == 2

    @pytest.mark.parametrize(
        "tube, message",
        [
            ("e3-torus:R=100000000000,r=1",
             "curve 'e3-circle(R=1e+11)' has |gamma''| < 1e-10 at s=0.0"),
            ("e3-helix:a=1,b=100000000000000,r=1",
             "curve 'e3-helix(a=1,b=1e+14)' has |gamma''| < 1e-10 at s=0.0"),
            ("h3-circle:r0=100000000000,r=1",
             "curve 'h3-circle(r0=1e+11)' has |gamma'' - gamma| < 1e-10 at s=0.0"),
        ],
        ids=["e3-torus", "e3-helix", "h3-circle"],
    )
    def test_degenerate_frame_is_two(self, capsys, tube, message):
        # rational, valid-looking tubes whose curvature is below the
        # biregularity cutoff
        code, out, err = run_cli(capsys, "verify", "x", "--tube", tube, "--grid", "4x4")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_unwritable_csv_fails_before_the_grid_pass(self, capsys, monkeypatch, tmp_path):
        def no_pass(*args):
            raise AssertionError("grid pass started")

        monkeypatch.setattr(geo, "verify_relation_csv", no_pass)
        path = str(tmp_path / "missing-dir" / "x.csv")
        code, out, err = run_cli(
            capsys, "verify", "x", "--tube", "e3-line:r=1", "--grid", "4x4", "--csv", path
        )
        assert (code, out) == (2, "")
        assert err == f"error: cannot write --csv {path!r}: No such file or directory\n"


class TestDegreeBudget:
    @pytest.mark.parametrize(
        "poly, degree",
        [
            ("y^99999999", 99999999),
            ("2^99999999", 99999999),
            ("(x + y + 1)^101", 101),
        ],
    )
    def test_huge_power_is_two_before_expanding(self, capsys, monkeypatch, poly, degree):
        # checked before the first multiplication: without a budget,
        # y^99999999 never finishes parsing
        def no_product(self, other):
            raise AssertionError("power expanded")

        monkeypatch.setattr(Poly2, "__mul__", no_product)
        code, out, err = run_cli(capsys, "classify", poly)
        assert (code, out) == (2, "")
        assert err == f"error: power of total degree {degree} is over the budget of 100\n"

    @pytest.mark.parametrize(
        "poly, message",
        [
            ("((x + 1)^10)^11", "power of total degree 110"),
            ("x^60 * y^41", "product of total degree 101"),
            ("(x + 1)^50 * (y - 1)^50 * x", "product of total degree 101"),
        ],
    )
    def test_degree_over_budget_is_two(self, capsys, poly, message):
        code, out, err = run_cli(capsys, "radius", poly)
        assert (code, out) == (2, "")
        assert err == f"error: {message} is over the budget of 100\n"

    def test_budget_admits_degree_100(self):
        assert cli.MAX_DEGREE == 100
        assert parse_poly("x^60 * y^40").degree == 100
        assert parse_poly("(x*y)^50").degree == 100


class TestBenchTargets:
    def test_span_targets_resolve_after_cli_import(self):
        # the traced benchmark run wraps these (module, attribute) pairs,
        # looked up in sys.modules once weingarten_tubes.cli is imported
        spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        importlib.import_module("weingarten_tubes.cli")
        for module, attr in spans.TARGETS:
            owner = sys.modules[f"{spans.PACKAGE}.{module}"]
            for part in attr.split("."):
                owner = getattr(owner, part)
            assert callable(owner), (module, attr)


def fresh_cli(snippet: str, *argv: str) -> subprocess.CompletedProcess:
    """Run snippet in a new interpreter on this checkout's src/, with
    argv after it in sys.argv."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", snippet, *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


class TestNumpyOnlyForVerify:
    BLOCKED = (
        "import sys\n"
        "sys.modules['numpy'] = None  # any import of numpy now raises\n"
        "from weingarten_tubes import cli\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "14*y - 25*x + 100*x*y - 40*y^2 - 1", "--space", "all"],
            ["radius", "(2*y - 1)*(8*y^2 - 1)", "--space", "all", "--star"],
            ["divide", EXQ_TEXT, "--r", "2"],
            ["linear", "-1/8", "1", "2", "--space", "all"],
            ["sff", "3", "--space", "all"],
        ],
    )
    def test_algebra_commands_run_without_numpy(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        proc = fresh_cli(self.BLOCKED, *argv)
        assert proc.returncode == code == 0, proc.stderr.decode()
        assert proc.stdout.decode() == out

    def test_verify_imports_numpy(self):
        snippet = (
            "import contextlib, io, sys\n"
            "from weingarten_tubes import cli\n"
            "loaded = 'numpy' in sys.modules\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(sys.argv[1:])\n"
            "print(code, loaded, 'numpy' in sys.modules)\n"
        )
        proc = fresh_cli(snippet, "verify", "4*x - 4*y + 1", "--tube", "e3-torus:R=2,r=1", "--grid", "8x8")
        assert proc.stdout.decode().split() == ["0", "False", "True"], proc.stderr.decode()


class TestExitCodes:
    def test_syntax_error_is_one(self, capsys):
        code, _, err = run_cli(capsys, "classify", "2x")
        assert code == 1 and "error" in err

    def test_usage_error_is_one(self, capsys):
        code, _, err = run_cli(capsys, "classify", "x", "--space", "flatland")
        assert code == 1

    def test_decimal_radius_rejected(self, capsys):
        code, _, err = run_cli(capsys, "divide", "x", "--r", "2.5")
        assert code == 1

    def test_zero_polynomial_is_two(self, capsys):
        code, _, err = run_cli(capsys, "classify", "0")
        assert code == 2

    def test_invalid_spec_row_is_two(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "x", "--tube", "l3-helix-tl:a=1,b=2,r=1/2,section=hyperbola"
        )
        assert code == 2

    def test_unknown_tube_is_one(self, capsys):
        code, _, err = run_cli(capsys, "verify", "x", "--tube", "m4-torus:r=1")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["divide", EXQ_TEXT, "--r", "2"],
            ["classify", "14*y - 25*x + 100*x*y - 40*y^2 - 1", "--space", "euclidean"],
            ["classify", "k2 - 1/2", "--principal"],
        ],
    )
    def test_failed_certificate_is_three(self, capsys, monkeypatch, argv):
        # a division that returns a wrong quotient must be caught by the
        # multiplication certificate, in both generator families
        divide = polyalg.divide_by_linear

        def off_by_one(q, g):
            quotient, rho = divide(q, g)
            return (None if quotient is None else quotient + Poly2.constant(1)), rho

        monkeypatch.setattr(polyalg, "divide_by_linear", off_by_one)
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == "internal error: verified multiplication of the quotient failed\n"


class TestDomainErrors:
    """The exit-2 mapping is the DomainError hierarchy; a new domain
    error must be added to this pinned set on purpose."""

    NAMES = {
        "DegenerateFrame",
        "DegenerateRelation",
        "DegreeTooLarge",
        "GridTooLarge",
        "InvalidSpecRow",
        "LightlikeNormal",
        "LinearInput",
        "NoRegularPoints",
        "NonpositiveLength",
        "NonpositiveRadius",
        "NotMember",
        "UnwritableOutput",
        "ZeroPolynomial",
        "ZeroRadius",
    }

    def test_the_set_is_pinned(self):
        found, todo = set(), [errors.DomainError]
        while todo:
            for sub in todo.pop().__subclasses__():
                found.add(sub.__name__)
                todo.append(sub)
        assert found == self.NAMES

    @pytest.mark.parametrize("name", sorted(NAMES))
    def test_each_exits_two(self, capsys, monkeypatch, name):
        def fail(*args, **kwargs):
            raise getattr(errors, name)("planted")

        monkeypatch.setattr(cli, "parse_poly", fail)
        code, out, err = run_cli(capsys, "classify", "x")
        assert code == 2
        assert out == ""
        assert err == "error: planted\n"


class TestDeterminism:
    def test_repeated_runs_identical(self, capsys):
        argv = ("classify", "14*y-25*x+100*x*y-40*y^2-1", "--space", "all")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_precision_env(self, capsys, monkeypatch):
        monkeypatch.setenv("WEINGARTEN_PRECISION", "4")
        _, out, _ = run_cli(capsys, "sff", "2", "--space", "hyperbolic")
        doc = json.loads(out)
        approx = doc["result"]["lanes"][0]["classes"][0]["radius"]["radius_approx"]
        assert len(approx.replace(".", "").replace("-", "").lstrip("0")) <= 4
