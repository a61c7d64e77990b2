"""Expression parser, report documents, exit codes and determinism."""

import importlib
import importlib.util
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_poly2
import weingarten_tubes
from weingarten_tubes import cli, errors
from weingarten_tubes import geometry as geo
from weingarten_tubes.cli import main, parse_poly
from weingarten_tubes.errors import (
    NonIntegerExponent,
    PolySyntaxError,
    UnknownVariable,
)
from weingarten_tubes import classify, polyalg, radius
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

    def test_dense_summands(self):
        # all x^i*y^j with i + j <= 70, random p/q coefficients: 2,556
        # summands of distinct denominators, added once
        rng = random.Random(3)
        terms = {}
        for d in range(71):
            for i in range(d + 1):
                terms[(i, d - i)] = Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6))
        text = "0 " + " ".join(
            f"{'-' if c < 0 else '+'} {abs(c.numerator)}/{c.denominator}*x^{i}*y^{j}" for (i, j), c in terms.items()
        )
        assert parse_poly(text) == Poly2(terms)

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


# the pinned reports of TestGoldens, with the argv that prints each; the
# stdlib-only CI job diffs every one of them on newer interpreters
PINNED_REPORTS = [
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
    # a power of a dense base, expanded by the parser in one pass
    ("classify_power_30_all.json", ["classify", "9/2*(x + 2*y + 1)^30", "--space", "all"]),
    # irrational, positive rational and negative rational radius roots
    ("radius_irrational_negative_rational.json",
     ["radius", "((2*x+1)^2 - 8*y^2)*(x + 3*y + 2)*(x - y + 2)", "--star"]),
    # rational radius 1 inside the first bisection cell of sqrt(2)
    ("radius_rational_in_irrational_cell.json",
     ["radius", "(2*y - 1)*(8*y^2 - 1)", "--space", "all", "--star"]),
    # rational radius 10 beyond the Cauchy bound 3 of r^2 - 2
    ("radius_rational_beyond_deflated_bound.json",
     ["radius", "(20*y - 1)*(8*y^2 - 1)", "--space", "all", "--star"]),
    # constant second-fundamental-form length: right cylinders of 1/c in
    # every lane
    ("sff_rational_length_all.json", ["sff", "7/5", "--space", "all"]),
    # a linear relation whose discriminant vanishes for eps = +1: all tubes
    # of radius 1/4 there, nothing at eps = -1
    ("linear_vanishing_discriminant.json", ["linear", "-1/8", "1", "2"]),
    # a member with its certified quotient
    ("divide_exq_in_ideal.json", ["divide", EXQ_TEXT, "--r", "2"]),
]


class TestGoldens:
    """Reports pinned byte for byte; each covers a path the two
    classification goldens of the acceptance suite do not reach."""

    @pytest.mark.parametrize("golden, argv", PINNED_REPORTS)
    def test_report_is_byte_identical(self, capsys, monkeypatch, golden, argv):
        monkeypatch.delenv("WEINGARTEN_PRECISION", raising=False)
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert out == (GOLDEN / "pinned" / golden).read_text()

    @pytest.mark.parametrize("golden, argv", PINNED_REPORTS)
    def test_report_is_diffed_in_ci(self, golden, argv):
        # the CI job without numpy prints each pinned report from the same
        # argv, each argument bare or in double quotes, and diffs it
        workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
        command = " ".join(a if re.fullmatch(r"[\w./-]+", a) else f'"{a}"' for a in argv)
        assert f"python -m weingarten_tubes.cli {command} | diff - tests/golden/pinned/{golden}\n" in workflow

    @pytest.mark.parametrize(
        "golden, argv",
        [
            ("classify_product_8.json", ["classify", PRODUCT_8]),
            ("classify_principal_irrational_star.json", ["classify", "(k2^2 - 2)*(k1 + k2 - 3)", "--principal"]),
        ],
    )
    def test_rational_stars_build_no_generator(self, capsys, monkeypatch, golden, argv):
        # each rational star is divided on the integers of its family line,
        # in both generator families, with no generator polynomial built
        def refuse(*args):
            raise AssertionError("generator built")

        for module in (polyalg, classify, cli):
            monkeypatch.setattr(module, "tube_generator", refuse)
        monkeypatch.delenv("WEINGARTEN_PRECISION", raising=False)
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert out == (GOLDEN / "pinned" / golden).read_text()

    def test_all_positive_star_radii_run_no_vanishing_test(self, capsys, monkeypatch):
        # the irrational candidates of an all-positive lane are the star
        # poly's own roots, so each is a star without a test
        def refuse(*args):
            raise AssertionError("vanishes_at ran")

        monkeypatch.setattr(radius, "vanishes_at", refuse)
        monkeypatch.setattr(classify, "vanishes_at", refuse)
        monkeypatch.delenv("WEINGARTEN_PRECISION", raising=False)
        code, out, err = run_cli(capsys, "classify", "x*(2*x - 3*y + 1)*((2*x+1)^2 - 8*y^2)", "--space", "all")
        assert code == 0, err
        assert out == (GOLDEN / "pinned" / "classify_all_positive_irrational_all.json").read_text()


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

    # a curve whose frames overflow inside numpy: its normal is not unit
    NONUNIT_NORMAL = ["verify", "x", "--tube", "h3-circle:r0=1/1" + "0" * 160 + ",r=1", "--grid", "4x4"]
    # numeric exits 2 raised inside the grid pass: a residual overflow, an
    # underflowed form, overflowed curvatures, a non-unit normal and a
    # degenerate frame
    FAILING = [
        ["verify", "x^4 + y", "--tube", "e3-torus:R=10,r=1/1" + "0" * 100, "--grid", "4x4"],
        ["verify", "x", "--tube", "e3-line:r=1/1" + "0" * 170, "--grid", "4x4"],
        ["verify", "4*x - 4*y + 1", "--tube", "e3-torus:R=2,r=1" + "0" * 200, "--grid", "4x4"],
        ["verify", "x", "--tube", "h3-circle:r0=1,r=1/1" + "0" * 170, "--grid", "4x4"],
        NONUNIT_NORMAL,
        ["verify", "x", "--tube", "e3-torus:R=100000000000,r=1", "--grid", "4x4"],
    ]

    @pytest.mark.parametrize("block_points", [1, 12, geo.BLOCK_POINTS], ids=["row", "3-rows", "default"])
    def test_block_size_changes_no_byte(self, capsys, monkeypatch, tmp_path, block_points):
        # blocks of one s-row, of three (12 points of 4 columns) and the
        # default: the same reports, CSVs and first errors
        failing = {" ".join(argv): run_cli(capsys, *argv) for argv in self.FAILING}
        monkeypatch.setattr(geo, "BLOCK_POINTS", block_points)
        monkeypatch.delenv("WEINGARTEN_PRECISION", raising=False)
        monkeypatch.chdir(tmp_path)
        for case in self.TUBES:
            assert run_cli(capsys, *case["argv"]) == (0, case["stdout"], "")
            assert run_cli(capsys, *case["argv"], "--csv", "samples.csv") == (0, case["stdout_csv"], "")
            assert (tmp_path / "samples.csv").read_text() == case["csv"]
        for case in self.ERRORS:
            assert run_cli(capsys, *case["argv"]) == (case["code"], "", case["stderr"])
        for argv in self.FAILING:
            assert failing[" ".join(argv)][0] == 2
            assert run_cli(capsys, *argv) == failing[" ".join(argv)]

    @pytest.mark.parametrize("block_points", [1, 12, geo.BLOCK_POINTS], ids=["row", "3-rows", "default"])
    def test_degenerate_frame_raises_no_numpy_warning(self, capsys, monkeypatch, block_points):
        # a block builds the frames of rows past the failing one, so no
        # numpy warning of theirs may reach stderr
        monkeypatch.setattr(geo, "BLOCK_POINTS", block_points)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *self.NONUNIT_NORMAL)
        assert (code, out, err) == (2, "", "error: |<normal, normal>| = 0.000000 is not 1 at (s, t) = (0.0, 0.0)\n")


class TestVerifyPasses:
    def test_one_frame_per_row_and_one_evaluation_per_point(self, capsys, monkeypatch, tmp_path):
        # verify --csv walks the grid once: a Frenet frame per s-row, one
        # section evaluation per t column for the whole pass and one
        # residual per regular point (t = 0 is irregular on this tube); the
        # block frame counts the s-rows and the block residual the regular
        # points it is given
        calls = {"mu_eta": 0, "residual_points": 0}
        frame_rows = []

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        def frames(curve, s_rows):
            frame_rows.extend(s_rows)
            return block_frames(curve, s_rows)

        def residuals(terms, regular, K, H):
            calls["residual_points"] += int(regular.sum())
            return block_residuals(terms, regular, K, H)

        block_frames, block_residuals = geo._frames, geo._residuals
        monkeypatch.setattr(geo, "_frames", frames)
        monkeypatch.setattr(geo.TubeSpec, "mu_eta", counted("mu_eta", geo.TubeSpec.mu_eta))
        monkeypatch.setattr(geo, "_residuals", residuals)
        code, out, err = run_cli(
            capsys, "verify", "x - 2*y + 1", "--tube", "e3-torus:R=1,r=1", "--grid", "6x5",
            "--csv", str(tmp_path / "samples.csv"),
        )
        assert code == 0, err
        result = json.loads(out)["result"]
        assert result["regular_points"] == 24 and result["total_points"] == 30
        assert calls == {"mu_eta": 5, "residual_points": 24}
        assert len(frame_rows) == len(set(frame_rows)) == 6

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


    def test_streamed_csv_is_curvature_csv(self, capsys, tmp_path):
        # 40x40 points span two blocks, each written as it is computed
        poly, tube, path = "4*x - 4*y + 1", "e3-torus:R=10,r=2", tmp_path / "grid.csv"
        assert 40 * 40 > geo.BLOCK_POINTS
        code, out, err = run_cli(capsys, "verify", poly, "--tube", tube, "--grid", "40x40", "--csv", str(path))
        assert code == 0, err
        spec, _ = cli._tube_from_arg(tube)
        s_grid, t_grid = geo.default_grids(spec, 40, 40)
        assert path.read_bytes() == geo.curvature_csv(parse_poly(poly), spec, s_grid, t_grid).encode()

    def test_error_in_second_block_leaves_an_empty_csv(self, capsys, monkeypatch, tmp_path):
        # the first block is on disk when the second one fails; the file
        # is then emptied, as for an error before any block
        path = tmp_path / "grid.csv"
        sizes = []  # the file size at each kernel call

        def failing(spec, s_rows, t_grid, sec):
            sizes.append(path.stat().st_size)
            if len(sizes) > 1:
                raise OverflowError("second block")
            return block(spec, s_rows, t_grid, sec)

        block = geo._block
        monkeypatch.setattr(geo, "_block", failing)
        code, out, err = run_cli(
            capsys, "verify", "x", "--tube", "e3-torus:R=10,r=2", "--grid", "40x40", "--csv", str(path)
        )
        assert (code, out, err) == (2, "", "error: numeric overflow: second block\n")
        assert sizes[1] > 0 and path.read_bytes() == b""


class TestArgumentValues:
    """Rational and polynomial arguments that start with '-', and the
    ASCII-only digits of rational arguments."""

    def test_negative_sff_length_is_a_domain_error(self, capsys):
        # argparse once read -1/8 as an unknown option and asked for c
        for c in ("-1/8", "-1"):
            code, out, err = run_cli(capsys, "sff", c)
            assert (code, out) == (2, "") and "must be positive" in err

    def test_negative_divide_radius(self, capsys):
        spaced = run_cli(capsys, "divide", "x*y - 1", "--r=-1/2")
        assert spaced[0] == 0 and json.loads(spaced[1])["inputs"]["r"] == "-1/2"
        assert run_cli(capsys, "divide", "x*y - 1", "--r", "-1/2") == spaced

    @pytest.mark.parametrize(
        "argv, tight",
        [
            (["classify", "-x*y + 1"], "-x*y+1"),
            (["radius", "-(2*y - 1)*(8*y^2 - 1)", "--star"], "-(2*y-1)*(8*y^2-1)"),
            (["divide", "-4*x + 4*y - 1", "--r", "2"], "-4*x+4*y-1"),
            (["verify", "-4*x + 4*y - 1", "--tube", "e3-torus:R=10,r=2", "--grid", "4x4"], "-4*x+4*y-1"),
        ],
    )
    def test_relation_with_leading_minus(self, capsys, argv, tight):
        expected = run_cli(capsys, *argv)
        assert expected[0] == 0
        assert run_cli(capsys, argv[0], tight, *argv[2:]) == expected

    @pytest.mark.parametrize("argv", [["classify", "-h"], ["sff", "-h"], ["-h"]])
    def test_help_still_prints_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 0 and capsys.readouterr().out.startswith("usage: weingarten-tubes")

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["sff", "\u0663"], "c"),
            (["sff", "3\n"], "c"),
            (["divide", "x", "--r", "\u0661/2"], "--r"),
            (["linear", "1", "\u0662", "2"], "b"),
            (["verify", "x", "--tube", "e3-torus:R=\u0661\u0660,r=2", "--grid", "4x4"], "tube parameter 'R'"),
        ],
        ids=["sff", "sff-newline", "divide", "linear", "tube"],
    )
    def test_rationals_take_only_ascii_digits(self, capsys, argv, what):
        # \d matched "٣", and int() then read it as 3
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {what} must be an exact rational 'p' or 'p/q', got ")

    @pytest.mark.parametrize("grid", ["\u0668x\u0668", "8x8\n"])
    def test_grid_takes_only_ascii_digits(self, capsys, grid):
        code, out, err = run_cli(capsys, "verify", "x", "--tube", "e3-torus:R=10,r=2", "--grid", grid)
        assert (code, out) == (1, "") and err.startswith("error: --grid must look like 64x64")


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

    @pytest.mark.parametrize("csv", [False, True], ids=["report", "csv"])
    def test_residual_overflow_is_two(self, capsys, tmp_path, csv):
        # at r = 1e-100, |K| is about 1e99 and K**4 overflows at the first
        # regular point; the --csv file is opened first and left empty
        path = tmp_path / "grid.csv"
        argv = ["verify", "x^4 + y", "--tube", "e3-torus:R=10,r=1/1" + "0" * 100, "--grid", "4x4"]
        code, out, err = run_cli(capsys, *argv, *(["--csv", str(path)] if csv else []))
        assert (code, out, err) == (2, "", "error: numeric overflow: (34, 'Numerical result out of range')\n")
        assert path.exists() == csv and (not csv or path.read_text() == "")

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

    @pytest.mark.parametrize("tube", ["e3-line:r=1/1", "h3-circle:r0=1,r=1/1"])
    @pytest.mark.parametrize("csv", [False, True])
    def test_underflowed_form_is_two(self, capsys, tmp_path, tube, csv):
        # at r = 1e-170 the first fundamental form E*G - F^2 underflows to 0
        # at every regular point; this was a ZeroDivisionError traceback
        argv = ["verify", "x", "--tube", tube + "0" * 170, "--grid", "4x4"]
        if csv:
            argv += ["--csv", str(tmp_path / "grid.csv")]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            "error: first fundamental form underflows (E*G - F^2 = 0) at (s, t) = (0.0, 0.0): "
            "radius 1e-170 is too small for double precision\n"
        )

    @pytest.mark.parametrize("tube, at", [("e3-torus:R=2,", "(0.0, 0.0)"), ("l3-line:", "(0.0, -1.0)")], ids=["e3-torus", "l3-line"])
    @pytest.mark.parametrize("csv", [False, True], ids=["report", "csv"])
    def test_overflowed_curvature_is_two(self, capsys, tmp_path, tube, at, csv):
        # at r = 1e200 E*G - F^2 overflows and K, H are nan at every regular
        # point; this printed "max_residual": "-1" with exit 0
        path = tmp_path / "grid.csv"
        argv = ["verify", "4*x - 4*y + 1", "--tube", tube + "r=1" + "0" * 200, "--grid", "8x8"]
        code, out, err = run_cli(capsys, *argv, *(["--csv", str(path)] if csv else []))
        assert (code, out) == (2, "")
        assert err == (
            f"error: numeric overflow: K = nan, H = nan at (s, t) = {at}: "
            "radius 1e+200 is too large for double precision\n"
        )
        assert path.exists() == csv and (not csv or path.read_text() == "")

    def test_unwritable_csv_fails_before_the_grid_pass(self, capsys, monkeypatch, tmp_path):
        def no_pass(*args):
            raise AssertionError("grid pass started")

        monkeypatch.setattr(geo, "verify_relation", no_pass)
        path = str(tmp_path / "missing-dir" / "x.csv")
        code, out, err = run_cli(
            capsys, "verify", "x", "--tube", "e3-line:r=1", "--grid", "4x4", "--csv", path
        )
        assert (code, out) == (2, "")
        assert err == f"error: cannot write --csv {path!r}: No such file or directory\n"


def rendered(document) -> str:
    out: list = []
    cli._render(document, out)
    return "".join(out)


json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**30), 10**30),
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e-320, 1e300]),
    st.text(),
    st.sampled_from(["", "\x00\x1f\x7f", "caf\u00e9 \u2713 \U0001d535", '"\\/\n\t']),
)
json_trees = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(st.text(max_size=6), children, max_size=4)
    ),
    max_leaves=24,
)


class TestRender:
    """The report writer prints what json.dumps(document, indent=2) prints."""

    @pytest.mark.parametrize("path", sorted(GOLDEN.rglob("*.json")), ids=lambda path: path.name)
    def test_every_golden_document(self, path):
        document = json.loads(path.read_text())
        assert rendered(document) == json.dumps(document, indent=2)

    @settings(max_examples=100, deadline=None)
    @example(document=[True, 1, False, 0, None, 10**30, -(10**30)])
    @example(document={"": {}, "a": [], "b": [[], {}], "c": [-0.0, 0.0, math.nan, math.inf, -math.inf]})
    @example(document=("tuple", ["list"]))
    @given(document=json_trees)
    def test_json_trees(self, document):
        assert rendered(document) == json.dumps(document, indent=2)

    def test_unknown_type_is_a_type_error(self):
        with pytest.raises(TypeError):
            rendered({"a": {1, 2}})


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
        # y^99999999 never finishes parsing.  The parser multiplies and
        # raises to powers through these two helpers only.
        def no_product(a, b):
            raise AssertionError("power expanded")

        monkeypatch.setattr(cli, "_convolve", no_product)
        monkeypatch.setattr(cli, "_expand_power", no_product)
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

    @pytest.mark.parametrize(
        "poly, code, err",
        [
            # cancellation inside a sum lowers the degree the budget sees
            ("(x^60 + y - x^60)^100", 0, ""),
            ("(x^60 + y - x^60)^101", 2, "error: power of total degree 101 is over the budget of 100\n"),
            ("(x^99 - x^99 + x)*x^99", 0, ""),
            ("(x^99 - x^99 + x^2)*x^99", 2, "error: product of total degree 101 is over the budget of 100\n"),
            ("x^60*y^40*(x^5 - x^5 + 1)", 0, ""),
            # a base that cancels to a constant still counts degree 1 per power
            ("((x + 1)^2 - x^2 - 2*x)^150", 2, "error: power of total degree 150 is over the budget of 100\n"),
            # a product whose middle terms cancel, raised to a power
            ("((x + y)*(x - y) - x^2)^50", 0, ""),
            ("((x + y)*(x - y) - x^2)^51", 2, "error: power of total degree 102 is over the budget of 100\n"),
            # zero counts degree -1 in a product and 1 per power
            ("(x - x)*x^100*y", 2, "error: the zero relation holds on every surface\n"),
            ("(x - x)^100", 2, "error: the zero relation holds on every surface\n"),
            ("(x - x)^101", 2, "error: power of total degree 101 is over the budget of 100\n"),
        ],
    )
    def test_cancellation_under_the_budget(self, capsys, poly, code, err):
        got_code, out, got_err = run_cli(capsys, "classify", poly, "--space", "euclidean")
        assert (got_code, got_err) == (code, err)
        assert bool(out) == (code == 0)

    def test_budget_admits_degree_100(self):
        assert cli.MAX_DEGREE == 100
        assert parse_poly("x^60 * y^40").degree == 100
        assert parse_poly("(x*y)^50").degree == 100


class TestNestingBudget:
    @staticmethod
    def nested(levels: int) -> str:
        return "(" * levels + "x" + ")" * levels

    def test_budget_admits_100_levels(self):
        assert cli.MAX_NESTING == 100
        assert parse_poly(self.nested(100)) == Poly2.variable("x")

    def test_101_levels_is_one(self, capsys):
        with pytest.raises(PolySyntaxError) as raised:
            parse_poly(self.nested(101))
        assert raised.value.position == 100
        code, out, err = run_cli(capsys, "classify", self.nested(101))
        assert (code, out, err) == (1, "", "error: parentheses nested deeper than 100 (at position 100)\n")

    def test_deep_nesting_prints_no_traceback(self):
        # 245 levels exhausted the recursion limit of the four-frame-per-level parser
        snippet = "import sys\nfrom weingarten_tubes import cli\nsys.exit(cli.main(sys.argv[1:]))\n"
        proc = fresh_cli(snippet, "classify", self.nested(245))
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr.decode() == "error: parentheses nested deeper than 100 (at position 100)\n"


class TestErrorPaths:
    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["divide", "x", "--r", "0"], 2, "--r must be nonzero"),
            (
                ["classify", "k2 - 1", "--principal", "--space", "lorentzian"],
                1,
                "--principal is the Euclidean principal-curvature problem",
            ),
            (["classify", "(x"], 1, "expected ')' (at position 2)"),
            (["classify", "x^"], 1, "expected an exponent (at position 2)"),
            (["classify", "x+*y"], 1, "expected a number, variable or parenthesized expression (at position 2)"),
        ],
    )
    def test_message_and_exit_code(self, capsys, argv, code, message):
        assert run_cli(capsys, *argv) == (code, "", f"error: {message}\n")

    def test_precision_that_is_not_an_integer_is_two(self, capsys, monkeypatch):
        monkeypatch.setenv("WEINGARTEN_PRECISION", "abc")
        assert run_cli(capsys, "sff", "3") == (2, "", "error: WEINGARTEN_PRECISION must be an integer, got 'abc'\n")


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

    def test_verify_without_numpy_is_one_error_line(self, tmp_path):
        # exit 1 with one error line and nothing on stdout, before any
        # --csv file is opened
        csv = tmp_path / "grid.csv"
        argv = ["verify", "4*x - 4*y + 1", "--tube", "e3-torus:R=2,r=1", "--grid", "8x8", "--csv", str(csv)]
        proc = fresh_cli(self.BLOCKED, *argv)
        assert proc.returncode == 1
        assert proc.stderr.decode() == "error: verify needs numpy, which is not installed\n"
        assert proc.stdout == b""
        assert not csv.exists()

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


class TestGeometryOnlyForVerify:
    # geometry is registered lazily: its source is compiled and run on the
    # first attribute lookup, which verify alone makes
    SPY = (
        "import contextlib, io, sys\n"
        "from importlib.machinery import SourceFileLoader\n"
        "names = []\n"
        "get_code = SourceFileLoader.get_code\n"
        "SourceFileLoader.get_code = lambda self, name: names.append(name) or get_code(self, name)\n"
        "from weingarten_tubes import cli\n"
        "NAME = 'weingarten_tubes.geometry'\n"
        "registered = NAME in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "print(code, registered, NAME in names)\n"
        "from weingarten_tubes import geometry\n"
        "print(geometry is cli.geo is sys.modules[NAME], geometry.TubeSpec.__module__, names.count(NAME))\n"
    )

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "14*y - 25*x + 100*x*y - 40*y^2 - 1", "--space", "all"],
            ["radius", "(2*y - 1)*(8*y^2 - 1)", "--space", "all", "--star"],
            ["divide", EXQ_TEXT, "--r", "2"],
            ["divide", EXQ_TEXT, "--r", "1", "--eps", "-1"],
            ["linear", "-1/8", "1", "2", "--space", "all"],
            ["sff", "3", "--space", "all"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_algebra_commands_never_compile_geometry(self, argv):
        # the module is in sys.modules at once, and an import of it after
        # the command is the same object, which loads on its first lookup
        proc = fresh_cli(self.SPY, *argv)
        lines = proc.stdout.decode().splitlines()
        assert lines == ["0 True False", "True weingarten_tubes.geometry 1"], proc.stderr.decode()

    def test_verify_compiles_geometry_once(self):
        argv = ["verify", "4*x - 4*y + 1", "--tube", "e3-torus:R=2,r=1", "--grid", "8x8"]
        proc = fresh_cli(self.SPY, *argv)
        lines = proc.stdout.decode().splitlines()
        assert lines == ["0 True True", "True weingarten_tubes.geometry 1"], proc.stderr.decode()

    def test_an_imported_geometry_is_reused(self):
        # one module object, so a monkeypatch of geo reaches the CLI
        assert cli.geo is geo is sys.modules["weingarten_tubes.geometry"]
        assert cli._lazy_geometry() is geo


class TestDivideOnePass:
    @pytest.mark.parametrize(
        "golden, argv",
        [
            ("divide_exq_in_ideal.json", ["--r", "2"]),
            ("divide_exq_not_in_ideal.json", ["--r", "1", "--eps", "-1"]),
        ],
    )
    def test_one_line_image_per_report(self, capsys, monkeypatch, golden, argv):
        # the quotient, or off the ideal the substitution image, is read
        # off a single Horner pass of the relation on the generator's line:
        # a call that misses the memo runs the pass and replaces the entry
        passes = []
        line_horner = polyalg._line_horner

        def counting(*args):
            entry = polyalg._last_horner
            result = line_horner(*args)
            if polyalg._last_horner is not entry:
                passes.append(args)
            return result

        monkeypatch.setattr(polyalg, "_line_horner", counting)
        monkeypatch.delenv("WEINGARTEN_PRECISION", raising=False)
        code, out, err = run_cli(capsys, "divide", EXQ_TEXT, *argv)
        assert code == 0, err
        assert out == (GOLDEN / "pinned" / golden).read_text()
        assert len(passes) == 1


class TestNoDataclasses:
    # the result records are named tuples: no command imports dataclasses,
    # which costs a cold process its inspect, ast, dis and tokenize imports
    BLOCKED = (
        "import sys\n"
        "sys.modules['dataclasses'] = None  # any import of dataclasses now raises\n"
        "from weingarten_tubes import cli\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "14*y - 25*x + 100*x*y - 40*y^2 - 1", "--space", "all"],
            ["radius", "(2*y - 1)*(8*y^2 - 1)", "--space", "all", "--star"],
            ["divide", EXQ_TEXT, "--r", "2"],
            ["verify", "4*x - 4*y + 1", "--tube", "h3-circle:r0=1,r=1/2", "--grid", "8x8"],
            ["linear", "-1/8", "1", "2", "--space", "all"],
            ["sff", "3", "--space", "all"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_command_runs_without_dataclasses(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        proc = fresh_cli(self.BLOCKED, *argv)
        assert proc.returncode == code == 0, proc.stderr.decode()
        assert proc.stdout.decode() == out


class TestVersion:
    def test_package_version_is_the_project_version(self):
        # tomllib is 3.11+: read the version line of pyproject.toml by pattern
        (version,) = re.findall(r'(?m)^version = "([^"]+)"$', (ROOT / "pyproject.toml").read_text())
        assert weingarten_tubes.__version__ == version


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
        # multiplication certificate, in both generator families, by each
        # of its halves: g * quotient equal to Q on Q's support, and zero
        # off it.  The packed steps are unpacked, corrupted as integer
        # lists per power of x and packed again one bit wider, so that a
        # doubled coefficient still fits its digit
        line_horner = polyalg._line_horner

        def corrupted(corrupt):
            def kernel(*args):
                steps, k = line_horner(*args)
                rows = corrupt([polyalg._unpack(step, k) for step in steps])
                return [sum(v << ((k + 1) * i) for i, v in enumerate(row)) for row in rows], k + 1

            return kernel

        corruptions = {
            # one more x-power in the quotient's y**0 column, the image kept
            "off by one": lambda steps: steps[:1] + [steps[1] + [1]] + steps[2:],
            # 2 * Q: every product term on Q's support, each coefficient wrong
            "doubled": lambda steps: steps[:1] + [[2 * v for v in row] for row in steps[1:]],
            # a term of degree past Q's: its products lie off Q's support and
            # every coefficient on it is right
            "far term": lambda steps: steps[:1] + [steps[1] + [0] * 40 + [1]] + steps[2:],
        }
        for name, corrupt in corruptions.items():
            monkeypatch.setattr(polyalg, "_line_horner", corrupted(corrupt))
            code, out, err = run_cli(capsys, *argv)
            assert code == 3, name
            assert out == ""
            assert err == "internal error: verified multiplication of the quotient failed\n"

    def test_failed_deflation_is_three(self, capsys, monkeypatch):
        # a rational root that is not one leaves a remainder when the
        # isolation deflates by it, under python -O too
        rational_roots = radius._rational_roots
        monkeypatch.setattr(radius, "_rational_roots", lambda s: rational_roots(s) + [Fraction(7)])
        code, out, err = run_cli(capsys, "radius", "14*y - 25*x + 100*x*y - 40*y^2 - 1", "--space", "euclidean")
        assert code == 3
        assert out == ""
        assert err == "internal error: nonzero remainder in an exact polynomial division\n"


class TestDomainErrors:
    """The exit-2 mapping is the DomainError hierarchy; a new domain
    error must be added to this pinned set on purpose."""

    NAMES = {
        "DegenerateFrame",
        "DegenerateRelation",
        "DegreeTooLarge",
        "FormUnderflow",
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

    def test_precision_is_clamped_to_one_through_seventeen(self, capsys, monkeypatch):
        # r = asinh(1/2) = 0.4812118250596034...: 0 prints as 1 digit and
        # 99 as 17, the most a double carries
        shown = {}
        for prec in ("0", "1", "17", "99"):
            monkeypatch.setenv("WEINGARTEN_PRECISION", prec)
            code, out, _ = run_cli(capsys, "sff", "2", "--space", "hyperbolic")
            assert code == 0
            shown[prec] = json.loads(out)["result"]["lanes"][0]["classes"][0]["radius"]["radius_approx"]
        assert shown["0"] == shown["1"] == "0.5"
        assert shown["99"] == shown["17"] == format(math.asinh(0.5), ".17g") == "0.48121182505960347"
