"""End-to-end command-line behavior and output reproducibility."""

import csv
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sumprod
from sumprod import classify as classify_module
from sumprod import cli as cli_module
from sumprod.classify import is_composite
from sumprod.cli import main, parse_set_spec
from sumprod.explorer import ApSpec, GpSpec, RandomIntSpec
from sumprod.factor import FiberPencil
from sumprod.parsing import format_bipoly, parse_poly
from sumprod.spectrum import sigma_candidates, sigma_scan

from conftest import LARGE_ELIMINANT, naive_image


class TestSpecParsing:
    def test_forms(self):
        assert parse_set_spec("AP(8,1,1)", 0) == ApSpec(8, 1, 1)
        assert parse_set_spec("gp(4, 1, 2)", 0) == GpSpec(4, 1, 2)
        assert parse_set_spec("RandomInt(5,1,100,7)", 0) == RandomIntSpec(5, 1, 100, 7)
        assert parse_set_spec("random(5,1,100)", 3) == RandomIntSpec(5, 1, 100, 3)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_set_spec("triangle(3)", 0)


class TestClassifyCommand:
    def test_product_is_clean(self, capsys):
        assert main(["classify", "--poly", "x*y"]) == 0
        out = capsys.readouterr().out
        assert "degenerate: no" in out and "composite:  no" in out

    def test_degenerate_json(self, capsys):
        assert main(["classify", "--poly", "x^2 + 2x y + y^2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["degenerate"]["outer"] == "t^2"
        assert data["composite"]["verdict"] is True

    def test_orientation_swap_reported(self, capsys):
        assert main(["classify", "--poly", "x + y^2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["swapped"] is True and data["oriented"] == "x^2 + y"

    def test_chain_reported(self, capsys):
        assert main(["classify", "--poly", "x^2y^2 + 3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["decomposition"] == {"core": "x y", "chain": ["t^2 + 3"]}

    @pytest.mark.parametrize(
        ("poly", "lines"),
        [
            (
                "x^3 - 2x",
                [
                    "polynomial: x^3 - 2 x",
                    "degenerate: yes, outer t^3 - 2 t of linear form x",
                    "composite:  yes (single-variable polynomial)",
                ],
            ),
            (
                "y^2 + 1",
                [
                    "polynomial: y^2 + 1",
                    "oriented:   x^2 + 1 (variables swapped)",
                    "degenerate: yes, outer t^2 + 1 of linear form x",
                    "composite:  yes (single-variable polynomial)",
                ],
            ),
            (
                "x^2 + 2x y + y^2",
                [
                    "polynomial: x^2 + 2 x y + y^2",
                    "degenerate: yes, outer t^2 of linear form x + y",
                    "composite:  yes (all fibers at 1, 2 reducible)",
                ],
            ),
            (
                "x^2y^2 + 3",
                [
                    "polynomial: x^2 y^2 + 3",
                    "degenerate: no",
                    "composite:  yes (all fibers at 1, 2, 3, 4 reducible)",
                    "chain:      t^2 + 3 o (x y)",
                ],
            ),
            (
                "x y + 1",
                [
                    "polynomial: x y + 1",
                    "degenerate: no",
                    "composite:  no (fiber at 2 is absolutely irreducible)",
                ],
            ),
            (
                "x + y",
                [
                    "polynomial: x + y",
                    "degenerate: yes, outer t of linear form x + y",
                    "composite:  no (degree below 2)",
                ],
            ),
            (
                "y^3 + x",
                [
                    "polynomial: y^3 + x",
                    "oriented:   x^3 + y (variables swapped)",
                    "degenerate: no",
                    "composite:  no (fiber at 1 is absolutely irreducible)",
                ],
            ),
        ],
        ids=["one-variable-x", "one-variable-y", "degenerate", "chain", "non-composite", "degree-1", "swapped"],
    )
    def test_human_output(self, poly, lines, capsys):
        assert main(["classify", "--poly", poly]) == 0
        assert capsys.readouterr().out == "".join(line + "\n" for line in lines)

    def test_bad_poly_is_usage_error(self, capsys):
        assert main(["classify", "--poly", "x + $"]) == 2

    def test_failed_certificate_exits_1(self, capsys, monkeypatch):
        # a fiber whose nullspace cannot be certified ends the run; the
        # compositeness test must not move on to another fiber
        from sumprod import linalg

        monkeypatch.setattr(linalg, "_annihilates", lambda rows, w: False)
        assert main(["classify", "--poly", "x y"]) == 1
        assert "CertificationFailed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--poly", "x^2 y^2 + 3"],
        ["classify", "--poly", "x^3 + 6 x^2 y + 12 x y^2 + 8 y^3 + x + 2 y"],
        ["classify", "--poly", "x^3 + x y"],
        ["classify", "--poly", "x + y"],
        ["classify", "--poly", "y^2 + 1"],
        ["incidence", "--poly", "x^2 + 2 x y + y^2", "--set", "AP(6,1,1)"],
        ["incidence", "--poly", "x^3 + x y", "--set", "AP(6,1,1)"],
        ["incidence", "--poly", "x y + x", "--set", "AP(6,1,1)"],
    ],
    ids=lambda argv: f"{argv[0]}:{argv[2]}",
)
def test_one_degeneracy_test_per_command(argv, monkeypatch, capsys):
    # the compositeness verdict carries the degenerate decomposition
    calls = []
    original = classify_module.is_degenerate

    def counting(f):
        calls.append(f)
        return original(f)

    for module in (classify_module, cli_module):
        monkeypatch.setattr(module, "is_degenerate", counting)
    assert main(argv) == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv",
    [
        # swapped and non-composite: the oriented f is also the core
        ["classify", "--poly", "y^3 + x"],
        # composite: (x^2 + y)^2 has the core x^2 + y
        ["classify", "--poly", "x^4 + 2 x^2 y + y^2"],
        # linear: f is the linear form of its degenerate decomposition
        ["classify", "--poly", "x + 2 y"],
        ["incidence", "--poly", "x^3 + x y", "--set", "AP(6,1,1)"],
        ["scan", "--poly", "x^2 + y", "--family", "AP", "--sizes", "4,8"],
    ],
    ids=lambda argv: f"{argv[0]}:{argv[2]}",
)
def test_each_polynomial_is_rendered_once(argv, monkeypatch, tmp_path, capsys):
    # the text of a polynomial serves both the payload and the printed lines
    rendered = []

    def recording(f):
        rendered.append(f)
        return format_bipoly(f)

    monkeypatch.setattr(cli_module, "format_bipoly", recording)
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert rendered and len(rendered) == len(set(rendered))


class TestSigmaCommand:
    def test_json_report(self, capsys):
        assert main(["sigma", "--poly", "x*y", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["degree_k"] == 2
        assert [h["lambda"] for h in data["found"]] == ["0"]
        assert data["stein_bound_respected"] is True

    def test_extra_candidates(self, capsys):
        assert main(
            ["sigma", "--poly", "x^2+2xy+y^2", "--extra-candidates", "9,16", "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert "9" in [h["lambda"] for h in data["found"]]

    @pytest.mark.parametrize(("value", "found"), [("-9/4", ["-9/4", "0"]), ("-1,2", ["-1", "0", "2"])])
    def test_extra_candidates_may_start_with_minus(self, value, found, capsys):
        # every fiber of x^2 + 3 x splits over C, so every candidate is found
        argv = ["sigma", "--poly", "x^2 + 3 x", "--sweep-height", "0", "--extra-candidates", value]
        assert main(argv + ["--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["config"]["extra_candidates"] == value
        assert [h["lambda"] for h in data["found"]] == found

    @pytest.mark.parametrize("poly", ["x^2 y^2 + 3", "x^3+3x^2y+3xy^2+y^3+x+y"])
    def test_fibers_that_split_over_q_certify(self, poly, capsys):
        # every fiber of these is reducible over C, and many split over Q
        assert main(["sigma", "--poly", poly, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        f = parse_poly(poly)
        pencil = FiberPencil(f)
        report = sigma_scan(pencil, sigma_candidates(pencil))
        assert [h["lambda"] for h in data["found"]] == [str(h.lam) for h in report.found]
        assert all(hit.revalidate(f) for hit in report.found)
        assert any(h["certificate"]["kind"] == "rational-factorization" for h in data["found"])

    def test_sweep_height_zero_tests_zero(self, capsys):
        assert main(["sigma", "--poly", "x*y", "--sweep-height", "0", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [h["lambda"] for h in data["found"]] == ["0"]

    def test_factor_budget_exit_code(self, capsys):
        # the fiber at 0 is x (y^4 + n), and Kronecker's search for a
        # quadratic factor of the content y^4 + n needs the divisors of its
        # value n at y = 0: a 100-bit semiprime that Brent's rho cannot split
        # in budget
        n = 1267650600228402790082356974917
        assert main(["sigma", "--poly", f"x y^4 + {n} x", "--sweep-height", "1"]) == 3
        err = capsys.readouterr().err
        assert err == f"factor budget exceeded: rho budget exceeded for {n}\n"


class TestIncidenceCommand:
    def test_histogram_written(self, tmp_path, capsys):
        code = main(
            [
                "incidence",
                "--poly",
                "x*y",
                "--set",
                "AP(6,1,1)",
                "--out",
                str(tmp_path),
                "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["incidence"]["curve_count"] == 36
        hist = (tmp_path / "histogram.csv").read_text().splitlines()
        assert hist[0] == "class_size,count" and hist[1] == "1,36"
        assert (tmp_path / "manifest.json").exists()

    def test_set_from_file(self, tmp_path, capsys):
        setfile = tmp_path / "set.txt"
        setfile.write_text("1\n2\n3\n")
        assert main(["incidence", "--poly", "x*y", "--set", str(setfile), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["set_size"] == 3 and data["incidence"]["incidences"] == 29

    def test_degenerate_poly_is_bound_exempt(self, capsys):
        # curves of x + y collapse along diagonals; no ceiling is asserted
        assert main(["incidence", "--poly", "x + y", "--set", "AP(9,1,1)", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["degenerate"] is True
        assert data["max_class_size"] == 9

    @pytest.mark.parametrize(
        ("poly", "spec", "zero_rows", "removed_points"),
        [("x^4 + 2 x^2 y + y^2", "AP(16,1,1)", 0, 31), ("x y", "AP(4,0,1)", 1, 0)],
    )
    def test_human_line_counts_zero_rows_and_removed_points(self, poly, spec, zero_rows, removed_points, capsys):
        assert main(["incidence", "--poly", poly, "--set", spec, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (len(data["removed_rows"]), data["incidence"]["removed_points"]) == (zero_rows, removed_points)
        assert main(["incidence", "--poly", poly, "--set", spec]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert line.endswith(f"(|A|={data['set_size']}, zero rows: {zero_rows}, removed points: {removed_points})")

    def test_poly_from_file(self, tmp_path, capsys):
        polyfile = tmp_path / "poly.txt"
        polyfile.write_text("x^2 + y^2\n")
        assert main(["classify", "--poly", str(polyfile), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["composite"]["verdict"] is False

    def test_poly_text_that_names_a_file_is_parsed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("x y").write_text("x^2 + y\n")
        assert main(["classify", "--poly", "x y", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["input"] == "x y"

    def test_set_spec_that_names_a_file_is_generated(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("AP(4,1,1)").write_text("1\n2\n")
        assert main(["incidence", "--poly", "x y", "--set", "AP(4,1,1)", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["set"] == "AP(n=4,start=1,step=1)"

    def test_spec_longer_than_a_file_name_exits_0(self, tmp_path, monkeypatch, capsys):
        # Path.exists raises "File name too long" on such a text
        monkeypatch.chdir(tmp_path)
        assert main(["incidence", "--poly", "x y", "--set", f"AP(3,1,{'1' * 300})", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["set_size"] == 3

    def test_composite_past_the_degree_cap_exits_0(self, capsys):
        # sigma exits 3 on this input (its certificates exceed the default
        # degree cap), but incidence factors no fiber, so the cap never bites
        poly = "x^9 + 3 x^6 y + 3 x^3 y^2 + y^3"
        assert main(["incidence", "--poly", poly, "--set", "AP(6,1,1)", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["composite"] is True

    @pytest.mark.parametrize(
        ("poly", "spec", "n"),
        [("x^3 + x y", "AP(24,1,1)", 24), ("x^2 + 2 x y + y^2", "AP(8,1,1)", 8)],
    )
    def test_fibers_tested_only_on_grid(self, poly, spec, n, monkeypatch, capsys):
        tested = []
        witness = FiberPencil.witness

        def counting(self, lam):
            tested.append(lam)
            return witness(self, lam)

        monkeypatch.setattr(FiberPencil, "witness", counting)
        f = parse_poly(poly)
        is_composite(f)
        composite_tests = len(tested)
        assert main(["incidence", "--poly", poly, "--set", spec, "--json"]) == 0
        A = [Fraction(v) for v in range(1, n + 1)]  # no zero rows for these f
        values = naive_image(f, A)
        cands = sigma_candidates(FiberPencil(f))
        on_grid = [lam for lam in cands if lam in values]
        assert len(on_grid) < len(cands)
        assert len(tested) - composite_tests <= len(on_grid)

    @pytest.mark.parametrize(
        ("argv", "cores"),
        [
            (["sigma", "--poly", "x^3 + x y", "--extra-candidates", "7/3"], []),
            (["sigma", "--poly", "x^3 + y^3"], []),
            (["sigma", "--poly", "x^4 + 2 x^2 y + x^2 + y^2 + y"], ["x^2 + y"]),
            (["incidence", "--poly", "x^2 - y^2", "--set", "AP(6,-2,1)"], []),
            (["incidence", "--poly", "x^3 + x y", "--set", "AP(6,1,1)"], []),
        ],
        ids=["sigma", "sigma-non-composite", "sigma-composite", "incidence", "incidence-composite"],
    )
    def test_one_fiber_pencil_per_command(self, argv, cores, monkeypatch, capsys):
        # the spectrum and the fiber tests share the pencil of f; a composite
        # sigma adds one of its core, and f is decomposed at most once
        built, decomposed = [], []
        init = FiberPencil.__init__
        monkeypatch.setattr(FiberPencil, "__init__", lambda self, f: built.append(f) or init(self, f))
        core = classify_module.composite_core
        for name, module in list(sys.modules.items()):
            if name.startswith("sumprod") and getattr(module, "composite_core", None) is core:
                monkeypatch.setattr(module, "composite_core", lambda f: decomposed.append(f) or core(f))
        assert main(argv + ["--json"]) == 0
        assert built == [parse_poly(p) for p in [argv[2], *cores]]
        assert len(decomposed) <= 1

    def test_degree_cap_exit_code(self, capsys):
        # the fiber at zero is a tenth-degree perfect power; factoring its
        # certificate exceeds the default cap
        code = main(["sigma", "--poly", "x^5 y^5", "--json"])
        assert code == 3
        assert "degree cap" in capsys.readouterr().err


class TestScanCommand:
    def test_outputs_and_exit(self, tmp_path):
        out = tmp_path / "scan"
        code = main(
            [
                "scan",
                "--poly",
                "x*y",
                "--family",
                "AP",
                "--sizes",
                "8,16",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = (out / "records.csv").read_text().splitlines()
        assert rows[0].startswith("poly_id,set_kind,n,sumset,image,product")
        assert len(rows) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["violations"] == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["argv_config"]["family"] == "AP"
        assert "timings_ms" in manifest

    def test_degenerate_poly_refused(self, tmp_path, capsys):
        code = main(
            ["scan", "--poly", "x + y", "--family", "AP", "--out", str(tmp_path)]
        )
        assert code == 1
        assert "HypothesisViolated" in capsys.readouterr().err

    @pytest.mark.parametrize(("floor", "code", "violations"), [("--floor=-100", 0, 0), ("--floor=100", 1, 2)])
    def test_floor_violations_need_a_positive_floor(self, floor, code, violations, tmp_path, capsys):
        # |A+A| |f(A,A)| >= c |A|^(5/2) always holds for c <= 0
        argv = ["scan", "--poly", "x^2 + y", "--family", "AP", "--sizes", "8,16", floor, "--out", str(tmp_path)]
        assert main(argv) == code
        assert json.loads((tmp_path / "summary.json").read_text())["violations"] == violations

    def test_floor_violation_exit(self, tmp_path):
        code = main(
            [
                "scan",
                "--poly",
                "x*y",
                "--family",
                "AP",
                "--sizes",
                "8",
                "--floor",
                "1000",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("sizes", ["8", "8,8"])
    def test_one_size_writes_json_without_nan(self, sizes, tmp_path, capsys):
        # a slope needs two distinct sizes; without them it is null, not NaN
        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        argv = ["scan", "--poly", "x y", "--family", "AP", "--sizes", sizes, "--out", str(tmp_path)]
        assert main(argv + ["--json"]) == 0
        stdout = json.loads(capsys.readouterr().out, parse_constant=refuse)
        summary = json.loads((tmp_path / "summary.json").read_text(), parse_constant=refuse)
        assert summary == stdout and summary["slope"] is None
        assert main(argv) == 0
        assert "slope n/a" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "scan",
            "--poly",
            "x^2 + y",
            "--family",
            "random",
            "--sizes",
            "8,16",
            "--seed",
            "42",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--poly", "x*y", "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    ("argv", "option", "value"),
    [
        (["classify", "--poly", "-x^2+y"], "poly", "-x^2+y"),
        (["sigma", "--poly", "-x*y", "--sweep-height", "1"], "poly", "-x*y"),
        (["incidence", "--poly", "-x^2+y", "--set", "AP(4,1,1)"], "poly", "-x^2+y"),
        (["scan", "--poly", "x^2 + y", "--family", "random", "--sizes", "8", "--range", "-50:50"], "range", "-50:50"),
        (["scan", "--poly", "x^2 + y", "--family", "AP", "--sizes", "8", "--floor", "-1/2"], "floor", "-1/2"),
    ],
    ids=["classify-poly", "sigma-poly", "incidence-poly", "scan-range", "scan-floor"],
)
def test_option_values_may_start_with_minus(argv, option, value, tmp_path, capsys):
    # argparse reads a token such as -x^2+y as an option unless it is
    # attached to the option that takes it
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "manifest.json").read_text())["argv_config"][option] == value


@pytest.mark.parametrize(
    ("argv", "error"),
    [
        (["classify", "--poly", "5"], "ConstantPolynomial"),
        (["sigma", "--poly", "5"], "ConstantPolynomial"),
        (["incidence", "--poly", "3", "--set", "AP(3,0,1)"], "ConstantPolynomial"),
        (["scan", "--poly", "5", "--family", "AP", "--sizes", "8", "--out", "{out}"], "HypothesisViolated"),
    ],
    ids=["classify", "sigma", "incidence", "scan"],
)
def test_constant_polynomial_is_a_refused_hypothesis(argv, error, tmp_path, capsys):
    assert main([a.replace("{out}", str(tmp_path)) for a in argv]) == 1
    assert capsys.readouterr().err.startswith(f"{error}: ")


@pytest.mark.parametrize("poly", ["x + y", "x"])
def test_sigma_refuses_total_degree_one(poly, capsys):
    assert main(["sigma", "--poly", poly]) == 1
    assert capsys.readouterr().err.startswith("HypothesisViolated: ")


class TestDispatch:
    def test_handler_is_looked_up_at_call_time(self, monkeypatch, capsys):
        # the parser is built once; a handler replaced after that still runs
        assert main(["classify", "--poly", "x y"]) == 0
        seen = []
        monkeypatch.setattr(sumprod.cli, "cmd_classify", lambda args: seen.append(args.poly) or 0)
        assert main(["classify", "--poly", "x^2 + y"]) == 0
        assert seen == ["x^2 + y"]


class TestMalformedInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["incidence", "--poly", "x y", "--set", "AP(8)"],
            ["incidence", "--poly", "x y", "--set", "GP(4,1)"],
            ["incidence", "--poly", "x y", "--set", "RandomInt(5)"],
            ["incidence", "--poly", "x y", "--set", "{setfile}"],
            ["sigma", "--poly", "x y", "--extra-candidates", "1/0"],
            ["classify", "--poly", '{"terms":[{"i":1}]}'],
            ["classify", "--poly", '{"terms":5}'],
            ["classify", "--poly", '{"terms":[{"i":1,"j":1,"num":"a"}]}'],
            ["sigma", "--poly", "x y", "--sweep-height", "-2"],
            ["incidence", "--poly", "x y", "--set", "AP(8,1,1)", "--sweep-height", "-1"],
        ],
        ids=["ap_arity", "gp_arity", "random_arity", "set_file_zero_den", "extra_zero_den",
             "json_missing_key", "json_terms_not_list", "json_num_not_int",
             "sigma_negative_sweep", "incidence_negative_sweep"],
    )
    def test_exits_2_with_one_line(self, argv, tmp_path, capsys):
        setfile = tmp_path / "set.txt"
        setfile.write_text("1\n1/0\n")
        assert main([a.replace("{setfile}", str(setfile)) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text", ["1:2:3", "1", "a:b"])
    def test_malformed_range_names_the_option(self, text, tmp_path, capsys):
        argv = ["scan", "--poly", "x y", "--family", "AP", "--sizes", "8", "--range", text, "--out", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"invalid input: --range must be lo:hi with integers lo and hi, got {text!r}\n"


_G = parse_poly("x^2 y + x + y")


class TestOptimizedInterpreter:
    """Certificates are explicit checks, so `python -O` gives the same output."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--poly", format_bipoly(_G**3 + _G)],  # total degree 9
            ["sigma", "--poly", "x^2 + 2 x y + y^2"],
            # every resultant and gcd of the sigma pipeline, at degree 9
            ["sigma", "--poly", "x^9 + 3 x^6 y + 3 x^3 y^2 + y^3", "--degree-cap", "9"],
        ],
        ids=["classify_degree_9_composite", "sigma_square_of_sum", "sigma_degree_9"],
    )
    def test_same_json_as_in_process(self, argv, capsys):
        assert main(argv + ["--json"]) == 0
        expected = json.loads(capsys.readouterr().out)
        src = str(Path(sumprod.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-O", "-m", "sumprod.cli", *argv, "--json"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=300,
        )
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout) == expected


def test_sigma_on_a_large_eliminant_ends():
    # the eliminant of the critical values by resultants had degree 115
    src = str(Path(sumprod.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "sumprod.cli", "sigma", "--poly", LARGE_ELIMINANT, "--json"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert "1/2" in [hit["lambda"] for hit in report["found"]]
    # the spectrum comes from the pencil's rank drop, which factors no
    # integer: nothing is skipped, and the candidate list is complete over Q
    assert "skipped" not in run.stderr and "budget" not in run.stderr
    assert report["candidates_complete"] is True


def test_incidence_at_ap_256_ends():
    # 65,536 classes: each row is evaluated once per difference, not per class and sum
    src = str(Path(sumprod.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "sumprod.cli", "incidence", "--poly", "x^3 + x y", "--set", "AP(256,1,1)", "--json"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=30,
    )
    assert run.returncode == 0, run.stderr
    inc = json.loads(run.stdout)["incidence"]
    assert inc["incidences"] == 16_777_216 and inc["point_count"] == 32_619_174


def test_incidence_at_ap_512_ends():
    # 262,144 classes, each counted by one AND and one popcount of bit masks
    # over the ~1,500 scaled differences
    src = str(Path(sumprod.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "sumprod.cli", "incidence", "--poly", "x^3 + x y", "--set", "AP(512,1,1)", "--json"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=10,
    )
    assert run.returncode == 0, run.stderr
    inc = json.loads(run.stdout)["incidence"]
    assert inc["incidences"] == 134_217_728 and inc["point_count"] == 262_509_984


def test_scan_to_1024_ends(tmp_path):
    # about a million pairs at n = 1024, each row evaluated at all points in one pass
    src = str(Path(sumprod.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "sumprod.cli", "scan", "--poly", "x^2 + x y + y^2", "--family", "AP",
         "--sizes", "128,256,512,1024", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=30,
    )
    assert run.returncode == 0, run.stderr
    rows = {r["n"]: r for r in csv.DictReader((tmp_path / "records.csv").read_text().splitlines())}
    assert rows["1024"]["sumset"] == "2047" and rows["1024"]["image"] == "347239"
