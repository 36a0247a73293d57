"""End-to-end command-line behavior and output reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sumprod
from sumprod.cli import main, parse_set_spec
from sumprod.explorer import ApSpec, GpSpec, RandomIntSpec
from sumprod.parsing import format_bipoly, parse_poly
from sumprod.spectrum import sigma_candidates, sigma_scan


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

    def test_bad_poly_is_usage_error(self, capsys):
        assert main(["classify", "--poly", "x + $"]) == 2

    def test_failed_certificate_exits_1(self, capsys, monkeypatch):
        # a fiber whose nullspace cannot be certified ends the run; the
        # compositeness test must not move on to another fiber
        from sumprod import linalg

        monkeypatch.setattr(linalg, "_annihilates", lambda rows, w: False)
        assert main(["classify", "--poly", "x y"]) == 1
        assert "CertificationFailed" in capsys.readouterr().err


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

    @pytest.mark.parametrize("poly", ["x^2 y^2 + 3", "x^3+3x^2y+3xy^2+y^3+x+y"])
    def test_fibers_that_split_over_q_certify(self, poly, capsys):
        # every fiber of these is reducible over C, and many split over Q
        assert main(["sigma", "--poly", poly, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        f = parse_poly(poly)
        report = sigma_scan(f, sigma_candidates(f))
        assert [h["lambda"] for h in data["found"]] == [str(h.lam) for h in report.found]
        assert all(hit.revalidate(f) for hit in report.found)
        assert any(h["certificate"]["kind"] == "rational-factorization" for h in data["found"])

    def test_factor_budget_exit_code(self, capsys):
        # the fiber at 0 splits over C, and its factor search needs this
        # 100-bit semiprime factored, which Brent's rho cannot do in budget
        n = 1267650600228402790082356974917
        assert main(["sigma", "--poly", f"x^2 - {n} y^2", "--sweep-height", "1"]) == 3
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

    def test_poly_from_file(self, tmp_path, capsys):
        polyfile = tmp_path / "poly.txt"
        polyfile.write_text("x^2 + y^2\n")
        assert main(["classify", "--poly", str(polyfile), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["composite"]["verdict"] is False

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
