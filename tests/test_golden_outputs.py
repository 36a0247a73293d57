"""Golden digests of the CLI's outputs on a fixed corpus.

Each call runs in process with `--json` (and `--out` where the case writes
data files). The digest covers stdout and every file written to the output
directory except `manifest.json`, which carries timestamps and timings. The
output directory is replaced by `<out>` and every float in a JSON document
is rounded to 9 significant digits before hashing, so the digests pin the
emitted bytes of every exact field.

To print the digests of the current code: `python3 tests/test_golden_outputs.py`.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from sumprod.cli import main

# (case id, argv without --json/--out, whether the case writes --out files)
CORPUS = [
    ("classify-square-of-sum", ["classify", "--poly", "x^2 + 2x y + y^2"], False),
    ("classify-chain", ["classify", "--poly", "x^2y^2 + 3"], True),
    (
        "classify-nested-chain",
        ["classify", "--poly",
         "x^8 + 4 x^6 y + 6 x^4 y^2 + 4 x^2 y^3 + 2 x^4 + y^4 + 4 x^2 y + 2 y^2 + 1"],
        True,
    ),
    ("sigma-extra", ["sigma", "--poly", "x^2 + y^2", "--extra-candidates", "1/4,2"], False),
    ("sigma-difference", ["sigma", "--poly", "x^2 - y^2", "--sweep-height", "2"], True),
    # composites: linear core x - y, core x^2 + y, core x y (whose fiber
    # x y at lambda = -1 is reducible)
    (
        "sigma-linear-core",
        ["sigma", "--poly", "x^2 - 2 x y + y^2 + x - y", "--sweep-height", "3"],
        True,
    ),
    (
        "sigma-parabola-core",
        ["sigma", "--poly", "x^4 + 2 x^2 y + x^2 + y^2 + y", "--sweep-height", "3"],
        True,
    ),
    ("sigma-bilinear-core", ["sigma", "--poly", "x^2 y^2 - 1", "--sweep-height", "2"], False),
    ("incidence-ap24", ["incidence", "--poly", "x^3 + x y", "--set", "AP(24,1,1)"], True),
    (
        "incidence-sigma-rows",
        ["incidence", "--poly", "x^2 + 2 x y + y^2", "--set", "AP(8,1,1)"],
        False,
    ),
    (
        "incidence-rational",
        ["incidence", "--poly", "x^2 + 1/2 x y - 3", "--set", "AP(9,-1/2,1/3)"],
        True,
    ),
    (
        "incidence-zero-row",
        ["incidence", "--poly", "x^2 y - 1/6 x^2 + x y^2 - 1/6 x y", "--set", "AP(9,-1/2,1/3)"],
        False,
    ),
    (
        "incidence-random",
        ["incidence", "--poly", "x^3 + y", "--set", "RandomInt(12,-20,20,5)"],
        False,
    ),
    (
        "incidence-sigma-rows-rational",
        ["incidence", "--poly", "x^2 + 2 x y + y^2", "--set", "AP(6,1/2,1/2)"],
        False,
    ),
    (
        "incidence-sigma-rows-random",
        ["incidence", "--poly", "x^2 - y^2", "--set", "RandomInt(10,-30,30,3)"],
        False,
    ),
    (
        "incidence-sigma-rows-negative",
        ["incidence", "--poly", "x^3 + x y", "--set", "AP(12,-3,1)"],
        True,
    ),
    (
        "incidence-sweep-0-random",
        ["incidence", "--poly", "x^2 - y^2", "--set", "RandomInt(10,-30,30,3)",
         "--sweep-height", "0"],
        False,
    ),
    (
        "incidence-sweep-1-rational",
        ["incidence", "--poly", "x^2 + 2 x y + y^2", "--set", "AP(6,1/2,1/2)",
         "--sweep-height", "1"],
        False,
    ),
    # a composite with a nonlinear core: (x^3 + y)^3
    (
        "incidence-cubed-core",
        ["incidence", "--poly", "x^9 + 3 x^6 y + 3 x^3 y^2 + y^3", "--set", "AP(12,1,1)"],
        True,
    ),
    (
        "scan-ap",
        ["scan", "--poly", "x^3 + x y", "--family", "AP", "--sizes", "8,16,32"],
        True,
    ),
    (
        "scan-random",
        ["scan", "--poly", "x^2 + y", "--family", "random", "--sizes", "8,16",
         "--seed", "42", "--range", "1:500"],
        True,
    ),
]

# recorded before the curve classes moved to integer keys
GOLDEN = {
    "classify-square-of-sum": {
        "stdout": "af8bc6516bac56061e50ee3482aa3d5deedc8986b08312dfa29a6cae7b7babe5",
    },
    "classify-chain": {
        "stdout": "18d35c5309a85d037cf944edafb9dc3c53c13fefca4105699fefeff6eb709baa",
        "classify.json": "18d35c5309a85d037cf944edafb9dc3c53c13fefca4105699fefeff6eb709baa",
    },
    # recorded before the shift reconstruction and the core-inequality report
    # were deleted; the chain t^2 + 2 t + 1 o t^2 o (x^2 + y) is split by
    # classify._split_right
    "classify-nested-chain": {
        "stdout": "b7d6daac22fc153a5fc4ce89f98a71d9c01d4f435f91e642850b98c3e27c1e0d",
        "classify.json": "b7d6daac22fc153a5fc4ce89f98a71d9c01d4f435f91e642850b98c3e27c1e0d",
    },
    # re-recorded when sigma reports gained the candidates_complete field;
    # the rest of each document is unchanged
    "sigma-extra": {
        "stdout": "4bebcb561610ce1b1d6ddfce98efa292c14330726089306c519e3f3bdb43aeed",
    },
    "sigma-difference": {
        "stdout": "f95b9caccd0ecf98164c09d97e3d3c094d78e7d9ed101c54515317652dac9237",
        "sigma.json": "f95b9caccd0ecf98164c09d97e3d3c094d78e7d9ed101c54515317652dac9237",
    },
    # recorded before sigma factored the fibers of a composite through its
    # decomposition
    "sigma-linear-core": {
        "stdout": "0ef50423d4c908b12098f7908a5aa1bae20d1ae97b36463ea95d448479a13836",
        "sigma.json": "0ef50423d4c908b12098f7908a5aa1bae20d1ae97b36463ea95d448479a13836",
    },
    "sigma-parabola-core": {
        "stdout": "27f4626bb27d7ceb9181aa9fa1119545c3ea558604d14cb16f2f1086fda3b9c6",
        "sigma.json": "27f4626bb27d7ceb9181aa9fa1119545c3ea558604d14cb16f2f1086fda3b9c6",
    },
    "sigma-bilinear-core": {
        "stdout": "a5e1aec110f79a5d4f4612a69cd095df7b09d122c0b803f7652e659d28fc193b",
    },
    "incidence-ap24": {
        "stdout": "593f661c4e52388b1771999c5edb8c48f6eab4f3a6a969ef3b25046c66aac4e1",
        "histogram.csv": "f0328ffe6c6b3ae60cb63589e5b6ca92b37e6c2af2215ff18d50bb33b2665bda",
        "incidence.json": "593f661c4e52388b1771999c5edb8c48f6eab4f3a6a969ef3b25046c66aac4e1",
    },
    "incidence-sigma-rows": {
        "stdout": "37916293751a11f288eebf75df1e7f8f206a35c17b5322897d1ab7ae7eaf7bd5",
    },
    "incidence-rational": {
        "stdout": "f822f19dd31d2e45f02edd452a6416f88276dba6fda1bd0e1ba960e9a07e12ca",
        "histogram.csv": "7374644597c795ee3aefd288a46ce137f317f0068c1876c62a432c991b6f626c",
        "incidence.json": "f822f19dd31d2e45f02edd452a6416f88276dba6fda1bd0e1ba960e9a07e12ca",
    },
    "incidence-zero-row": {
        "stdout": "cda78e3e867f58609629dea165c3ad1e7d2db1aad68c896bf080415c0601dac2",
    },
    "incidence-random": {
        "stdout": "576947ec22719d9ff64c73f3cb852b27498697a6831347d6f313ab3628afe716",
    },
    # recorded before incidence stopped running the whole sigma scan
    "incidence-sigma-rows-rational": {
        "stdout": "3f9107a36508347c51fec19a133ad79cb52cf62cbda00bcdf9eecbde4a65c9be",
    },
    "incidence-sigma-rows-random": {
        "stdout": "025d6c627c541ffc83a623280ad0b82dd14a99b2df86b0b9501cac580c53d192",
    },
    # recorded before incidence decided sweep membership in integers
    "incidence-sweep-0-random": {
        "stdout": "2994a9a06e6893cf6f33ec9559b2fbda12e12a5020927b28619d452b7afa5386",
    },
    "incidence-sweep-1-rational": {
        "stdout": "ed4656c3cf11a1c22acee462ddb36581e0732e949f612d5c224e0517c919a086",
    },
    "incidence-sigma-rows-negative": {
        "stdout": "a1f72069540faa3e6dd4378368c00b51e84f44c3103e22bbdf8f6d466dbe3c70",
        "histogram.csv": "56d3309d8fbaf580c84c9db4866967ed108f3064022549e5bd7cd4b512adad1a",
        "incidence.json": "a1f72069540faa3e6dd4378368c00b51e84f44c3103e22bbdf8f6d466dbe3c70",
    },
    # recorded before the pencil decided a singular lambda block by its rank
    "incidence-cubed-core": {
        "stdout": "bb99519ce6225efc1acc423e8af95456ac0ce710da3eaacec9a0114da6cebd84",
        "histogram.csv": "56d3309d8fbaf580c84c9db4866967ed108f3064022549e5bd7cd4b512adad1a",
        "incidence.json": "bb99519ce6225efc1acc423e8af95456ac0ce710da3eaacec9a0114da6cebd84",
    },
    "scan-ap": {
        "stdout": "b18c90af5c5278260e5cc3a08e059ee82f2ab8a1778c8ea926b2972384c16116",
        "records.csv": "8dda270a2f7680c1c20e638276cd891b86e79720ddeed8ca1c5a6a2611ad3ea7",
        "summary.json": "b18c90af5c5278260e5cc3a08e059ee82f2ab8a1778c8ea926b2972384c16116",
    },
    "scan-random": {
        "stdout": "e650286403b8b77ecfe7520111b2d2405b73f118c998edba7dc7eea3c7b576d8",
        "records.csv": "6959cbe7c302015a0cb3cae33203f69c0083af488b17eb6be54f5604a6520e5e",
        "summary.json": "e650286403b8b77ecfe7520111b2d2405b73f118c998edba7dc7eea3c7b576d8",
    },
}


def _round_floats(value):
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, list):
        return [_round_floats(v) for v in value]
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    return value


def _digest(text: str, out: Path, is_json: bool) -> str:
    text = text.replace(str(out), "<out>")
    if is_json:
        text = json.dumps(_round_floats(json.loads(text)), indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def run_case(argv, writes, out: Path) -> tuple[int, dict[str, str]]:
    extra = ["--out", str(out)] if writes else []
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = main(argv + ["--json"] + extra)
    digests = {"stdout": _digest(stdout.getvalue(), out, True)}
    if writes:
        for path in sorted(out.iterdir()):
            if path.name != "manifest.json":
                digests[path.name] = _digest(path.read_text(), out, path.suffix == ".json")
    return code, digests


@pytest.mark.parametrize(("case", "argv", "writes"), CORPUS, ids=[c[0] for c in CORPUS])
def test_outputs_match_golden(case, argv, writes, tmp_path):
    code, digests = run_case(argv, writes, tmp_path / "out")
    assert code == 0
    assert digests == GOLDEN[case]


def test_incidence_needs_no_factorization(refuse_in_package, tmp_path):
    # incidence only asks whether f - lambda is reducible; it factors nothing
    # and never runs the sigma scan, so both may fail without changing a byte
    refuse_in_package(("factor_rational", "sigma_scan"), "incidence called a certificate builder")
    case, argv, writes = next(c for c in CORPUS if c[0] == "incidence-sigma-rows")
    code, digests = run_case(argv, writes, tmp_path / "out")
    assert code == 0
    assert digests == GOLDEN[case]


def test_linear_core_fibers_need_no_bivariate_factorization(refuse_in_package, tmp_path):
    # every fiber of Q(x - y) is a product of the linear pieces q(x - y),
    # irreducible over Q for q irreducible, so Gao's method never runs
    refuse_in_package(("factor_rational",), "sigma factored a fiber of Q(x - y) by Gao")
    case, argv, writes = next(c for c in CORPUS if c[0] == "sigma-linear-core")
    code, digests = run_case(argv, writes, tmp_path / "out")
    assert code == 0
    assert digests == GOLDEN[case]


def test_degree_cap_comes_before_the_decomposition(refuse_in_package, capsys):
    # (x^3 + y)^3 is over the default cap: sigma finds it composite, so it
    # never computes a spectrum, but the cap comes before the decomposition
    # of its fibers through the core, so the first reducible fiber stops it
    refuse_in_package(("Pencil.drop_polynomial", "factor_composed"), "sigma read the spectrum or the core")
    assert main(["sigma", "--poly", "x^9 + 3 x^6 y + 3 x^3 y^2 + y^3"]) == 3
    assert capsys.readouterr().err == "degree cap exceeded: total degree 9 exceeds cap 8\n"


@pytest.mark.parametrize("case", ["sigma-linear-core", "incidence-cubed-core"])
def test_composite_needs_no_rank_drop_polynomial(case, refuse_in_package, tmp_path):
    # a composite f has every fiber reducible, hence no spectrum: sigma (in
    # the degree cap) and incidence decompose f first and never ask its
    # pencil for the rank-drop polynomial; the core x - y has none either
    refuse_in_package(("Pencil.drop_polynomial",), "a composite's pencil computed its rank-drop polynomial")
    argv, writes = next((a, w) for c, a, w in CORPUS if c == case)
    code, digests = run_case(argv, writes, tmp_path / "out")
    assert code == 0
    assert digests == GOLDEN[case]


@pytest.mark.parametrize("case", ["incidence-sigma-rows-rational", "incidence-sweep-1-rational"])
def test_incidence_builds_no_candidate_list(case, refuse_in_package, tmp_path):
    # incidence reads its sweep off the grid in integers, so the Fraction
    # candidate lists may fail without changing a byte
    refuse_in_package(("sweep_candidates", "sigma_candidates"), "incidence built a Fraction candidate list")
    argv, writes = next((a, w) for c, a, w in CORPUS if c == case)
    code, digests = run_case(argv, writes, tmp_path / "out")
    assert code == 0
    assert digests == GOLDEN[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        golden = {case: run_case(argv, writes, Path(tmp) / case)[1] for case, argv, writes in CORPUS}
    print(json.dumps(golden, indent=4))
