"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the line per
criterion. Expected values are frozen from independent oracles: the floor
constants come from hand-coded evaluators over the generated families, and
the same oracle is re-run in place so the frozen numbers stay anchored.
"""

import random
import time
from fractions import Fraction as F

from sumprod.classify import (
    decompose_fully,
    is_composite,
    is_degenerate,
    recompose,
)
from sumprod.cli import main as cli_main
from sumprod.explorer import ApSpec, GpSpec, RandomIntSpec, generate_set, run_scan
from sumprod.factor import FiberPencil, count_abs_factors, factor_rational
from sumprod.geometry import (
    CommonFactor,
    SolutionCount,
    build_family,
    check_class_bound,
    curve_pair_solutions,
    incidence_report,
)
from sumprod.parsing import parse_poly as P
from sumprod.poly import BiPoly, UniPoly
from sumprod.spectrum import remove_sigma_rows, sigma_candidates, sigma_scan

from conftest import (
    CORPUS,
    CORPUS_EVAL,
    NON_COMPOSITE,
    conic_abs_count,
    grid_factor_exists,
    naive_image,
    naive_sumset,
    sympy_factor_multiset,
)


def report(num: int, label: str, detail: str = ""):
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num} ({label}): PASS{suffix}")


# ---------------------------------------------------------------------------
# 1. classifier correctness on a generated corpus, certificates re-expand


def _random_outer(rng) -> UniPoly:
    m = rng.choice([2, 3])
    outer = UniPoly({m: rng.choice([1, 2, 3, -1, -2])})
    for d in range(m):
        c = rng.randint(-3, 3)
        if c:
            outer = outer + UniPoly({d: c})
    return outer


def _random_linear_form(rng) -> BiPoly:
    while True:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if a or b:
            return BiPoly({(1, 0): a, (0, 1): b})


def _random_shift_inner(rng) -> BiPoly:
    db = rng.choice([1, 2, 3])
    inner = BiPoly({(1, 0): 1, (0, db): rng.choice([1, 2, -1, -2])})
    for j in range(db):
        c = rng.randint(-2, 2)
        if c:
            inner = inner + BiPoly({(0, j): c})
    return inner


def test_criterion_1_classifier_correctness():
    rng = random.Random(20260809)
    t0 = time.perf_counter()
    checked = 0
    # twenty constructed compositions, half over linear forms
    cases = []
    while len(cases) < 10:
        f = _random_outer(rng).compose_bi(_random_linear_form(rng))
        if not f.is_constant and f.total_degree >= 2:
            cases.append((f, True))  # degenerate inner
    while len(cases) < 20:
        inner = _random_shift_inner(rng)
        f = _random_outer(rng).compose_bi(inner)
        if not f.is_constant and f.total_degree >= 2:
            cases.append((f, inner.deg_y <= 1))
    for f, expect_degenerate in cases:
        dec = is_degenerate(f)
        assert (dec is not None) == expect_degenerate
        verdict = is_composite(f)
        assert verdict.composite
        if dec is not None:
            assert dec.expand() == f  # re-expanding certificate
        else:
            core, chain = decompose_fully(f)
            assert chain and recompose(chain, core) == f
        checked += 1
    for text in NON_COMPOSITE:
        f = P(text)
        verdict = is_composite(f)
        assert not verdict.composite
        lam = verdict.certificate_lambda
        from sumprod.factor import fiber_reducibility

        assert fiber_reducibility(f - BiPoly.const(lam)) is None
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 30
    assert elapsed < 60.0
    report(1, "classifier correctness", f"30/30 verdicts in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. the reducible-fiber count stays below the degree for non-composite f


def test_criterion_2_stein_bound():
    for text in NON_COMPOSITE:
        f = P(text)
        k = f.total_degree
        assert k <= 5
        pencil = FiberPencil(f)
        rep = sigma_scan(pencil, sigma_candidates(pencil, sweep_height=5))
        assert len(rep.found) < k, text
        assert rep.stein_bound_respected
        # the cross-implication: a full bound would assert compositeness
        assert not is_composite(f).composite
    report(2, "Stein bound", f"{len(NON_COMPOSITE)} polynomials, zero violations")


# ---------------------------------------------------------------------------
# 3. class-size ceiling k^3 and class-count floor; composite witness


def test_criterion_3_class_bounds():
    for text in ("x y", "x^2 + y", "x^2 + x y + y^2"):
        f = P(text)
        k = f.total_degree
        for n in (10, 25, 50):
            A = [F(v) for v in range(1, n + 1)]
            fam = build_family(f, A)
            rep = check_class_bound(fam, composite=False)
            assert rep.size_bound == k**3
            assert rep.max_class_size <= k**3
            assert rep.class_count * k**3 >= len(fam.base) ** 2
    square = P("x^2 + 2 x y + y^2")
    fam = build_family(square, [F(v) for v in range(1, 10)])
    rep = check_class_bound(fam, composite=True)
    _, members = rep.composite_witness
    assert len(members) >= 9 > 2**3
    report(3, "class bounds", "ceiling and floor hold; witness class of 9 > 8")


# ---------------------------------------------------------------------------
# 4. rational solution count of two-curve systems never exceeds k^2


def test_criterion_4_bezout_ceiling():
    worst = {}
    for text in CORPUS:
        f = P(text)
        k = f.total_degree
        A = [F(v) for v in range(1, 13)]
        pencil = FiberPencil(f)
        sig = sigma_scan(pencil, sigma_candidates(pencil))
        sums = sorted({a + b for a in A for b in A})
        values = sorted({f(a, b) for a in A for b in A})
        grid = remove_sigma_rows(sums, values, sig)
        points = [(s, v) for s in grid.sums for v in grid.kept_values]
        rng = random.Random(4444)
        mx = 0
        for _ in range(500):
            p1, p2 = rng.sample(points, 2)
            got = curve_pair_solutions(f, p1, p2)
            # rows with flagged values were excluded, so a common factor
            # would contradict the flagged-coordinate characterization
            assert isinstance(got, SolutionCount), (text, p1, p2)
            assert got.count <= k * k
            mx = max(mx, got.count)
        worst[text] = (mx, k * k)
    # positive direction: flagged rows can and do share factors
    square = P("x^2 + 2 x y + y^2")
    got = curve_pair_solutions(square, (F(0), F(0)), (F(1), F(1)))
    assert isinstance(got, CommonFactor)
    flagged = set(sigma_scan(FiberPencil(square), [F(0), F(1)]).found_values)
    assert {F(0), F(1)} <= flagged
    detail = "; ".join(f"{t}: max {m}<= {c}" for t, (m, c) in worst.items())
    report(4, "Bezout ceiling", detail)


# ---------------------------------------------------------------------------
# 5. per-curve incidence floor ceil(|A'| / k)


def test_criterion_5_per_curve_floor():
    for text in CORPUS:
        f = P(text)
        k = f.total_degree
        pencil = FiberPencil(f)
        cands = sigma_candidates(pencil)
        for n in (8, 16, 32):
            A = [F(v) for v in range(1, n + 1)]
            rep, fam = incidence_report(pencil, A, cands)
            floor = -(-len(fam.base) // k)  # ceil division
            assert rep.per_curve_min >= floor, (text, n)
    report(5, "per-curve incidence floor", "5 polynomials x sizes 8,16,32")


# ---------------------------------------------------------------------------
# 6. growth floors per (polynomial, family), slope, and runtime

# floor_c^2 frozen from the hand-coded-evaluator baseline over the same
# families; the oracle below re-derives them on every run
FLOOR_SQUARED = {
    ("x y", "AP"): F(50625, 8192),
    ("x y", "GP"): F(18225, 2048),
    ("x y", "RandomInt"): F(6561, 128),
    ("x^2 + y", "AP"): F(680625, 32768),
    ("x^2 + y", "GP"): F(68121, 512),
    ("x^2 + y", "RandomInt"): F(162),
    ("x^2 + x y + y^2", "AP"): F(18225, 2048),
    ("x^2 + x y + y^2", "GP"): F(6561, 128),
    ("x^2 + x y + y^2", "RandomInt"): F(6561, 128),
    ("x^2 + y^2", "AP"): F(65025, 8192),
    ("x^2 + y^2", "GP"): F(6561, 128),
    ("x^2 + y^2", "RandomInt"): F(6561, 128),
    ("x^3 + x y", "AP"): F(225, 8),
    ("x^3 + x y", "GP"): F(77841, 512),
    ("x^3 + x y", "RandomInt"): F(162),
}

_SCAN_SEED = 20260809
_SIZES = (8, 16, 32, 64)


def _family_specs(name):
    if name == "AP":
        return [ApSpec(n, F(1), F(1)) for n in _SIZES]
    if name == "GP":
        return [GpSpec(n, F(1), F(2)) for n in _SIZES]
    return [RandomIntSpec(n, 1, 10000, _SCAN_SEED) for n in _SIZES]


def test_criterion_6_growth_floors():
    t0 = time.perf_counter()
    slopes = []
    for text in CORPUS:
        f = P(text)
        fn = CORPUS_EVAL[text]
        for family in ("AP", "GP", "RandomInt"):
            specs = _family_specs(family)
            floor = FLOOR_SQUARED[(text, family)]
            # oracle pass: recompute every baseline product independently
            oracle_min = None
            for spec in specs:
                A = generate_set(spec).elements
                prod = len(naive_sumset(A)) * len(naive_image(fn, A))
                ratio = F(prod * prod, len(A) ** 5)
                oracle_min = ratio if oracle_min is None else min(oracle_min, ratio)
            assert oracle_min == floor, (text, family, oracle_min)
            result = run_scan(f, specs, poly_id=text)
            for rec in result.records:
                p2, n5 = rec.ratio_squared
                assert p2 * floor.denominator >= floor.numerator * n5, (
                    text,
                    family,
                    rec.n,
                )
                # scan sizes must agree with the oracle
                A = generate_set(specs[_SIZES.index(rec.n)]).elements
                assert rec.sumset_size == len(naive_sumset(A))
                assert rec.image_size == len(naive_image(fn, A))
            assert result.summary.slope >= 1.9, (text, family, result.summary.slope)
            slopes.append(result.summary.slope)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(
        6,
        "growth floors",
        f"15 scans, min slope {min(slopes):.2f} >= 1.9, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7. oracle equivalence for the factorization routes


def test_criterion_7_oracle_equivalence():
    deg4_extras = [
        P("x y") * P("x y"),
        P("x^2 + y") * P("x + y"),
        P("x^2 + 2 x y + y^2") * P("x - y"),
        P("x^2 + y^2") * P("x^2 - y^2"),
    ]
    checked = 0
    for f in [P(t) for t in CORPUS] + deg4_extras:
        assert f.total_degree <= 4
        mine = factor_rational(f)
        assert mine.verify(f)
        got = sorted(
            ((p, m) for p, m in mine.factors),
            key=lambda pm: (pm[0].total_degree, sorted(pm[0].t)),
        )
        assert got == sympy_factor_multiset(f), f
        # grid-search oracle agrees on reducibility over Q
        reducible = mine.nontrivial_pieces() >= 2
        assert grid_factor_exists(f) == reducible, f
        checked += 1
    # absolute-factor counts are additive over 50 seeded coprime products
    rng = random.Random(777)
    lines = [P("x + y"), P("x - y"), P("x + 2y + 1"), P("2x - y + 3"), P("x + 3y - 2")]
    conics = [P("x^2 + y^2"), P("x^2 + y^2 - 1"), P("x y - 1"), P("x^2 + 2 y^2 + 1")]
    for _ in range(50):
        chosen = rng.sample(lines, rng.randint(1, 2)) + rng.sample(conics, rng.randint(0, 2))
        f = BiPoly.const(1)
        expected = 0
        for p in chosen:
            f = f * p
            expected += 1 if p.total_degree == 1 else conic_abs_count(p)
        assert count_abs_factors(f) == expected
    report(7, "oracle equivalence", f"{checked} factorizations + 50 count checks")


# ---------------------------------------------------------------------------
# 8. reproducibility of scan outputs


def test_criterion_8_reproducibility(tmp_path):
    args = [
        "scan",
        "--poly",
        "x*y",
        "--family",
        "random",
        "--sizes",
        "8,16,32",
        "--seed",
        "1729",
    ]
    a, b = tmp_path / "run_a", tmp_path / "run_b"
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    ra = (a / "records.csv").read_bytes()
    rb = (b / "records.csv").read_bytes()
    assert ra == rb
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
    report(8, "reproducibility", "records.csv byte-identical across reruns")
