"""Reducible-fiber search, certificates, and row removal."""

import json
from fractions import Fraction as F
from unittest import mock

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sumprod import integers, linalg
from sumprod.classify import is_composite
from sumprod.cli import main
from sumprod.factor import AbsReducibleWitness, FactorList, FiberPencil, factor_univariate, rational_roots
from sumprod.parsing import parse_poly as P
from sumprod.poly import BiPoly, UniPoly, resultant_eliminating, uni_gcd
from sumprod.spectrum import (
    _composed_dimension,
    composite_split,
    rational_critical_values,
    remove_sigma_rows,
    sigma_candidates,
    sigma_scan,
    sweep_candidates,
)

from conftest import (
    CORPUS_EVAL,
    LARGE_ELIMINANT,
    NON_COMPOSITE,
    composites,
    core_fiber_values,
    fraction_sweep,
    naive_image,
    nonconstant_bipolys,
    projected_spectrum,
    to_terms,
)


class TestCandidates:
    def test_product_has_the_origin_value(self):
        # both partials vanish at the origin and the value there is zero
        assert F(0) in sigma_candidates(FiberPencil(P("x y")))

    def test_circle_pair(self):
        assert F(0) in sigma_candidates(FiberPencil(P("x^2 + y^2")))

    def test_gradient_never_vanishes(self):
        cands = sigma_candidates(FiberPencil(P("x + y")), sweep_height=2)
        assert cands == sweep_candidates(2)

    def test_user_values_included(self):
        cands = sigma_candidates(FiberPencil(P("x y")), extra=(F(17), F(-22, 7)))
        assert F(17) in cands and F(-22, 7) in cands

    def test_sweep_height(self):
        sw = sweep_candidates(1)
        assert sw == [F(-1), F(0), F(1)]
        assert F(2, 5) in sweep_candidates(5)

    def test_sweep_matches_fraction_oracle(self):
        for height in range(8):
            assert sweep_candidates(height) == fraction_sweep(height)


def _resultant_x_with_lambda(f: BiPoly, g: BiPoly) -> BiPoly:
    """res_x(f - lambda, g) as a polynomial in (y, lambda), y on axis 0.

    lambda fills one entry in each of deg_x g rows of the Sylvester matrix,
    so the resultant has lambda-degree at most deg_x g and its values at
    lambda = 0, ..., deg_x g fix each y-coefficient (Lagrange).
    """
    nodes = range(g.deg_x + 1)
    values = [resultant_eliminating(f - BiPoly.const(t), g) for t in nodes]
    out = BiPoly.zero()
    for i, r in zip(nodes, values):
        basis = BiPoly.const(1)
        for j in nodes:
            if j != i:
                basis = basis * BiPoly({(0, 1): F(1, i - j), (0, 0): F(-j, i - j)})
        out = out + BiPoly({(k, 0): c for k, c in to_terms(r).items()}) * basis
    return out


class TestLargeEliminant:
    def test_squarefree_gcd_matches_sympy(self):
        # the eliminant of {f - lambda, f_x, f_y} by resultants: a gcd of
        # degree-115 inputs
        f = P(LARGE_ELIMINANT)
        elim = resultant_eliminating(
            _resultant_x_with_lambda(f, f.derivative("x")), _resultant_x_with_lambda(f, f.derivative("y"))
        )
        assert elim.degree == 115
        lam = sympy.symbols("lam")

        def to_sympy(p):
            return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed([p.coeff(k) for k in range(p.degree + 1)])], lam)

        gcd = sympy.gcd(to_sympy(elim), to_sympy(elim.derivative()))
        expected = UniPoly({int(k[0]): F(int(c.p), int(c.q)) for k, c in gcd.terms()}).normalized()
        got = uni_gcd(elim, elim.derivative())
        assert got.degree == 37
        assert got == expected


# the height-5 sweep, every fiber of which a composite f has reducible
SWEEP_5 = (
    "-5 -4 -3 -5/2 -2 -5/3 -3/2 -4/3 -5/4 -1 -4/5 -3/4 -2/3 -3/5 -1/2 -2/5 -1/3 -1/4 -1/5 0"
    " 1/5 1/4 1/3 2/5 1/2 3/5 2/3 3/4 4/5 1 5/4 4/3 3/2 5/3 2 5/2 3 4 5"
).split()

# (sigma argv after --poly, the hits found before the spectrum came from the
# pencil, whether the candidates are now complete over Q)
TIER1_SIGMA_HITS = [
    (["x y"], ["0"], True),
    (["x^2 + y"], [], True),
    (["x^2 + y^2"], ["0"], True),
    (["x^2 + x y + y^2"], ["0"], True),
    (["x^2 - y^2"], ["0"], True),
    (["x^3 + x y"], ["0"], True),
    (["x^3 + y"], [], True),
    (["x^3 + x + y"], [], True),
    (["x^4 + y"], [], True),
    (["x^5 + y"], [], True),
    (["x^2 + y^2", "--extra-candidates", "1/4,2"], ["0"], True),
    (["x^2 - y^2", "--sweep-height", "2"], ["0"], True),
    (["x y", "--sweep-height", "0"], ["0"], True),
    (["x^4 + x y^2 + y"], [], True),
    (["x^3 + y^3"], ["0"], True),
    (["x^2 y + x y^2"], ["0"], True),
    ([LARGE_ELIMINANT], ["1/2"], True),
    (["x^2+2xy+y^2", "--extra-candidates", "9,16"], SWEEP_5 + ["9", "16"], False),
    (["x^2 y^2 + 3"], SWEEP_5, False),
    (["x^3+3x^2y+3xy^2+y^3+x+y"], SWEEP_5, False),
    (["x^2 + 2 x y + y^2"], SWEEP_5, False),
    (["x^9 + 3 x^6 y + 3 x^3 y^2 + y^3", "--degree-cap", "9"], SWEEP_5, False),
]


def _sigma_json(argv, capsys) -> dict:
    assert main(["sigma", "--poly", *argv, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


small_factors = (
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-3, 3), min_size=1, max_size=4)
    .map(BiPoly)
    .filter(lambda p: not p.is_constant)
)


class TestRationalSpectrum:
    @pytest.mark.parametrize(("argv", "hits", "complete"), TIER1_SIGMA_HITS, ids=[c[0][0] for c in TIER1_SIGMA_HITS])
    def test_tier1_inputs_keep_their_hits(self, argv, hits, complete, capsys):
        data = _sigma_json(argv, capsys)
        assert [h["lambda"] for h in data["found"]] == hits
        assert data["candidates_complete"] is complete

    @given(small_factors, small_factors, st.integers(-50, 50), st.integers(1, 50))
    @settings(max_examples=40, deadline=None)
    def test_planted_constant_above_the_sweep_is_found(self, g, h, n, d):
        # f - c = g h is reducible, and c lies outside the height-5 sweep
        c = F(n, d)
        assume(max(abs(c.numerator), c.denominator) > 5)
        f = g * h + BiPoly.const(c)
        assume(f.deg_x >= 1 and f.deg_y >= 1 and not is_composite(f).composite)
        pencil = FiberPencil(f)
        report = sigma_scan(pencil, sigma_candidates(pencil))
        assert c in report.found_values
        assert report.candidates_complete

    def test_fiber_at_minus_one_half_keeps_the_list_complete(self, capsys):
        # 2 (2 x y + x + y) + 1 = (2 x + 1)(2 y + 1), and no other fiber splits
        assert FiberPencil(P("2 x y + x + y")).spectrum == (F(-1, 2),)
        data = _sigma_json(["2 x y + x + y"], capsys)
        assert [h["lambda"] for h in data["found"]] == ["-1/2"]
        assert data["candidates_complete"] is True

    def test_large_eliminant_factors_no_integer(self, monkeypatch, capsys, caplog):
        def refuse(n):
            raise AssertionError(f"factorint called on {n}")

        monkeypatch.setattr(integers, "factorint", refuse)
        data = _sigma_json([LARGE_ELIMINANT], capsys)
        assert "1/2" in [h["lambda"] for h in data["found"]]
        assert data["candidates_complete"] is True
        assert not caplog.records

    @pytest.mark.parametrize("poly", ["x^2 + 2 x y + y^2", "x^2 y^2 + 3", "x^2 + 3 x"])
    def test_composites_have_no_complete_list(self, poly, capsys):
        # every fiber is reducible: the candidates are the sweep and the extras
        f = P(poly)
        assert rational_critical_values(FiberPencil(f)) is None
        data = _sigma_json([poly, "--extra-candidates", "9,-7/2"], capsys)
        assert data["candidates_complete"] is False
        assert data["candidate_count"] == len(SWEEP_5) + 2
        assert [h["lambda"] for h in data["found"]] == sorted([*SWEEP_5, "9", "-7/2"], key=F)


class TestSingularZeroPoint:
    """A lambda block that loses rank at the zero point gives a prime up as a
    zero, with no determinant; otherwise its pivot rows give D_R, whose
    spectrum is the one the fixed projections gave
    (`conftest.projected_spectrum`), and holds only real rank drops."""

    @given(composites())
    @settings(max_examples=20, deadline=None)
    def test_composites_match_the_projected_test(self, f):
        pencil = FiberPencil(f)
        assert pencil.spectrum is None
        assert projected_spectrum(pencil) is None

    @given(small_factors, small_factors, st.fractions(min_value=-9, max_value=9, max_denominator=5))
    @settings(max_examples=20, deadline=None)
    def test_non_composites_match_the_projected_test(self, g, h, c):
        f = g * h + BiPoly.const(c)
        assume(f.deg_x >= 1 and f.deg_y >= 1 and not is_composite(f).composite)
        pencil = FiberPencil(f)
        assert pencil.spectrum == projected_spectrum(pencil), f

    @given(
        st.integers(-3, 3).filter(bool),
        st.integers(-3, 3).filter(bool),
        st.lists(st.integers(-3, 3), min_size=3, max_size=5).filter(lambda c: c[-1]),
    )
    @settings(max_examples=20, deadline=None)
    def test_polynomials_of_a_line_have_no_spectrum(self, a, b, coeffs):
        f = UniPoly(dict(enumerate(coeffs))).compose_bi(BiPoly({(1, 0): a, (0, 1): b}))
        assert FiberPencil(f).spectrum is None

    @given(
        st.one_of(
            composites(),
            st.builds(lambda g, h, c: g * h + BiPoly.const(c), small_factors, small_factors, st.integers(-9, 9)),
            nonconstant_bipolys(max_deg=3),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_spectrum_holds_only_rank_drops(self, f):
        assume(f.deg_x >= 1 and f.deg_y >= 1)
        pencil = FiberPencil(f)
        for lam in pencil.spectrum or ():
            assert pencil.dimension(lam) >= 2, (f, lam)

    def test_shared_spurious_root_is_dropped(self, capsys):
        # the minor vanishes at lambda = -15 and 0, where the fiber is
        # absolutely irreducible; -15 kept would be a 40th candidate beside
        # the sweep
        poly = "x^2 y + 2 y^3 - 5 x y - 6 x"
        pencil = FiberPencil(P(poly))
        assert rational_roots(pencil.drop) == [F(-15), F(0)]
        assert pencil.dimension(-15) == pencil.dimension(0) == 1
        assert pencil.spectrum == ()
        data = _sigma_json([poly], capsys)
        assert data["candidate_count"] == len(SWEEP_5)
        assert data["candidates_complete"] is True

    @pytest.mark.parametrize("poly", ["x^9 + 3 x^6 y + 3 x^3 y^2 + y^3", "x^2 + 2 x y + y^2"])
    def test_composite_takes_no_determinant(self, poly, monkeypatch):
        calls = _spy(monkeypatch, "_det_mod", "_interpolate_mod", "_echelon_mod")
        pencil = FiberPencil(P(poly))
        assert pencil.drop is None
        # two primes give D_R up on the rank of the lambda block at the zero
        # point: one elimination of A0 and one of G - s H per prime
        assert (calls["_det_mod"], calls["_interpolate_mod"]) == (0, 0)
        assert len(pencil.pencil._blocks) == 2
        assert calls["_echelon_mod"] == 2 * 2

    def test_non_composite_reuses_its_pivot_rows(self, monkeypatch, capsys):
        calls = _spy(monkeypatch, "_pivot_rows")
        pencil = FiberPencil(P("x^3 + y^3"))
        assert pencil.spectrum == (F(0),)
        # D_R takes two primes, and R is picked at the first
        assert len(pencil.pencil._blocks) == 2
        assert calls["_pivot_rows"] == 1
        data = _sigma_json(["x^3 + y^3"], capsys)
        assert [h["lambda"] for h in data["found"]] == ["0"]
        assert data["candidates_complete"] is True

    def test_each_fiber_is_eliminated_once_per_prime(self, monkeypatch, capsys):
        # the spectrum certifies the dimension at 0; the scan reads it back,
        # and the rank's certificate reuses the image mod the first prime
        calls = []
        kernel_mod = linalg.Pencil.kernel_mod

        def counted(self, a, b, p):
            calls.append((a, b, p))
            return kernel_mod(self, a, b, p)

        monkeypatch.setattr(linalg.Pencil, "kernel_mod", counted)
        pivot_rows = _spy(monkeypatch, "_pivot_rows")
        data = _sigma_json(["x^3 + y^3"], capsys)
        assert [h["lambda"] for h in data["found"]] == ["0"]
        assert calls.count((0, 1, (1 << 61) - 1)) == 1
        assert pivot_rows["_pivot_rows"] == 1


def _spy(monkeypatch, *names) -> dict:
    """Count the calls to each named function of `linalg`."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(linalg, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(linalg, name, counted)
    return calls


class TestScan:
    def test_product_finds_zero_with_rational_certificate(self):
        rep = sigma_scan(FiberPencil(P("x y")), [F(-1), F(0), F(1)])
        assert rep.found_values == (F(0),)
        cert = rep.found[0].certificate
        assert isinstance(cert, FactorList)
        assert {p for p, _ in cert.factors} == {P("x"), P("y")}
        assert rep.stein_bound_respected  # 1 < 2

    def test_sum_of_squares_nullspace_certificates(self):
        rep = sigma_scan(FiberPencil(P("x^2 + y^2")), [F(0), F(1)])
        assert rep.found_values == (F(0),)
        cert = rep.found[0].certificate
        assert isinstance(cert, AbsReducibleWitness)
        assert cert.kind == "nullspace" and cert.value == 2

    def test_square_of_sum_breaks_the_bound(self):
        rep = sigma_scan(FiberPencil(P("x^2 + 2 x y + y^2")), [F(1), F(4)])
        assert rep.found_values == (F(1), F(4))
        assert not rep.stein_bound_respected
        # the flag firing must agree with the compositeness verdict
        assert is_composite(P("x^2 + 2 x y + y^2")).composite

    def test_certificates_revalidate(self):
        for s in ("x y", "x^2 + y^2", "x^2 + x y + y^2", "x^3 + x y"):
            f = P(s)
            pencil = FiberPencil(f)
            rep = sigma_scan(pencil, sigma_candidates(pencil))
            for hit in rep.found:
                assert hit.revalidate(f)

    @given(composites())
    @settings(max_examples=15, deadline=None)
    def test_composite_split_matches_the_route_without_it(self, f):
        # the candidates reach both branches of the composed route
        outer, _, drop = composite_split(f)
        lams = sweep_candidates(1) + core_fiber_values(outer, drop)
        report = sigma_scan(FiberPencil(f), lams)
        with mock.patch("sumprod.spectrum.composite_split", return_value=None):
            assert sigma_scan(FiberPencil(f), lams) == report
        assert all(hit.revalidate(f) for hit in report.found)

    @pytest.mark.parametrize(
        ("poly", "lam"), [("x^2 + 2 x y + y^2", 2), ("x^4 + 2 x^2 y + y^2", 3), ("x^2 y^2 - 1", -3)]
    )
    def test_composed_dimension_by_both_routes(self, poly, lam):
        f = P(poly)
        outer, inner, drop = split = composite_split(f)
        pencil = FiberPencil(f)
        assert _composed_dimension(split, F(lam), pencil) == 2
        assert _composed_dimension((outer, inner, outer - lam), F(lam), pencil) == 2

    @given(composites(), st.integers(-4, 4))
    @settings(max_examples=30, deadline=None)
    def test_pencil_fallback_agrees_with_the_gcd_shortcut(self, f, lam):
        # with drop forced to Q - lambda, the gcd is never 1 and the
        # pencil decides; both must give the deg Q factors g - alpha
        outer, inner, drop = split = composite_split(f)
        lam = F(lam)
        pieces = factor_univariate(outer - lam)[1]
        assume(len(pieces) == 1 and pieces[0][1] == 1)
        assume(drop is not None and uni_gcd(outer - lam, drop).degree == 0)
        pencil = FiberPencil(f)
        assert _composed_dimension(split, lam, pencil) == outer.degree
        assert _composed_dimension((outer, inner, outer - lam), lam, pencil) == outer.degree

    def test_rank_test_runs_only_on_the_spectrum(self, monkeypatch, capsys):
        # x^3 + y^3 - lambda splits only at 0, the one root of the pencil's drop
        tested = []
        witness = FiberPencil.witness

        def counting(self, lam):
            tested.append(lam)
            return witness(self, lam)

        monkeypatch.setattr(FiberPencil, "witness", counting)
        assert main(["sigma", "--poly", "x^3 + y^3", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [hit["lambda"] for hit in report["found"]] == ["0"]
        assert tested == [0]

    @given(nonconstant_bipolys(), nonconstant_bipolys(), st.fractions(min_value=-6, max_value=6, max_denominator=6))
    @settings(max_examples=30, deadline=None)
    def test_skipped_candidates_are_irreducible(self, g, h, c):
        # the hits are the candidates whose fibers test reducible on the
        # pencil, with the rank test run on every candidate
        f = g * h + BiPoly.const(c)
        assume(f.deg_x >= 1 and f.deg_y >= 1)
        lams = sorted(set(sweep_candidates(1) + [c]))
        pencil = FiberPencil(f)
        oracle = tuple(lam for lam in lams if pencil.witness(lam) is not None)
        assert sigma_scan(FiberPencil(f), lams).found_values == oracle

    def test_monotone_under_more_candidates(self):
        pencil = FiberPencil(P("x^3 + x y"))
        small = sigma_scan(pencil, sigma_candidates(pencil, sweep_height=2))
        large = sigma_scan(pencil, sigma_candidates(pencil, sweep_height=5))
        assert set(small.found_values) <= set(large.found_values)

    def test_stein_bound_on_non_composite_corpus(self):
        for s in NON_COMPOSITE:
            f = P(s)
            k = f.total_degree
            if k > 5:
                continue
            pencil = FiberPencil(f)
            rep = sigma_scan(pencil, sigma_candidates(pencil))
            assert len(rep.found) < k, s
            assert rep.stein_bound_respected
            assert not is_composite(f).composite


class TestRowRemoval:
    def test_no_flagged_values(self):
        pencil = FiberPencil(P("x^2 + y"))
        rep = sigma_scan(pencil, sigma_candidates(pencil))
        grid = remove_sigma_rows({F(2), F(3)}, {F(1), F(6)}, rep)
        assert grid.point_count == 4 and grid.removed_count == 0

    def test_flagged_row_removed(self):
        rep = sigma_scan(FiberPencil(P("x y")), [F(0)])
        grid = remove_sigma_rows({F(2), F(3)}, {F(0), F(1)}, rep)
        assert grid.kept_values == (F(1),)
        assert grid.removed_count == 2

    def test_product_grid_needs_no_removal(self):
        f = P("x y")
        A = [F(1), F(2), F(3)]
        values = naive_image(CORPUS_EVAL["x y"], A)
        assert values == {F(1), F(2), F(3), F(4), F(6), F(9)}
        pencil = FiberPencil(f)
        rep = sigma_scan(pencil, sigma_candidates(pencil))
        grid = remove_sigma_rows({a + b for a in A for b in A}, values, rep)
        assert grid.removed_count == 0  # zero is not attained on this grid

    def test_removal_bounded_for_non_composite(self):
        for s in NON_COMPOSITE:
            f = P(s)
            k = f.total_degree
            A = [F(i) for i in range(-3, 4)]
            sums = {a + b for a in A for b in A}
            values = {f(a, b) for a in A for b in A}
            pencil = FiberPencil(f)
            rep = sigma_scan(pencil, sigma_candidates(pencil))
            grid = remove_sigma_rows(sums, values, rep)
            assert grid.removed_count <= len(sums) * (k - 1)
