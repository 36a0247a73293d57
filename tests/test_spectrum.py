"""Reducible-fiber search, certificates, and row removal."""

import logging
from fractions import Fraction as F

import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix
from sympy.polys.subresultants_qq_zz import sylvester

from sumprod import spectrum
from sumprod.classify import is_composite
from sumprod.errors import FactorBudgetExceeded
from sumprod.factor import AbsReducibleWitness, FactorList
from sumprod.parsing import parse_poly as P
from sumprod.poly import BiPoly, UniPoly, resultant_eliminating, uni_gcd
from sumprod.spectrum import (
    _resultant_x_with_lambda,
    rational_critical_values,
    remove_sigma_rows,
    sigma_candidates,
    sigma_scan,
    sweep_candidates,
)

from conftest import LARGE_ELIMINANT, NON_COMPOSITE, naive_image, CORPUS_EVAL, fraction_sweep


class TestCandidates:
    def test_product_has_the_origin_value(self):
        # both partials vanish at the origin and the value there is zero
        assert F(0) in sigma_candidates(P("x y"))

    def test_circle_pair(self):
        assert F(0) in sigma_candidates(P("x^2 + y^2"))

    def test_gradient_never_vanishes(self):
        cands = sigma_candidates(P("x + y"), sweep_height=2)
        assert cands == sweep_candidates(2)

    def test_user_values_included(self):
        cands = sigma_candidates(P("x y"), extra=(F(17), F(-22, 7)))
        assert F(17) in cands and F(-22, 7) in cands

    def test_sweep_height(self):
        sw = sweep_candidates(1)
        assert sw == [F(-1), F(0), F(1)]
        assert F(2, 5) in sweep_candidates(5)

    def test_sweep_matches_fraction_oracle(self):
        for height in range(8):
            assert sweep_candidates(height) == fraction_sweep(height)

    def test_skipped_critical_values_are_reported(self, monkeypatch, caplog):
        def out_of_budget(p):
            raise FactorBudgetExceeded("rho budget exceeded for 91")

        monkeypatch.setattr(spectrum, "rational_roots", out_of_budget)
        with caplog.at_level(logging.WARNING, logger="sumprod.spectrum"):
            cands = sigma_candidates(P("x y"), extra=(F(17),), sweep_height=2)
        assert cands == sorted(sweep_candidates(2) + [F(17)])
        [record] = caplog.records
        assert record.levelno == logging.WARNING and record.name == "sumprod.spectrum"
        assert "critical values skipped" in record.getMessage() and "rho budget exceeded" in record.getMessage()


small_bipolys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 2)), st.integers(-4, 4), min_size=1, max_size=5
).map(BiPoly)


class TestResultantWithLambda:
    @given(small_bipolys, small_bipolys)
    @settings(max_examples=40, deadline=None)
    def test_matches_sympy_sylvester_determinant(self, f, g):
        assume(f.deg_x >= 1 and g.deg_x >= 1)
        x, y, lam = sympy.symbols("x y lam")

        def expr(p):
            return sum(int(c) * x**i * y**j for (i, j), c in p.t.items())

        # the textbook definition; sympy.resultant itself flips the sign for
        # some degree pairs, e.g. resultant(x - 2, x**3, x) == -8. The
        # determinant is taken in sympy's polynomial domain: `Matrix.det`
        # gives the same, far more slowly
        matrix = DomainMatrix.from_Matrix(sylvester(expr(f) - lam, expr(g), x))
        det = matrix.domain.to_sympy(matrix.det())
        expected = sympy.Poly(sympy.expand(det), y, lam)
        got = _resultant_x_with_lambda(f, g)
        assert {k: sympy.Rational(v.numerator, v.denominator) for k, v in got.t.items()} == {
            k: v for k, v in expected.terms() if v
        }


@st.composite
def univariate_with_critical_points(draw):
    """p with p' = c (x - r_1)...(x - r_k) (x^2 - a): rational critical
    points r_i, and irrational ones when a is not a square."""
    roots = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=3))
    deriv = [F(draw(st.integers(1, 3)) * draw(st.sampled_from([1, -1])))]  # ascending coefficients
    for r in roots + (["quadratic"] if draw(st.booleans()) else []):
        # multiply by x - r, or by x^2 - a
        factor = [F(-draw(st.integers(0, 5))), F(0), F(1)] if r == "quadratic" else [F(-r), F(1)]
        deriv = [sum(deriv[i] * factor[k - i] for i in range(len(deriv)) if 0 <= k - i < len(factor))
                 for k in range(len(deriv) + len(factor) - 1)]
    c0 = draw(st.fractions(min_value=-5, max_value=5, max_denominator=3))
    return [c0] + [c / (k + 1) for k, c in enumerate(deriv)]


class TestUnivariateCriticalValues:
    @given(univariate_with_critical_points(), st.sampled_from("xy"))
    @settings(max_examples=40, deadline=None)
    def test_are_the_rational_roots_of_the_discriminant(self, coeffs, var):
        x, lam = sympy.symbols("x lam")
        p = sum(sympy.Rational(c.numerator, c.denominator) * x**k for k, c in enumerate(coeffs))
        # p - lam has a repeated root exactly at the critical values of p
        disc = sympy.Poly(sympy.discriminant(p - lam, x), lam)
        expected = sorted(F(int(r.p), int(r.q)) for r in sympy.roots(disc, filter="Q"))
        f = BiPoly({((k, 0) if var == "x" else (0, k)): c for k, c in enumerate(coeffs)})
        assert rational_critical_values(f) == expected


class TestLargeEliminant:
    def test_squarefree_gcd_matches_sympy(self):
        f = P(LARGE_ELIMINANT)
        elim = resultant_eliminating(
            _resultant_x_with_lambda(f, f.derivative("x")), _resultant_x_with_lambda(f, f.derivative("y")), "x"
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


class TestScan:
    def test_product_finds_zero_with_rational_certificate(self):
        rep = sigma_scan(P("x y"), [F(-1), F(0), F(1)])
        assert rep.found_values == (F(0),)
        cert = rep.found[0].certificate
        assert isinstance(cert, FactorList)
        assert {p for p, _ in cert.factors} == {P("x"), P("y")}
        assert rep.stein_bound_respected  # 1 < 2

    def test_sum_of_squares_nullspace_certificates(self):
        rep = sigma_scan(P("x^2 + y^2"), [F(0), F(1)])
        assert rep.found_values == (F(0),)
        cert = rep.found[0].certificate
        assert isinstance(cert, AbsReducibleWitness)
        assert cert.kind == "nullspace" and cert.value == 2

    def test_square_of_sum_breaks_the_bound(self):
        rep = sigma_scan(P("x^2 + 2 x y + y^2"), [F(1), F(4)])
        assert rep.found_values == (F(1), F(4))
        assert not rep.stein_bound_respected
        # the flag firing must agree with the compositeness verdict
        assert is_composite(P("x^2 + 2 x y + y^2")).composite

    def test_certificates_revalidate(self):
        for s in ("x y", "x^2 + y^2", "x^2 + x y + y^2", "x^3 + x y"):
            f = P(s)
            rep = sigma_scan(f, sigma_candidates(f))
            for hit in rep.found:
                assert hit.revalidate(f)

    def test_monotone_under_more_candidates(self):
        f = P("x^3 + x y")
        small = sigma_scan(f, sigma_candidates(f, sweep_height=2))
        large = sigma_scan(f, sigma_candidates(f, sweep_height=5))
        assert set(small.found_values) <= set(large.found_values)

    def test_stein_bound_on_non_composite_corpus(self):
        for s in NON_COMPOSITE:
            f = P(s)
            k = f.total_degree
            if k > 5:
                continue
            rep = sigma_scan(f, sigma_candidates(f))
            assert len(rep.found) < k, s
            assert rep.stein_bound_respected
            assert not is_composite(f).composite


class TestRowRemoval:
    def test_no_flagged_values(self):
        rep = sigma_scan(P("x^2 + y"), sigma_candidates(P("x^2 + y")))
        grid = remove_sigma_rows({F(2), F(3)}, {F(1), F(6)}, rep)
        assert grid.point_count == 4 and grid.removed_count == 0

    def test_flagged_row_removed(self):
        rep = sigma_scan(P("x y"), [F(0)])
        grid = remove_sigma_rows({F(2), F(3)}, {F(0), F(1)}, rep)
        assert grid.kept_values == (F(1),)
        assert grid.removed_count == 2

    def test_product_grid_needs_no_removal(self):
        f = P("x y")
        A = [F(1), F(2), F(3)]
        values = naive_image(CORPUS_EVAL["x y"], A)
        assert values == {F(1), F(2), F(3), F(4), F(6), F(9)}
        rep = sigma_scan(f, sigma_candidates(f))
        grid = remove_sigma_rows({a + b for a in A for b in A}, values, rep)
        assert grid.removed_count == 0  # zero is not attained on this grid

    def test_removal_bounded_for_non_composite(self):
        for s in NON_COMPOSITE:
            f = P(s)
            k = f.total_degree
            A = [F(i) for i in range(-3, 4)]
            sums = {a + b for a in A for b in A}
            values = {f(a, b) for a in A for b in A}
            rep = sigma_scan(f, sigma_candidates(f))
            grid = remove_sigma_rows(sums, values, rep)
            assert grid.removed_count <= len(sums) * (k - 1)
