"""Arithmetic, shifts, resultants, and gcd cross-checks."""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix
from sympy.polys.subresultants_qq_zz import sylvester

from sumprod.poly import (
    BiPoly,
    UniPoly,
    bi_divexact,
    bi_gcd,
    resultant_eliminating,
    uni_gcd,
    uni_resultant,
)
from sumprod.parsing import parse_poly as P

from conftest import naive_mul, naive_pow, to_terms, uni_gcd_subresultant


SRC = Path(__file__).resolve().parent.parent / "src"

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
# 40 to 45 digits, so that one 61-bit prime cannot carry a result
huge = st.integers(10**40, 10**45).flatmap(lambda v: st.sampled_from([v, -v]))
wide_rationals = st.one_of(rationals, huge.map(F), st.tuples(huge, huge.map(abs)).map(lambda nd: F(*nd)))


@st.composite
def bipolys(draw, max_deg=3, max_terms=5, coeffs=rationals):
    n = draw(st.integers(0, max_terms))
    terms = []
    for _ in range(n):
        i = draw(st.integers(0, max_deg))
        j = draw(st.integers(0, max_deg - i))
        terms.append(((i, j), draw(coeffs)))
    return BiPoly(terms)


@st.composite
def eliminant_operands(draw):
    """A polynomial of x-degree >= 1 whose leading x-coefficient vanishes at
    y = 0, 1, 2 about half the time, with coefficients of up to 45 digits."""
    f = draw(bipolys(max_deg=3, max_terms=4, coeffs=wide_rationals))
    if f.deg_x < 1 or draw(st.booleans()):
        # top term c x^k y (y - 1) (y - 2)
        lead = BiPoly({(0, 3): 1, (0, 2): -3, (0, 1): 2}) * draw(wide_rationals.filter(bool))
        f = f + lead * BiPoly({(max(f.deg_x, 0) + 1, 0): 1})
    return f


def to_sympy(f: BiPoly, x, y):
    return sum(sympy.Rational(c.numerator, c.denominator) * x**i * y**j for (i, j), c in f.t.items())


def from_sympy(expr, x, y) -> BiPoly:
    p = sympy.Poly(expr, x, y)
    return BiPoly({(int(i), int(j)): F(int(c.p), int(c.q)) for (i, j), c in zip(p.monoms(), p.coeffs())})


@st.composite
def unipolys(draw, max_deg=5, max_terms=4):
    n = draw(st.integers(0, max_terms))
    return UniPoly([(draw(st.integers(0, max_deg)), draw(rationals)) for _ in range(n)])


class TestArith:
    def test_difference_of_squares(self):
        assert P("x + y") * P("x - y") == P("x^2 - y^2")

    def test_additive_identity(self):
        f = P("x^2 + 3/2 x y")
        assert f + BiPoly.zero() == f

    def test_cube_matches_convolution_oracle(self):
        base = P("x + 2y")
        expected = naive_pow(to_terms(base), 3)
        assert to_terms(base**3) == expected
        assert base**3 == P("x^3 + 6 x^2 y + 12 x y^2 + 8 y^3")

    @given(bipolys(), bipolys(), bipolys())
    @settings(max_examples=60, deadline=None)
    def test_ring_distributivity(self, f, g, h):
        assert (f + g) * h == f * h + g * h

    @given(bipolys(), bipolys())
    @settings(max_examples=60, deadline=None)
    def test_mul_matches_oracle(self, f, g):
        assert to_terms(f * g) == naive_mul(to_terms(f), to_terms(g))

    @given(bipolys(), bipolys())
    @settings(max_examples=60, deadline=None)
    def test_total_degree_additive(self, f, g):
        if not f.is_zero and not g.is_zero:
            assert (f * g).total_degree == f.total_degree + g.total_degree


class TestSpecialize:
    def test_xy_at_3(self):
        assert P("x y").specialize_y(3) == UniPoly({1: 3})

    def test_x_plus_y2_at_0(self):
        assert P("x + y^2").specialize_y(0) == UniPoly({1: 1})

    def test_half_substitution(self):
        got = P("x^2 + x y + y^2").specialize_y(F(1, 2))
        assert got == UniPoly({2: 1, 1: F(1, 2), 0: F(1, 4)})

    @given(bipolys(), bipolys(), rationals)
    @settings(max_examples=40, deadline=None)
    def test_specialize_is_a_homomorphism(self, f, g, b):
        assert (f * g).specialize_y(b) == f.specialize_y(b) * g.specialize_y(b)


class TestShift:
    def test_square_shift(self):
        assert P("x^2").shift_x(1) == P("x^2 - 2x + 1")

    def test_zero_shift_identity(self):
        f = P("x^3 + x y - 2")
        assert f.shift_x(0) == f

    def test_xy_shift(self):
        assert P("x y").shift_x(2) == P("x y - 2 y")

    @given(bipolys(), rationals)
    @settings(max_examples=40, deadline=None)
    def test_shift_round_trip(self, f, a):
        assert f.shift_x(a).shift_x(-a) == f


class TestDerivative:
    def test_examples(self):
        assert P("x + y^2").derivative("x") == BiPoly.const(1)
        assert P("x + y^2").derivative("y") == P("2 y")
        assert P("x^3 y^2").derivative("x") == P("3 x^2 y^2")


class TestResultant:
    def test_two_by_two(self):
        # Sylvester matrix [[1, -1], [1, 1]] has determinant 2
        assert uni_resultant(UniPoly({1: 1, 0: -1}), UniPoly({1: 1, 0: 1})) == 2

    def test_common_root_vanishes(self):
        assert uni_resultant(UniPoly({2: 1}), UniPoly({1: 1})) == 0

    def test_elimination_convention(self):
        # fixed convention: p-block rows above q-block rows
        r = resultant_eliminating(P("x y - 1"), P("x - y"), "x")
        assert r == UniPoly({2: -1, 0: 1})

    def test_rejects_double_zero(self):
        with pytest.raises(ValueError):
            uni_resultant(UniPoly.zero(), UniPoly.zero())

    @given(unipolys(), unipolys())
    @settings(max_examples=60, deadline=None)
    def test_vanishes_iff_gcd_nonconstant(self, p, q):
        if p.is_zero or q.is_zero:
            return
        res = uni_resultant(p, q)
        g = uni_gcd(p, q)
        g2 = uni_gcd_subresultant(p, q)
        # the two gcd routes must agree up to normalization
        assert g.degree == g2.degree
        if g.degree >= 1:
            assert g == g2
        assert (res == 0) == (g.degree >= 1)


    @given(eliminant_operands(), eliminant_operands(), st.sampled_from(["x", "y"]))
    @settings(max_examples=40, deadline=None)
    def test_matches_sympy_sylvester_determinant(self, f, g, var):
        # operands are built for eliminating x; swapping both tests y
        if var == "y":
            f, g = f.swap(), g.swap()
        x, y = sympy.symbols("x y")
        # the determinant of sympy's Sylvester matrix, taken in sympy's
        # polynomial domain: `Matrix.det` gives the same, far more slowly
        matrix = DomainMatrix.from_Matrix(sylvester(to_sympy(f, x, y), to_sympy(g, x, y), x if var == "x" else y))
        det = matrix.domain.to_sympy(matrix.det())
        other = y if var == "x" else x
        expected = sympy.Poly(sympy.expand(det), other)
        got = resultant_eliminating(f, g, var)
        assert {d: sympy.Rational(c.numerator, c.denominator) for d, c in got.c.items()} == {
            int(k[0]): v for k, v in expected.terms() if v
        }


class TestGcd:
    def test_bivariate_gcd(self):
        f = P("x^2 - y^2") * P("x + 2y")
        g = P("x + y") * P("x + 2y") * P("x + 2y")
        got = bi_gcd(f, g)
        assert got == (P("x + y") * P("x + 2y")).normalized()

    def test_unlucky_first_points(self):
        # x + y and x + y^2 share the root x = -y at y = 0 and y = 1, the
        # first two points, for every prime
        assert bi_gcd(P("x + y"), P("x + y^2")) == BiPoly.const(1)
        assert bi_gcd(P("x + y") * P("x - 1"), P("x + y^2") * P("x - 1")) == P("x - 1")

    def test_leading_coefficients_share_more_than_the_gcd(self):
        # both leading x-coefficients are divisible by y, the gcd's is not,
        # so the interpolated y (x + y) must lose its content y
        assert bi_gcd(P("x y + 1") * P("x + y"), P("x y + 2") * P("x + y")) == P("x + y")

    def test_divexact_roundtrip(self):
        f = P("x^2 y + x") * P("x - 3y + 1")
        q = bi_divexact(f, P("x - 3y + 1"))
        assert q == P("x^2 y + x")
        assert bi_divexact(P("x^2 + y"), P("x + 1")) is None

    @given(bipolys(max_deg=2), bipolys(max_deg=2))
    @settings(max_examples=40, deadline=None)
    def test_gcd_divides_both(self, f, g):
        if f.is_zero or g.is_zero:
            return
        d = bi_gcd(f, g)
        assert bi_divexact(f, d) is not None
        assert bi_divexact(g, d) is not None


    @given(
        bipolys(max_deg=2, coeffs=wide_rationals),
        st.sampled_from(["1", "x y + 1", "x^2 y^2 + x^2 - 2 x y + 3"]),
        st.sampled_from(["1", "y", "y^2 - 2", "3 y + 1"]),
        bipolys(max_deg=2),
        bipolys(max_deg=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_common_factor_matches_sympy(self, g, y_lead, y_content, h1, h2):
        # shared factors whose leading x-coefficient depends on y, and shared
        # contents in y alone
        g = g * P(y_lead) * P(y_content)
        assume(not (g * h1).is_zero and not (g * h2).is_zero)
        x, y = sympy.symbols("x y")
        expected = from_sympy(sympy.gcd(to_sympy(g * h1, x, y), to_sympy(g * h2, x, y)), x, y)
        assert bi_gcd(g * h1, g * h2) == expected.normalized()

    def test_forced_division_failure_under_optimize(self):
        script = textwrap.dedent(
            """
            from sumprod import poly
            from sumprod.errors import CertificationFailed
            from sumprod.parsing import parse_poly

            assert False, "asserts must be stripped"
            poly.bi_divexact = lambda f, g: None
            try:
                poly.bi_gcd(parse_poly("x^2 - y^2"), parse_poly("x^2 + 2 x y + y^2"))
            except CertificationFailed as exc:
                print("raised:", exc)
            """
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("raised: gcd of x-degrees 2 and 2 not certified after")


class TestNormalization:
    def test_primitive_positive_lead(self):
        f = P("-2x^2 - 4 x y")
        prim, scale = f.primitive()
        assert prim == P("x^2 + 2 x y")
        assert scale == -2
        assert prim * scale == f

    def test_leading_term_order(self):
        # graded lex, x ahead of y: x^2 leads x y leads y^2 leads x
        f = P("x^2 + x y + y^2 + x")
        assert f.leading_term()[0] == (2, 0)
        assert P("x y + y^2").leading_term()[0] == (1, 1)


class TestWireFormats:
    def test_json_round_trip(self):
        from sumprod.parsing import poly_from_json, poly_to_json

        f = P("x^2 - 3/2 x y + y^2 - 1/4")
        assert poly_from_json(poly_to_json(f)) == f

    def test_json_structure_is_canonical(self):
        from sumprod.parsing import poly_to_json

        data = poly_to_json(P("y^2 + x^2 + x"))
        assert data == {
            "terms": [
                {"i": 2, "j": 0, "num": 1, "den": 1},
                {"i": 0, "j": 2, "num": 1, "den": 1},
                {"i": 1, "j": 0, "num": 1, "den": 1},
            ]
        }

    def test_json_string_accepted_everywhere(self):
        from sumprod.parsing import load_poly

        f = load_poly('{"terms": [{"i": 1, "j": 1, "num": 1, "den": 1}]}')
        assert f == P("x y")

    def test_text_round_trip(self):
        from sumprod.parsing import format_bipoly, parse_poly

        for text in ("x^2 - 3/2 x y + 1", "- x + y^2", "2 x^3 y^2 - y"):
            f = parse_poly(text)
            assert parse_poly(format_bipoly(f)) == f

    def test_whitespace_and_star_insensitive(self):
        assert P(" x ^ 2 y ") == P("x^2*y")
        assert P("3x") == P("3 * x")

    def test_parse_errors(self):
        from sumprod.parsing import PolyParseError

        for bad in ("", "x +", "x^", "3/0", "x & y"):
            with pytest.raises(PolyParseError):
                P(bad)
