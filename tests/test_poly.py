"""Arithmetic, shifts, resultants, and gcd cross-checks."""

import math
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
    shift_all,
    uni_gcd,
)
from sumprod.linalg import _interpolate_mod
from sumprod.parsing import parse_poly as P

from conftest import (
    _uni_lagrange, curve_key, grid_rationals, naive_add, naive_derivative, naive_eval, naive_mul, naive_pow, naive_primitive,
    naive_specialize_y, naive_swap, rational_grid_polys, reference_format, reference_parse, to_terms,
    uni_gcd_subresultant,
)


SRC = Path(__file__).resolve().parent.parent / "src"

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
# 40 to 45 digits, so that one 61-bit prime cannot carry a result
huge = st.integers(10**40, 10**45).flatmap(lambda v: st.sampled_from([v, -v]))
wide_rationals = st.one_of(rationals, huge.map(F), st.tuples(huge, huge.map(abs)).map(lambda nd: F(*nd)))
# the coefficients a printer treats apart: +-1, +-1/k, and mixed
# denominators, whose numerators over the common one share factors with it
printed_coeffs = st.one_of(
    st.sampled_from([F(1), F(-1)]),
    st.integers(2, 12).flatmap(lambda k: st.sampled_from([F(1, k), F(-1, k)])),
    st.fractions(min_value=-40, max_value=40, max_denominator=12).filter(bool),
)
# {(i, j): nonzero coefficient}: the zero polynomial, constants, and the rest
printable_terms = st.one_of(
    st.just({}),
    st.dictionaries(st.just((0, 0)), printed_coeffs, min_size=1),
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), printed_coeffs, max_size=5),
)


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
    return sum(sympy.Rational(c.numerator, c.denominator) * x**i * y**j for (i, j), c in to_terms(f).items())


def from_sympy(expr, x, y) -> BiPoly:
    p = sympy.Poly(expr, x, y)
    return BiPoly({(int(i), int(j)): F(int(c.p), int(c.q)) for (i, j), c in zip(p.monoms(), p.coeffs())})


@st.composite
def unipolys(draw, max_deg=5, max_terms=4, coeffs=rationals):
    n = draw(st.integers(0, max_terms))
    return UniPoly([(draw(st.integers(0, max_deg)), draw(coeffs)) for _ in range(n)])


# Fraction term maps, the input of the oracles in conftest
wide_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), wide_rationals.filter(bool), max_size=5
)


def assert_canonical(p):
    """n / d in lowest terms: d > 0, no zero numerator, gcd(d, *n) == 1."""
    assert type(p.d) is int and p.d > 0
    assert all(type(v) is int and v for v in p.n.values())
    assert math.gcd(p.d, *p.n.values()) == 1


class TestIntegerCore:
    """The numerators-over-one-denominator form against the Fraction oracles."""

    @given(wide_terms, wide_terms, st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_ring_operations_match_oracle(self, a, b, e):
        f, g = BiPoly(a), BiPoly(b)
        for got, want in (
            (f, a),
            (-f, {k: -v for k, v in a.items()}),
            (f + g, naive_add(a, b)),
            (f - g, naive_add(a, b, -1)),
            (f - f, {}),
            (f * g, naive_mul(a, b)),
            (f**e, naive_pow(a, e)),
        ):
            assert_canonical(got)
            assert to_terms(got) == want

    @given(wide_terms, wide_rationals)
    @settings(max_examples=60, deadline=None)
    def test_derivative_specialize_swap_match_oracle(self, a, b):
        f = BiPoly(a)
        for var in ("x", "y"):
            assert_canonical(f.derivative(var))
            assert to_terms(f.derivative(var)) == naive_derivative(a, var)
        u = f.specialize_y(b)
        assert_canonical(u)
        assert to_terms(u) == naive_specialize_y(a, b)
        assert_canonical(f.swap())
        assert to_terms(f.swap()) == naive_swap(a)

    @given(wide_terms)
    @settings(max_examples=60, deadline=None)
    def test_primitive_and_columns_round_trip(self, a):
        f = BiPoly(a)
        cols = f.coeffs_in_x()
        for i, col in cols.items():
            assert_canonical(col)
            assert to_terms(col) == {j: c for (k, j), c in a.items() if k == i}
        back = sum((col.to_bipoly("y") * BiPoly.x() ** i for i, col in cols.items()), BiPoly.zero())
        assert_canonical(back)
        assert back == f
        assume(a)
        prim, scale = f.primitive()
        assert_canonical(prim)
        assert (scale, dict(prim.n)) == naive_primitive(a)

    @given(
        st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), huge, min_size=1, max_size=5),
        wide_rationals.filter(bool),
    )
    @settings(max_examples=60, deadline=None)
    def test_equal_values_are_equal_and_hash_equal(self, ints, s):
        f = BiPoly(ints)
        assert f.d == 1
        routes = [
            BiPoly({k: F(v) for k, v in ints.items()}),
            BiPoly([(k, F(2 * v, 2)) for k, v in ints.items()]),
            sum((BiPoly({k: v}) for k, v in ints.items()), BiPoly.zero()),
            f * s * (1 / s),
            (f + f) * F(1, 2),
            f.swap().swap(),
        ]
        for g in routes:
            assert_canonical(g)
            assert g == f and hash(g) == hash(f)
        scaled = [f * s, BiPoly({k: v * s for k, v in ints.items()}), s * f, f - f * (1 - s)]
        for g in scaled:
            assert_canonical(g)
            assert g == scaled[0] and hash(g) == hash(scaled[0])
        u = UniPoly({i: v for (i, _), v in ints.items()})
        assert u.to_bipoly("x").to_unipoly()[0] == u and hash(u * s * (1 / s)) == hash(u)


class TestBatchedIntegerRoutines:
    """The batched integer routines of the grid and of the resultants
    against the Fraction oracles."""

    @given(
        st.lists(st.lists(st.integers(-(10**6), 10**6), max_size=6), min_size=1, max_size=4),
        st.lists(st.one_of(st.integers(-9, 9), huge), max_size=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_shift_all_matches_binomial_oracle(self, rows, ts):
        # rows of mixed lengths from the empty and the constant row up; shifts
        # negative, zero and of up to 45 digits
        for row in rows:
            got = shift_all(tuple(row), tuple(ts))
            assert len(got) == len(ts)
            f = BiPoly({(i, 0): c for i, c in enumerate(row)})
            for t, key in zip(ts, got):
                want = curve_key(f, F(-t), F(1))
                assert all(type(c) is int for c in key)
                assert key == want + (0,) * (len(row) - len(want))

    @given(st.sets(st.integers(0, 80), min_size=1, max_size=14), st.sampled_from([101, 2**61 - 1]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_interpolate_mod_on_gapped_points_matches_lagrange(self, xs, p, data):
        # resultant_eliminating skips the points where a leading coefficient
        # vanishes mod p, so the points come with gaps
        xs = sorted(xs)
        ys = data.draw(st.lists(st.integers(0, p - 1), min_size=len(xs), max_size=len(xs)))
        want = _uni_lagrange([(x, F(y)) for x, y in zip(xs, ys)])
        want += [F(0)] * (len(xs) - len(want))
        assert _interpolate_mod(xs, ys, p) == [c.numerator * pow(c.denominator, -1, p) % p for c in want]


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
        assert P("x^2").subst_x_affine(-1, 1) == P("x^2 - 2x + 1")

    def test_zero_shift_identity(self):
        f = P("x^3 + x y - 2")
        assert f.subst_x_affine(0, 1) == f

    def test_xy_shift(self):
        assert P("x y").subst_x_affine(-2, 1) == P("x y - 2 y")

    @given(bipolys(), rationals)
    @settings(max_examples=40, deadline=None)
    def test_shift_round_trip(self, f, a):
        assert f.subst_x_affine(-a, 1).subst_x_affine(a, 1) == f

    @given(rational_grid_polys(max_deg=5), grid_rationals, grid_rationals, grid_rationals, grid_rationals)
    @settings(max_examples=60, deadline=None)
    def test_affine_substitution_matches_naive_eval(self, terms, c0, c1, x, y):
        got = BiPoly(terms).subst_x_affine(c0, c1)
        assert naive_eval(to_terms(got), x, y) == naive_eval(terms, c0 + c1 * x, y)


class TestDerivative:
    def test_examples(self):
        assert P("x + y^2").derivative("x") == BiPoly.const(1)
        assert P("x + y^2").derivative("y") == P("2 y")
        assert P("x^3 y^2").derivative("x") == P("3 x^2 y^2")


def sylvester_resultant(p: UniPoly, q: UniPoly) -> F:
    """Sylvester determinant of two univariate polynomials (p-block first)."""
    return resultant_eliminating(p.to_bipoly("x"), q.to_bipoly("x")).coeff(0)


class TestResultant:
    def test_two_by_two(self):
        # Sylvester matrix [[1, -1], [1, 1]] has determinant 2
        assert sylvester_resultant(UniPoly({1: 1, 0: -1}), UniPoly({1: 1, 0: 1})) == 2

    def test_common_root_vanishes(self):
        assert sylvester_resultant(UniPoly({2: 1}), UniPoly({1: 1})) == 0

    def test_elimination_convention(self):
        # fixed convention: p-block rows above q-block rows
        r = resultant_eliminating(P("x y - 1"), P("x - y"))
        assert r == UniPoly({2: -1, 0: 1})

    def test_rejects_double_zero(self):
        with pytest.raises(ValueError):
            sylvester_resultant(UniPoly.zero(), UniPoly.zero())

    @given(unipolys(), unipolys())
    @settings(max_examples=60, deadline=None)
    def test_vanishes_iff_gcd_nonconstant(self, p, q):
        if p.is_zero or q.is_zero:
            return
        res = sylvester_resultant(p, q)
        g = uni_gcd(p, q)
        g2 = uni_gcd_subresultant(p, q)
        # the two gcd routes must agree up to normalization
        assert g.degree == g2.degree
        if g.degree >= 1:
            assert g == g2
        assert (res == 0) == (g.degree >= 1)


    @given(eliminant_operands(), eliminant_operands())
    @settings(max_examples=40, deadline=None)
    def test_matches_sympy_sylvester_determinant(self, f, g):
        x, y = sympy.symbols("x y")
        # the determinant of sympy's Sylvester matrix, taken in sympy's
        # polynomial domain: `Matrix.det` gives the same, far more slowly
        matrix = DomainMatrix.from_Matrix(sylvester(to_sympy(f, x, y), to_sympy(g, x, y), x))
        det = matrix.domain.to_sympy(matrix.det())
        expected = sympy.Poly(sympy.expand(det), y)
        got = resultant_eliminating(f, g)
        assert {d: sympy.Rational(c.numerator, c.denominator) for d, c in to_terms(got).items()} == {
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

    @given(
        unipolys(max_deg=4, coeffs=wide_rationals),
        unipolys(max_deg=8, max_terms=5, coeffs=wide_rationals),
        unipolys(max_deg=8, max_terms=5, coeffs=wide_rationals),
    )
    @settings(max_examples=40, deadline=None)
    def test_univariate_common_factor_matches_sympy(self, g, h1, h2):
        a, b = g * h1, g * h2
        assume(not a.is_zero and not b.is_zero)
        x, y = sympy.symbols("x y")
        expected = from_sympy(sympy.gcd(to_sympy(a.to_bipoly("x"), x, y), to_sympy(b.to_bipoly("x"), x, y)), x, y)
        assert uni_gcd(a, b) == expected.to_unipoly()[0].normalized()

    def test_forced_division_failure_under_optimize(self):
        # in Q[x, y] and, as its y-free case, in Q[x]
        script = textwrap.dedent(
            """
            from sumprod import poly
            from sumprod.errors import CertificationFailed
            from sumprod.parsing import parse_poly
            from sumprod.poly import UniPoly

            assert False, "asserts must be stripped"
            poly.bi_divexact = lambda f, g: None
            for call in (
                lambda: poly.bi_gcd(parse_poly("x^2 - y^2"), parse_poly("x^2 + 2 x y + y^2")),
                lambda: poly.uni_gcd(UniPoly({2: 1, 0: -1}), UniPoly({2: 1, 1: 2, 0: 1})),
            ):
                try:
                    call()
                except CertificationFailed as exc:
                    print("raised:", exc)
            """
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        assert len(lines) == 2
        assert all(line.startswith("raised: gcd of x-degrees 2 and 2 not certified after") for line in lines)


class TestDivisionMatchesSympy:
    @given(
        bipolys(max_deg=2, coeffs=st.integers(-4, 4)),
        st.sampled_from([1, 2, -1, -6]),
        bipolys(max_deg=2, coeffs=wide_rationals),
        wide_rationals.filter(bool),
    )
    @settings(max_examples=40, deadline=None)
    def test_bi_divexact(self, base, content, h, s):
        # g = content * (a primitive part with a positive or a non-monic
        # leading coefficient): integer content, non-monic and negative leads
        g = base.normalized() * content
        assume(not g.is_constant and not h.is_zero)
        x, y = sympy.symbols("x y")
        f = g * h
        q, r = sympy.div(to_sympy(f, x, y), to_sympy(g, x, y), x, y, domain=sympy.QQ)
        assert r == 0 and from_sympy(q, x, y) == h
        got = bi_divexact(f, g)
        assert_canonical(got)
        assert got == h
        # a divisor with a denominator of its own
        assert bi_divexact(f, g * s) == h * (1 / s)
        _, r = sympy.div(to_sympy(f + 1, x, y), to_sympy(g, x, y), x, y, domain=sympy.QQ)
        assert r != 0 and bi_divexact(f + 1, g) is None

    @given(unipolys(max_deg=7, coeffs=wide_rationals), unipolys(max_deg=4, coeffs=wide_rationals))
    @settings(max_examples=60, deadline=None)
    def test_unipoly_divrem(self, p, q):
        assume(not q.is_zero)
        x, y = sympy.symbols("x y")
        want = sympy.div(to_sympy(p.to_bipoly("x"), x, y), to_sympy(q.to_bipoly("x"), x, y), x, domain=sympy.QQ)
        got = p.divrem(q)
        for part, expected in zip(got, want):
            assert_canonical(part)
            assert part.to_bipoly("x") == from_sympy(expected, x, y)
        assert got[0] * q + got[1] == p


class TestNormalization:
    def test_primitive_positive_lead(self):
        f = P("-2x^2 - 4 x y")
        prim, scale = f.primitive()
        assert prim == P("x^2 + 2 x y")
        assert scale == -2
        assert prim * scale == f

    @given(st.dictionaries(st.integers(0, 6), wide_rationals.filter(bool), min_size=1, max_size=5), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_primitive_part(self, coeffs, negate):
        # the same coefficients on x^k and on x^(k // 2) y^(k % 2), either sign
        if negate:
            coeffs = {k: -v for k, v in coeffs.items()}
        uni = UniPoly(coeffs)
        bi = BiPoly({(k // 2, k % 2): v for k, v in coeffs.items()})
        for poly, key, lead in ((uni, lambda k: k, uni.degree), (bi, lambda k: (k // 2, k % 2), None)):
            prim, scale = poly.primitive()
            assert {k: scale * prim.n[key(k)] for k in coeffs} == coeffs and len(prim.n) == len(coeffs)
            ints = list(prim.n.values())
            assert prim.d == 1 and all(type(v) is int for v in ints) and math.gcd(*ints) == 1
            assert prim.n[lead if lead is not None else prim.leading_term()[0]] > 0

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

    @given(printable_terms)
    @settings(max_examples=200)
    def test_printers_match_the_fraction_reference(self, terms):
        from sumprod.parsing import format_bipoly, format_unipoly, poly_to_json

        f = BiPoly(terms)
        assert format_bipoly(f) == reference_format(terms)
        row = {(i, 0): c for (i, j), c in terms.items() if not j}
        u = UniPoly({i: c for (i, _), c in row.items()})
        assert format_unipoly(u, "t") == reference_format(row).replace("x", "t")
        ordered = sorted(terms.items(), key=lambda kc: (sum(kc[0]), kc[0][0]), reverse=True)
        expected = [{"i": i, "j": j, "num": c.numerator, "den": c.denominator} for (i, j), c in ordered]
        assert poly_to_json(f) == {"terms": expected}

    def test_whitespace_and_star_insensitive(self):
        assert P(" x ^ 2 y ") == P("x^2*y")
        assert P("3x") == P("3 * x")

    @pytest.mark.parametrize(
        ("text", "terms"),
        [
            ("2 3 x", {(1, 0): F(6)}),
            ("x x y", {(2, 1): F(1)}),
            ("- * x", {(1, 0): F(-1)}),
            ("x * + y", {(1, 0): F(1), (0, 1): F(1)}),
            ("x^007", {(7, 0): F(1)}),
            ("3 / 4 x ^ 2", {(2, 0): F(3, 4)}),
        ],
    )
    def test_factors_multiply_and_exponents_add(self, text, terms):
        assert to_terms(P(text)) == terms

    def test_parse_errors(self):
        from sumprod.parsing import PolyParseError

        for bad in (
            "", "x +", "x^", "3/0", "x & y", "2^3", "x/2", "1/2/3", "3 / x", "x ^ y", "- - x", "* -x", "+", "*",
            "3/00",
        ):
            with pytest.raises(PolyParseError):
                P(bad)

    def test_long_text_is_not_taken_for_a_path(self):
        from sumprod.parsing import load_poly

        text = " + ".join(f"x^{k}" for k in range(100))
        assert load_poly(text) == P(text)

    @given(
        st.one_of(
            st.lists(st.sampled_from(["x", "y", "^", "*", "/", "+", "-", "0", "2", "13", "007", " ", "\t"]), max_size=12)
            .map("".join),
            st.text(alphabet="xy0123^*/+- &X.\u00b2", max_size=12),
            st.text(alphabet="xy12^*/+-\u00a0\u2003\t\n\u0663", max_size=12),
        )
    )
    @settings(max_examples=300)
    def test_same_language_as_the_reference_parser(self, text):
        from sumprod.parsing import PolyParseError

        try:
            expected = reference_parse(text)
        except ValueError:
            with pytest.raises(PolyParseError):
                P(text)
        else:
            assert to_terms(P(text)) == expected
