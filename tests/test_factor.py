"""Factorization certificates and absolute-factor counts."""

import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from functools import partial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sumprod import factor, integers
from sumprod.classify import is_composite
from sumprod.errors import DegreeCapExceeded, NotSquarefree, UnivariateInput
from sumprod.factor import (
    AbsReducibleWitness,
    FiberPencil,
    _gradient,
    _ruppert_columns,
    count_abs_factors,
    factor_composed,
    factor_rational,
    factor_univariate,
    fiber_reducibility,
    is_squarefree,
    rational_roots,
    squarefree_part,
)
from sumprod.linalg import certified_nullspace, rref
from sumprod.parsing import parse_poly as P
from sumprod.poly import BiPoly, UniPoly, split_content_x
from sumprod.spectrum import composite_split, sweep_candidates

from conftest import (
    composites,
    conic_abs_count,
    core_fiber_values,
    grid_factor_exists,
    nonconstant_bipolys,
    sympy_det_monic,
    sympy_factor_multiset,
    sympy_lambda_block,
    to_terms,
)

SRC = Path(__file__).resolve().parent.parent / "src"


@st.composite
def one_variable(draw, var: str) -> BiPoly:
    """A polynomial of degree 0 to 2 in `var` alone with small integer
    coefficients, reducible (x^2 - 1) as often as not."""
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=0, max_size=2)) + [draw(st.integers(1, 3))]
    return BiPoly({((k, 0) if var == "x" else (0, k)): c for k, c in enumerate(coeffs)})


class TestSquarefree:
    def test_square_collapses(self):
        assert squarefree_part(P("x^2 + 2 x y + y^2")) == P("x + y")

    def test_already_squarefree(self):
        assert squarefree_part(P("x y")) == P("x y")

    def test_mixed_multiplicity(self):
        # (x - y)^2 (x + y)
        assert squarefree_part(P("x^3 - x^2 y - x y^2 + y^3")) == P("x^2 - y^2")

    def test_divides_input(self):
        from sumprod.poly import bi_divexact

        rng = random.Random(5)
        pieces = [P("x + y"), P("x - 2y + 1"), P("x y - 1"), P("x^2 + y^2")]
        for _ in range(20):
            f = BiPoly.const(1)
            for p in rng.sample(pieces, rng.randint(1, 3)):
                f = f * p ** rng.randint(1, 2)
            assert bi_divexact(f, squarefree_part(f)) is not None

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            squarefree_part(BiPoly.zero())

    @given(
        st.lists(
            st.tuples(st.sampled_from(["x + y", "x y - 1", "2 x - y^2", "y", "y + 1", "y^2 - 2", "x", "x^2 + 3"]),
                      st.integers(1, 3)),
            min_size=1,
            max_size=4,
        ),
        st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
    )
    @settings(max_examples=40, deadline=None)
    def test_product_of_distinct_factors(self, pieces, scale):
        # repeated factors in x, in y alone (the x-content) and mixed
        f = BiPoly.const(scale)
        for text, mult in pieces:
            f = f * P(text) ** mult
        multiset = sympy_factor_multiset(f)
        expected = BiPoly.const(1)
        for fac, _ in multiset:
            expected = expected * fac
        assert squarefree_part(f) == expected.normalized()
        assert is_squarefree(f) == all(mult == 1 for _, mult in multiset)


class TestAbsFactorCount:
    def test_split_over_q(self):
        assert count_abs_factors(P("x^2 - y^2")) == 2

    def test_split_only_over_c(self):
        # x^2 + y^2 = (x + iy)(x - iy); the conic determinant oracle agrees
        f = P("x^2 + y^2")
        assert count_abs_factors(f) == 2 == conic_abs_count(f)

    def test_hyperbola_is_absolutely_irreducible(self):
        f = P("x y - 1")
        assert count_abs_factors(f) == 1 == conic_abs_count(f)

    def test_smooth_circle(self):
        f = P("x^2 + y^2 - 1")
        assert count_abs_factors(f) == 1 == conic_abs_count(f)

    def test_rejects_univariate(self):
        with pytest.raises(UnivariateInput):
            count_abs_factors(P("x^2 + 1"))

    def test_rejects_repeated_factor(self):
        with pytest.raises(NotSquarefree):
            count_abs_factors(P("x^2 + 2 x y + y^2"))

    def test_additive_on_coprime_products(self):
        rng = random.Random(99)
        lines = [P("x + y"), P("x - y"), P("x + 2y + 1"), P("2x - y + 3"), P("x + 3y - 2")]
        conics = [P("x^2 + y^2"), P("x^2 + y^2 - 1"), P("x y - 1"), P("x^2 + 2 y^2 + 1")]
        for _ in range(25):
            chosen = rng.sample(lines, rng.randint(1, 2)) + rng.sample(
                conics, rng.randint(0, 2)
            )
            f = BiPoly.const(1)
            expected = 0
            for p in chosen:
                f = f * p
                expected += 1 if p.total_degree == 1 else conic_abs_count(p)
            assert count_abs_factors(f) == expected


class TestRationalRoots:
    def test_small_cases(self):
        assert rational_roots(UniPoly({2: 1, 0: -1})) == [F(-1), F(1)]
        assert rational_roots(UniPoly({2: 2, 1: -3, 0: 1})) == [F(1, 2), F(1)]
        assert rational_roots(UniPoly({2: 1, 0: 1})) == []
        assert rational_roots(UniPoly({3: 1, 1: 4})) == [F(0)]

    def test_roots_built_in_by_construction(self):
        # products of (den x - n) with a cofactor that has no real root
        rng = random.Random(41)
        for _ in range(60):
            expected = set()
            p = UniPoly.const(F(rng.choice([1, -1, 3, 7]), rng.choice([1, 2, 5])))
            for _ in range(rng.randint(1, 4)):
                n, den = rng.randint(-12, 12), rng.randint(1, 9)
                p = p * UniPoly({1: den, 0: -n})
                expected.add(F(n, den))
            if rng.random() < 0.5:
                p = p * UniPoly({2: rng.randint(1, 6), 0: rng.randint(1, 30)})
            assert rational_roots(p) == sorted(expected), p

    @given(
        st.lists(
            st.tuples(
                st.integers(-(10**32), 10**32), st.integers(1, 10**30), st.integers(1, 3)
            ),
            min_size=1,
            max_size=4,
        ),
        st.integers(0, 2),
        st.lists(st.integers(-(10**12), 10**12), min_size=1, max_size=4),
        st.integers(1, 10**20),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_sympy_ground_roots(self, planted, zero_mult, cofactor, scale):
        # (den x - n)^mult for each planted root, x^zero_mult, a cofactor
        # with integer coefficients, and a scale: 60+-digit coefficients,
        # repeated roots, the root 0 and denominators
        import sympy

        x = sympy.symbols("x")
        expr = sympy.Rational(1, scale) * x**zero_mult * sum(c * x**k for k, c in enumerate(cofactor))
        for n, den, mult in planted:
            expr *= (den * x - n) ** mult
        poly = sympy.Poly(sympy.expand(expr), x)
        assume(not poly.is_zero)
        p = UniPoly({k: F(int(c.p), int(c.q)) for (k,), c in poly.terms()})
        expected = sorted(F(int(r.p), int(r.q)) for r in poly.ground_roots())
        assert rational_roots(p) == expected

    @pytest.mark.parametrize(("q", "n"), [(1, F(3, 7)), (49, 9), (7, 3), (1, 2), (5, F(-1, 3))])
    def test_squarefree_quadratic_takes_no_gcd(self, q, n, refuse_in_package):
        # 2 divides the discriminant 4 q n of q t^2 - n, and a prime a little
        # larger does not
        refuse_in_package(("uni_squarefree_part",), "rational_roots took a squarefree part")
        p = UniPoly({2: q, 0: -n})
        assert rational_roots(p) == _rational_square_roots(F(n, q))

    @given(
        st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 3)), min_size=1, max_size=4, unique_by=lambda t: t[0]),
        st.integers(-40, 40),
        st.integers(1, 9),
        st.integers(0, 2),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_gcd_only_for_a_repeated_factor(self, shifts, n0, den, zero_mult, cofactor):
        # roots (n0 + c P) / den, P the product of the primes up to 23, times
        # t^2 + P: each of those primes divides the discriminant of the
        # squarefree part, so the root finder works past all of them; it
        # takes a squarefree part exactly when q = p / t^v has a repeated
        # factor, and finds sympy's roots either way
        import sympy

        primorial = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23
        x = sympy.symbols("x")
        expr = x**zero_mult * (x**2 + primorial if cofactor else 1)
        for c, mult in shifts:
            expr *= (den * x - (n0 + c * primorial)) ** mult
        poly = sympy.Poly(sympy.expand(expr), x)
        low = min(k for (k,), _ in poly.terms())
        q = sympy.Poly(sympy.expand(expr / x**low), x)
        repeated = q.degree() >= 2 and sympy.discriminant(q) == 0
        p = UniPoly({k: F(int(c.p), int(c.q)) for (k,), c in poly.terms()})
        with mock.patch.object(factor, "uni_squarefree_part", wraps=factor.uni_squarefree_part) as sqf:
            roots = rational_roots(p)
        assert roots == sorted(F(int(r.p), int(r.q)) for r in poly.ground_roots())
        assert sqf.call_count == repeated


def _rational_square_roots(r: F) -> list[F]:
    """The rational s with s^2 = r, by integer square roots."""
    if r < 0:
        return []
    a, b = math.isqrt(r.numerator), math.isqrt(r.denominator)
    return [F(-a, b), F(a, b)] if a * a == r.numerator and b * b == r.denominator else []


class TestFactorUnivariate:
    def test_splits_product(self):
        p = UniPoly({2: 1, 0: -4})  # (x-2)(x+2)
        const, facs = factor_univariate(p)
        assert const == 1
        assert sorted(f.degree for f, _ in facs) == [1, 1]

    def test_quartic_with_quadratic_factors(self):
        p = UniPoly({2: 1, 0: 1}) * UniPoly({2: 1, 1: 1, 0: 1})
        const, facs = factor_univariate(p)
        expand = UniPoly.const(const)
        for f, m in facs:
            expand = expand * f**m
        assert expand == p
        assert sorted(f.degree for f, _ in facs) == [2, 2]

    def test_irreducible_stays_whole(self):
        p = UniPoly({4: 1, 0: 2})  # x^4 + 2, Eisenstein at 2
        _, facs = factor_univariate(p)
        assert [f.degree for f, _ in facs] == [4]


class TestPrimality:
    def test_strong_pseudoprime_to_the_bases_up_to_37_is_composite(self):
        # psi_12, the least strong pseudoprime to every prime base up to 37;
        # base 41 rejects it
        n = 399165290221 * 798330580441
        assert not integers.is_probable_prime(n)
        assert integers.factorint(n) == {399165290221: 1, 798330580441: 1}
        assert integers.is_probable_prime(798330580441)


class TestFactorRational:
    def test_difference_of_squares(self):
        fl = factor_rational(P("x^2 - y^2"))
        assert {p for p, _ in fl.factors} == {P("x - y"), P("x + y")}

    def test_sum_of_squares_irreducible_over_q(self):
        fl = factor_rational(P("x^2 + y^2"))
        assert fl.factors == ((P("x^2 + y^2"), 1),)
        assert not grid_factor_exists(P("x^2 + y^2"))

    @pytest.mark.parametrize("text", ["x^2 + 2 x y + y^2 - 3", "x^2 + y^2", "x^2 - 2 y^2"])
    def test_split_only_over_c_returns_the_input(self, text):
        # two absolute factors, swapped by conjugation: the eliminant is irreducible
        f = P(text)
        assert count_abs_factors(f) == 2
        fl = factor_rational(f)
        assert fl.factors == ((f.normalized(), 1),)

    def test_monomial(self):
        fl = factor_rational(P("x y"))
        assert {p for p, _ in fl.factors} == {P("x"), P("y")}

    def test_certification_on_random_products(self):
        rng = random.Random(31)
        pieces = [
            P("x + y"),
            P("x - y + 1"),
            P("x y - 1"),
            P("x^2 + y"),
            P("y + 2"),
            P("x - 3"),
        ]
        for _ in range(25):
            f = BiPoly.const(F(rng.choice([1, 2, -1, 3])))
            for p in rng.sample(pieces, rng.randint(1, 3)):
                f = f * p ** rng.randint(1, 2)
            if f.is_constant or f.total_degree > 8:
                continue
            fl = factor_rational(f)
            assert fl.verify(f)
            # re-expansion alone would pass a factorization that stops short
            assert dict(fl.factors) == dict(sympy_factor_multiset(f)), f

    @pytest.mark.parametrize(
        "f",
        [
            # g (g^2 + 1), and g^2 + 1 = (x^2 + 1)(x^2 y^2 + 2 x y + y^2 + 1)
            P("x^2 y + x + y") ** 3 + P("x^2 y + x + y"),
            P("x^5 y + y") ** 2 + P("x^5 y + y"),
            P("x^4 + y") * P("x^5 + y") * P("x y - 1"),
            P("x^2 + y^2") * P("x^2 - 2 y^2") * P("x y + 1") ** 2,  # degree 8
        ],
        ids=["g3_plus_g", "h2_plus_h", "three_curves", "with_square"],
    )
    def test_degree_eight_to_twelve_match_sympy(self, f):
        fl = factor_rational(f, cap=12)
        assert fl.verify(f)
        assert dict(fl.factors) == dict(sympy_factor_multiset(f))

    @given(
        st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool),
        st.integers(0, 2),
        st.integers(0, 2),
        one_variable("x"),
        one_variable("y"),
        st.sampled_from(["1", "x + y", "x y - 1", "x^2 + y"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_contents_and_core_match_sympy(self, c, a, b, p, q, g):
        # c x^a y^b p(x) q(y) g: every route to a factor, the monomial
        # content, the contents in y and in x, and Gao's method on g
        f = BiPoly({(a, b): c}) * p * q * P(g)
        assume(not f.is_constant and f.total_degree <= 8)
        fl = factor_rational(f)
        assert fl.verify(f)
        assert dict(fl.factors) == dict(sympy_factor_multiset(f))

    def test_gao_sees_no_one_variable_content(self, monkeypatch):
        seen = []
        gao = factor._gao_factors
        monkeypatch.setattr(factor, "_gao_factors", lambda s: seen.append(s) or gao(s))
        f = P("x^2 + 1") * P("x + y") * P("y^2 - 2")
        assert dict(factor_rational(f).factors) == {P("x + y"): 1, P("x^2 + 1"): 1, P("y^2 - 2"): 1}
        assert seen
        for s in seen:
            assert split_content_x(s)[0].degree == 0 and split_content_x(s.swap())[0].degree == 0, s

    def test_degree_cap(self):
        f = P("x^5 + y") * P("x^4 + y")
        with pytest.raises(DegreeCapExceeded):
            factor_rational(f, cap=8)
        # raising the cap makes the same input factorable
        fl = factor_rational(f, cap=9)
        assert fl.verify(f)

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            factor_rational(BiPoly.const(3))


class TestFactorComposed:
    """The route that factors a fiber Q(g) - lambda through Q - lambda."""

    @given(composites(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_factor_rational_and_sympy(self, f, data):
        outer, core, drop = composite_split(f)
        assert outer.compose_bi(core) == f
        special = core_fiber_values(outer, drop)
        values = st.fractions(min_value=-9, max_value=9, max_denominator=4)
        lam = data.draw(st.sampled_from(special) | values if special else values)
        fiber = f - BiPoly.const(lam)
        composed = factor_composed(fiber, outer - lam, core, drop)
        assert composed == factor_rational(fiber)
        assert dict(composed.factors) == dict(sympy_factor_multiset(fiber))

    def test_reducible_core_fiber_factors_by_gao(self):
        # g^2 + 1 for g = x^2 y + x + y: t^2 + 1 meets the drop polynomial of
        # g, so the piece is split by factor_rational
        g = P("x^2 y + x + y")
        outer, core, drop = composite_split(g**2 + BiPoly.const(1))
        assert (outer, core) == (UniPoly({2: 1, 0: 1}), g)
        assert drop == UniPoly({2: 1, 0: 1})
        fl = factor_composed(g**2 + BiPoly.const(1), outer, core, drop)
        assert dict(fl.factors) == {P("x^2 + 1"): 1, P("x^2 y^2 + 2 x y + y^2 + 1"): 1}


class TestFiberReducibility:
    def test_absolutely_split_fiber(self):
        assert fiber_reducibility(P("x^2 + y^2")) is not None

    def test_irreducible_fiber(self):
        f = P("x^2 + y^2 - 1")
        assert fiber_reducibility(f) is None and FiberPencil(f).dimension(0) == 1

    def test_repeated_factor_counts_as_reducible(self):
        witness = fiber_reducibility(P("x^2 + 2 x y + y^2"))
        assert witness is not None and witness.kind == "nullspace" and witness.value >= 2

    def test_univariate_fiber_splits(self):
        assert fiber_reducibility(P("x^2 + 1")) is not None


class TestRuppertDimensionDecides:
    """The Ruppert/Gao dimension alone decides reducibility over C."""

    @given(nonconstant_bipolys(), nonconstant_bipolys())
    @settings(max_examples=40, deadline=None)
    def test_repeated_factor_gives_dimension_two(self, p, q):
        f = p * p * q
        assume(f.deg_x >= 1 and f.deg_y >= 1)
        witness = fiber_reducibility(f)
        assert witness is not None and witness.value >= 2

    @given(nonconstant_bipolys(), nonconstant_bipolys(), st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_squarefree_then_count(self, p, q, e):
        f = p**e * q
        assume(f.deg_x >= 1 and f.deg_y >= 1)
        # the route with a squarefree test first, counting only squarefree f
        expected = not is_squarefree(f) or count_abs_factors(f) >= 2
        assert (fiber_reducibility(f) is not None) == expected


@st.composite
def primitive_bivariate_polys(draw, max_deg=3):
    """Integer polynomials of x- and y-degree >= 1 with coprime coefficients,
    built so, not filtered: up to two free terms, one term with x, one with y."""
    monomials = [(i, j) for i in range(max_deg + 1) for j in range(max_deg + 1 - i)]
    coeffs = st.sampled_from([-3, -2, -1, 1, 2, 3])
    terms = draw(st.dictionaries(st.sampled_from(monomials), coeffs, max_size=2))
    terms[draw(st.sampled_from([m for m in monomials if m[0]]))] = draw(coeffs)
    terms[draw(st.sampled_from([m for m in monomials if m[1]]))] = draw(coeffs)
    g = math.gcd(*terms.values())
    return BiPoly({m: c // g for m, c in terms.items()})


class TestRuppertMatrix:
    @given(primitive_bivariate_polys(), st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9))
    @settings(max_examples=60, deadline=None)
    def test_columns_are_the_system_on_unit_monomials(self, f, scale):
        dx, dy = f.deg_x, f.deg_y
        fx, fy = f.derivative("x"), f.derivative("y")
        zero = BiPoly.zero()
        unknowns = [(BiPoly({(i, j): 1}), zero) for i in range(dx) for j in range(dy + 1)] + [
            (zero, BiPoly({(i, j): 1})) for i in range(dx + 1) for j in range(dy)
        ]
        images = [f * (g.derivative("y") - h.derivative("x")) - fy * g + fx * h for g, h in unknowns]
        # a positive rational multiple of a primitive f gives the same columns
        assert _ruppert_columns((f * scale).scaled_ints()[1], dx, dy) == [p.n for p in images]


def reference_dimension(f: BiPoly, lam: F) -> int:
    """Column count minus the rational-RREF rank of the matrix of f - lam,
    written out densely from its columns."""
    fiber = f - BiPoly.const(lam)
    columns = _ruppert_columns(fiber.scaled_ints()[1], fiber.deg_x, fiber.deg_y)
    keys = set().union(*columns)
    _, pivots = rref([[F(col.get(key, 0)) for col in columns] for key in keys])
    return len(columns) - len(pivots)


def pencil_and_engine(f: BiPoly, lam: F):
    """The nullspace of f - lam certified through the pencil, the one the
    engine certifies on the Ruppert columns built from the fiber itself less
    the column the pencil drops, and the denominator b of lam / s."""
    fiber_pencil = FiberPencil(f)
    pencil = fiber_pencil.pencil
    t = F(lam) / fiber_pencil.scale
    a, b = t.numerator, t.denominator
    block = certified_nullspace(pencil.columns(a, b), partial(pencil.kernel_mod, a, b))
    dx, dy = f.deg_x, f.deg_y
    columns = _ruppert_columns((f - BiPoly.const(lam)).scaled_ints()[1], dx, dy)
    drop = next(k for k, w in enumerate(_gradient(f.scaled_ints()[1], dx, dy)) if w)
    direct = certified_nullspace(columns[:drop] + columns[drop + 1 :])
    assert fiber_pencil.dimension(lam) == 1 + len(direct.vectors)
    return block, direct, b


def assert_pencil_matches_engine(f: BiPoly, lam: F):
    """The same certified nullspace both ways, down to the primes used; a prime
    that divides b can only cost the engine's route more primes."""
    block, direct, b = pencil_and_engine(f, lam)
    assert (block.pivots, block.vectors, block.denominators) == (
        direct.pivots, direct.vectors, direct.denominators
    ), (f, lam)
    if b % (2**61 - 1):
        assert block.primes == direct.primes, (f, lam)
    else:
        assert block.primes <= direct.primes, (f, lam)
    return direct


lambdas = st.one_of(
    st.sampled_from(sweep_candidates(3)),
    st.fractions(min_value=-20, max_value=20, max_denominator=30).filter(lambda v: v.denominator > 1),
)


class TestFiberPencil:
    """Every fiber's dimension from the pencil against the matrix built for it."""

    @given(
        primitive_bivariate_polys(),
        st.integers(-30, 30),
        st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(lambda v: abs(v) not in (0, 1)),
        st.lists(lambdas, min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_scaled_polys_against_reference(self, g, constant, scale, lams):
        # s F with F primitive and s != 1; constant 0 leaves no constant term
        terms = {m: int(c) for m, c in to_terms(g).items() if m != (0, 0)}
        if constant:
            terms[(0, 0)] = constant
        content = math.gcd(*terms.values())
        f = BiPoly({m: F(c, content) * scale for m, c in terms.items()})
        pencil = FiberPencil(f)
        for lam in [*lams, F(constant, content) * scale]:
            assert pencil.dimension(lam) == reference_dimension(f, lam), (f, lam)

    @given(nonconstant_bipolys(), nonconstant_bipolys(), st.fractions(min_value=-9, max_value=9, max_denominator=5))
    @settings(max_examples=40, deadline=None)
    def test_reducible_fiber_g_h_plus_c(self, g, h, c):
        f = g * h + BiPoly.const(c)
        assume(f.deg_x >= 1 and f.deg_y >= 1)
        witness = FiberPencil(f).witness(c)
        assert witness is not None
        assert witness.value == reference_dimension(f, c)
        fiber = f - BiPoly.const(c)
        assert witness.revalidate(fiber)
        assert not AbsReducibleWitness("nullspace", witness.value + 1).revalidate(fiber)
        assert not AbsReducibleWitness("univariate", witness.value).revalidate(fiber)
        assert not AbsReducibleWitness("nullspace", 1).revalidate(fiber)

    @given(
        primitive_bivariate_polys(max_deg=2),
        st.lists(st.integers(-3, 3), min_size=1, max_size=2),
        st.sampled_from([-2, -1, 1, 3]),
        st.lists(lambdas, min_size=1, max_size=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_composite_fibers_match_the_engine(self, g, lower, lead, lams):
        # f = Q(g) with deg Q >= 2, so every fiber f - lam is reducible
        f = BiPoly.zero()
        for c in [lead, *lower]:  # Horner, highest coefficient first
            f = f * g + BiPoly.const(c)
        f = f * g
        for lam in [F(0), *lams]:
            kernel = assert_pencil_matches_engine(f, lam)
            assert len(kernel.vectors) >= 1, (f, lam)

    def test_repeated_factor_fiber_matches_the_engine(self):
        # f - 1 = x^2 (x^2 + y)^2
        f = P("x^6 + 2 x^4 y + x^2 y^2 + 1")
        assert 1 + len(assert_pencil_matches_engine(f, F(1)).vectors) == 9
        for lam in (F(0), F(2), F(-1, 3), F(5, 7)):
            assert_pencil_matches_engine(f, lam)

    @given(
        primitive_bivariate_polys(),
        st.integers(-30, 30),
        st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(lambda v: abs(v) not in (0, 1)),
        st.lists(lambdas, min_size=1, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_scaled_polys_match_the_engine(self, g, constant, scale, lams):
        # s F with s = |scale| != 1, at lambda = 0, at the constant term and at
        # lambdas with denominators
        h = g + BiPoly.const(constant)
        f = h * (scale / math.gcd(*h.n.values()))
        assert FiberPencil(f).scale == abs(scale)
        for lam in [F(0), f.coeff(0, 0), *lams]:
            assert_pencil_matches_engine(f, lam)

    def test_denominator_a_multiple_of_the_first_prime(self):
        # s = 3 and lambda / s = 5 / p: the fiber's own matrix b R(F) - a R(1)
        # loses every lambda-free row mod p, the pencil keeps them unscaled
        p = 2**61 - 1
        f = P("3 x^2 y + 6 x y^2 + 9")
        block, direct, b = pencil_and_engine(f, F(15, p))
        assert b == p
        assert (block.pivots, block.vectors, block.denominators) == (
            direct.pivots, direct.vectors, direct.denominators
        )
        assert (block.primes, direct.primes) == (1, 2)
        for lam in (F(3, 2 * p), F(-3 * 7, p), F(3, p**2)):
            assert_pencil_matches_engine(f, lam)

    def test_univariate(self):
        f = P("1/2 x^3 + x")
        pencil = FiberPencil(f)
        for lam in (F(0), F(1, 2), F(-3)):
            witness = pencil.witness(lam)
            assert witness == AbsReducibleWitness("univariate", 3)
            fiber = f - BiPoly.const(lam)
            assert witness.revalidate(fiber)
            assert not AbsReducibleWitness("univariate", 4).revalidate(fiber)
            assert not AbsReducibleWitness("nullspace", 3).revalidate(fiber)
            assert not AbsReducibleWitness("univariate", 1).revalidate(fiber)
        assert FiberPencil(P("2 y")).witness(F(5)) is None


def drop_polynomial(pencil: FiberPencil) -> UniPoly | None:
    """The pencil's monic D_R(t), as a UniPoly."""
    got = pencil.pencil.drop_polynomial()
    return None if got is None else UniPoly._over({k: v for k, v in enumerate(got[0]) if v}, got[1])


def sympy_drop_polynomial(pencil: FiberPencil) -> UniPoly | None:
    """det((A1(t) K0)_R) over Q by sympy, made monic, or None when the block
    loses rank at t = 2^e: R the first rows of the lambda block A1(t) K0
    independent over Q at that t, read in the order of the rows of C."""
    pen = pencil.pencil
    block, t = sympy_lambda_block(pen)
    k = block.cols
    at = block.subs(t, 2 ** pen._zero_point_bits(k))
    R: list[int] = []
    for i in range(block.rows):
        if len(R) < k and at.extract(R + [i], list(range(k))).rank() > len(R):
            R.append(i)
    if len(R) < k:
        return None
    return sympy_det_monic(block.extract(R, list(range(k))), t)


class TestRankDropPolynomial:
    """D_R(t) = det((G - t H)_R) from the pencil's blocks against sympy."""

    @given(primitive_bivariate_polys(max_deg=2))
    @settings(max_examples=30, deadline=None)
    def test_matches_sympy(self, f):
        pencil = FiberPencil(f)
        assert drop_polynomial(pencil) == sympy_drop_polynomial(pencil), f

    # the coefficients of D_R for the fifth input need nine primes
    @pytest.mark.parametrize(
        "poly",
        ["x^4 + x y^2 + y", "x^3 y^2 + x y + 7", "x^3 + y^3", "x^2 + 2 x y + y^2", "x^3 y^2 + 1234567 x y + 7654321"],
    )
    def test_matches_sympy_on_fixed_inputs(self, poly):
        pencil = FiberPencil(P(poly))
        assert drop_polynomial(pencil) == sympy_drop_polynomial(pencil)

    def test_every_row_of_c_is_a_pivot_row(self):
        # |K0| is the 2 rows of C, so R takes both rows; a fixed
        # small-integer projection of them was singular and gave D = 0
        pencil = FiberPencil(P("x^2 y + x + y"))
        assert len(pencil.pencil.c_rows) == 2
        assert drop_polynomial(pencil) == UniPoly({2: 1, 0: 1})
        assert pencil.spectrum == ()

    @given(nonconstant_bipolys(), nonconstant_bipolys(), st.fractions(min_value=-60, max_value=60, max_denominator=60))
    @settings(max_examples=40, deadline=None)
    def test_spectrum_holds_every_reducible_fiber(self, g, h, c):
        # f - c = g h is reducible, so c is in the spectrum, which only a
        # composite f lacks
        f = g * h + BiPoly.const(c)
        assume(f.deg_x >= 1 and f.deg_y >= 1)
        spectrum = FiberPencil(f).spectrum
        if is_composite(f).composite:
            assert spectrum is None
        else:
            assert spectrum is not None and c in spectrum

    # f - lambda splits at lambda = -1/2, -1/3, 1/2, -1 and 0: every small
    # rational is a root like any other, also where it reduces to a node
    @pytest.mark.parametrize(
        ("poly", "spectrum"),
        [
            ("2 x y + x + y", [F(-1, 2)]),
            ("3 x y + x + y", [F(-1, 3)]),
            ("2 x y + x - y", [F(1, 2)]),
            ("x y + x + y", [F(-1)]),
            ("x y", [F(0)]),
        ],
    )
    def test_small_rational_roots_are_kept(self, poly, spectrum):
        assert FiberPencil(P(poly)).spectrum == tuple(spectrum)


def test_forced_gradient_failure_under_optimize():
    script = textwrap.dedent(
        """
        from sumprod import factor
        from sumprod.classify import is_composite
        from sumprod.errors import CertificationFailed
        from sumprod.parsing import parse_poly
        from sumprod.spectrum import sigma_scan

        assert False, "asserts must be stripped"
        gradient = factor._gradient
        factor._gradient = lambda ints, dx, dy: [w + 1 for w in gradient(ints, dx, dy)]
        f = parse_poly("x^2 y + x + y")
        for run in (lambda: is_composite(f), lambda: sigma_scan(factor.FiberPencil(f), [0, 1])):
            try:
                run()
            except CertificationFailed as exc:
                print("raised:", exc)
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["raised: the gradient (f_x, f_y) does not solve the fiber systems"] * 2
