"""Factorization certificates and absolute-factor counts."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sumprod.errors import DegreeCapExceeded, NotSquarefree, UnivariateInput
from sumprod.factor import (
    _abs_factor_count,
    count_abs_factors,
    factor_rational,
    factor_univariate,
    fiber_reducibility,
    is_squarefree,
    rational_roots,
    squarefree_part,
)
from sumprod.parsing import parse_poly as P
from sumprod.poly import BiPoly, UniPoly

from conftest import conic_abs_count, grid_factor_exists, sympy_factor_multiset


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
        expected = BiPoly.const(1)
        for fac, _ in sympy_factor_multiset(f):
            expected = expected * fac
        assert squarefree_part(f) == expected.normalized()


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


class TestFactorRational:
    def test_difference_of_squares(self):
        fl = factor_rational(P("x^2 - y^2"))
        assert {p for p, _ in fl.factors} == {P("x - y"), P("x + y")}

    def test_sum_of_squares_irreducible_over_q(self):
        fl = factor_rational(P("x^2 + y^2"))
        assert fl.factors == ((P("x^2 + y^2"), 1),)
        assert not grid_factor_exists(P("x^2 + y^2"))

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


class TestFiberReducibility:
    def test_absolutely_split_fiber(self):
        assert fiber_reducibility(P("x^2 + y^2")).reducible

    def test_irreducible_fiber(self):
        st = fiber_reducibility(P("x^2 + y^2 - 1"))
        assert not st.reducible and st.abs_count == 1

    def test_repeated_factor_counts_as_reducible(self):
        st = fiber_reducibility(P("x^2 + 2 x y + y^2"))
        assert st.reducible and st.kind == "nullspace" and st.abs_count >= 2

    def test_univariate_fiber_splits(self):
        assert fiber_reducibility(P("x^2 + 1")).reducible


@st.composite
def nonconstant_bipolys(draw, max_deg=2):
    """Nonconstant integer bivariate polynomials of total degree <= max_deg."""
    terms = draw(
        st.lists(
            st.tuples(st.integers(0, max_deg), st.integers(0, max_deg), st.integers(-3, 3)),
            min_size=1,
            max_size=4,
        )
    )
    f = BiPoly({(i, j): c for i, j, c in terms if i + j <= max_deg})
    assume(not f.is_constant)
    return f


class TestRuppertDimensionDecides:
    """The Ruppert/Gao dimension alone decides reducibility over C."""

    @given(nonconstant_bipolys(), nonconstant_bipolys())
    @settings(max_examples=40, deadline=None)
    def test_repeated_factor_gives_dimension_two(self, p, q):
        f = p * p * q
        assume(f.deg_x >= 1 and f.deg_y >= 1)
        assert _abs_factor_count(f) >= 2
        assert fiber_reducibility(f).reducible

    @given(nonconstant_bipolys(), nonconstant_bipolys(), st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_squarefree_then_count(self, p, q, e):
        f = p**e * q
        assume(f.deg_x >= 1 and f.deg_y >= 1)
        # the route with a squarefree test first, counting only squarefree f
        expected = not is_squarefree(f) or count_abs_factors(f) >= 2
        assert fiber_reducibility(f).reducible == expected
