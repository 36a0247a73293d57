"""Factorization certificates and absolute-factor counts."""

import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sumprod.errors import DegreeCapExceeded, NotSquarefree, UnivariateInput
from sumprod.factor import (
    FiberPencil,
    _ruppert_columns,
    count_abs_factors,
    factor_rational,
    factor_univariate,
    fiber_reducibility,
    is_squarefree,
    rational_roots,
    squarefree_part,
)
from sumprod.linalg import rref
from sumprod.parsing import parse_poly as P
from sumprod.poly import BiPoly, UniPoly
from sumprod.spectrum import sweep_candidates

from conftest import conic_abs_count, grid_factor_exists, nonconstant_bipolys, sympy_factor_multiset

SRC = Path(__file__).resolve().parent.parent / "src"


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


class TestRuppertDimensionDecides:
    """The Ruppert/Gao dimension alone decides reducibility over C."""

    @given(nonconstant_bipolys(), nonconstant_bipolys())
    @settings(max_examples=40, deadline=None)
    def test_repeated_factor_gives_dimension_two(self, p, q):
        f = p * p * q
        assume(f.deg_x >= 1 and f.deg_y >= 1)
        assert fiber_reducibility(f).abs_count >= 2
        assert fiber_reducibility(f).reducible

    @given(nonconstant_bipolys(), nonconstant_bipolys(), st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_squarefree_then_count(self, p, q, e):
        f = p**e * q
        assume(f.deg_x >= 1 and f.deg_y >= 1)
        # the route with a squarefree test first, counting only squarefree f
        expected = not is_squarefree(f) or count_abs_factors(f) >= 2
        assert fiber_reducibility(f).reducible == expected


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
        terms = {m: int(c) for m, c in g.t.items() if m != (0, 0)}
        if constant:
            terms[(0, 0)] = constant
        content = math.gcd(*terms.values())
        f = BiPoly({m: F(c, content) * scale for m, c in terms.items()})
        pencil = FiberPencil(f)
        for lam in [*lams, F(constant, content) * scale]:
            assert pencil.status(lam).abs_count == reference_dimension(f, lam), (f, lam)

    @given(nonconstant_bipolys(), nonconstant_bipolys(), st.fractions(min_value=-9, max_value=9, max_denominator=5))
    @settings(max_examples=40, deadline=None)
    def test_reducible_fiber_g_h_plus_c(self, g, h, c):
        f = g * h + BiPoly.const(c)
        assume(f.deg_x >= 1 and f.deg_y >= 1)
        status = FiberPencil(f).status(c)
        assert status.reducible
        assert status.abs_count == reference_dimension(f, c)

    def test_univariate(self):
        pencil = FiberPencil(P("1/2 x^3 + x"))
        for lam in (F(0), F(1, 2), F(-3)):
            status = pencil.status(lam)
            assert status.reducible and status.kind == "univariate" and status.abs_count is None
        assert not FiberPencil(P("2 y")).status(F(5)).reducible


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
        for run in (lambda: is_composite(f), lambda: sigma_scan(f, [0, 1])):
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
