"""Degeneracy, compositeness and decomposition."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sumprod.classify import (
    LinearForm,
    _jacobian_kernel,
    _jacobian_matrix,
    decompose_chain,
    decompose_fully,
    is_composite,
    is_degenerate,
    normalize_orientation,
    recompose,
)
from sumprod.errors import ConstantPolynomial, HypothesisViolated
from sumprod.parsing import parse_poly as P
from sumprod.poly import BiPoly, UniPoly

from conftest import nonconstant_bipolys, sorted_rows


class TestOrientation:
    def test_swaps_when_y_degree_dominates(self):
        g, swapped = normalize_orientation(P("x + y^2"))
        assert swapped and g == P("x^2 + y")

    def test_symmetric_untouched(self):
        g, swapped = normalize_orientation(P("x y"))
        assert not swapped and g == P("x y")

    def test_already_oriented(self):
        g, swapped = normalize_orientation(P("x^2 + y"))
        assert not swapped and g == P("x^2 + y")

    def test_rejects_constant(self):
        with pytest.raises(ConstantPolynomial):
            normalize_orientation(BiPoly.const(5))


class TestDegenerate:
    def test_outer_of_linear_form(self):
        outer = UniPoly({3: 1, 1: 1})
        f = outer.compose_bi(P("x + 2y"))
        dec = is_degenerate(f)
        assert dec is not None
        assert dec.outer == outer
        assert dec.inner == P("x + 2y")
        assert dec.expand() == f

    def test_xy_not_degenerate(self):
        assert is_degenerate(P("x y")) is None

    def test_bent_parabola_not_degenerate(self):
        assert is_degenerate(P("x + y^2")) is None

    def test_single_variable_is_degenerate(self):
        dec = is_degenerate(P("x^3 - 2x"))
        assert dec is not None and dec.linear == LinearForm(F(1), F(0))
        dec = is_degenerate(P("y^2 + 1"))
        assert dec is not None and dec.linear == LinearForm(F(0), F(1))

    def test_scaled_form_recovers(self):
        outer = UniPoly({2: 2, 0: -1})
        f = outer.compose_bi(P("3x - 5y"))
        dec = is_degenerate(f)
        assert dec is not None and dec.expand() == f
        # canonical form leads with coefficient one
        assert dec.linear.alpha == 1

    def test_constant_term_absorbed_into_outer(self):
        f = UniPoly({2: 1}).compose_bi(P("x + 2y + 3"))
        dec = is_degenerate(f)
        assert dec is not None and dec.expand() == f
        assert dec.inner == P("x + 2y")


class TestComposite:
    def test_square_of_sum(self):
        v = is_composite(P("x^2 + 2 x y + y^2"))
        assert v.composite and len(v.witness_lambdas) == 2

    def test_xy_with_certificate(self):
        v = is_composite(P("x y"))
        assert not v.composite and v.certificate_lambda == 1

    def test_sum_of_squares(self):
        v = is_composite(P("x^2 + y^2"))
        assert not v.composite

    def test_univariate_direct(self):
        v = is_composite(P("x^2 + 3x"))
        assert v.composite and v.univariate

    def test_rejects_degree_one(self):
        with pytest.raises(ValueError):
            is_composite(P("x + y"))

    def test_sample_independent(self):
        rng = random.Random(7)
        polys = [P("x y"), P("x^2 + y^2"), P("x^2 + 2 x y + y^2"), P("x^2 y^2 + 3")]
        for f in polys:
            k = f.total_degree
            base = is_composite(f).composite
            used = set()
            for trial in range(5):
                lams = []
                while len(lams) < k:
                    c = F(rng.randint(1, 400), rng.randint(1, 4))
                    if c not in used and c not in lams:
                        lams.append(c)
                used.update(lams)
                assert is_composite(f, lam_schedule=tuple(lams)).composite == base

    def test_degenerate_outer_degree_two_implies_composite(self):
        rng = random.Random(11)
        for _ in range(20):
            m = rng.choice([2, 3])
            outer = UniPoly({m: rng.choice([1, 2, -1])})
            for d in range(m):
                c = rng.randint(-3, 3)
                if c:
                    outer = outer + UniPoly({d: c})
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            if not a and not b:
                a = 1
            f = outer.compose_bi(BiPoly({(1, 0): a, (0, 1): b}))
            if f.total_degree < 2:
                continue
            assert is_degenerate(f) is not None
            assert is_composite(f).composite


class TestDecomposeFully:
    def test_square_of_product(self):
        core, chain = decompose_fully(P("x^2 y^2 + 3"))
        assert core == P("x y")
        assert chain == [UniPoly({2: 1, 0: 3})]
        # (t^2 + t) o (x^5 y + y), degree 12
        core, chain = decompose_fully(P("x^10 y^2 + 2 x^5 y^2 + y^2 + x^5 y + y"))
        assert core == P("x^5 y + y")
        assert chain == [UniPoly({2: 1, 1: 1})]

    def test_non_composite_identity(self):
        core, chain = decompose_fully(P("x y"))
        assert core == P("x y") and chain == []

    def test_nested_chain(self):
        inner = P("x^2 + y")
        f = (inner * inner + 1) ** 2
        core, chain = decompose_fully(f)
        assert core == inner
        assert len(chain) == 2
        assert recompose(chain, core) == f

    def test_refuses_degenerate(self):
        with pytest.raises(HypothesisViolated):
            decompose_fully(P("x^2 + 2 x y + y^2"))

    def test_decomposition_round_trip_random(self):
        rng = random.Random(20260809)
        seen = 0
        while seen < 30:
            m = rng.choice([2, 3])
            outer = UniPoly({m: rng.choice([1, 2, -1, -2])})
            for d in range(m):
                c = rng.randint(-2, 2)
                if c:
                    outer = outer + UniPoly({d: c})
            db = rng.choice([1, 2])
            inner = BiPoly({(1, 0): 1, (0, db): rng.choice([1, 2, -1])})
            low = rng.randint(-2, 2)
            if low:
                inner = inner + BiPoly({(0, 0): low})
            f = outer.compose_bi(inner)
            if f.is_constant or f.total_degree < 2:
                continue
            seen += 1
            assert is_composite(f).composite
            if is_degenerate(f) is None:
                core, chain = decompose_fully(f)
                assert chain and recompose(chain, core) == f


class TestClassificationRoundTrip:
    """200 random compositions must classify correctly with re-expanding
    certificates: inner linear forms give degenerate composites, inner
    x + b(y) with nonlinear b gives non-degenerate composites."""

    @staticmethod
    def _random_outer(rng):
        m = rng.choice([2, 2, 3, 3, 4])
        outer = UniPoly({m: rng.choice([1, 2, 3, -1, -2])})
        for d in range(m):
            c = rng.randint(-3, 3)
            if c:
                outer = outer + UniPoly({d: c})
        return outer

    def test_two_hundred_samples(self):
        rng = random.Random(414213562)
        samples = 0
        while samples < 200:
            outer = self._random_outer(rng)
            if rng.random() < 0.5:
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                if not a and not b:
                    continue
                inner = BiPoly({(1, 0): a, (0, 1): b})
                expect_degenerate = True
            else:
                # keep total degree at most 8 so the fiber tests stay quick
                db = rng.choice([1, 2, 3]) if outer.degree <= 2 else rng.choice([1, 2])
                if outer.degree == 4:
                    db = rng.choice([1, 2])
                inner = BiPoly({(1, 0): 1, (0, db): rng.choice([1, 2, -1, -2])})
                for j in range(db):
                    c = rng.randint(-2, 2)
                    if c:
                        inner = inner + BiPoly({(0, j): c})
                expect_degenerate = db <= 1
            f = outer.compose_bi(inner)
            if f.is_constant or f.total_degree < 2:
                continue
            samples += 1
            dec = is_degenerate(f)
            assert (dec is not None) == expect_degenerate
            if dec is not None:
                assert dec.expand() == f
            assert is_composite(f).composite


class TestDecomposeChain:
    def test_indecomposable(self):
        u = UniPoly({3: 1, 1: 1})  # t^3 + t has no proper split
        assert decompose_chain(u) == [u]

    def test_power_tower(self):
        u = UniPoly({2: 1}).compose(UniPoly({2: 1, 0: 1}))  # (t^2+1)^2
        chain = decompose_chain(u)
        acc = chain[0]
        for q in chain[1:]:
            acc = acc.compose(q)
        assert acc == u
        assert all(q.degree == 2 for q in chain)


class TestJacobianSystem:
    @given(nonconstant_bipolys(max_deg=3), st.integers(1, 3), st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9))
    @settings(max_examples=60, deadline=None)
    def test_columns_are_the_jacobian_of_unit_monomials(self, f, d, scale):
        assume(math.gcd(*(c.numerator for c in f.t.values())) == 1)
        fx, fy = f.derivative("x"), f.derivative("y")
        monomials = [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]
        units = [BiPoly({m: 1}) for m in monomials]
        images = [fx * h.derivative("y") - fy * h.derivative("x") for h in units]
        # a positive rational multiple of a primitive f gives the same matrix
        assert sorted_rows(images) == sorted(map(tuple, _jacobian_matrix(f * scale, monomials)))

    @given(
        nonconstant_bipolys(max_deg=3),
        st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4), min_size=3, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_kernel_on_composites_holds_the_inner(self, g, coeffs):
        outer = UniPoly(dict(enumerate(coeffs)))
        assume(outer.degree >= 2)
        f = outer.compose_bi(g)
        d = g.total_degree
        fx, fy = f.derivative("x"), f.derivative("y")
        kernel = _jacobian_kernel(f, d)
        for h in kernel:
            assert fx * h.derivative("y") == fy * h.derivative("x")
        # g lies in the span, and elements of lower degree cannot reach it
        assert any(not h.is_constant and h.total_degree == d for h in kernel)
