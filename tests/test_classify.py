"""Degeneracy, compositeness and decomposition."""

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sumprod
from sumprod import classify, linalg
from sumprod.classify import (
    _jacobian_columns,
    _jacobian_kernel,
    composite_core,
    decompose_chain,
    decompose_fully,
    is_composite,
    is_degenerate,
    normalize_orientation,
    recompose,
)
from sumprod.errors import ConstantPolynomial, HypothesisViolated
from sumprod.factor import FiberPencil
from sumprod.parsing import parse_poly as P
from sumprod.poly import BiPoly, UniPoly
from sumprod.spectrum import composite_split

from conftest import composites, naive_add, naive_pow, nonconstant_bipolys, to_terms


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
        assert dec is not None and dec.inner == P("x") and dec.degenerate
        dec = is_degenerate(P("y^2 + 1"))
        assert dec is not None and dec.inner == P("y") and dec.degenerate

    def test_scaled_form_recovers(self):
        outer = UniPoly({2: 2, 0: -1})
        f = outer.compose_bi(P("3x - 5y"))
        dec = is_degenerate(f)
        assert dec is not None and dec.expand() == f
        # canonical form leads with coefficient one
        assert dec.inner.coeff(1, 0) == 1

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
        # any k distinct fibers decide it: all reducible exactly when composite
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
                assert all(_fiber_route(f, lams)) == base

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


def _naive_compose(coeffs, inner: dict) -> dict:
    """sum c_i inner^i by dict convolution, the re-expansion oracle."""
    out: dict = {}
    for i, c in enumerate(coeffs):
        out = naive_add(out, {m: c * v for m, v in naive_pow(inner, i).items()})
    return out


def _reexpand(verdict) -> dict:
    """The terms of the decomposition a composite verdict carries."""
    dec = verdict.decomposition
    acc = to_terms(dec.inner)
    for q in reversed(dec.chain):
        acc = _naive_compose([q.coeff(i) for i in range(q.degree + 1)], acc)
    return acc


def _fiber_route(f: BiPoly, lams) -> list[bool]:
    """Reducibility of each fiber f - lambda on the Ruppert pencil: the
    k-fiber route that once decided compositeness, kept as an oracle."""
    pencil = FiberPencil(f)
    return [pencil.witness(lam) is not None for lam in lams]


def _refuse_pencil(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("is_composite built a fiber pencil")

    monkeypatch.setattr(classify, "FiberPencil", refuse)


# the composites of the benchmark's classify items, (outer coefficients, inner)
BENCH_COMPOSITES = [
    ([0, 1, 1], "x + y^3 - 2 y"),
    ([0, 1, 0, 1], "x^2 + y"),
    ([1, 0, 1], "x^3 + x y"),
    ([0, 1, 0, 1], "x^2 y + x + y"),
    ([0, 1, 1], "x^5 y + y"),
    ([0, 2, 1], "x y + x - y"),
    ([0, 1, 1], "x^2 + y"),
]
DEGENERATE_CUBICS = [([1, 2, 0, 1], "x + 2 y"), ([-1, -2, 0, 1], "-x + 2 y"), ([1, -2, 0, 1], "x - 2 y")]


class TestCompositeFromDecomposition:
    @pytest.mark.parametrize(("outer", "inner"), BENCH_COMPOSITES + DEGENERATE_CUBICS)
    def test_verdict_needs_no_fiber_test(self, outer, inner, monkeypatch):
        f = BiPoly(_naive_compose(outer, to_terms(P(inner))))
        _refuse_pencil(monkeypatch)
        verdict = is_composite(f)
        k = f.total_degree
        assert verdict.composite and not verdict.univariate
        assert verdict.witness_lambdas == tuple(F(j) for j in range(1, k + 1))
        assert verdict.decomposition.degenerate == (P(inner).total_degree == 1)
        assert BiPoly(_reexpand(verdict)) == f
        assert verdict.decomposition.inner.total_degree == P(inner).total_degree

    @given(
        st.lists(st.integers(-3, 3), min_size=3, max_size=4).filter(lambda c: c[-1] != 0),
        nonconstant_bipolys(max_deg=2),
    )
    @settings(max_examples=30, deadline=None)
    def test_witnesses_are_reducible_fibers(self, outer, g):
        f = BiPoly(_naive_compose(outer, to_terms(g)))
        assume(2 <= f.total_degree <= 6)
        verdict = is_composite(f)
        assert verdict.composite
        assert BiPoly(_reexpand(verdict)) == f
        assert all(_fiber_route(f, verdict.witness_lambdas))

    @given(composites())
    @settings(max_examples=30, deadline=None)
    def test_sigma_splits_by_the_verdict_decomposition(self, f):
        d = is_composite(f).decomposition
        assert composite_split(f)[:2] == (d.outer, d.inner)

    def test_fallback_certifies_the_first_irreducible_fiber(self, monkeypatch):
        # x y + 1 - 1 = x y splits, x y + 1 - 2 does not
        tested = []
        witness = FiberPencil.witness

        def counting(self, lam):
            tested.append(lam)
            return witness(self, lam)

        monkeypatch.setattr(FiberPencil, "witness", counting)
        verdict = is_composite(P("x y + 1"))
        assert not verdict.composite and verdict.certificate_lambda == 2
        assert tested == [1, 2]
        assert verdict.decomposition is None

    def test_high_degree_composite_classifies_quickly(self):
        # Q(x y) with deg Q = 60: one fiber test at degree 120 took seconds
        src = str(Path(sumprod.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        t0 = time.perf_counter()
        run = subprocess.run(
            [sys.executable, "-m", "sumprod.cli", "classify", "--poly", "x^60 y^60 + x y + 1", "--json"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=60,
        )
        elapsed = time.perf_counter() - t0
        assert run.returncode == 0, run.stderr
        out = json.loads(run.stdout)
        assert out["composite"]["verdict"] is True
        assert out["decomposition"] == {"core": "x y", "chain": ["t^60 + t + 1"]}
        assert elapsed < 5.0

    @pytest.mark.parametrize(
        "poly",
        # gcd(122, 120, 2) leaves outer degree 2, tried on the box x^i y^j,
        # i <= 60, j <= 1 (1,953 monomials of degree <= 61)
        ["x^120 y^2 + x y + 1", "x^120 y^2 + x^2 y^2 + 1"],
    )
    def test_non_composite_kernel_stays_small(self, poly, monkeypatch):
        widths = []
        nullspace = linalg.certified_nullspace

        def recording(columns, *args):
            widths.append(len(columns))
            return nullspace(columns, *args)

        monkeypatch.setattr(linalg, "certified_nullspace", recording)
        assert composite_core(P(poly)) is None
        assert sum(widths) <= 122

    @given(
        st.lists(st.integers(-3, 3), min_size=3, max_size=4).filter(lambda c: c[-1] != 0),
        nonconstant_bipolys(max_deg=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_outer_degree_divides_the_degree_gcd(self, outer, g):
        f = BiPoly(_naive_compose(outer, to_terms(g)))
        assert math.gcd(f.total_degree, f.deg_x, f.deg_y) % (len(outer) - 1) == 0


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
        f = f * F(1, math.gcd(*(c.numerator for c in to_terms(f).values())))
        fx, fy = f.derivative("x"), f.derivative("y")
        monomials = [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]
        units = [BiPoly({m: 1}) for m in monomials]
        images = [fx * h.derivative("y") - fy * h.derivative("x") for h in units]
        # a positive rational multiple of a primitive f gives the same columns
        assert _jacobian_columns(f * scale, monomials) == [p.n for p in images]

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
