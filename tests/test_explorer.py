"""Set generators, exact sumsets and image sets, and the growth scan."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sumprod.classify import is_degenerate
from sumprod.errors import DegenerateSpec, HypothesisViolated
from sumprod.explorer import (
    ApSpec,
    GpSpec,
    RandomIntSpec,
    RatSet,
    generate_set,
    image_set,
    run_scan,
    sumset,
)
from sumprod.parsing import parse_poly as P

from sumprod.poly import BiPoly, integer_grid

from conftest import (
    CORPUS_EVAL,
    grid_rationals,
    naive_add,
    naive_eval,
    naive_image,
    naive_sumset,
    naive_swap,
    naive_zero_row,
    rational_grid_polys,
    rational_sets,
    to_terms,
)


class TestGenerators:
    def test_ap(self):
        A = generate_set(ApSpec(3, F(1), F(1)))
        assert A.elements == (F(1), F(2), F(3))

    def test_gp(self):
        A = generate_set(GpSpec(3, F(1), F(2)))
        assert A.elements == (F(1), F(2), F(4))

    def test_random_reproducible(self):
        s = RandomIntSpec(5, 1, 100, 7)
        assert generate_set(s).elements == generate_set(s).elements
        assert len(generate_set(s)) == 5

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 12),
        grid_rationals,
        grid_rationals.filter(bool),
        grid_rationals.filter(bool),
        grid_rationals.filter(lambda r: r not in (0, 1, -1)),
    )
    # negative step and ratio, rational first term
    @example(5, F(-7, 3), F(-5, 2), F(5, 6), F(-3, 4))
    def test_progressions_match_closed_forms(self, n, start, step, first, ratio):
        assert generate_set(ApSpec(n, start, step)).elements == tuple(
            sorted(start + step * i for i in range(n))
        )
        assert generate_set(GpSpec(n, first, ratio)).elements == tuple(
            sorted(first * ratio**i for i in range(n))
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 20), st.integers(-50, 50), st.integers(0, 60), st.integers(0, 10**6))
    def test_random_matches_sample(self, n, lo, width, seed):
        hi = lo + width
        assume(width + 1 >= n)
        expected = sorted(random.Random(seed).sample(range(lo, hi + 1), n))
        assert generate_set(RandomIntSpec(n, lo, hi, seed)).elements == tuple(map(F, expected))

    def test_degenerate_specs(self):
        with pytest.raises(DegenerateSpec):
            generate_set(ApSpec(3, F(1), F(0)))
        with pytest.raises(DegenerateSpec):
            generate_set(GpSpec(3, F(1), F(1)))
        with pytest.raises(DegenerateSpec):
            generate_set(RandomIntSpec(10, 1, 5, 3))


class TestSumset:
    def test_progression_extremal(self):
        A = generate_set(ApSpec(3, F(1), F(1)))
        assert sumset(A).elements == (F(2), F(3), F(4), F(5), F(6))

    def test_geometric(self):
        A = generate_set(GpSpec(3, F(1), F(2)))
        assert sumset(A).elements == (F(2), F(3), F(4), F(5), F(6), F(8))

    def test_singleton(self):
        A = generate_set(ApSpec(1, F(5), F(1)))
        assert sumset(A).elements == (F(10),)

    def test_doubling_floor_with_ap_equality(self):
        # |A+A| >= 2|A| - 1 always, with equality exactly for progressions
        rng = random.Random(13)
        for _ in range(20):
            vals = sorted(rng.sample(range(1, 200), 8))
            from sumprod.explorer import RatSet

            A = RatSet(tuple(F(v) for v in vals), "adhoc")
            n = len(A)
            size = len(sumset(A))
            assert size >= 2 * n - 1
            gaps = {vals[i + 1] - vals[i] for i in range(n - 1)}
            if len(gaps) == 1:
                assert size == 2 * n - 1
            else:
                assert size > 2 * n - 1
        ap = generate_set(ApSpec(8, F(3), F(2)))
        assert len(sumset(ap)) == 15


class TestImageSet:
    def test_product_table(self):
        A = generate_set(ApSpec(3, F(1), F(1)))
        got = image_set(P("x y"), A)
        assert got.elements == (F(1), F(2), F(3), F(4), F(6), F(9))

    def test_asymmetric_parabola(self):
        A = generate_set(ApSpec(2, F(1), F(1)))
        got = image_set(P("x + y^2"), A)
        assert got.elements == (F(2), F(3), F(5), F(6))

    def test_singleton_zero(self):
        from sumprod.explorer import RatSet

        A = RatSet((F(0),), "adhoc")
        assert image_set(P("x^2 + y"), A).elements == (F(0),)

    def test_matches_hand_coded_evaluators(self):
        A = generate_set(RandomIntSpec(10, 1, 60, 5))
        for text, fn in CORPUS_EVAL.items():
            got = set(image_set(P(text), A).elements)
            assert got == naive_image(fn, A.elements)

    def test_swap_invariance(self):
        rng = random.Random(21)
        for s in ("x + y^2", "x^2 y + x", "x^3 + x y"):
            f = P(s)
            vals = sorted(rng.sample(range(-20, 40), 7))
            from sumprod.explorer import RatSet

            A = RatSet(tuple(F(v) for v in vals), "adhoc")
            assert image_set(f, A).elements == image_set(f.swap(), A).elements


class TestScan:
    def test_product_over_progressions(self):
        records = run_scan(
            P("x y"),
            [ApSpec(n, F(1), F(1)) for n in (8, 16)],
            floor_c=F(1),
            poly_id="x y",
        ).records
        by_n = {r.n: r for r in records}
        assert by_n[8].sumset_size == 15 and by_n[8].image_size == 30
        assert by_n[16].sumset_size == 31 and by_n[16].image_size == 97
        assert by_n[8].product == 450 and by_n[8].ratio_squared == (202500, 32768)
        assert not any(r.floor_violation for r in records)

    def test_refuses_degenerate(self):
        with pytest.raises(HypothesisViolated):
            run_scan(P("x + y"), [ApSpec(4, F(1), F(1))])

    def test_slope_on_ladder(self):
        res = run_scan(P("x y"), [ApSpec(n, F(1), F(1)) for n in (8, 16, 32, 64)])
        assert res.summary.slope >= 2.5 - 0.6

    def test_floor_violation_flagged(self):
        res = run_scan(P("x y"), [ApSpec(8, F(1), F(1))], floor_c=F(1000))
        assert res.records[0].floor_violation
        assert res.summary.violations == 1

    def test_reproducible_records(self):
        spec = RandomIntSpec(12, 1, 500, 99)
        a = run_scan(P("x^2 + y"), [spec]).records[0]
        b = run_scan(P("x^2 + y"), [spec]).records[0]
        assert (a.provenance, a.n, a.sumset_size, a.image_size, a.product) == (
            b.provenance,
            b.n,
            b.sumset_size,
            b.image_size,
            b.product,
        )


class TestRationalSets:
    """Mixed denominators, negative elements and 0, rational coefficients."""

    @settings(max_examples=60, deadline=None)
    @given(rational_sets(), rational_grid_polys())
    def test_sumset_and_image_match_double_loops(self, A, terms):
        R = RatSet(tuple(A), "adhoc")
        assert sumset(R).elements == tuple(sorted(naive_sumset(A)))
        image = naive_image(lambda a, b: naive_eval(terms, a, b), A)
        assert image_set(BiPoly(terms), R).elements == tuple(sorted(image))

    @settings(max_examples=30, deadline=None)
    @given(
        rational_grid_polys(),
        st.integers(1, 7),
        grid_rationals,
        grid_rationals.filter(bool),
        grid_rationals.filter(lambda r: r not in (0, 1, -1)),
    )
    # the row at b = 0 is a nonzero constant, not a zero row
    @example({(1, 1): F(1), (0, 0): F(1, 2)}, 3, F(-1, 2), F(1, 2), F(-2))
    # (x^2 + 1)(y - 1): deg_x 2 > deg_y 1, so the image comes from the swapped
    # grid, while the zero row at b = 1 is one of the x-oriented grid
    @example({(2, 1): F(1), (0, 1): F(1), (2, 0): F(-1), (0, 0): F(-1)}, 3, F(1), F(1), F(2))
    def test_scan_counts_match_double_loops(self, terms, n, start, step, ratio):
        f = BiPoly(terms)
        assume(is_degenerate(f) is None)
        specs = [ApSpec(n, start, step), GpSpec(n, step, ratio)]
        records = {r.provenance: r for r in run_scan(f, specs).records}
        for spec in specs:
            A = generate_set(spec).elements
            rec = records[spec.describe()]
            assert rec.sumset_size == len(naive_sumset(A))
            assert rec.image_size == len(naive_image(lambda a, b: naive_eval(terms, a, b), A))
            assert rec.removed_rows == sum(naive_zero_row(terms, b) for b in A)


# sqrt(2^61 - 1) is about 1518500249.99, and CPython hashes an int below
# 2^61 - 1 in absolute value as itself (-1 as -2)
SQRT_HASH_MODULUS = 1518500249


@st.composite
def scan_specs(draw):
    """A spec of up to 8 elements: an AP or a GP of ratio 2, 3, -2, 1/2 or
    3/2 from a rational start, possibly negative, random integers, or an AP
    whose sums or products lie on both sides of 2^61."""
    kind = draw(st.sampled_from(["AP", "GP", "random", "large"]))
    n = draw(st.integers(1, 8))
    if kind == "AP":
        return ApSpec(n, draw(grid_rationals), draw(grid_rationals.filter(bool)))
    if kind == "GP":
        ratio = draw(st.sampled_from([F(2), F(3), F(-2), F(1, 2), F(3, 2)]))
        return GpSpec(n, draw(grid_rationals.filter(bool)), ratio)
    if kind == "random":
        lo = draw(st.integers(-40, 40))
        return RandomIntSpec(n, lo, lo + draw(st.integers(n - 1, 60)), draw(st.integers(0, 10**6)))
    start = draw(st.sampled_from([2**60 - 4, SQRT_HASH_MODULUS - 4, -(2**60), 2**40]))
    return ApSpec(n, F(start + draw(st.integers(-4, 4))), F(draw(st.sampled_from([1, -1, 3]))))


@st.composite
def scan_polys(draw):
    """Terms of f with deg_x f from 1 to 4 and deg_y f <= 2, made symmetric
    (f(x, y) + f(y, x)) one draw in three."""
    dx = draw(st.integers(1, 4))
    coeffs = st.integers(-3, 3).filter(bool) | grid_rationals.filter(bool)
    exps = st.tuples(st.integers(0, dx), st.integers(0, 2))
    terms = draw(st.dictionaries(exps, coeffs, max_size=4))
    terms[(dx, draw(st.integers(0, 2)))] = draw(coeffs)
    if draw(st.integers(0, 2)) == 0:
        terms = naive_add(terms, naive_swap(terms))
    return terms


class TestCountRoutes:
    """Both counting routes against the double loops of `conftest`."""

    @settings(max_examples=150, deadline=None)
    @given(scan_polys(), scan_specs())
    # -1 and -2 hash alike: both are sums of {-2, -1, 0, 1} and values of x y there
    @example({(1, 1): F(1)}, RandomIntSpec(4, -2, 1, 0))
    @example({(2, 0): F(1), (1, 1): F(1), (0, 2): F(1)}, GpSpec(8, F(1, 3), F(-2)))
    def test_counts_match_naive_evaluators(self, terms, spec):
        f = BiPoly(terms)
        assume(not f.is_constant and is_degenerate(f) is None)
        rec = run_scan(f, [spec]).records[0]
        A = generate_set(spec).elements
        assert rec.sumset_size == len(naive_sumset(A))
        assert rec.image_size == len(naive_image(lambda a, b: naive_eval(terms, a, b), A))
        assert rec.removed_rows == sum(naive_zero_row(terms, b) for b in A)

    @pytest.mark.parametrize(
        "text, spec, routes",
        [
            ("x y", ApSpec(8, F(1), F(1)), ("hash", "hash")),
            # products from below 2^61 - 1 to above it, sums far below
            ("x y", ApSpec(8, F(SQRT_HASH_MODULUS - 4), F(1)), ("hash", "sort")),
            # sums from 2^61 - 8 to 2^61 + 6
            ("x^2 + x y + y^2", ApSpec(8, F(2**60 - 4), F(1)), ("sort", "sort")),
            ("x^3 + x y", GpSpec(64, F(1), F(2)), ("sort", "sort")),
        ],
    )
    def test_route_follows_the_bound(self, text, spec, routes):
        rec = run_scan(P(text), [spec]).records[0]
        assert rec.count_routes == routes
        A = generate_set(spec).elements
        assert rec.sumset_size == len(naive_sumset(A))
        assert rec.image_size == len(naive_image(CORPUS_EVAL[text], A))

    @settings(max_examples=100, deadline=None)
    @given(scan_polys(), scan_specs())
    def test_sets_match_naive_evaluators(self, terms, spec):
        # `sumset` and `image_set` order the values of either route
        f = BiPoly(terms)
        assume(not f.is_constant)
        A = generate_set(spec)
        assert sumset(A).elements == tuple(sorted(naive_sumset(A.elements)))
        image = naive_image(lambda a, b: naive_eval(terms, a, b), A.elements)
        assert image_set(f, A).elements == tuple(sorted(image))

    def test_gp_sets_take_the_sort_route(self, refuse_in_package):
        # GP(512, 1, 2) has sums and products up to 2^1022: no set is built
        refuse_in_package(("IntegerGrid.sumset", "IntegerGrid.image"), "a GP(512) set was hashed")
        n = 512
        A = generate_set(GpSpec(n, F(1), F(2)))
        assert len(sumset(A)) == n * (n + 1) // 2
        assert image_set(P("x y"), A).elements == tuple(F(2**k) for k in range(2 * n - 1))


class TestSymmetricImage:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["x y", "x^2 + x y + y^2", "x^2 y^2 + 1"]), rational_sets())
    def test_half_image_is_the_image(self, text, A):
        f = P(text)
        grid = integer_grid(f, A)
        assert grid.symmetric
        full = naive_image(lambda a, b: naive_eval(to_terms(f), a, b), A)
        assert {F(v, grid.S) for v in grid.image()} == full
        assert grid.image_count()[0] == len(full)

    def test_asymmetric_f_is_not_halved(self):
        f = P("x^3 + x y")
        A = generate_set(RandomIntSpec(9, -20, 20, 4)).elements
        full = naive_image(CORPUS_EVAL["x^3 + x y"], A)
        for g in (f, f.swap()):
            grid = integer_grid(g, A)
            assert not grid.symmetric
            assert {F(v, grid.S) for v in grid.image()} == full
