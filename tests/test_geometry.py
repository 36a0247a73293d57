"""Curve families, class bounds, incidences, and two-curve systems."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sumprod.errors import BoundViolated, DegenerateSystem
from sumprod.factor import FiberPencil
from sumprod.geometry import (
    CommonFactor,
    SolutionCount,
    _sweep_on_grid,
    build_family,
    check_class_bound,
    curve_pair_solutions,
    incidence_report,
)
from sumprod.parsing import parse_poly as P
from sumprod.poly import BiPoly
from sumprod.spectrum import sigma_candidates, sigma_scan

from conftest import (
    curve_key,
    double_loop_incidences,
    fraction_classes,
    fraction_sweep,
    naive_eval,
    naive_image,
    naive_mul,
    naive_sumset,
    naive_zero_row,
    per_curve_hits,
    rational_grid_polys,
    rational_sets,
    structured_sets,
)


class TestBuildFamily:
    def test_product_gives_singletons(self):
        fam = build_family(P("x y"), [F(1), F(2), F(3)])
        # T(x) = b(x - a) = bx - ab determines (a, b) when b is nonzero
        assert fam.class_count == 9
        assert fam.max_class_size == 1

    def test_square_of_sum_diagonal_class(self):
        fam = build_family(P("x^2 + 2 x y + y^2"), [F(i) for i in range(1, 6)])
        # the key depends only on b - a, so the diagonal collapses
        key = curve_key(P("x^2 + 2 x y + y^2"), F(1), F(1))
        assert len(fraction_classes(fam)[key]) == 5

    def test_zero_row_removed(self):
        fam = build_family(P("y"), [F(0), F(1)])
        assert fam.removed_b == (F(0),)
        assert fam.base == (F(1),)

    def test_zero_rows_bounded_by_degree(self):
        rng = random.Random(3)
        for s in ("x y", "x^2 y + x y^2", "x^3 + x y"):
            f = P(s)
            A = [F(rng.randint(-10, 10)) for _ in range(12)]
            fam = build_family(f, set(A))
            assert len(fam.removed_b) <= f.total_degree


class TestClassBound:
    def test_product_over_nonzero_grid(self):
        A = [F(v) for v in range(1, 21)]
        fam = build_family(P("x y"), A)
        rep = check_class_bound(fam, composite=False)
        assert rep.max_class_size == 1 <= 8

    def test_composite_witness_exceeds_cube(self):
        A = [F(v) for v in range(1, 10)]  # nine elements, bound is 8
        fam = build_family(P("x^2 + 2 x y + y^2"), A)
        rep = check_class_bound(fam, composite=True)
        key, members = rep.composite_witness
        assert len(members) == 9 > 2**3

    def test_parabola_grid(self):
        fam = build_family(P("x^2 + y"), [F(1), F(2), F(3)])
        rep = check_class_bound(fam, composite=False)
        assert rep.class_count == 9 and rep.max_class_size == 1

    def test_violation_raises_for_noncomposite_claim(self):
        A = [F(v) for v in range(1, 10)]
        fam = build_family(P("x^2 + 2 x y + y^2"), A)
        with pytest.raises(BoundViolated) as exc:
            check_class_bound(fam, composite=False)
        # one largest-class rule for both witnesses
        assert exc.value.witness == check_class_bound(fam, composite=True).composite_witness

    def test_violation_witness_breaks_ties_by_key(self):
        # (x + 2y)^2 keys the pair by c = 2b - a; over 1..17 each odd c in
        # 1..17 has 9 > 8 members, and the tie goes to the largest key, c = 17
        A = [F(v) for v in range(1, 18)]
        fam = build_family(P("x^2 + 4 x y + 4 y^2"), A)
        with pytest.raises(BoundViolated) as exc:
            check_class_bound(fam, composite=False)
        key, members = exc.value.witness
        assert key == (F(289), F(34), F(1)) and len(members) == 9
        assert exc.value.witness == check_class_bound(fam, composite=True).composite_witness


class TestIncidence:
    def test_product_small_grid_against_double_loop(self):
        f = P("x y")
        A = [F(1), F(2), F(3)]
        pencil = FiberPencil(f)
        cands = sigma_candidates(pencil)
        rep, fam = incidence_report(pencil, A, cands)
        assert rep.point_count == 30  # 5 sums x 6 values, nothing removed
        assert rep.curve_count == 9
        # independent full double loop over points x curves
        sums = sorted({a + b for a in A for b in A})
        vals = sorted({a * b for a in A for b in A})
        points = [(s, v) for s in sums for v in vals]
        total, per = double_loop_incidences(sorted(fraction_classes(fam)), points)
        assert rep.incidences == total == 29
        assert rep.per_curve_min == min(per) == 3

    def test_per_curve_floor_small(self):
        # every curve through (a, b) passes through (a' + a, f(a', b))
        f = P("x y")
        A = [F(1), F(2), F(3)]
        pencil = FiberPencil(f)
        cands = sigma_candidates(pencil)
        rep, _ = incidence_report(pencil, A, cands)
        assert rep.per_curve_min >= -(-len(A) // f.total_degree)

    def test_empty_set(self):
        f = P("x y")
        rep, fam = incidence_report(FiberPencil(f), [], [F(0)])
        assert rep.point_count == 0 and rep.incidences == 0
        assert rep.per_curve_min == 0 and rep.curve_count == 0

    def test_alpha_beta_are_degree_derived(self):
        f = P("x^3 + x y")
        pencil = FiberPencil(f)
        cands = sigma_candidates(pencil)
        rep, _ = incidence_report(pencil, [F(1), F(2)], cands)
        assert rep.alpha == 3 and rep.beta == 9

    def test_representative_independence(self):
        # counts depend only on the key, so recounting from any member agrees
        f = P("x^2 + 2 x y + y^2")
        A = [F(1), F(2), F(3), F(4)]
        pencil = FiberPencil(f)
        cands = sigma_candidates(pencil)
        sig = sigma_scan(FiberPencil(f), cands)
        rep, fam = incidence_report(pencil, A, cands)
        sums = sorted({a + b for a in fam.base for b in fam.base})
        vals = {f(a, b) for a in fam.base for b in fam.base} - set(
            sig.found_values
        )
        for key, members in fraction_classes(fam).items():
            counts = set()
            for (a, b) in members:
                assert curve_key(f, a, b) == key
                tk = curve_key(f, a, b)
                cnt = 0
                for s in sums:
                    val = F(0)
                    for d in range(len(tk) - 1, -1, -1):
                        val = val * s + tk[d]
                    if val in vals:
                        cnt += 1
                counts.add(cnt)
            assert len(counts) == 1

    @pytest.mark.parametrize(
        "A, lams, removed",
        [
            # S = 1: S * 9/2 is no integer, and its floor 4 is a value that stays
            ([F(1), F(2), F(3)], [F(9, 2)], []),
            # D = 2 and S = 4: S * 9 = 36 is the scaled value of 9 (9 is that
            # of 9/4), and S * 1/4 = 1 is an integer that is no scaled value
            ([F(1, 2), F(1), F(3, 2)], [F(1, 4), F(9)], [F(9)]),
        ],
        ids=["lambda_off_the_scaled_values", "lambda_on_a_scaled_value"],
    )
    def test_sigma_rows_removed_in_integers(self, A, lams, removed):
        f = P("x^2 + 2 x y + y^2")
        sig = sigma_scan(FiberPencil(f), lams)
        assert sig.found_values == tuple(lams)
        rep, _ = incidence_report(FiberPencil(f), A, lams)
        sums = sorted(naive_sumset(A))
        values = naive_image(lambda a, b: (a + b) ** 2, A)
        assert set(removed) <= values
        kept = sorted(values - set(removed))
        keys = sorted({curve_key(f, a, b) for a in A for b in A})
        total, per = double_loop_incidences(keys, [(s, v) for s in sums for v in kept])
        assert rep.removed_points == len(sums) * len(removed)
        assert rep.point_count == len(sums) * len(kept)
        assert rep.incidences == total and rep.per_curve_min == min(per)


class TestSweepOnGrid:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 5040), st.sets(st.integers(-500, 500), max_size=20), st.integers(0, 7), st.data())
    def test_matches_fraction_sweep(self, S, values, h, data):
        # values hold 0, negatives, and scaled sweep values of other heights
        scaled = sorted({int(lam * S) for lam in fraction_sweep(7) if (lam * S).denominator == 1})
        values |= {0, *data.draw(st.lists(st.sampled_from(scaled), max_size=10))}
        sweep = set(fraction_sweep(h))
        got = _sweep_on_grid(values, S, h)
        assert sorted(got) == sorted(v for v in values if F(v, S) in sweep)


class TestRationalSets:
    """Mixed denominators, negative elements and 0, rational coefficients."""

    @settings(max_examples=60, deadline=None)
    @given(rational_sets(), rational_grid_polys())
    def test_classes_group_pairs_by_curve_key(self, A, terms):
        f = BiPoly(terms)
        fam = build_family(f, A)
        base = [b for b in A if not naive_zero_row(terms, b)]
        expected: dict = {}
        for b in base:
            for a in base:
                expected.setdefault(curve_key(f, a, b), []).append((a, b))
        assert fam.base == tuple(base)
        assert fam.removed_b == tuple(b for b in A if naive_zero_row(terms, b))
        classes = fraction_classes(fam)
        assert list(classes) == list(expected)  # first-seen order, too
        assert classes == {key: tuple(sorted(v)) for key, v in expected.items()}

    @settings(max_examples=60, deadline=None)
    @given(rational_sets(), rational_grid_polys())
    def test_composite_witness_matches_fraction_grouping(self, A, terms):
        # integer keys order as the Fraction keys do, so the witness is the
        # largest class, ties going to the largest Fraction key
        f = BiPoly(terms)
        fam = build_family(f, A)
        base = [b for b in A if not naive_zero_row(terms, b)]
        groups: dict = {}
        for b in base:
            for a in base:
                groups.setdefault(curve_key(f, a, b), []).append((a, b))
        expected = max(
            ((key, tuple(sorted(v))) for key, v in groups.items()),
            key=lambda kv: (len(kv[1]), kv[0]),
            default=None,
        )
        assert check_class_bound(fam, composite=True).composite_witness == expected

    @settings(max_examples=30, deadline=None)
    @given(rational_sets(max_size=5), rational_grid_polys(), st.data())
    def test_incidences_match_double_loop(self, A, terms, data):
        f = BiPoly(terms)
        assume(f.total_degree >= 2)
        base = [b for b in A if not naive_zero_row(terms, b)]
        values = sorted(naive_image(lambda a, b: naive_eval(terms, a, b), base))
        cands = data.draw(st.lists(st.sampled_from(values), max_size=3)) if values else []
        lams = sorted({F(0), *cands})
        sig = sigma_scan(FiberPencil(f), lams)
        rep, _ = incidence_report(FiberPencil(f), A, lams)
        kept = [v for v in values if v not in set(sig.found_values)]
        points = [(s, v) for s in sorted(naive_sumset(base)) for v in kept]
        keys = sorted({curve_key(f, a, b) for a in base for b in base})
        total, per = double_loop_incidences(keys, points)
        assert rep.point_count == len(points)
        assert rep.removed_points == len(naive_sumset(base)) * (len(values) - len(kept))
        assert rep.incidences == total
        assert rep.per_curve_min == min(per, default=0)

    @settings(max_examples=25, deadline=None)
    @given(structured_sets(), st.data())
    def test_incidences_on_structured_sets_match_per_curve_count(self, A, data):
        # coinciding sums, classes of several members and masks of hundreds of
        # bits; the oracle counts sums, not points, so it reaches |A| = 24
        terms = data.draw(rational_grid_polys(max_deg=4))
        # a factor y - c gives f a zero row at c; a factor x - c puts the
        # reducible fiber at 0 on the grid, so the candidate 0 removes a row
        var = data.draw(st.sampled_from([None, (1, 0), (0, 1)]))
        if var and BiPoly(terms).total_degree <= 3:
            c = data.draw(st.sampled_from(A))
            terms = naive_mul(terms, {var: F(1), (0, 0): -c})
        f = BiPoly(terms)
        assume(1 <= f.deg_x <= 4 and f.total_degree >= 2)
        base = [b for b in A if not naive_zero_row(terms, b)]
        values = naive_image(lambda a, b: naive_eval(terms, a, b), base)
        # every fiber of a squared linear form is reducible, so any value
        # drawn there removes its row
        cands = data.draw(st.lists(st.sampled_from(sorted(values)), max_size=3))
        lams = sorted({F(0), *cands})
        kept = values - set(sigma_scan(FiberPencil(f), lams).found_values)
        rep, _ = incidence_report(FiberPencil(f), A, lams)
        sums = naive_sumset(base)
        per = per_curve_hits({curve_key(f, a, b) for a in base for b in base}, sums, kept)
        assert rep.curve_count == len(per)
        assert rep.point_count == len(sums) * len(kept)
        assert rep.incidences == sum(per)
        assert rep.per_curve_min == min(per, default=0)


class TestCurvePairs:
    def test_unique_solution(self):
        got = curve_pair_solutions(P("x y"), (F(2), F(1)), (F(3), F(2)))
        assert isinstance(got, SolutionCount)
        assert got.count == 1 and got.solutions == ((F(1), F(1)),)

    def test_same_column_distinct_values(self):
        got = curve_pair_solutions(P("x y"), (F(2), F(1)), (F(2), F(2)))
        assert isinstance(got, SolutionCount) and got.count == 0

    def test_common_factor_on_flagged_rows(self):
        f = P("x^2 + 2 x y + y^2")
        got = curve_pair_solutions(f, (F(0), F(0)), (F(1), F(1)))
        assert isinstance(got, CommonFactor)
        assert {p for p, _ in got.factors.factors} == {P("x - y")}
        # both point values sit among the certified reducible fibers
        rep = sigma_scan(FiberPencil(f), [F(0), F(1)])
        assert {F(0), F(1)} <= set(rep.found_values)

    def test_rejects_equal_points(self):
        with pytest.raises(ValueError):
            curve_pair_solutions(P("x y"), (F(1), F(1)), (F(1), F(1)))

    def test_degenerate_system(self):
        from sumprod.poly import BiPoly

        with pytest.raises(DegenerateSystem):
            curve_pair_solutions(BiPoly.const(7), (F(0), F(7)), (F(1), F(7)))

    def test_ceiling_on_random_pairs(self):
        rng = random.Random(414)
        for s in ("x y", "x^2 + y", "x^2 + x y + y^2"):
            f = P(s)
            k = f.total_degree
            pencil = FiberPencil(f)
            sig = sigma_scan(pencil, sigma_candidates(pencil))
            flagged = set(sig.found_values)
            for _ in range(40):
                pts = []
                while len(pts) < 2:
                    cand = (F(rng.randint(-8, 8)), F(rng.randint(-8, 8)))
                    if cand[1] not in flagged and cand not in pts:
                        pts.append(cand)
                got = curve_pair_solutions(f, pts[0], pts[1])
                assert isinstance(got, SolutionCount)
                assert got.count <= k * k
