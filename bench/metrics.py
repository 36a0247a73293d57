"""Names, units and meaning of every metric the benchmark reports.

BENCHMARK.json lists the same names; `test_bench.py` checks that the two
agree. For each per-layer metric, `meaning` says which end-to-end metric on
which workload a change to that layer should move, and where the prediction
is no change, so that later changes can cite the pairing by name.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    meaning: str  # definition, or for a per-layer metric what it should move


# Every time, end to end and per layer, is in seconds at nominal machine
# speed: measured seconds times REF_SECONDS over the reference chunk measured
# around them (see run.py). Raw seconds and speed factors go to the context.
END_TO_END = [
    Metric("setup_s", "s", "lower", "interpreter start, import of sumprod and input generation; median of 9 fresh processes"),
    Metric("wall_s", "s", "lower", "one full pass over the workload's items; median over passes"),
    Metric("classify_s", "s", "lower", "summed wall time of a pass's classify calls, each at its median over passes"),
    Metric("sigma_s", "s", "lower", "summed wall time of a pass's sigma calls, each at its median over passes"),
    Metric("incidence_s", "s", "lower", "summed wall time of a pass's incidence calls, each at its median over passes"),
    Metric("scan_s", "s", "lower", "summed wall time of a pass's scan calls, each at its median over passes"),
    Metric("peak_rss_mb", "MB", "lower", "peak resident memory of the benchmark process"),
    Metric("ok_ratio", "ratio", "higher", "items that exited 0 and passed their check, over items attempted"),
]

_RANK = "classify_s on classify-mix; no change on grid-growth"
_CLASSIFY = "classify_s on classify-mix"
_SIGMA = "sigma_s and ok_ratio on sigma-fibers; no change on classify-mix, which never calls factor_rational"
_SPECTRUM = "sigma_s on sigma-fibers"
_INCIDENCE = "incidence_s on grid-growth"
_SCAN = "scan_s on grid-growth"
_POLY = "incidence_s and scan_s on grid-growth; classify_s on classify-mix must not worsen"
_WALL = "wall_s on all three workloads"

PER_LAYER = [
    Metric("linalg.rank_int.self_s", "s", "lower", _RANK),
    Metric("linalg.rank_int.calls", "count", "lower", _RANK),
    Metric("linalg.rank_mod_prime.self_s", "s", "lower", _RANK),
    Metric("linalg.rref.self_s", "s", "lower", _RANK + " (nullspace_basis and solve_exact)"),
    Metric("linalg.det_in_ring.self_s", "s", "lower", _RANK + "; sigma_s on sigma-fibers (resultants)"),
    Metric("linalg.matrix_cells", "count", "lower", _RANK + " (rows x cols passed to rank)"),
    Metric("linalg.self_s", "s", "lower", _RANK),
    Metric("factor.count_abs_factors.calls", "count", "lower", _CLASSIFY),
    Metric("factor.count_abs_factors.self_s", "s", "lower", _CLASSIFY),
    Metric("factor.fast_path_ratio", "ratio", "higher", _CLASSIFY + " (counts settled without rank_int)"),
    Metric("factor.squarefree.self_s", "s", "lower", _CLASSIFY),
    Metric("factor.factor_rational.calls", "count", "lower", _SIGMA),
    Metric("factor.factor_rational.self_s", "s", "lower", _SIGMA),
    Metric("factor.factor_rational.split_ratio", "ratio", "higher", _SIGMA + " (calls returning >= 2 pieces)"),
    Metric("factor.factor_univariate.self_s", "s", "lower", _SIGMA + " (Kronecker search)"),
    Metric("factor.rational_roots.calls", "count", "lower", _SIGMA),
    Metric("factor.rational_roots.self_s", "s", "lower", _SIGMA),
    Metric("factor.self_s", "s", "lower", _CLASSIFY + "; " + _SPECTRUM),
    Metric("integers.divisors.calls", "count", "lower", _SIGMA),
    Metric("integers.self_s", "s", "lower", _SIGMA),
    Metric("spectrum.sigma_candidates.self_s", "s", "lower", _SPECTRUM),
    Metric("spectrum.rational_critical_values.self_s", "s", "lower", _SPECTRUM),
    Metric("spectrum.sigma_scan.self_s", "s", "lower", _SPECTRUM),
    Metric("spectrum.candidates", "count", "lower", _SPECTRUM + " (candidate lambdas tested)"),
    Metric("spectrum.hit_ratio", "ratio", "higher", _SPECTRUM + " (certified hits over candidates)"),
    Metric("spectrum.self_s", "s", "lower", _SPECTRUM),
    Metric("poly.resultant_eliminating.self_s", "s", "lower", _SPECTRUM),
    Metric("poly.bi_gcd.calls", "count", "lower", _SPECTRUM),
    Metric("poly.bi_gcd.self_s", "s", "lower", _SPECTRUM),
    Metric("poly.bi_divexact.self_s", "s", "lower", _SPECTRUM),
    Metric("poly.mul.calls", "count", "lower", _POLY),
    Metric("poly.mul.self_s", "s", "lower", _POLY),
    Metric("poly.uni_eval.calls", "count", "lower", _POLY),
    Metric("poly.uni_eval.self_s", "s", "lower", _POLY),
    Metric("poly.specialize_y.calls", "count", "lower", _POLY),
    Metric("poly.shift.calls", "count", "lower", _POLY),
    Metric("poly.self_s", "s", "lower", _POLY),
    Metric("classify.is_composite.calls", "calls/item", "lower", _CLASSIFY + " (is_composite calls per classify item)"),
    Metric("classify.fiber_tests", "count", "lower", _CLASSIFY + " (fiber tests run by is_composite)"),
    Metric("classify.decompose_fully.self_s", "s", "lower", _CLASSIFY),
    Metric("classify.is_degenerate.self_s", "s", "lower", _CLASSIFY),
    Metric("classify.self_s", "s", "lower", _CLASSIFY),
    Metric("geometry.build_family.self_s", "s", "lower", _INCIDENCE),
    Metric("geometry.incidence_report.self_s", "s", "lower", _INCIDENCE),
    Metric("geometry.classes", "count", "lower", _INCIDENCE + " (curve classes built)"),
    Metric("geometry.curve_evals", "count", "lower", _INCIDENCE + " (univariate evaluations in geometry)"),
    Metric("geometry.self_s", "s", "lower", _INCIDENCE),
    Metric("explorer.generate_set.self_s", "s", "lower", _SCAN),
    Metric("explorer.sumset.self_s", "s", "lower", _SCAN),
    Metric("explorer.image_set.self_s", "s", "lower", _SCAN),
    Metric("explorer.run_scan.self_s", "s", "lower", _SCAN),
    Metric("explorer.image_evals", "count", "lower", _SCAN + " (univariate evaluations in explorer)"),
    Metric("explorer.self_s", "s", "lower", _SCAN),
    Metric("parsing.self_s", "s", "lower", _WALL),
    Metric("cli.self_s", "s", "lower", _WALL + " (argument parsing, formatting, JSON, artifact writes)"),
    Metric("trace.wall_s", "s", "lower", "traced pass wall time; median over traced passes"),
    Metric("trace.overhead_s", "s", "lower", "traced wall_s minus the untraced first pass of the same run"),
    Metric("trace.spans", "count", "lower", "spans recorded per pass"),
]
