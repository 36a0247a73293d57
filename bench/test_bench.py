"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import math
from pathlib import Path

import pytest

import metrics
import oracle as o
import run
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _specs(entries):
    return [(m["name"], m["unit"], m["better"]) for m in entries]


def test_benchmark_json_matches_the_metrics_reported():
    assert _specs(SPEC["end_to_end"]) == [(m.name, m.unit, m.better) for m in metrics.END_TO_END]
    assert _specs(SPEC["per_layer"]) == [(m.name, m.unit, m.better) for m in metrics.PER_LAYER]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(m.meaning for m in metrics.END_TO_END + metrics.PER_LAYER)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result, context = run.run(name, seed=3, seconds=0, trace=trace, tiny=True)
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert list(result["metrics"]) == [m.name for m in expected]
    for m in expected:
        got = result["metrics"][m.name]
        assert got["unit"] == m.unit
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    assert context["seed"] == 3 and context["src_lines"] > 0


def test_inputs_follow_the_seed():
    def argv(seed):
        return [(it.cmd, it.args) for it in workloads.build("grid-growth", seed)]

    assert argv(5) == argv(5)
    assert argv(5) != argv(6)


def test_checks_reject_wrong_outputs():
    f = o.parse_poly("x^2 + y")
    good = json.dumps({
        "input": "x^2 + y", "oriented": "x^2 + y", "swapped": False, "degenerate": None,
        "composite": {"verdict": False}, "decomposition": {"core": "x^2 + y", "chain": []},
    })
    assert workloads.check_classify(workloads.Output(0, good), f, "non-composite") == []
    assert workloads.check_classify(workloads.Output(0, good), f, "composite")
    cert = {"kind": "rational-factorization", "constant": "1", "factors": [
        {"poly": "x", "multiplicity": 1}, {"poly": "x + y", "multiplicity": 1}]}
    sigma = {"degree_k": 2, "candidate_count": 1, "stein_bound_respected": True,
             "found": [{"lambda": "0", "certificate": cert}]}
    xy = o.parse_poly("x y")
    assert workloads.check_sigma(workloads.Output(0, json.dumps(sigma)), o.parse_poly("x^2 + x y"), ["0"]) == []
    assert workloads.check_sigma(workloads.Output(0, json.dumps({**sigma, "degree_k": 2})), xy, ["0"])
