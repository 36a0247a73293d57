"""The three benchmark workloads: seeded CLI argv lists plus output checks.

A workload is a list of items. Each item is one `sumprod` CLI call given
only as argv strings, with a check that reads the call's JSON stdout and
artifacts and compares them against the construction of the input, using
the independent arithmetic in `oracle`. The seed picks the random parts of
the inputs and the order in which items run; the expensive inputs are fixed,
so that the cost of a pass does not depend on the seed.

Every workload runs all four subcommands: its own heavy part plus one light
slice of each subcommand. The light slices keep every end-to-end metric
defined on every workload and act as the control on which an optimization
of another layer should change nothing.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable

import oracle as o

COMMANDS = ("classify", "sigma", "incidence", "scan")
WORKLOADS = ("classify-mix", "sigma-fibers", "grid-growth")

# certified non-composite polynomials, as listed in tests/conftest.py
NON_COMPOSITE = [
    "x y",
    "x^2 + y",
    "x^2 + y^2",
    "x^2 + x y + y^2",
    "x^2 - y^2",
    "x^3 + x y",
    "x^3 + y",
    "x^3 + x + y",
    "x^4 + y",
    "x^5 + y",
]

# inner polynomials for constructed composites
INNER_CUBIC_Y = o.poly((1, 0, 1), (0, 3, 1), (0, 1, -2))  # x + y^3 - 2y
INNER_PARABOLA = o.poly((2, 0, 1), (0, 1, 1))  # x^2 + y
INNER_CUSP = o.poly((3, 0, 1), (1, 1, 1))  # x^3 + x y
INNER_BILINEAR = o.poly((1, 1, 1), (1, 0, 1), (0, 1, -1))  # x y + x - y
INNER_SEXTIC = o.poly((5, 1, 1), (0, 1, 1))  # x^5 y + y
INNER_CUBIC_XY = o.poly((2, 1, 1), (1, 0, 1), (0, 1, 1))  # x^2 y + x + y

CUSP = "x^3 + x y"  # fibers reducible only at 0
CONIC = "x^2 + x y + y^2"  # fibers reducible only at 0

# random sets draw from these ranges, the CLI's RandomInt and scan defaults
SET_RANGE = (1, 1000)
SCAN_RANGE = (1, 10000)


@dataclass
class Output:
    """What one CLI call left behind, with the artifact directory normalized."""

    rc: int
    stdout: str
    files: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Item:
    cmd: str
    args: tuple[str, ...]
    check: Callable[[Output], list[str]]

    @property
    def writes_artifacts(self) -> bool:
        return self.cmd in ("incidence", "scan")

    def label(self) -> str:
        return f"{self.cmd} {' '.join(self.args)}"


def build(name: str, seed: int, tiny: bool = False) -> list[Item]:
    """The items of one pass of workload `name`, in their seeded order."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")

    def rng(part: str) -> random.Random:
        return random.Random(f"{name}/{seed}/{part}")

    heavy = {
        "classify-mix": _classify_heavy,
        "sigma-fibers": _sigma_heavy,
        "grid-growth": _grid_heavy,
    }[name](rng("heavy"), tiny)
    items = (
        heavy
        + _classify_light(rng("classify"), tiny)
        + _sigma_light(rng("sigma"), tiny)
        + _incidence_light(rng("incidence"), tiny)
        + _scan_light(rng("scan"), tiny)
    )
    rng("order").shuffle(items)
    return items


# ---------------------------------------------------------------------------
# item constructors


def classify(f: o.Poly, kind: str) -> Item:
    return Item("classify", ("--poly", o.format_poly(f)), partial(check_classify, f=f, kind=kind))


def sigma(f: o.Poly, *extra: str, expect=None) -> Item:
    return Item("sigma", ("--poly", o.format_poly(f), *extra), partial(check_sigma, f=f, expect=expect))


def incidence(text: str, set_spec: str, elements: list[Fraction], naive: bool) -> Item:
    f = o.parse_poly(text)
    return Item(
        "incidence",
        ("--poly", text, "--set", set_spec),
        partial(check_incidence, f=f, elements=elements, naive=naive),
    )


def scan(text: str, family: str, sizes: list[int], seed: int = 0) -> Item:
    f = o.parse_poly(text)
    args = ("--poly", text, "--family", family, "--sizes", ",".join(map(str, sizes)))
    if family == "random":
        args += ("--seed", str(seed), "--range", "%d:%d" % SCAN_RANGE)
    return Item("scan", args, partial(check_scan, f=f, family=family, sizes=sizes, seed=seed))


def _random_int_item(text: str, n: int, rng: random.Random) -> Item:
    lo, hi = SET_RANGE
    s = rng.randrange(1, 10**6)
    return incidence(text, f"RandomInt({n},{lo},{hi},{s})", o.random_ints(n, lo, hi, s), naive=False)


def _signs(rng: random.Random, *mags: int) -> list[int]:
    return [m * rng.choice((1, -1)) for m in mags]


# ---------------------------------------------------------------------------
# heavy parts


def _classify_heavy(rng: random.Random, tiny: bool) -> list[Item]:
    """Constructed composites of total degree 6, 9 and 12.

    Every sampled fiber of a composite is reducible, so each one misses the
    modular-rank fast path and falls back to exact rank.
    """
    if tiny:
        return [classify(o.compose([0, 1, 1], INNER_PARABOLA), "composite")]
    specs = [
        ([0, 1, 1], INNER_CUBIC_Y),  # degree 6
        ([0, 1, 0, 1], INNER_PARABOLA),  # degree 6
        ([1, 0, 1], INNER_CUSP),  # degree 6
        ([0, 1, 0, 1], INNER_CUBIC_XY),  # degree 9
        ([0, 1, 1], INNER_SEXTIC),  # degree 12
    ]
    return [classify(o.compose(q, g), "composite") for q, g in specs]


def _sigma_heavy(rng: random.Random, tiny: bool) -> list[Item]:
    """Fibers that mostly split, and one input that exhausts the degree cap.

    Q(x + y) and Q(x - y) have every fiber reducible over C, so each
    candidate runs a Kronecker search; x^4 + x y^2 + y takes its candidates
    from resultant elimination. x^9 + 3x^6y + 3x^3y^2 + y^3 exits 3 at the
    default cap and stays in as a counted failure.
    """
    line = o.add(o.X, o.Y)
    anti = o.add(o.X, o.scale(o.Y, -1))
    if tiny:
        return [sigma(o.power(line, 2), "--sweep-height", "1", expect="all")]
    return [
        sigma(o.power(line, 2), "--sweep-height", "3", expect="all"),
        sigma(o.compose([0, 1, 1], anti), "--sweep-height", "4", expect="all"),
        sigma(o.poly((4, 0, 1), (1, 2, 1), (0, 1, 1))),
        sigma(o.compose([0, 0, 0, 1], o.poly((3, 0, 1), (0, 1, 1)))),
    ]


def _grid_heavy(rng: random.Random, tiny: bool) -> list[Item]:
    """Incidence on AP(24) and RandomInt(14); growth scans up to |A| = 128."""
    if tiny:
        return [
            incidence(CUSP, "AP(4,1,1)", o.progression(4, 1, 1), naive=True),
            scan(CONIC, "GP", [4, 8]),
        ]
    items = []
    for text, top in ((CUSP, 128), (CONIC, 64)):
        items.append(incidence(text, "AP(24,1,1)", o.progression(24, 1, 1), naive=False))
        items.append(_random_int_item(text, 14, rng))
        sizes = [n for n in (8, 16, 32, 64, 128) if n <= top]
        items += [scan(text, "AP", sizes), scan(text, "GP", sizes)]
        items.append(scan(text, "random", sizes, rng.randrange(1, 10**6)))
    return items


# ---------------------------------------------------------------------------
# light slices, one of each subcommand in every workload


def _classify_light(rng: random.Random, tiny: bool) -> list[Item]:
    """Non-composites, small composites and seeded degenerate cubics."""
    if tiny:
        return [classify(o.parse_poly("x^3 + x y"), "non-composite")]
    items = [classify(o.parse_poly(t), "non-composite") for t in NON_COMPOSITE]
    items.append(classify(o.compose([0, 2, 1], INNER_BILINEAR), "composite"))
    items.append(classify(o.compose([0, 1, 1], INNER_PARABOLA), "composite"))
    # the seed picks signs only, which leaves the cost of each call nearly fixed
    for _ in range(2):
        # Q(a x + b y) with Q a cubic: degenerate, and composite
        a, b = _signs(rng, 1, 2)
        q = [*_signs(rng, 1, 2), 0, 1]
        items.append(classify(o.compose(q, o.add(o.scale(o.X, a), o.scale(o.Y, b))), "degenerate"))
    for _ in range(2):
        # dense and linear in one variable: a composite Q(g) with deg Q >= 2
        # has degree >= 2 in every variable it involves, so this is not one
        coeffs = _signs(rng, 1, 2, 3, 1, 2, 3, 1, 2)
        f = {(i, j): Fraction(c) for (i, j), c in zip(((i, j) for i in range(4) for j in range(2)), coeffs)}
        items.append(classify(o.swap(f) if rng.random() < 0.5 else f, "non-composite"))
    return items


def _sigma_light(rng: random.Random, tiny: bool) -> list[Item]:
    """Reducible only at 0, each certified by a rational factorization."""
    xy = o.parse_poly("x y")
    if tiny:
        return [sigma(xy, "--sweep-height", "1", expect=["0"])]
    extra = sorted({Fraction(rng.randint(1, 40), rng.randint(6, 9)) for _ in range(3)})
    return [
        sigma(xy, "--extra-candidates", ",".join(map(str, extra)), expect=["0"]),
        sigma(o.parse_poly("x^3 + y^3"), expect=["0"]),
        sigma(o.parse_poly("x^2 y + x y^2"), expect=["0"]),
    ]


def _incidence_light(rng: random.Random, tiny: bool) -> list[Item]:
    """The smallest set of each family, checked by a full double loop."""
    lo, hi = SET_RANGE
    s = rng.randrange(1, 10**6)
    n = 3 if tiny else 12
    return [
        incidence(CUSP, f"AP({n},1,1)", o.progression(n, 1, 1), naive=True),
        incidence(CONIC, f"RandomInt({n},{lo},{hi},{s})", o.random_ints(n, lo, hi, s), naive=True),
    ]


def _scan_light(rng: random.Random, tiny: bool) -> list[Item]:
    sizes = [4] if tiny else [8, 16, 32, 64]
    return [
        scan(CUSP, "random", sizes, rng.randrange(1, 10**6)),
        scan(CONIC, "AP", sizes),
        scan(CONIC, "GP", sizes[:3]),
    ]


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the output is right


def _recompose(chain: list[str], core: o.Poly) -> o.Poly:
    acc = core
    for q in reversed(chain):
        acc = o.compose(o.outer_coeffs(q), acc)
    return acc


def check_classify(out: Output, f: o.Poly, kind: str) -> list[str]:
    p = json.loads(out.stdout)
    probs = []
    if o.parse_poly(p["input"]) != f:
        probs.append("input echo differs from the polynomial sent")
    oriented = o.parse_poly(p["oriented"])
    if oriented != (o.swap(f) if p["swapped"] else f):
        probs.append("oriented form is not the input or its swap")
    dec, comp = p["degenerate"], p["composite"]["verdict"]
    if kind == "degenerate":
        if dec is None:
            probs.append("Q(ax+by) not reported degenerate")
        elif o.compose(o.outer_coeffs(dec["outer"]), o.parse_poly(dec["linear_form"])) != oriented:
            probs.append("degenerate certificate does not re-expand to f")
        if not comp:
            probs.append("Q(ax+by) with deg Q >= 2 not reported composite")
    elif kind == "composite":
        if dec is not None:
            probs.append("constructed composite reported degenerate")
        if not comp:
            probs.append("constructed composite reported non-composite")
        chain = p.get("decomposition", {}).get("chain", [])
        if math.prod(len(o.outer_coeffs(q)) - 1 for q in chain) < 2:
            probs.append("decomposition chain has no outer layer of degree >= 2")
        elif _recompose(chain, o.parse_poly(p["decomposition"]["core"])) != oriented:
            probs.append("decomposition chain does not re-expand to f")
    else:
        if dec is not None or comp:
            probs.append("non-composite reported degenerate or composite")
        d = p.get("decomposition", {})
        if d.get("chain") != [] or o.parse_poly(d.get("core", "0")) != oriented:
            probs.append("non-composite core is not the oriented input")
    return probs


def check_sigma(out: Output, f: o.Poly, expect=None) -> list[str]:
    p = json.loads(out.stdout)
    probs = []
    k = o.total_degree(f)
    if p["degree_k"] != k:
        probs.append(f"degree_k {p['degree_k']} != {k}")
    for hit in p["found"]:
        lam = Fraction(hit["lambda"])
        fiber = o.add(f, {(0, 0): -lam})
        cert = hit["certificate"]
        if cert["kind"] == "rational-factorization":
            prod = {(0, 0): Fraction(cert["constant"])}
            pieces = 0
            for fac in cert["factors"]:
                g = o.parse_poly(fac["poly"])
                prod = o.mul(prod, o.power(g, fac["multiplicity"]))
                pieces += fac["multiplicity"] if o.total_degree(g) >= 1 else 0
            if prod != fiber or pieces < 2:
                probs.append(f"certificate at {lam} does not re-expand to f - lambda")
        elif cert["kind"] == "absolute-univariate":
            if min(max(i for i, _ in fiber), max(j for _, j in fiber)) > 0:
                probs.append(f"univariate certificate at {lam} for a bivariate fiber")
            elif cert["value"] != o.total_degree(fiber) or cert["value"] < 2:
                probs.append(f"univariate certificate at {lam} has the wrong degree")
        elif cert["kind"] == "absolute-nullspace":
            if cert["value"] < 2:
                probs.append(f"nullspace certificate at {lam} counts {cert['value']} factors")
        else:
            probs.append(f"unknown certificate kind {cert['kind']!r}")
    found = [hit["lambda"] for hit in p["found"]]
    if expect == "all" and len(found) != p["candidate_count"]:
        probs.append(f"{len(found)} of {p['candidate_count']} fibers of Q(linear) reported reducible")
    elif isinstance(expect, list) and found != expect:
        probs.append(f"reducible fibers {found}, expected {expect}")
    if p["stein_bound_respected"] != (len(found) < k):
        probs.append("stein_bound_respected disagrees with the hit count")
    return probs


def check_incidence(out: Output, f: o.Poly, elements: list[Fraction], naive: bool) -> list[str]:
    p = json.loads(out.stdout)
    inc = p["incidence"]
    probs = []
    kept = [b for b in elements if any(o.translate_row(f, 0, b))]
    sums = {a + b for a in kept for b in kept}
    values = {o.evaluate(f, a, b) for a in kept for b in kept}
    # both polynomials used here have f - lambda reducible only at lambda = 0
    removed = values & {Fraction(0)}
    kept_values = values - removed
    if p["set_size"] != len(elements):
        probs.append("set size differs from the generated set")
    if inc["point_count"] != len(sums) * len(kept_values):
        probs.append("point count differs from |A'+A'| * |f(A',A')|")
    if inc["removed_points"] != len(sums) * len(removed):
        probs.append("removed point count differs")
    hist = [tuple(h) for h in p["class_histogram"]]
    if sum(s * c for s, c in hist) != len(kept) ** 2 or sum(c for _, c in hist) != inc["curve_count"]:
        probs.append("class histogram does not partition A' x A'")
    rows = list(csv.reader(io.StringIO(out.files.get("histogram.csv", ""))))
    if rows[1:] != [[str(s), str(c)] for s, c in hist]:
        probs.append("histogram.csv differs from the JSON histogram")
    if naive:
        curves = Counter(o.translate_row(f, a, b) for a in kept for b in kept)
        per = [sum(1 for s in sums if o.eval_row(c, s) in kept_values) for c in curves]
        if len(curves) != inc["curve_count"]:
            probs.append(f"{inc['curve_count']} curves, double loop finds {len(curves)}")
        if sorted(Counter(curves.values()).items()) != hist:
            probs.append("class histogram differs from the double loop")
        if sum(per) != inc["incidences"] or min(per, default=0) != inc["per_curve_min"]:
            probs.append(f"{inc['incidences']} incidences, double loop finds {sum(per)}")
    return probs


def _family_set(family: str, n: int, seed: int) -> list[Fraction]:
    if family == "AP":
        return o.progression(n, 1, 1)
    if family == "GP":
        return o.geometric(n, 1, 2)
    return o.random_ints(n, *SCAN_RANGE, seed)


def check_scan(out: Output, f: o.Poly, family: str, sizes: list[int], seed: int) -> list[str]:
    probs = []
    rows = list(csv.DictReader(io.StringIO(out.files.get("records.csv", ""))))
    if sorted(int(r["n"]) for r in rows) != sorted(sizes):
        return [f"records.csv sizes {[r['n'] for r in rows]} != {sizes}"]
    closed = {"AP": lambda n: 2 * n - 1, "GP": lambda n: n * (n + 1) // 2}.get(family)
    for r in rows:
        n, s, i = int(r["n"]), int(r["sumset"]), int(r["image"])
        if closed and s != closed(n):
            probs.append(f"|A+A| = {s} at n = {n}, closed form gives {closed(n)}")
        if int(r["product"]) != s * i:
            probs.append(f"product at n = {n} is not |A+A| * |f(A,A)|")
    smallest = min(rows, key=lambda r: int(r["n"]))
    A = _family_set(family, int(smallest["n"]), seed)
    if int(smallest["sumset"]) != len({a + b for a in A for b in A}):
        probs.append("smallest sumset differs from the double loop")
    if int(smallest["image"]) != len({o.evaluate(f, a, b) for a in A for b in A}):
        probs.append("smallest image differs from the double loop")
    summary = json.loads(out.files.get("summary.json", "{}"))
    ratios = [Fraction(int(r["product"]) ** 2, int(r["n"]) ** 5) for r in rows]
    lo, hi = min(ratios), max(ratios)
    if summary.get("min_ratio_squared") != [lo.numerator, lo.denominator] or summary.get(
        "max_ratio_squared"
    ) != [hi.numerator, hi.denominator]:
        probs.append("summary ratio bounds differ from the records")
    if summary.get("violations") != 0 or json.loads(out.stdout) != summary:
        probs.append("summary.json differs from stdout or reports violations")
    return probs
