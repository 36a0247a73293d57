"""Set families, exact sumsets and image sets, and the growth regression.

Everything asserted here is integer arithmetic: the comparison
|A+A| * |f(A,A)| >= c * |A|^(5/2) is carried out as product^2 >= c^2 * n^5,
so no irrational number ever enters a checked fact. Decimal renderings are
display-only.

Sumsets and image sets are computed in Python ints after one exact
rescaling (`poly.integer_grid`): D * A + D * A = D * (A + A) with D the lcm of
the denominators of A, and S * f(a, b) = row_b(D * a) with S = L * D^k, L the
lcm of f's coefficient denominators and k its total degree. Both maps
a -> D * a and v -> S * v are increasing bijections, so sizes, equalities and
order are those over Q. `IntegerGrid.sumset_values` and
`IntegerGrid.image_values` give the scaled values; `sumset` and `image_set`
order the distinct ones (`poly.sorted_distinct`) and divide back once per
element, and `run_scan` only counts.

`IntegerGrid.image` evaluates a row at all of D * A in one batched pass per
coefficient (`poly.horner_all`), so the work per row follows the row's
length, deg_x + 1. The image is read off the grid of f with x and y swapped
when deg_y < deg_x (`_image_poly`): D depends on A alone and L and k are the
same for the swapped polynomial, so S is too, and {S g(a, b)} over A x A with
g(a, b) = f(b, a) is the same set of integers, from rows of length deg_y + 1.
When g(x, y) = g(y, x), row j is evaluated at the first j + 1 points only.

`run_scan` counts on that grid alone, built from the integer numerators
over one denominator that `generate_set` also starts from (`_numerators`),
so a scan makes no Fraction per element. The sumset depends on A only, and
the zero rows (`removed_rows`), the b with f(x, b) = 0, are the b in A
where the x-content of f vanishes (`poly.split_content_x`), tested in
integers. A count, like `sumset` and `image_set`, takes a set while a
bound on |value| stays below CPython's hash modulus 2^61 - 1, and a sort
past it (`IntegerGrid`); on a geometric progression a set collides.
Measured as CLI runs on a shared 2-vCPU VM (Python 3.11, peak RSS of the
process): `scan` of x^2 + x y + y^2 over GP(ratio 2) at sizes 256, 512,
1024 takes 0.8 s and 133 MB (10-15 s on sets), x y over GP(2048) 8.5 s and
670 MB (not done after 60 s on sets), and x^2 + x y + y^2 over AP(4096),
which hashes, 3.1 s and 558 MB. In process, `sumset` of GP(512, 1, 2)
takes 0.26 s on the sort route (0.54 s on a set), most of it making the
131,328 Fractions it returns.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

from .classify import is_degenerate
from .errors import DegenerateSpec, HypothesisViolated
from .poly import BiPoly, horner_all, integer_grid, scaled_grid, sorted_distinct, split_content_x


@dataclass(frozen=True)
class ApSpec:
    n: int
    start: Fraction
    step: Fraction

    def describe(self) -> str:
        return f"AP(n={self.n},start={self.start},step={self.step})"


@dataclass(frozen=True)
class GpSpec:
    n: int
    first: Fraction
    ratio: Fraction

    def describe(self) -> str:
        return f"GP(n={self.n},first={self.first},ratio={self.ratio})"


@dataclass(frozen=True)
class RandomIntSpec:
    n: int
    lo: int
    hi: int
    seed: int

    def describe(self) -> str:
        return f"RandomInt(n={self.n},lo={self.lo},hi={self.hi},seed={self.seed})"


SetSpec = ApSpec | GpSpec | RandomIntSpec


@dataclass(frozen=True)
class RatSet:
    """A finite set of rationals plus enough provenance to regenerate it."""

    elements: tuple[Fraction, ...]
    provenance: str

    def __post_init__(self):
        elems = tuple(self.elements)
        if any(elems[i] >= elems[i + 1] for i in range(len(elems) - 1)):
            raise ValueError("elements must be strictly increasing")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def _numerators(spec: SetSpec) -> tuple[int, list[int]]:
    """(D, nums) with the set of `spec` equal to {v / D : v in nums}, nums
    increasing and gcd(D, *nums) == 1, so D is the lcm of its denominators."""
    if isinstance(spec, ApSpec):
        if spec.n < 1:
            raise DegenerateSpec("need n >= 1")
        if not spec.step:
            raise DegenerateSpec("zero step collapses the progression")
        start, step = Fraction(spec.start), Fraction(spec.step)
        D = math.lcm(start.denominator, step.denominator)
        s0 = start.numerator * (D // start.denominator)
        ds = step.numerator * (D // step.denominator)
        nums = [s0 + ds * i for i in range(spec.n)]
    elif isinstance(spec, GpSpec):
        if spec.n < 1:
            raise DegenerateSpec("need n >= 1")
        if not spec.first:
            raise DegenerateSpec("zero first term collapses the progression")
        if spec.ratio in (0, 1, -1):
            raise DegenerateSpec("ratio must avoid 0 and +-1")
        # first * (p/q)^i = first.num * p^i * q^(m-i) / (first.den * q^m)
        first, ratio = Fraction(spec.first), Fraction(spec.ratio)
        p, q, m = ratio.numerator, ratio.denominator, spec.n - 1
        nums = [first.numerator * p**i * q ** (m - i) for i in range(spec.n)]
        D = first.denominator * q**m
    elif isinstance(spec, RandomIntSpec):
        population = spec.hi - spec.lo + 1
        if spec.n < 1 or population < spec.n:
            raise DegenerateSpec(
                f"cannot draw {spec.n} distinct integers from [{spec.lo},{spec.hi}]"
            )
        nums = random.Random(spec.seed).sample(range(spec.lo, spec.hi + 1), spec.n)
        D = 1
    else:
        raise TypeError(f"unknown spec {spec!r}")
    g = math.gcd(D, *nums)
    return D // g, sorted(v // g for v in nums)


def generate_set(spec: SetSpec) -> RatSet:
    """Materialize a generator spec; deterministic for a fixed seed."""
    D, nums = _numerators(spec)
    return RatSet(tuple(Fraction(v, D) for v in nums), spec.describe())


def sumset(A: RatSet) -> RatSet:
    grid = integer_grid(BiPoly.x(), A.elements)
    vals = sorted_distinct(*grid.sumset_values())
    return RatSet(tuple(Fraction(v, grid.D) for v in vals), f"sumset({A.provenance})")


def _image_poly(f: BiPoly) -> BiPoly:
    """f, or f with x and y swapped when that shortens the grid rows; both
    have the same image over A x A and the same S (see the module docstring)."""
    return f.swap() if f.deg_y < f.deg_x else f


def image_set(f: BiPoly, A: RatSet) -> RatSet:
    """All values f(a, a') over ordered pairs from A."""
    grid = integer_grid(_image_poly(f), A.elements)
    vals = sorted_distinct(*grid.image_values())
    return RatSet(tuple(Fraction(v, grid.S) for v in vals), f"image({A.provenance})")


@dataclass(frozen=True)
class ExperimentRecord:
    poly_id: str
    provenance: str
    n: int
    sumset_size: int
    image_size: int
    product: int
    ratio_squared: tuple[int, int]  # (product^2, n^5), compared exactly
    ratio_decimal: str
    removed_rows: int
    runtime_ms: float
    floor_violation: bool
    count_routes: tuple[str, str]  # "hash" or "sort" for the sumset and the image


@dataclass(frozen=True)
class ScanSummary:
    min_ratio_squared: tuple[int, int]
    max_ratio_squared: tuple[int, int]
    min_ratio_decimal: str
    max_ratio_decimal: str
    slope: float | None  # None below two distinct sizes
    violations: int


@dataclass(frozen=True)
class ScanResult:
    records: tuple[ExperimentRecord, ...]
    summary: ScanSummary


def _ratio_decimal(product: int, n: int) -> str:
    return f"{product / n**2.5:.6f}"


def run_scan(
    f: BiPoly,
    specs: list[SetSpec],
    floor_c: Fraction | None = None,
    poly_id: str = "f",
) -> ScanResult:
    """One record per spec plus a growth summary for the size ladder.

    Refuses degenerate polynomials: an arithmetic progression keeps both
    |A+A| and |f(A,A)| linear in |A| for those, so the lower bound under test
    simply does not apply.
    """
    if f.is_constant or is_degenerate(f) is not None:
        raise HypothesisViolated("scan requires a non-degenerate polynomial")
    g = _image_poly(f)
    content = split_content_x(f)[0]
    k = content.degree
    records = []
    for spec in specs:
        t0 = time.perf_counter()
        D, nums = _numerators(spec)
        n = len(nums)
        grid = scaled_grid(g, D, nums)
        s, sumset_route = grid.sumset_count()
        i, image_route = grid.image_count()
        # b = v / D is a zero row when d D^k content(b) = sum_j n_j D^(k-j) v^j is 0
        scaled_content = tuple(content.n.get(j, 0) * D ** (k - j) for j in range(k + 1))
        removed = horner_all(scaled_content, nums).count(0)
        product = s * i
        violation = False
        if floor_c is not None:
            c = Fraction(floor_c)
            # no c <= 0 can fail, as product >= 0; squaring is exact for c > 0
            violation = c > 0 and product * product * c.denominator**2 < c.numerator**2 * n**5
        records.append(
            ExperimentRecord(
                poly_id=poly_id,
                provenance=spec.describe(),
                n=n,
                sumset_size=s,
                image_size=i,
                product=product,
                ratio_squared=(product * product, n**5),
                ratio_decimal=_ratio_decimal(product, n),
                removed_rows=removed,
                runtime_ms=(time.perf_counter() - t0) * 1000.0,
                floor_violation=violation,
                count_routes=(sumset_route, image_route),
            )
        )
    records.sort(key=lambda r: (r.poly_id, r.n, r.provenance))
    ratios = [Fraction(p2, n5) for r in records for (p2, n5) in [r.ratio_squared]]
    lo = min(ratios)
    hi = max(ratios)
    slope = None
    if len({r.n for r in records}) >= 2:
        fit = statistics.linear_regression(
            [math.log(r.n) for r in records], [math.log(r.product) for r in records]
        )
        slope = fit.slope
    summary = ScanSummary(
        min_ratio_squared=(lo.numerator, lo.denominator),
        max_ratio_squared=(hi.numerator, hi.denominator),
        min_ratio_decimal=f"{math.sqrt(lo):.6f}",
        max_ratio_decimal=f"{math.sqrt(hi):.6f}",
        slope=slope,
        violations=sum(1 for r in records if r.floor_violation),
    )
    return ScanResult(tuple(records), summary)
