"""Translated-curve families and incidence statistics.

For each pair (a, b) from a finite set the curve is the graph of
T(x) = f(x - a, b). Two pairs are equivalent exactly when those univariate
polynomials coincide, so curves are keyed by their coefficient vectors. For a
non-composite f of degree k every equivalence class has at most k^3 members;
a composite f can concentrate whole diagonals into one class, which is
reported as a witness instead of a violation.

The arithmetic runs in Python ints after one exact rescaling
(`poly.integer_grid`): with D the lcm of the denominators of the set and
S = L * D^k, L the lcm of f's coefficient denominators, the row of b is
X -> S * f(X / D, b), and the pair (a, b) is keyed by the integer Taylor
shift row_b(X - D a) = S * T(X / D), taken for all a of a row at once
(`poly.shift_all`). Its coefficient i is S t_i / D^i, so two integer keys
agree exactly when the curves do, and as S / D^i > 0 they sort as the
Fraction keys do. A class holds the index pairs of its members in the
pruned set. Keys and members stay integers: the Fraction coefficients t_i
and pairs (a, b) appear only at the edge, through `CurveFamily.curve_key`
and `CurveFamily.members`. Since a -> D a and v -> S v are increasing
bijections, every count, equality and order is the one over Q.

Incidences are counted with bit masks over the scaled difference set
diffs = D(A'+A') - D A'. The curve of (a, b) meets the point (s, v) exactly
when row_b(s - D a) = S v, and d = s - D a always lies in diffs, so the
class of (a, b) has #{d in diffs : row_b(d) kept, d + D a in D(A'+A')}
incidences. Row b has a hit mask, with the bit of d set when row_b(d) is a
kept scaled value, and the point D a a reach mask, with the bit of d set
when d + D a is a scaled sum; a class count is then one AND and one
popcount. The bits number the elements of diffs, not the integers of its
span: the masks of GP(48,1,2) have about 51,000 bits where its span is
near 2^48, so an AP, a GP and a random set take the same route. Each row
is evaluated at the whole difference set in one batched pass
(`poly.horner_all`), and a reach mask sets one bit per sum, not one per
difference. A candidate lambda = n/q in lowest terms is the
scaled value n S / q when q divides n S, and no value otherwise; only
candidates on a scaled value are tested, on one `FiberPencil` of f, and
their rows removed when f - lambda is reducible. The small-height sweep,
+-n/q for coprime n, q <= h and 0, is read off the grid the same way in
integers, with no Fraction list built or sorted.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import BoundViolated, CertificationFailed, ConstantPolynomial, DegenerateSystem
from .factor import FactorList, FiberPencil, factor_rational, rational_roots
from .poly import (
    BiPoly,
    IntegerGrid,
    bi_gcd,
    horner_all,
    integer_grid,
    resultant_eliminating,
    shift_all,
    uni_gcd,
)
from .spectrum import coprime_pairs

CurveKey = tuple[int, ...]  # row_b(X - D a) = S * T(X / D), see the module docstring


@dataclass(frozen=True)
class CurveFamily:
    classes: dict[CurveKey, list[tuple[int, int]]]  # (index of a, index of b) in base, in build order
    removed_b: tuple[Fraction, ...]
    base: tuple[Fraction, ...]
    degree: int
    grid: IntegerGrid  # f over `base`, rescaled to integers
    max_class_size: int  # members of the largest class, 0 when there is none

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def histogram(self) -> Counter[int]:
        """Number of classes of each size."""
        return Counter(map(len, self.classes.values()))

    def curve_key(self, key: CurveKey) -> tuple[Fraction, ...]:
        """Coefficients t_i = key_i D^i / S of the class's curve, ascending."""
        D, S = self.grid.D, self.grid.S
        return tuple(Fraction(c * D**i, S) for i, c in enumerate(key))

    def members(self, key: CurveKey) -> tuple[tuple[Fraction, Fraction], ...]:
        """The pairs (a, b) of the class, sorted."""
        return tuple((self.base[i], self.base[j]) for i, j in sorted(self.classes[key]))


def build_family(f: BiPoly, A) -> CurveFamily:
    """Group all (a, b) pairs over the pruned set by their curve key.

    Rows b with f(x, b) identically zero are dropped first; a degree-k
    polynomial admits at most k such rows, and the pruned set replaces A in
    both coordinates.
    """
    if f.is_constant:
        raise ConstantPolynomial("family needs a nonconstant polynomial")
    k = f.total_degree
    elements = sorted(set(Fraction(v) for v in A))
    full = integer_grid(f, elements)
    removed = tuple(b for b, row in zip(elements, full.rows) if not row)
    if len(removed) > k:
        raise CertificationFailed("zero-row count exceeds the degree bound")
    kept = tuple(b for b, row in zip(elements, full.rows) if row)
    grid = integer_grid(f, kept) if removed else full
    groups: dict[CurveKey, list[tuple[int, int]]] = {}
    shifts = tuple(-p for p in grid.points)
    for j, row in enumerate(grid.rows):
        for i, key in enumerate(shift_all(row, shifts)):
            groups.setdefault(key, []).append((i, j))
    largest = max(map(len, groups.values()), default=0)
    return CurveFamily(
        classes=groups, removed_b=removed, base=kept, degree=k, grid=grid, max_class_size=largest
    )


@dataclass(frozen=True)
class ClassBoundReport:
    max_class_size: int
    class_count: int
    size_bound: int
    count_floor_num: int  # |A'|^2, compared as class_count * k^3 >= |A'|^2
    composite_witness: tuple[tuple[Fraction, ...], tuple] | None


def _largest_class(family: CurveFamily) -> tuple[tuple[Fraction, ...], tuple] | None:
    """The largest class, ties going to the largest key, in the Fraction view."""
    classes = family.classes
    key = max(classes, key=lambda kk: (len(classes[kk]), kk), default=None)
    return None if key is None else (family.curve_key(key), family.members(key))


def check_class_bound(family: CurveFamily, composite: bool) -> ClassBoundReport:
    """Check the k^3 class-size ceiling and the |A'|^2/k^3 class-count floor,
    k the family's degree.

    For a composite polynomial the bounds can fail legitimately; the largest
    class is returned as the witness instead. Either witness is the largest
    class, ties going to the largest key, in the Fraction view (`curve_key`,
    `members`); the integer keys order as the Fraction ones do.
    """
    n = len(family.base)
    bound = family.degree**3
    mx = family.max_class_size
    cnt = family.class_count
    if composite:
        return ClassBoundReport(mx, cnt, bound, n * n, _largest_class(family))
    if mx > bound:
        raise BoundViolated(
            f"class of size {mx} exceeds {bound} for a non-composite polynomial",
            witness=_largest_class(family),
        )
    if cnt * bound < n * n:
        raise BoundViolated(
            f"class count {cnt} below the floor {n * n}/{bound}", witness=None
        )
    return ClassBoundReport(mx, cnt, bound, n * n, None)


@dataclass(frozen=True)
class IncidenceReport:
    point_count: int
    curve_count: int
    incidences: int
    alpha: int
    beta: int
    szekely_terms: tuple[float, float, float]
    szekely_ratio: float
    per_curve_min: int
    removed_points: int


def incidence_report(
    pencil: FiberPencil, A, candidates=(), sweep_height: int | None = None
) -> tuple[IncidenceReport, CurveFamily]:
    """Count exact incidences between the pruned grid and the curves of f = `pencil.f`.

    Points are (sum, value) pairs from (A'+A') x f(A', A') minus the rows
    whose value is a candidate lambda with f - lambda reducible over C (only
    candidates on the grid are tested, and no fiber is factored): the given
    `candidates`, plus `spectrum.sweep_candidates(sweep_height)` unless the
    height is None, tested on `pencil`. Each curve is a graph, so it meets a
    column of the grid at most once and the count per curve is the number of
    sums s with T(s) a kept value. On the integer grid that is
    the popcount of hit_b & reach_a (see the module docstring).
    """
    family = build_family(pencil.f, A)
    grid = family.grid
    S = grid.S
    sums = grid.sumset()
    values = grid.image()
    on_grid = {}  # scaled value -> lambda
    for lam in map(Fraction, candidates):
        v, r = divmod(lam.numerator * S, lam.denominator)
        if not r and v in values:
            on_grid[v] = lam
    if sweep_height is not None:
        on_grid.update((v, Fraction(v, S)) for v in _sweep_on_grid(values, S, sweep_height))
    removed = {v for v, lam in on_grid.items() if pencil.witness(lam) is not None}
    kept_values = values - removed
    index = {d: k for k, d in enumerate({s - p for s in sums for p in grid.points})}
    diffs = tuple(index)
    hit = [_mask(bytes(map(kept_values.__contains__, horner_all(row, diffs)))) for row in grid.rows]
    reach = []
    for p in grid.points:
        flags = bytearray(len(diffs))
        for s in sums:
            flags[index[s - p]] = 1
        reach.append(_mask(flags))
    # every member of a class has the class's curve, so any one counts it
    firsts = (members[0] for members in family.classes.values())
    per_curve = [(hit[j] & reach[i]).bit_count() for i, j in firsts]
    total = sum(per_curve)
    k = family.degree
    alpha = k
    beta = k * k
    P = len(sums) * len(kept_values)
    L = family.class_count
    terms = (
        (alpha**0.5) * (beta ** (1 / 3)) * (P ** (2 / 3)) * (L ** (2 / 3)),
        float(L),
        float(beta * P),
    )
    bound = sum(terms)
    report = IncidenceReport(
        point_count=P,
        curve_count=L,
        incidences=total,
        alpha=alpha,
        beta=beta,
        szekely_terms=terms,
        szekely_ratio=(total / bound) if bound else 0.0,
        per_curve_min=min(per_curve, default=0),
        removed_points=len(sums) * len(removed),
    )
    return report, family


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _mask(flags: bytes | bytearray) -> int:
    """The 0/1 flags, one per element of the difference set, read as binary
    digits: element k has the same bit in every mask of one count."""
    return int(flags.translate(_DIGITS), 2)


def _sweep_on_grid(values: set[int], S: int, height: int) -> list[int]:
    """The scaled values S * lambda in `values` of the sweep lambdas: 0 and
    +-n/q for coprime 1 <= n, q <= height. As gcd(n, q) = 1, S n / q is an
    integer exactly when q divides S."""
    out = [0] if 0 in values else []
    for n, q in coprime_pairs(height):
        if not S % q:
            v = n * (S // q)
            out += (w for w in (v, -v) if w in values)
    return out


@dataclass(frozen=True)
class SolutionCount:
    """Rational common solutions of the two-curve system (an undercount of
    the complex Bezout total, which still tests the k^2 ceiling)."""

    count: int
    solutions: tuple[tuple[Fraction, Fraction], ...]


@dataclass(frozen=True)
class CommonFactor:
    factors: FactorList


def curve_pair_solutions(
    f: BiPoly, p1: tuple[Fraction, Fraction], p2: tuple[Fraction, Fraction]
) -> SolutionCount | CommonFactor:
    """Solve {f(x0 - a, b) = y0, f(x0' - a, b) = y0'} for pairs (a, b).

    With no common factor the curves meet in at most k^2 points; the rational
    solutions are found by eliminating a with a resultant and
    back-substituting. A nonconstant gcd is returned as a factorization
    certificate instead.
    """
    if p1 == p2:
        raise ValueError("points must be distinct")
    (x0, y0), (x1, y1) = p1, p2
    k = f.total_degree
    F1 = f.subst_x_affine(Fraction(x0), Fraction(-1)) - BiPoly.const(Fraction(y0))
    F2 = f.subst_x_affine(Fraction(x1), Fraction(-1)) - BiPoly.const(Fraction(y1))
    if F1.is_zero or F2.is_zero:
        raise DegenerateSystem("a curve equation collapsed to zero")
    g = bi_gcd(F1, F2)
    if not g.is_constant:
        return CommonFactor(factor_rational(g))
    if F1.deg_x <= 0 and F2.deg_x <= 0:
        # both equations constrain y alone and share no root
        return SolutionCount(0, ())
    elim = resultant_eliminating(F1, F2)
    if elim.is_zero:
        raise CertificationFailed("coprime curves have a zero eliminant")
    solutions = []
    if elim.degree >= 1:
        ys = rational_roots(elim)
    else:
        ys = []
    for yv in ys:
        u1 = F1.specialize_y(yv)
        u2 = F2.specialize_y(yv)
        if u1.is_zero and u2.is_zero:
            raise CertificationFailed("common line despite constant gcd")
        if u1.is_zero:
            shared = u2
        elif u2.is_zero:
            shared = u1
        else:
            shared = uni_gcd(u1, u2)
        if shared.degree >= 1:
            for xv in rational_roots(shared):
                solutions.append((xv, yv))
    count = len(solutions)
    if count > k * k:
        raise BoundViolated(
            f"{count} rational solutions exceed the ceiling {k * k}",
            witness=tuple(solutions),
        )
    return SolutionCount(count, tuple(sorted(solutions)))
