"""Search for and certify reducible fibers f - lambda.

Candidate lambdas come from three sources: the rational spectrum of the
fiber pencil, a small-height sweep, and user-supplied values. The spectrum
is read off the rank drop of the Ruppert pencil (`factor.FiberPencil`):
with t = lambda / s, the system of f - lambda loses column rank exactly
where the fiber is reducible, so every maximal minor D(t) of its lambda
block vanishes there. When a minor is not identically zero, its rational
roots form a finite list that holds every rational lambda with f - lambda
reducible over C: the list is complete over Q. The `factor` module
docstring shows which minor is taken, how it is made exact over Q, and how
its roots where the rank does not drop are left out. When the lambda block
loses rank everywhere, as it does when every fiber is reducible (composite
or univariate f), there is no finite list and the candidates are the sweep
and the user values.

An f that decomposes as f = Q(g) (`FiberPencil.decomposition`, read once
per pencil) has no spectrum, whatever asks first: every fiber is reducible,
so its rank-drop polynomial is never computed, and its candidates are the
sweep and the user values. Candidate lists are deduplicated and ordered on
integer keys (`ordered_distinct`).

The scan then decides reducibility of every candidate fiber with a
certificate; the fibers of a bivariate composite f = Q(g) within the
degree cap are factored through Q - lambda (`factor.factor_composed`).
Membership of a tested lambda is certified either way. The report is
`candidates_complete` when the candidates held the spectrum, so that its
hits are every rational lambda with a reducible fiber; completeness over
all complex lambda is not claimed.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import CertificationFailed, ConstantPolynomial, HypothesisViolated
from .factor import (
    AbsReducibleWitness,
    FactorList,
    DEFAULT_DEGREE_CAP,
    FiberPencil,
    factor_composed,
    factor_rational,
)
from .parsing import format_bipoly
from .poly import BiPoly, UniPoly, uni_gcd

DEFAULT_SWEEP_HEIGHT = 5


@dataclass(frozen=True)
class SigmaHit:
    """One certified reducible fiber."""

    lam: Fraction
    certificate: FactorList | AbsReducibleWitness

    def revalidate(self, f: BiPoly) -> bool:
        fiber = f - BiPoly.const(self.lam)
        if isinstance(self.certificate, FactorList):
            return (
                self.certificate.verify(fiber)
                and self.certificate.nontrivial_pieces() >= 2
            )
        return self.certificate.revalidate(fiber)


@dataclass(frozen=True)
class SigmaReport:
    degree_k: int
    found: tuple[SigmaHit, ...]
    candidate_count: int
    stein_bound_respected: bool
    candidates_complete: bool  # every rational lambda with a reducible fiber was tested

    @property
    def found_values(self) -> tuple[Fraction, ...]:
        return tuple(hit.lam for hit in self.found)

    def to_dict(self) -> dict:
        return {
            "degree_k": self.degree_k,
            "found": [
                {
                    "lambda": str(hit.lam),
                    "certificate": _certificate_summary(hit.certificate),
                }
                for hit in self.found
            ],
            "candidate_count": self.candidate_count,
            "candidates_complete": self.candidates_complete,
            "stein_bound_respected": self.stein_bound_respected,
        }


def _certificate_summary(cert) -> dict:
    if isinstance(cert, FactorList):
        return {
            "kind": "rational-factorization",
            "constant": str(cert.constant),
            "factors": [
                {"poly": format_bipoly(p), "multiplicity": m} for p, m in cert.factors
            ],
        }
    return {"kind": f"absolute-{cert.kind}", "value": cert.value}


# ---------------------------------------------------------------------------
# candidates


def rational_critical_values(pencil: FiberPencil) -> list[Fraction] | None:
    """Every rational lambda with f - lambda reducible over C, f = `pencil.f`,
    read off the rank drop of the pencil (`FiberPencil.spectrum`); None when
    f has no such finite list (composite or univariate f)."""
    return None if pencil.spectrum is None else list(pencil.spectrum)


def coprime_pairs(height: int) -> Iterator[tuple[int, int]]:
    """The pairs (n, q) with 1 <= n, q <= height and gcd(n, q) = 1: the
    nonzero sweep values are exactly the +-n/q, each once."""
    for q in range(1, height + 1):
        for n in range(1, height + 1):
            if gcd(n, q) == 1:
                yield n, q


def ordered_distinct(values) -> list[Fraction]:
    """The distinct values, ints or Fractions, as Fractions in increasing
    order; a Fraction is returned as given, not rebuilt.

    A value n/d in lowest terms is keyed by the integer n (M // d), M the
    lcm of the denominators: an increasing injection, so equal keys are
    equal values and the key order is the value order. No Fraction is
    hashed or compared.
    """
    values = [v if isinstance(v, Fraction) else Fraction(v) for v in values]
    M = lcm(*(v.denominator for v in values))
    by_key = {v.numerator * (M // v.denominator): v for v in values}
    return [by_key[key] for key in sorted(by_key)]


def sweep_candidates(height: int = DEFAULT_SWEEP_HEIGHT) -> list[Fraction]:
    """All reduced p/q with |p| <= height and 1 <= q <= height, plus zero."""
    out = [Fraction(0)]
    for n, q in coprime_pairs(height):
        out += Fraction(n, q), Fraction(-n, q)
    return ordered_distinct(out)


def sigma_candidates(
    pencil: FiberPencil,
    extra: tuple[Fraction, ...] = (),
    sweep_height: int = DEFAULT_SWEEP_HEIGHT,
) -> list[Fraction]:
    """Candidate lambdas for `pencil.f`: its rational spectrum when it has
    one (`rational_critical_values`), small-height sweep, user values."""
    if pencil.f.is_constant:
        raise ConstantPolynomial("candidates need a nonconstant polynomial")
    return ordered_distinct([*sweep_candidates(sweep_height), *extra, *(rational_critical_values(pencil) or ())])


# ---------------------------------------------------------------------------
# scan


def _composed_dimension(outer: UniPoly, drop: UniPoly | None, lam: Fraction, pencil: FiberPencil) -> int:
    """Ruppert dimension of the fiber outer(g) - lambda of f = outer(g) =
    `pencil.f`, for `drop` vanishing at every complex alpha with g - alpha
    reducible over C (None when there is none), when the factorization of
    the fiber has one piece, so that outer - lambda is irreducible over Q
    and hence squarefree.

    When gcd(outer - lambda, drop) = 1, no root alpha of outer - lambda has
    g - alpha reducible over C: the fiber is a product of deg outer coprime
    absolutely irreducible g - alpha, and its dimension is that count
    (Ruppert). Else the pencil decides.
    """
    if drop is not None and uni_gcd(outer - lam, drop).degree == 0:
        return outer.degree
    count = pencil.dimension(lam)
    if count < 2:
        raise CertificationFailed(f"the fiber at {lam} of a composite tested absolutely irreducible")
    return count


def sigma_scan(pencil: FiberPencil, candidates: list[Fraction], cap: int = DEFAULT_DEGREE_CAP) -> SigmaReport:
    """Certify reducibility of f - lambda for every candidate lambda, f =
    `pencil.f`. The report is `candidates_complete` when f has a
    rational spectrum (`FiberPencil.spectrum`) and the candidates hold it:
    every rational lambda with f - lambda reducible was then tested. With a
    spectrum, a candidate outside it is absolutely irreducible and skipped;
    a candidate in it has its dimension already certified on the pencil.

    A composite f = Q(g) (`FiberPencil.decomposition`) has no spectrum.
    When f is bivariate and within the degree cap, every fiber
    Q(g) - lambda is factored through Q - lambda
    (`factor.factor_composed`), with the rank-drop polynomial of g computed
    once and no call on f's pencil unless that factorization has one piece
    (`_composed_dimension`). An f over the cap takes the route of a
    non-composite: its first reducible fiber exceeds the cap when it is
    factored.
    """
    f = pencil.f
    k = f.total_degree
    if k < 2:
        raise HypothesisViolated("scan needs total degree >= 2")
    lams = ordered_distinct(candidates)
    hits = []
    spectrum = pencil.spectrum
    dec = pencil.decomposition if not pencil.univariate and k <= cap else None
    if dec is not None:
        outer = dec.outer
        # a linear form has no reducible fiber (x -> x + c y is an
        # automorphism of Q[x, y])
        drop = UniPoly.const(1) if dec.degenerate else FiberPencil(dec.inner).drop
    elif spectrum is not None:
        on_spectrum = {(v.numerator, v.denominator) for v in spectrum}
    for lam in lams:
        if dec is not None:
            factorization = factor_composed(f - BiPoly.const(lam), outer - lam, dec.inner, drop, cap=cap)
            witness = None
        else:
            # off the spectrum f - lambda is absolutely irreducible
            if spectrum is not None and (lam.numerator, lam.denominator) not in on_spectrum:
                continue
            witness = pencil.witness(lam)
            if witness is None:
                continue
            if witness.kind == "univariate":
                hits.append(SigmaHit(lam, witness))
                continue
            factorization = factor_rational(f - BiPoly.const(lam), cap=cap)
        cert: FactorList | AbsReducibleWitness = factorization
        if factorization.nontrivial_pieces() < 2:
            cert = witness or AbsReducibleWitness("nullspace", _composed_dimension(outer, drop, lam, pencil))
        hits.append(SigmaHit(lam, cert))
    return SigmaReport(
        degree_k=k,
        found=tuple(hits),
        candidate_count=len(lams),
        stein_bound_respected=len(hits) < k,
        candidates_complete=spectrum is not None and len(ordered_distinct([*lams, *spectrum])) == len(lams),
    )


# ---------------------------------------------------------------------------
# row removal


@dataclass(frozen=True)
class PrunedGrid:
    """The product grid sums x values with whole reducible-value rows removed."""

    sums: tuple[Fraction, ...]
    kept_values: tuple[Fraction, ...]
    removed_values: tuple[Fraction, ...]

    @property
    def point_count(self) -> int:
        return len(self.sums) * len(self.kept_values)

    @property
    def removed_count(self) -> int:
        return len(self.sums) * len(self.removed_values)


def remove_sigma_rows(sums, values, report: SigmaReport) -> PrunedGrid:
    """Remove every row whose value is a certified reducible-fiber lambda."""
    sums_t = tuple(sorted(set(Fraction(v) for v in sums)))
    values_set = set(Fraction(v) for v in values)
    flagged = set(report.found_values)
    kept = tuple(sorted(values_set - flagged))
    removed = tuple(sorted(values_set & flagged))
    return PrunedGrid(sums=sums_t, kept_values=kept, removed_values=removed)
