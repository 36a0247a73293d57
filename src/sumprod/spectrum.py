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

The scan then decides reducibility of every candidate fiber with a
certificate; the fibers of a composite f = Q(g) are factored through
Q - lambda (`composite_split`, `factor.factor_composed`). Membership of a
tested lambda is certified either way. The report is `candidates_complete`
when the candidates held the spectrum, so that its hits are every rational
lambda with a reducible fiber; completeness over all complex lambda is not
claimed.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .classify import decompose
from .errors import CertificationFailed, ConstantPolynomial, HypothesisViolated
from .factor import (
    AbsReducibleWitness,
    FactorList,
    DEFAULT_DEGREE_CAP,
    FiberPencil,
    factor_composed,
    factor_rational,
)
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
    from .parsing import format_bipoly

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


def sweep_candidates(height: int = DEFAULT_SWEEP_HEIGHT) -> list[Fraction]:
    """All reduced p/q with |p| <= height and 1 <= q <= height, plus zero."""
    out = [Fraction(0)]
    for n, q in coprime_pairs(height):
        out += Fraction(n, q), Fraction(-n, q)
    return sorted(out)


def sigma_candidates(
    pencil: FiberPencil,
    extra: tuple[Fraction, ...] = (),
    sweep_height: int = DEFAULT_SWEEP_HEIGHT,
) -> list[Fraction]:
    """Candidate lambdas for `pencil.f`: its rational spectrum when it has
    one (`rational_critical_values`), small-height sweep, user values."""
    if pencil.f.is_constant:
        raise ConstantPolynomial("candidates need a nonconstant polynomial")
    cands = set(sweep_candidates(sweep_height))
    cands.update(Fraction(v) for v in extra)
    cands.update(rational_critical_values(pencil) or ())
    return sorted(cands)


# ---------------------------------------------------------------------------
# scan


def composite_split(f: BiPoly) -> tuple[UniPoly, BiPoly, UniPoly | None] | None:
    """(Q, g, drop) with f = Q(g), deg Q >= 2, and `drop` vanishing at every
    complex lambda with g - lambda reducible over C (None when the pencil of
    g gives no such polynomial); None when f, bivariate, has no inner g of
    lower degree (f is not composite).

    Q and g are the outer and inner of the `decompose` decomposition. A
    linear form has no reducible fiber (x -> x + c y is an automorphism of
    Q[x, y]), so its `drop` is the constant 1.
    """
    dec = decompose(f)
    if dec is None:
        return None
    return dec.outer, dec.inner, UniPoly.const(1) if dec.degenerate else FiberPencil(dec.inner).drop


def _composed_dimension(split, lam: Fraction, pencil: FiberPencil) -> int:
    """Ruppert dimension of the fiber Q(g) - lambda of a `composite_split`
    (Q, g, drop) whose factorization has one piece, so that Q - lambda is
    irreducible over Q and hence squarefree.

    When gcd(Q - lambda, drop) = 1, no root alpha of Q - lambda has g - alpha
    reducible over C: the fiber is a product of deg Q coprime absolutely
    irreducible g - alpha, and its dimension is that count (Ruppert). Else
    the pencil decides.
    """
    outer, _, drop = split
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

    A bivariate f without a spectrum within the degree cap is split once as
    f = Q(g) (`composite_split`) when it is composite. Every fiber
    Q(g) - lambda is then reducible over C and is factored through
    Q - lambda (`factor.factor_composed`), with no call on the pencil unless
    that factorization has one piece (`_composed_dimension`).
    """
    f = pencil.f
    k = f.total_degree
    if k < 2:
        raise HypothesisViolated("scan needs total degree >= 2")
    lams = sorted(set(map(Fraction, candidates)))
    hits = []
    spectrum = pencil.spectrum
    split = None
    if spectrum is None and not pencil.univariate and k <= cap:
        split = composite_split(f)
    for lam in lams:
        if split is not None:
            outer, core, drop = split
            factorization = factor_composed(f - BiPoly.const(lam), outer - lam, core, drop, cap=cap)
            witness = None
        else:
            # off the spectrum f - lambda is absolutely irreducible
            if spectrum is not None and lam not in spectrum:
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
            cert = witness or AbsReducibleWitness("nullspace", _composed_dimension(split, lam, pencil))
        hits.append(SigmaHit(lam, cert))
    return SigmaReport(
        degree_k=k,
        found=tuple(hits),
        candidate_count=len(lams),
        stein_bound_respected=len(hits) < k,
        candidates_complete=spectrum is not None and set(spectrum) <= set(lams),
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
