"""Search for and certify reducible fibers f - lambda.

Candidate lambdas come from three sources: rational critical values of f
(obtained by eliminating x and then y from the system {f - lambda, f_x, f_y}
with resultants), a small-height rational sweep, and user-supplied values.
Every resultant is the modular `poly.resultant_eliminating`. For a
univariate f, lambda stands on the free y axis, so one resultant gives the
eliminant; for a bivariate f, the resultants that keep lambda symbolic are
evaluated at integer lambdas and interpolated.
The scan then decides reducibility of every candidate fiber with a
certificate. Membership of a tested lambda is certified either way;
completeness over all complex lambda is not claimed.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import FactorBudgetExceeded
from .factor import (
    AbsReducibleWitness,
    FactorList,
    DEFAULT_DEGREE_CAP,
    FiberPencil,
    _interpolate,
    factor_rational,
    rational_roots,
)
from .poly import BiPoly, resultant_eliminating, uni_squarefree_part

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


def _resultant_x_with_lambda(f: BiPoly, g: BiPoly) -> BiPoly:
    """res_x(f - lambda, g) as a polynomial in (y, lambda), y on axis 0.

    lambda only enters the x^0 coefficient of f - lambda, so the Sylvester
    matrix has the same shape for every lambda, and lambda fills one entry in
    each of deg_x g rows. The resultant therefore has lambda-degree at most
    deg_x g, and its values at lambda = 0, 1, ..., deg_x g determine each
    y-coefficient exactly by interpolation.
    """
    values = [resultant_eliminating(f - BiPoly.const(t), g, "x") for t in range(g.deg_x + 1)]
    return BiPoly(
        {
            (j, k): v
            for j in set().union(*(r.c for r in values))
            for k, v in _interpolate([(t, r.coeff(j)) for t, r in enumerate(values)]).c.items()
        }
    )


def rational_critical_values(f: BiPoly) -> list[Fraction]:
    """Rational roots of the eliminant of {f - lambda, f_x, f_y}.

    Spurious roots from resultant inflation are acceptable; the scan filters
    every candidate by an actual reducibility test. When the root search runs
    out of budget, the critical values are skipped with a logged warning.
    """
    fx = f.derivative("x")
    fy = f.derivative("y")
    if fx.is_zero and fy.is_zero:
        return []
    if fx.is_zero or fy.is_zero:
        # univariate f: critical values are f at the roots of f', the roots
        # of res_x(p(x) - lambda, p'(x)) with lambda on the y axis
        p, _ = f.to_unipoly()
        elim = resultant_eliminating(p.to_bipoly("x") - BiPoly.y(), p.derivative().to_bipoly("x"), "x")
    else:
        r1 = _resultant_x_with_lambda(f, fx)
        r2 = _resultant_x_with_lambda(f, fy)
        if r1.is_zero or r2.is_zero:
            return []
        if r1.deg_x <= 0 and r2.deg_x <= 0:
            # no y left to eliminate; any common root shows up in either one
            elim = next((p for p in (r1.to_unipoly()[0], r2.to_unipoly()[0]) if p.degree >= 1), None)
        else:
            elim = resultant_eliminating(r1, r2, "x")
    if elim is None or elim.is_zero or elim.degree < 1:
        return []
    try:
        return rational_roots(uni_squarefree_part(elim))
    except FactorBudgetExceeded as exc:
        import logging  # imported on this rare path only, to keep it out of every start-up

        logging.getLogger(__name__).warning(
            "sigma: rational critical values skipped, their root search ran out of budget: %s", exc
        )
        return []


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
    f: BiPoly,
    extra: tuple[Fraction, ...] = (),
    sweep_height: int = DEFAULT_SWEEP_HEIGHT,
) -> list[Fraction]:
    """Candidate lambdas: critical values, small-height sweep, user values."""
    if f.is_constant:
        raise ValueError("candidates need a nonconstant polynomial")
    cands = set(sweep_candidates(sweep_height))
    cands.update(Fraction(v) for v in extra)
    cands.update(rational_critical_values(f))
    return sorted(cands)


# ---------------------------------------------------------------------------
# scan


def sigma_scan(
    f: BiPoly,
    candidates: list[Fraction],
    cap: int = DEFAULT_DEGREE_CAP,
) -> SigmaReport:
    """Certify reducibility of f - lambda for every candidate lambda."""
    k = f.total_degree
    if k < 2:
        raise ValueError("scan needs total degree >= 2")
    lams = sorted(set(map(Fraction, candidates)))
    hits = []
    pencil = FiberPencil(f)
    for lam in lams:
        status = pencil.status(lam)
        if not status.reducible:
            continue
        fiber = f - BiPoly.const(lam)
        cert: FactorList | AbsReducibleWitness
        if status.kind == "univariate":
            p, _ = fiber.to_unipoly()
            cert = AbsReducibleWitness("univariate", p.degree)
        else:
            factorization = factor_rational(fiber, cap=cap)
            if factorization.nontrivial_pieces() >= 2:
                cert = factorization
            else:
                cert = AbsReducibleWitness("nullspace", status.abs_count)
        hits.append(SigmaHit(lam, cert))
    return SigmaReport(
        degree_k=k,
        found=tuple(hits),
        candidate_count=len(lams),
        stein_bound_respected=len(hits) < k,
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
