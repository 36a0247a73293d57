"""Classification of bivariate polynomials by composition structure.

A polynomial is *degenerate* when it is an outer univariate polynomial applied
to a linear form a*x + b*y, and *composite* when it is an outer polynomial of
degree >= 2 applied to any inner bivariate polynomial. Degeneracy is decided
by gradient proportionality with a verified certificate. Compositeness is
decided through the Stein bound: a non-composite polynomial of total degree k
has fewer than k reducible fibers f - lambda, so testing k distinct fibers is
conclusive in both directions.

A composite f is split by two integer linear systems: the Jacobian kernel
{h : f_x h_y = f_y h_x}, built from the primitive integer coefficients of f,
holds the inner polynomial, and the outer one solves f = sum u_i inner^i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import CertificationFailed, ConstantPolynomial, HypothesisViolated
from .factor import FiberPencil
from .poly import BiPoly, UniPoly


@dataclass(frozen=True)
class LinearForm:
    """A nonzero form alpha*x + beta*y, scaled so the first nonzero entry is 1."""

    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        if not self.alpha and not self.beta:
            raise ValueError("zero linear form")
        lead = self.alpha if self.alpha else self.beta
        if lead != 1:
            object.__setattr__(self, "alpha", self.alpha / lead)
            object.__setattr__(self, "beta", self.beta / lead)

    def to_bipoly(self) -> BiPoly:
        return BiPoly({(1, 0): self.alpha, (0, 1): self.beta})


@dataclass(frozen=True)
class Decomposition:
    """A verified degenerate decomposition f = outer(inner), with inner the
    linear form `linear`."""

    outer: UniPoly
    inner: BiPoly
    linear: LinearForm

    def expand(self) -> BiPoly:
        return self.outer.compose_bi(self.inner)

    def verify(self, f: BiPoly) -> bool:
        return self.expand() == f


@dataclass(frozen=True)
class CompositenessVerdict:
    composite: bool
    witness_lambdas: tuple[Fraction, ...] = ()
    certificate_lambda: Fraction | None = None
    univariate: bool = False


def normalize_orientation(f: BiPoly) -> tuple[BiPoly, bool]:
    """Swap the variables when deg_x < deg_y; the image set over A x A is unchanged."""
    if f.is_constant:
        raise ConstantPolynomial("orientation of a constant is undefined")
    if f.deg_x < f.deg_y:
        return f.swap(), True
    return f, False


def is_degenerate(f: BiPoly) -> Decomposition | None:
    """Certificate that f is an outer polynomial of a linear form, or None.

    When both partial derivatives are nonzero, f has this shape exactly when
    f_x is a constant multiple c of f_y, and then f = Q(x + y/c) with Q read
    off the specialization y = 0. The certificate is re-expanded before it is
    returned.
    """
    if f.is_constant:
        raise ConstantPolynomial("cannot classify a constant")
    fx = f.derivative("x")
    fy = f.derivative("y")
    if fx.is_zero or fy.is_zero:
        outer, var = f.to_unipoly()
        form = LinearForm(Fraction(var == "x"), Fraction(var == "y"))
        dec = Decomposition(outer, form.to_bipoly(), form)
        if not dec.verify(f):
            raise CertificationFailed(f"{var}-only polynomial failed to re-expand from its coefficients")
        return dec
    key, lead = fy.leading_term()
    c = fx.coeff(*key) / lead
    if not c or fx != fy * c:
        return None
    form = LinearForm(c, Fraction(1))  # canonicalizes to x + y/c
    outer = f.specialize_y(0)
    dec = Decomposition(outer, form.to_bipoly(), form)
    if not dec.verify(f):
        return None
    return dec


def is_composite(
    f: BiPoly, lam_schedule: tuple[Fraction, ...] | None = None
) -> CompositenessVerdict:
    """Decide whether f = Q(g) for some outer Q of degree >= 2.

    Tests k = total-degree distinct fibers f - lambda for reducibility over
    the complex numbers. A composite polynomial has every fiber reducible; a
    non-composite one has fewer than k reducible fibers in total, so some
    sampled fiber is irreducible and certifies the verdict.
    """
    k = f.total_degree
    if k < 2:
        raise ValueError("compositeness needs total degree >= 2")
    if f.deg_x <= 0 or f.deg_y <= 0:
        # a one-variable polynomial of degree >= 2 is its own outer polynomial
        return CompositenessVerdict(composite=True, univariate=True)
    if lam_schedule is not None:
        lams = [Fraction(v) for v in lam_schedule]
        if len(set(lams)) != k:
            raise ValueError(f"schedule must contain exactly {k} distinct values")
    else:
        lams = [Fraction(j) for j in range(1, k + 1)]
    witnesses = []
    pencil = FiberPencil(f)
    for lam in lams:
        if not pencil.status(lam).reducible:
            return CompositenessVerdict(composite=False, certificate_lambda=lam)
        witnesses.append(lam)
    return CompositenessVerdict(composite=True, witness_lambdas=tuple(witnesses))


# ---------------------------------------------------------------------------
# constructive decomposition


def _divisors_ascending(n: int) -> list[int]:
    return [d for d in range(2, n // 2 + 1) if n % d == 0]


def _jacobian_columns(f: BiPoly, monomials: list[tuple[int, int]]) -> list[dict]:
    """Sparse integer columns of h -> f_x h_y - f_y h_x, f scaled to its
    primitive part in Z[x, y]; column k is the image of h = x^i y^j,
    (i, j) = monomials[k], keyed by monomial."""
    ints = f.scaled_ints()[1]
    # read off term by term from the integer coefficients c of f
    return [
        {(u + i - 1, v + j - 1): (u * j - v * i) * c for (u, v), c in ints.items() if u * j != v * i}
        for i, j in monomials
    ]


def _jacobian_kernel(f: BiPoly, d: int) -> list[BiPoly]:
    """Basis of {h : deg h <= d, f_x * h_y = f_y * h_x}.

    Every solution is a polynomial in a common inner of f, so a nonconstant
    kernel element of minimal degree is an inner polynomial of f.
    """
    monomials = [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]
    basis = linalg.nullspace_basis(_jacobian_columns(f, monomials))
    return [BiPoly(dict(zip(monomials, vec))) for vec in basis]


def _solve_outer(f: BiPoly, g: BiPoly, m: int) -> UniPoly | None:
    """Solve f = sum u_i g^i for scalar coefficients u_0..u_m, g in Z[x, y].

    The columns are the integer coefficients of the powers of g, and the
    right-hand side those of f.
    """
    powers = [BiPoly.const(1)]
    for _ in range(m):
        powers.append(powers[-1] * g)
    # solved for the numerators of f, so the outer polynomial is sol / f.d
    sol = linalg.solve_exact([p.n for p in powers], f.n)
    if sol is None:
        return None
    outer = UniPoly(dict(enumerate(sol))) * Fraction(1, f.d)
    return outer if outer.compose_bi(g) == f else None


def _split_right(u: UniPoly, s: int) -> tuple[UniPoly, UniPoly] | None:
    """Find u = P(S) with deg S = s, S monic and S(0) = 0, if one exists.

    The top coefficients of u pin S uniquely under this normalization; the
    S-adic digits of u then either are all constants (giving P) or rule the
    split out.
    """
    n = u.degree
    p = n // s
    w = u.monic()
    S = UniPoly({s: 1})
    for i in range(1, s):
        t = S**p
        delta = w.coeff(n - i) - t.coeff(n - i)
        if delta:
            S = S + UniPoly({s - i: delta / p})
    digits = []
    rem = u
    while not rem.is_zero:
        rem, digit = rem.divrem(S)
        if digit.degree > 0:
            return None
        digits.append(digit.coeff(0))
    P = UniPoly(dict(enumerate(digits)))
    if P.compose(S) != u:
        return None
    return P, S


def decompose_chain(u: UniPoly) -> list[UniPoly]:
    """Split a univariate polynomial into indecomposable compositional pieces.

    Returns [q1, q2, ..., qr] with u = q1(q2(...qr...)); a polynomial with no
    proper split comes back as a one-element chain.
    """
    n = u.degree
    if n < 2:
        return [u]
    for s in range(2, n // 2 + 1):
        if n % s:
            continue
        got = _split_right(u, s)
        if got is not None:
            P, S = got
            return decompose_chain(P) + [S]
    return [u]


def recompose(chain: list[UniPoly], core: BiPoly) -> BiPoly:
    acc = core
    for q in reversed(chain):
        acc = q.compose_bi(acc)
    return acc


def decompose_fully(f: BiPoly) -> tuple[BiPoly, list[UniPoly]]:
    """Strip outer univariate layers down to a non-composite core.

    Returns (core, chain) with f = chain[0] o ... o chain[-1] o core; the
    chain is empty when f is already non-composite. Requires a non-degenerate
    input, since a degenerate polynomial bottoms out in a linear form rather
    than a bivariate core.
    """
    if is_degenerate(f) is not None:
        raise HypothesisViolated("decomposition core requires a non-degenerate input")
    if f.total_degree < 2 or not is_composite(f).composite:
        return f, []
    return decompose_composite(f)


def decompose_composite(f: BiPoly) -> tuple[BiPoly, list[UniPoly]]:
    """Core and chain of f, already known to be composite and non-degenerate.

    The core is the nonconstant Jacobian-kernel element of least degree; it
    and the chain are re-expanded to f before they are returned.
    """
    k = f.total_degree
    for d in _divisors_ascending(k):
        kernel = _jacobian_kernel(f, d)
        inner = None
        for h in kernel:
            h = h - BiPoly.const(h.coeff(0, 0))
            if not h.is_zero:
                inner = h.normalized()
                break
        if inner is None:
            continue
        if inner.total_degree != d:
            raise CertificationFailed(f"Jacobian kernel element has degree {inner.total_degree}, not {d}")
        outer = _solve_outer(f, inner, k // d)
        if outer is None:
            raise CertificationFailed("no outer polynomial over the least-degree kernel element")
        chain = decompose_chain(outer)
        if recompose(chain, inner) != f:
            raise CertificationFailed("decomposition chain failed to re-expand")
        return inner, chain
    raise CertificationFailed("composite polynomial without an extractable inner")
