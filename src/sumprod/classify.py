"""Classification of bivariate polynomials by composition structure.

A polynomial is *degenerate* when it is an outer univariate polynomial applied
to a linear form a*x + b*y, and *composite* when it is an outer polynomial of
degree >= 2 applied to any inner bivariate polynomial. Degeneracy is decided
by gradient proportionality.

Both shapes are one certificate, a `Decomposition` f = chain[0] o ... o
chain[-1] o inner re-expanded to f exactly: `is_degenerate` gives it with a
one-piece chain and a linear inner, `composite_core` with the Jacobian-kernel
core as inner, and `decompose` asks them in that order. A composite verdict
carries it, and every fiber f - lambda = c prod (g - alpha_i), over the
deg Q roots alpha_i of Q - lambda, is then reducible. A non-composite verdict comes from an
absolutely irreducible fiber. By Stein's theorem a non-composite polynomial
of total degree k has fewer than k reducible fibers f - lambda, so one of k
distinct fibers is irreducible and certifies it.

A composite f is split by one integer linear system: the Jacobian kernel
{h : f_x h_y = f_y h_x}, built from the primitive integer coefficients of f,
holds the inner polynomial, and f = sum u_i inner^i is read off from the top.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd

from . import linalg
from .errors import CertificationFailed, ConstantPolynomial, HypothesisViolated
from .factor import FiberPencil
from .poly import BiPoly, UniPoly


@dataclass(frozen=True)
class Decomposition:
    """A verified f = chain[0] o ... o chain[-1] o inner.

    A degenerate f has the one-piece chain (outer,) and a linear inner x, y
    or x + y/c; a non-degenerate composite has the indecomposable pieces of
    its outer polynomial and the Jacobian-kernel core as inner.
    """

    chain: tuple[UniPoly, ...]
    inner: BiPoly

    @property
    def outer(self) -> UniPoly:
        return reduce(UniPoly.compose, self.chain)

    @property
    def degenerate(self) -> bool:
        return self.inner.total_degree == 1

    def expand(self) -> BiPoly:
        return recompose(self.chain, self.inner)


@dataclass(frozen=True)
class CompositenessVerdict:
    """The verdict of `is_composite` with what certifies it.

    A composite verdict carries its `decomposition` (for a one-variable f as
    well). A non-composite one carries `certificate_lambda`, whose fiber is
    absolutely irreducible.
    """

    composite: bool
    witness_lambdas: tuple[Fraction, ...] = ()
    certificate_lambda: Fraction | None = None
    univariate: bool = False
    decomposition: Decomposition | None = None


def normalize_orientation(f: BiPoly) -> tuple[BiPoly, bool]:
    """Swap the variables when deg_x < deg_y; the image set over A x A is unchanged."""
    if f.is_constant:
        raise ConstantPolynomial("orientation of a constant is undefined")
    if f.deg_x < f.deg_y:
        return f.swap(), True
    return f, False


def is_degenerate(f: BiPoly) -> Decomposition | None:
    """Decomposition of f as an outer polynomial of a linear form, or None.

    When both partial derivatives are nonzero, f has this shape exactly when
    f_x is a constant multiple c of f_y, and then f = Q(x + y/c) with Q read
    off the specialization y = 0. The decomposition is re-expanded before it
    is returned.
    """
    if f.is_constant:
        raise ConstantPolynomial("cannot classify a constant")
    fx = f.derivative("x")
    fy = f.derivative("y")
    if fx.is_zero or fy.is_zero:
        outer, var = f.to_unipoly()
        dec = Decomposition((outer,), BiPoly({(1, 0) if var == "x" else (0, 1): 1}))
        if dec.expand() != f:
            raise CertificationFailed(f"{var}-only polynomial failed to re-expand from its coefficients")
        return dec
    key, lead = fy.leading_term()
    c = fx.coeff(*key) / lead
    if not c or fx != fy * c:
        return None
    dec = Decomposition((f.specialize_y(0),), BiPoly({(1, 0): 1, (0, 1): 1 / c}))
    return dec if dec.expand() == f else None


def decompose(f: BiPoly) -> Decomposition | None:
    """The decomposition of f over a linear form (`is_degenerate`), else
    over its core (`composite_core`); None when f has neither. Of total
    degree >= 2, f is composite exactly when it has one."""
    return is_degenerate(f) or composite_core(f)


def is_composite(f: BiPoly) -> CompositenessVerdict:
    """Decide whether f = Q(g) for some outer Q of degree >= 2.

    A one-variable f is its own outer polynomial. Otherwise f is composite
    when it has a `decompose` decomposition. The k = total-degree values
    1..k are then its witnesses: Q - lambda has deg Q >= 2 roots alpha_i,
    and f - lambda = c prod (g - alpha_i) is reducible. When f has no
    decomposition, the fibers f - lambda at those values are tested on its
    `FiberPencil`; a non-composite f has fewer than k reducible fibers, so
    some fiber is absolutely irreducible and certifies the verdict.
    """
    k = f.total_degree
    if k < 2:
        raise ValueError("compositeness needs total degree >= 2")
    dec = decompose(f)
    if f.deg_x <= 0 or f.deg_y <= 0:
        # a one-variable polynomial of degree >= 2 is its own outer polynomial
        return CompositenessVerdict(composite=True, univariate=True, decomposition=dec)
    lams = tuple(Fraction(j) for j in range(1, k + 1))
    if dec is not None:
        return CompositenessVerdict(composite=True, witness_lambdas=lams, decomposition=dec)
    pencil = FiberPencil(f)
    for lam in lams:
        if pencil.witness(lam) is None:
            return CompositenessVerdict(composite=False, certificate_lambda=lam)
    raise CertificationFailed("composite polynomial without an extractable inner")


# ---------------------------------------------------------------------------
# constructive decomposition


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
    kernel element of minimal degree is an inner polynomial of f. A
    nonconstant P(g) has deg_x / deg = deg_x g / deg g = deg_x f / deg f, and
    likewise in y, so the unknowns are the monomials of degree <= d in the
    box i <= d deg_x f / deg f, j <= d deg_y f / deg f, less the constant
    monomial, whose column is empty.
    """
    k = f.total_degree
    top_x, top_y = d * f.deg_x // k, d * f.deg_y // k
    monomials = [(i, j) for i in range(top_x + 1) for j in range(min(d - i, top_y) + 1) if i or j]
    kernel = linalg.certified_nullspace(_jacobian_columns(f, monomials))
    return [BiPoly(zip(monomials, w)) * Fraction(1, den) for w, den in zip(kernel.vectors, kernel.denominators)]


def _solve_outer(f: BiPoly, g: BiPoly, m: int) -> UniPoly | None:
    """The Q of degree <= m with f = Q(g), or None when there is none: g^i
    has leading term lt(g)^i and g^j, j < i, lower degree, so u_i, from
    i = m down, is what f - sum_(j > i) u_j g^j has left at lt(g)^i, over
    lc(g)^i. f = Q(g) exactly when nothing is left."""
    (a, b), lead = g.leading_term()
    powers = [BiPoly.const(1)]
    for _ in range(m):
        powers.append(powers[-1] * g)
    rest, outer = f, {}
    for i in range(m, -1, -1):
        u = rest.coeff(a * i, b * i) / lead**i
        if u:
            outer[i] = u
            rest = rest - powers[i] * u
    return None if rest else UniPoly(outer)


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


def recompose(chain: Sequence[UniPoly], core: BiPoly) -> BiPoly:
    acc = core
    for q in reversed(chain):
        acc = q.compose_bi(acc)
    return acc


def decompose_fully(f: BiPoly) -> tuple[BiPoly, list[UniPoly]]:
    """Strip outer univariate layers down to a non-composite core.

    Returns (core, chain) with f = chain[0] o ... o chain[-1] o core, read off
    the decomposition of the `is_composite` verdict; the chain is empty when
    f is already non-composite. Requires a non-degenerate input, since a
    degenerate polynomial bottoms out in a linear form rather than a
    bivariate core.
    """
    if f.is_constant:
        raise ConstantPolynomial("cannot classify a constant")
    dec = is_composite(f).decomposition if f.total_degree >= 2 else None
    if f.total_degree < 2 or (dec is not None and dec.degenerate):
        raise HypothesisViolated("decomposition core requires a non-degenerate input")
    return (f, []) if dec is None else (dec.inner, list(dec.chain))


def composite_core(f: BiPoly) -> Decomposition | None:
    """Decomposition of a non-degenerate f over its core, or None when the
    Jacobian kernel holds no inner of degree below that of f (f is not
    composite).

    An inner g of f = Q(g), deg Q = m, has deg g = k / m, and
    deg_x f = m deg_x g, deg_y f = m deg_y g, so only the m >= 2 that divide
    gcd(k, deg_x f, deg_y f) are tried, least inner degree first. The core
    is the nonconstant Jacobian-kernel element of least degree; it and the
    chain are re-expanded to f before they are returned.
    """
    k = f.total_degree
    common = gcd(k, f.deg_x, f.deg_y)
    for m in range(common, 1, -1):
        d = k // m
        if common % m or d < 2:
            continue
        kernel = _jacobian_kernel(f, d)
        if not kernel:
            continue
        inner = kernel[0].normalized()
        if inner.total_degree != d:
            raise CertificationFailed(f"Jacobian kernel element has degree {inner.total_degree}, not {d}")
        outer = _solve_outer(f, inner, m)
        if outer is None:
            raise CertificationFailed("no outer polynomial over the least-degree kernel element")
        dec = Decomposition(tuple(decompose_chain(outer)), inner)
        if dec.expand() != f:
            raise CertificationFailed("decomposition chain failed to re-expand")
        return dec
    return None
