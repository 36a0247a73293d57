"""Certified factorization over the rationals and absolute-factor counting.

Both rest on the Ruppert/Gao system. For squarefree f the dimension of the
solution space of

    f * (g_y - h_x) = f_y * g - f_x * h

over polynomial unknowns g (x-degree < deg_x f, y-degree <= deg_y f) and
h (x-degree <= deg_x f, y-degree < deg_y f) equals the number r of absolutely
irreducible factors f_1, ..., f_r of f (Ruppert 1999). The solutions are the
closed forms (g dx + h dy)/f, spanned by the d log f_i. The system is
linear in f, so its matrix is read off the primitive integer coefficients
of f, one column per monomial of g or h.

The same dimension decides reducibility over C without a squarefree test.
If f = p^e q with p nonconstant and e >= 2, then d log p and d(1/p) are two
independent closed forms within the degree bounds:
(g, h) = (p^(e-1) q p_x, p^(e-1) q p_y) and -(p^(e-2) q p_x, p^(e-2) q p_y).
So f is reducible over C exactly when the dimension is at least 2; for an
f with a repeated factor the dimension need not be the factor count.

All fibers f - lambda of one bivariate f share one pencil of systems. The
system is linear in f and lambda only moves the constant term, which keeps
both degree bounds. So with f = s F, F primitive in Z[x, y], and
lambda / s = a / b in lowest terms, the matrix of the system of f - lambda
is, up to a nonzero scalar, M = b R(F) - a R(1), where R(P) is the matrix of
the system of P at the degree bounds of f. R(1) has at most one nonzero per column. The
gradient w = (g, h) = (F_x, F_y) solves R(F) (F_y F_x = F_x F_y and
F_xy = F_yx) and R(1), hence every M. Take a column c with w_c != 0 and let
M' be M without that column. A kernel vector of M' is one of M that vanishes
at c; and for any v in the kernel of M, v - (v_c / w_c) w is one that
vanishes at c. So the dimension of every fiber is 1 + the nullity of M'. An
absolutely irreducible fiber has M' of full column rank, and elimination mod
a prime shows that, with no kernel vector to lift and verify (`linalg`). The
gradient identity is checked exactly over Z when the pencil is built.

lambda enters M' only in the rows where R(1)' is nonzero: the monomials
x^i y^j with i < deg_x f and j < deg_y f, about a quarter of the rows. On
the other rows M' is b R(F)', so their part A0 of R(F)' has one kernel K0
for every fiber. `linalg.Pencil` eliminates A0 once per prime and, per
fiber, only the lambda rows A1 of M' times K0, a system with at most
deg_x f deg_y f rows: rank M' = rank A0 + rank(A1 K0), and the kernel of M'
is K0 times that of A1 K0, already in the reduced-echelon form that
eliminating M' itself gives.

The same blocks give every lambda whose fiber can be reducible. With
t = lambda / s, M'(t) has full column rank exactly when
A1(t) K0 = G - t H does, G = B1 K0 and H = C1 K0 over Q, B1 and C1 the
lambda rows of R(F)' and R(1)'. For a set R of |K0| lambda rows let
D_R(t) = det((G - t H)_R). Where D_R is nonzero, G - t H has full column
rank: D_R vanishes at t = lambda / s for every lambda with f - lambda
reducible over C, and when D_R is not identically zero its rational roots
are a finite list that holds every such rational lambda, complete over Q.
R is a row basis of G - 2^e H mod a prime (2^e below), taken greedily in
the order of the lambda rows (`linalg.Pencil.drop_polynomial`). D_R may
also vanish where another maximal minor does not, so a rational root is
kept only where the fiber's certified dimension is at least 2
(`FiberPencil.spectrum`). When every fiber is reducible (f composite) no
D_R is nonzero, and the list is given up. Roots are found p-adically
(`rational_roots`).

D_R is made exact over Q from its images mod the `linalg` primes. Let A0_S
be rank A0 independent rows of A0, X the unit columns at the pivot columns
of A0, and N_R(t) = [A0_S; (B1 - t C1)_R], a square integer matrix. As
A0_S K0 = 0, N_R(t) [X | K0] is block triangular with diagonal blocks
A0_S X and (G - t H)_R, and det [X | K0] = +-1 (K0 is in reduced-echelon
form), so det N_R(t) = +-c0 D_R(t) with c0 = det(A0_S X) != 0. The monic
D_R therefore has the coefficients E_j / E_d of E = det N_R, ratios of
integers that Hadamard's inequality bounds by H, with H^2 < 2^b for the b
that `linalg.Pencil.minor_bits` reads from the rows R of B1 and C1;
rational reconstruction mod m > 2 H^2 recovers them. Mod p, D_R has degree
at most rank(H_R), and is interpolated from that many values plus one of
det((G - t H)_R) mod p, then made monic. A prime is unlucky when A0 mod p
has fewer or later pivots than over Q (K0 mod p is then not the image of
K0) or when it kills the leading coefficient of D_R; both need p to divide
c0 E_d, of absolute value at most H^2 < 2^b. R is kept for every prime with
the pivot profile it was picked at, so the images joined by CRT, those at
the best (pivot profile, degree) seen, which every lucky prime attains, are
of one D_R. Every prime exceeds 2^60, so once more than b / 60 primes share
the best profile, one of them is lucky, hence all are, and the
reconstruction past 2^(b + 1) is exact.

The values mod p are read first at t = 2^e, with 2^e above H
(`linalg.Pencil._zero_point_bits`). A rational root u / v of E in lowest
terms has u dividing the lowest nonzero coefficient of E, of absolute value
at most H, so 2^e is a root only when E = 0. R is picked where
(G - 2^e H)_R is nonsingular mod p, so at a lucky prime D_R is not zero. A
rank of G - 2^e H below |K0| mod p, or a zero of D_R(2^e) at a later prime,
is taken for D_R = 0 mod p: when some D_R is not zero that happens only at
an unlucky prime or at one dividing the nonzero integer E(2^e). Two such
primes give the list up, which can only cost completeness, and that is then
not claimed.

The rational factors are read off the same nullspace (Gao 2003). Let f be
squarefree and primitive in x, so gcd(f, f_x) = 1. A g-part is
g = sum_i lambda_i (f/f_i) d f_i/dx, and f_i divides every term of
f_x = sum_j (f/f_j) d f_j/dx but the i-th, so g = lambda_i f_x (mod f_i):
f_i divides g - lambda f_x exactly when lambda = lambda_i. At a y0 where
f(x, y0) keeps its x-degree and stays squarefree (only the at most
2 deg_x f deg_y f roots of the leading x-coefficient and the x-discriminant
fail), res_x(f(x, y0), g(x, y0) - t f_x(x, y0)) is a constant times
prod_i (t - lambda_i)^(deg_x f_i). Its squarefree part E has degree r when
the lambda_i are distinct; for g = sum_k c^k g_k over the basis g_0..g_(r-1)
each lambda_i - lambda_j is a nonzero polynomial in c of degree < r, so at
most r (r-1)^2 / 2 integers c fail. Each factor E_j of E irreducible over Q
then gives the factor gcd(f, E_j(g/f_x) f_x^(deg E_j)) of f irreducible over
Q: the product of the f_i with E_j(lambda_i) = 0.

A fiber of a composite f = Q(g) factors through Q (`factor_composed`): with
Q - lambda = c prod q_j^(m_j) over Q, f - lambda = c prod q_j(g)^(m_j).
Over the algebraic closure q_j(g) is, up to its leading coefficient, the
product of the g - alpha over the roots alpha of q_j, and the Galois group
permutes those roots transitively. A factor of q_j(g) over Q is fixed by
that group, so when every g - alpha is absolutely irreducible it is the
product over a Galois-stable set of roots, all of them or none: q_j(g) is
irreducible over Q. For a linear g every g - alpha is a line. Otherwise
the rank-drop polynomial of g's own pencil, its D_R written in lambda
(`FiberPencil.drop`), vanishes at every complex lambda with g - lambda
reducible, so gcd(q_j, drop) = 1 suffices. Every other q_j(g) is factored
by Gao's method at its own, lower degree.

`factor_rational` first splits off the monomial content of f and its
contents pure in y and in x, each factored as a univariate polynomial. The
rest F is primitive in both variables. When F is homogeneous of total
degree k >= 2 it is factored through u(x) = F(x, 1), with no nullspace:
F has no factor x or y, so its terms x^k and y^k are both present and
F = y^k u(x/y) with deg u = k and u(0) != 0. Every factor of a homogeneous
polynomial is homogeneous: for F = G H the lowest-degree homogeneous parts
multiply to a nonzero part of F, as do the highest, so their degrees add up
to k both times, and G and H each have a single degree. So each factor of F
over Q is y^e q(x/y) for a factor q of u of degree e, and F factors over Q
exactly as u does, each q homogenised back to y^e q(x/y) with its
multiplicity. Every other rest, a linear one included, goes to Gao's
method.

Univariate polynomials, F(x, 1) and E lose their linear factors to the
p-adic root finder, which factors no integer and takes a squarefree part
only when Mahler's bound on the discriminant shows one is needed
(`rational_roots`), and are then factored by Kronecker's method,
interpolation through divisor tuples of integer evaluations. It is
exponential, and its divisor lists factor integers, so a hard degree cap
(and an internal search budget) turns pathological inputs into a clear
error instead of a hang. Every returned factorization is certified by
re-expansion before it leaves this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import count
from typing import Iterator

from . import integers, linalg
from .errors import CertificationFailed, DegreeCapExceeded, NotSquarefree, UnivariateInput
from .poly import (
    BiPoly, UniPoly, _gcd_mod, bi_divexact, bi_gcd, grlex_key, horner_int,
    resultant_eliminating, split_content_x, uni_gcd, uni_squarefree_part,
)

DEFAULT_DEGREE_CAP = 8

# combined cap on divisor-tuple attempts inside one univariate factor search
_SEARCH_BUDGET = 400_000


@dataclass(frozen=True)
class FactorList:
    """A certified factorization: constant * prod(factor^multiplicity).

    Factors are primitive with positive graded-lex leading coefficient and
    are stored with x/y exponents even when univariate.
    """

    constant: Fraction
    factors: tuple[tuple[BiPoly, int], ...]

    def expand(self) -> BiPoly:
        out = BiPoly.const(self.constant)
        for p, mult in self.factors:
            out = out * p**mult
        return out

    def nontrivial_pieces(self) -> int:
        """Total factor count with multiplicity, constants excluded."""
        return sum(m for p, m in self.factors if not p.is_constant)

    def verify(self, original: BiPoly) -> bool:
        return self.expand() == original


@dataclass(frozen=True)
class AbsReducibleWitness:
    """Certificate that a polynomial splits over the complex numbers.

    Either the solution-space dimension of the Ruppert/Gao system (>= 2), or
    the degree of a univariate polynomial (any degree >= 2 splits over C):
    the verdict of `fiber_reducibility`, which `revalidate` derives again.
    """

    kind: str  # "nullspace" or "univariate"
    value: int

    def revalidate(self, fiber: BiPoly) -> bool:
        return self.value >= 2 and fiber_reducibility(fiber) == self


# ---------------------------------------------------------------------------
# squarefree part


def is_squarefree(f: BiPoly) -> bool:
    return squarefree_part(f) == f.normalized()


def squarefree_part(f: BiPoly) -> BiPoly:
    """Product of the distinct irreducible factors of f, multiplicity one.

    With f = c(y) P, c the x-content and P primitive in x, every factor of P
    has positive x-degree and so does not divide its own x-derivative; hence
    gcd(P, P_x) is P without one copy of each factor, and the squarefree
    part is sqf(c) P / gcd(P, P_x), with sqf(c) = c / gcd(c, c').
    """
    if f.is_zero:
        raise ValueError("squarefree part of zero polynomial")
    if f.is_constant:
        return BiPoly.const(1)
    c, P = split_content_x(f)
    sqf_c = uni_squarefree_part(c)
    sqf_p = bi_divexact(P, bi_gcd(P, P.derivative("x")))
    if sqf_p is None:
        raise CertificationFailed("gcd with the x-derivative does not divide f")
    return (sqf_c.to_bipoly("y") * sqf_p).normalized()


# ---------------------------------------------------------------------------
# absolute-factor counting (Ruppert/Gao)


def count_abs_factors(f: BiPoly) -> int:
    """Number of absolutely irreducible factors of a squarefree bivariate f."""
    if f.is_constant:
        raise ValueError("factor count of a constant")
    if f.deg_x < 1 or f.deg_y < 1:
        raise UnivariateInput("input must involve both variables")
    if not is_squarefree(f):
        raise NotSquarefree("input has a repeated factor")
    return FiberPencil(f).dimension(0)


def _ruppert_columns(ints: dict, dx: int, dy: int) -> list[dict]:
    """Sparse integer columns of the Ruppert/Gao system of the polynomial with
    integer coefficients `ints`, at the degree bounds (dx, dy) of the module
    docstring; column i (dy + 1) + j is the image of g = x^i y^j, and the
    columns of h = x^i y^j follow."""
    # column of g = x^i y^j is f g_y - f_y g, of h = x^i y^j is f_x h - f h_x,
    # read off term by term from the integer coefficients c of f
    return [
        {(u + i, v + j - 1): (j - v) * c for (u, v), c in ints.items() if v != j}
        for i in range(dx)
        for j in range(dy + 1)
    ] + [
        {(u + i - 1, v + j): (u - i) * c for (u, v), c in ints.items() if u != i}
        for i in range(dx + 1)
        for j in range(dy)
    ]


# ---------------------------------------------------------------------------
# univariate factorization (Kronecker)


def rational_roots(p: UniPoly) -> list[Fraction]:
    """Distinct rational roots, found p-adically (Loos 1983); no integer is
    factored.

    Let q = q_0 + ... + q_d x^d be p made primitive in Z[x], with a factor
    x^v (so the root 0 when v > 0) divided out. A root n/den in lowest terms
    has n | q_0 and den | q_d (Gauss), so q_d n/den is an integer of absolute
    value at most |q_0 q_d|. Take the least prime l that divides neither q_d
    nor the discriminant of q, that is with q mod l squarefree of degree d.
    Every rational root reduces to a simple root of q mod l, and Newton's
    iteration lifts that root to the only l-adic root above it. Once
    l^e > 2 |q_0 q_d|, the symmetric residue of q_d times the lifted root
    mod l^e is the only integer candidate for q_d n/den, and the candidate
    is kept when q vanishes at it exactly.

    The primes not dividing q_d are tried in increasing order. Each one at
    which q is not squarefree divides disc q, and |disc q| <=
    d^d (sum q_i^2)^(d - 1) (Mahler 1964). So once the product of those
    primes exceeds that bound, disc q = 0: q has a repeated factor and is
    replaced by its squarefree part, which some prime then keeps squarefree.
    A q that is squarefree over Q, such as q t^2 - n whose discriminant 4 q n
    the prime 2 divides, thus never takes a gcd.
    """
    if p.is_zero:
        raise ValueError("every rational is a root of the zero polynomial")
    ints = p.primitive()[0].n
    roots = [Fraction(0)] if min(ints) else []
    q = _ascending(ints)
    if len(q) == 1:
        return roots
    d = len(q) - 1
    mahler, failed = d**d * sum(c * c for c in q) ** (d - 1), 1
    for ell in _small_primes():
        if q[-1] % ell:
            if _squarefree_mod(q, ell):
                break
            failed *= ell
            if failed > mahler:
                # the failed primes divide disc q, so disc q = 0
                q = _ascending(uni_squarefree_part(p).primitive()[0].n)
                ell = next(ell for ell in _small_primes() if q[-1] % ell and _squarefree_mod(q, ell))
                break
    lead, bound = q[-1], 2 * abs(q[0] * q[-1])
    deriv = [k * c for k, c in enumerate(q)][1:]
    for r in range(ell):
        if horner_int(q, r) % ell:
            continue
        m = ell
        while m <= bound:
            m *= m
            r = (r - horner_int(q, r) * pow(horner_int(deriv, r), -1, m)) % m
        v = lead * r % m
        n = v - m if 2 * v > m else v
        # lead^d q(n / lead) is an integer, zero exactly when q(n / lead) is
        if not sum(c * n**k * lead ** (len(q) - 1 - k) for k, c in enumerate(q)):
            roots.append(Fraction(n, lead))
    return sorted(roots)


def _ascending(ints: dict[int, int]) -> list[int]:
    """The coefficient list of sum c x^k over ints, divided by its lowest power of x."""
    return [ints.get(k, 0) for k in range(min(ints), max(ints) + 1)]


def _small_primes() -> Iterator[int]:
    """The primes in increasing order."""
    return filter(integers.is_probable_prime, count(2))


def _squarefree_mod(q: list[int], ell: int) -> bool:
    """Whether q, with ell not dividing its leading coefficient, is squarefree mod ell."""
    dq = [k * c % ell for k, c in enumerate(q)][1:]
    while dq and not dq[-1]:
        dq.pop()
    return bool(dq) and len(_gcd_mod([c % ell for c in q], dq, ell)) == 1


def _interpolate(points: list[tuple[int, Fraction]]) -> UniPoly:
    """Lagrange interpolation through (integer node, value) pairs."""
    out = UniPoly.zero()
    for idx, (xi, yi) in enumerate(points):
        if yi == 0:
            continue
        num = UniPoly.const(yi)
        den = Fraction(1)
        for jdx, (xj, _) in enumerate(points):
            if jdx == idx:
                continue
            num = num * UniPoly({1: 1, 0: -xj})
            den *= xi - xj
        out = out + num * (1 / den)
    return out


def _strip_linear_factors(p: UniPoly) -> tuple[UniPoly, dict[UniPoly, int]]:
    found: dict[UniPoly, int] = {}
    for r in rational_roots(p):
        lin = UniPoly({1: r.denominator, 0: -r.numerator})
        while True:
            q, rem = p.divrem(lin)
            if not rem.is_zero:
                break
            p = q
            found[lin] = found.get(lin, 0) + 1
            if p.degree == 0:
                break
    return p, found


def _signed_divisors(v: int) -> list[int]:
    return [s * d for d in integers.divisors(v) for s in (1, -1)]


def _search_degree_r_factor(p: UniPoly, r: int, budget: list[int]) -> UniPoly | None:
    """Find one degree-r integer factor of primitive integer p, or None.

    Interpolates candidates through divisor tuples of the values of p at
    r+1 small integer nodes, pruned by the congruence (x_i - x_j) | (d_i - d_j)
    that any integer polynomial must satisfy.
    """
    nodes = []
    t = 0
    while len(nodes) < r + 5:
        v = p(t)
        if v == 0:
            raise CertificationFailed("a rational root survived the linear-factor strip")
        nodes.append((t, int(v)))
        t = -t if t > 0 else -t + 1
    nodes.sort(key=lambda nv: (abs(nv[1]), nv[0]))
    nodes = nodes[: r + 1]
    lead = p.n[p.degree]

    divisor_lists = [_signed_divisors(v) for _, v in nodes]

    def recurse(level: int, chosen: list[int]):
        if budget[0] <= 0:
            raise DegreeCapExceeded("factor search budget exhausted")
        if level == len(nodes):
            cand = _interpolate([(x, Fraction(d)) for (x, _), d in zip(nodes, chosen)])
            if cand.degree != r:
                return None
            if cand.d != 1:
                return None
            if lead % cand.n[r] != 0:
                return None
            q, rem = p.divrem(cand)
            if rem.is_zero and q.d == 1:
                return cand
            return None
        xi = nodes[level][0]
        for d in divisor_lists[level]:
            budget[0] -= 1
            if budget[0] <= 0:
                raise DegreeCapExceeded("factor search budget exhausted")
            ok = True
            for lv in range(level):
                xj = nodes[lv][0]
                if (d - chosen[lv]) % (xi - xj) != 0:
                    ok = False
                    break
            if not ok:
                continue
            chosen.append(d)
            got = recurse(level + 1, chosen)
            chosen.pop()
            if got is not None:
                return got
        return None

    return recurse(0, [])


def factor_univariate(p: UniPoly) -> tuple[Fraction, list[tuple[UniPoly, int]]]:
    """Complete factorization over Q into primitive irreducibles.

    Returns (constant, [(factor, multiplicity), ...]) with the product
    reproducing p exactly; factors have positive leading coefficients.
    """
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    prim, scale = p.primitive()
    if prim.degree == 0:
        return scale, []
    prim, factors = _strip_linear_factors(prim)
    budget = [_SEARCH_BUDGET]
    while prim.degree >= 2:
        found = None
        for r in range(2, prim.degree // 2 + 1):
            found = _search_degree_r_factor(prim, r, budget)
            if found is not None:
                break
        if found is None:
            break  # irreducible
        fac = found.normalized()
        while True:
            q, rem = prim.divrem(fac)
            if not rem.is_zero:
                break
            prim = q
            factors[fac] = factors.get(fac, 0) + 1
    if prim.degree >= 1:
        fac, s = prim.primitive()
        factors[fac] = factors.get(fac, 0) + 1
        scale *= s
    elif not prim.is_zero:
        scale *= prim.coeff(0)
    # certification
    check = UniPoly.const(scale)
    for f, m in factors.items():
        check = check * f**m
    if check != p:
        raise CertificationFailed("univariate factorization failed certification")
    return scale, sorted(factors.items(), key=lambda fm: (fm[0].degree, sorted(fm[0].n.items())))


# ---------------------------------------------------------------------------
# bivariate factorization (Gao)


def _gao_factors(s: BiPoly) -> list[BiPoly]:
    """The factors irreducible over Q of a squarefree s primitive in x (the
    module docstring shows why both searches below end in a hit)."""
    dx, dy = s.deg_x, s.deg_y
    kernel = linalg.certified_nullspace(_ruppert_columns(s.scaled_ints()[1], dx, dy))
    r = len(kernel.vectors)
    if r == 1:
        return [s]
    sx = s.derivative("x")
    for y0 in sorted(range(-dx * dy, dx * dy + 1), key=abs):
        a = s.specialize_y(y0)
        if a.degree == dx and uni_gcd(a, a.derivative()).degree == 0:
            break
    else:
        raise CertificationFailed("no specialization keeps the fiber squarefree")
    gs = [
        BiPoly({(i, j): w[i * (dy + 1) + j] for i in range(dx) for j in range(dy + 1)})
        for w in kernel.vectors
    ]
    t_sx = BiPoly.y() * sx.specialize_y(y0).to_bipoly("x")  # t on the y axis
    for c in range(1, r * (r - 1) ** 2 // 2 + 2):
        g = sum((gk * c**k for k, gk in enumerate(gs)), BiPoly.zero())
        res = resultant_eliminating(a.to_bipoly("x"), g.specialize_y(y0).to_bipoly("x") - t_sx)
        eliminant = uni_squarefree_part(res)
        if eliminant.degree == r:
            break
    else:
        raise CertificationFailed("no combination of the basis separates the factors")
    _, pieces = factor_univariate(eliminant)
    if len(pieces) == 1:
        # E irreducible vanishes at every lambda_i, so its factor is s itself
        return [s]
    out = []
    for e, _ in pieces:
        fac = bi_gcd(s, sum((g**k * sx ** (e.degree - k) * v for k, v in e.n.items()), BiPoly.zero()))
        if fac.is_constant:
            raise CertificationFailed("a factor of the eliminant gave no factor of the fiber")
        out.append(fac)
    return out


def factor_rational(f: BiPoly, cap: int = DEFAULT_DEGREE_CAP) -> FactorList:
    """Complete factorization of f into factors irreducible over Q.

    The monomial content and the contents pure in y and in x are split off
    and factored as univariate polynomials. A rest F homogeneous of total
    degree k >= 2 has the terms x^k and y^k, so F = y^k u(x/y) for
    u(x) = F(x, 1) of degree k with u(0) != 0; the factors of a homogeneous
    polynomial are homogeneous, so F factors over Q as u does, each factor q
    of u homogenised to y^(deg q) q(x/y). Any other rest is split by Gao's
    method (module docstring).

    Raises DegreeCapExceeded when the total degree is above `cap`, or when the
    univariate Kronecker search, which is exponential, runs out of budget.
    """
    if f.is_zero or f.is_constant:
        raise ValueError("factorization needs a nonconstant polynomial")
    if f.total_degree > cap:
        raise DegreeCapExceeded(
            f"total degree {f.total_degree} exceeds cap {cap}"
        )
    prim, scale = f.primitive()
    # the monomial content, read off the exponents without a gcd
    vx = min(i for i, _ in prim.n)
    vy = min(j for _, j in prim.n)
    prim = BiPoly({(i - vx, j - vy): v for (i, j), v in prim.n.items()})
    factors = [(p, m) for p, m in ((BiPoly.x(), vx), (BiPoly.y(), vy)) if m]
    # the contents pure in y and pure in x, each factored as univariate
    cont_y, prim = split_content_x(prim)
    cont_x, prim = split_content_x(prim.swap())
    prim = prim.swap()
    for cont, var in ((cont_y, "y"), (cont_x, "x")):
        s, pieces = factor_univariate(cont)
        scale *= s
        factors += [(q.to_bipoly(var), m) for q, m in pieces]
    # the rest is primitive in both variables: a homogeneous one of degree
    # k >= 2 factors as prim(x, 1), and Gao's method splits any other
    if prim.total_degree >= 2 and len({i + j for i, j in prim.n}) == 1:
        s, pieces = factor_univariate(prim.specialize_y(1))
        factors += [(BiPoly({(i, q.degree - i): q.coeff(i) for i in q.n}), m) for q, m in pieces]
        prim = BiPoly.const(s)
    elif not prim.is_constant:
        for fac in _gao_factors(squarefree_part(prim)):
            mult = 0
            while (q := bi_divexact(prim, fac)) is not None:
                prim, mult = q, mult + 1
            factors.append((fac, mult))
    return _certified(f, scale * prim.coeff(0, 0), factors)


def factor_composed(
    fiber: BiPoly, outer: UniPoly, inner: BiPoly, drop: UniPoly | None, cap: int = DEFAULT_DEGREE_CAP
) -> FactorList:
    """Complete factorization over Q of fiber = outer(inner), read off that
    of outer.

    With outer = c prod q_j^m_j over Q, q_j(inner) is irreducible over Q
    when gcd(q_j, drop) = 1, for a `drop` that vanishes at every complex
    lambda with inner - lambda reducible over C (module docstring); the
    other q_j(inner), all of them when `drop` is None, are factored by
    `factor_rational` under `cap`.
    """
    constant, pieces = factor_univariate(outer)
    factors = []
    for q, m in pieces:
        piece = q.compose(inner)
        if drop is not None and uni_gcd(q, drop).degree == 0:
            factors.append((piece, m))
            continue
        split = factor_rational(piece, cap=cap)
        constant *= split.constant**m
        factors += [(p, e * m) for p, e in split.factors]
    return _certified(fiber, constant, factors)


def _certified(original: BiPoly, constant: Fraction, factors) -> FactorList:
    """The FactorList of original = constant * prod p^m over the nonconstant
    (p, m) in `factors`: each p made primitive with positive graded-lex
    leading coefficient (its scale moved into the constant), equal factors
    merged, factors ordered by total degree and then terms, and the product
    re-expanded against `original`."""
    merged: dict[BiPoly, int] = {}
    for p, m in factors:
        prim, scale = p.primitive()
        constant *= scale**m
        merged[prim] = merged.get(prim, 0) + m
    ordered = sorted(
        merged.items(),
        key=lambda fm: (fm[0].total_degree, sorted(fm[0].n.items(), key=lambda kv: grlex_key(kv[0]))),
    )
    result = FactorList(constant=constant, factors=tuple(ordered))
    if not result.verify(original):
        raise CertificationFailed("factorization failed certification")
    return result


# ---------------------------------------------------------------------------
# fiber reducibility (shared by the compositeness test and the sigma scan)


def _gradient(ints: dict, dx: int, dy: int) -> list[int]:
    """The solution (g, h) = (F_x, F_y) of the Ruppert/Gao system of the
    integer polynomial F with coefficients `ints`, as a vector on its columns."""
    w = [0] * (dx * (dy + 1) + (dx + 1) * dy)
    for (u, v), c in ints.items():
        if u:
            w[(u - 1) * (dy + 1) + v] = u * c
        if v:
            w[dx * (dy + 1) + u * dy + v - 1] = v * c
    return w


class FiberPencil:
    """The Ruppert/Gao systems of all fibers f - lambda of one polynomial.

    With f = s F, F primitive in Z[x, y], and lambda / s = a / b in lowest
    terms, the system of f - lambda is b R(F) - a R(1) (module docstring).
    Both matrices are built once as sparse columns keyed by monomial (the
    `linalg` format), with the column of the gradient solution sliced out,
    and handed to a `linalg.Pencil`: the rows where R(1) vanishes are
    eliminated once per prime, and per fiber only the others times their
    kernel (module docstring). Each fiber's kernel is verified against its
    own columns b R(F) - a R(1).
    """

    def __init__(self, f: BiPoly):
        self.f = f
        self.univariate = f.deg_x <= 0 or f.deg_y <= 0
        if self.univariate:
            return
        dx, dy = f.deg_x, f.deg_y
        self.scale, ints = f.scaled_ints()
        columns = _ruppert_columns(ints, dx, dy)
        ones = _ruppert_columns({(0, 0): 1}, dx, dy)
        # the gradient solves R(F) and R(1), so it solves every fiber's system
        grad = _gradient(ints, dx, dy)
        if not (linalg._annihilates(columns, grad) and linalg._annihilates(ones, grad)):
            raise CertificationFailed("the gradient (f_x, f_y) does not solve the fiber systems")
        # F_x is nonzero, so some column carries the gradient; removing it
        # leaves the solutions that vanish there, one fewer for every fiber
        drop = next(k for k, w in enumerate(grad) if w)
        self.pencil = linalg.Pencil(columns[:drop] + columns[drop + 1 :], ones[:drop] + ones[drop + 1 :])
        self._dimensions: dict[tuple[int, int], int] = {}  # by (numerator, denominator) of lambda

    @cached_property
    def drop(self) -> UniPoly | None:
        """The rank-drop polynomial D_R of the lambda block, for R its row
        basis picked in the order of its rows, written in lambda = s t: it
        vanishes at every complex lambda with f - lambda reducible over C
        (module docstring). None when it is given up, as it is when every
        fiber is reducible (composite or univariate f).
        """
        if self.univariate or (got := self.pencil.drop_polynomial()) is None:
            return None
        nums, den = got
        return UniPoly({k: Fraction(v, den * self.scale**k) for k, v in enumerate(nums) if v})

    @cached_property
    def decomposition(self):
        """`classify.decompose(f)`: f = Q(g) over a linear form or over its
        core, or None when f has no such decomposition."""
        from .classify import decompose  # classify imports this module

        return decompose(self.f)

    @cached_property
    def spectrum(self) -> tuple[Fraction, ...] | None:
        """Every rational lambda with f - lambda reducible over C: the
        rational roots of `drop` whose certified dimension is at least 2;
        None when the pencil gives no such list. An f of total degree >= 2
        with a `decomposition` is composite and has none (every fiber is
        reducible), so its `drop` is never computed, whatever asks first."""
        if (self.f.total_degree >= 2 and self.decomposition is not None) or self.drop is None:
            return None
        return tuple(lam for lam in rational_roots(self.drop) if self.dimension(lam) >= 2)

    def dimension(self, lam: Fraction | int) -> int:
        """Ruppert/Gao dimension of f - lambda, for a bivariate f, kept per
        lambda."""
        lam = Fraction(lam)
        key = lam.numerator, lam.denominator
        if key not in self._dimensions:
            t = lam / self.scale
            self._dimensions[key] = 1 + len(self.pencil.B) - self.pencil.rank(t.numerator, t.denominator)
        return self._dimensions[key]

    def witness(self, lam: Fraction | int) -> AbsReducibleWitness | None:
        """The certificate that f - lambda factors over the complex numbers,
        or None when it is absolutely irreducible.

        A univariate fiber splits over C when its degree is at least 2.
        Otherwise the Ruppert/Gao dimension alone decides: it is 1 for an
        absolutely irreducible fiber, the factor count for a squarefree one,
        and at least 2 when a factor repeats (d log p and d(1/p) both solve
        the system), so no squarefree test is needed.
        """
        if self.univariate:
            witness = AbsReducibleWitness("univariate", max(self.f.deg_x, self.f.deg_y))
        else:
            witness = AbsReducibleWitness("nullspace", self.dimension(lam))
        return witness if witness.value >= 2 else None


def fiber_reducibility(fiber: BiPoly) -> AbsReducibleWitness | None:
    """The certificate that `fiber` factors over the complex numbers, or None
    when it is absolutely irreducible (`FiberPencil.witness`)."""
    return FiberPencil(fiber).witness(0)
