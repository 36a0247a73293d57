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
absolutely irreducible fiber has M' of full column rank, and one elimination
mod a prime shows that, with no kernel vector to lift and verify
(`linalg`). The gradient identity is checked exactly over Z when the pencil
is built.

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

Univariate polynomials, and E, are factored by Kronecker's method,
interpolation through divisor tuples of integer evaluations. It is
exponential, so a hard degree cap (and an internal search budget) turns
pathological inputs into a clear error instead of a hang. Every returned
factorization is certified by re-expansion before it leaves this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import integers, linalg
from .errors import CertificationFailed, DegreeCapExceeded, NotSquarefree, UnivariateInput
from .poly import (
    BiPoly, UniPoly, bi_divexact, bi_gcd, grlex_key, horner_int, resultant_eliminating, split_content_x,
    uni_gcd, uni_squarefree_part,
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
    the degree of a univariate polynomial (any degree >= 2 splits over C).
    """

    kind: str  # "nullspace" or "univariate"
    value: int

    def revalidate(self, fiber: BiPoly) -> bool:
        if self.kind == "univariate":
            try:
                p, _ = fiber.to_unipoly()
            except ValueError:
                return False
            return p.degree == self.value and self.value >= 2
        return fiber_reducibility(fiber).abs_count == self.value and self.value >= 2


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
    """Distinct rational roots, via the rational root theorem.

    A root n/den in lowest terms makes den x - n an integer factor of p
    (Gauss's lemma), so den - n divides p(1) and den + n divides p(-1).
    """
    if p.is_zero:
        raise ValueError("every rational is a root of the zero polynomial")
    ints = p.primitive()[0].n
    low = min(ints)
    roots = [Fraction(0)] if low else []
    row = [ints.get(k, 0) for k in range(low, max(ints) + 1)]  # p / x^low, ascending
    if len(row) == 1:
        return roots
    coeffs = row[::-1]  # highest degree first
    at_one, at_minus_one = sum(row), horner_int(row, -1)
    for num in integers.divisors(coeffs[-1]):
        for den in integers.divisors(coeffs[0]):
            if gcd(num, den) > 1:
                continue
            for n in (num, -num):
                if (den - n and at_one % (den - n)) or (den + n and at_minus_one % (den + n)):
                    continue
                value, den_power = 0, 1  # den^deg p * p(n/den), by Horner
                for c in coeffs:
                    value = value * n + c * den_power
                    den_power *= den
                if value == 0:
                    roots.append(Fraction(n, den))
    return sorted(roots)


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
        res = resultant_eliminating(a.to_bipoly("x"), g.specialize_y(y0).to_bipoly("x") - t_sx, "x")
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
        fac = bi_gcd(s, sum((g**k * sx ** (e.degree - k) * v for k, v in e.c.items()), BiPoly.zero()))
        if fac.is_constant:
            raise CertificationFailed("a factor of the eliminant gave no factor of the fiber")
        out.append(fac)
    return out


def factor_rational(f: BiPoly, cap: int = DEFAULT_DEGREE_CAP) -> FactorList:
    """Complete factorization of f into factors irreducible over Q.

    Raises DegreeCapExceeded when the total degree is above `cap`, or when the
    univariate Kronecker search, which is exponential, runs out of budget.
    """
    if f.is_zero or f.is_constant:
        raise ValueError("factorization needs a nonconstant polynomial")
    if f.total_degree > cap:
        raise DegreeCapExceeded(
            f"total degree {f.total_degree} exceeds cap {cap}"
        )
    original = f
    prim, scale = f.primitive()
    factors: dict[BiPoly, int] = {}

    def add(p: BiPoly, mult: int):
        if mult and not p.is_constant:
            factors[p] = factors.get(p, 0) + mult

    # monomial content
    vx = min(i for i, _ in prim.n)
    vy = min(j for _, j in prim.n)
    if vx or vy:
        prim = BiPoly({(i - vx, j - vy): v for (i, j), v in prim.n.items()})
        add(BiPoly.x(), vx)
        add(BiPoly.y(), vy)

    def add_univariate(p: UniPoly, var: str):
        nonlocal scale
        s, facs = factor_univariate(p)
        scale *= s
        for q, m in facs:
            add(q.to_bipoly(var), m)

    # contents pure in one variable
    cont, prim = split_content_x(prim)
    if cont.degree >= 1:
        add_univariate(cont, "y")
    if prim.deg_y == 0 and not prim.is_constant:
        add_univariate(prim.to_unipoly()[0], "x")
        prim = BiPoly.const(1)

    if not prim.is_constant:
        for fac in _gao_factors(squarefree_part(prim)):
            mult = 0
            while (q := bi_divexact(prim, fac)) is not None:
                prim = q
                mult += 1
            add(fac, mult)
    if prim.is_constant and not prim.is_zero:
        scale *= prim.coeff(0, 0)

    ordered = tuple(
        sorted(
            factors.items(),
            key=lambda fm: (
                fm[0].total_degree,
                sorted(fm[0].n.items(), key=lambda kv: grlex_key(kv[0])),
            ),
        )
    )
    result = FactorList(constant=scale, factors=ordered)
    if not result.verify(original):
        raise CertificationFailed("factorization failed certification")
    return result


# ---------------------------------------------------------------------------
# fiber reducibility (shared by the compositeness test and the sigma scan)


@dataclass(frozen=True)
class FiberStatus:
    """Reducibility of one polynomial over C, with how it was decided.

    `abs_count` is the Ruppert/Gao dimension. It equals the number of
    absolutely irreducible factors only for a squarefree fiber; a fiber with
    a repeated factor has dimension at least 2.
    """

    reducible: bool
    kind: str  # "irreducible", "nullspace", "univariate"
    abs_count: int | None = None


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
    `linalg` format), with the column of the gradient solution sliced out.
    R(1) has at most one nonzero per column, so each fiber's columns are
    those of b R(F) with that one entry changed.
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
        self.columns = columns[:drop] + columns[drop + 1 :]
        self.ones = ones[:drop] + ones[drop + 1 :]

    def dimension(self, lam: Fraction | int) -> int:
        """Ruppert/Gao dimension of f - lambda, for a bivariate f."""
        t = Fraction(lam) / self.scale
        a, b = t.numerator, t.denominator
        columns = self.columns
        if a:
            columns = []
            for col, one in zip(self.columns, self.ones):
                col = {key: b * v for key, v in col.items()}
                for key, v in one.items():
                    if m := col.get(key, 0) - a * v:
                        col[key] = m
                    else:
                        del col[key]
                columns.append(col)
        return 1 + len(columns) - linalg.rank_int(columns)

    def status(self, lam: Fraction | int) -> FiberStatus:
        """Decide whether f - lambda factors over the complex numbers.

        Univariate fibers of degree >= 2 always split over C. Otherwise the
        Ruppert/Gao dimension alone decides: it is 1 for an absolutely
        irreducible fiber, the factor count for a squarefree one, and at
        least 2 when a factor repeats (d log p and d(1/p) both solve the
        system), so no squarefree test is needed.
        """
        if self.univariate:
            p, _ = (self.f - BiPoly.const(lam)).to_unipoly()
            return FiberStatus(reducible=p.degree >= 2, kind="univariate")
        n = self.dimension(lam)
        if n >= 2:
            return FiberStatus(reducible=True, kind="nullspace", abs_count=n)
        return FiberStatus(reducible=False, kind="irreducible", abs_count=1)


def fiber_reducibility(fiber: BiPoly) -> FiberStatus:
    """Decide whether `fiber` (degree >= 2) factors over the complex numbers."""
    return FiberPencil(fiber).status(0)
