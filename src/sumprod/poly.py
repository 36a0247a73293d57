"""Sparse exact-rational polynomials in one and two variables.

`UniPoly` maps degree -> coefficient, `BiPoly` maps (x-exponent, y-exponent)
-> coefficient. Zero coefficients are never stored; the zero polynomial has
degree -1. Values are immutable after construction, so they can be shared
freely. Term comparisons use graded lexicographic order with x ahead of y.

Resultants and gcds in Q[x, y] are modular: both scale to Z[x, y], take
univariate images mod the 61-bit primes of `linalg` at integer values of the
other variable, interpolate, and join the primes by CRT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Iterator

from . import linalg
from .errors import CertificationFailed


def _rat(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


def grlex_key(term: tuple[int, int]) -> tuple[int, int]:
    i, j = term
    return (i + j, i)


class UniPoly:
    """Univariate polynomial with exact rational coefficients."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        c: dict[int, Fraction] = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for d, v in items:
                v = _rat(v)
                if not v:
                    continue
                d = int(d)
                if d < 0:
                    raise ValueError("negative degree")
                nv = c.get(d, Fraction(0)) + v
                if nv:
                    c[d] = nv
                else:
                    c.pop(d, None)
        self.c = c

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls()

    @classmethod
    def const(cls, v) -> "UniPoly":
        return cls({0: _rat(v)})

    @classmethod
    def x(cls) -> "UniPoly":
        return cls({1: 1})

    @property
    def degree(self) -> int:
        return max(self.c) if self.c else -1

    @property
    def is_zero(self) -> bool:
        return not self.c

    @property
    def is_constant(self) -> bool:
        return self.degree <= 0

    def coeff(self, d: int) -> Fraction:
        return self.c.get(d, Fraction(0))

    @property
    def lc(self) -> Fraction:
        if not self.c:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.c[max(self.c)]

    def coeff_list(self) -> list[Fraction]:
        """Coefficients in ascending degree, length degree+1 (empty for zero)."""
        return [self.coeff(d) for d in range(self.degree + 1)]

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.c == other.c

    def __hash__(self) -> int:
        return hash(frozenset(self.c.items()))

    def __bool__(self) -> bool:
        return bool(self.c)

    def __neg__(self) -> "UniPoly":
        return UniPoly({d: -v for d, v in self.c.items()})

    def __add__(self, other) -> "UniPoly":
        if not isinstance(other, UniPoly):
            other = UniPoly.const(other)
        out = dict(self.c)
        for d, v in other.c.items():
            nv = out.get(d, Fraction(0)) + v
            if nv:
                out[d] = nv
            else:
                out.pop(d, None)
        p = UniPoly.__new__(UniPoly)
        p.c = out
        return p

    __radd__ = __add__

    def __sub__(self, other) -> "UniPoly":
        if not isinstance(other, UniPoly):
            other = UniPoly.const(other)
        return self + (-other)

    def __rsub__(self, other) -> "UniPoly":
        return UniPoly.const(other) - self

    def __mul__(self, other) -> "UniPoly":
        if not isinstance(other, UniPoly):
            v = _rat(other)
            return UniPoly({d: c * v for d, c in self.c.items()})
        out: dict[int, Fraction] = {}
        for d1, v1 in self.c.items():
            for d2, v2 in other.c.items():
                d = d1 + d2
                nv = out.get(d, Fraction(0)) + v1 * v2
                if nv:
                    out[d] = nv
                else:
                    out.pop(d, None)
        p = UniPoly.__new__(UniPoly)
        p.c = out
        return p

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative power")
        r = UniPoly.const(1)
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def __call__(self, point) -> Fraction:
        point = _rat(point)
        acc = Fraction(0)
        for d in range(self.degree, -1, -1):
            acc = acc * point + self.coeff(d)
        return acc

    def derivative(self) -> "UniPoly":
        return UniPoly({d - 1: v * d for d, v in self.c.items() if d})

    def divrem(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q: dict[int, Fraction] = {}
        r = dict(self.c)
        do = other.degree
        lo = other.lc
        while r:
            dr = max(r)
            if dr < do:
                break
            t = r[dr] / lo
            e = dr - do
            q[e] = t
            for d2, v2 in other.c.items():
                nd = d2 + e
                nv = r.get(nd, Fraction(0)) - t * v2
                if nv:
                    r[nd] = nv
                else:
                    r.pop(nd, None)
        return UniPoly(q), UniPoly(r)

    def divexact(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divrem(other)
        if not r.is_zero:
            raise ArithmeticError("inexact polynomial division")
        return q

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        return self * (1 / self.lc)

    def shift(self, a) -> "UniPoly":
        """Return p(x + a), the exact Taylor shift."""
        a = _rat(a)
        if not a or self.is_zero:
            return self
        res = UniPoly.zero()
        xa = UniPoly({1: 1, 0: a})
        for d in range(self.degree, -1, -1):
            res = res * xa + UniPoly.const(self.coeff(d))
        return res

    def compose(self, inner: "UniPoly") -> "UniPoly":
        res = UniPoly.zero()
        for d in range(self.degree, -1, -1):
            res = res * inner + UniPoly.const(self.coeff(d))
        return res

    def compose_bi(self, inner: "BiPoly") -> "BiPoly":
        res = BiPoly.zero()
        for d in range(self.degree, -1, -1):
            res = res * inner + BiPoly.const(self.coeff(d))
        return res

    def primitive(self) -> tuple["UniPoly", Fraction]:
        """Split as scale * prim with prim integer, coprime, positive lc."""
        if self.is_zero:
            return self, Fraction(1)
        L = 1
        for v in self.c.values():
            L = L * v.denominator // math.gcd(L, v.denominator)
        g = 0
        for v in self.c.values():
            g = math.gcd(g, abs(v.numerator * (L // v.denominator)))
        prim = UniPoly({d: v * L / g for d, v in self.c.items()})
        scale = Fraction(g, L)
        if prim.lc < 0:
            prim = -prim
            scale = -scale
        return prim, scale

    def normalized(self) -> "UniPoly":
        return self.primitive()[0]

    def to_bipoly(self, var: str = "x") -> "BiPoly":
        if var == "x":
            return BiPoly({(d, 0): v for d, v in self.c.items()})
        if var == "y":
            return BiPoly({(0, d): v for d, v in self.c.items()})
        raise ValueError("var must be 'x' or 'y'")

    def __repr__(self) -> str:
        from .parsing import format_unipoly

        return f"UniPoly({format_unipoly(self)!r})"


class BiPoly:
    """Bivariate polynomial with exact rational coefficients."""

    __slots__ = ("t",)

    def __init__(self, terms=None):
        t: dict[tuple[int, int], Fraction] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for key, v in items:
                v = _rat(v)
                if not v:
                    continue
                i, j = int(key[0]), int(key[1])
                if i < 0 or j < 0:
                    raise ValueError("negative exponent")
                nv = t.get((i, j), Fraction(0)) + v
                if nv:
                    t[(i, j)] = nv
                else:
                    t.pop((i, j), None)
        self.t = t

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls()

    @classmethod
    def const(cls, v) -> "BiPoly":
        return cls({(0, 0): _rat(v)})

    @classmethod
    def x(cls) -> "BiPoly":
        return cls({(1, 0): 1})

    @classmethod
    def y(cls) -> "BiPoly":
        return cls({(0, 1): 1})

    @property
    def is_zero(self) -> bool:
        return not self.t

    @property
    def is_constant(self) -> bool:
        return all(k == (0, 0) for k in self.t)

    @property
    def deg_x(self) -> int:
        return max((i for i, _ in self.t), default=-1)

    @property
    def deg_y(self) -> int:
        return max((j for _, j in self.t), default=-1)

    @property
    def total_degree(self) -> int:
        return max((i + j for i, j in self.t), default=-1)

    def coeff(self, i: int, j: int) -> Fraction:
        return self.t.get((i, j), Fraction(0))

    def leading_term(self) -> tuple[tuple[int, int], Fraction]:
        """Leading (term, coefficient) under graded lex with x > y."""
        if not self.t:
            raise ValueError("zero polynomial has no leading term")
        key = max(self.t, key=grlex_key)
        return key, self.t[key]

    def __eq__(self, other) -> bool:
        return isinstance(other, BiPoly) and self.t == other.t

    def __hash__(self) -> int:
        return hash(frozenset(self.t.items()))

    def __bool__(self) -> bool:
        return bool(self.t)

    def __neg__(self) -> "BiPoly":
        return BiPoly({k: -v for k, v in self.t.items()})

    def __add__(self, other) -> "BiPoly":
        if not isinstance(other, BiPoly):
            other = BiPoly.const(other)
        out = dict(self.t)
        for k, v in other.t.items():
            nv = out.get(k, Fraction(0)) + v
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
        p = BiPoly.__new__(BiPoly)
        p.t = out
        return p

    __radd__ = __add__

    def __sub__(self, other) -> "BiPoly":
        if not isinstance(other, BiPoly):
            other = BiPoly.const(other)
        return self + (-other)

    def __rsub__(self, other) -> "BiPoly":
        return BiPoly.const(other) - self

    def __mul__(self, other) -> "BiPoly":
        if not isinstance(other, BiPoly):
            v = _rat(other)
            return BiPoly({k: c * v for k, c in self.t.items()})
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), v1 in self.t.items():
            for (i2, j2), v2 in other.t.items():
                k = (i1 + i2, j1 + j2)
                nv = out.get(k, Fraction(0)) + v1 * v2
                if nv:
                    out[k] = nv
                else:
                    out.pop(k, None)
        p = BiPoly.__new__(BiPoly)
        p.t = out
        return p

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BiPoly":
        if n < 0:
            raise ValueError("negative power")
        r = BiPoly.const(1)
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def __call__(self, a, b) -> Fraction:
        a, b = _rat(a), _rat(b)
        return self.specialize_y(b)(a)

    def derivative(self, var: str) -> "BiPoly":
        if var == "x":
            return BiPoly({(i - 1, j): v * i for (i, j), v in self.t.items() if i})
        if var == "y":
            return BiPoly({(i, j - 1): v * j for (i, j), v in self.t.items() if j})
        raise ValueError("var must be 'x' or 'y'")

    def specialize_y(self, b) -> UniPoly:
        """Return f(x, b) as a univariate polynomial in x."""
        b = _rat(b)
        cols: dict[int, list[tuple[int, Fraction]]] = {}
        for (i, j), v in self.t.items():
            cols.setdefault(i, []).append((j, v))
        out: dict[int, Fraction] = {}
        for i, terms in cols.items():
            acc = Fraction(0)
            for j in range(max(d for d, _ in terms), -1, -1):
                acc = acc * b
                for d, v in terms:
                    if d == j:
                        acc += v
            if acc:
                out[i] = acc
        return UniPoly(out)

    def swap(self) -> "BiPoly":
        return BiPoly({(j, i): v for (i, j), v in self.t.items()})

    def subst_x_affine(self, c0, c1) -> "BiPoly":
        """Substitute x -> c0 + c1*x (exact)."""
        c0, c1 = _rat(c0), _rat(c1)
        lin = BiPoly({(1, 0): c1, (0, 0): c0})
        powers = {0: BiPoly.const(1)}
        out = BiPoly.zero()
        for (i, j), v in sorted(self.t.items()):
            if i not in powers:
                top = max(powers)
                p = powers[top]
                for e in range(top + 1, i + 1):
                    p = p * lin
                    powers[e] = p
            out = out + powers[i] * BiPoly({(0, j): v})
        return out

    def shift_x(self, a) -> "BiPoly":
        """Return f(x - a, y)."""
        a = _rat(a)
        if not a:
            return self
        return self.subst_x_affine(-a, 1)

    def coeffs_in_x(self) -> dict[int, UniPoly]:
        """Coefficients of powers of x, each a polynomial in y."""
        out: dict[int, dict[int, Fraction]] = {}
        for (i, j), v in self.t.items():
            out.setdefault(i, {})[j] = v
        return {i: UniPoly(d) for i, d in out.items()}

    @classmethod
    def from_coeffs_in_x(cls, coeffs: dict[int, UniPoly]) -> "BiPoly":
        return cls(
            {(i, j): v for i, p in coeffs.items() for j, v in p.c.items()}
        )

    def to_unipoly(self) -> tuple[UniPoly, str]:
        """Convert a polynomial in a single variable; returns (poly, var)."""
        if self.deg_y <= 0:
            return UniPoly({i: v for (i, _), v in self.t.items()}), "x"
        if self.deg_x <= 0:
            return UniPoly({j: v for (_, j), v in self.t.items()}), "y"
        raise ValueError("polynomial involves both variables")

    def primitive(self) -> tuple["BiPoly", Fraction]:
        """Split as scale * prim with prim integer, coprime, positive grlex lc."""
        if self.is_zero:
            return self, Fraction(1)
        L = 1
        for v in self.t.values():
            L = L * v.denominator // math.gcd(L, v.denominator)
        g = 0
        for v in self.t.values():
            g = math.gcd(g, abs(v.numerator * (L // v.denominator)))
        prim = BiPoly({k: v * L / g for k, v in self.t.items()})
        scale = Fraction(g, L)
        if prim.leading_term()[1] < 0:
            prim = -prim
            scale = -scale
        return prim, scale

    def normalized(self) -> "BiPoly":
        return self.primitive()[0]

    def __repr__(self) -> str:
        from .parsing import format_bipoly

        return f"BiPoly({format_bipoly(self)!r})"


# ---------------------------------------------------------------------------
# integer grids


@dataclass(frozen=True)
class IntegerGrid:
    """f over a finite set A, rescaled once to Python ints.

    D is the lcm of the denominators of A and S = L * D^k, with L the lcm of
    the coefficient denominators of f and k its total degree. `points[i]` is
    D * a_i and `rows[i]` the ascending integer coefficients of
    X -> S * f(X / D, a_i), trailing zeros dropped (a zero row is empty), in
    the order of A. So S * f(a, b) = row_b(D * a) and S * f(x - a, b) at
    x = s / D is row_b(s - D * a). As D, S > 0, a -> D * a and v -> S * v are
    increasing bijections: equalities, counts and order carry over exactly.
    """

    D: int
    S: int
    points: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]


def integer_grid(f: BiPoly, A) -> IntegerGrid:
    """Rescale f and the finite set A to integers (see `IntegerGrid`).

    Row coefficient i is sum_j (L c_ij) D^(k-i-j) (D b)^j, and k - i - j >= 0
    for every term, so the row is integral once L c_ij and D b are.
    """
    A = [_rat(a) for a in A]
    D = math.lcm(*(a.denominator for a in A))
    L = math.lcm(*(v.denominator for v in f.t.values()))
    k = max(f.total_degree, 0)
    terms = []
    for (i, j), v in f.t.items():
        c = v * L
        if c.denominator != 1:
            raise CertificationFailed("L * f has a non-integer coefficient")
        terms.append((i, j, c.numerator * D ** (k - i - j)))
    points = []
    for a in A:
        p = a * D
        if p.denominator != 1:
            raise CertificationFailed("D * a is not an integer")
        points.append(p.numerator)
    width = f.deg_x + 1
    rows = []
    for p in points:
        row = [0] * width
        for i, j, c in terms:
            row[i] += c * p**j
        while row and not row[-1]:
            row.pop()
        rows.append(tuple(row))
    return IntegerGrid(D, L * D**k, tuple(points), tuple(rows))


def horner_int(row: tuple[int, ...], x: int) -> int:
    """Value at x of the ascending integer coefficient row."""
    v = 0
    for c in reversed(row):
        v = v * x + c
    return v


def shift_int(row: tuple[int, ...], t: int) -> tuple[int, ...]:
    """Ascending coefficients of p(X + t), for p given by an integer row."""
    c = list(row)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += t * c[j + 1]
    return tuple(c)


# ---------------------------------------------------------------------------
# division, gcd


def bi_divexact(f: BiPoly, g: BiPoly) -> BiPoly | None:
    """Quotient f/g when g divides f exactly in Q[x,y], else None.

    Long division in x with coefficients in Q[y]; when g divides f every
    intermediate leading-coefficient division is exact, so any inexact step
    proves indivisibility.
    """
    if g.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero:
        return BiPoly.zero()
    gx = g.coeffs_in_x()
    dg = max(gx)
    if dg == 0:
        g0 = gx[0]
        out: dict[int, UniPoly] = {}
        for i, ci in f.coeffs_in_x().items():
            q, r = ci.divrem(g0)
            if not r.is_zero:
                return None
            out[i] = q
        return BiPoly.from_coeffs_in_x(out)
    glead = gx[dg]
    r = f.coeffs_in_x()
    q: dict[int, UniPoly] = {}
    while r:
        dr = max(r)
        if dr < dg:
            return None
        qc, rem = r[dr].divrem(glead)
        if not rem.is_zero:
            return None
        e = dr - dg
        q[e] = qc
        for i2, c2 in gx.items():
            nd = i2 + e
            nv = r.get(nd, UniPoly.zero()) - qc * c2
            if nv.is_zero:
                r.pop(nd, None)
            else:
                r[nd] = nv
    return BiPoly.from_coeffs_in_x(q)


def uni_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic-Euclid gcd, returned primitive with positive leading coefficient."""
    if p.degree == 0 or q.degree == 0:
        return UniPoly.const(1)
    a, b = p, q
    while not b.is_zero:
        a, b = b, a.divrem(b)[1]
    if a.is_zero:
        return a
    return a.normalized()


def split_content_x(f: BiPoly) -> tuple[UniPoly, BiPoly]:
    """(c, P) with f = c P: c in Q[y] the gcd of the x-direction coefficients
    (primitive, positive lc) and P primitive in x."""
    if f.is_zero:
        raise ValueError("content of zero polynomial")
    acc = UniPoly.zero()
    # lowest degrees first: a constant coefficient settles it at once
    for c in sorted(f.coeffs_in_x().values(), key=lambda c: c.degree):
        acc = uni_gcd(acc, c)
        if acc.degree == 0:
            return acc, f
    out = bi_divexact(f, acc.to_bipoly("y"))
    if out is None:
        raise CertificationFailed("the content in x does not divide the polynomial")
    return acc, out


def bi_gcd(f: BiPoly, g: BiPoly) -> BiPoly:
    """gcd in Q[x,y]: the gcd of the x-contents times the modular gcd of the
    x-primitive parts (`_primitive_gcd`), normalized."""
    if f.is_zero:
        return g.normalized()
    if g.is_zero:
        return f.normalized()
    cf, fp = split_content_x(f)
    cg, gp = split_content_x(g)
    c = uni_gcd(cf, cg)
    if fp.deg_x == 0 or gp.deg_x == 0:
        # a primitive-in-x polynomial of x-degree 0 is a rational constant
        prim = BiPoly.const(1)
    else:
        prim = _primitive_gcd(fp, gp)
    return (c.to_bipoly("y") * prim).normalized()


def _primitive_gcd(f: BiPoly, g: BiPoly) -> BiPoly:
    """gcd of f and g, both primitive in x and of x-degree >= 1 (Brown 1971).

    Let F, G be the primitive integer multiples of f, g, h their gcd in
    Z[x, y] and gamma = gcd(lc_x F, lc_x G), which lc_x h divides. Then
    H = (gamma / lc_x h) h has y-degree at most deg gamma + min(deg_y f,
    deg_y g). At a point y0 where neither leading x-coefficient vanishes
    mod p, h(x, y0) divides both images, so their gcd has x-degree at least
    deg_x h, with equality exactly when gamma(y0) times the monic gcd is
    H(x, y0) mod p. The images of least x-degree are interpolated in y,
    joined over primes by CRT, lifted by rational reconstruction, and the
    primitive part in x is accepted only when it divides f and g exactly:
    it has x-degree at least deg_x h, so it is then the gcd. Every prime
    evaluates at fresh integer points, so integer points where F(x, y0) and
    G(x, y0) gain a common factor cannot spoil every prime.
    """
    _, F = _columns(f)
    _, G = _columns(g)
    m, n = len(F) - 1, len(G) - 1
    gamma = [int(v) for v in uni_gcd(UniPoly(enumerate(F[m])), UniPoly(enumerate(G[n]))).coeff_list()]
    want = len(gamma) + min(f.deg_y, g.deg_y)
    budget = _gcd_prime_budget(F, G)
    deg = residues = None
    modulus = 1
    points = count()
    for used, p in enumerate(linalg._primes(), 1):
        if any(c % p for c in F[m]) and any(c % p for c in G[n]):
            image = _gcd_image(F, G, gamma, want, p, points)
            if image is None:
                return BiPoly.const(1)
            d = len(image) // want - 1
            if deg is None or d < deg:
                deg, residues, modulus = d, image, p
            elif d == deg:
                residues = linalg._crt(residues, modulus, image, p)
                modulus *= p
            if d == deg:
                lifted = linalg._lift(residues, modulus)
                if lifted is not None:
                    nums, den = lifted
                    H = BiPoly(
                        {(i, j): Fraction(nums[i * want + j], den) for i in range(deg + 1) for j in range(want)}
                    )
                    cand = split_content_x(H)[1]
                    if bi_divexact(f, cand) is not None and bi_divexact(g, cand) is not None:
                        return cand
        if used >= budget:
            raise CertificationFailed(f"gcd of x-degrees {m} and {n} not certified after {used} primes")


def _gcd_image(
    F: list[list[int]], G: list[list[int]], gamma: list[int], want: int, p: int, points: Iterator[int]
) -> list[int] | None:
    """H mod p for `_primitive_gcd`, flattened: the y-coefficients of its
    x^0 coefficient, then of x^1, and so on, `want` of each. None when an
    image shows F and G coprime. The points are drawn from `points`, and
    neither leading x-coefficient may vanish identically mod p."""
    xs: list[int] = []
    images: list[list[int]] = []
    for y0 in points:
        a = [horner_int(col, y0) % p for col in F]
        b = [horner_int(col, y0) % p for col in G]
        if not (a[-1] and b[-1]):
            continue
        h = _gcd_mod(a, b, p)
        if len(h) == 1:
            return None
        if images and len(h) > len(images[0]):
            continue
        if images and len(h) < len(images[0]):
            xs, images = [], []
        scale = horner_int(gamma, y0) % p
        xs.append(y0)
        images.append([c * scale % p for c in h])
        if len(xs) == want:
            break
    return [v for i in range(len(images[0])) for v in _interpolate_mod(xs, [im[i] for im in images], p)]


def _gcd_prime_budget(F: list[list[int]], G: list[list[int]]) -> int:
    """Primes that always suffice for `_primitive_gcd` of F and G.

    Every subresultant is a Sylvester minor, of 1-norm at most
    B = ||F||_1^n ||G||_1^m, so at most log2(B)/60 primes are unlucky, and
    the integer points where the degree of the gcd jumps are roots of one
    nonzero subresultant of y-degree at most n deg_y F + m deg_y G. A factor
    of F has 1-norm at most 2^(deg_x F + deg_y F) ||F||_1 (Mahler measure),
    and so does gamma / lc_x h up to the content of lc_x h, so a modulus
    above 2^(2 b + 1), b = deg_x F + 2 deg_y F + 2 log2 ||F||_1,
    reconstructs H.
    """
    m, n = len(F) - 1, len(G) - 1
    dy_f, dy_g = len(F[0]) - 1, len(G[0]) - 1
    bits_f, bits_g = _norm1(F).bit_length(), _norm1(G).bit_length()
    h_bits = m + 2 * dy_f + 2 * bits_f
    return (2 * h_bits + 1) // 60 + 1 + (n * bits_f + m * bits_g) // 60 + 1 + n * dy_f + m * dy_g + 1


# ---------------------------------------------------------------------------
# modular images (shared by the gcd and the resultant)


def _columns(f: BiPoly) -> tuple[Fraction, list[list[int]]]:
    """Split f = scale * F with F in Z[x, y] primitive. Column i of F is its
    x^i coefficient as ascending y-coefficients, all of length deg_y f + 1."""
    L = math.lcm(*(v.denominator for v in f.t.values()))
    nums = {k: v.numerator * (L // v.denominator) for k, v in f.t.items()}
    g = math.gcd(*nums.values())
    cols = [[0] * (f.deg_y + 1) for _ in range(f.deg_x + 1)]
    for (i, j), c in nums.items():
        cols[i][j] = c // g
    return Fraction(g, L), cols


def _norm1(cols: list[list[int]]) -> int:
    return sum(abs(c) for col in cols for c in col)


def _rem_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a by b mod p; ascending coefficients, b[-1] nonzero."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    while len(a) > db:
        q = a.pop() * inv % p
        if q:
            off = len(a) - db
            for k in range(db):
                a[off + k] = (a[off + k] - q * b[k]) % p
    while a and not a[-1]:
        a.pop()
    return a


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd mod p of two nonzero ascending coefficient lists."""
    while b:
        a, b = b, _rem_mod(a, b, p)
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _resultant_mod(a: list[int], b: list[int], p: int) -> int:
    """Sylvester determinant mod p of a and b (a-block first), both with
    nonzero leading coefficients, by Euclid: with a = q b + r and deg r = k,
    res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - k) res(b, r)."""
    out = 1
    while True:
        m, n = len(a) - 1, len(b) - 1
        if n == 0:
            return out * pow(b[0], m, p) % p
        r = _rem_mod(a, b, p)
        if not r:
            return 0
        if m * n % 2:
            out = -out
        out = out * pow(b[-1], m - len(r) + 1, p) % p
        a, b = b, r


def _interpolate_mod(xs: list[int], ys: list[int], p: int) -> list[int]:
    """Ascending coefficients mod p of the polynomial of degree < len(xs)
    through the points (xs[i], ys[i]), by Newton's divided differences."""
    n = len(xs)
    c = list(ys)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) * pow(xs[i] - xs[i - k], -1, p) % p
    out = [c[-1]]
    for k in range(n - 2, -1, -1):
        # out <- out * (X - xs[k]) + c[k]
        out = [(c[k] - xs[k] * out[0]) % p] + [
            (out[i - 1] - xs[k] * out[i]) % p for i in range(1, len(out))
        ] + [out[-1]]
    return out


# ---------------------------------------------------------------------------
# resultants


def uni_resultant(p: UniPoly, q: UniPoly) -> Fraction:
    """Sylvester determinant of two univariate polynomials (p-block first)."""
    return resultant_eliminating(p.to_bipoly("x"), q.to_bipoly("x"), "x").coeff(0)


def resultant_eliminating(f: BiPoly, g: BiPoly, var: str) -> UniPoly:
    """Resultant of f, g with respect to `var`, a polynomial in the other one.

    It is the Sylvester determinant, p-block first, computed modularly
    (Collins 1971). With f = s F and g = t G, F and G in Z[x, y] of
    x-degrees m and n, res(f, g) = s^n t^m res(F, G). For each `linalg`
    prime p, res(F, G) mod p is interpolated through its values at
    y0 = 0, 1, ..., skipping the points where a leading x-coefficient
    vanishes mod p (elsewhere the univariate resultant mod p is the value),
    at n deg_y F + m deg_y G + 1 points, one more than its degree bound.
    The entries of a row of the Sylvester matrix have 1-norms summing to
    ||F||_1 or ||G||_1, so every coefficient of res(F, G) is at most
    ||F||_1^n ||G||_1^m in absolute value; primes are added until their
    product exceeds twice that, and the symmetric residues are then exact.
    """
    if var == "y":
        f, g = f.swap(), g.swap()
    elif var != "x":
        raise ValueError("var must be 'x' or 'y'")
    if f.is_zero and g.is_zero:
        raise ValueError("resultant of two zero polynomials")
    if f.is_zero or g.is_zero:
        return UniPoly.zero()
    m, n = f.deg_x, g.deg_x
    if m == 0:
        return f.coeffs_in_x()[0] ** n
    if n == 0:
        return g.coeffs_in_x()[0] ** m
    s, F = _columns(f)
    t, G = _columns(g)
    points = n * f.deg_y + m * g.deg_y + 1
    bound = 2 * _norm1(F) ** n * _norm1(G) ** m
    values: dict[int, tuple[list[int], list[int]]] = {}
    coeffs, modulus = [0] * points, 1
    for p in linalg._primes():
        if modulus > bound:
            break
        if not any(c % p for c in F[m]) or not any(c % p for c in G[n]):
            continue
        xs, ys = [], []
        y0 = 0
        while len(xs) < points:
            if y0 not in values:
                values[y0] = ([horner_int(col, y0) for col in F], [horner_int(col, y0) for col in G])
            a, b = ([v % p for v in vs] for vs in values[y0])
            if a[-1] and b[-1]:
                xs.append(y0)
                ys.append(_resultant_mod(a, b, p))
            y0 += 1
        coeffs = linalg._crt(coeffs, modulus, _interpolate_mod(xs, ys, p), p)
        modulus *= p
    scale = s**n * t**m
    return UniPoly({j: (c - modulus if 2 * c > modulus else c) * scale for j, c in enumerate(coeffs)})
