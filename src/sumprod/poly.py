"""Sparse exact-rational polynomials in one and two variables.

`UniPoly` maps degree -> coefficient, `BiPoly` maps (x-exponent, y-exponent)
-> coefficient. Zero coefficients are never stored; the zero polynomial has
degree -1. Values are immutable after construction, so they can be shared
freely. Term comparisons use graded lexicographic order with x ahead of y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
    a, b = p, q
    while not b.is_zero:
        a, b = b, a.divrem(b)[1]
    if a.is_zero:
        return a
    return a.normalized()


def _pseudo_rem(a: UniPoly, b: UniPoly) -> UniPoly:
    """prem(a, b) = rem(lc(b)^(deg a - deg b + 1) * a, b), division-free."""
    d = a.degree - b.degree
    if d < 0:
        raise ValueError("pseudo-remainder needs deg a >= deg b")
    scaled = a * (b.lc ** (d + 1))
    return scaled.divrem(b)[1]


def uni_gcd_subresultant(p: UniPoly, q: UniPoly) -> UniPoly:
    """Independent gcd route: subresultant polynomial remainder sequence."""
    a = p.normalized()
    b = q.normalized()
    if a.degree < b.degree:
        a, b = b, a
    if b.is_zero:
        return a
    g = Fraction(1)
    h = Fraction(1)
    while True:
        delta = a.degree - b.degree
        r = _pseudo_rem(a, b)
        if r.is_zero:
            return b.normalized()
        if r.degree == 0:
            return UniPoly.const(1)
        a, b = b, r * (1 / (g * h**delta))
        g = a.lc
        h = h * (g / h) ** delta if delta else h


def content_x(f: BiPoly) -> UniPoly:
    """gcd over Q[y] of the x-direction coefficients (primitive, positive lc)."""
    acc = UniPoly.zero()
    for c in f.coeffs_in_x().values():
        acc = uni_gcd(acc, c)
        if acc.degree == 0:
            break
    if acc.is_zero:
        raise ValueError("content of zero polynomial")
    return acc


def primitive_part_x(f: BiPoly) -> BiPoly:
    cont = content_x(f)
    if cont.degree == 0 and cont.coeff(0) == 1:
        return f
    out = bi_divexact(f, cont.to_bipoly("y"))
    if out is None:
        raise CertificationFailed("the content in x does not divide the polynomial")
    return out


def _pseudo_rem_x(a: BiPoly, b: BiPoly) -> BiPoly:
    ax = a.coeffs_in_x()
    bx = b.coeffs_in_x()
    da, db = max(ax), max(bx)
    if da < db:
        raise ValueError("pseudo-remainder needs deg_x a >= deg_x b")
    lead = bx[db]
    r = {i: c * lead ** (da - db + 1) for i, c in ax.items()}
    while r:
        dr = max(r)
        if dr < db:
            break
        qc, rem = r[dr].divrem(lead)
        if not rem.is_zero:
            raise CertificationFailed("inexact step in a pseudo-remainder")
        for i2, c2 in bx.items():
            nd = i2 + dr - db
            nv = r.get(nd, UniPoly.zero()) - qc * c2
            if nv.is_zero:
                r.pop(nd, None)
            else:
                r[nd] = nv
    return BiPoly.from_coeffs_in_x(r)


def bi_gcd(f: BiPoly, g: BiPoly) -> BiPoly:
    """gcd in Q[x,y] via contents plus a primitive remainder sequence in x."""
    if f.is_zero:
        return g.normalized()
    if g.is_zero:
        return f.normalized()
    cf, cg = content_x(f), content_x(g)
    c = uni_gcd(cf, cg)
    fp = primitive_part_x(f)
    gp = primitive_part_x(g)
    if fp.deg_x == 0 or gp.deg_x == 0:
        # a primitive-in-x polynomial of x-degree 0 is a rational constant
        prim = BiPoly.const(1)
    else:
        a, b = (fp, gp) if fp.deg_x >= gp.deg_x else (gp, fp)
        while True:
            r = _pseudo_rem_x(a, b)
            if r.is_zero:
                prim = primitive_part_x(b)
                break
            if r.deg_x == 0:
                prim = BiPoly.const(1)
                break
            a, b = b, primitive_part_x(r)
    return (c.to_bipoly("y") * prim).normalized()


# ---------------------------------------------------------------------------
# resultants


def _sylvester_rows(pc: list, qc: list, zero) -> list[list]:
    """Sylvester matrix rows; p-block first, coefficients highest-degree first."""
    m = len(pc) - 1
    n = len(qc) - 1
    size = m + n
    rows = []
    prow = list(reversed(pc))
    qrow = list(reversed(qc))
    for k in range(n):
        rows.append([zero] * k + prow + [zero] * (size - k - m - 1))
    for k in range(m):
        rows.append([zero] * k + qrow + [zero] * (size - k - n - 1))
    return rows


def uni_resultant(p: UniPoly, q: UniPoly) -> Fraction:
    """Sylvester determinant of two univariate polynomials (p-block first)."""
    return resultant_eliminating(p.to_bipoly("x"), q.to_bipoly("x"), "x").coeff(0)


def resultant_eliminating(f: BiPoly, g: BiPoly, var: str) -> UniPoly:
    """Resultant of f, g with respect to `var`, a polynomial in the other one.

    Computed as the Sylvester determinant with polynomial entries via
    fraction-free elimination.
    """
    if var == "y":
        f, g = f.swap(), g.swap()
    elif var != "x":
        raise ValueError("var must be 'x' or 'y'")
    if f.is_zero and g.is_zero:
        raise ValueError("resultant of two zero polynomials")
    if f.is_zero or g.is_zero:
        return UniPoly.zero()
    fx = f.coeffs_in_x()
    gx = g.coeffs_in_x()
    m, n = max(fx), max(gx)
    if m == 0:
        return fx[0] ** n
    if n == 0:
        return gx[0] ** m
    pc = [fx.get(d, UniPoly.zero()) for d in range(m + 1)]
    qc = [gx.get(d, UniPoly.zero()) for d in range(n + 1)]
    rows = _sylvester_rows(pc, qc, UniPoly.zero())
    return linalg.det_in_ring(
        rows,
        zero=UniPoly.zero(),
        one=UniPoly.const(1),
        is_zero=lambda u: u.is_zero,
        mul=lambda a, b: a * b,
        sub=lambda a, b: a - b,
        divexact=lambda a, b: a.divexact(b),
    )
