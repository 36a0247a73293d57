"""Sparse exact-rational polynomials in one and two variables.

A polynomial is stored as integer numerators over one denominator: `n` maps
a degree (`UniPoly`) or an (x-exponent, y-exponent) pair (`BiPoly`) to a
nonzero int, and `d` is a positive int with gcd(d, *n.values()) == 1, so
the polynomial is n / d in lowest terms. Integer polynomials have d == 1
and never pay a gcd; any other result is reduced with one
`math.gcd(d, *n.values())`. The form is canonical, so `==` and `hash`
compare (d, n). The zero polynomial has no numerators, d == 1 and degree
-1. Values are immutable after construction, so they can be shared freely.
Term comparisons use graded lexicographic order with x ahead of y.

`coeff` gives one coefficient as a Fraction; every other reader, the
printer included, works on `n` and `d` directly.

Resultants in Q[x, y] and gcds in Q[x] and Q[x, y] are modular: they scale
to Z[x, y], take univariate images mod the 61-bit primes of `linalg` at
integer values of the other variable, interpolate, and join the primes by
CRT. A gcd in Q[x] is the y-free case of the one in Q[x, y].
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count, islice
from operator import ne
from typing import Iterator

from . import linalg
from .errors import CertificationFailed


def _rat(v) -> int | Fraction:
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def grlex_key(term: tuple[int, int]) -> tuple[int, int]:
    i, j = term
    return (i + j, i)


class _Poly:
    """Arithmetic shared by `UniPoly` and `BiPoly` on the numerators `n`
    over the denominator `d` (module docstring). Subclasses give the key of
    the constant term, key validation, the leading key and the product."""

    __slots__ = ("n", "d")
    _ONE: object

    def __init__(self, terms=None):
        """From a map or an iterable of (key, value) pairs; values are ints,
        Fractions or anything `Fraction` accepts, and repeated keys add up."""
        pairs = []
        if terms:
            for k, v in terms.items() if isinstance(terms, Mapping) else terms:
                v = _rat(v)
                if v:
                    pairs.append((self._key(k), v))
        d = math.lcm(*(v.denominator for _, v in pairs))
        n: dict = {}
        for k, v in pairs:
            s = n.get(k, 0) + v.numerator * (d // v.denominator)
            if s:
                n[k] = s
            else:
                del n[k]
        self._set(n, d)

    def _set(self, n: dict, d: int) -> None:
        if d != 1:
            g = math.gcd(d, *n.values())
            if g != 1:
                n = {k: v // g for k, v in n.items()}
                d //= g
        self.n, self.d = n, d

    @classmethod
    def _over(cls, n: dict, d: int = 1):
        """n / d in lowest terms: n holds nonzero ints and d > 0."""
        p = object.__new__(cls)
        p._set(n, d)
        return p

    @classmethod
    def _raw(cls, n: dict, d: int = 1):
        """n / d already in lowest terms."""
        p = object.__new__(cls)
        p.n, p.d = n, d
        return p

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def const(cls, v):
        v = _rat(v)
        return cls._raw({cls._ONE: v.numerator}, v.denominator) if v else cls.zero()

    @property
    def is_zero(self) -> bool:
        return not self.n

    def __bool__(self) -> bool:
        return bool(self.n)

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and self.d == other.d and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.d, frozenset(self.n.items())))

    def __neg__(self):
        return self._raw({k: -v for k, v in self.n.items()}, self.d)

    def __add__(self, other):
        if other.__class__ is not self.__class__:
            other = self.const(other)
        d = math.lcm(self.d, other.d)
        m = d // self.d
        n = {k: v * m for k, v in self.n.items()} if m != 1 else dict(self.n)
        m = d // other.d
        for k, v in other.n.items():
            s = n.get(k, 0) + v * m
            if s:
                n[k] = s
            else:
                del n[k]
        return self._over(n, d)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not self.__class__:
            other = self.const(other)
        return self + -other

    def __rsub__(self, other):
        return self.const(other) - self

    def _scale(self, v):
        """The product with the scalar v."""
        v = _rat(v)
        if not v:
            return self.zero()
        a = v.numerator
        return self._over({k: c * a for k, c in self.n.items()}, self.d * v.denominator)

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power")
        # content(n^e) = content(n)^e is coprime to d^e (Gauss), so n^e / d^e
        # is already in lowest terms
        r, b, k = self.const(1), self._raw(self.n), e
        while k:
            if k & 1:
                r = r * b
            b = b * b
            k >>= 1
        return self._raw(r.n, self.d**e)

    def scaled_ints(self) -> tuple[Fraction, dict]:
        """(s, N) with self = s * N, s > 0 and N the coprime integer numerators
        of a nonzero polynomial; N may be `self.n` itself, so it is read only."""
        g = math.gcd(*self.n.values())
        return Fraction(g, self.d), {k: v // g for k, v in self.n.items()} if g != 1 else self.n

    def primitive(self):
        """Split as scale * prim with prim integer, coprime, positive leading
        coefficient (graded lex for `BiPoly`)."""
        if not self.n:
            return self, Fraction(1)
        scale, ints = self.scaled_ints()
        if ints[self._lead_key()] < 0:
            scale, ints = -scale, {k: -v for k, v in ints.items()}
        return (self if scale == 1 else self._raw(ints)), scale

    def normalized(self):
        return self.primitive()[0]


class UniPoly(_Poly):
    """Univariate polynomial with exact rational coefficients."""

    __slots__ = ()
    _ONE = 0

    @staticmethod
    def _key(k) -> int:
        k = int(k)
        if k < 0:
            raise ValueError("negative degree")
        return k

    @property
    def degree(self) -> int:
        return max(self.n) if self.n else -1

    @property
    def is_constant(self) -> bool:
        return self.degree <= 0

    def coeff(self, k: int) -> Fraction:
        return Fraction(self.n.get(k, 0), self.d)

    def _lead_key(self) -> int:
        return max(self.n)

    @property
    def lc(self) -> Fraction:
        if not self.n:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeff(self._lead_key())

    def __mul__(self, other) -> "UniPoly":
        if other.__class__ is not UniPoly:
            return self._scale(other)
        out: dict[int, int] = {}
        for d1, v1 in self.n.items():
            for d2, v2 in other.n.items():
                k = d1 + d2
                s = out.get(k, 0) + v1 * v2
                if s:
                    out[k] = s
                else:
                    del out[k]
        return UniPoly._over(out, self.d * other.d)

    __rmul__ = __mul__

    def __call__(self, point) -> Fraction:
        """p(a / b) = (sum_k n_k a^k b^(deg - k)) / (d b^deg), by Horner."""
        n = self.n
        if not n:
            return Fraction(0)
        point = _rat(point)
        a, b = point.numerator, point.denominator
        acc, bk = 0, 1
        for k in range(max(n), -1, -1):
            acc = acc * a + n.get(k, 0) * bk
            bk *= b
        return Fraction(acc, self.d * bk // b)

    def derivative(self) -> "UniPoly":
        return UniPoly._over({k - 1: v * k for k, v in self.n.items() if k}, self.d)

    def divrem(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        """Quotient and remainder over Q, by fraction-free pseudo-division of
        the numerators: A = (q B + r) / s, with q, r and s scaled up only at a
        step whose leading coefficient lc(B) does not divide."""
        if not other.n:
            raise ZeroDivisionError("polynomial division by zero")
        B = other.n
        db = max(B)
        lead = B[db]
        q: dict[int, int] = {}
        r = dict(self.n)
        s = 1
        while r:
            dr = max(r)
            if dr < db:
                break
            c = r[dr]
            if c % lead:
                m = abs(lead) // math.gcd(c, lead)
                r = {k: v * m for k, v in r.items()}
                q = {k: v * m for k, v in q.items()}
                s *= m
                c *= m
            t = c // lead
            e = dr - db
            q[e] = t
            for k, v in B.items():
                k += e
                v = r.get(k, 0) - t * v
                if v:
                    r[k] = v
                else:
                    del r[k]
        # self = A / da and other = B / db', so the quotient is q db' / (s da)
        s *= self.d
        return UniPoly._over({k: v * other.d for k, v in q.items()}, s), UniPoly._over(r, s)

    def divexact(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divrem(other)
        if not r.is_zero:
            raise ArithmeticError("inexact polynomial division")
        return q

    def monic(self) -> "UniPoly":
        return self._scale(1 / self.lc) if self.n else self

    def shift(self, a) -> "UniPoly":
        """Return p(x + a), the exact Taylor shift.

        With a = u / w and N the numerators of p, of degree m, the integer
        polynomial C(z) = sum_k N_k w^(m - k) (z + u)^k gives
        N(x + a) = w^(-m) C(w x), so coefficient k of p(x + a) is
        C_k w^k / (d w^m). C is the integer shift `shift_all` at the one
        point u.
        """
        a = _rat(a)
        if not a or self.is_zero:
            return self
        u, w = a.numerator, a.denominator
        m = self.degree
        (c,) = shift_all(tuple(self.n.get(k, 0) * w ** (m - k) for k in range(m + 1)), (u,))
        return UniPoly._over({k: v * w**k for k, v in enumerate(c) if v}, self.d * w**m)

    def compose(self, inner):
        """p(inner), for a `UniPoly` or a `BiPoly` inner, by Horner on the
        numerators of p."""
        res = inner.zero()
        for k in range(self.degree, -1, -1):
            res = res * inner + self.n.get(k, 0)
        return res._scale(Fraction(1, self.d))

    def to_bipoly(self, var: str = "x") -> "BiPoly":
        if var == "x":
            return BiPoly._raw({(k, 0): v for k, v in self.n.items()}, self.d)
        if var == "y":
            return BiPoly._raw({(0, k): v for k, v in self.n.items()}, self.d)
        raise ValueError("var must be 'x' or 'y'")

    def __repr__(self) -> str:
        from .parsing import format_unipoly

        return f"UniPoly({format_unipoly(self)!r})"


class BiPoly(_Poly):
    """Bivariate polynomial with exact rational coefficients."""

    __slots__ = ()
    _ONE = (0, 0)

    @staticmethod
    def _key(k) -> tuple[int, int]:
        i, j = int(k[0]), int(k[1])
        if i < 0 or j < 0:
            raise ValueError("negative exponent")
        return i, j

    @classmethod
    def x(cls) -> "BiPoly":
        return cls._raw({(1, 0): 1})

    @classmethod
    def y(cls) -> "BiPoly":
        return cls._raw({(0, 1): 1})

    @property
    def is_constant(self) -> bool:
        return all(k == (0, 0) for k in self.n)

    @property
    def deg_x(self) -> int:
        return max((i for i, _ in self.n), default=-1)

    @property
    def deg_y(self) -> int:
        return max((j for _, j in self.n), default=-1)

    @property
    def total_degree(self) -> int:
        return max((i + j for i, j in self.n), default=-1)

    def coeff(self, i: int, j: int) -> Fraction:
        return Fraction(self.n.get((i, j), 0), self.d)

    def _lead_key(self) -> tuple[int, int]:
        return max(self.n, key=grlex_key)

    def leading_term(self) -> tuple[tuple[int, int], Fraction]:
        """Leading (term, coefficient) under graded lex with x > y."""
        if not self.n:
            raise ValueError("zero polynomial has no leading term")
        key = self._lead_key()
        return key, self.coeff(*key)

    def __mul__(self, other) -> "BiPoly":
        if other.__class__ is not BiPoly:
            return self._scale(other)
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), v1 in self.n.items():
            for (i2, j2), v2 in other.n.items():
                k = (i1 + i2, j1 + j2)
                s = out.get(k, 0) + v1 * v2
                if s:
                    out[k] = s
                else:
                    del out[k]
        return BiPoly._over(out, self.d * other.d)

    __rmul__ = __mul__

    def __call__(self, a, b) -> Fraction:
        return self.specialize_y(b)(a)

    def derivative(self, var: str) -> "BiPoly":
        if var == "x":
            return BiPoly._over({(i - 1, j): v * i for (i, j), v in self.n.items() if i}, self.d)
        if var == "y":
            return BiPoly._over({(i, j - 1): v * j for (i, j), v in self.n.items() if j}, self.d)
        raise ValueError("var must be 'x' or 'y'")

    def specialize_y(self, b) -> UniPoly:
        """Return f(x, b) as a univariate polynomial in x: with b = u / w,
        w^deg_y times it has the integer coefficients sum_j n_ij u^j w^(deg_y - j)."""
        if not self.n:
            return UniPoly.zero()
        b = _rat(b)
        u, w = b.numerator, b.denominator
        m = self.deg_y
        powers = [u**j * w ** (m - j) for j in range(m + 1)]
        out: dict[int, int] = {}
        for (i, j), v in self.n.items():
            out[i] = out.get(i, 0) + v * powers[j]
        return UniPoly._over({i: v for i, v in out.items() if v}, self.d * w**m)

    def swap(self) -> "BiPoly":
        return BiPoly._raw({(j, i): v for (i, j), v in self.n.items()}, self.d)

    def subst_x_affine(self, c0, c1) -> "BiPoly":
        """Substitute x -> c0 + c1*x (exact). With c0 + c1 x = (u + w x) / s
        in integers and m = deg_x, each term expands over the one denominator
        d s^m as n_ij s^(m-i) sum_k C(i, k) u^(i-k) w^k x^k y^j."""
        c0, c1 = _rat(c0), _rat(c1)
        s = c0.denominator * c1.denominator
        u, w = c0.numerator * c1.denominator, c1.numerator * c0.denominator
        m = max(self.deg_x, 0)
        pu = [u**e for e in range(m + 1)]
        pw = [w**e for e in range(m + 1)]
        out: dict[tuple[int, int], int] = {}
        for (i, j), v in self.n.items():
            v *= s ** (m - i)
            for k in range(i + 1):
                out[(k, j)] = out.get((k, j), 0) + v * math.comb(i, k) * pu[i - k] * pw[k]
        return BiPoly._over({k: v for k, v in out.items() if v}, self.d * s**m)

    def coeffs_in_x(self) -> dict[int, UniPoly]:
        """Coefficients of powers of x, each a polynomial in y."""
        out: dict[int, dict[int, int]] = {}
        for (i, j), v in self.n.items():
            out.setdefault(i, {})[j] = v
        return {i: UniPoly._over(c, self.d) for i, c in out.items()}

    def to_unipoly(self) -> tuple[UniPoly, str]:
        """Convert a polynomial in a single variable; returns (poly, var)."""
        if self.deg_y <= 0:
            return UniPoly._raw({i: v for (i, _), v in self.n.items()}, self.d), "x"
        if self.deg_x <= 0:
            return UniPoly._raw({j: v for (_, j), v in self.n.items()}, self.d), "y"
        raise ValueError("polynomial involves both variables")

    def __repr__(self) -> str:
        from .parsing import format_bipoly

        return f"BiPoly({format_bipoly(self)!r})"


# ---------------------------------------------------------------------------
# integer grids


@dataclass(frozen=True)
class IntegerGrid:
    """f over a finite set A, rescaled once to Python ints.

    D is the lcm of the denominators of A and S = L * D^k, with L = f.d the
    lcm of the coefficient denominators of f and k its total degree. `points[i]` is
    D * a_i and `rows[i]` the ascending integer coefficients of
    X -> S * f(X / D, a_i), trailing zeros dropped (a zero row is empty), in
    the order of A. So S * f(a, b) = row_b(D * a) and S * f(x - a, b) at
    x = s / D is row_b(s - D * a). As D, S > 0, a -> D * a and v -> S * v are
    increasing bijections: equalities, counts and order carry over exactly.

    `image` evaluates each row at all points at once (`horner_all`): one
    pass over the points per coefficient below the row's leading one. When
    f(x, y) = f(y, x) (`symmetric`), row j is evaluated at points[:j + 1]
    only, as f(a_i, a_j) = f(a_j, a_i) is already a value of row i; the
    sumset halves the same way. The incidence count evaluates each row at
    the scaled difference set, and the curve keys row_b(X - D a) of a row
    are its Taylor shifts by every -D a at once (`shift_all`). D, L
    and k, hence S, are the same for f and for f with x and y swapped, and
    both range over all of A x A, so the grid of the swapped polynomial has
    the same image; when deg_y < deg_x its rows are the shorter ones.

    `sumset_values` and `image_values` take one of two exact routes,
    chosen from a bound on |v| (2 max |point|, `value_bound`), not from the
    values. CPython hashes an int as its value mod 2^61 - 1
    (`sys.hash_info.modulus`), where 2 has order 61, so the sums and values
    of a geometric progression share a few thousand hash buckets. Below the
    modulus the hash of v is v (-1 and -2 alike), and a set, filled as the
    values come, holds the distinct values ("hash"). Otherwise every value
    goes into one list ("sort"), which is sorted in place: the count is one
    plus its adjacent inequalities (`sumset_count`, `image_count`), and the
    distinct values are the entries that differ from the one before
    (`sorted_distinct`). Hashing residues modulo another fixed prime would
    only move the problem: some base has small order modulo any fixed
    modulus.
    """

    D: int
    S: int
    points: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    symmetric: bool
    value_bound: int  # at least |S f(a, b)| for a, b in A

    def sumset(self) -> set[int]:
        """D * (A + A), from the unordered pairs p_i + p_j with i <= j."""
        pts = self.points
        return {p + q for i, p in enumerate(pts) for q in pts[i:]}

    def _image_rows(self) -> Iterator[list[int]]:
        pts = self.points
        if self.symmetric:
            return (horner_all(row, pts[: j + 1]) for j, row in enumerate(self.rows))
        return (horner_all(row, pts) for row in self.rows)

    def image(self) -> set[int]:
        """S * f(A, A)."""
        out: set[int] = set()
        for vals in self._image_rows():
            out.update(vals)
        return out

    def sumset_values(self) -> tuple[set[int] | list[int], str]:
        """The values of D * (A + A) by the route the bound picks (class
        docstring): the set of them ("hash") or the list of every sum
        p_i + p_j with i <= j ("sort")."""
        pts = self.points
        if 2 * max(map(abs, pts), default=0) < _HASH_MODULUS:
            return self.sumset(), "hash"
        return [p + q for i, p in enumerate(pts) for q in pts[i:]], "sort"

    def image_values(self) -> tuple[set[int] | list[int], str]:
        """The values of S * f(A, A) by the route the bound picks, as
        `sumset_values` gives them."""
        if self.value_bound < _HASH_MODULUS:
            return self.image(), "hash"
        vals: list[int] = []
        for row_vals in self._image_rows():
            vals += row_vals
        return vals, "sort"

    def sumset_count(self) -> tuple[int, str]:
        """|A + A| and the route that counted it (class docstring)."""
        return _count(*self.sumset_values())

    def image_count(self) -> tuple[int, str]:
        """|f(A, A)| and the route that counted it (class docstring)."""
        return _count(*self.image_values())


_HASH_MODULUS = sys.hash_info.modulus


def _sort_marking_new(vals: list[int]) -> Iterator[bool]:
    """Sort the list in place; then, for each entry after the first, whether
    it differs from the one before, that is, starts a new distinct value."""
    vals.sort()
    return map(ne, islice(vals, 1, None), vals)


def _count(vals: set[int] | list[int], route: str) -> tuple[int, str]:
    """The number of distinct values of an `IntegerGrid` route, and the
    route; a "sort" list is nonempty, and sorted in place on the way."""
    if route == "hash":
        return len(vals), route
    return 1 + sum(_sort_marking_new(vals)), route


def sorted_distinct(vals: set[int] | list[int], route: str) -> list[int]:
    """The distinct values of an `IntegerGrid` route in increasing order; a
    "sort" list is sorted in place on the way."""
    if route == "hash":
        return sorted(vals)
    new = _sort_marking_new(vals)
    return vals[:1] + list(compress(islice(vals, 1, None), new))


def integer_grid(f: BiPoly, A) -> IntegerGrid:
    """Rescale f and the finite set A to integers (see `IntegerGrid`)."""
    A = [_rat(a) for a in A]
    D = math.lcm(*(a.denominator for a in A))
    return scaled_grid(f, D, [a.numerator * (D // a.denominator) for a in A])


def scaled_grid(f: BiPoly, D: int, points) -> IntegerGrid:
    """The grid of f over A = {p / D : p in points}, D > 0 the lcm of the
    denominators of A, that is, gcd(D, *points) == 1.

    Row coefficient i is sum_j n_ij D^(k-i-j) (D b)^j, with n_ij = L c_ij the
    numerators of f, and k - i - j >= 0 for every term. So
    |S f(a, b)| <= sum |n_ij| D^(k-i-j) P^(i+j), P the largest |point|.
    """
    k = max(f.total_degree, 0)
    terms = [(i, j, c * D ** (k - i - j)) for (i, j), c in f.n.items()]
    top = max(map(abs, points), default=0)
    bound = sum(abs(c) * top ** (i + j) for i, j, c in terms)
    width = f.deg_x + 1
    rows = []
    for p in points:
        row = [0] * width
        for i, j, c in terms:
            row[i] += c * p**j
        while row and not row[-1]:
            row.pop()
        rows.append(tuple(row))
    return IntegerGrid(D, f.d * D**k, tuple(points), tuple(rows), f == f.swap(), bound)


def horner_int(row: tuple[int, ...], x: int) -> int:
    """Value at x of the ascending integer coefficient row."""
    v = 0
    for c in reversed(row):
        v = v * x + c
    return v


def horner_all(row: tuple[int, ...], xs: tuple[int, ...]) -> list[int]:
    """Values of the ascending integer coefficient row at every x in xs.

    One list pass per coefficient below the leading one, the first of them
    over xs alone; a zero coefficient costs only the multiply.
    """
    if len(row) < 2:
        return [row[0] if row else 0] * len(xs)
    lead, c = row[-1], row[-2]
    vals = [lead * x + c for x in xs]
    for c in reversed(row[:-2]):
        vals = [v * x + c for v, x in zip(vals, xs)] if c else [v * x for v, x in zip(vals, xs)]
    return vals


def shift_all(row: tuple[int, ...], ts: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Ascending coefficients of p(X + t) for every t in ts, p given by an
    integer row.

    The Taylor shift by repeated synthetic division, c_j += t c_(j+1) for
    j = m - 1 down to i at steps i = 0, ..., m - 1, with each coefficient
    held as a list over ts: one list pass per (i, j) step. The leading
    coefficient never changes.
    """
    if len(row) < 2:
        return [tuple(row)] * len(ts)
    c = [[v] * len(ts) for v in row]
    for i in range(len(row) - 1):
        for j in range(len(row) - 2, i - 1, -1):
            c[j] = [v + t * w for v, t, w in zip(c[j], ts, c[j + 1])]
    return list(zip(*c))


# ---------------------------------------------------------------------------
# division, gcd


def bi_divexact(f: BiPoly, g: BiPoly) -> BiPoly | None:
    """Quotient f/g when g divides f exactly in Q[x,y], else None.

    Division of the numerators by the one polynomial G in lex order (x
    ahead of y). If G h = F, every leading monomial of the remainder is that
    of G times a term of h, so h has x-degree deg_x F - deg_x G and y-degree
    deg_y F - deg_y G, and a leading monomial that G's does not divide, or
    that leaves this box, proves indivisibility. The remainder and quotient
    are scaled, as in pseudo-division, only at a step whose leading
    coefficient lc(G) does not divide.
    """
    if g.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero:
        return BiPoly.zero()
    G = g.n
    gi, gj = max(G)
    lead = G[(gi, gj)]
    hx, hy = f.deg_x - g.deg_x, f.deg_y - g.deg_y
    r = dict(f.n)
    q: dict[tuple[int, int], int] = {}
    s = 1
    while r:
        i, j = top = max(r)
        ei, ej = i - gi, j - gj
        if not (0 <= ei <= hx and 0 <= ej <= hy):
            return None
        c = r[top]
        if c % lead:
            m = abs(lead) // math.gcd(c, lead)
            r = {k: v * m for k, v in r.items()}
            q = {k: v * m for k, v in q.items()}
            s *= m
            c *= m
        t = c // lead
        q[(ei, ej)] = t
        for (u, v), w in G.items():
            k = (u + ei, v + ej)
            w = r.get(k, 0) - t * w
            if w:
                r[k] = w
            else:
                del r[k]
    # F = q G / s with f = F / f.d and g = G / g.d
    return BiPoly._over({k: v * g.d for k, v in q.items()}, s * f.d)


def uni_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """gcd in Q[x], primitive with positive leading coefficient (zero when
    both are zero): the y-free case of the modular `_primitive_gcd`."""
    if p.degree == 0 or q.degree == 0:
        return UniPoly.const(1)
    if p.is_zero or q.is_zero:
        return (p + q).normalized()
    return _primitive_gcd(p.to_bipoly("x"), q.to_bipoly("x")).to_unipoly()[0].normalized()


def uni_squarefree_part(p: UniPoly) -> UniPoly:
    """p / gcd(p, p'): p without repeated factors, with p's scale kept."""
    return p.divexact(uni_gcd(p, p.derivative()))


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
    lead_gcd = uni_gcd(*(UniPoly._raw({k: v for k, v in enumerate(c) if v}) for c in (F[m], G[n])))
    gamma = [lead_gcd.n.get(k, 0) for k in range(lead_gcd.degree + 1)]
    want = len(gamma) + min(f.deg_y, g.deg_y)
    budget = _gcd_prime_budget(F, G)
    images = linalg._Images()
    points = count()
    for used, p in enumerate(linalg._primes(), 1):
        if any(c % p for c in F[m]) and any(c % p for c in G[n]):
            image = _gcd_image(F, G, gamma, want, p, points)
            if image is None:
                return BiPoly.const(1)
            deg = len(image) // want - 1
            # the least x-degree is the best profile
            if images.add([], [image], p, -deg):
                (lifted,) = images.lift()
                if lifted is not None:
                    nums, den = lifted
                    H = BiPoly._over(
                        {(i, j): v for i in range(deg + 1) for j in range(want) if (v := nums[i * want + j])}, den
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
    return [v for i in range(len(images[0])) for v in linalg._interpolate_mod(xs, [im[i] for im in images], p)]


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
    scale, ints = f.scaled_ints()
    cols = [[0] * (f.deg_y + 1) for _ in range(f.deg_x + 1)]
    for (i, j), c in ints.items():
        cols[i][j] = c
    return scale, cols


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


# ---------------------------------------------------------------------------
# resultants


def resultant_eliminating(f: BiPoly, g: BiPoly) -> UniPoly:
    """Resultant of f, g with respect to x, a polynomial in y.

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
        coeffs = linalg._crt(coeffs, modulus, linalg._interpolate_mod(xs, ys, p), p)
        modulus *= p
    scale = s**n * t**m
    out = {j: (c - modulus if 2 * c > modulus else c) * scale.numerator for j, c in enumerate(coeffs) if c}
    return UniPoly._over(out, scale.denominator)
