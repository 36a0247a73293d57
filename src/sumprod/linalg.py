"""Exact linear algebra: one certified modular nullspace engine, and the
prime sequence and Chinese-remainder step it shares with `poly`.

A matrix is a list of sparse integer columns, each a map {row key: nonzero
int}; column k holds the coefficients of unknown k, and a row is named by
any hashable key, such as the monomial whose coefficient it equates. The
system builders of `factor` and `classify` produce this format, and the
engine reads it as it is. Row keys carry no order: the result does not
depend on their type or on the order they are first seen in.

Rank, nullspace and linear solves over Q (`rank_int`, `nullspace_basis`,
`solve_exact`) all run on `certified_nullspace`. One elimination mod a 61-bit
prime p gives the rank r_p, which is a lower bound on the rank over Q, and a
nullspace basis mod p in reduced-echelon form. Each basis vector is lifted to
Q by rational reconstruction. When a vector fails to reconstruct or to verify,
further primes are combined by the Chinese remainder theorem, up to the count
the matrix's Hadamard bound shows always suffices; running out raises
`CertificationFailed`. A basis is accepted only when every vector satisfies
A v = 0 exactly over Z: the n - r_p independent kernel vectors then pin the
nullspace dimension to n - r_p, so the certificate never rests on p being a
lucky prime. A matrix of full column rank mod p has nothing to lift and is
certified by that one elimination.

The elimination is sparse. The nonzeros are read column by column into rows
{column: nonzero residue}, each kept in a bucket by its leading column. The
leftmost nonempty bucket supplies the pivot from its sparsest row; its other
rows are reduced by it and move to the bucket of their new leading column,
and every entry that cancels mod p is dropped. The exact check A v = 0 and
the Hadamard bound read the columns too. The systems of `factor` have a few
nonzeros per column, so the work follows the nonzeros, not the rows times
the columns.

A pencil b B - a C whose C is nonzero on few rows (`Pencil`, the fiber
systems of `factor`) is eliminated by blocks: with A0 the rows where C
vanishes and K0 its kernel, rank [A0; A1] = rank A0 + rank(A1 K0) and
ker [A0; A1] = K0 ker(A1 K0). A0 is eliminated once per prime, and each
member costs one elimination of A1 K0, which has only the rows of C. K0 times
the reduced-echelon kernel of A1 K0 is the member's own reduced-echelon
kernel, which the certificate above lifts and verifies on the member's columns.
A member's own columns are built only when a kernel vector needs that check.
The rows of G - t H, G = B1 K0 and H = C1 K0, also give a polynomial that
vanishes at every t = a / b whose member loses rank
(`Pencil.drop_polynomial`): D_R(t) = det((G - t H)_R), for R a row basis
of G - s H mod p at one point s. It is interpolated mod p, made monic, and
lifted to Q past a Hadamard bound read from the rows R
(`Pencil.minor_bits`).

A prime is unlucky when its pivot profile comes out worse than over Q; the
nullspace engine and `drop_polynomial` keep and join by CRT only the images
at the best profile seen (`_Images`). The modular resultants and gcds of
`poly` run on the same primes (`_primes`), combine their images with `_crt`,
interpolate them with `_interpolate_mod` and lift gcds with `_lift`.

`det_in_ring`, the fraction-free (Bareiss) determinant over an integral
domain, `rank_mod_prime`, the rank modulo one prime, and
`scale_rows_to_int`, which scales rational rows to integers, have no caller
in the package; they are kept only because the benchmark tracer looks them
up by name. `rref`, Gauss-Jordan over the rationals on dense rows, is the
reference the tests compare the engine against.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from math import gcd, isqrt, lcm, prod
from operator import itemgetter
from typing import Callable, Iterator

from .errors import CertificationFailed
from .integers import is_probable_prime


def det_in_ring(
    rows: Sequence[Sequence],
    *,
    zero,
    one,
    is_zero: Callable,
    mul: Callable,
    sub: Callable,
    divexact: Callable,
):
    """Determinant by fraction-free Gaussian elimination with row pivoting.

    `divexact(a, b)` must perform exact division; Bareiss guarantees every
    division it requests is exact over an integral domain. Nothing in the
    package calls it: resultants are modular (`poly.resultant_eliminating`).
    """
    n = len(rows)
    if n == 0:
        return one
    m = [list(r) for r in rows]
    if any(len(r) != n for r in m):
        raise ValueError("matrix must be square")
    sign = 1
    prev = one
    for k in range(n - 1):
        if is_zero(m[k][k]):
            for r in range(k + 1, n):
                if not is_zero(m[r][k]):
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return zero
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = sub(mul(m[i][j], m[k][k]), mul(m[i][k], m[k][j]))
                m[i][j] = divexact(num, prev)
            m[i][k] = zero
        prev = m[k][k]
    d = m[n - 1][n - 1]
    return d if sign > 0 else sub(zero, d)


# ---------------------------------------------------------------------------
# certified modular nullspace engine

# p -> (pivot columns, sparse reduced-echelon nullspace basis) mod p
KernelMod = Callable[[int], tuple[list[int], list[dict[int, int]]]]

_RANK_PRIME = (1 << 61) - 1


# the primes found so far, in order; `_primes` extends it on demand
_PRIMES = [_RANK_PRIME]


def _primes() -> Iterator[int]:
    """The fixed prime sequence: 2^61 - 1, then the primes below it, descending."""
    k = 0
    while True:
        if k == len(_PRIMES):
            q = _PRIMES[-1] - 2
            while not is_probable_prime(q):
                q -= 2
            _PRIMES.append(q)
        yield _PRIMES[k]
        k += 1


def _crt(residues: list[int], m: int, images: list[int], p: int) -> list[int]:
    """Residues mod m * p that agree with `residues` mod m and `images` mod p."""
    t = pow(m, -1, p)
    return [a + m * ((b - a) * t % p) for a, b in zip(residues, images)]


def _echelon_mod(
    columns: Sequence[dict], p: int
) -> tuple[list[list[tuple[int, int]]], list[int]]:
    """Row echelon form mod p, pivoting on the leftmost nonzero column.

    Returns (echelon, pivots): echelon[k] lists the (column, value) pairs
    right of column pivots[k] of the k-th pivot row, scaled to a leading 1,
    sorted by column. The nonzeros are read column by column into sparse rows
    {column: nonzero residue}, one per row key, kept in buckets by their
    leading column. Of the rows in the leftmost bucket, the sparsest supplies
    the pivot, which keeps fill-in low; the others are reduced by it and move
    to the bucket of their new leading column, or are dropped once they
    vanish mod p. The pivot columns do not depend on which row supplies the
    pivot, nor on the order or type of the row keys.
    """
    rows: dict = {}
    for k, col in enumerate(columns):
        for key, v in col.items():
            if m := v % p:
                rows.setdefault(key, {})[k] = m
    buckets: dict[int, list[dict[int, int]]] = {}
    for r in rows.values():
        # columns were read in order, so the first entry leads
        buckets.setdefault(next(iter(r)), []).append(r)
    echelon, pivots = [], []
    for col in range(len(columns)):
        if not buckets:
            break
        bucket = buckets.pop(col, None)
        if bucket is None:
            continue
        piv = bucket.pop(min(range(len(bucket)), key=lambda i: len(bucket[i])))
        inv = pow(piv.pop(col), -1, p)
        tail = sorted((j, v * inv % p) for j, v in piv.items())
        echelon.append(tail)
        pivots.append(col)
        for r in bucket:
            f = r.pop(col)
            for j, v in tail:
                m = (r.get(j, 0) - f * v) % p
                if m:
                    r[j] = m
                else:
                    del r[j]
            if r:
                buckets.setdefault(min(r), []).append(r)
    return echelon, pivots


def _kernel_mod(
    echelon: list[list[tuple[int, int]]], pivots: list[int], ncols: int, p: int
) -> list[dict[int, int]]:
    """Reduced-echelon nullspace basis mod p, one sparse vector
    {column: nonzero residue} per free column.

    The vector of free column c has 1 at c and 0 at every other free column.
    """
    pivot_set = set(pivots)
    # a pivot row with an empty tail puts 0 at its pivot in every vector
    rows = [(row, pc) for row, pc in zip(echelon, pivots) if row]
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = {fc: 1}
        # entries right of fc stay zero, so back-substitution starts left of it
        for row, pc in reversed(rows[: bisect_left(rows, fc, key=itemgetter(1))]):
            if s := sum(a * v[j] for j, a in row if j in v) % p:
                v[pc] = p - s
        basis.append(v)
    return basis


def _reduce_mod(columns: Sequence[dict], p: int) -> tuple[list[int], list[dict[int, int]]]:
    """Pivot columns and sparse reduced-echelon nullspace basis mod p."""
    echelon, pivots = _echelon_mod(columns, p)
    return pivots, _kernel_mod(echelon, pivots, len(columns), p)


def _ratrec(a: int, m: int, bound: int) -> tuple[int, int] | None:
    """Rational reconstruction (Wang): n/d = a mod m with |n|, d <= bound, or None."""
    if a <= bound:
        return a, 1
    if m - a <= bound:
        return a - m, 1
    r0, r1, s0, s1 = m, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _lift(residues: list[int], m: int) -> tuple[list[int], int] | None:
    """A vector w/den over Q congruent to `residues` mod m, or None.

    Entries are reconstructed one by one against the common denominator of
    those before them, so most of them come back as integers at once.
    """
    bound = isqrt(m // 2)
    den = 1
    nums = []
    for a in residues:
        got = _ratrec(a * den % m, m, bound)
        if got is None:
            return None
        n, d = got
        if d > 1:
            den *= d
            if den > bound:
                return None
            nums = [x * d for x in nums]
        nums.append(n)
    return nums, den


def _annihilates(columns: Sequence[dict], w: list[int]) -> bool:
    """A w = 0, exactly over Z, summed over the columns where w is nonzero."""
    image: dict = {}
    for col, c in zip(columns, w):
        if c:
            for key, v in col.items():
                image[key] = image.get(key, 0) + c * v
    return not any(image.values())


class _Images:
    """Images of vectors over Q mod several primes, joined by CRT.

    A prime is unlucky when its pivot columns come out fewer or later than
    over Q or, where the caller gives a degree, that degree lower; every
    lucky prime attains the true profile. So only the images at the best
    profile seen are kept and joined, and a prime with a worse one is
    dropped. `certified_nullspace`, `Pencil.drop_polynomial` and
    `poly._primitive_gcd` share it.
    """

    def __init__(self):
        self.profile = self.pivots = self.vectors = None
        self.modulus = 1
        self.primes = 0  # primes joined at the best profile

    def add(self, pivots: list[int], vectors: list[list[int]], p: int, degree: int = 0) -> bool:
        """Join the images `vectors` mod p; False when p is dropped."""
        profile = (len(pivots), [-c for c in pivots], degree)
        if self.profile is None or profile > self.profile:
            self.profile, self.pivots, self.vectors, self.modulus, self.primes = profile, pivots, vectors, p, 1
        elif profile == self.profile:
            self.vectors = [_crt(old, self.modulus, new, p) for old, new in zip(self.vectors, vectors)]
            self.modulus *= p
            self.primes += 1
        else:
            return False
        return True

    def lift(self) -> list[tuple[list[int], int] | None]:
        """Each vector lifted to Q by `_lift`, None where that fails."""
        return [_lift(v, self.modulus) for v in self.vectors]


def _prime_budget(columns: Sequence[dict]) -> int:
    """Primes that always suffice to certify the nullspace of `columns`.

    Every minor is at most H = prod of the column norms (Hadamard), and the
    reduced-echelon basis entries are ratios of minors, so a modulus above
    2 H^2 reconstructs them. Each prime exceeds 2^60, and a prime is unlucky
    only when it divides one fixed nonzero minor, so at most log2(H)/60 are.
    """
    bits = sum(sum(v * v for v in col.values()).bit_length() for col in columns)
    return (bits + 1) // 60 + 1 + (bits // 2 + 1) // 60 + 1


@dataclass(frozen=True)
class Nullspace:
    """A certified basis of the right nullspace of an integer matrix.

    Vector k is vectors[k] / denominators[k]; together they are the
    reduced-echelon basis for the pivot columns of the accepted prime, so
    the rank is len(pivots). `primes` counts the primes tried.
    """

    pivots: tuple[int, ...]
    vectors: tuple[tuple[int, ...], ...]
    denominators: tuple[int, ...]
    primes: int

    def basis(self) -> list[list[Fraction]]:
        return [[Fraction(v, d) for v in w] for w, d in zip(self.vectors, self.denominators)]


def certified_nullspace(columns: Sequence[dict], kernel_mod: KernelMod | None = None) -> Nullspace:
    """Right nullspace of an integer matrix given as sparse columns, certified
    over Q.

    `kernel_mod(p)` gives the pivot columns and the sparse reduced-echelon
    nullspace basis mod p of a matrix with the same nullspace over Q, such as
    a `Pencil` fiber; by default `columns` is eliminated mod p. Raises
    CertificationFailed when the prime budget runs out, which the Hadamard
    bound rules out for a correct implementation.
    """
    ncols = len(columns)
    if kernel_mod is None:
        kernel_mod = partial(_reduce_mod, columns)
    images = _Images()
    budget = None
    for used, p in enumerate(_primes(), 1):
        piv, sparse = kernel_mod(p)
        basis = []
        for v in sparse:
            dense = [0] * ncols
            for j, a in v.items():
                dense[j] = a
            basis.append(dense)
        images.add(piv, basis, p)
        lifted = images.lift()
        if all(got is not None and _annihilates(columns, got[0]) for got in lifted):
            return Nullspace(
                tuple(images.pivots),
                tuple(tuple(w) for w, _ in lifted),
                tuple(d for _, d in lifted),
                used,
            )
        if budget is None:
            budget = _prime_budget(columns)
        if used >= budget:
            raise CertificationFailed(
                f"nullspace of a {len(set().union(*columns))}x{ncols} matrix"
                f" not certified after {used} primes"
            )


def rank_mod_prime(columns: Sequence[dict], p: int = _RANK_PRIME) -> int:
    """Rank of the matrix reduced mod p; a certified lower bound on the rank."""
    return len(_echelon_mod(columns, p)[1])


def rank_int(columns: Sequence[dict], kernel_mod: KernelMod | None = None) -> int:
    """Rank of an integer matrix, certified by the nullspace engine
    (`kernel_mod` as in `certified_nullspace`)."""
    return len(certified_nullspace(columns, kernel_mod).pivots)


def scale_rows_to_int(rows: Sequence[Sequence[Fraction | int]]) -> list[list[int]]:
    """Scale each row by the lcm of its denominators (rank-preserving)."""
    out = []
    for r in rows:
        L = lcm(*(v.denominator for v in r))
        out.append([int(v * L) for v in r])
    return out


def nullspace_basis(columns: Sequence[dict]) -> list[list[Fraction]]:
    """Basis of the right nullspace of the matrix, as coefficient vectors."""
    return certified_nullspace(columns).basis()


def solve_exact(columns: Sequence[dict], rhs: dict) -> list[Fraction] | None:
    """One exact solution of A x = b, with b a column too, or None if the
    system is inconsistent.

    Free variables are pinned to zero; callers needing uniqueness verify the
    reconstruction downstream.
    """
    # the solutions are the nullspace vectors of [A | -b] ending in 1
    ncols = len(columns)
    kernel = certified_nullspace([*columns, {key: -v for key, v in rhs.items()}])
    if ncols in kernel.pivots:
        return None
    return kernel.basis()[-1][:ncols]


# ---------------------------------------------------------------------------
# pencils b B - a C by block elimination


class Pencil:
    """The integer matrices b B - a C, for coprime a and b, of two sparse
    column lists B and C of one shape whose C is nonzero on few rows.

    On the rows where C vanishes every member is b B, whose nullspace is that
    of the rows of B there, A0, with the other rows A1(a, b) = b B1 - a C1.
    Over any field rank [A0; A1] = rank A0 + rank(A1 K0) and
    ker [A0; A1] = K0 ker(A1 K0), with K0 a basis of ker A0. So per prime p,
    once: A0 is eliminated, K0 kept as sparse reduced-echelon vectors, and
    G = B1 K0 and H = C1 K0 stored as sparse columns. Per member: the |K0|
    columns b G - a H, with as many rows as C has nonzero rows, are
    eliminated, and W = ker(b G - a H) gives the kernel K0 W mod p.

    K0 W is already the reduced-echelon basis that eliminating the member
    itself would give. A column of the member is free, that is dependent on
    the columns left of it, only if it is free in A0; the free column c_i of
    A0 is free in the member exactly when column i of b G - a H is free,
    since a kernel vector that vanishes right of c_i is the K0-combination of
    its values at the free columns of A0. The vector K0 W_i is 1 at c_i, 0 at
    the other free columns of the member and 0 right of c_i, which fixes the
    reduced-echelon vector. A0 is not scaled by b: over Q that is a row
    scaling with the same nullspace and column norms no larger, so the
    certificate and the prime budget of `certified_nullspace`, read off the
    member's own columns, hold unchanged, also for a prime that divides b.
    """

    def __init__(self, B: Sequence[dict], C: Sequence[dict]):
        self.B, self.C = B, C
        # the rows where C is nonzero, in the order the columns of C meet them
        rows = self.c_rows = dict.fromkeys(key for col in C for key in col)
        self.A0 = [{key: v for key, v in col.items() if key not in rows} for col in B]
        self.B1 = [{key: v for key, v in col.items() if key in rows} for col in B]
        self._blocks: dict = {}  # p -> (pivots of A0, free columns of A0, K0, G, H)

    def columns(self, a: int, b: int) -> list[dict]:
        """The columns of b B - a C."""
        if not a:
            return list(self.B)  # b = 1, as a and b are coprime
        out = []
        for col, one in zip(self.B, self.C):
            col = {key: b * v for key, v in col.items()}
            for key, v in one.items():
                if m := col.get(key, 0) - a * v:
                    col[key] = m
                else:
                    del col[key]
            out.append(col)
        return out

    def rank(self, a: int, b: int) -> int:
        """Certified rank of b B - a C.

        A member with no kernel vector mod the first prime has full column
        rank mod p, hence over Q, and its rank is read off the pivots with
        no column built. Only a member with a kernel mod p builds its
        columns, for `rank_int` to verify the lifted kernel against; it is
        handed the image mod the first prime, so each prime eliminates the
        member once.
        """
        first = self.kernel_mod(a, b, _RANK_PRIME)
        if not first[1]:
            return len(first[0])
        return rank_int(self.columns(a, b), lambda p: first if p == _RANK_PRIME else self.kernel_mod(a, b, p))

    def kernel_mod(self, a: int, b: int, p: int) -> tuple[list[int], list[dict[int, int]]]:
        """Pivot columns and sparse reduced-echelon nullspace basis mod p of
        [A0; b B1 - a C1], by block elimination."""
        pivots, free, K0, G, H = self._block(p)
        small = _member(G, H, a, b)
        echelon, piv = _echelon_mod(small, p)
        basis = [_combine(K0, w, p) for w in _kernel_mod(echelon, piv, len(small), p)]
        return sorted(pivots + [free[i] for i in piv]), basis

    def _block(self, p: int) -> tuple:
        """The per-prime part: A0 eliminated mod p, K0, G and H (class docstring)."""
        block = self._blocks.get(p)
        if block is None:
            A0 = self.A0
            echelon, pivots = _echelon_mod(A0, p)
            K0 = _kernel_mod(echelon, pivots, len(A0), p)
            free = sorted(set(range(len(A0))).difference(pivots))
            G = [_combine(self.B1, v, p) for v in K0]
            H = [_combine(self.C, v, p) for v in K0]
            block = self._blocks[p] = (pivots, free, K0, G, H)
        return block

    def drop_polynomial(self) -> tuple[list[int], int] | None:
        """D_R(t) = det((G - t H)_R) made monic over Q, as ascending
        numerators over one denominator, for R the first rows of G - s H that
        are independent mod p, read in the order of the rows of C, with
        s = 2^e, e = `_zero_point_bits`; None when G - s H has rank below
        |K0|, or D_R(s) vanishes, mod two primes.

        D_R(s) is nonzero mod the prime that picks R, so D_R is not zero, and
        like every maximal minor it vanishes at every t = a / b whose member
        b B - a C loses rank (class docstring); it may also vanish where
        another maximal minor does not. R is picked once for each
        pivot profile of A0 and kept for the later primes with that profile,
        so the images `_Images` joins are all of one D_R. Mod p, D_R has
        degree at most r = rank(H_R), so its values at r + 1 points, the
        first at s, fix it. A zero at s is taken for D_R = 0 mod p; that errs
        only at the primes dividing one fixed nonzero integer (`factor`
        module docstring). Once more than b / 60 primes share the best
        profile and their product exceeds 2^(b + 1), b = `minor_bits`
        of R, one of them is lucky and the lift is exact.
        """
        picked: dict = {}  # A0 pivots -> R
        images = _Images()
        zeros = 0
        for p in _primes():
            pivots, _, K0, G, H = self._block(p)
            s = pow(2, self._zero_point_bits(len(K0)), p)
            R = picked.get(key := tuple(pivots))
            if R is None:
                R = _pivot_rows(_member(G, H, s, 1), list(self.c_rows), p)
                if len(R) == len(K0):
                    picked[key] = R
            GR, HR = _rows(G, R), _rows(H, R)

            def at(t: int) -> int:
                return _det_mod([[(g.get(j, 0) - t * h.get(j, 0)) % p for j in range(len(K0))] for g, h in zip(GR, HR)], p)

            # a row basis short of |K0| rows: every D_R vanishes at s mod p
            first = len(R) == len(K0) and at(s)
            if not first:
                zeros += 1
                if zeros == 2:
                    return None
                continue
            r = len(_echelon_mod(HR, p)[1])
            nodes = [s, *(t for t in range(r + 1) if t != s)][: r + 1]
            image = _interpolate_mod(nodes, [first, *map(at, nodes[1:])], p)
            while not image[-1]:
                image.pop()
            inv = pow(image[-1], -1, p)
            if not images.add(pivots, [[c * inv % p for c in image]], p, len(image)):
                continue
            if images.primes == 1:
                bits = self.minor_bits(R)
            if images.primes > bits // 60 and images.modulus >> (bits + 1):
                (lifted,) = images.lift()
                if lifted is None:
                    raise CertificationFailed("the rank-drop polynomial did not reconstruct within its bound")
                return lifted

    @cached_property
    def _a0_norms(self) -> int:
        """The product of |a|^2 over the rows a of A0."""
        norms: dict = {}
        for col in self.A0:
            for key, v in col.items():
                norms[key] = norms.get(key, 0) + v * v
        return prod(norms.values())

    def minor_bits(self, R: Sequence) -> int:
        """Bits of a bound on H^2, with H bounding every t-coefficient of
        det [A0_S; (B1 - t C1)_R] for any set S of rows of A0.

        Row i of that matrix is u_i - t v_i, so the coefficient of t^j is a
        sum over the j-sets of rows of +-det(v on the set, u elsewhere), and
        Hadamard's inequality bounds it by prod_i (|u_i| + |v_i|). As
        (|u| + |v|)^2 <= 2 (|u|^2 + |v|^2), and each row of A0 (v = 0) has
        |u|^2 >= 1, H^2 is below 2^bits with bits the bit length of the
        product of |a|^2 over every row a of A0 and of 2 (|u_i|^2 + |v_i|^2)
        over the rows R of B1 - t C1.
        """
        norms = (sum(x * x for x in (*u.values(), *v.values())) for u, v in zip(_rows(self.B1, R), _rows(self.C, R)))
        return (self._a0_norms * prod(2 * n for n in norms)).bit_length()

    def _zero_point_bits(self, k: int) -> int:
        """An e with 2^e above the H of `minor_bits` for every set R of
        k rows, read without picking R.

        Row i of (B1 - t C1)_R is u_i - t v_i, rows of B1 and C1, so
        |u_i| + |v_i| <= T, the sum of the absolute values of the entries of
        B1 and C1, and H <= prod |a| T^k over the rows a of A0.
        """
        return (self._a0_norms.bit_length() + 1) // 2 + k * self._entry_sum.bit_length()

    @cached_property
    def _entry_sum(self) -> int:
        """T, the sum of the absolute values of the entries of B1 and C."""
        return sum(abs(v) for col in (*self.B1, *self.C) for v in col.values())


def _rows(columns: Sequence[dict], keys: Sequence) -> list[dict[int, int]]:
    """The rows `keys` of the matrix of `columns`, each {column: nonzero}:
    the columns of its transpose."""
    rows: dict = {key: {} for key in keys}
    for j, col in enumerate(columns):
        for key, v in col.items():
            if key in rows:
                rows[key][j] = v
    return list(rows.values())


def _pivot_rows(columns: Sequence[dict], keys: Sequence, p: int) -> list:
    """The first of `keys` whose rows of the matrix of `columns` are
    independent mod p, a row basis: the pivot columns of its transpose."""
    return [keys[i] for i in _echelon_mod(_rows(columns, keys), p)[1]]


def _det_mod(rows: list[list[int]], p: int) -> int:
    """Determinant mod p of a dense square matrix, by Gaussian elimination."""
    m = [list(r) for r in rows]
    det = 1
    for c in range(len(m)):
        piv = next((r for r in range(c, len(m)) if m[r][c] % p), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], -1, p)
        for r in range(c + 1, len(m)):
            if f := m[r][c] * inv % p:
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[c])]
    return det % p


def _interpolate_mod(xs: list[int], ys: list[int], p: int) -> list[int]:
    """Ascending coefficients mod p of the polynomial of degree < len(xs)
    through the points (xs[i], ys[i]), by Newton's divided differences.

    Each distinct difference xs[i] - xs[j] is inverted once per call; at the
    consecutive points of a resultant there are only len(xs) - 1 of them.
    """
    n = len(xs)
    inverse = {d: pow(d, -1, p) for d in {b - a for i, a in enumerate(xs) for b in xs[i + 1:]}}
    c = list(ys)
    for k in range(1, n):
        c[k:] = [(c[i] - c[i - 1]) * inverse[xs[i] - xs[i - k]] % p for i in range(k, n)]
    out = [c[-1]]
    for k in range(n - 2, -1, -1):
        # out <- out * (X - xs[k]) + c[k]
        out = [(c[k] - xs[k] * out[0]) % p] + [
            (out[i - 1] - xs[k] * out[i]) % p for i in range(1, len(out))
        ] + [out[-1]]
    return out


def _member(G: Sequence[dict], H: Sequence[dict], a: int, b: int) -> list[dict]:
    """The columns b G - a H."""
    return [{key: b * g.get(key, 0) - a * h.get(key, 0) for key in g.keys() | h.keys()} for g, h in zip(G, H)]


def _combine(columns: Sequence[dict], w: dict[int, int], p: int) -> dict:
    """The sparse column sum_j w_j columns[j] mod p, without zeros."""
    out: dict = {}
    for j, c in w.items():
        for key, x in columns[j].items():
            out[key] = (out.get(key, 0) + c * x) % p
    return {key: x for key, x in out.items() if x}


# ---------------------------------------------------------------------------
# reference implementation


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals; returns (matrix, pivot cols)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, len(m)):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = m[row][col]
        m[row] = [v / inv for v in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return m, pivots
