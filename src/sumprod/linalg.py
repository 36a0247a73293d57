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
Per prime the pencil also gives P G and P H, G = B1 K0 and H = C1 K0, for a
fixed small-integer projection P, and from them D(t) = det(P (G - t H)),
which vanishes at every t = a / b whose member loses rank
(`Pencil.drop_polynomial`): interpolated mod p, made monic, and lifted to Q
past a Hadamard bound (`Pencil.projection_bits`). Once D has vanished at the
first point t, a later prime tests whether G - t H itself loses rank there:
then D vanishes at t for every P, and that prime's zero is read off one small
elimination, shared by every projection.

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
from functools import cache, cached_property, partial
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
        # the rows where C is nonzero, numbered in the order the columns of C meet them
        rows = self.c_rows = {key: r for r, key in enumerate(dict.fromkeys(key for col in C for key in col))}
        self.A0 = [{key: v for key, v in col.items() if key not in rows} for col in B]
        self.B1 = [{key: v for key, v in col.items() if key in rows} for col in B]
        self._blocks: dict = {}  # p -> (pivots of A0, free columns of A0, K0, G, H)
        self._singular: dict = {}  # p -> whether G - s H has rank below |K0| mod p, s the zero point
        self._zero_seen = False  # whether a projected determinant has vanished at the zero point

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
        columns, for `rank_int` to verify the lifted kernel against.
        """
        pivots, kernel = self.kernel_mod(a, b, _RANK_PRIME)
        if not kernel:
            return len(pivots)
        return rank_int(self.columns(a, b), partial(self.kernel_mod, a, b))

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

    def _singular_at(self, p: int, s: int) -> bool:
        """Whether G - s H has rank below |K0| mod p, for s the zero point of
        `drop_polynomial`, which p fixes: eliminated once for every projection."""
        singular = self._singular.get(p)
        if singular is None:
            _, _, K0, G, H = self._block(p)
            singular = self._singular[p] = len(_echelon_mod(_member(G, H, s, 1), p)[1]) < len(K0)
        return singular

    def drop_polynomial(self, seed: int) -> tuple[list[int], int] | None:
        """D(t) = det(P (G - t H)) made monic over Q, as ascending numerators
        over one denominator, for P = `_projector(seed, |K0|, rows of C)`;
        None when D is taken to vanish identically mod two primes.

        The member b B - a C has full column rank wherever D(a / b) is
        nonzero, since its block A1 K0 then has rank |K0| (class docstring).
        Mod p, D has degree at most r = rank(P H), so its values at r + 1
        points fix it. The first point is 2^e, e = `_zero_point_bits`, which
        is no root of D over Q unless D = 0, so a zero there is taken for
        D = 0 mod p; that errs only at the primes dividing one fixed nonzero
        integer (`factor` module docstring). Images are joined by `_Images`,
        the degree of D after the pivot profile of A0. Once more than b / 60
        primes share the best profile and their product exceeds 2^(b + 1),
        b = `projection_bits`, one of them is lucky and the lift is exact.

        Once a projected determinant has vanished at the zero point s, for
        any prime and projection, every later prime first tests G - s H
        itself, once for every projection (`_singular_at`). When its rank is
        below |K0|, so is the rank of P (G - s H) for every P, and
        det(P (G - s H)) = 0: the prime counts as a zero with no projection
        and no determinant. When the rank is full the projected test runs as
        before. The shortcut fires only where that test gives 0 too, so it
        changes no result and no prime count; it makes a composite f, whose
        D vanishes identically, cheaper to give up on, and costs a pencil
        whose D has no zero at s nothing.
        """
        images = _Images()
        zeros = 0
        for p in _primes():
            pivots, _, K0, G, H = self._block(p)
            start = pow(2, self._zero_point_bits(len(K0)), p)

            def at(t: int) -> int:
                return _det_mod([[(g - t * h) % p for g, h in zip(rg, rh)] for rg, rh in zip(PG, PH)], p)

            if self._zero_seen and self._singular_at(p, start):
                first = 0
            else:
                P = _projector(seed, len(K0), len(self.c_rows))
                PG, PH = self._project(P, G, p), self._project(P, H, p)
                first = at(start)
                self._zero_seen |= not first
            if not first:
                zeros += 1
                if zeros == 2:
                    return None
                continue
            r = len(_echelon_mod([dict(enumerate(row)) for row in PH], p)[1])
            nodes = [start, *(t for t in range(r + 1) if t != start)][: r + 1]
            image = _interpolate_mod(nodes, [first, *map(at, nodes[1:])], p)
            while not image[-1]:
                image.pop()
            inv = pow(image[-1], -1, p)
            if not images.add(pivots, [[c * inv % p for c in image]], p, len(image)):
                continue
            if images.primes == 1:
                bits = self.projection_bits(seed, len(K0))
            if images.primes > bits // 60 and images.modulus >> (bits + 1):
                (lifted,) = images.lift()
                if lifted is None:
                    raise CertificationFailed("the rank-drop polynomial did not reconstruct within its bound")
                return lifted

    def _project(self, P: Sequence[Sequence[int]], columns: Sequence[dict], p: int = 0) -> list[list[int]]:
        """P times the matrix of `columns` restricted to the rows of C,
        reduced mod p when p is nonzero."""
        rows = self.c_rows
        out = [[sum(row[rows[key]] * v for key, v in col.items()) for col in columns] for row in P]
        return [[v % p for v in r] for r in out] if p else out

    @cached_property
    def _a0_norms(self) -> int:
        """The product of |a|^2 over the rows a of A0."""
        norms: dict = {}
        for col in self.A0:
            for key, v in col.items():
                norms[key] = norms.get(key, 0) + v * v
        return prod(norms.values())

    def projection_bits(self, seed: int, k: int) -> int:
        """Bits of a bound on H^2, with H bounding every t-coefficient of
        det [A0_R; P (B1 - t C1)] for any set R of rows of A0 and
        P = `_projector(seed, k, rows of C)`.

        Row i of that matrix is u_i - t v_i, so the coefficient of t^j is a
        sum over the j-sets S of rows of +-det(v on S, u elsewhere), and
        Hadamard's inequality bounds it by prod_i (|u_i| + |v_i|). As
        (|u| + |v|)^2 <= 2 (|u|^2 + |v|^2), and each row of A0 (v = 0) has
        |u|^2 >= 1, H^2 is below 2^bits with bits the bit length of the
        product of |a|^2 over every row a of A0 and of 2 (|u_i|^2 + |v_i|^2)
        over the k rows of P (B1 - t C1).
        """
        P = _projector(seed, k, len(self.c_rows))
        PB, PC = self._project(P, self.B1), self._project(P, self.C)
        return (self._a0_norms * prod(2 * sum(x * x for x in u + v) for u, v in zip(PB, PC))).bit_length()

    def _zero_point_bits(self, k: int) -> int:
        """An e with 2^e above the H of `projection_bits` for every k x (rows
        of C) matrix P with entries in -3..3, read without forming P.

        Row i of P (B1 - t C1) is u_i - t v_i = sum_j P_ij (b_j - t c_j) over
        the rows b_j and c_j of B1 and C1, so |u_i| + |v_i| <= 3 T, with T
        the sum of the absolute values of the entries of B1 and C1, and
        H <= prod |a| (3 T)^k over the rows a of A0.
        """
        return (self._a0_norms.bit_length() + 1) // 2 + k * (3 * self._entry_sum).bit_length()

    @cached_property
    def _entry_sum(self) -> int:
        """T, the sum of the absolute values of the entries of B1 and C."""
        return sum(abs(v) for col in (*self.B1, *self.C) for v in col.values())


@cache
def _projector(seed: int, k: int, m: int) -> tuple[tuple[int, ...], ...]:
    """A fixed k x m matrix of small nonzero integers, drawn row by row from
    a linear congruential generator started at `seed`: its first rows do not
    depend on k."""
    x, out = seed, []
    for _ in range(k):
        row = []
        for _ in range(m):
            x = (x * 1103515245 + 12345) % (1 << 31)
            v = (x >> 16) % 6
            row.append(v - 3 if v < 3 else v - 2)  # -3..-1, 1..3
        out.append(tuple(row))
    return tuple(out)


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
