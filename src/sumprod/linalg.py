"""Exact linear algebra: one certified modular nullspace engine, and the
prime sequence and Chinese-remainder step it shares with `poly`.

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

The elimination is sparse. Each row is a map {column: nonzero residue}, kept
in a bucket by its leading column. The leftmost nonempty bucket supplies the
pivot from its sparsest row; its other rows are reduced by it and move to the
bucket of their new leading column, and every entry that cancels mod p is
dropped. The systems of `factor` have a few nonzeros per column, so the work
follows the nonzeros, not the rows times the columns.

The systems of `factor` and `classify` come as sparse integer columns keyed
by monomial; `rows_from_columns` turns them into dense rows. Rational rows
are scaled to integers row by row.

The modular resultants and gcds of `poly` run on the same primes (`_primes`),
combine their images with `_crt` and lift gcds with `_lift`.

`det_in_ring`, the fraction-free (Bareiss) determinant over an integral
domain, and `rank_mod_prime`, the rank modulo one prime, have no caller in
the package; they are kept only because the benchmark tracer looks them up
by name. `rref`, Gauss-Jordan over the rationals, is the reference the tests
compare the engine against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Callable, Iterator, Sequence

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
    rows: Sequence[Sequence[int]], ncols: int, p: int
) -> tuple[list[list[tuple[int, int]]], list[int]]:
    """Row echelon form mod p, pivoting on the leftmost nonzero column.

    Returns (echelon, pivots): echelon[k] lists the (column, value) pairs
    right of column pivots[k] of the k-th pivot row, scaled to a leading 1,
    sorted by column. Rows are sparse maps {column: nonzero residue}, kept in
    buckets by their leading column. Of the rows in the leftmost bucket, the
    sparsest supplies the pivot, which keeps fill-in low; the others are
    reduced by it and move to the bucket of their new leading column, or are
    dropped once they vanish mod p. The pivot columns do not depend on which
    row supplies the pivot.
    """
    buckets: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        r = {j: m for j, v in enumerate(row) if v and (m := v % p)}
        if r:
            buckets.setdefault(min(r), []).append(r)
    echelon, pivots = [], []
    for col in range(ncols):
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
) -> list[list[int]]:
    """Reduced-echelon nullspace basis mod p, one vector per free column.

    The vector of free column c has 1 at c and 0 at every other free column.
    """
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [0] * ncols
        v[fc] = 1
        # entries right of fc stay zero, so back-substitution starts left of it
        for row, pc in reversed([(r, c) for r, c in zip(echelon, pivots) if c < fc]):
            v[pc] = -sum(a * v[j] for j, a in row) % p
        basis.append(v)
    return basis


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


def _annihilates(rows: Sequence[Sequence[int]], w: list[int]) -> bool:
    """A w = 0, exactly over Z."""
    support = [j for j, v in enumerate(w) if v]
    return all(sum(row[j] * w[j] for j in support) == 0 for row in rows)


def _prime_budget(rows: Sequence[Sequence[int]], ncols: int) -> int:
    """Primes that always suffice to certify the nullspace of `rows`.

    Every minor is at most H = prod of the column norms (Hadamard), and the
    reduced-echelon basis entries are ratios of minors, so a modulus above
    2 H^2 reconstructs them. Each prime exceeds 2^60, and a prime is unlucky
    only when it divides one fixed nonzero minor, so at most log2(H)/60 are.
    """
    bits = 0
    for j in range(ncols):
        bits += sum(row[j] * row[j] for row in rows).bit_length()
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


def certified_nullspace(rows: Sequence[Sequence[int]], ncols: int) -> Nullspace:
    """Right nullspace of an integer matrix, certified over Q.

    Raises CertificationFailed when the prime budget runs out, which the
    Hadamard bound rules out for a correct implementation.
    """
    rows = [list(r) for r in rows if any(r)]
    pivots = residues = modulus = budget = None
    for used, p in enumerate(_primes(), 1):
        echelon, piv = _echelon_mod(rows, ncols, p)
        basis = _kernel_mod(echelon, piv, ncols, p)
        # a prime is unlucky when its pivot columns come out fewer or later
        # than the true ones; keep the best pivot profile seen so far
        if pivots is None or (len(piv), [-c for c in piv]) > (len(pivots), [-c for c in pivots]):
            pivots, residues, modulus = piv, basis, p
        elif piv == pivots:
            residues = [_crt(old, modulus, new, p) for old, new in zip(residues, basis)]
            modulus *= p
        lifted = [_lift(v, modulus) for v in residues]
        if all(got is not None and _annihilates(rows, got[0]) for got in lifted):
            return Nullspace(
                tuple(pivots),
                tuple(tuple(w) for w, _ in lifted),
                tuple(d for _, d in lifted),
                used,
            )
        if budget is None:
            budget = _prime_budget(rows, ncols)
        if used >= budget:
            raise CertificationFailed(
                f"nullspace of a {len(rows)}x{ncols} matrix not certified after {used} primes"
            )


def rank_mod_prime(rows: Sequence[Sequence[int]], p: int = _RANK_PRIME) -> int:
    """Rank of the matrix reduced mod p; a certified lower bound on the rank."""
    return len(_echelon_mod(rows, len(rows[0]) if rows else 0, p)[1])


def rank_int(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix, certified by the nullspace engine."""
    if not rows:
        return 0
    return len(certified_nullspace(rows, len(rows[0])).pivots)


def rows_from_columns(columns: Sequence[dict]) -> tuple[list[list[int]], list]:
    """Dense rows of the matrix whose column k holds columns[k][key] in the
    row of `key` and zeros elsewhere, and the row keys: rows come in the
    order their keys are first seen."""
    keys = list(dict.fromkeys(key for col in columns for key in col))
    index = {key: r for r, key in enumerate(keys)}
    rows = [[0] * len(columns) for _ in keys]
    for k, col in enumerate(columns):
        for key, v in col.items():
            rows[index[key]][k] = v
    return rows, keys


def scale_rows_to_int(rows: Sequence[Sequence[Fraction | int]]) -> list[list[int]]:
    """Scale each row by the lcm of its denominators (rank-preserving)."""
    out = []
    for r in rows:
        L = lcm(*(v.denominator for v in r))
        out.append([int(v * L) for v in r])
    return out


def nullspace_basis(rows: Sequence[Sequence[Fraction | int]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right nullspace of the matrix, as coefficient vectors."""
    return certified_nullspace(scale_rows_to_int(rows), ncols).basis()


def solve_exact(
    rows: Sequence[Sequence[Fraction | int]], rhs: Sequence[Fraction | int]
) -> list[Fraction] | None:
    """One exact solution of A x = b, or None if the system is inconsistent.

    Free variables are pinned to zero; callers needing uniqueness verify the
    reconstruction downstream.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    # the solutions are the nullspace vectors of [A | -b] ending in 1
    kernel = certified_nullspace(
        scale_rows_to_int([list(r) + [-b] for r, b in zip(rows, rhs)]), ncols + 1
    )
    if ncols in kernel.pivots:
        return None
    return kernel.basis()[-1][:ncols]


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
