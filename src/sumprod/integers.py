"""Integer factorization helpers (trial division, Miller-Rabin, Brent's rho).

Everything here is deterministic: the rho cycle parameters are iterated in a
fixed order, so repeated runs factor the same integer the same way.
"""

from __future__ import annotations

import math

from .errors import FactorBudgetExceeded

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]

# Budget for rho iterations before giving up on a composite cofactor.
_RHO_BUDGET = 2_000_000


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases up to 41, deterministic below
    psi_13 = 3317044064679887385961981 (Sorenson & Webster 2015)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """Return a nontrivial factor of composite odd n, or raise on budget."""
    if n % 2 == 0:
        return 2
    steps = 0
    for c in range(1, 50):
        y, m = 2, 128
        g = r = q = 1
        x = ys = 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
                steps += m
                if steps > _RHO_BUDGET:
                    raise FactorBudgetExceeded(f"rho budget exceeded for {n}")
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                steps += 1
                if steps > _RHO_BUDGET:
                    raise FactorBudgetExceeded(f"rho budget exceeded for {n}")
        if g != n:
            return g
    raise FactorBudgetExceeded(f"rho failed for {n}")


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of |n| as a map prime -> exponent (1 -> {})."""
    n = abs(n)
    if n <= 1:
        return {}
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # short trial division beyond the fixed list
    p = 43
    while p * p <= n and p < 10_000:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _brent_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of |n| (n must be nonzero)."""
    if n == 0:
        raise ValueError("0 has no finite divisor list")
    out = [1]
    for p, e in factorint(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)
