"""The certified modular nullspace engine against the Fraction reference `rref`."""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumprod import linalg
from sumprod.linalg import (
    _primes,
    certified_nullspace,
    nullspace_basis,
    rank_int,
    rank_mod_prime,
    rref,
    solve_exact,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def reference_nullspace(rows, ncols):
    """Reduced-echelon nullspace basis read off the rational RREF."""
    m, pivots = rref([[F(v) for v in r] for r in rows])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [F(0)] * ncols
        vec[fc] = F(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc]
        basis.append(vec)
    return basis


def times(rows, vec):
    return [sum(a * v for a, v in zip(r, vec)) for r in rows]


@st.composite
def int_matrices(draw):
    """Small integer matrices; half of them rank-deficient products B C."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    entries = st.integers(-9, 9)
    if draw(st.booleans()):
        return draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    k = draw(st.integers(1, 3))
    B = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=m, max_size=m))
    C = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=k, max_size=k))
    return [[sum(B[i][t] * C[t][j] for t in range(k)) for j in range(n)] for i in range(m)]


class TestAgainstReference:
    @given(int_matrices(), st.lists(st.integers(-9, 9), min_size=6, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_rank_nullspace_and_solve(self, A, b):
        ncols = len(A[0])
        expected = reference_nullspace(A, ncols)
        basis = nullspace_basis([[F(v) for v in r] for r in A], ncols)
        assert rank_int(A) == ncols - len(expected) == rank_mod_prime(A)
        assert len(basis) == len(expected)
        assert basis == expected
        for vec in basis:
            assert times(A, vec) == [0] * len(A)
        # an inconsistent system is one whose augmented column is a pivot
        rhs = [F(v) for v in b[: len(A)]]
        _, pivots = rref([[F(v) for v in r] + [c] for r, c in zip(A, rhs)])
        x = solve_exact([[F(v) for v in r] for r in A], rhs)
        if ncols in pivots:
            assert x is None
        else:
            assert x is not None and times(A, x) == rhs
        # b = A x0 is always consistent
        rhs = times(A, [F(v) for v in b[:ncols]])
        x = solve_exact([[F(v) for v in r] for r in A], rhs)
        assert x is not None and times(A, x) == rhs


class TestPrimes:
    def test_unlucky_prime(self):
        # 2^61 - 1 is the first prime, and it kills the only entry
        assert rank_mod_prime([[2**61 - 1]]) == 0
        assert rank_int([[2**61 - 1]]) == 1
        assert certified_nullspace([[2**61 - 1]], 1).primes == 2

    def test_kernel_entry_needs_second_prime(self):
        # 2^40 + 1 is above the ~2^30 a single 61-bit prime can reconstruct
        kernel = certified_nullspace([[1, -(2**40 + 1)]], 2)
        assert kernel.primes == 2
        assert kernel.basis() == [[2**40 + 1, 1]]

    def test_forced_verification_failure_under_optimize(self):
        script = textwrap.dedent(
            """
            import sys
            from sumprod import linalg
            from sumprod.errors import CertificationFailed

            assert False, "asserts must be stripped"
            linalg._annihilates = lambda rows, w: False
            try:
                linalg.rank_int([[1, 2], [2, 4]])
            except CertificationFailed as exc:
                print("raised:", exc)
            """
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("raised: nullspace of a 2x2 matrix not certified")


def test_prime_sequence_matches_sympy_and_is_cached(monkeypatch):
    import sympy

    expected, q = [], 1 << 61
    for _ in range(16):
        q = sympy.prevprime(q)
        expected.append(q)
    assert list(islice(_primes(), 16)) == expected
    # a second pass reads the cache and tests no number for primality
    monkeypatch.setattr(linalg, "is_probable_prime", lambda n: pytest.fail("primality test rerun"))
    assert list(islice(_primes(), 16)) == expected
