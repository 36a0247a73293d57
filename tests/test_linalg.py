"""The certified modular nullspace engine against the Fraction reference `rref`."""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from functools import partial
from itertools import islice
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumprod import linalg
from sumprod.linalg import (
    Pencil,
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


def columns(rows):
    """The sparse columns {row index: nonzero entry} of a dense matrix."""
    return [{i: r[j] for i, r in enumerate(rows) if r[j]} for j in range(len(rows[0]))]


@st.composite
def int_matrices(draw):
    """Small integer matrices: dense ones, rank-deficient products B C, and
    sparse ones up to 12 x 12 with zero columns and (scaled) duplicate rows."""
    entries = st.integers(-9, 9)
    shape = draw(st.sampled_from(["dense", "product", "sparse"]))
    if shape == "sparse":
        m = draw(st.integers(1, 12))
        n = draw(st.integers(1, 12))
        zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=n // 2))
        cells = draw(st.dictionaries(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)), entries, max_size=2 * n))
        A = [[0] * n for _ in range(m)]
        for (i, j), v in cells.items():
            if j not in zero_cols:
                A[i][j] = v
        for i, src, c in draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1), entries), max_size=4)):
            A[i] = [c * v for v in A[src]]
        return A
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    if shape == "dense":
        return draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    k = draw(st.integers(1, 3))
    B = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=m, max_size=m))
    C = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=k, max_size=k))
    return [[sum(B[i][t] * C[t][j] for t in range(k)) for j in range(n)] for i in range(m)]


class TestAgainstReference:
    @given(int_matrices(), st.lists(st.integers(-9, 9), min_size=12, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_rank_nullspace_and_solve(self, A, b):
        ncols = len(A[0])
        expected = reference_nullspace(A, ncols)
        cols = columns(A)
        basis = nullspace_basis(cols)
        assert rank_int(cols) == ncols - len(expected) == rank_mod_prime(cols)
        assert len(basis) == len(expected)
        assert basis == expected
        for vec in basis:
            assert times(A, vec) == [0] * len(A)
        # an inconsistent system is one whose augmented column is a pivot
        rhs = b[: len(A)]
        _, pivots = rref([[F(v) for v in r] + [F(c)] for r, c in zip(A, rhs)])
        x = solve_exact(cols, columns([[c] for c in rhs])[0])
        if ncols in pivots:
            assert x is None
        else:
            assert x is not None and times(A, x) == rhs
        # b = A x0 is always consistent
        rhs = times(A, b[:ncols])
        x = solve_exact(cols, columns([[c] for c in rhs])[0])
        assert x is not None and times(A, x) == rhs


class TestRowKeys:
    """The engine's output does not depend on how the rows are named."""

    @given(int_matrices(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_same_nullspace_for_any_row_keys(self, A, rnd):
        expected = certified_nullspace(columns(A))
        order = list(range(len(A)))
        rnd.shuffle(order)
        renamings = [
            lambda i: (i, -i),  # tuples, as the monomial keys of the builders
            lambda i: f"row {i}",
            lambda i: order[i],  # the same integers, permuted
        ]
        for name in renamings:
            cols = [{name(i): v for i, v in col.items()} for col in columns(A)]
            assert certified_nullspace(cols) == expected
        # rows first seen in another order: each column's entries reversed,
        # and the columns built visiting the rows in the shuffled order
        shuffled = [{i: col[i] for i in reversed(list(col))} for col in columns(A)]
        assert certified_nullspace(shuffled) == expected
        rows_shuffled = [{i: A[i][j] for i in order if A[i][j]} for j in range(len(A[0]))]
        assert certified_nullspace(rows_shuffled) == expected

    def test_no_columns(self):
        kernel = certified_nullspace([])
        assert kernel.pivots == () and kernel.basis() == []
        assert rank_int([]) == rank_mod_prime([]) == 0
        assert solve_exact([], {}) == []
        assert solve_exact([], {"a": 1}) is None

    def test_empty_columns(self):
        kernel = certified_nullspace([{}, {}, {}])
        assert kernel.pivots == () and kernel.primes == 1
        assert kernel.basis() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert rank_int([{}, {}]) == rank_mod_prime([{}, {}]) == 0
        assert solve_exact([{}, {}], {}) == [0, 0]
        assert solve_exact([{}, {}], {(0, 1): 5}) is None


class TestPencil:
    """Block elimination of b B - a C against eliminating the member itself."""

    @given(int_matrices(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_members_match_the_engine(self, B, data):
        m, n = len(B), len(B[0])
        # C is nonzero only on the rows in `rows`, as R(1) is in a fiber pencil
        rows = data.draw(st.sets(st.integers(0, m - 1), max_size=m))
        entries = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
        C = [data.draw(entries) if i in rows else [0] * n for i in range(m)]
        pencil = Pencil(columns(B), columns(C))
        for a, b in data.draw(st.lists(st.tuples(st.integers(-5, 5), st.integers(1, 5)), min_size=1, max_size=4)):
            if gcd(a, b) != 1:
                continue
            member = [[b * u - a * v for u, v in zip(r, s)] for r, s in zip(B, C)]
            cols = pencil.columns(a, b)
            assert cols == columns(member)
            expected = certified_nullspace(cols)
            assert certified_nullspace(cols, partial(pencil.kernel_mod, a, b)) == expected
            assert pencil.rank(a, b) == len(expected.pivots)


    def test_columns_built_only_to_verify_a_kernel(self, monkeypatch):
        built = []
        build = Pencil.columns
        monkeypatch.setattr(Pencil, "columns", lambda self, a, b: built.append((a, b)) or build(self, a, b))
        # rows 0 and 1 are b times the identity: every member has full column rank
        full = Pencil(columns([[1, 0], [0, 1], [1, 1]]), columns([[0, 0], [0, 0], [1, 2]]))
        assert [full.rank(a, 1) for a in range(-3, 4)] == [2] * 7
        assert built == []
        # [b - a, b] has a kernel vector, which is verified on the member's columns
        deficient = Pencil(columns([[1, 1]]), columns([[1, 0]]))
        assert deficient.rank(2, 1) == 1
        assert built == [(2, 1)]


class TestPrimes:
    def test_unlucky_prime(self):
        # 2^61 - 1 is the first prime, and it kills the only entry
        assert rank_mod_prime([{0: 2**61 - 1}]) == 0
        assert rank_int([{0: 2**61 - 1}]) == 1
        assert certified_nullspace([{0: 2**61 - 1}]).primes == 2

    def test_kernel_entry_needs_second_prime(self):
        # 2^40 + 1 is above the ~2^30 a single 61-bit prime can reconstruct
        kernel = certified_nullspace([{0: 1}, {0: -(2**40 + 1)}])
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
                linalg.rank_int([{0: 1, 1: 2}, {0: 2, 1: 4}])
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
