"""Shared fixtures and independent oracle helpers.

The oracles here deliberately avoid the package's polynomial machinery:
expansion is a plain dict convolution, evaluation goes through hand-written
lambdas, and incidence counting is a full double loop. Expected values in the
tests are either frozen from these oracles or recomputed by them in place.
"""

import math
import re
from fractions import Fraction as F

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from sumprod import BiPoly, UniPoly
from sumprod.parsing import parse_poly


# hand-coded evaluators, one per corpus member (independent of BiPoly.eval)
CORPUS_EVAL = {
    "x y": lambda a, b: a * b,
    "x^2 + y": lambda a, b: a * a + b,
    "x^2 + x y + y^2": lambda a, b: a * a + a * b + b * b,
    "x^2 + y^2": lambda a, b: a * a + b * b,
    "x^3 + x y": lambda a, b: a**3 + a * b,
}

CORPUS = list(CORPUS_EVAL)

# certified non-composite polynomials spanning total degrees 2 through 5
# (none admits an outer factor of degree >= 2: gradients are never
# proportional and every degree split is ruled out by the fiber test)
NON_COMPOSITE = [
    "x y",
    "x^2 + y",
    "x^2 + y^2",
    "x^2 + x y + y^2",
    "x^2 - y^2",
    "x^3 + x y",
    "x^3 + y",
    "x^3 + x + y",
    "x^4 + y",
    "x^5 + y",
]

# (x^3 + y^2 + x y)(y^3 + x^2 + 1) + 1/2: the eliminant of its critical values
# has degree 115 and 609-bit coefficients, and its squarefree part takes a gcd
# of that size
LARGE_ELIMINANT = "x^5 + x^3 y^3 + x^3 y + x^3 + x^2 y^2 + x y^4 + x y + y^5 + y^2 + 1/2"


@pytest.fixture
def P():
    return parse_poly


# the recursive-descent parser `sumprod.parsing` used before its one-pattern
# loop, kept as the reference the differential test compares against; it
# uses nothing from the package
_REFERENCE_TOKEN = re.compile(r"\s*(\d+|[xy]|\^|\*|/|\+|-)")


def _reference_tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    n = len(text)
    while pos < n:
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            break
        m = _REFERENCE_TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"unexpected character at {text[pos:pos + 8]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def reference_parse(text: str) -> dict:
    """{(i, j): coefficient} of the term-sum text, repeated monomials summed
    and zeros dropped; ValueError where the text is not a term sum."""
    toks = _reference_tokenize(text)
    if not toks:
        raise ValueError("empty polynomial text")
    pos = 0
    terms: list[tuple[tuple[int, int], F]] = []

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        t = toks[pos]
        pos += 1
        return t

    def read_number() -> F:
        num = int(take())
        if peek() == "/":
            take()
            if not (peek() or "").isdigit():
                raise ValueError("expected denominator after '/'")
            den = int(take())
            if den == 0:
                raise ValueError("zero denominator")
            return F(num, den)
        return F(num)

    def read_term() -> tuple[tuple[int, int], F]:
        coeff = F(1)
        i = j = 0
        saw_factor = False
        while True:
            t = peek()
            if t is None or t in "+-":
                break
            if t == "*":
                take()
                continue
            if t == "/":
                raise ValueError("'/' outside a coefficient")
            if t == "^":
                raise ValueError("'^' without a base")
            if t.isdigit():
                coeff *= read_number()
                saw_factor = True
                continue
            # variable factor
            var = take()
            exp = 1
            if peek() == "^":
                take()
                if not (peek() or "").isdigit():
                    raise ValueError("expected exponent after '^'")
                exp = int(take())
            if var == "x":
                i += exp
            else:
                j += exp
            saw_factor = True
        if not saw_factor:
            raise ValueError("empty term")
        return (i, j), coeff

    sign = F(1)
    if peek() in ("+", "-"):
        sign = F(-1) if take() == "-" else F(1)
    key, c = read_term()
    terms.append((key, sign * c))
    while peek() is not None:
        op = take()
        if op not in ("+", "-"):
            raise ValueError(f"expected '+' or '-', got {op!r}")
        sign = F(-1) if op == "-" else F(1)
        key, c = read_term()
        terms.append((key, sign * c))
    summed: dict = {}
    for key, c in terms:
        summed[key] = summed.get(key, 0) + c
    return {key: c for key, c in summed.items() if c}


# the printer `sumprod.parsing.format_bipoly` used while polynomials kept a
# Fraction view of their coefficients, kept as the reference the
# differential test compares against; it uses nothing from the package
def _reference_coeff(c: F) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def reference_format(terms: dict) -> str:
    """Canonical text of {(i, j): nonzero Fraction}, graded-lex descending."""
    if not terms:
        return "0"
    pieces = []
    for i, j in sorted(terms, key=lambda k: (k[0] + k[1], k[0]), reverse=True):
        c = terms[(i, j)]
        mono = " ".join(
            [*(["x" if i == 1 else f"x^{i}"] if i else []), *(["y" if j == 1 else f"y^{j}"] if j else [])]
        )
        mag = abs(c)
        if not mono:
            body = _reference_coeff(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{_reference_coeff(mag)} {mono}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


def naive_mul(a: dict, b: dict) -> dict:
    """Dict-of-terms convolution, the expansion oracle."""
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, F(0)) + c1 * c2
    return {k: v for k, v in out.items() if v}


def naive_pow(a: dict, n: int) -> dict:
    out = {(0, 0): F(1)}
    for _ in range(n):
        out = naive_mul(out, a)
    return out


def naive_add(a: dict, b: dict, sign: int = 1) -> dict:
    """a + sign * b, term by term."""
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, F(0)) + sign * v
    return {k: v for k, v in out.items() if v}


def naive_derivative(a: dict, var: str) -> dict:
    if var == "x":
        return {(i - 1, j): c * i for (i, j), c in a.items() if i}
    return {(i, j - 1): c * j for (i, j), c in a.items() if j}


def naive_specialize_y(a: dict, b: F) -> dict:
    """Coefficients {i: c_i} of x -> f(x, b)."""
    out: dict = {}
    for (i, j), c in a.items():
        out[i] = out.get(i, F(0)) + c * b**j
    return {i: v for i, v in out.items() if v}


def naive_swap(a: dict) -> dict:
    return {(j, i): c for (i, j), c in a.items()}


def naive_primitive(a: dict) -> tuple[F, dict]:
    """(scale, ints) with a = scale * ints, ints coprime integers whose
    graded-lex leading one (x ahead of y) is positive; a is nonzero."""
    L = math.lcm(*(c.denominator for c in a.values()))
    nums = {k: int(c * L) for k, c in a.items()}
    g = math.gcd(*nums.values())
    if nums[max(nums, key=lambda k: (k[0] + k[1], k[0]))] < 0:
        g = -g
    return F(g, L), {k: v // g for k, v in nums.items()}


def to_terms(f) -> dict:
    """The coefficients of a `BiPoly` or `UniPoly` as Fractions, by key."""
    return {k: F(v, f.d) for k, v in f.n.items()}


@st.composite
def nonconstant_bipolys(draw, max_deg=2):
    """Nonconstant integer bivariate polynomials of total degree <= max_deg."""
    terms = draw(
        st.lists(
            st.tuples(st.integers(0, max_deg), st.integers(0, max_deg), st.integers(-3, 3)),
            min_size=1,
            max_size=4,
        )
    )
    f = BiPoly({(i, j): c for i, j, c in terms if i + j <= max_deg})
    assume(not f.is_constant)
    return f


def naive_eval(terms: dict, a: F, b: F) -> F:
    return sum((c * a**i * b**j for (i, j), c in terms.items()), F(0))


def naive_sumset(A) -> set:
    return {a + b for a in A for b in A}


def naive_image(fn, A) -> set:
    return {fn(a, b) for a in A for b in A}


def naive_zero_row(terms: dict, b: F) -> bool:
    """Whether x -> f(x, b) is the zero polynomial."""
    cols: dict = {}
    for (i, j), c in terms.items():
        cols[i] = cols.get(i, F(0)) + c * b**j
    return not any(cols.values())


# rationals with mixed denominators, negative elements and zero
grid_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)


# nonlinear cores of composites; x y and x^3 + x y have a reducible fiber at
# 0, and x^2 y + x + y at +-i, since g^2 + 1 = (x^2 + 1)(x^2 y^2 + 2 x y + y^2 + 1)
CORES = ["x^2 + y", "x y", "x^3 + x y", "x^2 y + x + y"]


@st.composite
def composites(draw):
    """Q(g) for Q of degree 2 or 3 in small integers and g a linear form or
    one of CORES, of total degree at most 8."""
    if draw(st.booleans()):
        a, b = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=2, max_size=2))
        g = BiPoly({(1, 0): a, (0, 1): b})
    else:
        g = parse_poly(draw(st.sampled_from(CORES)))
    deg = draw(st.integers(2, min(3, 8 // g.total_degree)))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=deg + 1, max_size=deg + 1))
    assume(coeffs[-1])
    return UniPoly(dict(enumerate(coeffs))).compose_bi(g)


def core_fiber_values(outer: UniPoly, drop: UniPoly) -> list:
    """The lambda = r with outer = r mod e for a factor e of `drop`, for the
    `spectrum.composite_split` (outer, core, drop) of a composite: e divides
    outer - lambda, so the piece e(core) of that fiber takes the
    `factor_rational` branch of the composed route. Input construction, not
    an oracle: it uses the package's univariate factorization."""
    from sumprod.factor import factor_univariate

    rems = (outer.divrem(e)[1] for e, _ in factor_univariate(drop)[1])
    return [r.coeff(0) for r in rems if r.degree <= 0]


@st.composite
def rational_sets(draw, max_size=7):
    """Sorted finite sets of `grid_rationals`, holding 0 about half the time."""
    elems = draw(st.sets(grid_rationals, max_size=max_size))
    if draw(st.booleans()):
        elems.add(F(0))
    return sorted(elems)


@st.composite
def structured_sets(draw):
    """Sets of 6 to 24 elements: an AP slice, a GP slice of ratio 2, both
    from a possibly negative or rational start, or random integers. APs
    repeat sums and share curve classes; GPs and random sets have nearly
    distinct sums, so they stop at 12 elements, about 80 sums."""
    kind = draw(st.sampled_from(["AP", "GP", "random"]))
    if kind == "random":
        return sorted(draw(st.sets(st.integers(-60, 60), min_size=6, max_size=12)))
    start = draw(grid_rationals.filter(bool))
    if kind == "GP":
        return [start * 2**i for i in range(draw(st.integers(6, 12)))]
    step = draw(grid_rationals.filter(bool))
    return [start + i * step for i in range(draw(st.integers(6, 24)))]


@st.composite
def rational_grid_polys(draw, max_deg=3):
    """Terms of a nonconstant f with rational coefficients.

    One draw in four is the square of a rational linear form p x + q y + r,
    whose fibers are all reducible, so every candidate lambda is a sigma hit.
    """
    nonzero = grid_rationals.filter(bool)
    if draw(st.integers(0, 3)) == 0:
        p, q, r = draw(nonzero), draw(nonzero), draw(grid_rationals)
        lin = {k: v for k, v in {(1, 0): p, (0, 1): q, (0, 0): r}.items() if v}
        return naive_mul(lin, lin)
    exps = st.tuples(st.integers(0, max_deg), st.integers(0, max_deg)).filter(
        lambda e: 0 < e[0] + e[1] <= max_deg
    )
    terms = draw(st.dictionaries(exps, nonzero, min_size=1, max_size=5))
    if draw(st.booleans()):
        terms[(0, 0)] = draw(nonzero)
    return terms


# The Fraction reference for the integer curve keys of `build_family`: each
# term c x^i y^j of f gives c b^j (x - a)^i, expanded by the binomial theorem.
def curve_key(f: BiPoly, a: F, b: F) -> tuple:
    """Coefficient vector of x -> f(x - a, b), ascending degree, trailing
    zeros dropped."""
    out: dict = {}
    for (i, j), c in to_terms(f).items():
        for k in range(i + 1):
            out[k] = out.get(k, F(0)) + c * b**j * math.comb(i, k) * (-a) ** (i - k)
    deg = max((k for k, v in out.items() if v), default=-1)
    return tuple(out.get(k, F(0)) for k in range(deg + 1))


# The Fraction reference for the small-height sweep: every reduced p/q with
# |p| <= height and 1 <= q <= height, plus zero, collected one Fraction at a
# time.
def fraction_sweep(height: int) -> list:
    out = {F(0)}
    for q in range(1, height + 1):
        for p in range(1, height + 1):
            out.add(F(p, q))
            out.add(F(-p, q))
    return sorted(out)


def fraction_classes(fam) -> dict:
    """The classes of a `CurveFamily` in its Fraction view, in class order:
    curve coefficients -> sorted (a, b) members."""
    return {fam.curve_key(key): fam.members(key) for key in fam.classes}


def double_loop_incidences(curve_keys, points) -> tuple[int, list[int]]:
    """Exhaustive point-by-curve membership count."""
    per = []
    for key in curve_keys:
        cnt = 0
        for (s, v) in points:
            val = F(0)
            for d in range(len(key) - 1, -1, -1):
                val = val * s + key[d]
            if val == v:
                cnt += 1
        per.append(cnt)
    return sum(per), per


def per_curve_hits(curve_keys, sums, kept) -> list[int]:
    """For each curve key, #{s in sums : T(s) in kept} with T the key's
    polynomial: the per-curve incidence count, one evaluation per sum.

    Exact in integers, one gcd per value: with s = n / q and the key of
    degree d written as K_i / m over the lcm m of its denominators,
    T(s) = sum_i K_i n^i q^(d - i) / (m q^d)."""
    kept = {(v.numerator, v.denominator) for v in kept}
    sums = [(s.numerator, s.denominator) for s in sums]
    per = []
    for key in curve_keys:
        d = len(key) - 1
        m = math.lcm(*(c.denominator for c in key))
        K = [c.numerator * (m // c.denominator) for c in key]
        hits = 0
        for n, q in sums:
            num = 0
            for i in range(d, -1, -1):
                num = num * n + K[i] * q ** (d - i)
            den = m * q**d
            g = math.gcd(num, den)
            hits += (num // g, den // g) in kept
        per.append(hits)
    return per


def conic_abs_count(f: BiPoly) -> int:
    """Absolutely irreducible factor count of a squarefree conic.

    A conic a x^2 + b xy + c y^2 + d x + e y + g splits into two lines over C
    exactly when the symmetric 3x3 determinant vanishes.
    """
    a = f.coeff(2, 0)
    b = f.coeff(1, 1)
    c = f.coeff(0, 2)
    d = f.coeff(1, 0)
    e = f.coeff(0, 1)
    g = f.coeff(0, 0)
    m = [
        [a, b / 2, d / 2],
        [b / 2, c, e / 2],
        [d / 2, e / 2, g],
    ]
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    return 1 if det != 0 else 2


def sympy_factor_multiset(f: BiPoly):
    """Factors of f and their multiplicities by sympy `factor_list`, normalized."""
    import sympy

    x, y = sympy.symbols("x y")
    expr = sum(
        sympy.Rational(c.numerator, c.denominator) * x**i * y**j
        for (i, j), c in to_terms(f).items()
    )
    _, facs = sympy.factor_list(sympy.expand(expr))
    out = []
    for poly, mult in facs:
        p = sympy.Poly(poly, x, y)
        terms = {
            (int(mono[0]), int(mono[1])): F(int(coeff.p), int(coeff.q))
            for mono, coeff in zip(p.monoms(), p.coeffs())
        }
        out.append((BiPoly(terms).normalized(), int(mult)))
    return sorted(out, key=lambda pm: (pm[0].total_degree, sorted(pm[0].n)))


# The rank-drop polynomials of a `linalg.Pencil` over Q by sympy. The block
# A1(t) K0 = G - t H is rebuilt from the pencil's matrices, with K0 any
# kernel basis of its lambda-free rows A0: another basis multiplies every
# maximal minor by one nonzero constant, which the monic form removes.


def sympy_lambda_block(pencil):
    """(A1(t) K0, t): the lambda block of `pencil` over Q[t] as a sympy
    Matrix, one row per row of C in the pencil's order."""
    import sympy

    t = sympy.symbols("t")
    n = len(pencil.B)
    a0_rows = sorted({key for col in pencil.A0 for key in col})
    kernel = sympy.Matrix(len(a0_rows), n, lambda i, j: pencil.A0[j].get(a0_rows[i], 0)).nullspace()
    K0 = sympy.Matrix.hstack(*kernel) if kernel else sympy.zeros(n, 0)
    rows = list(pencil.c_rows)
    A1 = sympy.Matrix(len(rows), n, lambda i, j: pencil.B1[j].get(rows[i], 0) - t * pencil.C[j].get(rows[i], 0))
    return A1 * K0, t


def sympy_det_monic(M, t) -> UniPoly | None:
    """det M of a square sympy Matrix over Q[t], made monic, or None when it
    is zero; the determinant is taken over the polynomial ring (DomainMatrix)."""
    import sympy
    from sympy.polys.matrices import DomainMatrix

    if not M.rows:
        return UniPoly.const(1)
    dm = DomainMatrix.from_Matrix(M)
    poly = sympy.Poly(dm.domain.to_sympy(dm.det()), t)
    if poly.is_zero:
        return None
    return UniPoly({k: F(int(c.p), int(c.q)) for (k,), c in poly.monic().terms()})


def projector(seed: int, k: int, m: int) -> list[list[int]]:
    """A fixed k x m matrix of small nonzero integers, drawn row by row from
    a linear congruential generator started at `seed`."""
    x, out = seed, []
    for _ in range(k):
        row = []
        for _ in range(m):
            x = (x * 1103515245 + 12345) % (1 << 31)
            v = (x >> 16) % 6
            row.append(v - 3 if v < 3 else v - 2)  # -3..-1, 1..3
        out.append(row)
    return out


def projected_drop(pencil, seed: int) -> UniPoly | None:
    """D(t) = det(P A1(t) K0) made monic, or None when it is zero, for the
    projection P = projector(seed, |K0|, rows of C): a fixed combination of
    the maximal minors of the lambda block (Cauchy-Binet), which the
    spectrum was once read from."""
    import sympy

    block, t = sympy_lambda_block(pencil)
    P = sympy.Matrix(block.cols, block.rows, [v for row in projector(seed, block.cols, block.rows) for v in row])
    return sympy_det_monic(P * block, t)


def projected_spectrum(fiber_pencil) -> tuple | None:
    """The rational lambda = s t at which the lambda block of a
    `factor.FiberPencil` loses rank, read off the common rational roots of
    the projected D of two fixed projections; None when both vanish."""
    import sympy

    block, t = sympy_lambda_block(fiber_pencil.pencil)
    drops = [d for d in (projected_drop(fiber_pencil.pencil, seed) for seed in (1, 2)) if d is not None]
    if not drops:
        return None
    common = sympy.gcd_list([sum(sympy.Rational(c.numerator, c.denominator) * t**k for k, c in to_terms(d).items()) for d in drops])
    roots = sympy.Poly(common, t).ground_roots()
    drops_rank = [r for r in roots if block.subs(t, r).rank() < block.cols]
    return tuple(sorted(F(int(r.p), int(r.q)) * fiber_pencil.scale for r in drops_rank))


# The subresultant gcd, an independent route the tests compare `uni_gcd`
# against; it uses the package's `UniPoly` arithmetic.
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
    g = F(1)
    h = F(1)
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


def _int_divisors_signed(v: int) -> list[int]:
    v = abs(v)
    out = []
    for d in range(1, v + 1):
        if v % d == 0:
            out.extend((d, -d))
    return out


def _uni_lagrange(points: list[tuple[int, F]]) -> list[F]:
    """Coefficients (ascending) of the interpolating polynomial."""
    deg = len(points) - 1
    coeffs = [F(0)] * (deg + 1)
    for i, (xi, yi) in enumerate(points):
        if yi == 0:
            continue
        basis = [F(1)]
        den = F(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            nxt = [F(0)] * (len(basis) + 1)
            for t, c in enumerate(basis):
                nxt[t + 1] += c
                nxt[t] += c * (-xj)
            basis = nxt
            den *= xi - xj
        for t, c in enumerate(basis):
            coeffs[t] += c * yi / den
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _uni_eval(coeffs: list[F], x: F) -> F:
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _uni_divides(num: list[F], den: list[F]) -> bool:
    if not den:
        return False
    r = list(num)
    while r and len(r) >= len(den):
        q = r[-1] / den[-1]
        off = len(r) - len(den)
        for t, c in enumerate(den):
            r[off + t] -= q * c
        while r and r[-1] == 0:
            r.pop()
    return not r


def _bi_divides_dict(fd: dict, gd: dict) -> bool:
    """Naive exact-division test in Q[x, y], dict-of-terms representation."""

    def deg_x(d):
        return max((i for i, _ in d), default=-1)

    def coeffs_in_x(d):
        out = {}
        for (i, j), c in d.items():
            out.setdefault(i, {})[j] = c
        return out

    def y_div(a: dict, b: dict):
        # univariate division in y on sparse dicts; None when inexact
        r = dict(a)
        q = {}
        db = max(b)
        while r:
            dr = max(r)
            if dr < db:
                return None
            t = r[dr] / b[db]
            q[dr - db] = t
            for j, c in b.items():
                nd = j + dr - db
                nv = r.get(nd, F(0)) - t * c
                if nv:
                    r[nd] = nv
                else:
                    r.pop(nd, None)
        return q

    def y_mul(a: dict, b: dict):
        out = {}
        for j1, c1 in a.items():
            for j2, c2 in b.items():
                out[j1 + j2] = out.get(j1 + j2, F(0)) + c1 * c2
        return {j: c for j, c in out.items() if c}

    fx = coeffs_in_x(fd)
    gx = coeffs_in_x(gd)
    dg = deg_x(gd)
    glead = gx[dg]
    rem = {i: dict(cs) for i, cs in fx.items()}
    while rem:
        dr = max(rem)
        if dr < dg:
            return False
        qc = y_div(rem[dr], glead)
        if qc is None:
            return False
        for i2, c2 in gx.items():
            nd = i2 + dr - dg
            prod = y_mul(qc, c2)
            cur = rem.get(nd, {})
            for j, c in prod.items():
                nv = cur.get(j, F(0)) - c
                if nv:
                    cur[j] = nv
                else:
                    cur.pop(j, None)
            if cur:
                rem[nd] = cur
            else:
                rem.pop(nd, None)
    return True


def grid_factor_exists(f: BiPoly) -> bool:
    """Exhaustive per-bidegree factor search over integer evaluation grids.

    Independent of the package's factorization path: an integer-coefficient
    factor of bidegree (r, s) takes divisor values at grid nodes, so its row
    slices are interpolated from divisor tuples, filtered by exact univariate
    division against the row polynomial, and the surviving slice combinations
    are interpolated in y and checked by a local bivariate division.
    """
    import math

    terms = to_terms(f)
    L = 1
    for c in terms.values():
        L = L * c.denominator // math.gcd(L, c.denominator)
    g = 0
    for c in terms.values():
        g = math.gcd(g, abs(int(c * L)))
    prim = {k: F(int(c * L) // g) for k, c in terms.items()}
    dx = max(i for i, _ in prim)
    dy = max(j for _, j in prim)

    def value(x, y):
        return naive_eval(prim, F(x), F(y))

    def slice_in_x(y) -> list[F]:
        out = [F(0)] * (dx + 1)
        for (i, j), c in prim.items():
            out[i] += c * F(y) ** j
        while out and out[-1] == 0:
            out.pop()
        return out

    def next_node(t):
        return -t if t > 0 else -t + 1

    def single_var_factor_exists(coeff_polys: list[list[F]], max_deg: int) -> bool:
        """Factor in one variable only: must divide every coefficient poly."""
        base = next((p for p in coeff_polys if p), None)
        if base is None:
            return False
        for s in range(1, max_deg + 1):
            if s > len(base) - 1:
                break
            nodes = []
            t = 0
            while len(nodes) < s + 1:
                if _uni_eval(base, F(t)) != 0:
                    nodes.append(t)
                t = next_node(t)
            divisor_lists = [
                _int_divisors_signed(int(_uni_eval(base, F(t)))) for t in nodes
            ]
            found = []

            def fill(idx, chosen):
                if found:
                    return
                if idx == len(nodes):
                    coeffs = _uni_lagrange(list(zip(nodes, map(F, chosen))))
                    if len(coeffs) - 1 != s:
                        return
                    if any(c.denominator != 1 for c in coeffs):
                        return
                    if all(_uni_divides(p, coeffs) for p in coeff_polys if p):
                        found.append(tuple(coeffs))
                    return
                for d in divisor_lists[idx]:
                    if all(
                        (d - chosen[i]) % (nodes[idx] - nodes[i]) == 0
                        for i in range(idx)
                    ):
                        chosen.append(d)
                        fill(idx + 1, chosen)
                        chosen.pop()

            fill(0, [])
            if found:
                return True
        return False

    # factors in y alone divide every x-direction coefficient
    x_coeffs: dict[int, list[F]] = {}
    for (i, j), c in prim.items():
        col = x_coeffs.setdefault(i, [F(0)] * (dy + 1))
        col[j] += c
    cols = []
    for i in range(dx + 1):
        col = x_coeffs.get(i, [])
        while col and col[-1] == 0:
            col.pop()
        cols.append(col)
    if dy >= 1 and single_var_factor_exists(cols, dy):
        return True
    # factors in x alone divide every y-direction coefficient
    y_coeffs: dict[int, list[F]] = {}
    for (i, j), c in prim.items():
        row = y_coeffs.setdefault(j, [F(0)] * (dx + 1))
        row[i] += c
    rows_ = []
    for j in range(dy + 1):
        row = y_coeffs.get(j, [])
        while row and row[-1] == 0:
            row.pop()
        rows_.append(row)
    if dx >= 1 and single_var_factor_exists(rows_, dx):
        return True

    for r in range(1, dx + 1):
        for s in range(1, dy + 1):
            if (r, s) == (dx, dy):
                continue
            ys = []
            t = 0
            while len(ys) < s + 1:
                if slice_in_x(t):
                    ys.append(t)
                t = next_node(t)
            xs = []
            t = 0
            while len(xs) < r + 1:
                if all(value(t, yj) != 0 for yj in ys):
                    xs.append(t)
                t = next_node(t)
            # per-row slice candidates: integer divisor interpolants that
            # divide the row polynomial
            row_cands = []
            for yj in ys:
                row_poly = slice_in_x(yj)
                values = [int(value(xi, yj)) for xi in xs]
                divisor_lists = [_int_divisors_signed(v) for v in values]
                cands = []

                def fill(idx, chosen):
                    if idx == len(xs):
                        coeffs = _uni_lagrange(list(zip(xs, map(F, chosen))))
                        if len(coeffs) - 1 > r:
                            return
                        if any(c.denominator != 1 for c in coeffs):
                            return
                        if _uni_divides(row_poly, coeffs):
                            cands.append(tuple(coeffs))
                        return
                    for d in divisor_lists[idx]:
                        ok = True
                        for prev_i in range(idx):
                            gap = xs[idx] - xs[prev_i]
                            if (d - chosen[prev_i]) % gap != 0:
                                ok = False
                                break
                        if ok:
                            chosen.append(d)
                            fill(idx + 1, chosen)
                            chosen.pop()

                fill(0, [])
                row_cands.append(sorted(set(cands)))
                if not cands:
                    break
            if len(row_cands) < s + 1:
                continue

            import itertools

            for combo in itertools.product(*row_cands):
                cand_terms = {}
                for i in range(r + 1):
                    pts = [
                        (yj, slice_coeffs[i] if i < len(slice_coeffs) else F(0))
                        for yj, slice_coeffs in zip(ys, combo)
                    ]
                    for j, c in enumerate(_uni_lagrange(pts)):
                        if c:
                            cand_terms[(i, j)] = c
                if not cand_terms or set(cand_terms) == {(0, 0)}:
                    continue
                if any(c.denominator != 1 for c in cand_terms.values()):
                    continue
                if _bi_divides_dict(prim, cand_terms):
                    return True
    return False
