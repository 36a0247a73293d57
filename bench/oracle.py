"""Independent arithmetic for building benchmark inputs and checking outputs.

Nothing here imports sumprod. Polynomials are plain dicts {(i, j): Fraction}
with no zero coefficients; products are dict convolutions, evaluation is term
by term, and CLI text is read back with a small parser of its own. A check
built on these helpers cannot share a bug with the arithmetic it checks.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

Poly = dict  # {(i, j): Fraction}, zero coefficients never stored

X: Poly = {(1, 0): Fraction(1)}
Y: Poly = {(0, 1): Fraction(1)}


def poly(*terms: tuple[int, int, int]) -> Poly:
    """Build a polynomial from (i, j, coeff) triples."""
    out: Poly = {}
    for i, j, c in terms:
        out = add(out, {(i, j): Fraction(c)})
    return out


def add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for k, v in b.items():
        nv = out.get(k, Fraction(0)) + v
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
    return out


def scale(a: Poly, c) -> Poly:
    c = Fraction(c)
    return {k: v * c for k, v in a.items()} if c else {}


def mul(a: Poly, b: Poly) -> Poly:
    """Dict-of-terms convolution."""
    out: Poly = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, Fraction(0)) + c1 * c2
    return {k: v for k, v in out.items() if v}


def power(a: Poly, n: int) -> Poly:
    out: Poly = {(0, 0): Fraction(1)}
    for _ in range(n):
        out = mul(out, a)
    return out


def compose(outer: list, inner: Poly) -> Poly:
    """outer(inner) for outer given as ascending coefficients in t."""
    acc: Poly = {}
    for c in reversed(outer):
        acc = add(mul(acc, inner), {(0, 0): Fraction(c)} if c else {})
    return acc


def swap(a: Poly) -> Poly:
    return {(j, i): v for (i, j), v in a.items()}


def total_degree(a: Poly) -> int:
    return max(i + j for i, j in a)


def evaluate(a: Poly, x, y) -> Fraction:
    return sum((c * x**i * y**j for (i, j), c in a.items()), Fraction(0))


def translate_row(a: Poly, shift, b) -> tuple[Fraction, ...]:
    """Ascending coefficients of x -> a(x - shift, b), by binomial expansion."""
    coeffs: dict[int, Fraction] = {}
    for (i, j), c in a.items():
        cb = c * Fraction(b) ** j
        binom = 1
        for m in range(i + 1):
            # (x - shift)^i contributes C(i, m) x^m (-shift)^(i - m)
            coeffs[m] = coeffs.get(m, Fraction(0)) + cb * binom * (-Fraction(shift)) ** (i - m)
            binom = binom * (i - m) // (m + 1)
    top = max((m for m, v in coeffs.items() if v), default=-1)
    return tuple(coeffs.get(m, Fraction(0)) for m in range(top + 1))


def eval_row(coeffs: tuple[Fraction, ...], s) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


# ---------------------------------------------------------------------------
# text


def _coeff_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def format_poly(a: Poly) -> str:
    """Render in the CLI's input syntax, graded order, highest degree first."""
    if not a:
        return "0"
    out = []
    for (i, j) in sorted(a, key=lambda k: (k[0] + k[1], k[0]), reverse=True):
        c = a[(i, j)]
        mono = " ".join(
            p for p in ("" if not i else "x" if i == 1 else f"x^{i}",
                        "" if not j else "y" if j == 1 else f"y^{j}") if p
        )
        mag = abs(c)
        body = _coeff_text(mag) if not mono else mono if mag == 1 else f"{_coeff_text(mag)} {mono}"
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(out)


_TERM = re.compile(r"^(-?)(\d+(?:/\d+)?)?\s*((?:[xyt](?:\^\d+)?\s*)*)$")
_FACTOR = re.compile(r"([xyt])(?:\^(\d+))?")


def parse_poly(text: str) -> Poly:
    """Read a sum of terms 'c x^i y^j' as printed by the CLI.

    The variable t, used for outer polynomials, reads as x.
    """
    text = text.strip()
    if text == "0":
        return {}
    out: Poly = {}
    for term in text.replace(" - ", " + -").split(" + "):
        m = _TERM.match(term.strip())
        if not m:
            raise ValueError(f"cannot read term {term!r} of {text!r}")
        sign, coeff, monos = m.groups()
        c = Fraction(coeff) if coeff else Fraction(1)
        i = j = 0
        for var, exp in _FACTOR.findall(monos):
            e = int(exp) if exp else 1
            if var == "y":
                j += e
            else:
                i += e
        out = add(out, {(i, j): -c if sign else c})
    return out


def outer_coeffs(text: str) -> list[Fraction]:
    """Ascending coefficients of a univariate polynomial printed in t."""
    p = parse_poly(text)
    if any(j for _, j in p):
        raise ValueError(f"{text!r} is not univariate")
    deg = max((i for i, _ in p), default=0)
    return [p.get((d, 0), Fraction(0)) for d in range(deg + 1)]


# ---------------------------------------------------------------------------
# sets


def progression(n: int, start, step) -> list[Fraction]:
    return [Fraction(start) + Fraction(step) * k for k in range(n)]


def geometric(n: int, first, ratio) -> list[Fraction]:
    return sorted(Fraction(first) * Fraction(ratio) ** k for k in range(n))


def random_ints(n: int, lo: int, hi: int, seed: int) -> list[Fraction]:
    """The documented RandomInt(n, lo, hi, seed) draw: n distinct integers."""
    return sorted(Fraction(v) for v in random.Random(seed).sample(range(lo, hi + 1), n))
