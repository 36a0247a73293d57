"""Text and JSON wire formats for polynomials.

Text input is a sum of terms `c x^i y^j` with rational coefficients like
`-3/2`; whitespace is insignificant, `*` is optional, and juxtaposition such
as `x^2y` is accepted. Emitters always produce the canonical graded-lex
ordering (x ahead of y), so formatted output is stable and re-parseable.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .poly import BiPoly, UniPoly, grlex_key

_TOKEN = re.compile(r"\s*(\d+|[xy]|\^|\*|/|\+|-)")


class PolyParseError(ValueError):
    pass


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    n = len(text)
    while pos < n:
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            break
        m = _TOKEN.match(text, pos)
        if not m:
            raise PolyParseError(f"unexpected character at {text[pos:pos + 8]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_poly(text: str) -> BiPoly:
    """Parse the flat term-sum syntax into a bivariate polynomial."""
    toks = _tokenize(text)
    if not toks:
        raise PolyParseError("empty polynomial text")
    pos = 0
    terms: list[tuple[tuple[int, int], Fraction]] = []

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        t = toks[pos]
        pos += 1
        return t

    def read_number() -> Fraction:
        num = int(take())
        if peek() == "/":
            take()
            if not (peek() or "").isdigit():
                raise PolyParseError("expected denominator after '/'")
            den = int(take())
            if den == 0:
                raise PolyParseError("zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def read_term() -> tuple[tuple[int, int], Fraction]:
        coeff = Fraction(1)
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
                raise PolyParseError("'/' outside a coefficient")
            if t == "^":
                raise PolyParseError("'^' without a base")
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
                    raise PolyParseError("expected exponent after '^'")
                exp = int(take())
            if var == "x":
                i += exp
            else:
                j += exp
            saw_factor = True
        if not saw_factor:
            raise PolyParseError("empty term")
        return (i, j), coeff

    sign = Fraction(1)
    if peek() in ("+", "-"):
        sign = Fraction(-1) if take() == "-" else Fraction(1)
    key, c = read_term()
    terms.append((key, sign * c))
    while peek() is not None:
        op = take()
        if op not in ("+", "-"):
            raise PolyParseError(f"expected '+' or '-', got {op!r}")
        sign = Fraction(-1) if op == "-" else Fraction(1)
        key, c = read_term()
        terms.append((key, sign * c))
    return BiPoly(terms)


def poly_from_json(data) -> BiPoly:
    """Parse the structured form {"terms": [{"i":..,"j":..,"num":..,"den":..}]}."""
    if isinstance(data, str):
        data = json.loads(data)
    entries = data.get("terms") if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise PolyParseError("expected an object with a 'terms' list")
    terms = []
    for entry in entries:
        fields = entry if isinstance(entry, dict) else {}
        i, j, num, den = fields.get("i"), fields.get("j"), fields.get("num"), fields.get("den", 1)
        if any(type(v) is not int for v in (i, j, num, den)):
            raise PolyParseError(f"term {entry!r} needs integers i, j, num and optionally den")
        if den == 0:
            raise PolyParseError("zero denominator in term")
        terms.append(((i, j), Fraction(num, den)))
    return BiPoly(terms)


def poly_to_json(f: BiPoly) -> dict:
    """Structured form with terms in canonical graded-lex order."""
    terms = []
    for (i, j) in sorted(f.t, key=grlex_key, reverse=True):
        c = f.t[(i, j)]
        terms.append({"i": i, "j": j, "num": c.numerator, "den": c.denominator})
    return {"terms": terms}


def _format_coeff(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _format_monomial(i: int, j: int) -> str:
    parts = []
    if i:
        parts.append("x" if i == 1 else f"x^{i}")
    if j:
        parts.append("y" if j == 1 else f"y^{j}")
    return " ".join(parts)


def format_bipoly(f: BiPoly) -> str:
    """Canonical text rendering, graded-lex descending."""
    if f.is_zero:
        return "0"
    pieces = []
    for (i, j) in sorted(f.t, key=grlex_key, reverse=True):
        c = f.t[(i, j)]
        mono = _format_monomial(i, j)
        mag = abs(c)
        if not mono:
            body = _format_coeff(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{_format_coeff(mag)} {mono}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


def format_unipoly(p: UniPoly, var: str = "x") -> str:
    f = p.to_bipoly("x")
    text = format_bipoly(f)
    return text if var == "x" else text.replace("x", var)


def load_poly(source: str) -> BiPoly:
    """Parse polynomial text, a JSON object string, or a file path to either."""
    text = source.strip()
    if not text:
        raise PolyParseError("empty polynomial source")
    import os

    if os.path.exists(text) and os.path.isfile(text):
        with open(text, "r", encoding="utf-8") as fh:
            text = fh.read().strip()
    if text.startswith("{"):
        return poly_from_json(text)
    return parse_poly(text)
