"""Text and JSON wire formats for polynomials.

Text input is a sum of terms joined by `+` or `-`, the first optionally
signed. A term is a product of coefficients `n` or `n/d` and factors `x^e`
or `y^e` (`^e` optional); `*` between factors is optional, whitespace may
sit between any two tokens, coefficients multiply and exponents add, so
`2 x x^2 y` is 2 x^3 y. Emitters always produce the canonical graded-lex
ordering (x ahead of y), so formatted output is stable and re-parseable.
"""

from __future__ import annotations

import json
import math
import os
import re
from fractions import Fraction

from .poly import BiPoly, UniPoly, grlex_key

# one item of a term sum: a sign, a `*`, a coefficient n or n/d, or x or y
# with an optional ^e, each after optional whitespace
_ITEM = re.compile(r"\s*(?:([+-])|\*|(\d+)(?:\s*/\s*(\d+))?|([xy])(?:\s*\^\s*(\d+))?)")


class PolyParseError(ValueError):
    pass


def parse_poly(text: str) -> BiPoly:
    """Parse the flat term-sum syntax into a bivariate polynomial."""
    text = text.strip()
    if not text:
        raise PolyParseError("empty polynomial text")
    terms = []
    sign, num, den, i, j, factor = 1, 1, 1, 0, 0, False
    pos = 0
    while pos < len(text):
        m = _ITEM.match(text, pos)
        if m is None:
            raise PolyParseError(f"unexpected text {text[pos:].lstrip()!r}")
        op, n, d, var, e = m.groups()
        if op:
            # a sign opens the text or closes a term that has a factor
            if factor:
                terms.append(((i, j), Fraction(sign * num, den)))
                num, den, i, j, factor = 1, 1, 0, 0, False
            elif pos:
                raise PolyParseError("empty term")
            sign = -1 if op == "-" else 1
        elif n:
            if d and not int(d):
                raise PolyParseError("zero denominator")
            num, den, factor = num * int(n), den * int(d or 1), True
        elif var:
            exp = int(e or 1)
            i, j = (i + exp, j) if var == "x" else (i, j + exp)
            factor = True
        pos = m.end()
    if not factor:
        raise PolyParseError("empty term")
    terms.append(((i, j), Fraction(sign * num, den)))
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


def _reduced_terms(f: BiPoly):
    """(monomial, num, den) for each term of f, graded-lex descending, with
    num / den its coefficient in lowest terms: one gcd against f.d."""
    d = f.d
    for key in sorted(f.n, key=grlex_key, reverse=True):
        v = f.n[key]
        g = math.gcd(v, d)
        yield key, v // g, d // g


def poly_to_json(f: BiPoly) -> dict:
    """Structured form with terms in canonical graded-lex order."""
    return {"terms": [{"i": i, "j": j, "num": num, "den": den} for (i, j), num, den in _reduced_terms(f)]}


def _format_monomial(i: int, j: int) -> str:
    parts = []
    if i:
        parts.append("x" if i == 1 else f"x^{i}")
    if j:
        parts.append("y" if j == 1 else f"y^{j}")
    return " ".join(parts)


def format_bipoly(f: BiPoly) -> str:
    """Canonical text rendering, graded-lex descending; "0" for zero."""
    pieces = []
    for key, num, den in _reduced_terms(f):
        mono = _format_monomial(*key)
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        if not mono:
            body = mag
        elif mag == "1":
            body = mono
        else:
            body = f"{mag} {mono}"
        if pieces:
            body = f"+ {body}" if num > 0 else f"- {body}"
        elif num < 0:
            body = f"-{body}"
        pieces.append(body)
    return " ".join(pieces) or "0"


def format_unipoly(p: UniPoly, var: str = "x") -> str:
    text = format_bipoly(p.to_bipoly("x"))
    return text if var == "x" else text.replace("x", var)


def _parse_text(text: str) -> BiPoly:
    return poly_from_json(text) if text.startswith("{") else parse_poly(text)


def load_poly(source: str) -> BiPoly:
    """Parse polynomial text or a JSON object string; only a source that
    parses as neither and names a file is read as the path to either."""
    text = source.strip()
    if not text:
        raise PolyParseError("empty polynomial source")
    try:
        return _parse_text(text)
    except ValueError:
        if not os.path.isfile(text):
            raise
    with open(text, "r", encoding="utf-8") as fh:
        return _parse_text(fh.read().strip())
