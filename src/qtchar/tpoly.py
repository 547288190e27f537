"""Laurent polynomials in t over the integers, plus the ordinary binomial
coefficients of fermionic sums, in two inequivalent extended conventions."""

from __future__ import annotations

from math import comb, factorial
import re

from . import kernels
from .errors import DomainError, ParseError, _integer, _parse_int

# The extended-binomial conventions of gen_binomial, the default first.
CONVENTIONS = ("gamma", "lusztig")


class TPoly:
    """Immutable sparse Laurent polynomial in t with integer coefficients.
    An exponent or coefficient that is not an integer raises DomainError
    (errors._integer)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        pairs = ((_integer(n), _integer(c)) for n, c in (terms or {}).items())
        self.terms = {n: c for n, c in pairs if c}

    # -- constructors ---------------------------------------------------

    @classmethod
    def t_power(cls, n: int, c: int = 1) -> "TPoly":
        return cls({n: c})

    @classmethod
    def _wrap(cls, terms: dict) -> "TPoly":
        p = object.__new__(cls)
        p.terms = terms
        return p

    # -- ring operations -------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, TPoly):
            return other.terms
        if isinstance(other, int):
            return {0: other} if other else {}
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return TPoly._wrap(kernels.poly_add(self.terms, o))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return TPoly._wrap(kernels.poly_sub(self.terms, o))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return TPoly._wrap(kernels.poly_sub(o, self.terms))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return TPoly._wrap(kernels.poly_mul(self.terms, o))

    __rmul__ = __mul__

    def __neg__(self):
        return TPoly._wrap({n: -c for n, c in self.terms.items()})

    def shifted(self, n: int) -> "TPoly":
        """Multiply by t^n."""
        if n == 0:
            return self
        return TPoly._wrap(kernels.poly_scale(self.terms, n))

    # -- queries ----------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def at_one(self) -> int:
        return sum(self.terms.values())

    def has_nonneg_coeffs(self) -> bool:
        return all(c >= 0 for c in self.terms.values())

    # -- text form ---------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for n in sorted(self.terms):
            c = self.terms[n]
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if n == 0:
                body = str(mag)
            else:
                var = "t" if n == 1 else f"t^{n}"
                body = var if mag == 1 else f"{mag}{var}"
            parts.append(sign + body)
        return "".join(parts)

    __repr__ = __str__


ZERO = TPoly.ZERO = TPoly()
TPoly.ONE = TPoly({0: 1})

_TPOLY_TOKEN = re.compile(r"[+-]?(?:\d+t(?:\^-?\d+)?|t(?:\^-?\d+)?|\d+)")


def parse_tpoly(text: str) -> TPoly:
    s = text.strip().replace(" ", "")
    if not s:
        raise ParseError("empty coefficient")
    if s == "0":
        return ZERO
    pos = 0
    terms: dict = {}
    while pos < len(s):
        m = _TPOLY_TOKEN.match(s, pos)
        if not m:
            raise ParseError(f"bad coefficient {text!r} at offset {pos}")
        tok = m.group(0)
        pos = m.end()
        sign = 1
        if tok[0] in "+-":
            if tok[0] == "-":
                sign = -1
            tok = tok[1:]
        if "t" in tok:
            coef_s, _, exp_s = tok.partition("t")
            coef = _parse_int(coef_s) if coef_s else 1
            exp = _parse_int(exp_s[1:]) if exp_s else 1
        else:
            coef = _parse_int(tok)
            exp = 0
        terms[exp] = terms.get(exp, 0) + sign * coef
    return TPoly(terms)


def gen_binomial(a: int, b: int, convention: str = "gamma") -> int:
    """Binomial coefficient extended to arbitrary integer top.

    gamma: the falling-factorial form a(a-1)...(a-b+1)/b!, which is the
    Gamma-function limit and may be negative for a < 0.
    lusztig: zero unless 0 <= b <= a.
    """
    if convention not in CONVENTIONS:
        raise DomainError(f"unknown binomial convention {convention!r}")
    if b < 0:
        return 0
    if convention == "lusztig":
        return comb(a, b) if a >= b else 0
    if a >= 0:
        return comb(a, b)
    num = 1
    for j in range(b):
        num *= a - j
    return num // factorial(b)
