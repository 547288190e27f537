"""Laurent polynomials in t over the integers, plus the binomial coefficients
used by character expansions (balanced Gaussian) and fermionic sums (ordinary,
in two inequivalent extended conventions)."""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial
import re

from . import kernels
from .errors import DomainError, ParseError


class TPoly:
    """Immutable sparse Laurent polynomial in t with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        self.terms = {n: c for n, c in terms.items() if c}

    # -- constructors ---------------------------------------------------

    @classmethod
    def const(cls, c: int) -> "TPoly":
        return cls({0: c}) if c else cls()

    @classmethod
    def t_power(cls, n: int, c: int = 1) -> "TPoly":
        return cls({n: c}) if c else cls()

    @classmethod
    def _wrap(cls, terms: dict) -> "TPoly":
        p = object.__new__(cls)
        object.__setattr__(p, "terms", terms)
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

    def bar(self) -> "TPoly":
        """The involution t -> t^-1."""
        return TPoly._wrap({-n: c for n, c in self.terms.items()})

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

    def is_bar_symmetric(self) -> bool:
        return all(self.terms.get(-n) == c for n, c in self.terms.items())

    def has_nonneg_coeffs(self) -> bool:
        return all(c >= 0 for c in self.terms.values())

    def only_negative_powers(self) -> bool:
        return all(n < 0 for n in self.terms)

    def coeff(self, n: int) -> int:
        return self.terms.get(n, 0)

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
ONE = TPoly.ONE = TPoly({0: 1})

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
            coef = int(coef_s) if coef_s else 1
            exp = int(exp_s[1:]) if exp_s else 1
        else:
            coef = int(tok)
            exp = 0
        terms[exp] = terms.get(exp, 0) + sign * coef
    return TPoly(terms)


@lru_cache(maxsize=None)
def _gauss_binomial(n: int, r: int) -> tuple:
    """Coefficients of the q-binomial [n r] as a tuple indexed by q-degree."""
    if r in (0, n):
        return (1,)
    prev = _gauss_binomial(n - 1, r - 1)
    shifted = _gauss_binomial(n - 1, r)
    out = [0] * (r * (n - r) + 1)
    for d, c in enumerate(prev):
        out[d] += c
    for d, c in enumerate(shifted):
        out[d + r] += c
    return tuple(out)


def t_binomial(n: int, r: int) -> TPoly:
    """Balanced Gaussian binomial, invariant under t -> t^-1.

    Equal to t^(-r(n-r)) times the ordinary q-binomial evaluated at q = t^2,
    so its exponents run over -r(n-r), -r(n-r)+2, ..., r(n-r).
    """
    if not (0 <= r <= n):
        raise DomainError(f"t_binomial({n}, {r}) undefined")
    center = r * (n - r)
    coeffs = _gauss_binomial(n, r)
    return TPoly._wrap({2 * d - center: c for d, c in enumerate(coeffs) if c})


def gen_binomial(a: int, b: int, convention: str = "gamma") -> int:
    """Binomial coefficient extended to arbitrary integer top.

    gamma: the falling-factorial form a(a-1)...(a-b+1)/b!, which is the
    Gamma-function limit and may be negative for a < 0.
    lusztig: zero unless 0 <= b <= a.
    """
    if convention not in ("gamma", "lusztig"):
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
