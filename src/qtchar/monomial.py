"""Loop-weight monomials on a single spectral lattice, and the commutation
exponent that drives every twisted product.

A monomial is a finite product of variables Y[i,s]^e with i a node and s an
integer spectral exponent.  All modules here live on one lattice, so (i, s)
pairs are the whole story.  Beside the monomial type:

* v_factorization writes m = m_ref * prod A(i,s)^-v(i,s) when possible;
* tilde_u solves the lattice recursion whose boundary data is the exponent
  map of a monomial (support can be infinite to the right, so a ceiling is
  always supplied);
* EpsilonTable is the commutation exponent epsilon(m1, m2), the library's
  only one, read from tilde_u of single variables.
"""

from __future__ import annotations

from functools import lru_cache
import re

from . import kernels
from .errors import NotComparable, ParseError, _integer, _parse_int
from .roots import LieType


def _merged(factors) -> tuple:
    """Monomial data from ((i, s), e) pairs: the exponents of a repeated
    (i, s) add, zero exponents drop, and the factors sort by (i, s)."""
    exps: dict = {}
    for key, e in factors:
        exps[key] = exps.get(key, 0) + e
    return tuple(sorted([(i, s, e) for (i, s), e in exps.items() if e]))


class YMonomial:
    """Immutable sparse monomial; factors sorted by (node, shift)."""

    __slots__ = ("data", "_hash")

    def __init__(self, data=()):
        """The product of the factors Y[i,s]^e over the (i, s, e) in data:
        repeated (i, s) pairs add their exponents, and a zero exponent
        drops the factor.  An entry that is not an integer raises
        DomainError."""
        self.data = _merged(((_integer(i), _integer(s)), _integer(e)) for i, s, e in data)
        self._hash = hash(self.data)

    @classmethod
    def _wrap(cls, data: tuple) -> "YMonomial":
        m = object.__new__(cls)
        m.data = data
        m._hash = hash(data)
        return m

    @classmethod
    def var(cls, i: int, s: int, e: int = 1) -> "YMonomial":
        return cls(((i, s, e),))

    # -- group operations --------------------------------------------------

    def __mul__(self, other: "YMonomial") -> "YMonomial":
        return YMonomial._wrap(kernels.mono_mul(self.data, other.data))

    def __pow__(self, n: int) -> "YMonomial":
        return YMonomial._wrap(kernels.mono_pow(self.data, n))

    def shift(self, d: int) -> "YMonomial":
        """Translate every spectral exponent by d."""
        if d == 0:
            return self
        return YMonomial._wrap(tuple([(i, s + d, e) for i, s, e in self.data]))

    def relabel(self, p: tuple) -> "YMonomial":
        """Send every factor Y[i,s] to Y[p[i-1],s]; p permutes the nodes."""
        return YMonomial._wrap(tuple(sorted((p[i - 1], s, e) for i, s, e in self.data)))

    # -- queries -----------------------------------------------------------

    def u_map(self) -> dict:
        return {(i, s): e for i, s, e in self.data}

    def is_l_dominant(self) -> bool:
        return all(e >= 0 for _, _, e in self.data)

    def min_s(self):
        return min((s for _, s, _ in self.data), default=None)

    def max_s(self):
        return max((s for _, s, _ in self.data), default=None)

    def weight(self, L: LieType) -> tuple:
        w = [0] * L.rank
        for i, _, e in self.data:
            w[i - 1] += e
        return tuple(w)

    def __eq__(self, other):
        return isinstance(other, YMonomial) and self.data == other.data

    def __lt__(self, other: "YMonomial"):
        return self.data < other.data

    def __hash__(self):
        return self._hash

    def __str__(self):
        return " ".join(map(_format_factor, self.data)) if self.data else "1"

    __repr__ = __str__


ONE_MONO = YMonomial(())

_FACTOR_RE = re.compile(r"^Y\[(-?\d+),(-?\d+)\](?:\^(-?\d+))?$")


# Few distinct factors recur thousands of times in a file: each is formatted and parsed once.
@lru_cache(maxsize=4096)
def _format_factor(f: tuple) -> str:
    i, s, e = f
    return f"Y[{i},{s}]" if e == 1 else f"Y[{i},{s}]^{e}"


@lru_cache(maxsize=4096)
def _parse_factor(tok: str) -> tuple:
    m = _FACTOR_RE.match(tok)
    if not m:
        raise ParseError(f"bad monomial factor {tok!r}")
    i = _parse_int(m.group(1))
    if i < 1:
        raise ParseError(f"node index must be positive in {tok!r}")
    return (i, _parse_int(m.group(2))), _parse_int(m.group(3) or "1")


def parse_monomial(text: str) -> YMonomial:
    s = text.strip()
    if s == "1":
        return ONE_MONO
    return YMonomial._wrap(_merged(map(_parse_factor, s.split())))


def a_monomial(L: LieType, i: int, s: int) -> YMonomial:
    """The simple affinization A(i,s) = Y[i,s+1] Y[i,s-1] prod_j Y[j,s]^a_ij."""
    factors = [(i, s + 1, 1), (i, s - 1, 1)]
    factors.extend((j, s, -1) for j in L.neighbors(i))
    return YMonomial(factors)


def v_factorization(L: LieType, m: YMonomial, m_ref: YMonomial) -> dict:
    """Nonnegative exponents v with m = m_ref * prod A(i,s)^-v[(i,s)].

    The exponent equations are solved from the top spectral level downward:
    the level-c equation determines the level-(c-1) values from the two
    levels above it.  A valid solution has finite support, and the
    homogeneous tail of the recursion oscillates (the Dynkin adjacency
    spectrum lies strictly inside (-2, 2)), so a surviving nonzero tail is
    guaranteed to go negative within a bounded number of levels; running a
    Coxeter-number margin below the data and demanding the state die out is
    therefore a complete comparability test.
    """
    delta = (m * m_ref**-1).u_map()
    if not delta:
        return {}
    levels = [s for (_, s) in delta]
    c_top, c_bot = max(levels), min(levels)
    nodes = list(L.nodes)
    nbrs = {i: L.neighbors(i) for i in nodes}
    v: dict = {}
    cur = {i: 0 for i in nodes}   # values at level c
    up = {i: 0 for i in nodes}    # values at level c + 1
    floor = c_bot - (6 * L.coxeter_number + 12)
    c = c_top
    while c >= floor:
        nxt = {}
        for i in nodes:
            val = -delta.get((i, c), 0) - up[i] + sum(cur[j] for j in nbrs[i])
            if val < 0:
                raise NotComparable(f"{m} is not below {m_ref}")
            nxt[i] = val
            if val:
                v[(i, c - 1)] = val
        if c < c_bot and not any(cur.values()) and not any(nxt.values()):
            return v
        up, cur = cur, nxt
        c -= 1
    raise NotComparable(f"{m} is not below {m_ref}")


def tilde_u(L: LieType, m: YMonomial, s_max: int) -> dict:
    """Solution of u[i,s] = tu[i,s-1] + tu[i,s+1] - sum_j tu[j,s] vanishing far
    left, returned for spectral levels <= s_max (support may be infinite)."""
    lo = m.min_s()
    if lo is None or s_max <= lo:
        return {}
    u = m.u_map()
    nodes = list(L.nodes)
    nbrs = {i: L.neighbors(i) for i in nodes}
    out: dict = {}
    below = {i: 0 for i in nodes}  # values at level s - 1
    at = {i: 0 for i in nodes}     # values at level s
    for s in range(lo, s_max):
        nxt = {}
        for i in nodes:
            val = u.get((i, s), 0) - below[i] + sum(at[j] for j in nbrs[i])
            nxt[i] = val
            if val:
                out[(i, s + 1)] = val
        below, at = at, nxt
    return out


class EpsilonTable:
    """Commutation exponents evaluated through a cached table of
    variable-vs-variable values.

    epsilon is biadditive in the exponent vectors and invariant under a
    common spectral translation, so it is determined by its values on pairs
    of single variables, and those depend only on (node, node, spectral
    difference).  of() is the single-pair definition.  For pairing all
    terms of one character against all terms of another, functional() turns
    each right-hand term m2 into the linear form phi(m2) on exponent
    vectors, so that epsilon(m1, m2) = sum of e * phi(m2)[(i, a)] over the
    factors Y[i,a]^e of m1: one lookup per factor of m1 instead of one table
    value per factor pair.  This is the twist of the quantum torus in which
    the products are taken.
    """

    __slots__ = ("L", "_gen", "_ut")

    def __init__(self, L: LieType):
        self.L = L
        self._gen = {}
        self._ut = {}

    def _tilde(self, j: int, upto: int) -> dict:
        got = self._ut.get(j)
        if got is None or got[0] < upto:
            ut = tilde_u(self.L, YMonomial.var(j, 0), upto)
            self._ut[j] = (upto, ut)
            return ut
        return got[1]

    def gen(self, i: int, j: int, delta: int) -> int:
        key = (i, j, delta)
        val = self._gen.get(key)
        if val is None:
            upto = abs(delta) + 1
            val = (self._tilde(i, upto).get((j, delta - 1), 0)
                   - self._tilde(j, upto).get((i, -1 - delta), 0))
            self._gen[key] = val
        return val

    def of(self, m1: YMonomial, m2: YMonomial) -> int:
        gen = self.gen
        total = 0
        for i, a, e in m1.data:
            for j, b, f in m2.data:
                total += e * f * gen(i, j, b - a)
        return total

    def functional(self, m2: YMonomial, keys) -> dict:
        """phi(m2)[(i, a)] = sum of f * gen(i, j, b - a) over the factors
        Y[j,b]^f of m2, for the (node, level) pairs in keys, zeros dropped."""
        gen = self.gen
        phi = {}
        for i, a in keys:
            x = 0
            for j, b, f in m2.data:
                x += f * gen(i, j, b - a)
            if x:
                phi[(i, a)] = x
        return phi
