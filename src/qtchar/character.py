"""Characters with t-polynomial coefficients over monomials, and the
twisted products between them.

Every character here is normalized: writing a term as
m = top * prod A(i,s)^-v(i,s), its coefficient is t^-tw(m) times the
unnormalized one, where tw(m) = d(v, u(m)) + d(u(top), v) and
d(a, b) = sum of a(i,s+1) b(i,s).  The highest term has coefficient 1.

There is one node-i expansion, and it stays in this convention: the sl2
simple character of m's node-i roots (_node_simple), the twisted product
of the characters of their q-strings in general position, renormalized,
with nonnegative coefficients.  It is built in rank one, as A(1,s)
steps, once per pattern up to translation, and each step stands for
A(i,s)^-1 at whatever node i the pattern sits.  The fixpoint (engine.py)
builds characters from it, so nothing it visits cancels.

star_product twists each term pair by the commutation exponent, so the
raw product of normalized characters has top coefficient t^tw, where tw,
the factors' twist, sums epsilon(top_a, top_b) over the factor pairs in
fold order.  _star_fold alone divides by it: a standard character is the
_star_fold of its fundamentals, with top coefficient 1.
dominant_product gives the l-dominant terms of such a fold from the
factor terms with no level above the highest level of the product's top,
since no other factor term lies under a dominant term of the product.
"""

from __future__ import annotations

from functools import lru_cache
import hashlib
from itertools import combinations
import re

from . import kernels
from .errors import DomainError, NotDominant, ParseError, _integer, _parse_int
from .monomial import (
    EpsilonTable,
    ONE_MONO,
    YMonomial,
    parse_monomial,
    v_factorization,
)
from .roots import LieType, build_lie_type, diagram_automorphisms
from .tpoly import TPoly, parse_tpoly

_ONE = {0: 1}
_SL2 = build_lie_type("A", 1)  # the rank-one type of the node-i simple
_SL2_TABLE = EpsilonTable(_SL2)  # values depend on (node, node, level difference) alone


class DrinfeldPoly:
    """Multiset of per-node spectral roots indexing a module; immutable."""

    __slots__ = ("roots",)

    def __init__(self, roots=()):
        """The multiset of the (i, s) pairs in roots; an entry that is not
        an integer raises DomainError."""
        self.roots = tuple(sorted((_integer(i), _integer(s)) for i, s in roots))

    @classmethod
    def fundamental(cls, i: int, s: int) -> "DrinfeldPoly":
        return cls(((i, s),))

    @classmethod
    def kr(cls, i: int, k: int, s: int) -> "DrinfeldPoly":
        """String of k roots at node i stepping by 2 from s."""
        return cls((i, s + 2 * j) for j in range(k))

    def monomial(self) -> YMonomial:
        return YMonomial((i, s, 1) for i, s in self.roots)

    def shift(self, d: int) -> "DrinfeldPoly":
        return DrinfeldPoly((i, s + d) for i, s in self.roots)

    def relabel(self, p: tuple) -> "DrinfeldPoly":
        """Send every root (i, s) to (p[i-1], s); p permutes the nodes."""
        return DrinfeldPoly((p[i - 1], s) for i, s in self.roots)

    def __mul__(self, other: "DrinfeldPoly") -> "DrinfeldPoly":
        return DrinfeldPoly(self.roots + other.roots)

    def __eq__(self, other):
        return isinstance(other, DrinfeldPoly) and self.roots == other.roots

    def __hash__(self):
        return hash(self.roots)

    def __bool__(self):
        return bool(self.roots)

    def __str__(self):
        if not self.roots:
            return "P()"
        by_node: dict = {}
        for i, s in self.roots:
            by_node.setdefault(i, []).append(s)
        parts = [f"{i}: {' '.join(map(str, ss))}" for i, ss in sorted(by_node.items())]
        return "P(" + "; ".join(parts) + ")"

    __repr__ = __str__


class QtCharacter:
    """Character of a module: highest root datum plus a finite term dict
    mapping monomials to t-polynomial coefficients."""

    __slots__ = ("L", "poly", "terms", "_highest")

    def __init__(self, L: LieType, poly: DrinfeldPoly, terms):
        self.L = L
        self.poly = poly
        self.terms = {m: p for m, p in dict(terms).items() if p}
        self._highest = None

    @classmethod
    def _wrap(cls, L: LieType, poly: DrinfeldPoly, terms: dict) -> "QtCharacter":
        """A character holding terms itself: a dict of its own with no zero
        coefficient, as a run or a map of such a dict gives."""
        ch = object.__new__(cls)
        ch.L, ch.poly, ch.terms, ch._highest = L, poly, terms, None
        return ch

    @property
    def highest(self) -> YMonomial:
        h = self._highest
        if h is None:
            h = self.poly.monomial()
            self._highest = h
        return h

    def coeff(self, m: YMonomial) -> TPoly:
        return self.terms.get(m, TPoly.ZERO)

    def items(self):
        """Terms in canonical monomial order."""
        return sorted(self.terms.items(), key=lambda kv: kv[0].data)

    def dimension(self) -> int:
        return sum(p.at_one() for p in self.terms.values())

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, QtCharacter)
            and self.L == other.L
            and self.poly == other.poly
            and self.terms == other.terms
        )

    def shift(self, d: int) -> "QtCharacter":
        if d == 0:
            return self
        terms = _map_factors(self.terms, lambda i, s, e: (i, s + d, e), ordered=True)
        return QtCharacter._wrap(self.L, self.poly.shift(d), terms)

    def relabel(self, p: tuple) -> "QtCharacter":
        """The character with every node i renamed p[i-1], term by term.
        p must be a diagram automorphism of the type (diagram_automorphisms):
        they preserve the Cartan matrix, which alone fixes the q,t-character,
        so the image of L(P)'s character is L(p(P))'s."""
        if p not in diagram_automorphisms(self.L):
            raise DomainError(f"{p} is not a diagram automorphism of {self.L}")
        if p == diagram_automorphisms(self.L)[0]:
            return self
        terms = _map_factors(self.terms, lambda i, s, e: (p[i - 1], s, e))
        return QtCharacter._wrap(self.L, self.poly.relabel(p), terms)

    def __str__(self):
        lines = [f"{self.L.family}{self.L.rank} character, highest {self.poly}"]
        for m, p in self.items():
            lines.append(f"  {p} : {m}")
        return "\n".join(lines)


# -- term-dict arithmetic ----------------------------------------------------


class _FactorImages(dict):
    """Factor triple (i, s, e) -> image(i, s, e), each computed once."""

    __slots__ = ("image",)

    def __init__(self, image):
        super().__init__()
        self.image = image

    def __missing__(self, f: tuple) -> tuple:
        out = self[f] = self.image(*f)
        return out


def _map_factors(terms: dict, image, ordered: bool = False) -> dict:
    """terms with every factor (i, s, e) of every monomial sent to
    image(i, s, e), coefficients kept; a few hundred distinct factors make
    up thousands of terms, so each is mapped once.  Each image tuple is
    sorted again unless ordered: image keeps the (node, level) order, as a
    translation does.  image must be injective on each monomial's factors."""
    images = _FactorImages(image)
    wrap = YMonomial._wrap
    if ordered:
        return {wrap(tuple([images[f] for f in m.data])): p for m, p in terms.items()}
    return {wrap(tuple(sorted([images[f] for f in m.data]))): p for m, p in terms.items()}


def terms_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, p in b.items():
        q = out.get(m)
        r = p if q is None else q + p
        if r:
            out[m] = r
        else:
            out.pop(m, None)
    return out


# -- expansion at a node ------------------------------------------------------


def _q_strings(ui: tuple) -> list:
    """The levels of ui, (level, multiplicity) pairs, split into q-strings
    in general position, as (lowest level, length) pairs.  Each round takes
    every maximal step-2 run of the remaining support and removes one copy
    of each of its levels, so a later string lies inside an earlier one
    and strings of one parity and one round are at least 4 apart.  Levels
    of different parities never share a string."""
    left = dict(ui)
    out = []
    while left:
        run: list = []
        for s in sorted(left, key=lambda s: (s % 2, s)):
            if run and s != run[-1] + 2:
                out.append((run[0], len(run)))
                run = []
            run.append(s)
        out.append((run[0], len(run)))
        left = {s: u - 1 for s, u in left.items() if u > 1}
    return out


def _string_terms(a: int, k: int) -> list:
    """The k+1 terms of the rank-one character of the q-string of k levels
    from a, as (Y exponents, A exponents) pairs of sorted (level, exponent)
    tuples: term j lowers the string's top j levels, by A(1, a+2k-1) down
    to A(1, a+2k-2j+1)."""
    out = []
    for j in range(k + 1):
        y = [(a + 2 * n, 1) for n in range(k - j)] + [(a + 2 * n, -1) for n in range(k - j + 1, k + 1)]
        v = [(a + 2 * n - 1, 1) for n in range(k - j + 1, k + 1)]
        out.append((tuple(y), tuple(v)))
    return out


def _add_levels(a: tuple, b: tuple) -> tuple:
    """The sum of two sorted (level, exponent) tuples, zeros dropped."""
    if not a:
        return b
    out = dict(a)
    for s, n in b:
        out[s] = out.get(s, 0) + n
    return tuple(sorted(item for item in out.items() if item[1]))


@lru_cache(maxsize=4096)
def _node_simple(ui: tuple) -> tuple:
    """Rows of the sl2 simple character of Y[s]^u_s over the (s, u_s)
    pairs in ui (sorted by level), in rank one: (steps, coefficient, step
    count), steps the sorted (level, count) pairs of the term's A(1,s)
    exponents, so the term is the top times the product of A(1,s)^-count.
    The leading row ((), 1, 0) comes first.  Every coefficient is
    nonnegative, and the step count is the sum of the counts.

    This is the node-i expansion of any i-dominant monomial whose node-i
    factors are Y[i,s]^u_s, for every node i of every type: each A(1,s)
    step becomes A(i,s)^-1 of that type, and nothing else depends on the
    node.  The simple commutes with translation (its twists depend on
    level differences alone), so the rows of ui moved by d are these rows
    with their levels moved by d.  The fixpoint (engine.py) calls it with
    ui translated to least level 0, so that one cached entry serves every
    node, translate and run.  The rows are tuples and TPolys, never
    changed after they are built.

    The roots split into q-strings in general position (_q_strings), and
    the simple is the twisted product of their string characters, each
    term with coefficient 1, folded from t^-tw, tw the twist of the
    strings' tops in fold order, so that its top coefficient is 1.  Levels
    of the two parities live on disjoint variables in rank one, where their
    commutation exponent vanishes, so a pattern that mixes them gets the
    product of its even and odd parts' rows.  A negative exponent in ui
    raises NotDominant."""
    if any(u < 0 for _, u in ui):
        raise NotDominant(f"exponents {ui} are not dominant")
    gen = _SL2_TABLE.gen

    def twist(y1, y2):
        return sum(e * f * gen(1, 1, b - a) for a, e in y1 for b, f in y2)

    strings = [_string_terms(a, k) for a, k in _q_strings(ui)]
    tops = [string[0][0] for string in strings]
    tw = sum(twist(y1, y2) for y1, y2 in combinations(tops, 2))
    # terms by Y exponents: (coefficient, A exponents)
    acc = {(): ({-tw: 1}, ())}
    for string in strings:
        nxt: dict = {}
        for y1, (c1, v1) in acc.items():
            for y2, v2 in string:
                y = _add_levels(y1, y2)
                slot = nxt.get(y)
                if slot is None:
                    slot = nxt[y] = ({}, _add_levels(v1, v2))
                kernels.poly_acc_mul(slot[0], c1, _ONE, twist(y1, y2))
        acc = nxt
    return tuple((v, TPoly._wrap(c), sum(n for _, n in v)) for c, v in acc.values())


# -- products -----------------------------------------------------------------


def _table_of(L: LieType, table: EpsilonTable) -> EpsilonTable:
    """table, checked to be of type L: a table of another type would twist
    by that type's exponents, so it raises DomainError."""
    if table.L != L:
        raise DomainError(f"commutation table of {table.L}, not {L}")
    return table


def star_product(L: LieType, a, b, table: EpsilonTable) -> dict:
    """Term-by-term twisted product; returns a raw term dict.  The result of
    multiplying two normalized characters this way is NOT normalized: its
    top coefficient is t to the commutation exponent of the two tops, not
    1.  Each pair is twisted by the commutation exponent epsilon(m1, m2),
    applied as the right-hand term's functional to the left-hand term's
    exponent vector.  The table must be of type L."""
    d1 = a.terms if isinstance(a, QtCharacter) else a
    d2 = b.terms if isinstance(b, QtCharacter) else b
    tab = _table_of(L, table)
    left = [
        (m.data, p.terms, tuple(((i, s), e) for i, s, e in m.data))
        for m, p in d1.items()
    ]
    keys = {k for _, _, vec in left for k, _ in vec}
    right = [(m.data, p.terms, tab.functional(m, keys)) for m, p in d2.items()]
    mono_mul = kernels.mono_mul
    acc_mul = kernels.poly_acc_mul
    acc: dict = {}
    for dl, cl, vec in left:
        for dr, cr, phi in right:
            tw = 0
            get = phi.get
            for k, x in vec:
                tw += x * get(k, 0)
            key = mono_mul(dl, dr)
            slot = acc.get(key)
            if slot is None:
                slot = acc[key] = {}
            acc_mul(slot, cl, cr, tw)
    return {YMonomial._wrap(k): TPoly._wrap(p) for k, p in acc.items() if p}


def _star_fold(L: LieType, chars, table: EpsilonTable) -> dict:
    """The twisted product of the list of characters chars, folded left to
    right with star_product from t^-tw instead of the unit, tw the factors'
    twist (epsilon(a.highest, b.highest) summed over the pairs a before b),
    so that the product of normalized characters has top coefficient 1.
    A raw term dict; no chars give the unit."""
    tab = _table_of(L, table)
    tw = sum(tab.of(a.highest, b.highest) for a, b in combinations(chars, 2))
    out = {ONE_MONO: TPoly.t_power(-tw)}
    for ch in chars:
        out = star_product(L, out, ch, tab)
    return out


def dominant_product(L: LieType, factors, table: EpsilonTable) -> dict:
    """The l-dominant terms of _star_fold(L, factors, table), with the same
    coefficients, so normalized like it; a raw term dict.  No factors give
    the unit.

    Let H be the highest level of the product's top, the largest level
    among the factors' tops.  A term top * prod A(i,a)^-v whose highest
    A-level a is H or more carries Y[i,a+1]^-v(i,a), which no other A
    factor at a level of at most a touches, so it is not dominant.  A
    product's A-exponents are the sums of its factors' exponents, so a
    dominant term is reached only through factor terms whose A-levels are
    all below H, which are the factor terms with no level above H.  The
    others are dropped before the fold; each window keeps its factor's
    top, and so its twist."""
    H = max((s for f in factors for _, s, _ in f.highest.data), default=0)
    window = [
        QtCharacter(L, f.poly, {m: p for m, p in f.terms.items() if all(s <= H for _, s, _ in m.data)})
        for f in factors
    ]
    return {m: p for m, p in _star_fold(L, window, table).items() if m.is_l_dominant()}


# -- specializations ----------------------------------------------------------


def specialize_t1(ch) -> dict:
    """Coefficients of a character or raw term dict evaluated at t=1;
    returns dict monomial -> int."""
    terms = ch.terms if isinstance(ch, QtCharacter) else ch
    out = {}
    for m, p in terms.items():
        c = p.at_one()
        if c:
            out[m] = c
    return out


class GCharacter:
    """Finite-type character: integer multiplicities on weight-lattice
    points written in fundamental-weight coordinates."""

    __slots__ = ("lie_type", "terms")

    def __init__(self, lie_type: LieType, terms=()):
        self.lie_type = lie_type
        self.terms = {tuple(w): int(c) for w, c in dict(terms).items() if c}
        for w in self.terms:
            if len(w) != lie_type.rank:
                raise DomainError(f"weight {w} has {len(w)} coordinates, but {lie_type} has rank {lie_type.rank}")

    @classmethod
    def one(cls, lie_type: LieType) -> "GCharacter":
        return cls(lie_type, {(0,) * lie_type.rank: 1})

    def coeff(self, w) -> int:
        return self.terms.get(tuple(w), 0)

    def dimension(self) -> int:
        return sum(self.terms.values())

    def _check_type(self, other) -> None:
        """Characters combine only within one Lie type: DomainError otherwise."""
        if not isinstance(other, GCharacter) or other.lie_type != self.lie_type:
            kind = other.lie_type if isinstance(other, GCharacter) else type(other).__name__
            raise DomainError(f"{self.lie_type} character combined with {kind}")

    def __add__(self, other: "GCharacter") -> "GCharacter":
        self._check_type(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return GCharacter(self.lie_type, out)

    def __sub__(self, other: "GCharacter") -> "GCharacter":
        self._check_type(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) - c
        return GCharacter(self.lie_type, out)

    def __mul__(self, other: "GCharacter") -> "GCharacter":
        self._check_type(other)
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                key = tuple(x + y for x, y in zip(w1, w2))
                out[key] = out.get(key, 0) + c1 * c2
        return GCharacter(self.lie_type, out)

    def __eq__(self, other):
        return (
            isinstance(other, GCharacter)
            and self.lie_type == other.lie_type
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for w, c in sorted(self.terms.items()):
            wtxt = "e[" + ",".join(map(str, w)) + "]"
            bits.append(f"{c}*{wtxt}" if c != 1 else wtxt)
        return " + ".join(bits)

    __repr__ = __str__


def restrict_to_g(ch: QtCharacter) -> GCharacter:
    """Forget spectral parameters and set t=1."""
    terms: dict = {}
    for m, p in ch.terms.items():
        w = m.weight(ch.L)
        c = terms.get(w, 0) + p.at_one()
        if c:
            terms[w] = c
        else:
            terms.pop(w, None)
    return GCharacter(ch.L, terms)


def normalized_in_A(ch: QtCharacter, D: int) -> dict:
    """Character re-keyed by each term's v-exponents against the highest
    monomial, truncated to total affinization degree at most D.  Keys are
    sorted tuples of ((node, spectral), exponent)."""
    top = ch.highest
    L = ch.L
    out: dict = {}
    for m, p in ch.terms.items():
        v = v_factorization(L, m, top)
        if sum(v.values()) > D:
            continue
        out[tuple(sorted(v.items()))] = p
    return out


# -- serialization -------------------------------------------------------------

_QTC_HEADER = "# qtc v1"
_TYPE_RE = re.compile(r"^type ([ADE]) (\d+)$")
_P_RE = re.compile(r"^P (\d+):((?: -?\d+)*)$")
_END_RE = re.compile(r"^end (\d+)(?: ([0-9a-f]{64}))?$")
# Prefixed to the text a cache digest covers: a new tag invalidates every
# digest written under the old one.
_CACHE_TAG = b"qtchar cache 1\n"


def _cache_digest(body: bytes) -> str:
    """sha256 of the cache-format tag and the text above a trailer."""
    h = hashlib.sha256(_CACHE_TAG)
    h.update(body)
    return h.hexdigest()


def dumps_qtc(ch: QtCharacter) -> str:
    lines = [_QTC_HEADER, f"type {ch.L.family} {ch.L.rank}"]
    by_node: dict = {}
    for i, s in ch.poly.roots:
        by_node.setdefault(i, []).append(s)
    for i in sorted(by_node):
        lines.append(f"P {i}: " + " ".join(str(s) for s in sorted(by_node[i])))
    texts: dict = {}  # one text per distinct coefficient, keyed by its terms
    for m, p in ch.items():
        key = tuple(p.terms.items())
        text = texts.get(key)
        if text is None:
            text = texts[key] = str(p)
        lines.append(f"term {text} : {m}")
    return "\n".join(lines) + "\n"


def loads_qtc(text: str) -> QtCharacter:
    """Parse qtc text, with or without the trailer `end <N> <digest>` that
    write_qtc adds.  A trailer must match the number of term lines, and
    its digest the text above it; a count alone, `end <N>`, lacks the
    digest and is refused."""
    lines = [ln.rstrip("\n") for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _QTC_HEADER:
        raise ParseError("missing qtc v1 header")
    if len(lines) < 2:
        raise ParseError("missing type line")
    end = _END_RE.match(lines[-1]) if len(lines) > 2 else None
    if end:
        lines.pop()
        if end.group(2) is None:
            raise ParseError(f"count-only trailer {end.group(0)!r} lacks its digest")
        if _cache_digest(text[: text.rstrip().rfind("\n") + 1].encode("utf-8")) != end.group(2):
            raise ParseError("the trailer's digest does not match the text above it")
    mt = _TYPE_RE.match(lines[1])
    if not mt:
        raise ParseError(f"bad type line {lines[1]!r}")
    L = build_lie_type(mt.group(1), _parse_int(mt.group(2)))
    roots = []
    terms: dict = {}
    coeffs: dict = {}  # one TPoly per distinct coefficient text
    for ln in lines[2:]:
        if ln.startswith("P "):
            mp = _P_RE.match(ln)
            if not mp:
                raise ParseError(f"bad root line {ln!r}")
            i = _parse_int(mp.group(1))
            if i not in L.nodes:
                raise ParseError(f"node {i} out of range in {ln!r}")
            roots.extend((i, _parse_int(s)) for s in mp.group(2).split())
        elif ln.startswith("term "):
            body = ln[5:]
            if " : " not in body:
                raise ParseError(f"bad term line {ln!r}")
            ptxt, mtxt = body.split(" : ", 1)
            mono = parse_monomial(mtxt)
            # factors are sorted by node, and parse_monomial refuses nodes below 1
            if mono.data and mono.data[-1][0] > L.rank:
                raise ParseError(f"node out of range in {ln!r}")
            if mono in terms:
                raise ParseError(f"duplicate monomial in {ln!r}")
            terms[mono] = coeffs[ptxt] if ptxt in coeffs else coeffs.setdefault(ptxt, parse_tpoly(ptxt))
        else:
            raise ParseError(f"unrecognized line {ln!r}")
    if end and _parse_int(end.group(1)) != len(terms):
        raise ParseError(f"{len(terms)} term lines, but the trailer says {end.group(1)}")
    return QtCharacter(L, DrinfeldPoly(roots), terms)


def write_qtc(path, ch: QtCharacter) -> None:
    """dumps_qtc text plus the trailer `end <term count> <digest>`, the
    digest of the text above it (_cache_digest), so that read_qtc can tell
    a complete file as written from a cut or edited one."""
    body = dumps_qtc(ch).encode("ascii")
    with open(path, "wb") as fp:
        fp.write(body)
        fp.write(f"end {len(ch.terms)} {_cache_digest(body)}\n".encode("ascii"))


def read_qtc(path) -> QtCharacter:
    """Inverse of write_qtc: the trailer is required, and its digest must
    match; loads_qtc refuses a count-only one."""
    with open(path, "r", encoding="ascii") as fp:
        text = fp.read()
    if not _END_RE.match(text.rstrip().rpartition("\n")[2]):
        raise ParseError(f"{path}: missing end trailer, the file may be cut short")
    return loads_qtc(text)
