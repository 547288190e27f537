"""Characters with t-polynomial coefficients over monomials, and the
twisted products between them.

Every character here is normalized: writing a term as
m = top * prod A(i,s)^-v(i,s), its coefficient is t^-tw(m) times the
unnormalized one, where tw(m) = d(v, u(m)) + d(u(top), v) and
d(a, b) = sum of a(i,s+1) b(i,s).  The highest term has coefficient 1.

There is one node-i expansion, and it stays in this convention: the sl2
simple character of m's node-i roots (_node_simple), the twisted product
of the characters of their q-strings in general position, renormalized,
with nonnegative coefficients.  The fixpoint (engine.py) builds
characters from it, so nothing it visits cancels.

star_product twists each term pair by the commutation exponent, so the
product of two normalized characters has a single power of t as its top
coefficient.  A standard character is the star_product fold of its
fundamentals (_star_fold) divided by that top coefficient.
"""

from __future__ import annotations

from collections import Counter
import re

from . import kernels
from .errors import InternalError, NotDominant, ParseError
from .monomial import (
    EpsilonTable,
    ONE_MONO,
    YMonomial,
    a_monomial,
    parse_monomial,
    v_factorization,
)
from .roots import LieType, build_lie_type
from .tpoly import TPoly, parse_tpoly

_ONE = {0: 1}
_SL2 = build_lie_type("A", 1)  # the rank-one type of the node-i simple


class DrinfeldPoly:
    """Multiset of per-node spectral roots indexing a module; immutable."""

    __slots__ = ("roots",)

    def __init__(self, roots=()):
        self.roots = tuple(sorted((int(i), int(s)) for i, s in roots))

    @classmethod
    def fundamental(cls, i: int, s: int) -> "DrinfeldPoly":
        return cls(((i, s),))

    @classmethod
    def kr(cls, i: int, k: int, s: int) -> "DrinfeldPoly":
        """String of k roots at node i stepping by 2 from s."""
        return cls((i, s + 2 * j) for j in range(k))

    def monomial(self) -> YMonomial:
        c = Counter(self.roots)
        return YMonomial((i, s, e) for (i, s), e in c.items())

    def shift(self, d: int) -> "DrinfeldPoly":
        return DrinfeldPoly((i, s + d) for i, s in self.roots)

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
        return QtCharacter(
            self.L,
            self.poly.shift(d),
            {m.shift(d): p for m, p in self.terms.items()},
        )

    def bar(self) -> "QtCharacter":
        return QtCharacter(self.L, self.poly, {m: p.bar() for m, p in self.terms.items()})

    def validate(self) -> None:
        """Cheap structural sanity: the highest term is present, monic, and
        truly highest (every other monomial factors below it)."""
        top = self.highest
        if self.terms.get(top) != TPoly.ONE:
            raise InternalError("highest term missing or not monic")
        for m in self.terms:
            if m != top:
                v_factorization(self.L, m, top)

    def __str__(self):
        lines = [f"{self.L.family}{self.L.rank} character, highest {self.poly}"]
        for m, p in self.items():
            lines.append(f"  {p} : {m}")
        return "\n".join(lines)


# -- term-dict arithmetic ----------------------------------------------------


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


def terms_scale(a: dict, c: TPoly) -> dict:
    if not c:
        return {}
    return {m: p * c for m, p in a.items()}


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


def _node_simple(L: LieType, i: int, ui: tuple) -> list:
    """Rows of the node-i expansion of any i-dominant monomial whose node-i
    factors are Y[i,s]^u_s for the (s, u_s) pairs in ui (sorted by level),
    by the sl2 simple character of its node-i roots: (data of term / m,
    coefficient, step count), the leading row ((), 1, 0) first.  Other
    nodes' exponents never enter, so the rows can be shared by every
    monomial with the same node-i exponents.

    The roots split into q-strings in general position (_q_strings), and
    the simple is the twisted product of their string characters,
    normalized so that its top coefficient is 1.  A string of k levels has
    k+1 terms, each with coefficient 1: term j lowers the string's top j
    levels.  The product is taken in rank one, keeping each term's
    A(1,s) exponents, which then become A(i,s) exponents of L.  Every
    coefficient is nonnegative.  Levels of the two parities live on
    disjoint variables in rank one, where their commutation exponent
    vanishes, so a pattern that mixes them gets the product of its even
    and odd parts' rows."""
    mono_mul = kernels.mono_mul
    sl2 = EpsilonTable(_SL2)
    # sl2 terms by data: (raw coefficient, A(1,s) exponents as (1, s, count) data)
    acc = {(): ({0: 1}, ())}
    for a, k in _q_strings(ui):
        data = tuple((1, a + 2 * n, 1) for n in range(k))
        v: tuple = ()
        string = [(YMonomial._wrap(data), v)]
        for s in range(a + 2 * k - 1, a, -2):  # lower the highest unlowered level by A(1,s)
            data = mono_mul(data, ((1, s - 1, -1), (1, s + 1, -1)))
            v = mono_mul(v, ((1, s, 1),))
            string.append((YMonomial._wrap(data), v))
        nxt: dict = {}
        for d1, (c1, v1) in acc.items():
            m1 = YMonomial._wrap(d1)
            for m2, v2 in string:
                d = mono_mul(d1, m2.data)
                slot = nxt.get(d)
                if slot is None:
                    slot = nxt[d] = ({}, mono_mul(v1, v2))
                kernels.poly_acc_mul(slot[0], c1, _ONE, sl2.of(m1, m2))
        acc = nxt
    # the product of the tops comes first and carries a single power of t
    (lead,) = acc[tuple((1, s, u) for s, u in ui)][0]
    # term j of a string lowers level l by A(1, l+1)
    a_inv = {s + 1: (a_monomial(L, i, s + 1) ** -1).data for s, _ in ui}
    out = []
    for c, v in acc.values():
        q: tuple = ()
        for _, s, n in v:
            q = mono_mul(q, kernels.mono_pow(a_inv[s], n))
        out.append((q, TPoly._wrap(kernels.poly_scale(c, -lead)), sum(n for _, _, n in v)))
    return out


def _expansion_tail(L: LieType, i: int, m: YMonomial, memo: dict, rows) -> list:
    """Rows of the node-i expansion at an i-dominant m, rows(L, i, node-i
    exponents): a builder that wraps _node_simple's (data of term / m,
    coefficient, step count), where step count is the total affinization
    degree of the term below m, and may add to each row.  The leading row
    is included.  The caller applies the rows to m.

    The rows depend on m only through its node-i exponents, so they are
    built once per (i, node-i exponents) key of memo and reused; the
    caller owns the dict, uses it with one row builder and decides how long
    it lives."""
    ui = tuple((s, u) for j, s, u in m.data if j == i)
    got = memo.get((i, ui))
    if got is None:
        # only i-dominant patterns are ever stored, so a memo hit is one
        if any(u < 0 for _, u in ui):
            raise NotDominant(f"{m} is not {i}-dominant")
        got = memo[(i, ui)] = rows(L, i, ui)
    return got


# -- products -----------------------------------------------------------------


def _pair_loop(groups) -> dict:
    """Sum of c1 * c2 * t^tw over the term pairs of each (left row, right
    rows) group, keyed by the product monomial's data.  Left rows are
    (data, coefficient, sparse vector as ((node, level), value) pairs);
    right rows are (data, coefficient, functional), and the pair's
    exponent tw is the functional applied to the vector."""
    mono_mul = kernels.mono_mul
    acc_mul = kernels.poly_acc_mul
    acc: dict = {}
    for (d1, c1, vec), right in groups:
        for d2, c2, phi in right:
            tw = 0
            get = phi.get
            for k, x in vec:
                tw += x * get(k, 0)
            key = mono_mul(d1, d2)
            slot = acc.get(key)
            if slot is None:
                slot = acc[key] = {}
            acc_mul(slot, c1, c2, tw)
    return acc


def star_product(L: LieType, a, b, table: EpsilonTable | None = None) -> dict:
    """Term-by-term twisted product; returns a raw term dict.  The result of
    multiplying two normalized characters this way is NOT normalized: its
    top coefficient is a power of t, not 1.  Each pair is twisted by the
    commutation exponent epsilon(m1, m2), applied as the right-hand term's
    functional to the left-hand term's exponent vector."""
    d1 = a.terms if isinstance(a, QtCharacter) else a
    d2 = b.terms if isinstance(b, QtCharacter) else b
    tab = table if table is not None else EpsilonTable(L)
    left = [
        (m.data, p.terms, tuple(((i, s), e) for i, s, e in m.data))
        for m, p in d1.items()
    ]
    keys = {k for _, _, vec in left for k, _ in vec}
    right = [(m.data, p.terms, tab.functional(m, keys)) for m, p in d2.items()]
    acc = _pair_loop((row, right) for row in left)
    return {YMonomial._wrap(k): TPoly._wrap(p) for k, p in acc.items() if p}


def _star_fold(L: LieType, chars, table: EpsilonTable) -> dict:
    """The twisted product of chars folded left to right from the unit with
    star_product, a raw term dict: the full counterpart of
    dominant_product."""
    out = {ONE_MONO: TPoly.ONE}
    for ch in chars:
        out = star_product(L, out, ch, table)
    return out


def dominant_product(L: LieType, factors, table: EpsilonTable | None = None) -> dict:
    """The l-dominant terms of the twisted product of factors (characters
    or raw term dicts), folded left to right from the unit as repeated
    star_product calls fold them, with the same coefficients; a raw term
    dict.  No factors give the unit.

    A term of the product is dominant only if every partial product along
    the way has each negative exponent within reach of the largest
    positive exponents the remaining factors hold at that (node, level).
    Partial terms out of reach are dropped at each step, and the
    right-hand partners of a left term are looked up through an index of
    the right factor's terms by their positive factors, so no step visits
    every pair."""
    tab = table if table is not None else EpsilonTable(L)
    dicts = [f.terms if isinstance(f, QtCharacter) else f for f in factors]
    # reach[r]: largest total exponent the factors after r can add per (node, level)
    reach = []
    total: dict = {}
    for d in reversed(dicts):
        reach.append(dict(total))
        best: dict = {}
        for m in d:
            for i, s, e in m.data:
                if e > best.get((i, s), 0):
                    best[(i, s)] = e
        for k, e in best.items():
            total[k] = total.get(k, 0) + e
    partial = {(): {0: 1}}
    for d, after in zip(dicts, reversed(reach)):
        partial = _dominant_step(partial, d, after, tab)
    return {YMonomial._wrap(k): TPoly._wrap(p) for k, p in partial.items()}


def _dominant_step(left: dict, right: dict, after: dict, tab: EpsilonTable) -> dict:
    """One fold step of dominant_product: left maps partial products' data
    to raw coefficients.  Keeps the pairs whose product has each negative
    exponent e at (i, s) with after[(i, s)] >= -e, twisted as star_product
    twists them; returns the nonzero sums by data.

    Sets of right terms are bitmasks over their positions.  A partner of a
    left term m1 must be positive wherever m1 falls short, and m1 must be
    positive at the first place where the partner falls short, if any; the
    two masks narrow the candidates, and each candidate is then checked
    exactly."""
    rows = list(right.items())
    positive: dict = {}  # (node, level) -> right terms with a positive exponent there
    free = 0  # right terms that fall short nowhere
    lacking: dict = {}  # (node, level) -> right terms that first fall short there
    for n, (m, _) in enumerate(rows):
        bit = 1 << n
        short = None
        for i, s, e in m.data:
            if e > 0:
                positive[(i, s)] = positive.get((i, s), 0) | bit
            elif short is None and e + after.get((i, s), 0) < 0:
                short = (i, s)
        if short is None:
            free |= bit
        else:
            lacking[short] = lacking.get(short, 0) | bit

    keys = {(i, s) for d1 in left for i, s, _ in d1}
    built: dict = {}
    mono_mul = kernels.mono_mul
    everyone = (1 << len(rows)) - 1
    groups = []
    for d1, c1 in left.items():
        need, cover = everyone, free
        for i, s, e in d1:
            if e > 0:
                cover |= lacking.get((i, s), 0)
            elif e + after.get((i, s), 0) < 0:
                need &= positive.get((i, s), 0)
        cands = need & cover
        fits = []
        while cands:
            low = cands & -cands
            cands ^= low
            n = low.bit_length() - 1
            m, p = rows[n]
            if all(e >= 0 or e + after.get((i, s), 0) >= 0 for i, s, e in mono_mul(d1, m.data)):
                row = built.get(n)
                if row is None:
                    row = built[n] = (m.data, p.terms, tab.functional(m, keys))
                fits.append(row)
        if fits:
            groups.append(((d1, c1, tuple(((i, s), e) for i, s, e in d1)), fits))
    return {k: p for k, p in _pair_loop(groups).items() if p}


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


def qchar_mul(d1: dict, d2: dict) -> dict:
    """Plain commutative product of t=1 term dicts."""
    out: dict = {}
    for m1, c1 in d1.items():
        for m2, c2 in d2.items():
            key = m1 * m2
            c = out.get(key, 0) + c1 * c2
            if c:
                out[key] = c
            else:
                out.pop(key, None)
    return out


class GCharacter:
    """Finite-type character: integer multiplicities on weight-lattice
    points written in fundamental-weight coordinates."""

    __slots__ = ("lie_type", "terms")

    def __init__(self, lie_type: LieType, terms=()):
        self.lie_type = lie_type
        self.terms = {tuple(w): int(c) for w, c in dict(terms).items() if c}

    @classmethod
    def one(cls, lie_type: LieType) -> "GCharacter":
        return cls(lie_type, {(0,) * lie_type.rank: 1})

    @classmethod
    def from_qt(cls, ch: QtCharacter) -> "GCharacter":
        terms: dict = {}
        for m, p in ch.terms.items():
            w = m.weight(ch.L)
            c = terms.get(w, 0) + p.at_one()
            if c:
                terms[w] = c
            else:
                terms.pop(w, None)
        return cls(ch.L, terms)

    def coeff(self, w) -> int:
        return self.terms.get(tuple(w), 0)

    def dimension(self) -> int:
        return sum(self.terms.values())

    def __add__(self, other: "GCharacter") -> "GCharacter":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return GCharacter(self.lie_type, out)

    def __sub__(self, other: "GCharacter") -> "GCharacter":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) - c
        return GCharacter(self.lie_type, out)

    def __mul__(self, other: "GCharacter") -> "GCharacter":
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                key = tuple(x + y for x, y in zip(w1, w2))
                out[key] = out.get(key, 0) + c1 * c2
        return GCharacter(self.lie_type, out)

    def scaled(self, c: int) -> "GCharacter":
        return GCharacter(self.lie_type, {w: c * v for w, v in self.terms.items()})

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
    return GCharacter.from_qt(ch)


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
_END_RE = re.compile(r"^end (\d+)$")


def dumps_qtc(ch: QtCharacter) -> str:
    lines = [_QTC_HEADER, f"type {ch.L.family} {ch.L.rank}"]
    by_node: dict = {}
    for i, s in ch.poly.roots:
        by_node.setdefault(i, []).append(s)
    for i in sorted(by_node):
        lines.append(f"P {i}: " + " ".join(str(s) for s in sorted(by_node[i])))
    for m, p in ch.items():
        lines.append(f"term {p} : {m}")
    return "\n".join(lines) + "\n"


def loads_qtc(text: str) -> QtCharacter:
    """Parse qtc text.  A last line `end <N>` (the trailer write_qtc adds)
    must match the number of term lines."""
    lines = [ln.rstrip("\n") for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _QTC_HEADER:
        raise ParseError("missing qtc v1 header")
    if len(lines) < 2:
        raise ParseError("missing type line")
    end = _END_RE.match(lines[-1]) if len(lines) > 2 else None
    if end:
        lines.pop()
    mt = _TYPE_RE.match(lines[1])
    if not mt:
        raise ParseError(f"bad type line {lines[1]!r}")
    L = build_lie_type(mt.group(1), int(mt.group(2)))
    roots = []
    terms: dict = {}
    for ln in lines[2:]:
        if ln.startswith("P "):
            mp = _P_RE.match(ln)
            if not mp:
                raise ParseError(f"bad root line {ln!r}")
            i = int(mp.group(1))
            if i not in L.nodes:
                raise ParseError(f"node {i} out of range in {ln!r}")
            roots.extend((i, int(s)) for s in mp.group(2).split())
        elif ln.startswith("term "):
            body = ln[5:]
            if " : " not in body:
                raise ParseError(f"bad term line {ln!r}")
            ptxt, mtxt = body.split(" : ", 1)
            mono = parse_monomial(mtxt)
            if any(i not in L.nodes for i, _, _ in mono.data):
                raise ParseError(f"node out of range in {ln!r}")
            if mono in terms:
                raise ParseError(f"duplicate monomial in {ln!r}")
            terms[mono] = parse_tpoly(ptxt)
        else:
            raise ParseError(f"unrecognized line {ln!r}")
    if end and int(end.group(1)) != len(terms):
        raise ParseError(f"{len(terms)} term lines, but the trailer says {end.group(1)}")
    return QtCharacter(L, DrinfeldPoly(roots), terms)


def write_qtc(path, ch: QtCharacter) -> None:
    """dumps_qtc text plus an `end <term count>` trailer, so that read_qtc
    can tell a complete file from a cut one."""
    with open(path, "w", encoding="ascii") as fp:
        fp.write(dumps_qtc(ch) + f"end {len(ch.terms)}\n")


def read_qtc(path) -> QtCharacter:
    """Inverse of write_qtc: the trailer is required."""
    with open(path, "r", encoding="ascii") as fp:
        text = fp.read()
    if not _END_RE.match(text.rstrip().rpartition("\n")[2]):
        raise ParseError(f"{path}: missing end trailer, the file may be cut short")
    return loads_qtc(text)
