"""Fixpoint construction of characters and their simple-module
decomposition.

The core routine grows a character downward from its highest monomial,
one monomial per heap pop in order of affinization depth.  At each
monomial the coefficient is pinned by the colors for which the monomial
is not dominant (they admit no expansion rooted there, so the already
accumulated contributions must be the whole coefficient); every color
for which it is dominant then gets a correcting expansion whose tail is
pushed further down.  Contributions only ever flow to strictly deeper
monomials, so a single sweep is a fixpoint.  Expansions carry normalized
coefficients, so the pinned values are the character's final ones.

Each expansion at node i is the sl2 simple character of m's node-i roots
(_node_simple), as in the Frenkel-Mukhin algorithm (arXiv math/9911112;
t-version in Hernandez, arXiv math/0212257).  The restriction of a
module to node i decomposes over those simples with nonnegative
coefficients, so nothing the run visits cancels: it pops exactly the
terms of the character (9,885 for D4 KR(2,4)).  The sl2 standard rows
span the same space but carry signs, and would visit four times as many
monomials there.

An element of K_t is fixed by its coefficients at its dominant
monomials (Hernandez, math/0212257), and the run builds it from them:
each pinned monomial waits in the heap at its depth, and when popped, an
interior monomial dominant for every color takes its pin.  One that has
no pin but has accumulated a nonzero coefficient raises
InconsistentExpansion.  By default the top alone is pinned, to 1, so a
module with one dominant monomial (every KR module, by the paper's
theorem) is built exactly and a second dominant monomial fails loudly.
The same fact decides K_t membership (in_span_all_nodes): a character
that the run pinned to its dominant terms rebuilds lies in K_t.

An expansion at node i depends on m only through m's node-i exponents,
and a run meets few distinct ones (279 for D4 KR(2,4), against 8,796
expansions).  Each run therefore keeps one memo of expansion rows keyed
by (i, node-i exponents); it lives as long as the run.  The run keys its
monomials by one packed integer (_level_key), additive under products,
and each memoized row carries the key of its offset, so applying a row
costs one integer add (39,540 rows for D4 KR(2,4)).  A monomial's factor
tuple is merged once, when it is first pushed (9,885 times), for its
negative colors, its node-i exponents and the output.  The key is exact
because every term lies in a fixed level window, [min_s, max_s + h] of
the top (h the Coxeter number), and its exponents are bounded by its
depth, which the guard below bounds; a row that leaves the window raises
InternalError.

Every visited weight lies in the convex hull of the Weyl orbit of the
top weight, and the lowest weight w0 wt occurs in every module, so a
genuine run reaches depth height(wt - w0 wt) exactly.  A run deeper than
twice that (plus slack), or one that stops short of it, can only come
from a wrong expansion, and raises InternalError.

The triangular decomposition reads standards only at their dominant
monomials, so it never builds them: dominant_product over the
fundamentals gives each standard's dominant part
(Engine._standard_dominant), and from those come the closure of root
data and the matrices c, z and l.  Each simple is then built from its
l-row.  A string's is its string character, and its row must be the
diagonal, as the paper's theorem says.  A root datum of two bipartite
classes is the product of its halves' simples.  Any other is one run
pinned to the row.  Every term keeps its factors in the bipartite
classes of the top (_colouring), so a run rejects a node-i level of
another parity; a top of both classes, as the membership check meets
them, keeps both parities.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
import heapq
import itertools
import os

from . import kernels
from .character import (
    DrinfeldPoly,
    QtCharacter,
    _expansion_tail,
    _node_simple,
    _star_fold,
    dominant_product,
    read_qtc,
    star_product,
    write_qtc,
)
from .errors import (
    DomainError,
    InconsistentExpansion,
    InternalError,
    NotComparable,
    QtcharError,
)
from .monomial import ONE_MONO, EpsilonTable, YMonomial, v_factorization
from .roots import LieType, two_rho
from .tpoly import TPoly


def _form(rho2: tuple, m: YMonomial) -> int:
    """The two_rho form on m's weight: twice its height."""
    return sum(rho2[i - 1] * e for i, _, e in m.data)


def _colouring(L: LieType) -> dict:
    """A 2-colouring of the Dynkin diagram, node -> 0 or 1.  The root (i, s)
    and the factor Y[i, s] lie in the bipartite class s + colour(i) mod 2;
    every factor of A(i, s) lies in the class of Y[i, s+1], so a term
    below a top keeps its factors in the top's classes."""
    colour = {1: 0}
    work = [1]
    while work:
        i = work.pop()
        for j in L.neighbors(i):
            if j not in colour:
                colour[j] = 1 - colour[i]
                work.append(j)
    return colour


def _level_key(lo: int, hi: int, limit: int):
    """Packed integer key of monomials whose levels lie in [lo, hi] and
    whose exponents stay within +-limit: each factor Y[i,s]^e adds e in a
    balanced base-2^w digit at slot (i-1)*W + (s-lo), W = hi - lo + 1.  The
    key is additive, key(m*q) = key(m) + key(q), and with 2^(w-1) > limit
    every digit is below half the base, so distinct monomials get distinct
    keys.  A factor outside the window raises InternalError."""
    width = hi - lo + 1
    w = limit.bit_length() + 1

    def key(data: tuple) -> int:
        out = 0
        for i, s, e in data:
            if not lo <= s <= hi:
                raise InternalError(f"expansion left the level window [{lo}, {hi}] at Y[{i},{s}]")
            out += e << (w * ((i - 1) * width + s - lo))
        return out

    return key


def _fixpoint(L: LieType, poly: DrinfeldPoly, pins: dict | None = None) -> QtCharacter:
    """The element of K_t with highest monomial poly.monomial() whose
    l-dominant coefficients are pins ({monomial: TPoly}); by default the
    top alone, with coefficient 1.  The top may be pinned to any nonzero
    coefficient."""
    top = poly.monomial()
    if pins is None:
        pins = {top: TPoly.ONE}
    if not pins.get(top):
        raise InternalError(f"the top {top} must be pinned to a nonzero coefficient")
    nodes = list(L.nodes)
    # every visited weight lies in the convex hull of the top weight's Weyl
    # orbit, so no genuine run goes deeper than height(wt - w0 wt), where the
    # lowest weight sits; twice that plus slack stops a wrong expansion
    # before it fills memory
    lowest = _form(two_rho(L), top)
    bound = 2 * lowest + 4 * L.coxeter_number + 16
    # Monomials are keyed by _level_key.  Every term of the module is top
    # times A(i,a)^-1 factors with min_s < a < max_s + h, so its levels lie
    # in the window below, and a row that leaves it fails when it is built.
    # Rows are products of deg factors A^-1, each moving any exponent by at
    # most 1, so a monomial at depth d <= bound has exponents within
    # max|u_top| + bound: the key is exact as long as the depth is checked
    # before the key is looked up.
    levels = [s for _, s, _ in top.data] or [0]
    key = _level_key(
        min(levels),
        max(levels) + L.coxeter_number,
        max((abs(e) for _, _, e in top.data), default=0) + bound,
    )

    colour = _colouring(L)
    classes = {(s + colour[i]) % 2 for i, s, _ in top.data}

    def keyed_rows(L, i, ui):
        # every term keeps its factors in the top's bipartite classes, so a
        # node-i level of another parity can only come from a wrong expansion
        if any((s + colour[i]) % 2 not in classes for s, _ in ui):
            raise InternalError(f"node-{i} exponents {ui} leave the level parities of the top's classes")
        return [(q, key(q), p, deg) for q, p, deg in _node_simple(L, i, ui)]

    mono: dict = {}
    expected = {i: {} for i in nodes}
    depth: dict = {}
    # contributions only flow to deeper monomials, so the order within one
    # depth is free and an insertion counter breaks ties
    tick = itertools.count()
    heap = []
    # each pinned monomial waits in the heap at its depth, whether or not an
    # expansion reaches it
    pinned: dict = {}
    for m, p in pins.items():
        if not m.is_l_dominant():
            raise InternalError(f"pin at {m}, which is not dominant")
        try:
            d = sum(v_factorization(L, m, top).values()) if m != top else 0
        except NotComparable:
            raise InternalError(f"pin at {m}, which is not below the top {top}") from None
        if d > bound:
            raise InternalError(f"pin at {m}, at depth {d} past the bound {bound}")
        k = key(m.data)
        pinned[k] = dict(p.terms)
        mono[k] = m
        depth[k] = d
        heapq.heappush(heap, (d, next(tick), k))
    coeffs: dict = {}
    memo: dict = {}  # node-i expansion rows per (i, node-i exponents), this run only
    while heap:
        d, _, k = heapq.heappop(heap)
        m = mono[k]
        # colors for which m is not dominant
        neg = {j for j, _, e in m.data if e < 0}
        a = None
        for i in nodes:
            if i not in neg:
                continue
            val = expected[i].get(k, {})
            if a is None:
                a = val
            elif val != a:
                raise InconsistentExpansion(f"colors disagree at {m}: {val} vs {a}")
        if a is None:
            # dominant for every color: the top or an interior monomial,
            # which must be pinned once anything has reached it
            a = pinned.get(k)
            if a is None:
                if any(expected[i].get(k) for i in nodes):
                    raise InconsistentExpansion(f"interior dominant monomial {m} reached")
                a = {}
        if a:
            coeffs[k] = a
        for i in nodes:
            if i in neg:
                continue
            combo = kernels.poly_sub(a, expected[i].pop(k, {}))
            if not combo:
                continue
            for q, kq, p, deg in _expansion_tail(L, i, m, memo, rows=keyed_rows):
                if deg == 0:
                    continue
                dd = d + deg
                if dd > bound:
                    raise InternalError(f"expansion reached depth {dd} past the bound {bound}")
                kk = k + kq
                seen = depth.get(kk)
                if seen is None:
                    depth[kk] = dd
                    mono[kk] = YMonomial._wrap(kernels.mono_mul(m.data, q))
                    heapq.heappush(heap, (dd, next(tick), kk))
                elif seen != dd:
                    raise InternalError(f"depth mismatch at {mono[kk]}: {seen} vs {dd}")
                slot = expected[i].get(kk)
                if slot is None:
                    expected[i][kk] = slot = {}
                kernels.poly_acc_mul(slot, combo, p.terms, 0)
    # a run that stops above the lowest weight lost a branch of expansions
    deepest = max(depth.values())
    if deepest != lowest:
        raise InternalError(
            f"expansion stopped at depth {deepest}, but the lowest weight sits at depth {lowest}"
        )
    return QtCharacter(L, poly, {mono[k]: TPoly._wrap(a) for k, a in coeffs.items()})


def in_span_all_nodes(ch: QtCharacter) -> bool:
    """Whether ch lies in K_t, the intersection over the nodes i of the
    span of the node-i expansions.  An element of K_t is fixed by its
    coefficients at its l-dominant monomials, so ch is accepted when the
    run pinned to those terms rebuilds it, and only then.

    A missing top or a dominant term not below the top gives False.  So
    does a run that reaches a dominant monomial ch lacks, which a member
    with cancelling coefficients could do; a False only sends a check to
    its full sides."""
    top = ch.highest
    pins = {m: p for m, p in ch.terms.items() if m.is_l_dominant()}
    if top not in pins:
        return False
    try:
        for m in pins:
            v_factorization(ch.L, m, top)
        return _fixpoint(ch.L, ch.poly, pins).terms == ch.terms
    except (NotComparable, InconsistentExpansion):
        return False


@dataclass
class KLResult:
    """Triangular decomposition data for one standard character.

    factors lists (root datum, multiplicity of its simple inside the
    input standard), the input itself first with multiplicity 1.  order
    lists the closure of root data from shallowest (the input) to
    deepest; c, z, l are matrices over that order, keyed by index pairs.
    c rows are the standards at the dominant monomials, read from their
    dominant parts alone; z rows give multiplicities of simples inside
    standards, l rows are the simple characters evaluated at dominant
    monomials.  simples holds the simple character of every root datum
    in order."""

    standard: DrinfeldPoly
    factors: list
    simples: dict
    lie_type: LieType
    order: tuple
    c: dict
    z: dict
    l: dict

    def multiplicity(self, sub: DrinfeldPoly) -> TPoly:
        try:
            j = self.order.index(sub)
        except ValueError:
            return TPoly.ZERO
        return self.z.get((0, j), TPoly.ZERO)


def _top_normalized(terms: dict, top: YMonomial) -> dict:
    """terms divided by their coefficient at top, which must be a single
    power of t."""
    lead = terms.get(top, TPoly.ZERO).terms
    if len(lead) != 1 or 1 not in lead.values():
        raise InternalError(f"top coefficient {terms.get(top)} at {top} is not a power of t")
    (e,) = lead
    return {m: p.shifted(-e) for m, p in terms.items()} if e else terms


def _fold_order(poly: DrinfeldPoly) -> list:
    """The roots of poly in ascending spectral order, the order in which
    standard_char and _standard_dominant fold their fundamentals.  The
    twisted product does not commute, so both must use this one order."""
    return sorted(poly.roots, key=lambda r: (r[1], r[0]))


def _string_of(poly: DrinfeldPoly):
    """(i, k, s) when poly is the string DrinfeldPoly.kr(i, k, s), k >= 1;
    otherwise None."""
    if not poly.roots:
        return None
    i, s = poly.roots[0]
    k = len(poly.roots)
    return (i, k, s) if poly == DrinfeldPoly.kr(i, k, s) else None


def _class_halves(L: LieType, poly: DrinfeldPoly) -> list:
    """The nonempty parts of poly by bipartite class: the root (i, s) lies
    in class s + colour(i) mod 2 (_colouring).  Characters of the two classes live on disjoint
    variables, and the commutation exponent between them vanishes."""
    colour = _colouring(L)
    halves: tuple = ([], [])
    for i, s in poly.roots:
        halves[(s + colour[i]) % 2].append((i, s))
    return [DrinfeldPoly(h) for h in halves if h]


def _mono_poly(m: YMonomial) -> DrinfeldPoly:
    """The root datum whose monomial is the dominant m."""
    return DrinfeldPoly((i, s) for i, s, e in m.data for _ in range(e))


def _l_row(order: tuple, l: dict, ai: int) -> dict:
    """Row ai of l as {dominant monomial: coefficient}."""
    return {order[ci].monomial(): p for (a, ci), p in l.items() if a == ai}


class Engine:
    """Computes and caches characters for one type.

    Base characters are computed at spectral shift 0 and translated on
    request.  If cache_dir is set, base characters are also stored as qtc
    files (written atomically, re-read on later runs)."""

    def __init__(self, L: LieType, cache_dir: str | None = None):
        self.L = L
        self.cache_dir = cache_dir
        self._base: dict = {}
        self._standard: dict = {}
        self._kl: dict = {}
        self._dominant: dict = {}
        self._triangles: dict = {}
        self._simples: dict = {}
        self._table = EpsilonTable(L)
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)

    # -- cache plumbing -----------------------------------------------------

    def _cache_path(self, stem: str) -> str:
        name = f"{self.L.family}{self.L.rank}_{stem}.qtc"
        return os.path.join(self.cache_dir, name)

    def _cached(self, stem: str, poly: DrinfeldPoly):
        """Base character of poly, from memory, the disk cache or a fixpoint
        run.  A disk entry counts only if it holds this type and root datum;
        anything else is recomputed and rewritten."""
        ch = self._base.get(stem)
        if ch is not None:
            return ch
        if self.cache_dir:
            path = self._cache_path(stem)
            if os.path.exists(path):
                try:
                    ch = read_qtc(path)
                    if ch.L == self.L and ch.poly == poly:
                        self._base[stem] = ch
                        return ch
                except (OSError, UnicodeDecodeError, QtcharError):
                    pass  # unreadable cache entry: recompute and rewrite
        ch = _fixpoint(self.L, poly)
        self._base[stem] = ch
        if self.cache_dir:
            path = self._cache_path(stem)
            tmp = f"{path}.tmp.{os.getpid()}"
            try:
                write_qtc(tmp, ch)
                os.replace(tmp, path)
            except BaseException:
                # leave no partial file behind, whatever stopped the write
                with contextlib.suppress(OSError):
                    os.remove(tmp)
                raise
        return ch

    # -- module characters ----------------------------------------------------

    def _check_node(self, i: int) -> None:
        if i not in self.L.nodes:
            raise DomainError(f"node {i} out of range for {self.L.family}{self.L.rank}")

    def fundamental_char(self, i: int, s: int = 0) -> QtCharacter:
        self._check_node(i)
        base = self._cached(f"fund_{i}", DrinfeldPoly.fundamental(i, 0))
        return base.shift(s)

    def kr_char_direct(self, i: int, k: int, s: int = 0) -> QtCharacter:
        """Character of the length-k string module at node i starting at s,
        computed by its own fixpoint run rather than through the triangular
        decomposition."""
        self._check_node(i)
        if k < 0:
            raise DomainError("string length must be nonnegative")
        if k == 0:
            return QtCharacter(self.L, DrinfeldPoly(), {ONE_MONO: TPoly.ONE})
        if k == 1:
            return self.fundamental_char(i, s)
        base = self._cached(f"kr_{i}_{k}", DrinfeldPoly.kr(i, k, 0))
        return base.shift(s)

    def standard_char(self, poly: DrinfeldPoly) -> QtCharacter:
        """Character of the product module: the twisted product of its
        fundamentals, folded in _fold_order from the unit (_star_fold),
        divided by its top coefficient, a single power of t.  The empty
        root datum gives the unit."""
        got = self._standard.get(poly.roots)
        if got is None:
            factors = [self.fundamental_char(i, s) for i, s in _fold_order(poly)]
            terms = _top_normalized(_star_fold(self.L, factors, self._table), poly.monomial())
            got = self._standard[poly.roots] = QtCharacter(self.L, poly, terms)
        return got

    # -- triangular decomposition ----------------------------------------------

    def _standard_dominant(self, poly: DrinfeldPoly) -> dict:
        """The l-dominant terms of standard_char(poly), without building
        it: the same fold of the same fundamentals through
        dominant_product, divided by the same top coefficient."""
        got = self._dominant.get(poly.roots)
        if got is None:
            factors = [self.fundamental_char(i, s) for i, s in _fold_order(poly)]
            raw = dominant_product(self.L, factors, self._table)
            got = self._dominant[poly.roots] = _top_normalized(raw, poly.monomial())
        return got

    def _triangle(self, poly: DrinfeldPoly) -> tuple:
        """(order, c, z, l) of poly's standard, from the standards'
        dominant parts alone; memoized."""
        got = self._triangles.get(poly.roots)
        if got is not None:
            return got

        # closure of root data under taking dominant monomials of standards
        seen = {poly}
        work = [poly]
        while work:
            for m in self._standard_dominant(work.pop()):
                q2 = _mono_poly(m)
                if q2 not in seen:
                    seen.add(q2)
                    work.append(q2)

        # the two_rho form falls by twice the depth below the top
        rho2 = two_rho(self.L)
        order = tuple(sorted(seen, key=lambda q: (-_form(rho2, q.monomial()), q.roots)))
        n = len(order)
        monos = [q.monomial() for q in order]

        c: dict = {}
        for ai, qa in enumerate(order):
            terms = self._standard_dominant(qa)
            for bi in range(ai, n):
                val = terms.get(monos[bi])
                if val:
                    c[(ai, bi)] = val

        # deepest rows first: the middle terms of each interval sum live in
        # strictly deeper rows, which must exist before this row is split
        z: dict = {}
        lw: dict = {}
        for ai in range(n - 1, -1, -1):
            z[(ai, ai)] = TPoly.ONE
            lw[(ai, ai)] = TPoly.ONE
            for ci in range(ai + 1, n):
                f = c.get((ai, ci), TPoly.ZERO)
                for bi in range(ai + 1, ci):
                    zab = z.get((ai, bi))
                    lbc = lw.get((bi, ci))
                    if zab and lbc:
                        f = f - zab * lbc
                sym = {}
                zz = {}
                if 0 in f.terms:
                    sym[0] = f.terms[0]
                for lev in {abs(e) for e in f.terms if e != 0}:
                    fp = f.terms.get(lev, 0)
                    fm = f.terms.get(-lev, 0)
                    if fp:
                        sym[lev] = fp
                        sym[-lev] = fp
                    if fm != fp:
                        zz[-lev] = fm - fp
                lpoly = TPoly._wrap({e: cf for e, cf in sym.items() if cf})
                zpoly = TPoly._wrap(zz)
                if not zpoly.has_nonneg_coeffs() or not lpoly.has_nonneg_coeffs():
                    raise InternalError(
                        f"negative multiplicity between {order[ai]} and {order[ci]}"
                    )
                if f != lpoly + zpoly:
                    raise InternalError("triangular split failed")
                if zpoly:
                    z[(ai, ci)] = zpoly
                if lpoly:
                    lw[(ai, ci)] = lpoly

        got = self._triangles[poly.roots] = (order, c, z, lw)
        return got

    def _simple(self, poly: DrinfeldPoly, row: dict) -> QtCharacter:
        """The simple character of poly from its l-row, {dominant monomial:
        l(poly, m)}; memoized.  A string takes its character from the
        engine, and its row must hold the diagonal alone (the paper's
        theorem).  A root datum of two bipartite classes is the product of
        its halves' simples, which must match the row.  Any other root
        datum is one fixpoint run pinned to the row."""
        got = self._simples.get(poly.roots)
        if got is not None:
            return got
        L = self.L
        top = poly.monomial()
        string = _string_of(poly)
        halves = _class_halves(L, poly)
        if string:
            if row != {top: TPoly.ONE}:
                raise InternalError(f"the l-row of the string {poly} holds more than its diagonal")
            ch = self.kr_char_direct(*string)
        elif len(halves) == 2:
            terms = _top_normalized(
                star_product(L, *(self.simple_char(h) for h in halves), self._table), top
            )
            if {m: p for m, p in terms.items() if m.is_l_dominant()} != row:
                raise InternalError(f"the product of the classes of {poly} differs from its l-row")
            ch = QtCharacter(L, poly, terms)
        else:
            ch = _fixpoint(L, poly, row)
        self._simples[poly.roots] = ch
        return ch

    def kl_decompose(self, poly: DrinfeldPoly) -> KLResult:
        got = self._kl.get(poly.roots)
        if got is not None:
            return got
        order, c, z, l = self._triangle(poly)
        simples = {q: self._simple(q, _l_row(order, l, ai)) for ai, q in enumerate(order)}
        factors = [(order[bi], z[(0, bi)]) for bi in range(len(order)) if (0, bi) in z]
        res = KLResult(poly, factors, simples, self.L, order, c, z, l)
        self._kl[poly.roots] = res
        return res

    def simple_char(self, poly: DrinfeldPoly) -> QtCharacter:
        """The simple character of poly alone: row 0 of its own triangle."""
        got = self._simples.get(poly.roots)
        if got is None:
            order, _, _, l = self._triangle(poly)
            got = self._simple(poly, _l_row(order, l, 0))
        return got


_DEFAULT_ENGINES: dict = {}


def default_engine(L: LieType) -> Engine:
    """Shared per-type memory-only engine behind the module-level helpers."""
    key = (L.family, L.rank)
    eng = _DEFAULT_ENGINES.get(key)
    if eng is None:
        eng = _DEFAULT_ENGINES[key] = Engine(L)
    return eng


def fundamental_char(L: LieType, i: int, s: int = 0, engine: Engine | None = None) -> QtCharacter:
    return (engine or default_engine(L)).fundamental_char(i, s)


def kr_char_direct(L: LieType, i: int, k: int, s: int = 0, engine: Engine | None = None) -> QtCharacter:
    return (engine or default_engine(L)).kr_char_direct(i, k, s)


def standard_char(L: LieType, poly: DrinfeldPoly, engine: Engine | None = None) -> QtCharacter:
    return (engine or default_engine(L)).standard_char(poly)


def kl_decompose(L: LieType, poly: DrinfeldPoly, engine: Engine | None = None) -> KLResult:
    return (engine or default_engine(L)).kl_decompose(poly)


def simple_char(L: LieType, poly: DrinfeldPoly, engine: Engine | None = None) -> QtCharacter:
    return (engine or default_engine(L)).simple_char(poly)
