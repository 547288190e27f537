"""Fixpoint construction of characters and their simple-module
decomposition.

The core routine grows a character downward from its highest monomial,
one level of affinization depth at a time.  At each monomial the
coefficient is fixed by the colors for which the monomial is not
dominant (they admit no expansion rooted there, so the accumulated
contributions must be the whole coefficient); every color for which it
is dominant then gets a correcting expansion whose tail lands deeper.
Contributions only ever flow to strictly deeper monomials, so one list
per level is a complete schedule and a single sweep is a fixpoint.
Expansions carry normalized coefficients, so the fixed values are final.

Each expansion at node i is the sl2 simple character of m's node-i roots
(_node_simple), as in the Frenkel-Mukhin algorithm (arXiv math/9911112;
t-version in Hernandez, arXiv math/0212257).  The restriction of a
module to node i decomposes over those simples with nonnegative
coefficients, so nothing the run visits cancels: it visits exactly the
terms of the character (9,885 for D4 KR(2,4)).  The sl2 standard rows
span the same space but carry signs, and would visit four times as many
monomials there.

An element of K_t is fixed by its coefficients at its dominant
monomials (Hernandez, math/0212257), and the run builds it from them:
each pin seeds its coefficient and waits in the level of its depth, and
an interior monomial dominant for every color keeps its pin.  One that
has no pin but has accumulated a nonzero coefficient raises
InconsistentExpansion.  By default the top alone has a pin, 1, so a
module with one dominant monomial (every KR module, by the paper's
theorem) is built exactly and a second dominant monomial fails loudly.

A completed run lies in K_t by construction: at each monomial and each
node i, the coefficient is what the node-i expansions above it sent
there, topped up by one rooted there where the monomial is i-dominant,
so the output is a combination of node-i rows for every i.  That holds
for runs with one pin or many alike, so every character the engine hands
out is a member: a run, a run completed by the duality D below, its
shifts, the unit, a standard (K_t is closed under the twisted product),
or a disk-cache entry whose digest shows it is a run's output as written
(write_qtc).  The verifiers rely on this and check membership nowhere.

The duality D: Y[i,s]^e -> Y[i*, c-s]^-e, where w0(omega_i) =
-omega_{i*} (roots.dual_nodes), sends the character of L(P) to that of
L(P^v), coefficients included.  Frenkel-Mukhin (arXiv math/9911112) give
the lowest monomial of L(P) as the product of Y[i*, s+h]^-1 over P's
roots (i, s), and D swaps it with the top of L(P^v); with c = h + lo +
hi, lo and hi the least and greatest level of P, P^v is P with its levels
reflected in [lo, hi] (_dual_of).  D sends A(i,a) to A(i*, c-a)^-1, so a
term at depth d goes to depth N - d, N the depth of the lowest weight.
Every string has P^v = P, and so do many other root data.  The engine
runs such a root datum to depth ceil(N/2) only (_fixpoint's depth cap)
and reflects the terms shallower than N - ceil(N/2) onto the deeper ones
(_self_dual), and a simple whose dual's simple is built already, up to
translation, is that simple's D-image.  Membership then rests on D as
well, and every result of it is checked at run time.  A self-dual run's
terms at the middle depths d, N - ceil(N/2) <= d <= ceil(N/2), must be
the D-image of its terms at depth N - d.  A D-image of a built simple
must have exactly the l-row it is asked for.  A failed check raises
InternalError.  An l-dominant monomial lies at most N/2 deep (its weight
has nonnegative height), so every pin lies within the cap and no
reflected term is dominant.

An expansion at node i depends on m only through m's node-i exponents,
and only up to translation and the node: it is the rank-one sl2 simple
of those exponents with each A(1,s) step read as A(i,s)^-1.  So
_node_simple builds rank-one rows, (A-level, count) pairs with a
coefficient, once per pattern translated to least level 0, in a bounded
cache that every node, translate and run shares.  A run applies them
through its own memo keyed by (i, node-i exponents), which maps each
row to the run's packed offset, the sum of count * offset(A(i, lo+s)^-1)
with lo the pattern's least level.  The self-dual run of D4 KR(2,4)
makes 4,815 expansions, meets 211 node patterns and builds 77 rank-one
tables for them, from 21 per-level A^-1 offsets; the D4 KR(2,3)
decomposition's 7 runs meet 379 patterns in 46 tables.  Inside the run
a monomial is one packed integer and nothing else (_LevelKey): each
exponent is a biased digit, node i's digits form one block read by a
shift and a mask, and applying a row costs one integer add (18,006 rows
for D4 KR(2,4)).  The block is the memo key, and its digits' top bits
say whether m is i-dominant, so the run builds no factor tuple while it
expands.  Each term's tuple is decoded once, for the output, from its
node blocks, each distinct block once.  The key is exact because every
term lies in a fixed level window, [min_s, max_s + h] of the top (h the
Coxeter number), and its exponents are bounded by its depth, which the
guard below bounds, so no digit carries into the next.  The factors of
A^-1's at one node never cancel, so a row leaves the window exactly
when one of its A^-1 does, and that A^-1's offset raises InternalError
when it is built.

A monomial's depth is half the drop of the two_rho form (roots.two_rho).
Each A^-1's form is checked to be -2 when its offset is built, and each
row's step count to be its count sum when the run first maps it, so
every path reaches a monomial at one depth.  Every
visited weight lies in the convex hull of the Weyl orbit of the top
weight, and the lowest weight w0 wt occurs in every module, so a genuine
run reaches depth height(wt - w0 wt) exactly.  A run deeper than twice
that (plus slack), or one that stops short of it, can only come from a
wrong expansion, and raises InternalError.  A run capped at a depth must
reach the cap, or the lowest weight if that is shallower.

The triangular decomposition reads standards only at their dominant
monomials, so it never builds them: dominant_product folds the
fundamentals' terms with no level above the standard's highest level,
which gives each standard's dominant part (Engine._standard_dominant),
and from those come the closure of root data and the matrices c, z and
l.  Each simple is then built from its l-row.  A string's is its string
character, and its row must be the diagonal, as the paper's theorem
says.  Any other is the D-image of its dual's simple when that is built,
and otherwise one run with the row as its pins, completed by D when the
root datum is self-dual.  Every term keeps
its factors in the bipartite classes of the top (_colouring), so a run
rejects a node-i level of another parity; a top of both classes keeps
both parities.

A diagram automorphism p (roots.diagram_automorphisms) preserves the
Cartan matrix, and the Cartan matrix alone fixes the node rows, the
commutation exponents and so every character: p sends the character of
L(P) term by term to that of L(p(P)), coefficients included.  So the
engine runs a root datum only at its canonical image, the
lexicographically least p(P) (_canonical), and relabels on request, as it
runs strings at shift 0 and translates.  A fundamental or string is run,
read and stored once per orbit of its node (fund_1 serves D4 nodes 1, 3
and 4), and a non-string simple is one run at its canonical image with
its pins relabelled alike.  _fixpoint knows nothing of this, nor of D.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
import os

from . import kernels
from .character import (
    DrinfeldPoly,
    QtCharacter,
    _map_factors,
    _node_simple,
    _star_fold,
    dominant_product,
    read_qtc,
    write_qtc,
)
from .errors import (
    DomainError,
    InconsistentExpansion,
    InternalError,
    NotComparable,
    QtcharError,
)
from .monomial import ONE_MONO, EpsilonTable, YMonomial, a_monomial, v_factorization
from .roots import LieType, diagram_automorphisms, dual_nodes, two_rho
from .tpoly import TPoly


def _form(rho2: tuple, data: tuple) -> int:
    """The two_rho form on the weight of factor tuple data: twice its height."""
    return sum(rho2[i - 1] * e for i, _, e in data)


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


class _LevelKey:
    """The packed integer keys of one run (_fixpoint): monomials on nodes
    1..rank whose levels lie in [lo, hi] and whose exponents stay within
    +-limit.  Each factor Y[i,s]^e owns the w-bit digit at slot
    (i-1)*W + (s-lo), W = hi - lo + 1, and 2^(w-1) > limit.

    A row's offset stores each exponent e as is, so offsets add:
    offset(q*r) = offset(q) + offset(r).  A monomial's key stores it
    biased, as the digit e + 2^(w-1); the bias is the key of the monomial
    1.  So key(m*q) = key(m) + offset(q), and while every exponent of m*q
    stays within +-limit no digit carries into the next, so distinct
    monomials get distinct keys.  Node i's W digits form one block,
    (k >> shifts[i-1]) & mask, and the monomial is i-dominant exactly when
    every digit of the block has its top bit set, block & high == high;
    the node-i exponents are all 0 exactly when block == high.  decode
    reads a key back into its factor tuple, in node order and so sorted,
    and decodes each distinct (i, block) once.  A factor outside the
    window raises InternalError."""

    def __init__(self, rank: int, lo: int, hi: int, limit: int):
        self.lo, self.hi = lo, hi
        self.w = w = limit.bit_length() + 1
        self.bits = bits = w * (hi - lo + 1)  # of one node's block
        self.mask = (1 << bits) - 1
        self.high = sum(1 << (j + w - 1) for j in range(0, bits, w))
        self.shifts = [bits * i for i in range(rank)]
        self.bias = sum(self.high << shift for shift in self.shifts)
        # per node: (node, its block's shift, {block: its factor triples})
        self._nodes = [(i, shift, {}) for i, shift in enumerate(self.shifts, 1)]

    def offset(self, data: tuple) -> int:
        lo, hi, w, bits = self.lo, self.hi, self.w, self.bits
        out = 0
        for i, s, e in data:
            if not lo <= s <= hi:
                raise InternalError(f"expansion left the level window [{lo}, {hi}] at Y[{i},{s}]")
            out += e << ((i - 1) * bits + w * (s - lo))
        return out

    def key(self, data: tuple) -> int:
        return self.bias + self.offset(data)

    def pattern(self, block: int) -> tuple:
        """The (level, exponent) pairs of the nonzero digits of block."""
        w, half = self.w, 1 << (self.w - 1)
        digit = (1 << w) - 1
        out = []
        for s in range(self.lo, self.hi + 1):
            u = (block & digit) - half
            if u:
                out.append((s, u))
            block >>= w
        return tuple(out)

    def decode(self, k: int) -> tuple:
        """The factor tuple of the monomial with key k."""
        mask, high = self.mask, self.high
        out: tuple = ()
        for i, shift, memo in self._nodes:
            block = (k >> shift) & mask
            if block != high:
                got = memo.get(block)
                if got is None:
                    got = memo[block] = tuple((i, s, u) for s, u in self.pattern(block))
                out += got
        return out


def _expansion_tail(L: LieType, i: int, block: int, memo: dict, rows) -> list:
    """The node-i expansion rows at a term whose node-i block (_LevelKey)
    is block: rows(L, i, block), built once per (i, block) key of memo and
    then reused, since the rows depend on the term only through its node-i
    exponents.  The caller owns memo, uses it with one row builder and
    decides how long it lives.  The run looks this name up at each call,
    so a profiler can wrap it."""
    got = memo.get((i, block))
    if got is None:
        got = memo[(i, block)] = rows(L, i, block)
    return got


def _fixpoint(
    L: LieType, poly: DrinfeldPoly, pins: dict | None = None, depth: int | None = None
) -> QtCharacter | list:
    """The element of K_t with highest monomial poly.monomial() whose
    l-dominant coefficients are pins ({monomial: TPoly}); by default the
    top alone, with coefficient 1.  The top's pin may be any nonzero
    coefficient.

    With a depth, the run stops there: a pin deeper is not seeded, a push
    deeper is dropped, and a monomial at that depth fixes its coefficient
    but expands nothing.  Contributions only flow deeper, so every term
    down to the depth is exact.  The run must reach min(depth, depth of
    the lowest weight), and it returns its terms per depth, a list of
    {monomial: TPoly} dicts from the top down, for the caller to complete
    (_self_dual)."""
    top = poly.monomial()
    if pins is None:
        pins = {top: TPoly.ONE}
    if not pins.get(top):
        raise InternalError(f"the top {top} needs a pin with a nonzero coefficient")
    # every visited weight lies in the convex hull of the top weight's Weyl
    # orbit, so no genuine run goes deeper than height(wt - w0 wt), where the
    # lowest weight sits; twice that plus slack stops a wrong expansion
    # before it fills memory
    rho2 = two_rho(L)
    lowest = _form(rho2, top.data)
    bound = 2 * lowest + 4 * L.coxeter_number + 16
    # Monomials are keyed by _LevelKey.  Every term of the module is top
    # times A(i,a)^-1 factors with min_s < a < max_s + h, so its levels lie
    # in the window below, and a row that leaves it fails when it is built.
    # Rows are products of deg factors A^-1, each moving any exponent by at
    # most 1, so a monomial at depth d <= bound has exponents within
    # max|u_top| + bound: the key is exact as long as the depth is checked
    # before the key is formed.
    top_levels = [s for _, s, _ in top.data] or [0]
    codec = _LevelKey(
        L.rank,
        min(top_levels),
        max(top_levels) + L.coxeter_number,
        max((abs(e) for _, _, e in top.data), default=0) + bound,
    )
    decode = codec.decode

    colour = _colouring(L)
    classes = {(s + colour[i]) % 2 for i, s, _ in top.data}

    a_inv: dict = {}  # (i, s) -> offset of A(i,s)^-1, built and checked once per run

    def a_inv_offset(i, s):
        got = a_inv.get((i, s))
        if got is None:
            q = (a_monomial(L, i, s) ** -1).data
            # the form falls by 2 at each step, so a row's form drop is
            # twice its count sum, and every path reaches a monomial at one
            # depth; A^-1 factors never cancel, so a row leaves the window
            # exactly when one of its A^-1 does
            if _form(rho2, q) != -2:
                raise InternalError(f"A({i},{s})^-1 has two_rho form {_form(rho2, q)}, not -2")
            got = a_inv[(i, s)] = codec.offset(q)
        return got

    def keyed_rows(L, i, block):
        ui = codec.pattern(block)
        # every term keeps its factors in the top's bipartite classes, so a
        # node-i level of another parity can only come from a wrong expansion
        if any((s + colour[i]) % 2 not in classes for s, _ in ui):
            raise InternalError(f"node-{i} exponents {ui} leave the level parities of the top's classes")
        lo = ui[0][0] if ui else 0
        out = []
        for steps, p, deg in _node_simple(tuple([(s - lo, u) for s, u in ui])):
            if sum(n for _, n in steps) != deg:
                raise InternalError(
                    f"node-{i} row {steps} from level {lo} has step count {deg}, not half its form drop"
                )
            # the leading row lands on the term itself, whose coefficient is fixed
            if deg:
                out.append((sum(n * a_inv_offset(i, lo + s) for s, n in steps), p.terms, deg))
        return out

    # per node: (node, its block's shift, {key: what its expansions sent there})
    slots = [(i, shift, {}) for i, shift in zip(L.nodes, codec.shifts)]
    mask, high = codec.mask, codec.high
    stop = bound if depth is None else depth
    nothing: dict = {}  # read, never written
    # contributions only flow to deeper monomials, so one ordered set of
    # keys per depth is a complete schedule; a key joins its level when
    # first reached
    levels = [{} for _ in range(bound + 1)]
    coeffs: dict = {}  # each pin seeds its coefficient and waits at its depth
    for m, p in pins.items():
        if not m.is_l_dominant():
            raise InternalError(f"pin at {m}, which is not dominant")
        try:
            d = sum(v_factorization(L, m, top).values()) if m != top else 0
        except NotComparable:
            raise InternalError(f"pin at {m}, which is not below the top {top}") from None
        if d > bound:
            raise InternalError(f"pin at {m}, at depth {d} past the bound {bound}")
        if depth is not None and d > depth:
            continue
        k = codec.key(m.data)
        coeffs[k] = dict(p.terms)
        levels[d][k] = None
    memo: dict = {}  # node-i expansion rows per (i, node-i block), this run only
    for d, level in enumerate(levels):
        for k in level:
            a = None
            dominant = []
            for i, shift, exp in slots:
                block = (k >> shift) & mask
                if block & high == high:
                    dominant.append((i, block, exp))
                    continue
                # not i-dominant: no expansion is rooted here for i
                val = exp.pop(k, nothing)
                if a is None:
                    a = val
                elif val != a:
                    m = YMonomial._wrap(decode(k))
                    raise InconsistentExpansion(f"colors disagree at {m}: {val} vs {a}")
            if a is None:
                # dominant for every color: the top or an interior monomial,
                # which needs a pin once anything has reached it
                a = coeffs.get(k)
                if a is None:
                    if any(exp.get(k) for _, _, exp in slots):
                        m = YMonomial._wrap(decode(k))
                        raise InconsistentExpansion(f"interior dominant monomial {m} reached")
                    a = {}
            elif a:
                coeffs[k] = a
            if d == depth:
                continue  # every push from here would be dropped
            for i, block, exp in dominant:
                combo = kernels.poly_sub(a, exp.pop(k, nothing))
                if not combo:
                    continue
                for kq, p, deg in _expansion_tail(L, i, block, memo, keyed_rows):
                    dd = d + deg
                    if dd > bound:
                        raise InternalError(f"expansion reached depth {dd} past the bound {bound}")
                    if dd > stop:
                        continue
                    kk = k + kq
                    levels[dd][kk] = None
                    slot = exp.get(kk)
                    if slot is None:
                        exp[kk] = slot = {}
                    kernels.poly_acc_mul(slot, combo, p, 0)

    def terms(level):
        # every key the run reached is decoded, once; one whose coefficient
        # came to nothing is dropped (a run of a module reaches none)
        out = {}
        for k in level:
            m = decode(k)
            a = coeffs.get(k)
            if a:
                out[YMonomial._wrap(m)] = TPoly._wrap(a)
        return out

    # a run that stops above the lowest weight lost a branch of expansions
    deepest = max(d for d, level in enumerate(levels) if level)
    if depth is None:
        if deepest != lowest:
            raise InternalError(
                f"expansion stopped at depth {deepest}, but the lowest weight sits at depth {lowest}"
            )
        out: dict = {}
        for level in levels:
            out.update(terms(level))
        return QtCharacter._wrap(L, poly, out)
    cap = min(depth, lowest)
    if deepest != cap:
        raise InternalError(f"expansion stopped at depth {deepest}, short of the cap {cap}")
    return [terms(level) for level in levels[: cap + 1]]


def _dual_of(L: LieType, poly: DrinfeldPoly) -> tuple:
    """(dual, c): the root datum whose simple is the D-image of poly's, with
    its levels reflected in [lo, hi], the least and greatest level of
    poly, and the centre c = h + lo + hi of the duality D that maps the
    two simples onto each other.  D sends the top of L(P) to the lowest
    monomial of L(dual) and back, so a self-dual poly (dual == poly, every
    string among them) is sent onto itself."""
    levels = [s for _, s in poly.roots]
    lo, hi = min(levels, default=0), max(levels, default=0)
    return DrinfeldPoly((i, lo + hi - s) for i, s in poly.roots), L.coxeter_number + lo + hi


def _dual(L: LieType, terms: dict, c: int) -> dict:
    """The image of a term dict under the duality D: Y[i,s]^e -> Y[i*, c-s]^-e
    (roots.dual_nodes), coefficients kept."""
    star = dual_nodes(L)
    return _map_factors(terms, lambda i, s, e: (star[i - 1], c - s, -e))


def _self_dual(L: LieType, poly: DrinfeldPoly, pins: dict | None = None) -> QtCharacter:
    """_fixpoint(L, poly, pins) for a poly that the caller knows to be
    self-dual (_dual_of), from a run to half the depth N of the lowest
    weight: the terms shallower than N - ceil(N/2) are reflected by D onto
    the terms deeper than ceil(N/2).

    The duality is checked: the run's terms at every middle depth d, from
    N - ceil(N/2) to ceil(N/2), must be the D-image of its terms at depth
    N - d, or InternalError is raised.

    The pins need no check of their own.  N is twice the height of the top
    weight lambda, since i -> i* keeps two_rho.  A dominant weight mu has
    height(mu) >= 0, so an l-dominant monomial lies at depth
    height(lambda) - height(mu) <= N/2.  So every pin lies within the cap,
    where the run keeps it, and no reflected term is l-dominant."""
    _, c = _dual_of(L, poly)
    depth = _form(two_rho(L), poly.monomial().data)
    half = (depth + 1) // 2
    levels = _fixpoint(L, poly, pins, half)
    for d in range(depth - half, half + 1):
        if levels[d] != _dual(L, levels[depth - d], c):
            raise InternalError(
                f"the terms of {poly} at the middle depth {d} are not the D-image"
                f" of those at depth {depth - d}"
            )
    terms: dict = {}
    for level in levels:
        terms.update(level)
    for d in range(depth - half):
        terms.update(_dual(L, levels[d], c))
    return QtCharacter._wrap(L, poly, terms)


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


def _mono_poly(m: YMonomial) -> DrinfeldPoly:
    """The root datum whose monomial is the dominant m."""
    return DrinfeldPoly((i, s) for i, s, e in m.data for _ in range(e))


def _canonical(L: LieType, poly: DrinfeldPoly) -> tuple:
    """(canon, to, back): canon the lexicographically least image of poly's
    roots under the diagram automorphisms, to an automorphism sending poly
    to canon and back its inverse.  The Cartan matrix alone fixes a
    q,t-character, so poly's is canon's relabelled by back.  A canonical
    poly gets the identity both ways."""
    canon, to = min(((poly.relabel(p), p) for p in diagram_automorphisms(L)), key=lambda x: x[0].roots)
    back = tuple(to.index(j) + 1 for j in L.nodes)
    return canon, to, back


def _l_row(order: tuple, l: dict, ai: int) -> dict:
    """Row ai of l as {dominant monomial: coefficient}."""
    return {order[ci].monomial(): p for (a, ci), p in l.items() if a == ai}


def _tmp_prefix(path: str) -> str:
    """The name, less the pid, of a write in progress to path:
    path.tmp.<host>.<pid>.  A pid means something only on its own host,
    so the host part marks which temporary files this host may judge.
    Off POSIX none is judged (_remove_stale_tmp), and the part is empty."""
    host = os.uname().nodename if os.name == "posix" else ""
    return f"{path}.tmp.{host}."


def _remove_stale_tmp(path: str) -> None:
    """Remove the files path.tmp.<host>.<pid> of this host that a writer
    killed before its rename left behind: those whose pid is no live
    process.  A live process's file may be a write in progress, so it
    stays, as does every file of another host.  Only POSIX has a pure
    liveness probe (signal 0; elsewhere os.kill ends the process), so on
    other platforms nothing is removed."""
    if os.name != "posix":
        return
    head, prefix = os.path.split(_tmp_prefix(path))
    for entry in os.listdir(head):
        pid = entry[len(prefix):]
        if not (entry.startswith(prefix) and pid.isdecimal()):
            continue
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            with contextlib.suppress(OSError):
                os.remove(os.path.join(head, entry))
        except (OverflowError, OSError):
            pass  # not a pid, or a live process of another user


class Engine:
    """Computes and caches characters for one type.

    Base characters are computed at spectral shift 0 and at the canonical
    node of their orbit under the diagram automorphisms, then translated
    and relabelled on request; non-string simples run at their canonical
    image likewise.  If cache_dir is set, base characters are also stored
    as qtc files under the canonical node's name (written atomically,
    re-read on later runs).  table holds the type's commutation exponents,
    read by the engine and its verifiers."""

    def __init__(self, L: LieType, cache_dir: str | None = None):
        self.L = L
        self.cache_dir = cache_dir
        self._base: dict = {}
        self._standard: dict = {}
        self._kl: dict = {}
        self._dominant: dict = {}
        self._triangles: dict = {}
        self._simples: dict = {}
        # built simples by translation class: {roots shifted to least level 0: (least level, character)}
        self._translates: dict = {}
        self.table = EpsilonTable(L)
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)

    # -- cache plumbing -----------------------------------------------------

    def _cache_path(self, stem: str) -> str:
        name = f"{self.L.family}{self.L.rank}_{stem}.qtc"
        return os.path.join(self.cache_dir, name)

    def _cached(self, i: int, k: int) -> QtCharacter:
        """The string character KR(i, k) at shift 0, k >= 1 (the fundamental
        at k = 1), from memory, the disk cache or a fixpoint run to half
        its depth completed by the duality D (_self_dual).  Only the
        canonical node of i's orbit under the diagram automorphisms is read,
        run or stored (stem fund_c or kr_c_k); any other node's character is
        the canonical one relabelled.  A disk entry counts only if it holds
        this type and root datum; anything else is recomputed and rewritten,
        an entry without the digest trailer (read_qtc) included, since only
        the digest shows the entry is a run's output as written."""
        ch = self._base.get((i, k))
        if ch is not None:
            return ch
        poly = DrinfeldPoly.kr(i, k, 0)
        canon, _, back = _canonical(self.L, poly)
        if canon != poly:
            ch = self._base[(i, k)] = self._cached(canon.roots[0][0], k).relabel(back)
            return ch
        stem = f"fund_{i}" if k == 1 else f"kr_{i}_{k}"
        if self.cache_dir:
            path = self._cache_path(stem)
            if os.path.exists(path):
                try:
                    ch = read_qtc(path)
                    if ch.L == self.L and ch.poly == poly:
                        self._base[(i, k)] = ch
                        return ch
                except (OSError, UnicodeDecodeError, QtcharError):
                    pass  # unreadable cache entry: recompute and rewrite
        ch = _self_dual(self.L, poly)
        self._base[(i, k)] = ch
        if self.cache_dir:
            path = self._cache_path(stem)
            tmp = f"{_tmp_prefix(path)}{os.getpid()}"
            try:
                write_qtc(tmp, ch)
                os.replace(tmp, path)
            except BaseException:
                # leave no partial file behind, whatever stopped the write
                with contextlib.suppress(OSError):
                    os.remove(tmp)
                raise
            _remove_stale_tmp(path)
        return ch

    # -- module characters ----------------------------------------------------

    def _check_node(self, i: int) -> None:
        if i not in self.L.nodes:
            raise DomainError(f"node {i} out of range for {self.L.family}{self.L.rank}")

    def fundamental_char(self, i: int, s: int = 0) -> QtCharacter:
        self._check_node(i)
        return self._cached(i, 1).shift(s)

    def kr_char_direct(self, i: int, k: int, s: int = 0) -> QtCharacter:
        """Character of the length-k string module at node i starting at s,
        computed by its own fixpoint run rather than through the triangular
        decomposition."""
        self._check_node(i)
        if k < 0:
            raise DomainError("string length must be nonnegative")
        if k == 0:
            return QtCharacter(self.L, DrinfeldPoly(), {ONE_MONO: TPoly.ONE})
        return self._cached(i, k).shift(s)

    def standard_char(self, poly: DrinfeldPoly) -> QtCharacter:
        """Character of the product module: the twisted product of its
        fundamentals, folded in _fold_order and divided by their twist
        (_star_fold), so its top coefficient is 1.  The empty root datum
        gives the unit."""
        got = self._standard.get(poly.roots)
        if got is None:
            terms = self._standard_fold(poly, _star_fold)
            got = self._standard[poly.roots] = QtCharacter(self.L, poly, terms)
        return got

    def _standard_fold(self, poly: DrinfeldPoly, fold) -> dict:
        """fold(L, fundamentals of poly in _fold_order, table), which must
        be normalized: a top coefficient other than 1 means a fundamental
        was not, and raises InternalError."""
        factors = [self.fundamental_char(i, s) for i, s in _fold_order(poly)]
        terms = fold(self.L, factors, self.table)
        top = poly.monomial()
        if terms.get(top) != TPoly.ONE:
            raise InternalError(f"top coefficient {terms.get(top)} at {top} is not 1")
        return terms

    # -- triangular decomposition ----------------------------------------------

    def _standard_dominant(self, poly: DrinfeldPoly) -> dict:
        """The l-dominant terms of standard_char(poly), without building
        it: the same fold of the same fundamentals through
        dominant_product, which divides by the same twist."""
        got = self._dominant.get(poly.roots)
        if got is None:
            got = self._dominant[poly.roots] = self._standard_fold(poly, dominant_product)
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
        order = tuple(sorted(seen, key=lambda q: (-_form(rho2, q.monomial().data), q.roots)))
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
                # l is bar-symmetric and z lies in t^-1 Z[t^-1]: l takes f's
                # terms at t^e, e >= 0, mirrored to t^-e, and z the rest
                sym = {}
                for e, cf in f.terms.items():
                    if e >= 0:
                        sym[e] = sym[-e] = cf
                lpoly = TPoly._wrap(sym)
                zpoly = f - lpoly
                if not zpoly.has_nonneg_coeffs() or not lpoly.has_nonneg_coeffs():
                    raise InternalError(
                        f"negative multiplicity between {order[ai]} and {order[ci]}"
                    )
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
        theorem).  Any other root datum with a translate built is that
        simple shifted.  One whose dual (_dual_of) has its simple built, up
        to translation, is that simple's D-image, whose l-dominant terms
        must be the row.  Otherwise it is one fixpoint run whose pins are
        the row, completed by D if poly is self-dual (_self_dual), taken at
        its canonical image (_canonical) with the row relabelled alike, and
        relabelled back."""
        got = self._simples.get(poly.roots)
        if got is not None:
            return got
        string = _string_of(poly)
        lo = min((s for _, s in poly.roots), default=0)
        built = self._translates.get(poly.shift(-lo).roots)
        if string:
            if row != {poly.monomial(): TPoly.ONE}:
                raise InternalError(f"the l-row of the string {poly} holds more than its diagonal")
            ch = self.kr_char_direct(*string)
        elif built is not None:
            built_lo, built_ch = built
            ch = built_ch.shift(lo - built_lo)
        else:
            dual, c = _dual_of(self.L, poly)
            twin = self._translates.get(dual.shift(-lo).roots) if dual != poly else None
            if twin is not None:
                # twin holds dual's simple translated by d, its least level
                # less lo, and D at c + d maps that onto poly's
                twin_lo, twin_ch = twin
                ch = QtCharacter._wrap(self.L, poly, _dual(self.L, twin_ch.terms, c + twin_lo - lo))
                if {m: p for m, p in ch.terms.items() if m.is_l_dominant()} != row:
                    raise InternalError(
                        f"the D-image of the simple of {dual} does not have the l-row of {poly}"
                    )
            else:
                canon, to, back = _canonical(self.L, poly)
                if canon != poly:
                    ch = self._simple(canon, {m.relabel(to): p for m, p in row.items()}).relabel(back)
                elif dual == poly:
                    ch = _self_dual(self.L, poly, row)
                else:
                    ch = _fixpoint(self.L, poly, row)
        self._simples[poly.roots] = ch
        self._translates.setdefault(poly.shift(-lo).roots, (lo, ch))
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
