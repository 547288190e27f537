from __future__ import annotations

from functools import lru_cache
import heapq
import itertools

import pytest

from qtchar import (
    DrinfeldPoly,
    Engine,
    QtCharacter,
    TPoly,
    YMonomial,
    a_monomial,
    build_lie_type,
    t_binomial,
    two_rho,
    v_factorization,
)
from qtchar import kernels


@pytest.fixture(scope="session")
def A1():
    return build_lie_type("A", 1)


@pytest.fixture(scope="session")
def A2():
    return build_lie_type("A", 2)


@pytest.fixture(scope="session")
def A3():
    return build_lie_type("A", 3)


@pytest.fixture(scope="session")
def D4():
    return build_lie_type("D", 4)


@pytest.fixture(scope="session")
def D5():
    return build_lie_type("D", 5)


@pytest.fixture(scope="session")
def engines(A1, A2, A3, D4, D5, tmp_path_factory):
    """One disk-cached engine per type, shared across the whole run so the
    expensive D4 and D5 fixpoints are computed once."""
    cache = tmp_path_factory.mktemp("qtc-cache")
    return {
        ("A", 1): Engine(A1, str(cache)),
        ("A", 2): Engine(A2, str(cache)),
        ("A", 3): Engine(A3, str(cache)),
        ("D", 4): Engine(D4, str(cache)),
        ("D", 5): Engine(D5, str(cache)),
    }


@pytest.fixture(scope="session")
def engine_for(engines):
    def get(L):
        return engines[(L.family, L.rank)]

    return get


def _multiply_standard(ch1, p1, ch2, p2) -> QtCharacter:
    """Reference product of two normalized characters of the root data p1
    and p2, normalized against p1 * p2, independent of the library's
    twisted product.  It needs the separation condition: no root of p1
    sits two or more spectral steps above a root of p2.  With
    m1 = top1 * A^-v1 and m2 = top2 * A^-v2, each term pair contributes
    c1 * c2 * t^X at m1 * m2, where
    X = sum v1(i,s) (u(m2)(i,s-1) - u(m2)(i,s+1))
      + sum v2(i,s) (u(top1)(i,s+1) - u(top1)(i,s-1))."""
    assert ch1.L == ch2.L
    if p1.roots and p2.roots:
        assert max(s for _, s in p1.roots) - min(s for _, s in p2.roots) < 2, (p1, p2)
    L = ch1.L
    mp1, mp2 = p1.monomial(), p2.monomial()
    up1 = mp1.u_map()
    left = [(m, c, v_factorization(L, m, mp1).items()) for m, c in ch1.terms.items()]
    right = []
    for m, c in ch2.terms.items():
        u = m.u_map()
        const = sum(
            e * (up1.get((i, s + 1), 0) - up1.get((i, s - 1), 0))
            for (i, s), e in v_factorization(L, m, mp2).items()
        )
        right.append((m, c, u, const))
    out: dict = {}
    for m1, c1, v1 in left:
        for m2, c2, u2, const in right:
            x = const + sum(e * (u2.get((i, s - 1), 0) - u2.get((i, s + 1), 0)) for (i, s), e in v1)
            key = m1 * m2
            out[key] = out.get(key, TPoly.ZERO) + (c1 * c2).shifted(x)
    return QtCharacter(L, p1 * p2, {m: p for m, p in out.items() if p})


@pytest.fixture(scope="session")
def multiply_standard():
    """The reference product _multiply_standard."""
    return _multiply_standard


@pytest.fixture(scope="session")
def reference_standard():
    """Reference standard characters: the fundamentals of a root datum
    folded from the unit with _multiply_standard, in ascending spectral
    order, which meets the separation condition; memoized per type and
    root datum."""
    memo: dict = {}

    def build(eng, poly) -> QtCharacter:
        key = (eng.L.family, eng.L.rank, poly.roots)
        got = memo.get(key)
        if got is None:
            got = QtCharacter(eng.L, DrinfeldPoly(), {YMonomial.one(): TPoly.ONE})
            for i, s in sorted(poly.roots, key=lambda r: (r[1], r[0])):
                p = DrinfeldPoly.fundamental(i, s)
                got = _multiply_standard(got, got.poly, eng.fundamental_char(i, s), p)
            memo[key] = got
        return got

    return build


@pytest.fixture(scope="session")
def subtraction_simples(reference_standard):
    """Reference simples of a KLResult by the subtraction route, independent
    of the fixpoint runs that build res.simples and of the library's
    standards: deepest row first, each simple is the reference standard
    character minus the z-weighted simples below it."""

    def build(eng, res) -> dict:
        out: dict = {}
        for ai in range(len(res.order) - 1, -1, -1):
            terms = dict(reference_standard(eng, res.order[ai]).terms)
            for bi in range(ai + 1, len(res.order)):
                zab = res.z.get((ai, bi))
                if not zab:
                    continue
                for m, p in out[res.order[bi]].terms.items():
                    r = terms.get(m, TPoly.ZERO) - zab * p
                    if r:
                        terms[m] = r
                    else:
                        terms.pop(m, None)
            out[res.order[ai]] = QtCharacter(eng.L, res.order[ai], terms)
        return out

    return build


@lru_cache(maxsize=None)
def _standard_rows(L, i: int, ui: tuple) -> tuple:
    """Reference rows of the node-i expansion by the sl2 standard character,
    independent of the library's simple rows, in their format: (data of
    term / m, coefficient, step count), the leading row ((), 1, 0) first,
    for any i-dominant m whose node-i factors are Y[i,s]^u_s for the
    (s, u_s) pairs in ui.

    Lowering the factor Y[i,s]^u_s r_s times (by A(i,s+1)^-r_s) carries
    [u_s r_s] t^-(r_s (u_{s+2} - r_{s+2})) with a balanced Gaussian
    binomial, so the coefficients are already normalized; the exponent
    couples only neighbouring levels s and s+2 of node i.  Coefficients
    carry signs wherever two levels are two apart.  Memoized: the rows
    depend only on the arguments."""
    u_at = dict(ui)
    # rows: (term / m, coefficient, step count, r at the last level).
    # Levels are visited by parity, then ascending, so when s-2 is a level
    # it is the one visited just before s; other parities never couple.
    out = [(YMonomial.one(), TPoly.ONE, 0, 0)]
    for s in sorted(u_at, key=lambda s: (s % 2, s)):
        u = u_at[s]
        above = u_at.get(s + 2, 0)
        linked = 1 if s - 2 in u_at else 0
        a_inv = a_monomial(L, i, s + 1) ** -1
        options = []
        step = YMonomial.one()
        for r in range(u + 1):
            options.append((step, t_binomial(u, r).shifted(-r * above), r))
            step = step * a_inv
        out = [
            (mono * am, (poly * c).shifted(linked * r * prev), deg + r, r)
            for mono, poly, deg, prev in out
            for am, c, r in options
        ]
    return tuple((mo.data, p, deg) for mo, p, deg, _ in out)


@pytest.fixture(scope="session")
def standard_rows():
    """The reference rows _standard_rows."""
    return _standard_rows


def _standard_strip(ch: QtCharacter, i: int) -> bool:
    """Reference K_t membership at node i: the greedy strip from the top
    with the sl2 standard rows.  The shallowest remaining monomial must be
    i-dominant and is removed with its rows times its remaining
    coefficient; depths are halves of the two_rho form's drop below the
    top.  Raises AssertionError past a depth bound."""
    L = ch.L
    rho2 = two_rho(L)

    def level(m):
        return sum(rho2[j - 1] * e for j, _, e in m.data)

    top_level = level(ch.highest)
    rem = {m: dict(p.terms) for m, p in ch.terms.items()}
    tick = itertools.count()
    heap = [(top_level - level(m), next(tick), m) for m in rem]
    guard = 2 * max((d for d, _, _ in heap), default=0) + 8 * L.coxeter_number + 32
    heapq.heapify(heap)
    while heap:
        d, _, m = heapq.heappop(heap)
        raw = rem.pop(m, None)
        if not raw:
            continue
        assert d <= guard, "reference strip exceeded its depth bound"
        if not m.is_i_dominant(i):
            return False
        ui = tuple((s, u) for j, s, u in m.data if j == i)
        neg = {e: -c for e, c in raw.items()}
        for q, p, deg in _standard_rows(L, i, ui)[1:]:
            mm = YMonomial._wrap(kernels.mono_mul(m.data, q))
            slot = rem.get(mm)
            if slot is None:
                rem[mm] = slot = {}
                heapq.heappush(heap, (d + 2 * deg, next(tick), mm))
            kernels.poly_acc_mul(slot, neg, p.terms, 0)
            if not slot:
                del rem[mm]
    return True


@pytest.fixture(scope="session")
def standard_strip():
    """The reference membership test _standard_strip."""
    return _standard_strip
