from __future__ import annotations

import pytest

from qtchar import DrinfeldPoly, Engine, QtCharacter, TPoly, YMonomial, build_lie_type, v_factorization


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
