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
    positive_roots,
    two_rho,
    v_factorization,
)
from qtchar import kernels, monomial
from qtchar.engine import _fixpoint
from qtchar.errors import DomainError, InconsistentExpansion, InternalError, NotComparable
from qtchar.monomial import tilde_u


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


# Predicates that only the tests' assertions read.


def _is_bar_symmetric(p: TPoly) -> bool:
    """p is fixed by the involution t -> t^-1."""
    return all(p.terms.get(-n) == c for n, c in p.terms.items())


def _only_negative_powers(p: TPoly) -> bool:
    """Every power of t in p is negative, so p lies in t^-1 Z[t^-1]."""
    return all(n < 0 for n in p.terms)


def _is_i_dominant(m: YMonomial, i: int) -> bool:
    """No factor of m at node i has a negative exponent."""
    return all(e >= 0 for j, _, e in m.data if j == i)


@pytest.fixture(scope="session")
def is_bar_symmetric():
    """The TPoly predicate _is_bar_symmetric."""
    return _is_bar_symmetric


@pytest.fixture(scope="session")
def only_negative_powers():
    """The TPoly predicate _only_negative_powers."""
    return _only_negative_powers


@pytest.fixture(scope="session")
def is_i_dominant():
    """The monomial predicate _is_i_dominant."""
    return _is_i_dominant


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


def _t_binomial(n: int, r: int) -> TPoly:
    """Balanced Gaussian binomial, invariant under t -> t^-1.

    Equal to t^(-r(n-r)) times the ordinary q-binomial evaluated at q = t^2,
    so its exponents run over -r(n-r), -r(n-r)+2, ..., r(n-r).  The
    coefficients of the sl2 standard rows (_standard_rows)."""
    if not (0 <= r <= n):
        raise DomainError(f"t_binomial({n}, {r}) undefined")
    center = r * (n - r)
    return TPoly({2 * d - center: c for d, c in enumerate(_gauss_binomial(n, r))})


@pytest.fixture(scope="session")
def t_binomial():
    """The balanced Gaussian binomial _t_binomial."""
    return _t_binomial


def _terms_scale(a: dict, c: TPoly) -> dict:
    """A raw term dict times the coefficient c."""
    if not c:
        return {}
    return {m: p * c for m, p in a.items()}


@pytest.fixture(scope="session")
def terms_scale():
    """The scalar product _terms_scale."""
    return _terms_scale


def _qchar_mul(d1: dict, d2: dict) -> dict:
    """Reference product at t=1: the plain commutative product of t=1 term
    dicts, independent of the library's twisted product."""
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


@pytest.fixture(scope="session")
def qchar_mul():
    """The reference product _qchar_mul."""
    return _qchar_mul


def _weyl_dimension(L, hw) -> int:
    """Weyl's dimension formula: the product over the positive roots alpha
    of (hw + rho, alpha) / (rho, alpha).  The type is simply laced, so with
    hw in fundamental and alpha in root coordinates (hw + rho, alpha) is
    sum_j (hw_j + 1) alpha_j and (rho, alpha) is the height of alpha."""
    num = den = 1
    for alpha in positive_roots(L):
        num *= sum((h + 1) * a for h, a in zip(hw, alpha))
        den *= sum(alpha)
    assert num % den == 0, (L, hw)
    return num // den


@pytest.fixture(scope="session")
def weyl_dimension():
    """The dimension oracle _weyl_dimension."""
    return _weyl_dimension


def _right_negative(m: YMonomial) -> bool:
    """All factors at the maximal spectral exponent have negative power."""
    if not m.data:
        return False
    top = m.max_s()
    return all(e < 0 for _, s, e in m.data if s == top)


@pytest.fixture(scope="session")
def right_negative():
    """The monomial flag _right_negative."""
    return _right_negative


def _kr_right_negative_family(L, i: int, k: int) -> list:
    """The k right-negative monomials of bounded spectral width in the
    length-k string character at node i, shift 0: position s' keeps the
    first s' string factors and flips the rest, picking up one neighbor
    factor per flip."""
    out = []
    for sp in range(k):
        data: dict = {}
        for t in range(sp):
            data[(i, 2 * t)] = data.get((i, 2 * t), 0) + 1
        for t in range(sp, k):
            data[(i, 2 * t + 2)] = data.get((i, 2 * t + 2), 0) - 1
            for j in L.neighbors(i):
                data[(j, 2 * t + 1)] = data.get((j, 2 * t + 1), 0) + 1
        out.append(YMonomial._wrap(tuple(sorted((n, s, e) for (n, s), e in data.items() if e))))
    return out


@pytest.fixture(scope="session")
def kr_right_negative_family():
    """The monomial family _kr_right_negative_family."""
    return _kr_right_negative_family


def _paired_string_dominants(L, i: int, k: int) -> list:
    """For the product of the two length-k strings at shifts 0 and 2: the
    l-dominant monomials strictly between the two string characters'
    tops, indexed by the split point s = 1..k-1, with the coefficient
    each carries in the standard character."""
    out = []
    for s in range(1, k):
        data: dict = {}
        data[(i, 0)] = 1
        for t in range(1, s):
            data[(i, 2 * t)] = 2
        data[(i, 2 * s)] = data.get((i, 2 * s), 0) + 1
        for j in L.neighbors(i):
            for t in range(s, k):
                data[(j, 2 * t + 1)] = 1
        m = YMonomial._wrap(tuple(sorted((n, sp, e) for (n, sp), e in data.items() if e)))
        coeff = TPoly.ONE
        for _ in range(k - s):
            coeff = coeff * TPoly({0: 1, 2: 1})
        out.append((m, coeff.shifted(2 * (s - k))))
    return out


@pytest.fixture(scope="session")
def paired_string_dominants():
    """The monomial family _paired_string_dominants."""
    return _paired_string_dominants


def _dot_shifted(a: dict, b: dict, shift: int) -> int:
    """Sum of a[(i, s + shift)] * b[(i, s)] over the support of b."""
    return sum(a.get((i, s + shift), 0) * v for (i, s), v in b.items())


@pytest.fixture(scope="session")
def dot_shifted():
    """The shifted dot product _dot_shifted."""
    return _dot_shifted


# The single-pair definitions of the commutation exponent and of the
# product-twist pairing of the unnormalized product, kept as references for
# EpsilonTable.  v_factorization is looked up on its module at call time,
# so a test may memoize it there.


def _pairing_d(L, m1: YMonomial, mp1: YMonomial, m2: YMonomial, mp2: YMonomial) -> int:
    """Product-twist pairing of (m1 below mp1) against (m2 below mp2):
    v-exponents of the first pair against raw exponents of m2, plus raw
    exponents of mp1 against v-exponents of the second pair, each with a
    one-step spectral offset."""
    v1 = monomial.v_factorization(L, m1, mp1)
    v2 = monomial.v_factorization(L, m2, mp2)
    return _dot_shifted(v1, m2.u_map(), 1) + _dot_shifted(mp1.u_map(), v2, 1)


def _pairing_d_alt(L, m1: YMonomial, mp1: YMonomial, m2: YMonomial, mp2: YMonomial) -> int:
    """Rearrangement of _pairing_d with the offset on the other side; agrees
    with _pairing_d identically (criterion 13)."""
    v1 = monomial.v_factorization(L, m1, mp1)
    v2 = monomial.v_factorization(L, m2, mp2)
    return _dot_shifted(m1.u_map(), v2, 1) + _dot_shifted(v1, mp2.u_map(), 1)


def _tilde_d(L, m1: YMonomial, m2: YMonomial) -> int:
    """Bilinear form pairing the exponents of m1 against tilde_u of m2."""
    top = m1.max_s()
    if top is None:
        return 0
    return -_dot_shifted(m1.u_map(), tilde_u(L, m2, top - 1), 1)


def _epsilon(L, m1: YMonomial, m2: YMonomial) -> int:
    """Commutation exponent: antisymmetric, shift-invariant, biadditive."""
    return _tilde_d(L, m1, m2) - _tilde_d(L, m2, m1)


@pytest.fixture(scope="session")
def pairing_d():
    """The product-twist pairing _pairing_d."""
    return _pairing_d


@pytest.fixture(scope="session")
def pairing_d_alt():
    """The rearranged pairing _pairing_d_alt."""
    return _pairing_d_alt


@pytest.fixture(scope="session")
def tilde_d():
    """The bilinear form _tilde_d."""
    return _tilde_d


@pytest.fixture(scope="session")
def epsilon():
    """The single-pair commutation exponent _epsilon."""
    return _epsilon


def _validate(ch: QtCharacter) -> None:
    """Cheap structural sanity: the highest term is present, monic, and
    truly highest (every other monomial factors below it)."""
    top = ch.highest
    if ch.terms.get(top) != TPoly.ONE:
        raise InternalError("highest term missing or not monic")
    for m in ch.terms:
        if m != top:
            v_factorization(ch.L, m, top)


@pytest.fixture(scope="session")
def validate():
    """The structural check _validate."""
    return _validate


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
            got = QtCharacter(eng.L, DrinfeldPoly(), {YMonomial(): TPoly.ONE})
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
    out = [(YMonomial(), TPoly.ONE, 0, 0)]
    for s in sorted(u_at, key=lambda s: (s % 2, s)):
        u = u_at[s]
        above = u_at.get(s + 2, 0)
        linked = 1 if s - 2 in u_at else 0
        a_inv = a_monomial(L, i, s + 1) ** -1
        options = []
        step = YMonomial()
        for r in range(u + 1):
            options.append((step, _t_binomial(u, r).shifted(-r * above), r))
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
        if not _is_i_dominant(m, i):
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


def _in_span_all_nodes(ch: QtCharacter) -> bool:
    """Test oracle for K_t membership, the intersection over the nodes i of
    the span of the node-i expansions.  An element of K_t is fixed by its
    coefficients at its l-dominant monomials, so ch is accepted when the
    fixpoint run pinned to those terms rebuilds it, and only then.

    A missing top or a dominant term not below the top gives False.  So
    does a run that reaches a dominant monomial ch lacks, which a member
    with cancelling coefficients can do
    (test_gate_refuses_member_lacking_a_reached_dominant_term).  So the
    oracle can refuse some members, but not the output of a fixpoint run:
    the run pinned to that output's dominant terms is the run that built
    it."""
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


@pytest.fixture(scope="session")
def in_span_all_nodes():
    """The membership oracle _in_span_all_nodes."""
    return _in_span_all_nodes
