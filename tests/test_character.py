from __future__ import annotations

from collections import Counter
from functools import lru_cache
import random

import pytest

from qtchar import (
    DrinfeldPoly,
    Engine,
    EpsilonTable,
    GCharacter,
    ParseError,
    QtCharacter,
    TPoly,
    YMonomial,
    build_lie_type,
    dominant_product,
    dumps_qtc,
    epsilon,
    in_span_all_nodes,
    loads_qtc,
    normalized_in_A,
    pairing_d,
    parse_monomial,
    parse_tpoly,
    read_qtc,
    restrict_to_g,
    specialize_t1,
    star_product,
    t_binomial,
    two_rho,
    v_factorization,
    write_qtc,
)
from qtchar import character, engine, kernels, monomial
from qtchar.character import _expansion_tail, _node_simple, _star_fold, qchar_mul, terms_scale
from qtchar.engine import _fixpoint, _top_normalized, fundamental_char, kr_char_direct, standard_char
from qtchar.errors import NotDominant


def _terms(pairs):
    return {parse_monomial(m): parse_tpoly(c) for m, c in pairs}


# -- Drinfeld root data --------------------------------------------------------


def test_drinfeld_poly_basics():
    p = DrinfeldPoly.kr(1, 3, 2)
    assert p.roots == ((1, 2), (1, 4), (1, 6))
    assert str(p) == "P(1: 2 4 6)"
    assert p.monomial() == parse_monomial("Y[1,2] Y[1,4] Y[1,6]")
    assert p.shift(-2) == DrinfeldPoly.kr(1, 3, 0)
    q = DrinfeldPoly.fundamental(2, 1)
    assert (p * q).monomial() == p.monomial() * q.monomial()
    assert str(DrinfeldPoly()) == "P()"
    assert not DrinfeldPoly()
    assert DrinfeldPoly.kr(1, 0, 5) == DrinfeldPoly()


# -- single-node expansion -----------------------------------------------------


def _expand(rows, L, m: YMonomial, i: int) -> dict:
    """The term dict of m's node-i expansion by a row builder."""
    ui = tuple((s, u) for j, s, u in m.data if j == i)
    return {m * YMonomial._wrap(q): p for q, p, _ in rows(L, i, ui)}


def test_expand_one_variable(A2, standard_rows):
    m = parse_monomial("Y[1,0]")
    want = _terms([("Y[1,0]", "1"), ("Y[1,2]^-1 Y[2,1]", "1")])
    assert _expand(standard_rows, A2, m, 1) == want
    assert _expand(character._node_simple, A2, m, 1) == want


def _root_datum(m: YMonomial) -> DrinfeldPoly:
    return DrinfeldPoly((i, s) for i, s, e in m.data for _ in range(e))


def _assert_expansion_is_standard(L, eng, m: YMonomial, standard_rows):
    # in rank one the node-1 standard expansion of a dominant monomial is
    # the standard character of its root datum, coefficients included
    assert _expand(standard_rows, L, m, 1) == eng.standard_char(_root_datum(m)).terms, m


def test_expand_square_has_balanced_binomial(A1, engine_for, standard_rows):
    eng = engine_for(A1)
    for text in ("Y[1,0]^2", "Y[1,0]^2 Y[1,2]"):
        _assert_expansion_is_standard(A1, eng, parse_monomial(text), standard_rows)
    got = _expand(standard_rows, A1, parse_monomial("Y[1,0]^2"), 1)
    assert got[parse_monomial("Y[1,0] Y[1,2]^-1")] == t_binomial(2, 1)


def test_expand_two_levels(A1, engine_for, standard_rows):
    eng = engine_for(A1)
    for text in (
        "Y[1,0] Y[1,2]",
        "Y[1,0] Y[1,2] Y[1,4]",
        "Y[1,0] Y[1,4]",
        # levels of both parities: s-2, s-1 and s all present
        "Y[1,0] Y[1,1] Y[1,2]",
        "Y[1,1] Y[1,2] Y[1,3]",
        "Y[1,0] Y[1,1] Y[1,2] Y[1,3] Y[1,4]",
    ):
        _assert_expansion_is_standard(A1, eng, parse_monomial(text), standard_rows)


def test_expand_requires_dominance(A2):
    with pytest.raises(NotDominant):
        _expansion_tail(A2, 1, parse_monomial("Y[1,0]^-1"), {}, _node_simple)
    # other-node exponents are unconstrained
    assert _expansion_tail(A2, 1, parse_monomial("Y[2,0]^-1"), {}, _node_simple) == [((), TPoly.ONE, 0)]


# -- memoized node expansion ----------------------------------------------------


def _popped_monomials(L, poly, monkeypatch, run=None) -> list:
    """Every monomial the fixpoint pops for poly, in run() or by default a
    run of its own: the top and every term of a tail it walks (each one is
    pushed, so each one is popped)."""
    seen = {poly.monomial()}
    inner = engine._expansion_tail

    def record(L, i, m, *args, **kw):
        out = inner(L, i, m, *args, **kw)
        seen.update(m * YMonomial._wrap(row[0]) for row in out)
        return out

    with monkeypatch.context() as mp:
        mp.setattr(engine, "_expansion_tail", record)
        (run or (lambda: _fixpoint(L, poly)))()
    return sorted(seen)


def _memo_tail(L, i, m, memo) -> list:
    return _expansion_tail(L, i, m, memo, _node_simple)


def _fresh_tail(L, i, m) -> list:
    return _node_simple(L, i, tuple((s, u) for j, s, u in m.data if j == i))


def test_memoized_tail_matches_fresh_tail(D4, A1, A2, monkeypatch):
    # one memo across A1 levels of both parities, and across A2 monomials
    # that differ only at node 1 or agree only at node 1; the last shares
    # its node-2 exponents with node 1 of the first
    a1 = ("Y[1,0] Y[1,1] Y[1,2]", "Y[1,1] Y[1,2] Y[1,3]", "Y[1,0] Y[1,2]", "Y[1,0]^2 Y[1,1]")
    a2 = ("Y[1,0] Y[2,3]", "Y[1,2] Y[2,3]", "Y[1,0]^2 Y[2,3]", "Y[1,0] Y[2,1]", "Y[1,0] Y[2,0]")
    for L, texts, keys in ((A1, a1, 4), (A2, a2, 6)):
        memo: dict = {}
        for _ in range(2):  # the second round reads every row from the memo
            for m in map(parse_monomial, texts):
                for i in L.nodes:
                    if m.is_i_dominant(i):
                        assert _memo_tail(L, i, m, memo) == _fresh_tail(L, i, m), (i, m)
        assert len(memo) == keys
    # every i-dominant monomial the fixpoint pops
    E6 = build_lie_type("E", 6)
    cases = [(D4, DrinfeldPoly.kr(2, 3, 0)), (E6, DrinfeldPoly.fundamental(1, 0))]
    for L, poly in cases:
        memo = {}
        checked = 0
        for m in _popped_monomials(L, poly, monkeypatch):
            for i in L.nodes:
                if m.is_i_dominant(i):
                    assert _memo_tail(L, i, m, memo) == _fresh_tail(L, i, m), (i, m)
                    checked += 1
        assert len(memo) < checked


def test_fixpoint_builds_each_node_pattern_once(D4, monkeypatch):
    built: Counter = Counter()
    tails = []
    inner_rows = engine._node_simple
    inner_tail = engine._expansion_tail

    def count_rows(L, i, ui):
        built[(i, ui)] += 1
        return inner_rows(L, i, ui)

    def count_tails(*args, **kw):
        tails.append(args[1])
        return inner_tail(*args, **kw)

    monkeypatch.setattr(engine, "_node_simple", count_rows)
    monkeypatch.setattr(engine, "_expansion_tail", count_tails)
    ch = _fixpoint(D4, DrinfeldPoly.kr(2, 3, 0))
    assert len(ch) == 2043
    assert max(built.values()) == 1
    assert len(tails) > 10 * len(built)


def test_fixpoint_pops_only_terms(D4, D5, monkeypatch):
    # simple rows carry nonnegative coefficients, so nothing the fixpoint
    # visits cancels: it pops exactly the terms of the character
    E6 = build_lie_type("E", 6)
    for L, i, k in ((D4, 2, 3), (D5, 3, 2), (E6, 1, 2)):
        poly = DrinfeldPoly.kr(i, k, 0)
        popped = _popped_monomials(L, poly, monkeypatch)
        assert popped == sorted(_fixpoint(L, poly).terms), (L, i, k)


def test_slice_span_pushes_only_terms(D4, D5, engine_for, monkeypatch):
    # so does the membership gate's run, pinned to the dominant terms of a
    # character read back from the engine: every monomial a row reaches is
    # a term (the signed standard rows reach thousands more)
    E6 = build_lie_type("E", 6)
    for ch in (
        engine_for(D4).kr_char_direct(2, 3),
        engine_for(D5).kr_char_direct(3, 2),
        Engine(E6).kr_char_direct(1, 2),
    ):
        decided = []
        popped = _popped_monomials(
            ch.L, ch.poly, monkeypatch, lambda: decided.append(in_span_all_nodes(ch))
        )
        assert decided == [True], (ch.L, ch.poly)
        assert popped == sorted(ch.terms), (ch.L, ch.poly)


# -- sl2 simple rows -------------------------------------------------------------


def _rank_one_rows(L, i, eng, ui, subtraction_simples) -> dict:
    """The A1 simple of the node-i pattern ui from the subtraction route
    (the fixpoint would expand by _node_simple itself), as rows of L keyed
    by data: each A(1,s) step becomes A(i,s)."""
    A1 = eng.L
    poly = DrinfeldPoly((1, s) for s, u in ui for _ in range(u))
    top = poly.monomial()
    out = {}
    for m, p in subtraction_simples(eng, eng.kl_decompose(poly))[poly].terms.items():
        v = v_factorization(A1, m, top)
        q = YMonomial()
        for (_, s), n in v.items():
            q = q * monomial.a_monomial(L, i, s) ** -n
        out[q.data] = (p, sum(v.values()))
    return out


def _rows_by_data(rows) -> dict:
    return {q: (p, deg) for q, p, deg in rows}


def test_node_simple_matches_rank_one_simple(A1, D4, subtraction_simples):
    rng = random.Random(20)
    eng = Engine(A1)
    for n in range(360):
        if n < 300:
            parity = rng.randrange(2)
            levels = rng.sample(range(parity, parity + 12, 2), rng.randint(1, 4))
        else:  # levels of both parities
            levels = rng.sample(range(0, 12, 2), rng.randint(1, 2)) + rng.sample(range(1, 13, 2), rng.randint(1, 2))
        ui = tuple(sorted((s, rng.randint(1, 3)) for s in levels))
        i = rng.choice(D4.nodes)
        rows = character._node_simple(D4, i, ui)
        assert rows[0] == ((), TPoly.ONE, 0)
        assert all(p.has_nonneg_coeffs() for _, p, _ in rows)
        assert _rows_by_data(rows) == _rank_one_rows(D4, i, eng, ui, subtraction_simples), ui


def test_node_simple_is_standard_in_general_position(A2, D4, standard_rows):
    # no two levels two apart: the standard module is simple
    for L, i, ui in (
        (A2, 1, ((0, 1),)),
        (A2, 2, ((1, 3),)),
        (D4, 2, ((0, 2), (4, 1))),
        (D4, 3, ((1, 1), (5, 2), (9, 3))),
        (D4, 2, ((-4, 1), (0, 1), (6, 2))),
    ):
        simple = character._node_simple(L, i, ui)
        assert _rows_by_data(simple) == _rows_by_data(standard_rows(L, i, ui)), ui


def test_node_simple_strings_and_parity(D4):
    assert character._q_strings(((0, 2), (2, 1), (4, 2), (8, 1))) == [(0, 3), (8, 1), (0, 1), (4, 1)]
    # the string P(0 2 4) at one node: four rows with coefficient 1
    rows = character._node_simple(D4, 2, ((0, 1), (2, 1), (4, 1)))
    assert [(p, deg) for _, p, deg in rows] == [(TPoly.ONE, j) for j in range(4)]
    # levels of both parities: the product of the even and odd parts' rows
    assert character._q_strings(((0, 1), (1, 2), (2, 1), (3, 1))) == [(0, 2), (1, 2), (1, 1)]
    rows = character._node_simple(D4, 2, ((0, 1), (1, 1)))
    assert rows[0] == ((), TPoly.ONE, 0)
    a1, a2 = (monomial.a_monomial(D4, 2, s) ** -1 for s in (1, 2))
    product = ((YMonomial(), 0), (a1, 1), (a2, 1), (a1 * a2, 2))
    assert _rows_by_data(rows) == {q.data: (TPoly.ONE, deg) for q, deg in product}


# -- products ------------------------------------------------------------------

STANDARD_A2_K2 = [
    ("Y[1,0] Y[1,2]", "1"),
    ("Y[1,0] Y[1,4]^-1 Y[2,3]", "1"),
    ("Y[1,0] Y[2,5]^-1", "1"),
    ("Y[1,2]^-1 Y[1,4]^-1 Y[2,1] Y[2,3]", "1"),
    ("Y[1,2]^-1 Y[2,1] Y[2,5]^-1", "1"),
    ("Y[1,2] Y[2,3]^-1", "t^-1"),
    ("Y[1,4]^-1", "t^-1"),
    ("Y[2,1]", "t^-1"),
    ("Y[2,3]^-1 Y[2,5]^-1", "1"),
]


def test_standard_product_nine_terms(A2, engine_for, multiply_standard):
    eng = engine_for(A2)
    p1 = DrinfeldPoly.fundamental(1, 0)
    p2 = DrinfeldPoly.fundamental(1, 2)
    ch = multiply_standard(eng.fundamental_char(1, 0), p1, eng.fundamental_char(1, 2), p2)
    assert ch.poly == p1 * p2
    assert ch.terms == _terms(STANDARD_A2_K2)
    assert ch.dimension() == 9


def test_standard_product_a1_four_terms(A1, engine_for, multiply_standard):
    eng = engine_for(A1)
    p1 = DrinfeldPoly.fundamental(1, 0)
    p2 = DrinfeldPoly.fundamental(1, 2)
    ch = multiply_standard(eng.fundamental_char(1, 0), p1, eng.fundamental_char(1, 2), p2)
    assert ch.terms == _terms(
        [
            ("Y[1,0] Y[1,2]", "1"),
            ("Y[1,0] Y[1,4]^-1", "1"),
            ("1", "t^-1"),
            ("Y[1,2]^-1 Y[1,4]^-1", "1"),
        ]
    )


def test_standard_product_associative(A2, engine_for, multiply_standard):
    eng = engine_for(A2)
    ps = [
        DrinfeldPoly.fundamental(1, 0),
        DrinfeldPoly.fundamental(2, 1),
        DrinfeldPoly.fundamental(1, 2),
    ]
    chs = [eng.fundamental_char(i, s) for i, s in (r for p in ps for r in p.roots)]
    left = multiply_standard(
        multiply_standard(chs[0], ps[0], chs[1], ps[1]), ps[0] * ps[1], chs[2], ps[2]
    )
    right = multiply_standard(
        chs[0], ps[0], multiply_standard(chs[1], ps[1], chs[2], ps[2]), ps[1] * ps[2]
    )
    assert left == right


def test_star_product_matches_normalized_product(A2, A3, engine_for, multiply_standard):
    # the top-normalized twisted product against the reference product; the
    # top coefficient it divides by is t^epsilon of the two tops
    cases = [
        (A2, DrinfeldPoly.fundamental(1, 0), DrinfeldPoly.fundamental(1, 2)),
        (A2, DrinfeldPoly.fundamental(1, 0), DrinfeldPoly.fundamental(2, 1)),
        (A3, DrinfeldPoly.kr(2, 1, 0), DrinfeldPoly.kr(2, 1, 2)),
    ]
    for L, p1, p2 in cases:
        eng = engine_for(L)
        ch1, ch2 = eng.standard_char(p1), eng.standard_char(p2)
        star = star_product(L, ch1, ch2, EpsilonTable(L))
        got = _top_normalized(star, (p1 * p2).monomial())
        assert got == multiply_standard(ch1, p1, ch2, p2).terms
        tw = -epsilon(L, p1.monomial(), p2.monomial())
        assert terms_scale(star, TPoly.t_power(tw)) == got


def _naive_star(L, a: dict, b: dict) -> dict:
    """Twisted product built pair by pair from the definition of epsilon."""
    out: dict = {}
    for m1, p1 in a.items():
        for m2, p2 in b.items():
            key = m1 * m2
            out[key] = out.get(key, TPoly.ZERO) + (p1 * p2).shifted(epsilon(L, m1, m2))
    return {m: p for m, p in out.items() if p}


def test_star_product_matches_pairwise_definition(A2, A3, D4, engine_for):
    cases = [
        (A2, [(1, 1, 0), (2, 1, 1)]),
        (A2, [(1, 2, 0), (2, 2, 1), (1, 1, 4)]),
        (A3, [(2, 2, 0), (1, 1, 3)]),
        (A3, [(1, 1, 0), (3, 2, -5)]),
        (D4, [(1, 1, 0), (2, 1, 1)]),
        (D4, [(3, 2, 0), (4, 1, 9)]),
    ]
    for L, factors in cases:
        eng = engine_for(L)
        chs = [eng.kr_char_direct(i, k, s) for i, k, s in factors]
        table = EpsilonTable(L)
        fast = chs[0].terms
        slow = chs[0].terms
        for ch in chs[1:]:
            fast = star_product(L, fast, ch, table)
            slow = _naive_star(L, slow, ch.terms)
            assert fast == slow, (L, factors)


def _dominant_filter(terms: dict) -> dict:
    return {m: p for m, p in terms.items() if m.is_l_dominant()}


def test_dominant_product_matches_filtered_star_product(D4, engine_for):
    # the three products of the D4 (i=2, k=2) t-refined recursion, the
    # neighbour fold led by a unit factor as the verifier folds it
    eng = engine_for(D4)
    kr = eng.kr_char_direct
    table = EpsilonTable(D4)
    cases = [
        ([kr(2, 2, 0), kr(2, 2, 2)], 3),
        ([kr(2, 3, 0), kr(2, 1, 2)], 2),
        ([kr(2, 0), kr(1, 2, 1), kr(3, 2, 1), kr(4, 2, 1)], 1),
    ]
    for chs, count in cases:
        dom = dominant_product(D4, chs, table)
        assert len(dom) == count
        assert dom == _dominant_filter(_star_fold(D4, chs, table))
    assert dominant_product(D4, []) == {YMonomial.one(): TPoly.ONE}


@pytest.mark.parametrize(
    "family,rank,factors",
    [
        ("D", 5, [(1, 2, 0), (1, 2, 2)]),
        ("D", 5, [(2, 1, 0), (3, 1, 1)]),
        ("D", 5, [(4, 2, 0), (5, 2, 2)]),
        ("D", 5, [(1, 1, 3), (2, 1, 0), (4, 1, 1)]),
        ("E", 6, [(1, 1, 0), (1, 1, 2)]),
        ("E", 6, [(1, 2, 0), (6, 1, 3)]),
        ("E", 6, [(6, 1, 2), (1, 1, 0), (1, 1, 4)]),
    ],
)
def test_dominant_product_matches_filtered_star_product_d5_e6(family, rank, factors):
    L = build_lie_type(family, rank)
    eng = Engine(L)
    chs = [eng.kr_char_direct(i, k, s) for i, k, s in factors]
    table = EpsilonTable(L)
    dom = dominant_product(L, chs, table)
    assert dom
    assert dom == _dominant_filter(_star_fold(L, chs, table))


def _unnormalized_route(L, ch1, p1, ch2, p2) -> dict:
    """The standard product taken through unnormalized coefficients:
    multiply each factor's terms by t^tw, twist each pair by 2 * pairing_d,
    then divide by t^tw against p1 * p2.  For m = top * A^-v,
    tw(m) = d(v, u(m)) + d(u(top), v) with d(a, b) = dot_shifted(a, b, 1),
    and a product term's v is the sum of its factors' v."""

    def tw(v, m, top):
        return kernels.dot_shifted(v, m.u_map(), 1) + kernels.dot_shifted(top.u_map(), v, 1)

    mp1, mp2 = p1.monomial(), p2.monomial()
    top = (p1 * p2).monomial()
    rows = []
    for ch, mp in ((ch1, mp1), (ch2, mp2)):
        rows.append([])
        for m, c in ch.terms.items():
            v = v_factorization(L, m, mp)
            rows[-1].append((m, Counter(v), c.shifted(tw(v, m, mp))))
    out: dict = {}
    v_of: dict = {}
    for m1, v1, raw1 in rows[0]:
        for m2, v2, raw2 in rows[1]:
            key = m1 * m2
            if key not in v_of:
                v_of[key] = v1 + v2
            twist = 2 * pairing_d(L, m1, mp1, m2, mp2)
            out[key] = out.get(key, TPoly.ZERO) + (raw1 * raw2).shifted(twist)
    return {m: p.shifted(-tw(v_of[m], m, top)) for m, p in out.items() if p}


def test_standard_product_matches_unnormalized_route(A3, D4, engine_for, multiply_standard, monkeypatch):
    # the top-normalized twisted product against two oracles: the reference
    # product and the route through unnormalized coefficients
    # pairing_d factors both of its monomials on every call; memoize that
    monkeypatch.setattr(
        monomial, "v_factorization", lru_cache(maxsize=None)(monomial.v_factorization)
    )
    E6 = build_lie_type("E", 6)
    cases = [
        (engine_for(A3), [((1, 1, 0), (3, 1, 1)), ((2, 2, 0), (2, 1, 3)), ((2, 2, 0), (1, 2, 1))]),
        (engine_for(D4), [((1, 1, 0), (2, 1, 1)), ((2, 2, 0), (3, 1, 2)), ((1, 2, 0), (4, 2, 1))]),
        (Engine(E6), [((1, 1, 0), (6, 1, 1)), ((6, 1, 0), (1, 2, -1))]),
    ]
    for eng, pairs in cases:
        for a, b in pairs:
            p1, p2 = DrinfeldPoly.kr(*a), DrinfeldPoly.kr(*b)
            ch1, ch2 = eng.kr_char_direct(*a), eng.kr_char_direct(*b)
            got = _top_normalized(star_product(eng.L, ch1, ch2), (p1 * p2).monomial())
            assert got == multiply_standard(ch1, p1, ch2, p2).terms, (eng.L, p1, p2)
            assert got == _unnormalized_route(eng.L, ch1, p1, ch2, p2), (eng.L, p1, p2)


def test_specialize_t1_is_multiplicative(A2, engine_for, multiply_standard):
    eng = engine_for(A2)
    p1 = DrinfeldPoly.fundamental(1, 0)
    p2 = DrinfeldPoly.fundamental(2, 1)
    ch1, ch2 = eng.fundamental_char(1, 0), eng.fundamental_char(2, 1)
    prod = multiply_standard(ch1, p1, ch2, p2)
    assert specialize_t1(prod) == qchar_mul(specialize_t1(ch1), specialize_t1(ch2))


# -- normalization and span tests ----------------------------------------------


def test_normalized_in_A_truncates_by_depth(A1, engine_for):
    ch = engine_for(A1).kr_char_direct(1, 3)
    full = normalized_in_A(ch, 10)
    assert full[()] == TPoly.ONE
    assert len(full) == len(ch)
    shallow = normalized_in_A(ch, 1)
    assert set(shallow) == {(), (((1, 5), 1),)}
    # keys follow the spectral lattice under shifts
    shifted = normalized_in_A(ch.shift(4), 10)
    assert shifted == {
        tuple(((i, s + 4), e) for (i, s), e in key): p for key, p in full.items()
    }


def test_slice_span_accepts_engine_output(A2, engine_for):
    ch = engine_for(A2).fundamental_char(1, 0)
    assert in_span_all_nodes(ch)
    # K_t is a module: a member scaled by 2, top included, stays in it
    assert in_span_all_nodes(QtCharacter(A2, ch.poly, {m: p + p for m, p in ch.terms.items()}))


def test_slice_span_accepts_kr_and_standard(A3, D4, engine_for):
    # expansions and characters share one normalization, so the strip also
    # holds where coefficients carry powers of t
    assert in_span_all_nodes(engine_for(D4).kr_char_direct(2, 2))
    # expansions here lower up to three steps at once, so a pushed term's
    # depth must count every step
    assert in_span_all_nodes(engine_for(D4).kr_char_direct(2, 3))
    assert in_span_all_nodes(engine_for(A3).standard_char(DrinfeldPoly.kr(2, 2, 0)))
    # node-2 roots at s-2, s-1 and s
    mixed = DrinfeldPoly(((2, 0), (2, 1), (2, 2)))
    assert in_span_all_nodes(engine_for(A3).standard_char(mixed))


def test_weight_depth_matches_factorization(D4, engine_for):
    # twice a term's depth is the two_rho form of its weight gap to the top,
    # and the lowest term sits at height(w - w0 w)
    E6 = build_lie_type("E", 6)
    for L, ch in ((D4, engine_for(D4).kr_char_direct(2, 2)), (E6, Engine(E6).fundamental_char(2))):
        rho2 = two_rho(L)
        top = ch.highest
        depths = []
        for m in ch.terms:
            gap = sum(rho2[i - 1] * e for i, _, e in top.data) - sum(rho2[i - 1] * e for i, _, e in m.data)
            depth = sum(v_factorization(L, m, top).values())
            assert gap == 2 * depth
            depths.append(depth)
        assert max(depths) == sum(rho2[i - 1] * e for i, _, e in top.data)


def test_slice_span_rejects_truncations(A2, engine_for):
    ch = engine_for(A2).fundamental_char(1, 0)
    drop_mid = {
        m: p for m, p in ch.terms.items() if m != parse_monomial("Y[1,2]^-1 Y[2,1]")
    }
    assert not in_span_all_nodes(QtCharacter(A2, ch.poly, drop_mid))
    drop_last = {m: p for m, p in ch.terms.items() if m != parse_monomial("Y[2,3]^-1")}
    assert not in_span_all_nodes(QtCharacter(A2, ch.poly, drop_last))
    # a missing top, or a dominant term not below the top, is no member,
    # and the gate says so without raising
    drop_top = {m: p for m, p in ch.terms.items() if m != ch.highest}
    assert not in_span_all_nodes(QtCharacter(A2, ch.poly, drop_top))
    stray = {**ch.terms, parse_monomial("Y[1,6]"): TPoly.ONE}
    assert not in_span_all_nodes(QtCharacter(A2, ch.poly, stray))


def test_gate_refuses_member_lacking_a_reached_dominant_term(A1, standard_strip):
    # the node-1 simple of Y[1,0]^2 Y[1,2] holds the dominant Y[1,0]; less
    # c times the simple of Y[1,0], it is a member of K_t without Y[1,0]
    def simple(m):
        rows = _node_simple(A1, 1, tuple((s, u) for _, s, u in m.data))
        return {m * YMonomial._wrap(q): p for q, p, _ in rows}

    top, low = parse_monomial("Y[1,0]^2 Y[1,2]"), parse_monomial("Y[1,0]")
    terms = simple(top)
    c = terms[low]
    for m, p in simple(low).items():
        terms[m] = terms.get(m, TPoly.ZERO) - c * p
    ch = QtCharacter(A1, DrinfeldPoly(((1, 0), (1, 0), (1, 2))), terms)
    assert low not in ch.terms and standard_strip(ch, 1)
    # the gate's run reaches Y[1,0] with nothing pinned there, so it
    # refuses the member, without raising: a refusal only sends a check to
    # its full sides
    assert not in_span_all_nodes(ch)


def _perturbed(ch: QtCharacter):
    """ch, then ch with each term dropped, shifted by t or raised by 1."""
    yield ch
    for m, p in ch.items():
        for q in (TPoly.ZERO, p.shifted(1), p + TPoly.ONE):
            yield QtCharacter(ch.L, ch.poly, {**ch.terms, m: q})


def _strip_decision(standard_strip, ch) -> bool:
    return all(standard_strip(ch, i) for i in ch.L.nodes)


@pytest.mark.parametrize(
    "family,rank,verb,args,terms",
    [
        ("A", 2, "kr_char_direct", (1, 2), 6),
        ("A", 3, "kr_char_direct", (2, 2), 20),
        ("D", 4, "kr_char_direct", (2, 2), 307),
        # node-2 levels of both parities, so mixed-parity rows
        ("A", 3, "standard_char", (DrinfeldPoly(((2, 0), (2, 1), (2, 2))),), 210),
        ("A", 2, "standard_char", (DrinfeldPoly(((1, 0), (1, 2), (2, 1))),), 21),
        ("A", 2, "simple_char", (DrinfeldPoly(((1, 0), (1, 1), (1, 2), (2, 1), (2, 3))),), 90),
    ],
)
def test_slice_span_decides_like_standard_strip(engines, standard_strip, family, rank, verb, args, terms):
    # the gate rebuilds a character from its dominant terms and the
    # reference strips it with the signed standard rows at every node; both
    # decide K_t membership, so they must agree on a member and on every
    # perturbation of it
    ch = getattr(engines[(family, rank)], verb)(*args)
    assert len(ch) == terms
    decided = []
    for v in _perturbed(ch):
        got = in_span_all_nodes(v)
        assert got == _strip_decision(standard_strip, v), v.items()
        decided.append(got)
    # the member passes, and every perturbation fails
    assert decided == [True] + [False] * 3 * terms


def test_slice_span_decides_like_standard_strip_on_members(A2, D5, engine_for, standard_strip):
    kr = engine_for(A2).kr_char_direct(1, 2)
    # the last term raised to 2, as the perturbed cache entry of
    # test_perturbed_cache_entry_fails_membership_gate holds it
    last, p = kr.items()[-1]
    perturbed = QtCharacter(A2, kr.poly, {**kr.terms, last: p + TPoly.ONE})
    # D5 KR(3,2) and the node-1 fundamentals of E6, E7 and E8 (3,875 terms)
    chars = [engine_for(D5).kr_char_direct(3, 2)]
    chars += [Engine(build_lie_type("E", n)).fundamental_char(1) for n in (6, 7, 8)]
    chars.append(perturbed)
    got = [in_span_all_nodes(ch) for ch in chars]
    assert got == [True] * 4 + [False]
    assert got == [_strip_decision(standard_strip, ch) for ch in chars]


# -- finite-type restriction -----------------------------------------------------


def test_restrict_to_g(A2, engine_for):
    g = restrict_to_g(engine_for(A2).fundamental_char(1, 0))
    assert g.terms == {(1, 0): 1, (-1, 1): 1, (0, -1): 1}
    assert g.dimension() == 3
    assert g.coeff((1, 0)) == 1 and g.coeff((5, 5)) == 0


def test_gcharacter_ring(A2, engine_for):
    g = restrict_to_g(engine_for(A2).fundamental_char(1, 0))
    h = restrict_to_g(engine_for(A2).fundamental_char(2, 0))
    assert (g * h).dimension() == 9
    assert (g + h) - h == g
    assert g.scaled(3).dimension() == 9
    assert GCharacter.one(A2).dimension() == 1
    assert (g - g) == GCharacter(A2)
    assert not (g - g)


def test_restriction_is_shift_blind(A2, engine_for):
    eng = engine_for(A2)
    assert restrict_to_g(eng.fundamental_char(1, 0)) == restrict_to_g(
        eng.fundamental_char(1, 6)
    )


# -- text format ----------------------------------------------------------------


def test_qtc_round_trip(A2, engine_for, tmp_path):
    eng = engine_for(A2)
    for ch in (
        eng.fundamental_char(1, 0),
        eng.kr_char_direct(1, 3),
        eng.standard_char(DrinfeldPoly.kr(1, 2, 0)),
    ):
        text = dumps_qtc(ch)
        back = loads_qtc(text)
        assert back == ch
        assert dumps_qtc(back) == text
        path = tmp_path / "ch.qtc"
        write_qtc(path, ch)
        assert read_qtc(path) == ch


def test_qtc_header_and_layout(A1, engine_for):
    text = dumps_qtc(engine_for(A1).fundamental_char(1, 0))
    lines = text.strip().split("\n")
    assert lines[0] == "# qtc v1"
    assert lines[1] == "type A 1"
    assert lines[2] == "P 1: 0"
    assert lines[3] == "term 1 : Y[1,0]"
    assert lines[4] == "term 1 : Y[1,2]^-1"


def test_qtc_rejects_malformed_input():
    good = "# qtc v1\ntype A 1\nP 1: 0\nterm 1 : Y[1,0]\n"
    loads_qtc(good)
    for bad in (
        "",
        "# qtc v2\ntype A 1\nP 1: 0\nterm 1 : Y[1,0]\n",
        "# qtc v1\ntype Q 1\nP 1: 0\nterm 1 : Y[1,0]\n",
        "# qtc v1\ntype A 1\nP 7: 0\nterm 1 : Y[1,0]\n",
        "# qtc v1\ntype A 1\nP 1: 0\nterm 1 : Y[9,0]\n",
        "# qtc v1\ntype A 1\nP 1: 0\nterm  : Y[1,0]\n",
        "# qtc v1\ntype A 1\nP 1: 0\nterm 1 : Y[1,0]\nterm 1 : Y[1,0]\n",
        "# qtc v1\ntype A 1\nP 1: 0\nmystery line\n",
    ):
        with pytest.raises(ParseError):
            loads_qtc(bad)


def test_qtc_trailer_counts_terms(A2, engine_for, tmp_path):
    ch = engine_for(A2).kr_char_direct(1, 2)
    path = tmp_path / "ch.qtc"
    write_qtc(path, ch)
    text = path.read_text()
    assert text == dumps_qtc(ch) + f"end {len(ch)}\n"
    assert loads_qtc(text) == ch
    # plain qtc text has no trailer: loads_qtc takes it, read_qtc does not
    path.write_text(dumps_qtc(ch))
    with pytest.raises(ParseError, match="trailer"):
        read_qtc(path)
    body = text.splitlines(keepends=True)[:-1]
    n = len(ch)
    # a wrong count, and a dropped term under the right count
    for bad in (body + [f"end {n - 1}\n"], body[:-1] + [f"end {n}\n"]):
        with pytest.raises(ParseError, match="trailer"):
            loads_qtc("".join(bad))


# -- module-level convenience wrappers -------------------------------------------


def test_module_level_wrappers_share_default_engine(A2):
    a = fundamental_char(A2, 1, 0)
    b = fundamental_char(A2, 1, 0)
    assert a == b
    assert kr_char_direct(A2, 1, 1) == a
    assert standard_char(A2, DrinfeldPoly.fundamental(1, 0)) == a


def test_character_shift_and_validate(A2, engine_for):
    ch = engine_for(A2).kr_char_direct(1, 2)
    sh = ch.shift(3)
    assert sh.poly == DrinfeldPoly.kr(1, 2, 3)
    assert sh.highest == ch.highest.shift(3)
    sh.validate()
    assert sh.shift(-3) == ch
    assert {m.shift(-3): p for m, p in sh.items()} == dict(ch.items())
