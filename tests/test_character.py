from __future__ import annotations

import hashlib
from collections import Counter
from functools import lru_cache
import operator
import random
import re

import pytest

from qtchar import (
    DomainError,
    DrinfeldPoly,
    Engine,
    EpsilonTable,
    GCharacter,
    ParseError,
    QtCharacter,
    TPoly,
    UnsupportedType,
    YMonomial,
    build_lie_type,
    dominant_product,
    dumps_qtc,
    loads_qtc,
    normalized_in_A,
    parse_monomial,
    parse_tpoly,
    read_qtc,
    restrict_to_g,
    specialize_t1,
    star_product,
    two_rho,
    v_factorization,
    verify_t_system_t,
    write_qtc,
)
from qtchar import character, engine, monomial
from qtchar.character import _node_simple, _star_fold
from qtchar.engine import _LevelKey, _expansion_tail, _fixpoint
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


def test_drinfeld_poly_refuses_non_integers():
    assert DrinfeldPoly([(1, 0), (1, 0)]).monomial() == parse_monomial("Y[1,0]^2")
    for roots in ([(1, 0.7)], [(1.0, 0)], [("1", 0)]):
        with pytest.raises(DomainError, match="is not an integer"):
            DrinfeldPoly(roots)


# -- single-node expansion -----------------------------------------------------


def _l_rows(L, i, ui) -> list:
    """_node_simple's rows of the node-i pattern ui as rows of L, the way
    the fixpoint reads them: (data of term / m, coefficient, step count),
    with ui translated to least level lo = 0 and each step (s, n) read as
    A(i, lo+s)^-n."""
    lo = ui[0][0] if ui else 0
    out = []
    for steps, p, deg in _node_simple(tuple((s - lo, u) for s, u in ui)):
        q = YMonomial()
        for s, n in steps:
            q = q * monomial.a_monomial(L, i, lo + s) ** -n
        out.append((q.data, p, deg))
    return out


def _expand(rows, L, m: YMonomial, i: int) -> dict:
    """The term dict of m's node-i expansion by a row builder."""
    ui = tuple((s, u) for j, s, u in m.data if j == i)
    return {m * YMonomial._wrap(q): p for q, p, _ in rows(L, i, ui)}


def test_expand_one_variable(A2, standard_rows):
    m = parse_monomial("Y[1,0]")
    want = _terms([("Y[1,0]", "1"), ("Y[1,2]^-1 Y[2,1]", "1")])
    assert _expand(standard_rows, A2, m, 1) == want
    assert _expand(_l_rows, A2, m, 1) == want


def _root_datum(m: YMonomial) -> DrinfeldPoly:
    return DrinfeldPoly((i, s) for i, s, e in m.data for _ in range(e))


def _assert_expansion_is_standard(L, eng, m: YMonomial, standard_rows):
    # in rank one the node-1 standard expansion of a dominant monomial is
    # the standard character of its root datum, coefficients included
    assert _expand(standard_rows, L, m, 1) == eng.standard_char(_root_datum(m)).terms, m


def test_expand_square_has_balanced_binomial(A1, engine_for, standard_rows, t_binomial):
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


def _codec_for(L, monos) -> _LevelKey:
    """A _LevelKey whose window holds every factor of monos."""
    factors = [f for m in monos for f in m.data]
    lo, hi = min(s for _, s, _ in factors), max(s for _, s, _ in factors)
    return _LevelKey(L.rank, lo, hi, max(abs(e) for _, _, e in factors))


def _block(codec, m: YMonomial, i: int) -> int:
    return (codec.key(m.data) >> codec.shifts[i - 1]) & codec.mask


def _block_rows(codec):
    """A row builder for _expansion_tail: the rows of L of a block's pattern."""
    return lambda L, i, block: _l_rows(L, i, codec.pattern(block))


def test_expand_requires_dominance(A2):
    monos = [parse_monomial(text) for text in ("Y[1,0]^-1", "Y[2,0]^-1")]
    codec = _codec_for(A2, monos)
    with pytest.raises(NotDominant):
        _expansion_tail(A2, 1, _block(codec, monos[0], 1), {}, _block_rows(codec))
    # other-node exponents are unconstrained
    assert _expansion_tail(A2, 1, _block(codec, monos[1], 1), {}, _block_rows(codec)) == [((), TPoly.ONE, 0)]


# -- memoized node expansion ----------------------------------------------------


def _popped_monomials(L, poly, monkeypatch, run=None) -> list:
    """Every monomial the fixpoint pops for poly, in run() or by default a
    run of its own, with repeats: the run decodes every key it reached
    once, when it builds its output, and it pops every key it reaches."""
    seen = []

    class Recording(engine._LevelKey):
        def decode(self, k):
            out = super().decode(k)
            seen.append(YMonomial._wrap(out))
            return out

    with monkeypatch.context() as mp:
        mp.setattr(engine, "_LevelKey", Recording)
        (run or (lambda: _fixpoint(L, poly)))()
    return sorted(seen)


def _memo_tail(L, codec, i, m, memo) -> list:
    return _expansion_tail(L, i, _block(codec, m, i), memo, _block_rows(codec))


def _fresh_tail(L, i, m) -> list:
    return _l_rows(L, i, tuple((s, u) for j, s, u in m.data if j == i))


def test_memoized_tail_matches_fresh_tail(D4, A1, A2, monkeypatch, is_i_dominant):
    # one memo across A1 levels of both parities, and across A2 monomials
    # that differ only at node 1 or agree only at node 1; the last shares
    # its node-2 exponents with node 1 of the first
    a1 = ("Y[1,0] Y[1,1] Y[1,2]", "Y[1,1] Y[1,2] Y[1,3]", "Y[1,0] Y[1,2]", "Y[1,0]^2 Y[1,1]")
    a2 = ("Y[1,0] Y[2,3]", "Y[1,2] Y[2,3]", "Y[1,0]^2 Y[2,3]", "Y[1,0] Y[2,1]", "Y[1,0] Y[2,0]")
    for L, texts, keys in ((A1, a1, 4), (A2, a2, 6)):
        memo: dict = {}
        monos = [parse_monomial(text) for text in texts]
        codec = _codec_for(L, monos)
        for _ in range(2):  # the second round reads every row from the memo
            for m in monos:
                for i in L.nodes:
                    if is_i_dominant(m, i):
                        assert _memo_tail(L, codec, i, m, memo) == _fresh_tail(L, i, m), (i, m)
        assert len(memo) == keys
    # every i-dominant monomial the fixpoint pops
    E6 = build_lie_type("E", 6)
    cases = [(D4, DrinfeldPoly.kr(2, 3, 0)), (E6, DrinfeldPoly.fundamental(1, 0))]
    for L, poly in cases:
        memo = {}
        checked = 0
        popped = _popped_monomials(L, poly, monkeypatch)
        codec = _codec_for(L, popped)
        for m in popped:
            for i in L.nodes:
                if is_i_dominant(m, i):
                    assert _memo_tail(L, codec, i, m, memo) == _fresh_tail(L, i, m), (i, m)
                    checked += 1
        assert len(memo) < checked


def test_fixpoint_builds_each_node_pattern_once(D4, monkeypatch):
    # a run looks up the rows of each (node, pattern) once, and the shared
    # rank-one table serves every node and translate of a pattern: from an
    # empty cache, each translation class is built once across runs
    lookups = []
    tails = []
    inner_rows = engine._node_simple
    inner_tail = engine._expansion_tail

    def count_rows(ui):
        lookups.append(ui)
        return inner_rows(ui)

    def count_tails(*args, **kw):
        tails.append(args[1:3])
        return inner_tail(*args, **kw)

    monkeypatch.setattr(engine, "_node_simple", count_rows)
    monkeypatch.setattr(engine, "_expansion_tail", count_tails)
    character._node_simple.cache_clear()
    ch = _fixpoint(D4, DrinfeldPoly.kr(2, 3, 0))
    assert len(ch) == 2043
    assert len(lookups) == len(set(tails)) == 117
    assert len(tails) > 10 * len(lookups)
    assert character._node_simple.cache_info().misses == 39
    runs = []
    inner_fixpoint = engine._fixpoint

    def count_runs(*args):
        runs.append(args)
        return inner_fixpoint(*args)

    monkeypatch.setattr(engine, "_fixpoint", count_runs)
    for call, run_count, patterns, tables in (
        (lambda eng: eng.kr_char_direct(2, 4), 1, 211, 77),
        (lambda eng: eng.kl_decompose(DrinfeldPoly.kr(2, 3, 0)), 7, 379, 46),
    ):
        character._node_simple.cache_clear()
        lookups.clear()
        runs.clear()
        call(Engine(D4))
        assert (len(runs), len(lookups), character._node_simple.cache_info().misses) == (run_count, patterns, tables)
        assert len(set(lookups)) == tables
        assert all(ui[0][0] == 0 for ui in lookups if ui)


def test_fixpoint_pops_only_terms(D4, D5, monkeypatch):
    # simple rows carry nonnegative coefficients, so nothing the fixpoint
    # visits cancels: it pops exactly the terms of the character
    E6 = build_lie_type("E", 6)
    for L, i, k in ((D4, 2, 3), (D5, 3, 2), (E6, 1, 2)):
        poly = DrinfeldPoly.kr(i, k, 0)
        popped = _popped_monomials(L, poly, monkeypatch)
        assert popped == sorted(_fixpoint(L, poly).terms), (L, i, k)


def test_slice_span_pushes_only_terms(D4, D5, engine_for, in_span_all_nodes, monkeypatch):
    # so does the membership oracle's run, pinned to the dominant terms of a
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


def _moved(rows, d: int) -> list:
    """Rank-one rows with every step's level moved by d."""
    return [(tuple((s + d, n) for s, n in steps), p, deg) for steps, p, deg in rows]


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
        rows = character._node_simple(ui)
        assert rows[0] == ((), TPoly.ONE, 0)
        assert all(p.has_nonneg_coeffs() for _, p, _ in rows)
        assert all(deg == sum(c for _, c in steps) for steps, _, deg in rows)
        l_rows = _rows_by_data(_l_rows(D4, i, ui))
        assert l_rows == _rank_one_rows(D4, i, eng, ui, subtraction_simples), ui
        # the cache rests on translation: moved by an even and by an odd d,
        # the pattern's rank-one rows move by d and are otherwise unchanged,
        # and its rows of L move alike
        for d in (rng.randrange(-20, 21, 2), rng.randrange(-19, 20, 2)):
            moved = tuple((s + d, u) for s, u in ui)
            assert _rows_by_data(_moved(character._node_simple(moved), -d)) == _rows_by_data(rows), (ui, d)
            shifted = {YMonomial._wrap(q).shift(d).data: v for q, v in l_rows.items()}
            assert _rows_by_data(_l_rows(D4, i, moved)) == shifted, (ui, d)


def test_node_simple_is_standard_in_general_position(A2, D4, standard_rows):
    # no two levels two apart: the standard module is simple
    for L, i, ui in (
        (A2, 1, ((0, 1),)),
        (A2, 2, ((1, 3),)),
        (D4, 2, ((0, 2), (4, 1))),
        (D4, 3, ((1, 1), (5, 2), (9, 3))),
        (D4, 2, ((-4, 1), (0, 1), (6, 2))),
    ):
        simple = _l_rows(L, i, ui)
        assert _rows_by_data(simple) == _rows_by_data(standard_rows(L, i, ui)), ui


def test_node_simple_strings_and_parity(D4):
    assert character._q_strings(((0, 2), (2, 1), (4, 2), (8, 1))) == [(0, 3), (8, 1), (0, 1), (4, 1)]
    # the string P(0 2 4) at one node: four rows with coefficient 1
    rows = character._node_simple(((0, 1), (2, 1), (4, 1)))
    assert [(p, deg) for _, p, deg in rows] == [(TPoly.ONE, j) for j in range(4)]
    # levels of both parities: the product of the even and odd parts' rows
    assert character._q_strings(((0, 1), (1, 2), (2, 1), (3, 1))) == [(0, 2), (1, 2), (1, 1)]
    rows = _l_rows(D4, 2, ((0, 1), (1, 1)))
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


def test_star_product_matches_normalized_product(
    A2, A3, engine_for, multiply_standard, terms_scale, epsilon
):
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
        table = EpsilonTable(L)
        star = star_product(L, ch1, ch2, table)
        got = _star_fold(L, [ch1, ch2], table)
        assert got == multiply_standard(ch1, p1, ch2, p2).terms
        tw = -epsilon(L, p1.monomial(), p2.monomial())
        assert terms_scale(star, TPoly.t_power(tw)) == got


def _naive_star(L, a: dict, b: dict, epsilon) -> dict:
    """Twisted product built pair by pair from the definition of epsilon."""
    out: dict = {}
    for m1, p1 in a.items():
        for m2, p2 in b.items():
            key = m1 * m2
            out[key] = out.get(key, TPoly.ZERO) + (p1 * p2).shifted(epsilon(L, m1, m2))
    return {m: p for m, p in out.items() if p}


def test_star_product_matches_pairwise_definition(A2, A3, D4, engine_for, epsilon):
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
            slow = _naive_star(L, slow, ch.terms, epsilon)
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
    assert dominant_product(D4, [], table) == {YMonomial(): TPoly.ONE}


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
        ("E", 7, [(7, 1, 0), (7, 1, 2)]),
        ("E", 7, [(1, 1, 0), (7, 1, 3)]),
        ("E", 8, [(8, 1, 0), (8, 1, 2)]),
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


def test_products_refuse_a_table_of_another_type(A2, A3, engine_for):
    # an A3 table twists by A3's exponents: on this A2 pair it changes 2 of
    # the 9 terms, so it must be refused rather than used
    eng = engine_for(A2)
    a, b = eng.fundamental_char(1, 0), eng.fundamental_char(1, 2)
    assert len(star_product(A2, a, b, EpsilonTable(A2))) == 9
    foreign = EpsilonTable(A3)
    with pytest.raises(DomainError, match="table of A3, not A2"):
        star_product(A2, a, b, foreign)
    for factors in ([a, b], []):
        with pytest.raises(DomainError, match="table of A3, not A2"):
            dominant_product(A2, factors, foreign)


def _unnormalized_route(L, ch1, p1, ch2, p2, pairing_d, dot_shifted) -> dict:
    """The standard product taken through unnormalized coefficients:
    multiply each factor's terms by t^tw, twist each pair by 2 * pairing_d,
    then divide by t^tw against p1 * p2.  For m = top * A^-v,
    tw(m) = d(v, u(m)) + d(u(top), v) with d(a, b) = dot_shifted(a, b, 1),
    and a product term's v is the sum of its factors' v."""

    def tw(v, m, top):
        return dot_shifted(v, m.u_map(), 1) + dot_shifted(top.u_map(), v, 1)

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


def test_standard_product_matches_unnormalized_route(
    A3, D4, engine_for, multiply_standard, pairing_d, dot_shifted, monkeypatch
):
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
            got = _star_fold(eng.L, [ch1, ch2], eng.table)
            assert got == multiply_standard(ch1, p1, ch2, p2).terms, (eng.L, p1, p2)
            assert got == _unnormalized_route(
                eng.L, ch1, p1, ch2, p2, pairing_d, dot_shifted
            ), (eng.L, p1, p2)


def test_specialize_t1_is_multiplicative(A2, engine_for, multiply_standard, qchar_mul):
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


def test_slice_span_accepts_engine_output(A2, engine_for, in_span_all_nodes):
    ch = engine_for(A2).fundamental_char(1, 0)
    assert in_span_all_nodes(ch)
    # K_t is a module: a member scaled by 2, top included, stays in it
    assert in_span_all_nodes(QtCharacter(A2, ch.poly, {m: p + p for m, p in ch.terms.items()}))


def test_slice_span_accepts_kr_and_standard(A3, D4, engine_for, in_span_all_nodes):
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


def test_slice_span_rejects_truncations(A2, engine_for, in_span_all_nodes):
    ch = engine_for(A2).fundamental_char(1, 0)
    drop_mid = {
        m: p for m, p in ch.terms.items() if m != parse_monomial("Y[1,2]^-1 Y[2,1]")
    }
    assert not in_span_all_nodes(QtCharacter(A2, ch.poly, drop_mid))
    drop_last = {m: p for m, p in ch.terms.items() if m != parse_monomial("Y[2,3]^-1")}
    assert not in_span_all_nodes(QtCharacter(A2, ch.poly, drop_last))
    # a missing top, or a dominant term not below the top, is no member,
    # and the oracle says so without raising
    drop_top = {m: p for m, p in ch.terms.items() if m != ch.highest}
    assert not in_span_all_nodes(QtCharacter(A2, ch.poly, drop_top))
    stray = {**ch.terms, parse_monomial("Y[1,6]"): TPoly.ONE}
    assert not in_span_all_nodes(QtCharacter(A2, ch.poly, stray))


def test_gate_refuses_member_lacking_a_reached_dominant_term(A1, standard_strip, in_span_all_nodes):
    # the node-1 simple of Y[1,0]^2 Y[1,2] holds the dominant Y[1,0]; less
    # c times the simple of Y[1,0], it is a member of K_t without Y[1,0]
    def simple(m):
        rows = _l_rows(A1, 1, tuple((s, u) for _, s, u in m.data))
        return {m * YMonomial._wrap(q): p for q, p, _ in rows}

    top, low = parse_monomial("Y[1,0]^2 Y[1,2]"), parse_monomial("Y[1,0]")
    terms = simple(top)
    c = terms[low]
    for m, p in simple(low).items():
        terms[m] = terms.get(m, TPoly.ZERO) - c * p
    ch = QtCharacter(A1, DrinfeldPoly(((1, 0), (1, 0), (1, 2))), terms)
    assert low not in ch.terms and standard_strip(ch, 1)
    # the oracle's run reaches Y[1,0] with nothing pinned there, so it
    # refuses the member, without raising
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
def test_slice_span_decides_like_standard_strip(
    engines, standard_strip, in_span_all_nodes, family, rank, verb, args, terms
):
    # the oracle rebuilds a character from its dominant terms and the
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


def test_slice_span_decides_like_standard_strip_on_members(A2, D5, engine_for, standard_strip, in_span_all_nodes):
    kr = engine_for(A2).kr_char_direct(1, 2)
    # the last term raised to 2, as in the edited cache entry of
    # test_digest_less_cache_entry_is_recomputed
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
    assert (g + g + g).dimension() == 9
    assert GCharacter.one(A2).dimension() == 1
    assert (g - g) == GCharacter(A2)
    assert not (g - g)


def test_gcharacter_refuses_another_type_and_bad_weights(A2):
    # an A2 character plus an A3 one used to hold the weight (0, 0, 1), and
    # their product was cut short by zip
    A3 = build_lie_type("A", 3)
    g = GCharacter(A2, {(1, 0): 1})
    h = GCharacter(A3, {(0, 0, 1): 2})
    for a, b in ((g, h), (h, g)):
        for combine in (operator.add, operator.sub, operator.mul):
            with pytest.raises(DomainError, match="character combined with"):
                combine(a, b)
    with pytest.raises(DomainError, match="combined with int"):
        g + 1
    for w in ((0, 0, 1), (1,), ()):
        with pytest.raises(DomainError, match="coordinates, but A2 has rank 2"):
            GCharacter(A2, {(1, 0): 1, w: 1})
    assert GCharacter(A2, {(0, 0, 1): 0}) == GCharacter(A2)  # zero terms are dropped first
    assert (g + g).terms == {(1, 0): 2} and (g * g).terms == {(2, 0): 1}


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
    # int refuses a numeral past 4,300 digits with a bare ValueError
    big = "1" * 5000
    for bad in (
        f"# qtc v1\ntype A {big}\nterm 1 : 1\n",
        f"# qtc v1\ntype A 1\nP {big}: 0\nterm 1 : Y[1,0]\n",
        f"# qtc v1\ntype A 1\nP 1: -{big}\nterm 1 : Y[1,0]\n",
        good + f"end {big} {character._cache_digest(good.encode())}\n",
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


def _reference_monomial(text: str) -> YMonomial:
    """The factor text as specified, one regex match per token: factors in
    any order, a repeated (node, level) adds its exponents, a zero drops."""
    if text.strip() == "1":
        return YMonomial()
    exps: Counter = Counter()
    for tok in text.split():
        i, s, e = re.fullmatch(r"Y\[(-?\d+),(-?\d+)\](?:\^(-?\d+))?", tok).groups()
        exps[int(i), int(s)] += int(e or 1)
    return YMonomial((i, s, e) for (i, s), e in exps.items())


@pytest.mark.parametrize(
    "text",
    [
        "Y[2,1] Y[1,0]",
        "Y[1,0] Y[2,1] Y[1,0]^2",
        "Y[1,0]^-1 Y[2,3] Y[1,0]",
        "Y[1,2]^0 Y[2,1]",
        "Y[1,3]^1",
        "1",
        "  Y[2,-1]^-2    Y[1,4]   Y[2,-1] ",
    ],
)
def test_reader_takes_non_canonical_factor_text(text):
    expected = _reference_monomial(text)
    assert parse_monomial(text) == expected
    ch = loads_qtc(f"# qtc v1\ntype A 2\nP 1: 0\nterm 2+t^-1 : {text}\n")
    assert ch.terms == {expected: parse_tpoly("2+t^-1")}


def test_reader_errors_keep_their_messages():
    line = "term 1 : Y[1,0] Y[2,0]"
    for _ in range(2):  # a refused factor is refused again, not remembered
        with pytest.raises(ParseError, match=r"^node index must be positive in 'Y\[0,1\]'$"):
            parse_monomial("Y[0,1]")
        with pytest.raises(ParseError, match=r"^bad monomial factor 'Z\[1,0\]'$"):
            loads_qtc("# qtc v1\ntype A 1\nterm 1 : Y[1,0] Z[1,0]\n")
        with pytest.raises(ParseError, match=f"^node out of range in {re.escape(repr(line))}$"):
            loads_qtc(f"# qtc v1\ntype A 1\nP 1: 0\n{line}\n")


def test_cache_entry_reads_as_fixpoint_and_writes_back(D4, tmp_path):
    Engine(D4, str(tmp_path)).kr_char_direct(2, 3)
    (path,) = tmp_path.glob("*.qtc")
    text = path.read_text()
    back = read_qtc(path)
    assert back == _fixpoint(D4, DrinfeldPoly.kr(2, 3, 0))
    write_qtc(path, back)
    assert path.read_text() == text


def test_warm_t_system_parses_each_distinct_factor_once(D4, tmp_path):
    fill = Engine(D4, str(tmp_path))
    chars = [fill.kr_char_direct(i, k) for i, k in ((2, 1), (2, 2), (2, 3), (1, 2))]
    tokens = [
        tok
        for path in tmp_path.glob("*.qtc")
        for ln in path.read_text().splitlines()
        if ln.startswith("term ")
        for tok in ln.split(" : ", 1)[1].split()
    ]
    # the four entries hold 20,552 factors, but only 74 distinct ones
    assert (len(tokens), len(set(tokens))) == (20552, 74)
    monomial._parse_factor.cache_clear()
    assert verify_t_system_t(D4, 2, 2, Engine(D4, str(tmp_path))).ok
    info = monomial._parse_factor.cache_info()
    assert (info.misses, info.hits + info.misses) == (74, 20552)
    monomial._format_factor.cache_clear()
    for ch in chars:
        dumps_qtc(ch)
    assert monomial._format_factor.cache_info().misses == 74


def test_qtc_refuses_a_rank_past_the_bound(A1, engine_for, tmp_path):
    body = "# qtc v1\ntype A 99999999\nterm 1 : 1\n"
    with pytest.raises(UnsupportedType):
        loads_qtc(body)
    # a sealed entry is refused too, since the digest does not say who wrote
    # it; the engine recomputes and rewrites it
    eng = Engine(A1, str(tmp_path))
    path = eng._cache_path("fund_1")
    with open(path, "w") as fp:
        fp.write(body + f"end 1 {character._cache_digest(body.encode())}\n")
    with pytest.raises(UnsupportedType):
        read_qtc(path)
    assert eng.kr_char_direct(1, 1) == engine_for(A1).kr_char_direct(1, 1)
    assert read_qtc(path).L == A1


def test_qtc_trailer_counts_terms(A2, engine_for, tmp_path):
    ch = engine_for(A2).kr_char_direct(1, 2)
    path = tmp_path / "ch.qtc"

    def sealed(body: str, n: int) -> str:
        # the trailer: the term count and the digest of the text above it,
        # prefixed by the cache-format tag
        digest = hashlib.sha256(b"qtchar cache 1\n" + body.encode()).hexdigest()
        return body + f"end {n} {digest}\n"

    write_qtc(path, ch)
    text = path.read_text()
    assert text == sealed(dumps_qtc(ch), len(ch))
    assert loads_qtc(text) == ch
    # every character gets the same trailer, a parsed one included
    write_qtc(path, loads_qtc(text))
    assert path.read_text() == text
    # a wrong digest, and an edited term under the right one
    digest = text.rsplit(" ", 1)[1].strip()
    edited = text.replace("term 1 :", "term 2 :", 1)
    for bad in (text.replace(digest, digest[::-1]), edited):
        with pytest.raises(ParseError, match="digest"):
            loads_qtc(bad)
        path.write_text(bad)
        with pytest.raises(ParseError, match="digest"):
            read_qtc(path)
    # plain qtc text has no trailer: loads_qtc takes it, read_qtc does not
    assert loads_qtc(dumps_qtc(ch)) == ch
    path.write_text(dumps_qtc(ch))
    with pytest.raises(ParseError, match="trailer"):
        read_qtc(path)
    # a count without a digest is refused by either reader, as such
    count_only = dumps_qtc(ch) + f"end {len(ch)}\n"
    message = f"count-only trailer 'end {len(ch)}' lacks its digest"
    with pytest.raises(ParseError, match=message):
        loads_qtc(count_only)
    path.write_text(count_only)
    with pytest.raises(ParseError, match=message):
        read_qtc(path)
    body = text.splitlines(keepends=True)[:-1]
    n = len(ch)
    # a wrong count, and a dropped term under the right count, each with
    # the digest of its own body, so that only the count is wrong
    for bad in (sealed("".join(body), n - 1), sealed("".join(body[:-1]), n)):
        with pytest.raises(ParseError, match="trailer"):
            loads_qtc(bad)


def test_character_relabel(A3, D4, engine_for):
    ch = engine_for(A3).kr_char_direct(1, 2, 1)
    flip = (3, 2, 1)
    image = ch.relabel(flip)
    assert image.poly == DrinfeldPoly.kr(3, 2, 1)
    assert image.highest == ch.highest.relabel(flip) == parse_monomial("Y[3,1] Y[3,3]")
    assert image.relabel(flip) == ch
    assert {m.relabel(flip): p for m, p in ch.items()} == image.terms
    assert ch.relabel((1, 2, 3)) is ch
    # only a diagram automorphism of the character's own type relabels it
    for p in ((2, 1, 3), (1, 2, 3, 4)):
        with pytest.raises(DomainError, match="not a diagram automorphism of A3"):
            ch.relabel(p)
    fund = engine_for(D4).fundamental_char(1)
    assert fund.relabel((4, 2, 1, 3)).poly == DrinfeldPoly.fundamental(4, 0)


def test_character_shift_and_validate(A2, engine_for, validate):
    ch = engine_for(A2).kr_char_direct(1, 2)
    sh = ch.shift(3)
    assert sh.poly == DrinfeldPoly.kr(1, 2, 3)
    assert sh.highest == ch.highest.shift(3)
    validate(sh)
    assert sh.shift(-3) == ch
    assert {m.shift(-3): p for m, p in sh.items()} == dict(ch.items())
