from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import time

import pytest

from qtchar import (
    DomainError,
    DrinfeldPoly,
    Engine,
    InconsistentExpansion,
    InternalError,
    QtCharacter,
    TPoly,
    YMonomial,
    build_lie_type,
    diagram_automorphisms,
    dual_nodes,
    parse_monomial,
    parse_tpoly,
    read_qtc,
    two_rho,
    write_qtc,
)
import qtchar.engine
from qtchar import kernels
from qtchar.character import _star_fold
from qtchar.engine import _LevelKey, _fixpoint, _form, _l_row


def test_fundamental_a2_exact(engine_for, A2):
    ch = engine_for(A2).fundamental_char(1, 0)
    assert ch.poly == DrinfeldPoly.fundamental(1, 0)
    assert dict(ch.items()) == {
        parse_monomial("Y[1,0]"): TPoly.ONE,
        parse_monomial("Y[1,2]^-1 Y[2,1]"): TPoly.ONE,
        parse_monomial("Y[2,3]^-1"): TPoly.ONE,
    }


def test_fundamental_shift_equivariance(engine_for, A2):
    eng = engine_for(A2)
    assert eng.fundamental_char(1, 5) == eng.fundamental_char(1, 0).shift(5)
    assert eng.fundamental_char(2, -3).highest == YMonomial.var(2, -3)


def test_kr_string_a1(engine_for, A1):
    eng = engine_for(A1)
    ch = eng.kr_char_direct(1, 3)
    want = ["Y[1,0] Y[1,2] Y[1,4]"]
    want.append("Y[1,0] Y[1,2] Y[1,6]^-1")
    want.append("Y[1,0] Y[1,4]^-1 Y[1,6]^-1")
    want.append("Y[1,2]^-1 Y[1,4]^-1 Y[1,6]^-1")
    assert dict(ch.items()) == {parse_monomial(m): TPoly.ONE for m in want}
    assert ch.dimension() == 4


def test_kr_degenerate_lengths(engine_for, A2):
    eng = engine_for(A2)
    empty = eng.kr_char_direct(1, 0)
    assert len(empty) == 1 and empty.highest == YMonomial()
    assert eng.kr_char_direct(1, 1, 2) == eng.fundamental_char(1, 2)


def test_kr_rejects_bad_arguments(engine_for, A2):
    eng = engine_for(A2)
    with pytest.raises(DomainError):
        eng.kr_char_direct(3, 2)
    with pytest.raises(DomainError):
        eng.kr_char_direct(1, -1)
    with pytest.raises(DomainError):
        eng.fundamental_char(0)


def test_fixpoint_shift_equivariance_directly(A2, engine_for):
    # running the fixpoint away from the origin commutes with translation
    direct = _fixpoint(A2, DrinfeldPoly.kr(1, 2, 4))
    assert direct == engine_for(A2).kr_char_direct(1, 2).shift(4)


def test_head_mode_rejects_interior_dominant(A2):
    # the simple of P(1: 0; 2: 1 3) has a second dominant monomial, Y[2,1]
    with pytest.raises(InconsistentExpansion, match="interior dominant"):
        _fixpoint(A2, DrinfeldPoly(((1, 0), (2, 1), (2, 3))))


@pytest.mark.parametrize(
    "family, rank, roots",
    [
        ("A", 2, ((1, 0), (1, 2), (2, 5))),
        ("A", 2, ((1, 0), (2, 3))),
        ("A", 3, ((1, 0), (3, 4))),
        ("D", 4, ((1, 0), (3, 0))),
    ],
)
def test_fixpoint_builds_special_simples(family, rank, roots, engine_for, subtraction_simples):
    # beyond strings: a simple with a single dominant monomial is the
    # fixpoint's output, here against the subtraction route
    L = build_lie_type(family, rank)
    poly = DrinfeldPoly(roots)
    eng = engine_for(L)
    simple = subtraction_simples(eng, eng.kl_decompose(poly))[poly]
    assert [m for m in simple.terms if m.is_l_dominant()] == [poly.monomial()]
    assert _fixpoint(L, poly) == simple


def test_fixpoint_depth_guard_stops_wrong_expansion(D4, monkeypatch):
    # a memo keyed without the node hands one node's rows to another, and
    # the run then either descends without end or stops short of the lowest
    # weight; a guard must stop it within a bounded number of expansions
    shared: dict = {}
    calls = []

    def nodeless_tail(L, i, block, memo=None, rows=None):
        calls.append(i)
        if len(calls) > 20_000:
            raise RuntimeError("the expansion ran past the depth guard")
        got = shared.get(block)
        if got is None:
            got = shared[block] = rows(L, i, block)
        return got

    monkeypatch.setattr(qtchar.engine, "_expansion_tail", nodeless_tail)
    t0 = time.perf_counter()
    with pytest.raises(InternalError, match="past the bound|lowest weight"):
        _fixpoint(D4, DrinfeldPoly.kr(2, 2, 0))
    assert time.perf_counter() - t0 < 10.0


def test_fixpoint_stops_neighbour_rows(A2, D4, monkeypatch):
    # rows whose steps sit one level off, as a neighbour node's rows would,
    # shift node i's levels by one, so the next node-i pattern mixes level
    # parities and the run stops at once
    inner = qtchar.engine._node_simple

    def neighbour_rows(ui):
        return [(tuple((s + 1, n) for s, n in steps), p, deg) for steps, p, deg in inner(ui)]

    monkeypatch.setattr(qtchar.engine, "_node_simple", neighbour_rows)
    for L, poly in ((A2, DrinfeldPoly.kr(1, 2, 0)), (D4, DrinfeldPoly.kr(2, 2, 0))):
        with pytest.raises(InternalError, match="parities"):
            _fixpoint(L, poly)


def test_level_key_is_additive_and_injective():
    # every monomial on two nodes and two levels with exponents up to the
    # limit 3, the largest one a 3-bit digit holds: all keys distinct
    codec = _LevelKey(2, 5, 6, 3)
    grid = [
        tuple((i, s, e) for (i, s), e in zip(((1, 5), (1, 6), (2, 5), (2, 6)), es) if e)
        for es in itertools.product(range(-3, 4), repeat=4)
    ]
    assert len({codec.key(d) for d in grid}) == len(grid) == 7**4
    # random monomials on four nodes over a wider window
    rng = random.Random(9)
    lo, hi, limit = -3, 12, 40
    codec = _LevelKey(4, lo, hi, limit)

    def draw():
        slots = rng.sample([(i, s) for i in range(1, 5) for s in range(lo, hi + 1)], rng.randint(0, 12))
        return YMonomial((i, s, rng.choice((-1, 1)) * rng.randint(1, limit)) for i, s in slots)

    monos = {draw() for _ in range(2000)}
    assert len({codec.key(m.data) for m in monos}) == len(monos)
    for m1, m2 in zip(list(monos)[::2], list(monos)[1::2]):
        assert codec.offset((m1 * m2).data) == codec.offset(m1.data) + codec.offset(m2.data)
        assert codec.key((m1 * m2).data) == codec.key(m1.data) + codec.offset(m2.data)


def _random_window_monos(rng, rank, lo, hi, limit, count) -> list:
    """count random monomials on nodes 1..rank, levels [lo, hi] and
    exponents within +-limit, the limit itself included."""

    def draw():
        cells = [(i, s) for i in range(1, rank + 1) for s in range(lo, hi + 1)]
        slots = rng.sample(cells, rng.randint(0, min(10, len(cells))))
        return YMonomial((i, s, rng.choice((-limit, -1, 1, limit, rng.randint(-limit, limit)))) for i, s in slots)

    return [draw() for _ in range(count)] + [YMonomial(), YMonomial.var(rank, hi, -limit)]


def test_level_key_blocks_decode_to_node_factors(is_i_dominant):
    # each node's block holds that node's factors and nothing else, its
    # top bits read i-dominance, and a key decodes back to its monomial
    rng = random.Random(27)
    for rank, lo, hi, limit in ((4, -3, 12, 40), (2, 5, 6, 3), (8, 0, 30, 7), (1, 0, 0, 1)):
        codec = _LevelKey(rank, lo, hi, limit)
        for m in _random_window_monos(rng, rank, lo, hi, limit, 500):
            k = codec.key(m.data)
            assert codec.decode(k) == m.data, m
            for i in range(1, rank + 1):
                block = (k >> codec.shifts[i - 1]) & codec.mask
                assert codec.pattern(block) == tuple((s, e) for j, s, e in m.data if j == i), (m, i)
                assert (block & codec.high == codec.high) == is_i_dominant(m, i), (m, i)
                assert (block == codec.high) == all(j != i for j, _, _ in m.data), (m, i)
    with pytest.raises(InternalError, match="window"):
        codec.key(((1, 1, 1),))


def test_fixpoint_multiplies_no_monomial_per_term(D4, monkeypatch):
    # the run adds keys and decodes each term once, and its rows are built
    # from rank-one level lists: no kernels.mono_mul call anywhere in the
    # run, with the row cache empty so that all 39 tables are built in it
    calls = []
    inner_mul = kernels.mono_mul

    def counting_mul(a, b):
        calls.append((a, b))
        return inner_mul(a, b)

    monkeypatch.setattr(kernels, "mono_mul", counting_mul)
    qtchar.character._node_simple.cache_clear()
    ch = _fixpoint(D4, DrinfeldPoly.kr(2, 3, 0))
    assert len(ch) == 2043
    assert qtchar.character._node_simple.cache_info().misses == 39
    assert calls == []


def test_fixpoint_rejects_rows_past_the_level_window(D4, monkeypatch):
    inner = qtchar.engine._node_simple

    def shifted_rows(ui):
        return [(tuple((s + 40, n) for s, n in steps), p, deg) for steps, p, deg in inner(ui)]

    monkeypatch.setattr(qtchar.engine, "_node_simple", shifted_rows)
    with pytest.raises(InternalError, match="window"):
        _fixpoint(D4, DrinfeldPoly.kr(2, 2, 0))


def test_fixpoint_rejects_rows_with_wrong_step_count(A2, A3, D4, monkeypatch):
    # a row whose step count is not half its two_rho form drop would put
    # one monomial at two depths; the run stops at the first such row
    inner = qtchar.engine._node_simple

    def miscounted_rows(ui):
        return [(steps, p, deg + 1 if deg >= 2 else deg) for steps, p, deg in inner(ui)]

    monkeypatch.setattr(qtchar.engine, "_node_simple", miscounted_rows)
    for L, poly in (
        (A2, DrinfeldPoly.kr(1, 2, 0)),
        (D4, DrinfeldPoly.kr(2, 2, 0)),
        (A3, DrinfeldPoly.kr(2, 3, 0)),
    ):
        with pytest.raises(InternalError, match="step count"):
            _fixpoint(L, poly)


def test_fixpoint_names_the_monomial_where_colours_disagree(A2, D4, monkeypatch):
    # node-1 rows with doubled coefficients send a term of the node-1 and
    # the node-2 expansions two different sums; the message names the term.
    # The rank-one rows serve every node, so the node-1 rows are doubled as
    # the run reads them
    inner = qtchar.engine._expansion_tail

    def doubled_rows(L, i, block, memo, rows):
        got = inner(L, i, block, memo, rows)
        return [(kq, kernels.poly_add(p, p), deg) for kq, p, deg in got] if i == 1 else got

    monkeypatch.setattr(qtchar.engine, "_expansion_tail", doubled_rows)
    for L, poly, m in (
        (A2, DrinfeldPoly.kr(1, 2, 0), "Y[1,2]^-1 Y[2,1] Y[2,5]^-1"),
        (D4, DrinfeldPoly.kr(2, 2, 0), "Y[1,3]^-1 Y[2,6]^-1 Y[3,1] Y[4,1] Y[4,3] Y[4,5]"),
    ):
        with pytest.raises(InconsistentExpansion) as err:
            _fixpoint(L, poly)
        assert str(err.value) == f"colors disagree at {m}: {{0: 2}} vs {{0: 4}}"


def test_fixpoint_rejects_a_run_that_stops_short(D4, monkeypatch):
    # rows that keep only their leading row expand nothing, so the run
    # stops at the top, above the lowest weight and above any cap
    inner = qtchar.engine._node_simple
    monkeypatch.setattr(qtchar.engine, "_node_simple", lambda ui: inner(ui)[:1])
    poly = DrinfeldPoly.kr(2, 2, 0)
    with pytest.raises(InternalError, match="stopped at depth 0, but the lowest weight sits at depth 20"):
        _fixpoint(D4, poly)
    with pytest.raises(InternalError, match="stopped at depth 0, short of the cap 3"):
        _fixpoint(D4, poly, None, 3)


def test_standard_empty_and_single(engine_for, A2):
    eng = engine_for(A2)
    one = eng.standard_char(DrinfeldPoly())
    assert len(one) == 1 and one.dimension() == 1
    assert eng.standard_char(DrinfeldPoly.fundamental(2, 1)) == eng.fundamental_char(2, 1)


def test_standard_dimension_is_product(engine_for, A2):
    eng = engine_for(A2)
    st = eng.standard_char(DrinfeldPoly.kr(1, 3, 0))
    assert st.dimension() == 27
    st2 = eng.standard_char(DrinfeldPoly.kr(1, 1, 0) * DrinfeldPoly.kr(2, 1, 1))
    assert st2.dimension() == 9


def _random_root_datum(seed: int) -> tuple:
    rng = random.Random(seed)
    family, rank = (("A", 2), ("A", 3), ("D", 4))[seed % 3]
    roots = [(rng.randint(1, rank), rng.randint(0, 5)) for _ in range(rng.randint(2, 3))]
    return family, rank, DrinfeldPoly(roots)


STANDARD_CASES = [
    ("A", 1, DrinfeldPoly(((1, 0), (1, 2)))),
    ("A", 1, DrinfeldPoly(((1, 0), (1, 0)))),
    ("A", 1, DrinfeldPoly.kr(1, 3, 0)),
    ("A", 2, DrinfeldPoly(((1, 0), (2, 1)))),
    ("A", 2, DrinfeldPoly.kr(1, 2, 0)),
    ("A", 2, DrinfeldPoly(((1, 0), (2, 0)))),
    ("A", 2, DrinfeldPoly(((1, 0), (1, 0), (2, 1)))),
    ("A", 3, DrinfeldPoly.kr(2, 3, 0)),
    ("A", 3, DrinfeldPoly(((1, 0), (2, 5), (3, 1)))),
    ("A", 3, DrinfeldPoly(((1, 0), (3, 0)))),
    ("D", 4, DrinfeldPoly.kr(2, 2, 0)),
    ("D", 4, DrinfeldPoly.kr(2, 3, 0)),
    ("D", 4, DrinfeldPoly(((1, 0), (2, 2), (3, 1), (4, 5)))),
    ("D", 4, DrinfeldPoly(((1, 1), (2, 4), (3, 1), (4, 1)))),
    ("D", 4, DrinfeldPoly(((2, 0), (2, 0)))),
    ("D", 5, DrinfeldPoly.kr(3, 2, 0)),
    ("E", 6, DrinfeldPoly.kr(1, 2, 0)),
    ("E", 6, DrinfeldPoly(((1, 0), (6, 3)))),
] + [_random_root_datum(seed) for seed in range(8)]


@pytest.mark.parametrize("family, rank, poly", STANDARD_CASES, ids=lambda x: str(x))
def test_standard_matches_reference_fold(family, rank, poly, engines, reference_standard):
    # the top-normalized twisted fold against the fold of the reference
    # product, which twists each term pair by its v-exponents
    eng = engines.get((family, rank)) or Engine(build_lie_type(family, rank))
    assert eng.standard_char(poly) == reference_standard(eng, poly)


def test_kl_decompose_two_string(engine_for, A2, subtraction_simples):
    eng = engine_for(A2)
    P = DrinfeldPoly.kr(1, 2, 0)
    res = eng.kl_decompose(P)
    assert res.standard == P
    assert res.order[0] == P
    got = {str(sub): str(c) for sub, c in res.factors}
    assert got == {"P(1: 0 2)": "1", "P(2: 1)": "t^-1"}
    simple = res.simples[P]
    assert len(simple) == 6
    assert simple == eng.kr_char_direct(1, 2) == subtraction_simples(eng, res)[P]
    assert res.multiplicity(DrinfeldPoly.fundamental(2, 1)) == parse_tpoly("t^-1")
    assert res.multiplicity(DrinfeldPoly.kr(1, 7, 0)) == TPoly.ZERO


def test_kl_decompose_a1(engine_for, A1):
    res = engine_for(A1).kl_decompose(DrinfeldPoly.kr(1, 2, 0))
    got = {str(sub): str(c) for sub, c in res.factors}
    assert got == {"P(1: 0 2)": "1", "P()": "t^-1"}


SUBTRACTION_CASES = [
    ("A", 3, DrinfeldPoly.kr(2, 4, 0)),
    ("D", 4, DrinfeldPoly.kr(2, 3, 0)),
    ("D", 4, DrinfeldPoly.kr(1, 4, 0)),
    ("D", 5, DrinfeldPoly.kr(3, 2, 0)),
    ("E", 6, DrinfeldPoly.kr(1, 2, 0)),
    ("A", 3, DrinfeldPoly(((2, 0), (2, 1), (2, 2)))),
    ("A", 2, DrinfeldPoly(((1, 0), (1, 1), (1, 2), (2, 1), (2, 3)))),
]


@pytest.mark.parametrize(
    "family, rank, poly",
    [("A", 2, DrinfeldPoly.kr(1, 3, 0)), *SUBTRACTION_CASES],
    ids=lambda x: str(x),
)
def test_kl_matrix_identity(family, rank, poly, engines):
    # c = z * l entrywise over the whole closure
    eng = engines.get((family, rank)) or Engine(build_lie_type(family, rank))
    res = eng.kl_decompose(poly)
    n = len(res.order)
    for ai in range(n):
        for ci in range(n):
            want = res.c.get((ai, ci), TPoly.ZERO)
            acc = TPoly.ZERO
            for bi in range(ai, ci + 1):
                zz = res.z.get((ai, bi))
                ll = res.l.get((bi, ci))
                if zz and ll:
                    acc = acc + zz * ll
            assert acc == want, (ai, ci)


def test_kl_standard_resolves_into_simples(engine_for, A2):
    # the standard character is the z-weighted sum of the simples it contains
    eng = engine_for(A2)
    P = DrinfeldPoly.kr(1, 2, 0)
    res = eng.kl_decompose(P)
    acc: dict = {}
    for sub, c in res.factors:
        for m, p in res.simples[sub].items():
            q = acc.get(m, TPoly.ZERO) + c * p
            if q:
                acc[m] = q
            else:
                acc.pop(m, None)
    assert acc == dict(eng.standard_char(P).items())


def test_simple_char_route_matches_direct(engine_for, A2, A3, subtraction_simples):
    # a string's simple is its fixpoint character; the subtraction route
    # checks it independently
    for L, i, k in ((A2, 1, 3), (A2, 2, 2), (A3, 2, 2)):
        eng = engine_for(L)
        P = DrinfeldPoly.kr(i, k, 0)
        reference = subtraction_simples(eng, eng.kl_decompose(P))[P]
        assert eng.simple_char(P) == eng.kr_char_direct(i, k) == reference


@pytest.mark.parametrize("family, rank, poly", SUBTRACTION_CASES, ids=lambda x: str(x))
def test_simples_match_subtraction_route(family, rank, poly, engines, subtraction_simples):
    # every simple of the closure (strings and fixpoints pinned to l-rows)
    # against standard minus z-weighted simples below it
    L = build_lie_type(family, rank)
    eng = engines.get((family, rank)) or Engine(L)
    res = eng.kl_decompose(poly)
    assert subtraction_simples(eng, res) == res.simples
    # the dominant data the decomposition reads, against the full standards
    for q in res.order:
        full = {m: p for m, p in eng.standard_char(q).terms.items() if m.is_l_dominant()}
        assert eng._standard_dominant(q) == full, q


def test_kr_rows_hold_only_the_diagonal():
    # the paper's theorem read from dominant data alone: a KR module has one
    # dominant monomial, so l-row 0 of its root datum is the diagonal
    cases = [("D", 5, i, k) for i in range(1, 6) for k in (1, 2)]
    cases += [("E", 6, i, k) for i in (1, 2) for k in (1, 2)]
    cases += [("E", 7, 7, 2)]
    cases += [("D", 4, 2, k) for k in (1, 2, 3, 4)]
    engines: dict = {}
    for family, rank, i, k in cases:
        eng = engines.get((family, rank))
        if eng is None:
            eng = engines[(family, rank)] = Engine(build_lie_type(family, rank))
        order, _, _, l = eng._triangle(DrinfeldPoly.kr(i, k, 0))
        assert [ci for (ai, ci) in l if ai == 0] == [0], (family, rank, i, k)


def test_simple_char_runs_only_its_own_fixpoint(D4, monkeypatch):
    # D4 KR(2,4) has 48 root data in its closure; its simple needs the
    # fundamentals (for the dominant data) and its own fixpoint, no other.
    # Triality sends node 1 to nodes 3 and 4, so fundamentals 3 and 4 are
    # fundamental 1 relabelled and take no run of their own
    runs = _counting_fixpoint(monkeypatch)
    P = DrinfeldPoly.kr(2, 4, 0)
    eng = Engine(D4)
    simple = eng.simple_char(P)
    assert len(eng._triangle(P)[0]) == 48
    want = [DrinfeldPoly.fundamental(i, 0) for i in (1, 2)] + [P]
    assert sorted(runs, key=lambda q: q.roots) == sorted(want, key=lambda q: q.roots)
    assert simple is eng.kr_char_direct(2, 4)


def _counting_fixpoint(monkeypatch, capped=None) -> list:
    """Patch engine._fixpoint to record the root datum of every run, and in
    capped, when given, the root datum of every run with a depth cap."""
    runs = []
    inner = qtchar.engine._fixpoint

    def counting(L, poly, pins=None, depth=None):
        runs.append(poly)
        if depth is not None and capped is not None:
            capped.append(poly)
        return inner(L, poly, pins, depth)

    monkeypatch.setattr(qtchar.engine, "_fixpoint", counting)
    return runs


def test_kr_decomposition_runs_each_orbit_once(D4, monkeypatch):
    # the 10 simples of D4 KR(2,3) and the 4 fundamentals took 14 runs;
    # triality serves fundamentals 3 and 4 from fundamental 1, and
    # P(1: 1 3; 4: 1 3), P(3: 1 3; 4: 1 3) from P(1: 1 3; 3: 1 3), and
    # P(2: 2; 3: 1 3), P(2: 2; 4: 1 3) from P(1: 1 3; 2: 2).  The duality
    # D serves P(1: 3; 2: 0; 3: 3; 4: 3) from P(1: 1; 2: 4; 3: 1; 4: 1),
    # whose levels it reflects, and every other run is self-dual, so
    # capped at half its depth
    capped: list = []
    runs = _counting_fixpoint(monkeypatch, capped)
    res = Engine(D4).kl_decompose(DrinfeldPoly.kr(2, 3, 0))
    assert len(res.order) == 10
    uncapped = DrinfeldPoly(((1, 1), (2, 4), (3, 1), (4, 1)))
    want = [
        DrinfeldPoly.fundamental(1, 0),
        DrinfeldPoly.fundamental(2, 0),
        DrinfeldPoly.kr(2, 3, 0),
        DrinfeldPoly(((1, 1), (1, 3), (3, 1), (3, 3))),
        DrinfeldPoly(((1, 1), (1, 3), (2, 2))),
        DrinfeldPoly(((2, 2), (2, 2))),
    ]
    assert sorted(capped, key=lambda q: q.roots) == sorted(want, key=lambda q: q.roots)
    assert sorted(runs, key=lambda q: q.roots) == sorted(want + [uncapped], key=lambda q: q.roots)


def test_kl_decompose_shifts_built_translates(D4, monkeypatch):
    # every simple of the KR(2,3) standard at level 2 is a translate of one
    # the decomposition at level 0 built, so it takes no run of its own
    eng = Engine(D4)
    first = eng.kl_decompose(DrinfeldPoly.kr(2, 3, 0))
    runs = _counting_fixpoint(monkeypatch)
    second = eng.kl_decompose(DrinfeldPoly.kr(2, 3, 2))
    assert runs == []
    assert second.order == tuple(q.shift(2) for q in first.order)
    for q in first.order:
        assert second.simples[q.shift(2)] == first.simples[q].shift(2), q


def _by_depth(L, poly, terms: dict) -> list:
    """terms as a list of {monomial: coefficient} per depth below poly's top."""
    rho2 = two_rho(L)
    top = _form(rho2, poly.monomial().data)
    out: list = []
    for m, p in terms.items():
        d = (top - _form(rho2, m.data)) // 2
        out.extend({} for _ in range(d + 1 - len(out)))
        out[d][m] = p
    return out


def test_capped_fixpoint_is_the_full_run_by_depth(A3, D4):
    # a run capped at a depth returns the full run's terms down to that
    # depth, level by level, whatever pins lie deeper; a cap past the
    # lowest weight returns them all.  P's pins lie at depths 0 to 4
    P = DrinfeldPoly(((1, 1), (2, 4), (3, 1), (4, 1)))
    order, _, _, l = Engine(D4)._triangle(P)
    for L, poly, pins, caps in (
        (A3, DrinfeldPoly.kr(2, 3, 0), None, range(14)),
        (D4, DrinfeldPoly.kr(2, 2, 0), None, range(0, 22, 3)),
        (D4, P, _l_row(order, l, 0), (0, 2, 3, 4, 14, 28, 29)),
    ):
        levels = _by_depth(L, poly, _fixpoint(L, poly, pins).terms)
        for cap in caps:
            assert _fixpoint(L, poly, pins, cap) == levels[: cap + 1], (poly, cap)


@pytest.mark.parametrize(
    "family, rank, nodes",
    [("A", n, range(1, n + 1)) for n in (1, 2, 3, 4, 5)]
    + [("D", 4, range(1, 5)), ("D", 5, range(1, 6)), ("E", 6, range(1, 7))]
    + [("E", 7, (1, 2, 6, 7)), ("E", 8, (1, 8))],
)
def test_fundamental_lowest_term_sits_at_the_dual_node(family, rank, nodes):
    # Frenkel-Mukhin: the lowest monomial of L(Y[i,0]) is Y[i*, h]^-1, read
    # here from the uncapped run; the other fundamentals of E7 and E8 have
    # 8,645 terms or more
    L = build_lie_type(family, rank)
    rho2 = two_rho(L)
    for i in nodes:
        ch = _fixpoint(L, DrinfeldPoly.fundamental(i, 0))
        lowest = min(ch.terms, key=lambda m: _form(rho2, m.data))
        assert lowest == YMonomial.var(dual_nodes(L)[i - 1], L.coxeter_number, -1), i


def test_engine_strings_match_the_full_run():
    # the engine runs every string to half its depth and reflects the rest
    # by the duality D; the uncapped run is the independent route
    cases = [("A", n, range(1, n + 1), (1, 2, 3)) for n in (1, 2, 3, 4)]
    cases += [("D", 4, range(1, 5), (1, 2, 3)), ("D", 5, range(1, 6), (1, 2))]
    cases += [("E", 6, (1, 2, 6), (1, 2))]
    for family, rank, nodes, ks in cases:
        L = build_lie_type(family, rank)
        eng = Engine(L)
        for i in nodes:
            for k in ks:
                want = _fixpoint(L, DrinfeldPoly.kr(i, k, 0))
                assert eng.kr_char_direct(i, k) == want, (family, rank, i, k)


def test_d4_decomposition_simples_match_the_full_run(D4):
    # six of the simples are self-dual runs completed by D, one is the
    # D-image of another simple, and the uncapped pinned run checks each
    res = Engine(D4).kl_decompose(DrinfeldPoly.kr(2, 3, 0))
    for ai, q in enumerate(res.order):
        assert res.simples[q] == _fixpoint(D4, q, _l_row(res.order, res.l, ai)), q


def test_duality_checks_stop_a_wrong_dual(A3, monkeypatch):
    # a wrong i -> i* or a centre c off by 2 sends the run's shallow terms
    # onto terms the run did not compute at the middle depths
    monkeypatch.setattr(qtchar.engine, "dual_nodes", lambda L: tuple(L.nodes))
    with pytest.raises(InternalError, match="middle depth"):
        Engine(A3).kr_char_direct(1, 2)
    monkeypatch.undo()
    inner = qtchar.engine._dual
    monkeypatch.setattr(qtchar.engine, "_dual", lambda L, terms, c: inner(L, terms, c + 2))
    with pytest.raises(InternalError, match="middle depth"):
        Engine(A3).kr_char_direct(1, 2)


def test_self_dual_simple_with_an_interior_pin(D4):
    # P(2: 0 4) is self-dual, and its simple has a second dominant monomial
    # at depth 5 of 20.  A dominant weight has nonnegative height, so an
    # l-dominant monomial lies at most half the depth of the lowest weight
    # down: no pin lies past the cap, and no reflected term is dominant
    P = DrinfeldPoly(((2, 0), (2, 4)))
    eng = Engine(D4)
    order, _, _, l = eng._triangle(P)
    row = _l_row(order, l, 0)
    assert [len(level) for level in _by_depth(D4, P, row)] == [1, 0, 0, 0, 0, 1]
    assert eng.simple_char(P) == _fixpoint(D4, P, row)


def test_dual_pair_image_checks_the_row(D4):
    # P(1: 3; 2: 0; 3: 3; 4: 3) is the D-image of a translate of
    # P(1: 1; 2: 4; 3: 1; 4: 1); the image must have the row it is given
    P = DrinfeldPoly(((1, 1), (2, 4), (3, 1), (4, 1)))
    Q = DrinfeldPoly(((1, 3), (2, 0), (3, 3), (4, 3)))
    eng = Engine(D4)
    eng.simple_char(P)
    order, _, _, l = eng._triangle(Q)
    row = _l_row(order, l, 0)
    assert list(row) == [Q.monomial()]
    with pytest.raises(InternalError, match="l-row"):
        eng._simple(Q, {Q.monomial(): TPoly.ONE + TPoly.ONE})
    assert eng._simple(Q, row) == _fixpoint(D4, Q, row)


def _keyed_triangle(triangle, p=None):
    """(set of root data, c, z, l keyed by pairs of root data), every datum
    relabelled by p when it is given."""
    order, *mats = triangle
    name = [q if p is None else q.relabel(p) for q in order]
    return set(name), [{(name[a], name[b]): v for (a, b), v in m.items()} for m in mats]


@pytest.mark.parametrize(
    "family,rank,roots",
    [
        ("A", 3, ((1, 0), (2, 3))),
        ("D", 4, ((1, 1), (1, 3), (4, 1), (4, 3))),
        ("D", 5, ((4, 0), (5, 4))),
        ("E", 6, ((1, 0), (6, 6))),
    ],
)
def test_characters_are_equivariant_under_diagram_automorphisms(family, rank, roots):
    # _fixpoint run on the requested datum is the independent route: the
    # engine runs each orbit once, at its canonical image, and relabels
    L = build_lie_type(family, rank)
    eng = Engine(L)
    for i in L.nodes:
        assert eng.fundamental_char(i, 1) == _fixpoint(L, DrinfeldPoly.fundamental(i, 1)), i
    # E6 KR(3,2) and KR(5,2) have 35,644 terms and KR(4,2) 1,530,916
    for i in (1, 2, 6) if family == "E" else L.nodes:
        assert eng.kr_char_direct(i, 2, 1) == _fixpoint(L, DrinfeldPoly.kr(i, 2, 1)), i
    P = DrinfeldPoly(roots)
    simple = eng.simple_char(P)
    triangle = _keyed_triangle(eng._triangle(P))
    assert len(triangle[0]) > 1
    for p in diagram_automorphisms(L):
        Q = P.relabel(p)
        fresh = Engine(L)
        assert _keyed_triangle(fresh._triangle(Q)) == _keyed_triangle(eng._triangle(P), p), p
        order, _, _, l = fresh._triangle(Q)
        assert fresh.simple_char(Q) == _fixpoint(L, Q, _l_row(order, l, 0)) == simple.relabel(p), p


def test_pinned_fixpoint_needs_every_dominant_pin(D4):
    # the simple of this root datum has five dominant monomials; a run
    # missing any one of them reaches it with a nonzero coefficient
    P = DrinfeldPoly(((1, 1), (2, 4), (3, 1), (4, 1)))
    eng = Engine(D4)
    order, _, _, l = eng._triangle(P)
    row = qtchar.engine._l_row(order, l, 0)
    assert len(row) == 5
    assert _fixpoint(D4, P, row) == eng.simple_char(P)
    for m in row:
        if m != P.monomial():
            with pytest.raises(InconsistentExpansion, match="interior dominant"):
                _fixpoint(D4, P, {k: p for k, p in row.items() if k != m})


def test_pinned_fixpoint_rejects_bad_pins(A2):
    P = DrinfeldPoly.kr(1, 2, 0)
    top = P.monomial()
    bad = [
        (parse_monomial("Y[1,0] Y[1,4]^-1 Y[2,3]"), "not dominant"),
        (parse_monomial("Y[2,0]"), "not below"),
        (top * YMonomial.var(1, 0), "not below"),
    ]
    for m, why in bad:
        with pytest.raises(InternalError, match=why):
            _fixpoint(A2, P, {top: TPoly.ONE, m: TPoly.ONE})
    for pins in ({}, {top: TPoly.ZERO}):
        with pytest.raises(InternalError, match="nonzero coefficient"):
            _fixpoint(A2, P, pins)
    # any other top coefficient scales the whole character
    t = parse_tpoly("t")
    assert _fixpoint(A2, P, {top: t}).terms == {m: p * t for m, p in _fixpoint(A2, P).terms.items()}


def test_kr_row_with_off_diagonal_entry_raises(A2, D4):
    for L, P, other in (
        (A2, DrinfeldPoly.kr(1, 2, 0), DrinfeldPoly.fundamental(2, 1)),
        (D4, DrinfeldPoly.kr(2, 2, 0), DrinfeldPoly(((1, 1), (3, 1), (4, 1)))),
    ):
        row = {P.monomial(): TPoly.ONE, other.monomial(): parse_tpoly("t^-1")}
        with pytest.raises(InternalError, match="diagonal"):
            Engine(L)._simple(P, row)


class _TopTimesTEngine(Engine):
    """Engine whose fundamentals have their top coefficient multiplied by t:
    the fold of any of them has a top coefficient t^n, not 1."""

    def fundamental_char(self, i, s=0):
        ch = super().fundamental_char(i, s)
        return QtCharacter(ch.L, ch.poly, {**ch.terms, ch.highest: ch.terms[ch.highest].shifted(1)})


def test_standard_with_top_coefficient_other_than_one_raises(A2):
    # the standards are the fold of their fundamentals divided by the
    # factors' twist; a top coefficient left over is an error, not
    # something to divide out
    for P in (DrinfeldPoly.fundamental(1, 0), DrinfeldPoly(((1, 0), (2, 1))), DrinfeldPoly.kr(1, 2, 0)):
        with pytest.raises(InternalError, match="is not 1"):
            _TopTimesTEngine(A2).standard_char(P)
        with pytest.raises(InternalError, match="is not 1"):
            _TopTimesTEngine(A2).kl_decompose(P)


def _two_class_root_data(L, sizes, levels):
    """Every root datum of the given sizes over the given levels whose roots
    fall in both bipartite classes, with its two halves."""
    colour = qtchar.engine._colouring(L)
    roots = [(i, s) for i in L.nodes for s in levels]
    for n in sizes:
        for combo in itertools.combinations_with_replacement(roots, n):
            halves: tuple = ([], [])
            for i, s in combo:
                halves[(s + colour[i]) % 2].append((i, s))
            if all(halves):
                yield DrinfeldPoly(combo), [DrinfeldPoly(h) for h in halves]


def test_two_class_simple_is_product_of_halves(A2, A3, D4):
    # characters of the two bipartite classes live on disjoint variables, so
    # the simple of a root datum of both classes is the twisted product of
    # its halves' simples; the engine builds it as one pinned run instead
    cases = 0
    for L, sizes, levels in ((A2, (2, 3), range(4)), (A3, (2,), range(3)), (D4, (2,), range(2))):
        eng = Engine(L)
        for P, halves in _two_class_root_data(L, sizes, levels):
            want = _star_fold(L, [eng.simple_char(h) for h in halves], eng.table)
            assert eng.simple_char(P).terms == want, P
            cases += 1
    assert cases == 132


def test_fundamental_dimensions_a3_d4(engine_for, A3, D4):
    a3 = engine_for(A3)
    assert [a3.fundamental_char(i, 0).dimension() for i in (1, 2, 3)] == [4, 6, 4]
    d4 = engine_for(D4)
    dims = [d4.fundamental_char(i, 0).dimension() for i in (1, 2, 3, 4)]
    assert dims == [8, 29, 8, 8]
    assert len(d4.fundamental_char(2, 0)) == 28
    # the 29-dimensional module has a doubled trivial l-weight
    mult2 = [p for _, p in d4.fundamental_char(2, 0).items() if p.at_one() == 2]
    assert len(mult2) == 1


def test_kr_dimensions_d4(engine_for, D4):
    eng = engine_for(D4)
    assert eng.kr_char_direct(1, 2).dimension() == 35
    assert eng.kr_char_direct(2, 2).dimension() == 329
    assert len(eng.kr_char_direct(2, 2)) == 307


def test_disk_cache_round_trip(A2, tmp_path):
    cache = tmp_path / "qc"
    eng1 = Engine(A2, str(cache))
    fresh = eng1.kr_char_direct(1, 2)
    path = cache / "A2_kr_1_2.qtc"
    assert path.exists()
    assert read_qtc(path) == fresh
    eng2 = Engine(A2, str(cache))
    assert eng2.kr_char_direct(1, 2) == fresh
    eng2.fundamental_char(1, 0)
    assert (cache / "A2_fund_1.qtc").exists()


def test_disk_cache_survives_corruption(A2, tmp_path):
    cache = tmp_path / "qc"
    eng1 = Engine(A2, str(cache))
    fresh = eng1.fundamental_char(1, 0)
    path = cache / "A2_fund_1.qtc"
    path.write_text("not a qtc file\n")
    eng2 = Engine(A2, str(cache))
    assert eng2.fundamental_char(1, 0) == fresh
    # the bad entry was rewritten
    assert read_qtc(path) == fresh


def test_disk_cache_read_bug_propagates(A2, tmp_path, monkeypatch):
    cache = tmp_path / "qc"
    Engine(A2, str(cache)).fundamental_char(1, 0)

    def broken(path):
        raise TypeError("reader bug")

    # only the errors a corrupt entry raises mean "recompute"; a defect in
    # the reader must surface
    monkeypatch.setattr(qtchar.engine, "read_qtc", broken)
    with pytest.raises(TypeError, match="reader bug"):
        Engine(A2, str(cache)).fundamental_char(1, 0)


def test_disk_cache_rejects_wrong_root_datum(A2, tmp_path):
    cache = tmp_path / "qc"
    eng1 = Engine(A2, str(cache))
    fresh = eng1.kr_char_direct(1, 2)
    assert len(eng1.kr_char_direct(1, 3)) != len(fresh)
    # a well-formed entry of the same type, stored under the wrong name
    path = cache / "A2_kr_1_2.qtc"
    path.write_bytes((cache / "A2_kr_1_3.qtc").read_bytes())
    assert Engine(A2, str(cache)).kr_char_direct(1, 2) == fresh
    # the mismatched entry was rewritten
    assert read_qtc(path) == fresh


def test_disk_cache_rejects_truncated_entry(A2, tmp_path):
    cache = tmp_path / "qc"
    fresh = Engine(A2, str(cache)).kr_char_direct(1, 2)
    path = cache / "A2_kr_1_2.qtc"
    lines = path.read_text().splitlines(keepends=True)
    assert lines[-1].startswith(f"end {len(fresh)} ")
    # cut after the first term: header, type and root lines all intact;
    # then the same cut with the trailer, digest and all, put back
    for cut in (lines[:4], lines[:4] + lines[-1:]):
        path.write_text("".join(cut))
        assert Engine(A2, str(cache)).kr_char_direct(1, 2) == fresh
        # the cut entry was rewritten
        assert read_qtc(path) == fresh
        assert path.read_text().splitlines(keepends=True)[-1] == lines[-1]


def test_disk_cache_rejects_edited_sealed_entry(A2, tmp_path):
    cache = tmp_path / "qc"
    fresh = Engine(A2, str(cache)).kr_char_direct(1, 2)
    path = cache / "A2_kr_1_2.qtc"
    sealed = path.read_text()
    # edit a term and keep the trailer: the digest no longer verifies
    lines = sealed.splitlines(keepends=True)
    assert lines[-2].startswith("term 1 : ")
    lines[-2] = "term 2 : " + lines[-2][len("term 1 : "):]
    path.write_text("".join(lines))
    assert Engine(A2, str(cache)).kr_char_direct(1, 2) == fresh
    # the entry was recomputed and rewritten, and reads back
    assert path.read_text() == sealed
    assert Engine(A2, str(cache)).kr_char_direct(1, 2) == fresh


def test_disk_cache_never_reads_a_non_canonical_entry(D4, tmp_path, monkeypatch):
    # only the canonical node of an orbit has an entry: KR(3,2) is served
    # from KR(1,2)'s, and a node-3 entry, as older versions wrote it, is
    # never read, even a sealed one of the right datum with a term dropped
    cache = tmp_path / "qc"
    fresh = Engine(D4, str(cache)).kr_char_direct(3, 2)
    assert fresh == _fixpoint(D4, DrinfeldPoly.kr(3, 2, 0))
    assert [p.name for p in cache.iterdir()] == ["D4_kr_1_2.qtc"]
    wrong = QtCharacter(D4, fresh.poly, dict(fresh.items()[:-1]))
    planted = cache / "D4_kr_3_2.qtc"
    write_qtc(planted, wrong)
    reads = []
    inner = qtchar.engine.read_qtc

    def spy(path):
        reads.append(os.path.basename(path))
        return inner(path)

    monkeypatch.setattr(qtchar.engine, "read_qtc", spy)
    assert Engine(D4, str(cache)).kr_char_direct(3, 2) == fresh
    assert reads == ["D4_kr_1_2.qtc"]
    assert read_qtc(planted) == wrong


def test_disk_cache_failed_write_leaves_no_temp_file(A2, tmp_path, monkeypatch):
    cache = tmp_path / "qc"

    def partial_write(path, ch):
        with open(path, "w") as f:
            f.write("# qtc v1\n")
        raise OSError("disk full")

    monkeypatch.setattr(qtchar.engine, "write_qtc", partial_write)
    with pytest.raises(OSError, match="disk full"):
        Engine(A2, str(cache)).kr_char_direct(1, 2)
    assert [p.name for p in cache.iterdir()] == []


@pytest.mark.skipif(os.name != "posix", reason="the liveness probe is POSIX-only")
def test_disk_cache_write_removes_a_dead_writers_temp_file(A2, tmp_path):
    # a finished child's pid is no live process; the parent's pid is; a
    # pid of another host says nothing about this one's processes
    cache = tmp_path / "qc"
    cache.mkdir()
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    host = os.uname().nodename
    dead = cache / f"A2_kr_1_2.qtc.tmp.{host}.{child.pid}"
    live = cache / f"A2_kr_1_2.qtc.tmp.{host}.{os.getppid()}"
    foreign = cache / f"A2_kr_1_2.qtc.tmp.other-{host}.{child.pid}"
    other = cache / f"A2_fund_1.qtc.tmp.{host}.{child.pid}"
    for path in (dead, live, foreign, other):
        path.write_text("# qtc v1\n")
    Engine(A2, str(cache)).kr_char_direct(1, 2)
    kept = ["A2_kr_1_2.qtc", live.name, foreign.name, other.name]
    assert sorted(p.name for p in cache.iterdir()) == sorted(kept)


def test_disk_cache_write_probes_no_pid_off_posix(A2, tmp_path, monkeypatch):
    # off POSIX os.kill terminates the process it names, so it must not run
    cache = tmp_path / "qc"
    cache.mkdir()
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    dead = cache / f"A2_kr_1_2.qtc.tmp..{child.pid}"
    dead.write_text("# qtc v1\n")

    def kill(pid, sig):
        raise AssertionError(f"os.kill({pid}, {sig}) called")

    with monkeypatch.context() as m:
        m.setattr(qtchar.engine.os, "name", "nt")
        m.setattr(qtchar.engine.os, "kill", kill)
        Engine(A2, str(cache)).kr_char_direct(1, 2)
    assert sorted(p.name for p in cache.iterdir()) == sorted(["A2_kr_1_2.qtc", dead.name])


def test_memory_cache_reuses_objects(A2):
    eng = Engine(A2)
    assert eng.fundamental_char(1, 0) is eng.fundamental_char(1, 0)
    P = DrinfeldPoly.kr(1, 2, 0)
    assert eng.kl_decompose(P) is eng.kl_decompose(P)
