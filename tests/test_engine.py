from __future__ import annotations

import itertools
import random
import time

import pytest

from qtchar import (
    DomainError,
    DrinfeldPoly,
    Engine,
    InconsistentExpansion,
    InternalError,
    TPoly,
    YMonomial,
    build_lie_type,
    parse_monomial,
    parse_tpoly,
    read_qtc,
)
import qtchar.engine
from qtchar.engine import _fixpoint, _level_key


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
    assert len(empty) == 1 and empty.highest.is_one()
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

    def nodeless_tail(L, i, m, memo=None, rows=None):
        calls.append(i)
        if len(calls) > 20_000:
            raise RuntimeError("the expansion ran past the depth guard")
        ui = tuple((s, u) for j, s, u in m.data if j == i)
        got = shared.get(ui)
        if got is None:
            got = shared[ui] = rows(L, i, ui)
        return got

    monkeypatch.setattr(qtchar.engine, "_expansion_tail", nodeless_tail)
    t0 = time.perf_counter()
    with pytest.raises(InternalError, match="past the bound|lowest weight"):
        _fixpoint(D4, DrinfeldPoly.kr(2, 2, 0))
    assert time.perf_counter() - t0 < 10.0


def test_fixpoint_stops_neighbour_rows(A2, D4, monkeypatch):
    # rows of a neighbour node shift node i's levels by one, so the next
    # node-i pattern mixes level parities and the run stops at once
    inner = qtchar.engine._node_simple

    def neighbour_rows(L, i, ui):
        return inner(L, L.neighbors(i)[0], ui)

    monkeypatch.setattr(qtchar.engine, "_node_simple", neighbour_rows)
    for L, poly in ((A2, DrinfeldPoly.kr(1, 2, 0)), (D4, DrinfeldPoly.kr(2, 2, 0))):
        with pytest.raises(InternalError, match="parities"):
            _fixpoint(L, poly)


def test_level_key_is_additive_and_injective():
    # every monomial on two nodes and two levels with exponents up to the
    # limit 3, the largest one a 3-bit digit holds: all keys distinct
    key = _level_key(5, 6, 3)
    grid = [
        tuple((i, s, e) for (i, s), e in zip(((1, 5), (1, 6), (2, 5), (2, 6)), es) if e)
        for es in itertools.product(range(-3, 4), repeat=4)
    ]
    assert len({key(d) for d in grid}) == len(grid) == 7**4
    # random monomials on four nodes over a wider window
    rng = random.Random(9)
    lo, hi, limit = -3, 12, 40
    key = _level_key(lo, hi, limit)

    def draw():
        slots = rng.sample([(i, s) for i in range(1, 5) for s in range(lo, hi + 1)], rng.randint(0, 12))
        return YMonomial((i, s, rng.choice((-1, 1)) * rng.randint(1, limit)) for i, s in slots)

    monos = {draw() for _ in range(2000)}
    assert len({key(m.data) for m in monos}) == len(monos)
    for m1, m2 in zip(list(monos)[::2], list(monos)[1::2]):
        assert key((m1 * m2).data) == key(m1.data) + key(m2.data)


def test_fixpoint_rejects_rows_past_the_level_window(D4, monkeypatch):
    inner = qtchar.engine._node_simple

    def shifted_rows(L, i, ui):
        return [(tuple((j, s + 40, e) for j, s, e in q), p, deg) for q, p, deg in inner(L, i, ui)]

    monkeypatch.setattr(qtchar.engine, "_node_simple", shifted_rows)
    with pytest.raises(InternalError, match="window"):
        _fixpoint(D4, DrinfeldPoly.kr(2, 2, 0))


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


def test_kl_matrix_identity(engine_for, A2):
    # c = z * l entrywise over the whole closure
    res = engine_for(A2).kl_decompose(DrinfeldPoly.kr(1, 3, 0))
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


SUBTRACTION_CASES = [
    ("A", 3, DrinfeldPoly.kr(2, 4, 0)),
    ("D", 4, DrinfeldPoly.kr(2, 3, 0)),
    ("D", 4, DrinfeldPoly.kr(1, 4, 0)),
    ("D", 5, DrinfeldPoly.kr(3, 2, 0)),
    ("E", 6, DrinfeldPoly.kr(1, 2, 0)),
    ("A", 3, DrinfeldPoly(((2, 0), (2, 1), (2, 2)))),
    ("A", 2, DrinfeldPoly(((1, 0), (1, 1), (1, 2), (2, 1), (2, 3)))),
]


@pytest.mark.parametrize("family, rank, poly", SUBTRACTION_CASES, ids=lambda x: str(x))
def test_simples_match_subtraction_route(family, rank, poly, engines, subtraction_simples):
    # every simple of the closure (fixpoints pinned to l-rows, strings and
    # class products) against standard minus z-weighted simples below it
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
    # fundamentals (for the dominant data) and its own fixpoint, no other
    runs = []
    inner = qtchar.engine._fixpoint

    def counting(L, poly, pins=None):
        runs.append(poly)
        return inner(L, poly, pins)

    monkeypatch.setattr(qtchar.engine, "_fixpoint", counting)
    P = DrinfeldPoly.kr(2, 4, 0)
    eng = Engine(D4)
    simple = eng.simple_char(P)
    assert len(eng._triangle(P)[0]) == 48
    want = [DrinfeldPoly.fundamental(i, 0) for i in (1, 2, 3, 4)] + [P]
    assert sorted(runs, key=lambda q: q.roots) == sorted(want, key=lambda q: q.roots)
    assert simple is eng.kr_char_direct(2, 4)


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


def test_class_product_must_match_its_row(A2, A3):
    # roots of two bipartite classes: the simple is the product of the
    # halves' simples, and a row it does not match is an error
    for L, P in (
        (A3, DrinfeldPoly(((2, 0), (2, 1), (2, 2)))),
        (A2, DrinfeldPoly(((1, 0), (1, 1), (1, 2), (2, 1), (2, 3)))),
    ):
        eng = Engine(L)
        order, _, _, l = eng._triangle(P)
        row = qtchar.engine._l_row(order, l, 0)
        wrong = dict(row)
        wrong[order[1].monomial()] = TPoly.ONE
        with pytest.raises(InternalError, match="differs from its l-row"):
            Engine(L)._simple(P, wrong)
        assert eng._simple(P, row) == eng.simple_char(P)


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


def test_memory_cache_reuses_objects(A2):
    eng = Engine(A2)
    assert eng.fundamental_char(1, 0) is eng.fundamental_char(1, 0)
    P = DrinfeldPoly.kr(1, 2, 0)
    assert eng.kl_decompose(P) is eng.kl_decompose(P)
