from __future__ import annotations

import random

import pytest

from qtchar import (
    Engine,
    EpsilonTable,
    NotComparable,
    ParseError,
    YMonomial,
    a_monomial,
    build_lie_type,
    epsilon,
    pairing_d,
    pairing_d_alt,
    parse_monomial,
    tilde_d,
    tilde_u,
    v_factorization,
)
from qtchar.systems import right_negative

Y = YMonomial.var


def test_monomial_group_ops():
    m = Y(1, 0) * Y(2, 3, -2)
    assert m.data == ((1, 0, 1), (2, 3, -2))
    assert (m * m**-1).is_one()
    assert (m**2).u(2, 3) == -4
    assert m.shift(5).data == ((1, 5, 1), (2, 8, -2))
    assert m.min_s() == 0 and m.max_s() == 3


def test_parse_and_str_round_trip():
    for text in ("1", "Y[1,0]", "Y[1,-2]^-3 Y[2,1]", "Y[1,0]^2 Y[2,3]^-1"):
        m = parse_monomial(text)
        assert parse_monomial(str(m)) == m
    assert str(parse_monomial("Y[2,1] Y[1,0]")) == "Y[1,0] Y[2,1]"
    assert parse_monomial("Y[1,0] Y[1,0]^-1").is_one()
    with pytest.raises(ParseError):
        parse_monomial("Y[0,1]")
    with pytest.raises(ParseError):
        parse_monomial("Z[1,0]")


def test_dominance_flags():
    m = parse_monomial("Y[1,0] Y[2,2]^-1")
    assert m.is_i_dominant(1)
    assert not m.is_i_dominant(2)
    assert not m.is_l_dominant()
    assert parse_monomial("Y[1,0]^3").is_l_dominant()
    assert m.max_s() == 2
    assert right_negative(m)


def test_weight(A2):
    assert parse_monomial("Y[1,0] Y[1,4] Y[2,1]^-3").weight(A2) == (2, -3)


def test_a_monomial(A2, D4):
    assert a_monomial(A2, 1, 1) == parse_monomial("Y[1,0] Y[1,2] Y[2,1]^-1")
    assert a_monomial(D4, 2, 0) == parse_monomial(
        "Y[2,-1] Y[2,1] Y[1,0]^-1 Y[3,0]^-1 Y[4,0]^-1"
    )
    # weight of a simple affinization is the Cartan row
    assert a_monomial(D4, 2, 5).weight(D4) == (-1, 2, -1, -1)


def test_v_factorization_chain(A2):
    top = parse_monomial("Y[1,0]")
    assert v_factorization(A2, top, top) == {}
    mid = parse_monomial("Y[1,2]^-1 Y[2,1]")
    assert v_factorization(A2, mid, top) == {(1, 1): 1}
    bot = parse_monomial("Y[2,3]^-1")
    assert v_factorization(A2, bot, top) == {(1, 1): 1, (2, 2): 1}


def test_v_factorization_reconstructs(A1, A2, A3, D4):
    # m_ref * prod A(i,s)^-v == m on randomized dominated monomials
    rng = random.Random(5)
    for L in (A1, A2, A3, D4):
        top = parse_monomial("Y[1,0] Y[1,2]") * Y(L.rank, 1)
        for _ in range(40):
            m = top
            for _ in range(rng.randint(0, 6)):
                i = rng.choice(list(L.nodes))
                s = rng.randint(-2, 4)
                m = m * a_monomial(L, i, s) ** -1
            v = v_factorization(L, m, top)
            back = top
            for (i, s), e in v.items():
                back = back * a_monomial(L, i, s) ** -e
            assert back == m
            assert all(e > 0 for e in v.values())


def test_v_factorization_incomparable(A2):
    with pytest.raises(NotComparable):
        v_factorization(A2, parse_monomial("Y[2,0]"), parse_monomial("Y[1,0]"))
    with pytest.raises(NotComparable):
        # same weight, wrong lattice position
        v_factorization(A2, parse_monomial("Y[1,2]"), parse_monomial("Y[1,0]"))
    with pytest.raises(NotComparable):
        # A-products never invert
        v_factorization(
            A2, parse_monomial("Y[1,0]"), parse_monomial("Y[1,2]^-1 Y[2,1]")
        )


def test_tilde_u_boundary_recursion(A1, A2, D4):
    # u[i,s] = tu[i,s-1] + tu[i,s+1] - sum over neighbors tu[j,s], and the
    # solution vanishes for s <= min_s
    for L, m in (
        (A1, parse_monomial("Y[1,0]")),
        (A2, parse_monomial("Y[1,0] Y[2,3]^-2")),
        (D4, parse_monomial("Y[2,0]")),
    ):
        s_max = 9
        ut = tilde_u(L, m, s_max)
        assert all(s <= s_max for (_, s) in ut)
        u = m.u_map()
        for i in L.nodes:
            for s in range(m.min_s() - 2, s_max - 1):
                lhs = u.get((i, s), 0)
                rhs = (
                    ut.get((i, s - 1), 0)
                    + ut.get((i, s + 1), 0)
                    - sum(ut.get((j, s), 0) for j in L.neighbors(i))
                )
                assert lhs == rhs


def test_tilde_u_a1_values(A1):
    # type A1: tilde_u of Y[1,0] alternates with period 4
    ut = tilde_u(A1, parse_monomial("Y[1,0]"), 8)
    assert ut == {(1, 1): 1, (1, 3): -1, (1, 5): 1, (1, 7): -1}


def test_pairing_d_known_values(A1):
    m1 = parse_monomial("Y[1,2]^-1")
    p1 = parse_monomial("Y[1,0]")
    m2 = p2 = parse_monomial("Y[1,2]")
    assert pairing_d(A1, m1, p1, m2, p2) == 0
    assert pairing_d(A1, m2, p2, m1, p1) == 1
    assert pairing_d_alt(A1, m1, p1, m2, p2) == 0
    assert pairing_d_alt(A1, m2, p2, m1, p1) == 1


def test_epsilon_known_values(A1, A2):
    assert epsilon(A1, parse_monomial("Y[1,0]"), parse_monomial("Y[1,2]")) == 1
    assert epsilon(A1, parse_monomial("Y[1,2]"), parse_monomial("Y[1,0]")) == -1
    assert epsilon(A2, parse_monomial("Y[1,0]"), parse_monomial("Y[2,1]")) == 0
    assert epsilon(A2, parse_monomial("Y[1,0]"), parse_monomial("Y[2,3]")) == 1
    assert epsilon(A2, parse_monomial("Y[1,0]"), parse_monomial("Y[1,0]")) == 0


def test_epsilon_shift_invariance_and_antisymmetry(A2):
    rng = random.Random(9)
    monos = [
        parse_monomial("Y[1,0]"),
        parse_monomial("Y[2,3]^-1"),
        parse_monomial("Y[1,2]^-1 Y[2,1]"),
        parse_monomial("Y[1,0]^2 Y[2,5]"),
    ]
    for _ in range(60):
        m1, m2 = rng.choice(monos), rng.choice(monos)
        d = rng.randint(-3, 3)
        e = epsilon(A2, m1, m2)
        assert e == -epsilon(A2, m2, m1)
        assert e == epsilon(A2, m1.shift(d), m2.shift(d))


def test_epsilon_table_matches_direct(A2, A3):
    monos = [
        parse_monomial("Y[1,0]"),
        parse_monomial("Y[2,3]^-1"),
        parse_monomial("Y[1,2]^-1 Y[2,1]"),
        parse_monomial("Y[3,1] Y[1,4]^-2"),
        parse_monomial("Y[2,-3]"),
    ]
    for L in (A2, A3):
        table = EpsilonTable(L)
        pool = [m for m in monos if all(i <= L.rank for i, _, _ in m.data)]
        for m1 in pool:
            for m2 in pool:
                assert table.of(m1, m2) == epsilon(L, m1, m2)


def _functional_pools():
    """D4 and E6 term pools: fundamental characters (negative exponents
    below the top), copies translated by more than twice the Coxeter
    number, and hand-made monomials with higher powers."""
    out = []
    for family, rank, nodes, extra in (
        ("D", 4, (1, 2), ("Y[3,-20]^-2 Y[4,1]", "Y[2,40]^3 Y[1,-3]^-1")),
        ("E", 6, (1, 6), ("Y[6,-31]^-2 Y[3,2]", "Y[4,50]^2 Y[2,-7]^-3")),
    ):
        L = build_lie_type(family, rank)
        gap = 2 * L.coxeter_number + 3
        eng = Engine(L)
        pool = list(eng.fundamental_char(nodes[0], 0).terms)
        pool += [m.shift(gap) for m in eng.fundamental_char(nodes[1], 1).terms]
        pool += [parse_monomial(t) for t in extra]
        out.append((L, pool))
    return out


def test_epsilon_functional_matches_definition():
    for L, pool in _functional_pools():
        table = EpsilonTable(L)
        keys = {(i, s) for m in pool for i, s, _ in m.data}
        assert max(s for _, s in keys) - min(s for _, s in keys) > 2 * L.coxeter_number
        for m2 in pool:
            phi = table.functional(m2, keys)
            assert all(k in keys and x for k, x in phi.items())
            for m1 in pool:
                dot = sum(e * phi.get((i, s), 0) for i, s, e in m1.data)
                assert dot == table.of(m1, m2) == epsilon(L, m1, m2), (L, m1, m2)


def test_tilde_d_empty_monomial(A2):
    one = YMonomial.one()
    assert tilde_d(A2, one, parse_monomial("Y[1,0]")) == 0
    assert tilde_d(A2, parse_monomial("Y[1,0]"), one) == 0
