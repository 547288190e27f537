from __future__ import annotations

import random

import pytest

from qtchar import (
    DomainError,
    NotInRootLattice,
    UnsupportedType,
    build_lie_type,
    diagram_automorphisms,
    dual_nodes,
    positive_roots,
    root_to_weight,
    two_rho,
    weight_to_root_coords,
)
from qtchar.roots import MAX_RANK, _cartan_adjugate


def test_cartan_matrices(A1, A2, D4):
    assert A1.cartan == ((2,),)
    assert A2.cartan == ((2, -1), (-1, 2))
    assert D4.a(2, 2) == 2
    assert D4.a(1, 2) == -1
    assert D4.a(1, 3) == 0
    assert D4.a(1, 4) == 0


def test_neighbors_and_nodes(A3, D4):
    assert list(A3.nodes) == [1, 2, 3]
    assert A3.neighbors(2) == (1, 3)
    # node 2 is the branch node
    assert set(D4.neighbors(2)) == {1, 3, 4}
    assert D4.neighbors(1) == (2,)


@pytest.mark.parametrize(
    "family,rank,count,coxeter",
    [("A", 1, 1, 2), ("A", 2, 3, 3), ("A", 3, 6, 4), ("D", 4, 12, 6), ("E", 6, 36, 12)],
)
def test_positive_root_counts_and_coxeter_numbers(family, rank, count, coxeter):
    L = build_lie_type(family, rank)
    assert L.positive_root_count == count
    assert L.coxeter_number == coxeter
    roots = positive_roots(L)
    assert len(roots) == count
    heights = [sum(r) for r in roots]
    assert heights == sorted(heights)
    assert heights[0] == 1 and heights[-1] == coxeter - 1


def test_positive_roots_a2(A2):
    # sorted by height, ties lexicographic
    assert positive_roots(A2) == ((0, 1), (1, 0), (1, 1))


@pytest.mark.parametrize(
    "family,rank", [("B", 2), ("C", 3), ("A", 0), ("D", 3), ("E", 5), ("E", 9), ("F", 4)]
)
def test_unsupported_types_rejected(family, rank):
    with pytest.raises(UnsupportedType):
        build_lie_type(family, rank)


def test_rank_past_the_bound_rejected():
    # the dense Cartan matrix is never allocated for a rank past MAX_RANK
    assert build_lie_type("A", MAX_RANK).rank == MAX_RANK
    for family in "AD":
        with pytest.raises(UnsupportedType, match="rank"):
            build_lie_type(family, MAX_RANK + 1)


def test_root_weight_round_trip(A3, D4):
    for L in (A3, D4):
        for root in positive_roots(L):
            w = root_to_weight(L, root)
            assert weight_to_root_coords(L, w) == root


def test_simple_root_weight_rows(A2):
    # alpha_i in the fundamental-weight basis is the i-th Cartan row
    assert root_to_weight(A2, (1, 0)) == (2, -1)
    assert root_to_weight(A2, (0, 1)) == (-1, 2)


def test_weight_outside_root_lattice_raises(A2):
    with pytest.raises(NotInRootLattice):
        weight_to_root_coords(A2, (1, 0))


def test_rational_root_coords(A2):
    # integral weights stay integral
    assert weight_to_root_coords(A2, (1, 1)) == (1, 1)


# every type of rank <= 9 the conversions are checked on: A1-A9, D4-D7, E6-E8
_TYPES = [("A", n) for n in range(1, 10)] + [("D", n) for n in range(4, 8)] + [("E", n) for n in (6, 7, 8)]


@pytest.mark.parametrize("family,rank", _TYPES)
def test_cartan_adjugate(family, rank):
    # C adj(C) = det(C) I, with det C = n + 1 on A_n, 4 on D_n, 9 - n on E_n
    L = build_lie_type(family, rank)
    det, adj = _cartan_adjugate(L)
    assert det == {"A": rank + 1, "D": 4, "E": 9 - rank}[family]
    for i in range(rank):
        for j in range(rank):
            assert sum(L.cartan[i][k] * adj[k][j] for k in range(rank)) == det * (i == j)


@pytest.mark.parametrize("family,rank", _TYPES)
def test_root_coords_round_trip_random(family, rank):
    L = build_lie_type(family, rank)
    rng = random.Random(rank)
    for _ in range(50):
        c = tuple(rng.randint(-6, 6) for _ in range(rank))
        assert weight_to_root_coords(L, root_to_weight(L, c)) == c


def test_fundamental_weights_and_the_root_lattice():
    # the minuscule weight omega_1 of A2, D4 and E6 and omega_7 of E7 lies
    # outside the root lattice; E7's omega_1 and E8's omega_8 are highest
    # roots, and det C = 1 on E8, so its root lattice is the weight lattice
    for family, rank, node in [("A", 2, 1), ("D", 4, 1), ("E", 6, 1), ("E", 7, 7)]:
        L = build_lie_type(family, rank)
        with pytest.raises(NotInRootLattice):
            weight_to_root_coords(L, tuple(int(j == node) for j in L.nodes))
    for family, rank, node in [("E", 7, 1), ("E", 8, 8)]:
        L = build_lie_type(family, rank)
        assert weight_to_root_coords(L, tuple(int(j == node) for j in L.nodes)) == positive_roots(L)[-1]
    assert weight_to_root_coords(build_lie_type("E", 8), (1,) + (0,) * 7) == (4, 5, 7, 10, 8, 6, 4, 2)


def test_wrong_length_vectors_raise(A2):
    A4 = build_lie_type("A", 4)
    for w in [(0, 0, 0, 0, 5), (2, -1), ()]:
        with pytest.raises(DomainError, match="rank 4"):
            weight_to_root_coords(A4, w)
    with pytest.raises(DomainError):
        root_to_weight(A4, (1, 0))
    with pytest.raises(DomainError):
        root_to_weight(A2, (1, 0, 0))


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 3), ("D", 4), ("D", 5), ("E", 6), ("E", 8)])
def test_two_rho_form_is_twice_the_height(family, rank):
    # det C omega_k always lies in the root lattice, so twice its height is
    # det C times the form at omega_k
    L = build_lie_type(family, rank)
    rho2 = two_rho(L)
    det = _cartan_adjugate(L)[0]
    assert all(isinstance(x, int) and x > 0 for x in rho2)
    for k in range(rank):
        omega = tuple(det if j == k else 0 for j in range(rank))
        assert det * rho2[k] == 2 * sum(weight_to_root_coords(L, omega))


@pytest.mark.parametrize(
    "family,rank,order",
    [("A", 1, 1), ("A", 3, 2), ("A", 4, 2), ("D", 4, 6), ("D", 5, 2), ("E", 6, 2), ("E", 7, 1), ("E", 8, 1)],
)
def test_diagram_automorphisms(family, rank, order):
    L = build_lie_type(family, rank)
    group = diagram_automorphisms(L)
    assert len(group) == order == len(set(group))
    assert group[0] == tuple(L.nodes)
    for p in group:
        assert sorted(p) == list(L.nodes)
        assert all(L.a(p[i - 1], p[j - 1]) == L.a(i, j) for i in L.nodes for j in L.nodes)


def test_diagram_automorphisms_of_a3_d4_e6(A3, D4):
    assert diagram_automorphisms(A3) == ((1, 2, 3), (3, 2, 1))
    # triality permutes the legs 1, 3, 4 of D4 and fixes the branch node 2
    assert {p[1] for p in diagram_automorphisms(D4)} == {2}
    assert diagram_automorphisms(build_lie_type("E", 6))[1] == (6, 2, 5, 4, 3, 1)


@pytest.mark.parametrize(
    "family,rank,star",
    [
        ("A", 1, (1,)),
        ("A", 4, (4, 3, 2, 1)),
        ("D", 4, (1, 2, 3, 4)),
        ("D", 5, (1, 2, 3, 5, 4)),
        ("D", 6, (1, 2, 3, 4, 5, 6)),
        ("E", 6, (6, 2, 5, 4, 3, 1)),
        ("E", 7, tuple(range(1, 8))),
        ("E", 8, tuple(range(1, 9))),
    ],
)
def test_dual_nodes(family, rank, star):
    # i -> i* is -w0 on the fundamental weights: an involutive diagram
    # automorphism, the identity exactly where w0 = -1
    L = build_lie_type(family, rank)
    assert dual_nodes(L) == star
    assert star in diagram_automorphisms(L)
    assert all(star[star[i - 1] - 1] == i for i in L.nodes)
