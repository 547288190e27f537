from __future__ import annotations

from fractions import Fraction

import pytest

from qtchar import (
    NotInRootLattice,
    UnsupportedType,
    build_lie_type,
    positive_roots,
    root_to_weight,
    two_rho,
    weight_to_root_coords,
)
from qtchar.roots import weight_to_rational_root_coords


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
    assert weight_to_rational_root_coords(A2, (1, 0)) == (
        Fraction(2, 3),
        Fraction(1, 3),
    )
    # integral weights stay integral
    assert weight_to_rational_root_coords(A2, (1, 1)) == (1, 1)


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 3), ("D", 4), ("D", 5), ("E", 6), ("E", 8)])
def test_two_rho_form_is_twice_the_height(family, rank):
    L = build_lie_type(family, rank)
    rho2 = two_rho(L)
    assert all(isinstance(x, int) and x > 0 for x in rho2)
    for k in range(rank):
        omega = tuple(1 if j == k else 0 for j in range(rank))
        assert rho2[k] == 2 * sum(weight_to_rational_root_coords(L, omega))
