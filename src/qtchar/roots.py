"""Simply-laced root data: Cartan matrices, positive roots, lattice conversions.

Conventions fixed here and used everywhere else:

* nodes are 1-based;
* type A is the path 1-2-...-n;
* type D is the path 1-2-...-(n-2) with nodes n-1 and n both attached
  to n-2 (so for D4 the branch node is 2);
* type E uses Bourbaki numbering: the chain 1-3-4-5-...-n with node 2
  attached to node 4;
* a Weight is a tuple of integers in fundamental-weight coordinates,
  a RootVector is a tuple of integers in simple-root coordinates, and
  the two are related by w = C c with C the Cartan matrix (symmetric
  for A, D, E, so no transpose ambiguity survives).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import NotInRootLattice, UnsupportedType

# positive-root counts, cross-checked against (dim g - rank)/2
_POSITIVE_ROOT_COUNT = {
    ("E", 6): 36,
    ("E", 7): 63,
    ("E", 8): 120,
}

_COXETER = {("E", 6): 12, ("E", 7): 18, ("E", 8): 30}

Weight = tuple
RootVector = tuple


@dataclass(frozen=True)
class LieType:
    """A simply-laced finite type together with its Cartan matrix."""

    family: str
    rank: int
    cartan: tuple

    @property
    def nodes(self):
        return range(1, self.rank + 1)

    def a(self, i: int, j: int) -> int:
        return self.cartan[i - 1][j - 1]

    def neighbors(self, i: int) -> tuple:
        return tuple(
            j for j in self.nodes if j != i and self.cartan[i - 1][j - 1] == -1
        )

    @property
    def coxeter_number(self) -> int:
        if self.family == "A":
            return self.rank + 1
        if self.family == "D":
            return 2 * self.rank - 2
        return _COXETER[("E", self.rank)]

    @property
    def positive_root_count(self) -> int:
        if self.family == "A":
            return self.rank * (self.rank + 1) // 2
        if self.family == "D":
            return self.rank * (self.rank - 1)
        return _POSITIVE_ROOT_COUNT[("E", self.rank)]

    def __str__(self):
        return f"{self.family}{self.rank}"


def _edges(family: str, rank: int):
    if family == "A":
        return [(i, i + 1) for i in range(1, rank)]
    if family == "D":
        edges = [(i, i + 1) for i in range(1, rank - 1)]
        edges.append((rank - 2, rank))
        return edges
    # E, Bourbaki: chain through 1-3-4-...-rank, plus 2-4
    chain = [1, 3] + list(range(4, rank + 1))
    edges = [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    edges.append((2, 4))
    return edges


def build_lie_type(family: str, rank: int) -> LieType:
    """Construct a LieType, rejecting anything outside A(n>=1), D(n>=4), E(6..8)."""
    family = family.upper()
    if family == "A" and rank >= 1:
        pass
    elif family == "D" and rank >= 4:
        pass
    elif family == "E" and rank in (6, 7, 8):
        pass
    else:
        raise UnsupportedType(f"no simply-laced type {family}{rank}")
    cartan = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in _edges(family, rank):
        cartan[i - 1][j - 1] = -1
        cartan[j - 1][i - 1] = -1
    return LieType(family, rank, tuple(tuple(row) for row in cartan))


def root_to_weight(L: LieType, c: RootVector) -> Weight:
    return tuple(
        sum(L.cartan[k][j] * c[j] for j in range(L.rank)) for k in range(L.rank)
    )


@lru_cache(maxsize=None)
def _inverse_cartan(L: LieType):
    n = L.rank
    # Gauss-Jordan over exact rationals
    aug = [
        [Fraction(L.cartan[i][j]) for j in range(n)]
        + [Fraction(1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def weight_to_rational_root_coords(L: LieType, w) -> tuple:
    """Solve w = C c over the rationals; weights outside the root lattice
    get fractional coordinates instead of an error."""
    inv = _inverse_cartan(L)
    return tuple(sum(f * wi for f, wi in zip(row, w)) for row in inv)


def weight_to_root_coords(L: LieType, w: Weight) -> RootVector:
    """Solve w = C c exactly; NotInRootLattice when c is not integral."""
    inv = _inverse_cartan(L)
    coords = []
    for row in inv:
        x = sum(f * wi for f, wi in zip(row, w))
        if x.denominator != 1:
            raise NotInRootLattice(f"weight {w} is not in the root lattice of {L}")
        coords.append(int(x))
    return tuple(coords)


@lru_cache(maxsize=None)
def positive_roots(L: LieType) -> tuple:
    """All positive roots in root coordinates, by repeated simple-root addition.

    In the simply-laced case beta + alpha_i is a root exactly when the pairing
    (beta, alpha_i^vee) equals -1, i.e. the i-th weight coordinate of beta is -1.
    Result is sorted by (height, coordinates) and its length is checked against
    the closed-form count.
    """
    n = L.rank
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    found = set(simple)
    work = list(simple)
    while work:
        beta = work.pop()
        w = root_to_weight(L, beta)
        for i in range(n):
            if w[i] == -1:
                new = tuple(
                    c + (1 if j == i else 0) for j, c in enumerate(beta)
                )
                if new not in found:
                    found.add(new)
                    work.append(new)
    roots = sorted(found, key=lambda c: (sum(c), c))
    if len(roots) != L.positive_root_count:
        raise AssertionError(
            f"positive-root closure for {L} found {len(roots)} roots, "
            f"expected {L.positive_root_count}"
        )
    return tuple(roots)


@lru_cache(maxsize=None)
def two_rho(L: LieType) -> RootVector:
    """2 rho in root coordinates: the sum of the positive roots.

    Read as an integer linear form on weights in fundamental coordinates,
    sum(two_rho[k] * w[k]) is twice the height of w (the sum of its root
    coordinates).  So a monomial below m_ref lies at depth
    (form(m_ref) - form(m)) / 2, and for dominant w the form is
    height(w - w0 w), the depth of the lowest weight of the orbit."""
    return tuple(sum(col) for col in zip(*positive_roots(L)))
