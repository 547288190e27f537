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
  for A, D, E, so no transpose ambiguity survives); both conversions are
  integer-only and refuse a vector whose length is not the rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, NotInRootLattice, UnsupportedType

# positive-root counts, cross-checked against (dim g - rank)/2
_POSITIVE_ROOT_COUNT = {
    ("E", 6): 36,
    ("E", 7): 63,
    ("E", 8): 120,
}

_COXETER = {("E", 6): 12, ("E", 7): 18, ("E", 8): 30}
# Far above any rank this package can compute with; build_lie_type refuses a
# larger one before it allocates the dense rank x rank Cartan matrix.
MAX_RANK = 1000

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
    """Construct a LieType, rejecting anything outside A(n>=1), D(n>=4), E(6..8) or above MAX_RANK."""
    family = family.upper()
    if rank > MAX_RANK:
        raise UnsupportedType(f"{family}{rank}: rank above the bound {MAX_RANK}")
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


def _check_length(L: LieType, v: tuple) -> None:
    if len(v) != L.rank:
        raise DomainError(f"{len(v)} coordinates given, but {L} has rank {L.rank}: {v}")


def root_to_weight(L: LieType, c: RootVector) -> Weight:
    """w = C c: root coordinates to fundamental-weight coordinates."""
    _check_length(L, c)
    return tuple(sum(a * x for a, x in zip(row, c)) for row in L.cartan)


@lru_cache(maxsize=None)
def _cartan_adjugate(L: LieType) -> tuple:
    """(det C, adj C = det C * C^-1) by fraction-free Gauss-Jordan
    elimination (Bareiss) on [C | I]: step k leaves the leading (k+1)-minor
    on every diagonal and divides exactly by the one before.  C is positive
    definite, so no pivot vanishes."""
    n = L.rank
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(L.cartan)]
    prev = 1
    for k in range(n):
        pivot = aug[k]
        p = pivot[k]
        for i in range(n):
            if i != k:
                row = aug[i]
                f = row[k]
                aug[i] = [(p * x - f * y) // prev for x, y in zip(row, pivot)]
        prev = p
    return prev, tuple(tuple(row[n:]) for row in aug)


def weight_to_root_coords(L: LieType, w: Weight) -> RootVector:
    """Solve w = C c exactly, as c = adj(C) w / det C; NotInRootLattice
    when det C does not divide every entry of adj(C) w."""
    _check_length(L, w)
    det, adj = _cartan_adjugate(L)
    qr = [divmod(sum(a * x for a, x in zip(row, w)), det) for row in adj]
    if any(r for _, r in qr):
        raise NotInRootLattice(f"weight {w} is not in the root lattice of {L}")
    return tuple(q for q, _ in qr)


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
def diagram_automorphisms(L: LieType) -> tuple:
    """The node permutations that preserve the Cartan matrix, each a tuple
    p with p[i - 1] the image of node i, in lexicographic order, so the
    identity comes first.

    A backtracking search sends node 1, 2, ... in turn to an unused node
    whose Cartan entries against the nodes already placed match.  The group
    has 6 elements on D4, 2 on A_n (n >= 2), D_n (n >= 5) and E6, and 1
    on A1, E7 and E8."""
    n = L.rank
    out = []
    image: list = []

    def place(i: int) -> None:
        if i == n:
            out.append(tuple(x + 1 for x in image))
            return
        for x in range(n):
            if x not in image and all(L.cartan[i][j] == L.cartan[x][y] for j, y in enumerate(image)):
                image.append(x)
                place(i + 1)
                image.pop()

    place(0)
    return tuple(out)


@lru_cache(maxsize=None)
def two_rho(L: LieType) -> RootVector:
    """2 rho in root coordinates: the sum of the positive roots.

    Read as an integer linear form on weights in fundamental coordinates,
    sum(two_rho[k] * w[k]) is twice the height of w (the sum of its root
    coordinates).  So a monomial below m_ref lies at depth
    (form(m_ref) - form(m)) / 2, and for dominant w the form is
    height(w - w0 w), the depth of the lowest weight of the orbit."""
    return tuple(sum(col) for col in zip(*positive_roots(L)))


@lru_cache(maxsize=None)
def dual_nodes(L: LieType) -> tuple:
    """The involution i -> i* with w0(omega_i) = -omega_{i*}, as a tuple p
    with p[i - 1] = i*.

    omega_i is reflected by s_j, for the first j where its coordinate is
    positive, until no coordinate is.  Each step lowers the weight within
    its finite Weyl orbit, so the walk ends at the orbit's antidominant
    weight, w0(omega_i) = -omega_{i*}.  i* is n + 1 - i on A_n; on D_n
    with n odd the nodes n - 1 and n swap; on E6 1 <-> 6 and 3 <-> 5; every
    other node is fixed."""
    out = []
    for i in L.nodes:
        w = [int(j == i) for j in L.nodes]
        j = 0
        while j < L.rank:
            if w[j] > 0:
                x = w[j]
                # s_j(w) = w - w_j alpha_j, and alpha_j is row j of the Cartan matrix
                w = [a - x * c for a, c in zip(w, L.cartan[j])]
                j = 0
            else:
                j += 1
        if sorted(w) != [-1] + [0] * (L.rank - 1):
            raise AssertionError(f"w0(omega_{i}) of {L} came out as {w}, not a negated fundamental weight")
        out.append(w.index(-1) + 1)
    return tuple(out)
