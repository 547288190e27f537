"""Verifiers for the identities the engine is supposed to witness: the
KR tensor recursion at t = 1 and its t-refinement, the tensor-split
decomposition, truncated stabilization of normalized KR characters, the
finite-type restriction recursion, and the binomial configuration sum
for restricted KR products.

Every check is an exact symbolic comparison of the two sides' raw term
dicts.  A VerifyReport keeps both sides together with their canonical
serializer and turns them into text only when they are read, so a failure
can print the mismatching terms while a pass never pays for the strings.

The T-system checks (t = 1 and t-refined) and the tensor split compare
sums of twisted products of characters.  An element of K_t is fixed by
its coefficients at l-dominant monomials (Frenkel-Mukhin at t = 1;
Hernandez, "Algebraic approach to q,t-characters").  Every factor comes
from the engine, which builds only members of K_t (engine.py): a KR
module has a single dominant monomial, so its character is the fixpoint
output, and the tensor split's simple is a pinned run or a product of
two.  K_t is closed under the twisted product, so both sides lie in it, and those checks pass on equal dominant parts (dominant_product),
building their full sides only if a report's sides are read.  Dominant
parts that differ send the check through the full products, so every
failing report is the one the full comparison gives.
"""

from __future__ import annotations

from fractions import Fraction

from .character import (
    DrinfeldPoly,
    GCharacter,
    _star_fold,
    dominant_product,
    normalized_in_A,
    qchar_mul,
    restrict_to_g,
    specialize_t1,
    terms_add,
)
from .engine import Engine, default_engine
from .errors import DomainError, InternalError, NotInRootLattice
from .monomial import ONE_MONO, EpsilonTable, YMonomial
from .roots import (
    LieType,
    positive_roots,
    weight_to_rational_root_coords,
    weight_to_root_coords,
)
from .tpoly import TPoly, gen_binomial


# NuConfig: finite-support map (node, string length k >= 1) -> nonneg count.
NuConfig = dict


def check_nu(L: LieType, nu: NuConfig) -> dict:
    out = {}
    for (i, k), v in dict(nu).items():
        if i not in L.nodes:
            raise DomainError(f"node {i} out of range for {L}")
        if k < 1:
            raise DomainError(f"string length {k} must be >= 1")
        if v < 0:
            raise DomainError(f"negative count in configuration: {v}")
        if v:
            out[(i, k)] = int(v)
    return out


class VerifyReport:
    """Outcome of one check.  lhs and rhs are the two sides as dicts from
    canonical text keys to canonical text values; a verifier may hand over
    its raw term dicts plus the function that serializes them, and the text
    forms are then built only when lhs, rhs or a failing text() is read.
    A report made by deferred() holds a function that computes the raw
    sides, and calls it only then too."""

    __slots__ = ("claim", "params", "status", "_sides", "_ser")

    def __init__(self, claim: str, params: dict, status: str, lhs: dict, rhs: dict, ser=None):
        self.claim = claim
        self.params = params
        self.status = status
        self._sides = (lhs, rhs)
        self._ser = ser

    @classmethod
    def deferred(cls, claim: str, params: dict, status: str, sides, ser) -> "VerifyReport":
        """Report whose raw sides are sides(), computed on first read."""
        rep = cls(claim, params, status, None, None, ser)
        rep._sides = sides
        return rep

    def _serialized(self) -> tuple:
        sides = self._sides
        if callable(sides):
            sides = sides()
        if self._ser is not None:
            sides = tuple(self._ser(d) for d in sides)
            self._ser = None
        self._sides = sides
        return sides

    @property
    def lhs(self) -> dict:
        return self._serialized()[0]

    @property
    def rhs(self) -> dict:
        return self._serialized()[1]

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def __eq__(self, other):
        if not isinstance(other, VerifyReport):
            return NotImplemented
        return (self.claim, self.params, self.status, self.lhs, self.rhs) == (
            other.claim, other.params, other.status, other.lhs, other.rhs
        )

    def __repr__(self):
        return (
            f"VerifyReport(claim={self.claim!r}, params={self.params!r}, "
            f"status={self.status!r}, lhs={self.lhs!r}, rhs={self.rhs!r})"
        )

    def text(self) -> str:
        ptxt = " ".join(f"{k}={v}" for k, v in self.params.items())
        head = f"CLAIM {self.claim} PARAMS {ptxt} STATUS {self.status}"
        if self.status == "pass":
            return head
        lines = [head]
        for key in sorted(set(self.lhs) | set(self.rhs)):
            a = self.lhs.get(key)
            b = self.rhs.get(key)
            if a != b:
                lines.append(f"  {key}: lhs={'0' if a is None else a} rhs={'0' if b is None else b}")
        return "\n".join(lines)


def _report(claim: str, params: dict, lhs: dict, rhs: dict, ser) -> VerifyReport:
    """Report comparing two raw dicts; ser maps each to its text form and
    is injective, so raw equality is equality of the serialized sides."""
    return VerifyReport(claim, params, "pass" if lhs == rhs else "fail", lhs, rhs, ser)


def _decide(claim: str, params: dict, sides, dominant, full, ser) -> VerifyReport:
    """Report on an identity whose sides are sums of twisted products of
    engine-built characters.  sides(product) builds both sides, given
    product(list of characters) -> raw term dict.

    Every such character lies in K_t, and so do both sides, which are
    therefore fixed by their l-dominant terms: equal sides under the
    dominant product pass, and the full sides are built only if the
    report's sides are read.  Any other case, each failure included, is
    decided on the full sides."""
    lhs, rhs = sides(dominant)
    if lhs == rhs:
        return VerifyReport.deferred(claim, params, "pass", lambda: sides(full), ser)
    return _report(claim, params, *sides(full), ser)


# -- serialization: canonical text keys so dict equality is symbolic equality


def _ser_int_terms(d: dict) -> dict:
    return {str(m): str(c) for m, c in d.items()}


def _ser_weights(d: dict) -> dict:
    return {"e[" + ",".join(map(str, w)) + "]": str(c) for w, c in d.items()}


def _ser_root_terms(d: dict) -> dict:
    return {"a[" + ",".join(map(str, c)) + "]": str(v) for c, v in d.items()}


def _ser_vkeys(d: dict) -> dict:
    out = {}
    for key, p in d.items():
        if key:
            txt = " ".join(f"A[{i},{s}]^-{v}" for (i, s), v in key)
        else:
            txt = "1"
        out[txt] = str(p)
    return out


def _tshift(d: dict, n: int) -> dict:
    """Multiply a raw character dict by t^n."""
    if n == 0:
        return dict(d)
    return {m: p.shifted(n) for m, p in d.items()}


# -- T-system ----------------------------------------------------------------


def _check_string(L: LieType, i: int, k: int) -> None:
    """The node and string length of a T-system or tensor-split check, both
    checked before any character or commutation exponent is looked up."""
    if k < 1:
        raise DomainError("k must be positive")
    if i not in L.nodes:
        raise DomainError(f"node {i} out of range for {L}")


def verify_t_system_t1(L: LieType, i: int, k: int, engine: Engine | None = None) -> VerifyReport:
    """Specialized recursion: the product of the length-k characters at
    shifts 0 and 2 equals the (k+1, k-1) product plus the product of the
    neighbors' length-k characters at shift 1.  Length 0 means the unit
    character.  Decided on dominant parts as the module docstring says,
    with t = 1 set in the twisted dominant products."""
    _check_string(L, i, k)
    eng = engine or default_engine(L)
    table = EpsilonTable(L)
    kr = eng.kr_char_direct

    def dominant(chars) -> dict:
        return specialize_t1(dominant_product(L, chars, table))

    def full(chars) -> dict:
        out = {ONE_MONO: 1}
        for ch in chars:
            out = qchar_mul(out, specialize_t1(ch))
        return out

    def sides(product) -> tuple:
        lhs = product([kr(i, k, 0), kr(i, k, 2)])
        first = product([kr(i, k + 1, 0), kr(i, k - 1, 2)])
        second = product([kr(j, k, 1) for j in L.neighbors(i)])
        return lhs, terms_add(first, second)

    params = {"type": str(L), "i": i, "k": k}
    return _decide("t_system_t1", params, sides, dominant, full, _ser_int_terms)


def verify_t_system_t(L: LieType, i: int, k: int, engine: Engine | None = None) -> VerifyReport:
    """t-refined recursion: both sides are tensor characters built from
    the commutation-twisted product of simple characters, each side
    prefixed by t to minus the commutation exponent of its pair of
    highest monomials; the neighbor term carries t^(-1-N) where N sums
    the pairwise commutation exponents in ascending node order.  Decided
    on dominant parts as the module docstring says."""
    _check_string(L, i, k)
    eng = engine or default_engine(L)
    table = EpsilonTable(L)
    kr = eng.kr_char_direct

    def eps(p1: DrinfeldPoly, p2: DrinfeldPoly) -> int:
        return table.of(p1.monomial(), p2.monomial())

    tw_lhs = eps(DrinfeldPoly.kr(i, k, 0), DrinfeldPoly.kr(i, k, 2))
    tw_first = eps(DrinfeldPoly.kr(i, k + 1, 0), DrinfeldPoly.kr(i, k - 1, 2))
    js = list(L.neighbors(i))
    n_tw = 0
    for a in range(len(js)):
        for b in range(a + 1, len(js)):
            n_tw += eps(DrinfeldPoly.kr(js[a], k, 1), DrinfeldPoly.kr(js[b], k, 1))

    def sides(product) -> tuple:
        lhs = _tshift(product([kr(i, k, 0), kr(i, k, 2)]), -tw_lhs)
        first = _tshift(product([kr(i, k + 1, 0), kr(i, k - 1, 2)]), -tw_first)
        second = _tshift(product([kr(j, k, 1) for j in js]), -1 - n_tw)
        return lhs, terms_add(first, second)

    params = {"type": str(L), "i": i, "k": k}
    return _decide(
        "t_system_t", params, sides,
        lambda chars: dominant_product(L, chars, table),
        lambda chars: _star_fold(L, chars, table),
        _ser_int_terms,
    )


def verify_kr_tensor_split(L: LieType, i: int, k: int, engine: Engine | None = None) -> VerifyReport:
    """Tensoring the length-k string character with the single-root
    character at shift 2k splits into the length-(k+1) character plus
    t^-1 times one non-tensor simple character, the latter computed
    through the triangular decomposition.  Decided on dominant parts as
    the module docstring says."""
    _check_string(L, i, k)
    eng = engine or default_engine(L)
    table = EpsilonTable(L)

    p1 = DrinfeldPoly.kr(i, k, 0)
    p2 = DrinfeldPoly.fundamental(i, 2 * k)
    tw_lhs = table.of(p1.monomial(), p2.monomial())
    q = DrinfeldPoly.kr(i, k - 1, 0)
    for j in L.neighbors(i):
        q = q * DrinfeldPoly.fundamental(j, 2 * k - 1)
    second = eng.simple_char(q)

    def sides(product) -> tuple:
        lhs = product([eng.kr_char_direct(i, k, 0), eng.fundamental_char(i, 2 * k)])
        rhs = terms_add(product([eng.kr_char_direct(i, k + 1, 0)]), _tshift(product([second]), -1))
        return _tshift(lhs, -tw_lhs), rhs

    params = {"type": str(L), "i": i, "k": k}
    return _decide(
        "kr_tensor_split", params, sides,
        lambda chars: dominant_product(L, chars, table),
        lambda chars: _star_fold(L, chars, table),
        _ser_int_terms,
    )


# -- convergence ---------------------------------------------------------------


def verify_convergence(L: LieType, i: int, k_max: int, D: int, engine: Engine | None = None) -> VerifyReport:
    """Stabilization of the truncated normalized string characters: after
    re-keying each character's v-exponents to its own right end (spectral
    positions shifted down by 2k), the depth <= D truncations agree for
    every k from D through k_max."""
    if D < 0 or k_max < D:
        raise DomainError("need k_max >= D >= 0")
    eng = engine or default_engine(L)

    def keyed(k: int) -> dict:
        nm = normalized_in_A(eng.kr_char_direct(i, k, 0), D)
        out = {}
        for key, p in nm.items():
            out[tuple(sorted((((n, s - 2 * k), v) for (n, s), v in key)))] = p
        return out

    sides = {k: keyed(k) for k in range(D, k_max + 1)}
    params = {"type": str(L), "i": i, "k_max": k_max, "D": D}
    for k in range(D, k_max):
        if sides[k] != sides[k + 1]:
            params["first_mismatch"] = f"{k}~{k + 1}"
            return VerifyReport("convergence", params, "fail", sides[k], sides[k + 1], _ser_vkeys)
    return VerifyReport("convergence", params, "pass", sides[D], sides[k_max], _ser_vkeys)


# -- restriction and the finite-type recursion ---------------------------------


def q_character_Q(L: LieType, i: int, k: int, engine: Engine | None = None) -> GCharacter:
    """Finite-type character of the length-k string module at node i."""
    if k < 0:
        raise DomainError("k must be nonnegative")
    eng = engine or default_engine(L)
    return restrict_to_g(eng.kr_char_direct(i, k, 0))


def verify_q_system(L: LieType, i: int, k: int, engine: Engine | None = None) -> VerifyReport:
    """Finite-type recursion: Q(i,k)^2 = Q(i,k+1) Q(i,k-1) + prod over
    neighbors j of Q(j,k)."""
    if k < 1:
        raise DomainError("k must be positive")
    eng = engine or default_engine(L)
    lhs = q_character_Q(L, i, k, eng) * q_character_Q(L, i, k, eng)
    rhs = q_character_Q(L, i, k + 1, eng) * q_character_Q(L, i, k - 1, eng)
    prod = GCharacter.one(L)
    for j in L.neighbors(i):
        prod = prod * q_character_Q(L, j, k, eng)
    rhs = rhs + prod
    params = {"type": str(L), "i": i, "k": k}
    return _report("q_system", params, lhs.terms, rhs.terms, _ser_weights)


# -- fermionic configuration sum ------------------------------------------------


def _root_mul(d1: dict, d2: dict, D: int) -> dict:
    """Convolution of root-coordinate term dicts, truncated to total
    degree <= D."""
    out: dict = {}
    for c1, v1 in d1.items():
        for c2, v2 in d2.items():
            key = tuple(x + y for x, y in zip(c1, c2))
            if sum(key) > D:
                continue
            v = out.get(key, 0) + v1 * v2
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


def fermionic_rhs(L: LieType, nu: NuConfig, D: int, convention: str = "gamma") -> dict:
    """Configuration sum over all count arrays N with total weighted size
    <= D: each contributes the product, over its nonzero slots, of the
    extended binomial choose(P + N, N), placed at the root-lattice point
    with node coordinates sum_k k N_k.  P couples nu and N through
    min(k, l) and the full Cartan matrix.

    Counts outside the budget only touch degrees > D, so the k <= D slot
    cutoff is exact for the truncated series."""
    if D < 0:
        raise DomainError("D must be nonnegative")
    nu = check_nu(L, nu)
    n = L.rank
    slots = [(i, k) for i in L.nodes for k in range(1, D + 1)]

    # nu-side of the coupling, per (node, k)
    vpart = {
        (i, k): sum(v * min(k, l) for (j, l), v in nu.items() if j == i)
        for i in L.nodes
        for k in range(1, D + 1)
    }

    out: dict = {}

    def emit(counts: dict) -> None:
        spart = {
            j: [0] * (D + 1) for j in L.nodes
        }  # spart[j][k] = sum_l N_l^(j) min(k,l)
        for (j, l), c in counts.items():
            row = spart[j]
            for k in range(1, D + 1):
                row[k] += c * min(k, l)
        coeff = 1
        for (i, k), c in counts.items():
            p = vpart[(i, k)] - sum(L.a(i, j) * spart[j][k] for j in L.nodes)
            coeff *= gen_binomial(p + c, c, convention)
            if not coeff:
                return
        key = [0] * n
        for (i, k), c in counts.items():
            key[i - 1] += k * c
        key = tuple(key)
        v = out.get(key, 0) + coeff
        if v:
            out[key] = v
        else:
            out.pop(key, None)

    def rec(idx: int, budget: int, acc: dict) -> None:
        if idx == len(slots):
            emit(acc)
            return
        i, k = slots[idx]
        rec(idx + 1, budget, acc)
        for c in range(1, budget // k + 1):
            acc[(i, k)] = c
            rec(idx + 1, budget - k * c, acc)
        acc.pop((i, k), None)

    rec(0, D, {})
    return out


def verify_kr_formula(L: LieType, nu: NuConfig, D: int, engine: Engine | None = None) -> VerifyReport:
    """The product of normalized restricted string characters times the
    Weyl-denominator factors, expanded in root coordinates and truncated
    to total degree <= D, equals the configuration sum (gamma
    convention)."""
    if D < 0:
        raise DomainError("D must be nonnegative")
    nu = check_nu(L, nu)
    eng = engine or default_engine(L)
    n = L.rank
    zero = (0,) * n

    lhs = {zero: 1}
    for (i, k), mult in sorted(nu.items()):
        g = q_character_Q(L, i, k, eng)
        factor: dict = {}
        for w, c in g.terms.items():
            mu = tuple(w[a] - (k if a == i - 1 else 0) for a in range(n))
            coords = weight_to_root_coords(L, mu)
            if any(x > 0 for x in coords):
                raise NotInRootLattice(
                    f"normalized weight {mu} of the restricted character "
                    f"escapes the negative root cone"
                )
            key = tuple(-x for x in coords)
            if sum(key) > D:
                continue
            factor[key] = factor.get(key, 0) + c
        for _ in range(mult):
            lhs = _root_mul(lhs, factor, D)
    for alpha in positive_roots(L):
        if sum(alpha) > D:
            continue
        lhs = _root_mul(lhs, {zero: 1, alpha: -1}, D)

    rhs = fermionic_rhs(L, nu, D, "gamma")
    params = {"type": str(L), "nu": _nu_text(nu), "D": D}
    return _report("kr_formula", params, lhs, rhs, _ser_root_terms)


def _nu_text(nu: NuConfig) -> str:
    if not nu:
        return "0"
    return ",".join(f"{i}:{k}={v}" for (i, k), v in sorted(nu.items()))


# -- families of monomials used by the property checks ---------------------------


def right_negative(m: YMonomial) -> bool:
    """All factors at the maximal spectral exponent have negative power."""
    if not m.data:
        return False
    top = m.max_s()
    return all(e < 0 for _, s, e in m.data if s == top)


def kr_right_negative_family(L: LieType, i: int, k: int) -> list:
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


def paired_string_dominants(L: LieType, i: int, k: int) -> list:
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


# -- finite-type decomposition by stripping ---------------------------------------


def _pair(L: LieType, w1, w2) -> Fraction:
    """Invariant form on the weight lattice, long roots squared to 2; the
    first argument in fundamental coordinates, paired through the second
    argument's rational root coordinates."""
    rc = weight_to_rational_root_coords(L, w2)
    return sum((Fraction(a) * b for a, b in zip(w1, rc)), Fraction(0))


def irreducible_g_char(L: LieType, hw) -> GCharacter:
    """Character of the irreducible finite-type module with the given
    dominant highest weight, by the standard multiplicity recursion,
    processed level by level until an empty level."""
    hw = tuple(int(x) for x in hw)
    if len(hw) != L.rank or any(x < 0 for x in hw):
        raise DomainError(f"not a dominant weight for {L}: {hw}")
    rho = (1,) * L.rank
    lam_rho = tuple(a + b for a, b in zip(hw, rho))
    clam = _pair(L, lam_rho, lam_rho)
    pos = positive_roots(L)
    pos_w = {alpha: tuple(sum(L.cartan[r][j] * alpha[j] for j in range(L.rank)) for r in range(L.rank)) for alpha in pos}

    mult = {hw: 1}
    level = [hw]
    while level:
        nxt = set()
        for w in level:
            for r in range(L.rank):
                nxt.add(tuple(w[j] - L.cartan[r][j] for j in range(L.rank)))
        fresh = []
        for mu in sorted(nxt):
            if mu in mult:
                continue
            mu_rho = tuple(a + b for a, b in zip(mu, rho))
            den = clam - _pair(L, mu_rho, mu_rho)
            if den == 0:
                continue
            total = Fraction(0)
            for alpha, alpha_w in pos_w.items():
                j = 1
                while True:
                    up = tuple(a + j * b for a, b in zip(mu, alpha_w))
                    c = mult.get(up)
                    if c is None:
                        break
                    # (up, alpha) = fundamental coords dotted with root coords
                    total += 2 * c * sum(u * a for u, a in zip(up, alpha))
                    j += 1
            if total == 0:
                continue
            val = total / den
            if val.denominator != 1 or val < 0:
                raise InternalError(f"multiplicity recursion produced {val} at {mu}")
            if val:
                mult[mu] = int(val)
                fresh.append(mu)
        level = fresh
    return GCharacter(L, mult)


def strip_to_irreducibles(L: LieType, g: GCharacter) -> dict:
    """Decompose a finite-type character as a nonnegative sum of
    irreducibles by repeatedly removing the highest remaining weight;
    raises InternalError when the remainder's maximal weight is not
    dominant or carries a negative multiplicity."""
    rem = dict(g.terms)
    out: dict = {}
    while rem:
        top = max(rem, key=lambda w: (sum(weight_to_rational_root_coords(L, w)), w))
        c = rem[top]
        if any(x < 0 for x in top):
            raise InternalError(f"maximal weight {top} is not dominant")
        if c < 0:
            raise InternalError(f"negative multiplicity {c} at {top}")
        piece = irreducible_g_char(L, top)
        for w, v in piece.terms.items():
            r = rem.get(w, 0) - c * v
            if r:
                rem[w] = r
            else:
                rem.pop(w, None)
        out[top] = out.get(top, 0) + c
    return out
