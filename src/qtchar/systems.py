"""Verifiers for the identities the engine is supposed to witness: the
KR tensor recursion at t = 1 and its t-refinement, the tensor-split
decomposition, truncated stabilization of normalized KR characters, the
finite-type restriction recursion, and the binomial configuration sum
for restricted KR products, all in integer arithmetic.

Every check is an exact symbolic comparison of the two sides' raw term
dicts.  A VerifyReport holds both sides as dicts of canonical text,
serialized once when the report is made, so a failing report can print
the terms where they differ.

The T-system checks and the tensor split compare sums of twisted
products of characters, each divided by its factors' twist.  The t = 1
T-system is the specialization at t = 1 of the t-refined sides, built by
the same code.  An element of K_t is fixed by its coefficients at
l-dominant monomials (Frenkel-Mukhin at t = 1; Hernandez, "Algebraic
approach to q,t-characters").  Every factor comes from the engine, which
builds only members of K_t (engine.py): a KR module has a single
dominant monomial, so its character is the fixpoint output, and the
tensor split's simple is one pinned run.  K_t is closed under the
twisted product, so both sides lie in it, and they are equal exactly
when their l-dominant parts are.  Those checks therefore build, compare
and report the dominant parts alone: a product's dominant part
(dominant_product) is the fold of its factors' terms with no level above
the highest level of its top, and a failing report lists the dominant
monomials whose coefficients differ.

Every verifier reads its characters and commutation table (Engine.table)
from the engine it is handed, a required argument; there is no default
engine.  An engine of another type raises DomainError before any
character is read.
"""

from __future__ import annotations

from dataclasses import dataclass

from .character import (
    DrinfeldPoly,
    GCharacter,
    dominant_product,
    normalized_in_A,
    restrict_to_g,
    specialize_t1,
    terms_add,
)
from .engine import Engine
from .errors import DomainError, InternalError, NotInRootLattice
from .roots import (
    LieType,
    positive_roots,
    root_to_weight,
    two_rho,
    weight_to_root_coords,
)
from .tpoly import CONVENTIONS, gen_binomial


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


def _check_engine(L: LieType, engine: Engine) -> None:
    """Refuse an engine of another type before any character is read."""
    if engine.L != L:
        raise DomainError(f"engine computes {engine.L} characters, not {L}")


@dataclass
class VerifyReport:
    """Outcome of one check: lhs and rhs are the two sides as dicts from
    canonical text keys to canonical text values, so that equal dicts are
    equal sides, and a failing text() lists the keys where they differ."""

    claim: str
    params: dict
    status: str
    lhs: dict
    rhs: dict

    @property
    def ok(self) -> bool:
        return self.status == "pass"

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
    return VerifyReport(claim, params, "pass" if lhs == rhs else "fail", ser(lhs), ser(rhs))


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


# -- T-system ----------------------------------------------------------------


def _check_string(L: LieType, i: int, k: int) -> None:
    """The node and string length of a T-system or tensor-split check, both
    checked before any character or commutation exponent is looked up."""
    if k < 1:
        raise DomainError("k must be positive")
    if i not in L.nodes:
        raise DomainError(f"node {i} out of range for {L}")


def _dominant_sides(L: LieType, engine: Engine, lhs: list, first: list, second: list) -> tuple:
    """The l-dominant parts of the twisted product of the characters lhs
    and of the sum of first's product and t^-1 times second's, each
    product divided by its factors' twist (dominant_product, over the
    engine's commutation table)."""

    def part(chars: list) -> dict:
        return dominant_product(L, chars, engine.table)

    return part(lhs), terms_add(part(first), {m: p.shifted(-1) for m, p in part(second).items()})


def _t_system_sides(L: LieType, i: int, k: int, engine: Engine) -> tuple:
    """The dominant parts of both sides of the t-refined recursion at node
    i and length k."""
    _check_engine(L, engine)
    _check_string(L, i, k)
    kr = engine.kr_char_direct
    return _dominant_sides(
        L, engine,
        [kr(i, k, 0), kr(i, k, 2)],
        [kr(i, k + 1, 0), kr(i, k - 1, 2)],
        [kr(j, k, 1) for j in L.neighbors(i)],
    )


def verify_t_system_t1(L: LieType, i: int, k: int, engine: Engine) -> VerifyReport:
    """Specialized recursion: the product of the length-k characters at
    shifts 0 and 2 equals the (k+1, k-1) product plus the product of the
    neighbors' length-k characters at shift 1.  Length 0 means the unit
    character.  Both sides are verify_t_system_t's at t = 1, where the
    twisted product is the commutative one and the twists vanish; shown on
    dominant parts as the module docstring says."""
    lhs, rhs = _t_system_sides(L, i, k, engine)
    params = {"type": str(L), "i": i, "k": k}
    return _report("t_system_t1", params, specialize_t1(lhs), specialize_t1(rhs), _ser_int_terms)


def verify_t_system_t(L: LieType, i: int, k: int, engine: Engine) -> VerifyReport:
    """t-refined recursion: the same three products of length-k, (k+1,
    k-1) and neighbor characters, each the twisted product of normalized
    characters divided by its factors' twist, so that every top
    coefficient is 1; the neighbor product carries a further t^-1.  The
    neighbors are multiplied in ascending node order.  Shown on dominant
    parts as the module docstring says."""
    lhs, rhs = _t_system_sides(L, i, k, engine)
    params = {"type": str(L), "i": i, "k": k}
    return _report("t_system_t", params, lhs, rhs, _ser_int_terms)


def verify_kr_tensor_split(L: LieType, i: int, k: int, engine: Engine) -> VerifyReport:
    """Tensoring the length-k string character with the single-root
    character at shift 2k splits into the length-(k+1) character plus
    t^-1 times one non-tensor simple character, the latter computed
    through the triangular decomposition.  Each product is divided by its
    factors' twist.  Shown on dominant parts as the module docstring
    says."""
    _check_engine(L, engine)
    _check_string(L, i, k)
    kr = engine.kr_char_direct
    q = DrinfeldPoly.kr(i, k - 1, 0)
    for j in L.neighbors(i):
        q = q * DrinfeldPoly.fundamental(j, 2 * k - 1)
    lhs, rhs = _dominant_sides(
        L, engine, [kr(i, k, 0), engine.fundamental_char(i, 2 * k)], [kr(i, k + 1, 0)], [engine.simple_char(q)]
    )
    params = {"type": str(L), "i": i, "k": k}
    return _report("kr_tensor_split", params, lhs, rhs, _ser_int_terms)


# -- convergence ---------------------------------------------------------------


def verify_convergence(L: LieType, i: int, k_max: int, D: int, engine: Engine) -> VerifyReport:
    """Stabilization of the truncated normalized string characters: after
    re-keying each character's v-exponents to its own right end (spectral
    positions shifted down by 2k), the depth <= D truncations agree for
    every k from D through k_max."""
    _check_engine(L, engine)
    if D < 0 or k_max < D:
        raise DomainError("need k_max >= D >= 0")

    def keyed(k: int) -> dict:
        nm = normalized_in_A(engine.kr_char_direct(i, k, 0), D)
        out = {}
        for key, p in nm.items():
            out[tuple(sorted((((n, s - 2 * k), v) for (n, s), v in key)))] = p
        return out

    sides = {k: keyed(k) for k in range(D, k_max + 1)}
    params = {"type": str(L), "i": i, "k_max": k_max, "D": D}
    for k in range(D, k_max):
        if sides[k] != sides[k + 1]:
            params["first_mismatch"] = f"{k}~{k + 1}"
            return _report("convergence", params, sides[k], sides[k + 1], _ser_vkeys)
    return _report("convergence", params, sides[D], sides[k_max], _ser_vkeys)


# -- restriction and the finite-type recursion ---------------------------------


def q_character_Q(L: LieType, i: int, k: int, engine: Engine) -> GCharacter:
    """Finite-type character of the length-k string module at node i."""
    _check_engine(L, engine)
    if k < 0:
        raise DomainError("k must be nonnegative")
    return restrict_to_g(engine.kr_char_direct(i, k, 0))


def verify_q_system(L: LieType, i: int, k: int, engine: Engine) -> VerifyReport:
    """Finite-type recursion: Q(i,k)^2 = Q(i,k+1) Q(i,k-1) + prod over
    neighbors j of Q(j,k)."""
    if k < 1:
        raise DomainError("k must be positive")
    lhs = q_character_Q(L, i, k, engine) * q_character_Q(L, i, k, engine)
    rhs = q_character_Q(L, i, k + 1, engine) * q_character_Q(L, i, k - 1, engine)
    prod = GCharacter.one(L)
    for j in L.neighbors(i):
        prod = prod * q_character_Q(L, j, k, engine)
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
    if convention not in CONVENTIONS:
        raise DomainError(f"unknown binomial convention {convention!r}")
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


def verify_kr_formula(L: LieType, nu: NuConfig, D: int, engine: Engine) -> VerifyReport:
    """The product of normalized restricted string characters times the
    Weyl-denominator factors, expanded in root coordinates and truncated
    to total degree <= D, equals the configuration sum (gamma
    convention)."""
    _check_engine(L, engine)
    if D < 0:
        raise DomainError("D must be nonnegative")
    nu = check_nu(L, nu)
    n = L.rank
    zero = (0,) * n

    lhs = {zero: 1}
    for (i, k), mult in sorted(nu.items()):
        g = q_character_Q(L, i, k, engine)
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


# -- finite-type decomposition by stripping ---------------------------------------


def irreducible_g_char(L: LieType, hw) -> GCharacter:
    """Character of the irreducible finite-type module with the given
    dominant highest weight, by Freudenthal's multiplicity recursion,
    processed level by level until an empty level.  Each weight mu carries
    c, the root coordinates of hw - mu, so the denominator (hw + rho)^2 -
    (mu + rho)^2 = (hw - mu, hw + mu + 2 rho) is the integer
    sum_j c_j (hw_j + mu_j + 2); a quotient that is not a nonnegative
    integer raises InternalError."""
    hw = tuple(int(x) for x in hw)
    if len(hw) != L.rank or any(x < 0 for x in hw):
        raise DomainError(f"not a dominant weight for {L}: {hw}")
    pos_w = [(alpha, root_to_weight(L, alpha)) for alpha in positive_roots(L)]

    mult = {hw: 1}
    level = {hw: (0,) * L.rank}
    while level:
        nxt: dict = {}
        for w, c in level.items():
            for r, row in enumerate(L.cartan):
                nxt[tuple(a - b for a, b in zip(w, row))] = c[:r] + (c[r] + 1,) + c[r + 1:]
        fresh = {}
        for mu in sorted(nxt):
            c = nxt[mu]
            den = sum(x * (h + m + 2) for x, h, m in zip(c, hw, mu))
            if den == 0:
                continue
            total = 0
            for alpha, alpha_w in pos_w:
                # (mu + j alpha, alpha) = (mu, alpha) + 2 j
                base = sum(m * a for m, a in zip(mu, alpha))
                j = 1
                while True:
                    v = mult.get(tuple(m + j * a for m, a in zip(mu, alpha_w)))
                    if v is None:
                        break
                    total += 2 * v * (base + 2 * j)
                    j += 1
            if total == 0:
                continue
            val, rest = divmod(total, den)
            if rest or val < 0:
                raise InternalError(f"multiplicity recursion produced {total}/{den} at {mu}")
            mult[mu] = val
            fresh[mu] = c
        level = fresh
    return GCharacter(L, mult)


def strip_to_irreducibles(L: LieType, g: GCharacter) -> dict:
    """Decompose a finite-type character as a nonnegative sum of
    irreducibles by repeatedly removing the highest remaining weight,
    highest by the two_rho form (twice the height), ties broken by the
    coordinates.  A character of another type raises DomainError before
    any work; InternalError when the remainder's maximal weight is not
    dominant or carries a negative multiplicity."""
    if g.lie_type != L:
        raise DomainError(f"the character is of type {g.lie_type}, not {L}")
    rho2 = two_rho(L)
    rem = dict(g.terms)
    out: dict = {}
    while rem:
        top = max(rem, key=lambda w: (sum(t * x for t, x in zip(rho2, w)), w))
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
