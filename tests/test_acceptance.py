"""Acceptance checklist.

Each test covers one numbered acceptance criterion and prints exactly one
pass/fail line; run with -s (or read captured output) for the checklist
view.  Criteria with stated runtime budgets assert them with a stopwatch.
"""

from __future__ import annotations

import time

import pytest

from qtchar import (
    DrinfeldPoly,
    Engine,
    TPoly,
    build_lie_type,
    parse_monomial,
    parse_tpoly,
    restrict_to_g,
    strip_to_irreducibles,
    verify_convergence,
    verify_kr_formula,
    verify_kr_tensor_split,
    verify_q_system,
    verify_t_system_t,
    verify_t_system_t1,
)

# (family, rank, nodes, max k) for the tensor-recursion corpus
T_SYSTEM_RANGES = [
    ("A", 1, (1,), 6),
    ("A", 2, (1, 2), 4),
    ("A", 3, (1, 2, 3), 3),
    ("D", 4, (1, 2, 3, 4), 2),
]


def _conclude(number: int, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    line = f"criterion {number:2d}: {status}"
    if failures:
        line += "  [" + "; ".join(str(f) for f in failures[:4]) + "]"
    print(line)
    assert not failures, line


def test_criterion_01_fundamental_three_monomials():
    t0 = time.perf_counter()
    ch = Engine(build_lie_type("A", 2)).fundamental_char(1, 0)
    elapsed = time.perf_counter() - t0
    failures = []
    want = {
        parse_monomial("Y[1,0]"): TPoly.ONE,
        parse_monomial("Y[1,2]^-1 Y[2,1]"): TPoly.ONE,
        parse_monomial("Y[2,3]^-1"): TPoly.ONE,
    }
    if dict(ch.items()) != want:
        failures.append("character mismatch")
    if elapsed >= 1.0:
        failures.append(f"too slow: {elapsed:.2f}s")
    _conclude(1, failures)


def test_criterion_02_standard_nine_monomials():
    t0 = time.perf_counter()
    ch = Engine(build_lie_type("A", 2)).standard_char(DrinfeldPoly.kr(1, 2, 0))
    elapsed = time.perf_counter() - t0
    failures = []
    want = {
        "Y[1,0] Y[1,2]": "1",
        "Y[1,0] Y[1,4]^-1 Y[2,3]": "1",
        "Y[1,0] Y[2,5]^-1": "1",
        "Y[1,2]^-1 Y[1,4]^-1 Y[2,1] Y[2,3]": "1",
        "Y[1,2]^-1 Y[2,1] Y[2,5]^-1": "1",
        "Y[1,2] Y[2,3]^-1": "t^-1",
        "Y[1,4]^-1": "t^-1",
        "Y[2,1]": "t^-1",
        "Y[2,3]^-1 Y[2,5]^-1": "1",
    }
    got = {str(m): str(p) for m, p in ch.items()}
    if got != want:
        failures.append("character mismatch")
    powers = sorted(str(p) for _, p in ch.items())
    if powers != sorted(["1"] * 6 + ["t^-1"] * 3):
        failures.append("t-power multiset mismatch")
    if elapsed >= 1.0:
        failures.append(f"too slow: {elapsed:.2f}s")
    _conclude(2, failures)


def test_criterion_03_triangular_factors_and_simple(subtraction_simples):
    t0 = time.perf_counter()
    eng = Engine(build_lie_type("A", 2))
    P = DrinfeldPoly.kr(1, 2, 0)
    res = eng.kl_decompose(P)
    # the decomposition takes a string's simple from its fixpoint, so the
    # subtraction route is the independent one
    simple = subtraction_simples(eng, res)[P]
    direct = eng.kr_char_direct(1, 2, 0)
    elapsed = time.perf_counter() - t0
    failures = []
    got = {str(sub): str(c) for sub, c in res.factors}
    if got != {"P(1: 0 2)": "1", "P(2: 1)": "t^-1"}:
        failures.append(f"factors {got}")
    if len(simple) != 6:
        failures.append(f"simple has {len(simple)} monomials")
    if simple != direct:
        failures.append("simple differs from direct string character")
    if res.simples[P] != simple:
        failures.append("decomposition's simple differs from the subtraction route")
    if elapsed >= 1.0:
        failures.append(f"too slow: {elapsed:.2f}s")
    _conclude(3, failures)


def test_criterion_04_t_system_specialized(engines):
    t0 = time.perf_counter()
    failures = []
    for family, rank, nodes, kmax in T_SYSTEM_RANGES + [("D", 5, (1, 2, 3, 4, 5), 2)]:
        eng = engines[(family, rank)]
        for i in nodes:
            for k in range(1, kmax + 1):
                rep = verify_t_system_t1(eng.L, i, k, eng)
                if not rep.ok:
                    failures.append(f"{family}{rank} i={i} k={k}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        failures.append(f"too slow: {elapsed:.1f}s")
    _conclude(4, failures)


def test_criterion_05_t_system_refined(engines):
    t0 = time.perf_counter()
    failures = []
    ranges = [
        ("A", 1, (1,), 4),
        ("A", 2, (1, 2), 3),
        ("A", 3, (1, 2, 3), 2),
        ("D", 4, (1, 2, 3, 4), 2),
        ("D", 5, (1, 2, 3, 4, 5), 2),
    ]
    for family, rank, nodes, kmax in ranges:
        eng = engines[(family, rank)]
        for i in nodes:
            for k in range(1, kmax + 1):
                rep = verify_t_system_t(eng.L, i, k, eng)
                if not rep.ok:
                    failures.append(f"{family}{rank} i={i} k={k}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"too slow: {elapsed:.1f}s")
    _conclude(5, failures)


def test_criterion_06_tensor_split(engines):
    t0 = time.perf_counter()
    failures = []
    ranges = [
        ("A", 1, (1,), 4),
        ("A", 2, (1, 2), 3),
        ("A", 3, (1, 2, 3), 2),
        ("D", 4, (1, 2, 3, 4), 2),
        ("D", 5, (1, 2, 3, 4, 5), 1),
    ]
    for family, rank, nodes, kmax in ranges:
        eng = engines[(family, rank)]
        for i in nodes:
            for k in range(1, kmax + 1):
                rep = verify_kr_tensor_split(eng.L, i, k, eng)
                if not rep.ok:
                    failures.append(f"{family}{rank} i={i} k={k}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 15.0:
        failures.append(f"too slow: {elapsed:.1f}s")
    _conclude(6, failures)


def test_criterion_07_string_character_shape(engines, kr_right_negative_family, right_negative):
    failures = []
    for family, rank, nodes, kmax in T_SYSTEM_RANGES:
        eng = engines[(family, rank)]
        for i in nodes:
            for k in range(1, kmax + 2):
                ch = eng.kr_char_direct(i, k)
                doms = [m for m in ch.terms if m.is_l_dominant()]
                if doms != [ch.highest]:
                    failures.append(f"{family}{rank} i={i} k={k}: {len(doms)} dominants")
                    continue
                family_monos = kr_right_negative_family(eng.L, i, k)
                found = {
                    m for m in ch.terms if right_negative(m) and m.max_s() <= 2 * k
                }
                if found != set(family_monos) or len(family_monos) != k:
                    failures.append(f"{family}{rank} i={i} k={k}: family mismatch")
                    continue
                if any(ch.coeff(m) != TPoly.ONE for m in family_monos):
                    failures.append(f"{family}{rank} i={i} k={k}: coefficient != 1")
    _conclude(7, failures)


def test_criterion_08_paired_string_coefficients(engines, paired_string_dominants):
    failures = []
    eng = engines[("A", 2)]
    for k in (2, 3):
        P = DrinfeldPoly.kr(1, k, 0) * DrinfeldPoly.kr(1, k, 2)
        st = eng.standard_char(P)
        simple = eng.kl_decompose(P).simples[P]
        pairs = paired_string_dominants(eng.L, 1, k)
        if len(pairs) != k - 1:
            failures.append(f"k={k}: wrong family size")
        for s, (m, _) in enumerate(pairs, start=1):
            want = parse_tpoly("1+t^2")
            acc = TPoly.ONE
            for _ in range(k - s):
                acc = acc * want
            acc = acc.shifted(2 * (s - k))
            if st.coeff(m) != acc:
                failures.append(f"k={k} s={s}: standard coeff {st.coeff(m)}")
            if simple.coeff(m) != TPoly.ONE:
                failures.append(f"k={k} s={s}: simple coeff {simple.coeff(m)}")
    _conclude(8, failures)


def test_criterion_09_convergence(engines):
    failures = []
    for family, rank in (("A", 1), ("A", 2), ("A", 3)):
        eng = engines[(family, rank)]
        for i in eng.L.nodes:
            rep = verify_convergence(eng.L, i, 4, 2, eng)
            if not rep.ok:
                failures.append(f"{family}{rank} i={i}")
    _conclude(9, failures)


def test_criterion_10_q_system(engines):
    failures = []
    ranges = [
        ("A", 1, (1,), 6),
        ("A", 2, (1, 2), 4),
        ("A", 3, (1, 2, 3), 3),
        ("D", 4, (1, 2, 3, 4), 2),
        ("D", 5, (1, 2, 3, 4, 5), 1),
        ("E", 6, (1, 2, 6), 1),
    ]
    for family, rank, nodes, kmax in ranges:
        eng = engines.get((family, rank)) or Engine(build_lie_type(family, rank))
        for i in nodes:
            for k in range(1, kmax + 1):
                rep = verify_q_system(eng.L, i, k, eng)
                if not rep.ok:
                    failures.append(f"{family}{rank} i={i} k={k}")
    _conclude(10, failures)


def test_criterion_11_fermionic_formula(engines):
    t0 = time.perf_counter()
    failures = []

    def check(key, nu, D):
        eng = engines[key]
        rep = verify_kr_formula(eng.L, nu, D, eng)
        if not rep.ok:
            failures.append(f"{key[0]}{key[1]} nu={nu} D={D}")

    # support on string lengths <= 3, counts up to 2
    for a in range(3):
        for b in range(3):
            for c in range(3):
                if a + 2 * b + 3 * c > 6:
                    continue
                nu = {}
                if a:
                    nu[(1, 1)] = a
                if b:
                    nu[(1, 2)] = b
                if c:
                    nu[(1, 3)] = c
                check(("A", 1), nu, 6)
    for i in (1, 2):
        for k in (1, 2):
            check(("A", 2), {(i, k): 1}, 4)
    check(("A", 3), {(1, 1): 1}, 3)
    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        failures.append(f"too slow: {elapsed:.1f}s")
    _conclude(11, failures)


def test_criterion_12_triangular_positivity(engines, is_bar_symmetric, only_negative_powers):
    failures = []
    for family, rank, nodes, kmax in T_SYSTEM_RANGES:
        eng = engines[(family, rank)]
        for i in nodes:
            for k in range(1, kmax + 1):
                res = eng.kl_decompose(DrinfeldPoly.kr(i, k, 0))
                tag = f"{family}{rank} i={i} k={k}"
                if any(not p.has_nonneg_coeffs() for p in res.c.values()):
                    failures.append(f"{tag}: negative c entry")
                for (ai, bi), p in res.z.items():
                    if not p.has_nonneg_coeffs():
                        failures.append(f"{tag}: negative z entry")
                    if ai != bi and not only_negative_powers(p):
                        failures.append(f"{tag}: z off-diagonal not in 1/t")
                if any(not is_bar_symmetric(p) for p in res.l.values()):
                    failures.append(f"{tag}: l entry not bar-symmetric")
                if any(not p.has_nonneg_coeffs() for p in res.l.values()):
                    failures.append(f"{tag}: negative l entry")
                # every coefficient of every simple is bar-symmetric with
                # nonnegative coefficients (Nakajima, arXiv math/0105173)
                for q, ch in res.simples.items():
                    if any(not is_bar_symmetric(p) for p in ch.terms.values()):
                        failures.append(f"{tag}: simple {q} coefficient not bar-symmetric")
                    if any(not p.has_nonneg_coeffs() for p in ch.terms.values()):
                        failures.append(f"{tag}: negative coefficient in simple {q}")
    _conclude(12, failures)


def test_criterion_13_pairing_identities(engines, pairing_d, pairing_d_alt, epsilon):
    failures = []
    a2 = engines[("A", 2)]
    a3 = engines[("A", 3)]
    sources = [
        a2.fundamental_char(1, 0),
        a2.fundamental_char(2, 1),
        a2.kr_char_direct(1, 3),
        a2.standard_char(DrinfeldPoly.kr(1, 2, 0) * DrinfeldPoly.kr(2, 1, 1)),
    ]
    pool_a2 = [(m, ch.highest) for ch in sources for m in ch.terms]
    pool_a3 = [
        (m, ch.highest)
        for ch in (a3.kr_char_direct(2, 2), a3.fundamental_char(1, 0))
        for m in ch.terms
    ]
    checked = 0
    for L, pool in ((a2.L, pool_a2), (a3.L, pool_a3)):
        for m1, p1 in pool:
            for m2, p2 in pool:
                d12 = pairing_d(L, m1, p1, m2, p2)
                if d12 != pairing_d_alt(L, m1, p1, m2, p2):
                    failures.append(f"d routes disagree at {m1} | {m2}")
                d21 = pairing_d(L, m2, p2, m1, p1)
                if epsilon(L, m1, m2) != d12 - d21 + epsilon(L, p1, p2):
                    failures.append(f"transport fails at {m1} | {m2}")
                checked += 1
    if checked < 1000:
        failures.append(f"only {checked} pairs sampled")
    _conclude(13, failures)


def test_criterion_14_d4_restriction_strips(engines, weyl_dimension):
    failures = []
    eng = engines[("D", 4)]
    L = eng.L
    for i in L.nodes:
        g = restrict_to_g(eng.fundamental_char(i, 0))
        try:
            parts = strip_to_irreducibles(L, g)
        except Exception as exc:  # non-character remainder
            failures.append(f"node {i}: {exc}")
            continue
        if not parts or any(c <= 0 for c in parts.values()):
            failures.append(f"node {i}: bad multiplicities {parts}")
            continue
        total = sum(c * weyl_dimension(L, hw) for hw, c in parts.items())
        if total != g.dimension():
            failures.append(f"node {i}: dimensions {total} != {g.dimension()}")
    _conclude(14, failures)
