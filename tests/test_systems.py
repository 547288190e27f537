from __future__ import annotations

import random

import pytest

from qtchar import (
    DomainError,
    DrinfeldPoly,
    Engine,
    EpsilonTable,
    GCharacter,
    InternalError,
    QtCharacter,
    TPoly,
    VerifyReport,
    YMonomial,
    epsilon,
    fermionic_rhs,
    irreducible_g_char,
    pairing_d,
    pairing_d_alt,
    parse_monomial,
    q_character_Q,
    star_product,
    strip_to_irreducibles,
    verify_convergence,
    verify_kr_formula,
    verify_kr_tensor_split,
    verify_q_system,
    verify_t_system_t,
    verify_t_system_t1,
)
from qtchar import systems
from qtchar.character import terms_scale
from qtchar.monomial import v_factorization
from qtchar.systems import (
    check_nu,
    kr_right_negative_family,
    paired_string_dominants,
    right_negative,
)


# -- report plumbing -------------------------------------------------------------


def test_check_nu(A2):
    assert check_nu(A2, {(1, 1): 2, (2, 3): 0}) == {(1, 1): 2}
    for bad in ({(3, 1): 1}, {(1, 0): 1}, {(1, 1): -1}):
        with pytest.raises(DomainError):
            check_nu(A2, bad)


def test_report_text_formats():
    ok = VerifyReport("demo", {"k": 2}, "pass", {"x": "1"}, {"x": "1"})
    assert ok.ok
    assert ok.text() == "CLAIM demo PARAMS k=2 STATUS pass"
    bad = VerifyReport("demo", {"k": 2}, "fail", {"x": "1", "y": "2"}, {"x": "1", "z": "3"})
    assert not bad.ok
    lines = bad.text().split("\n")
    assert lines[0] == "CLAIM demo PARAMS k=2 STATUS fail"
    assert "  y: lhs=2 rhs=0" in lines
    assert "  z: lhs=0 rhs=3" in lines
    assert not any("x:" in ln for ln in lines)


def test_failing_report_text_matches_eager_serialization(engines, monkeypatch):
    import qtchar.systems as sy

    seen = []
    real_report, real_add = sy._report, sy.terms_add

    def recording_report(claim, params, lhs, rhs, ser):
        seen.append((claim, params, lhs, rhs))
        return real_report(claim, params, lhs, rhs, ser)

    def perturbed_add(a, b):
        out = real_add(a, b)
        m = min(out, key=lambda m: m.data)
        out[m] = out[m] + TPoly.t_power(7)
        return out

    monkeypatch.setattr(sy, "_report", recording_report)
    monkeypatch.setattr(sy, "terms_add", perturbed_add)
    eng = engines[("A", 2)]
    rep = verify_t_system_t(eng.L, 1, 2, eng)
    assert not rep.ok
    claim, params, lhs, rhs = seen[-1]
    eager = VerifyReport(claim, params, "fail", sy._ser_int_terms(lhs), sy._ser_int_terms(rhs))
    assert rep.text() == eager.text()
    assert len(rep.text().split("\n")) == 2
    assert rep.lhs == eager.lhs and rep.rhs == eager.rhs


def test_lazy_report_sides_are_text_dicts(engines):
    eng = engines[("A", 2)]
    for rep in (
        verify_t_system_t(eng.L, 1, 1, eng),
        verify_q_system(eng.L, 1, 2, eng),
        verify_convergence(eng.L, 1, 3, 1, eng),
    ):
        assert rep.ok, rep.text()
        for side in (rep.lhs, rep.rhs):
            assert side and all(isinstance(k, str) and isinstance(v, str) for k, v in side.items())
        assert rep.lhs == rep.rhs


# -- dominant-part decisions against the full route ------------------------------

# (verifier, [(family, rank, nodes, max k)]): the ranges of acceptance
# criteria 4, 5 and 6
DECISION_RANGES = [
    (verify_t_system_t1, [("A", 1, (1,), 6), ("A", 2, (1, 2), 4), ("A", 3, (1, 2, 3), 3), ("D", 4, (1, 2, 3, 4), 2)]),
    (verify_t_system_t, [("A", 1, (1,), 4), ("A", 2, (1, 2), 3), ("A", 3, (1, 2, 3), 2), ("D", 4, (1, 2, 3, 4), 2)]),
    (verify_kr_tensor_split, [("A", 1, (1,), 4), ("A", 2, (1, 2), 3), ("D", 4, (1, 2, 3, 4), 2)]),
]


def _full_route(monkeypatch) -> None:
    """Decide every verifier on its full sides, as it did before the
    dominant route existed."""

    def full_decide(claim, params, sides, dominant, full, ser):
        return systems._report(claim, params, *sides(full), ser)

    monkeypatch.setattr(systems, "_decide", full_decide)


def _decision_cases(engines) -> list:
    return [
        (verify, engines[(family, rank)], i, k)
        for verify, ranges in DECISION_RANGES
        for family, rank, nodes, kmax in ranges
        for i in nodes
        for k in range(1, kmax + 1)
    ]


def test_dominant_decisions_match_full_route(engines, monkeypatch):
    cases = _decision_cases(engines)
    eager = []
    monkeypatch.setattr(systems, "_report", lambda *args: eager.append(args))
    fast = [verify(eng.L, i, k, eng) for verify, eng, i, k in cases]
    assert not eager  # every case passed without building its full sides
    monkeypatch.undo()
    _full_route(monkeypatch)
    for rep, (verify, eng, i, k) in zip(fast, cases):
        full = verify(eng.L, i, k, eng)
        assert rep.status == full.status == "pass", (verify.__name__, eng.L, i, k)
        assert rep == full  # the lazily built sides are the eager ones
        assert rep.text() == full.text()


# characters up to this many terms are run through the oracle below: every
# factor of the corpus except D5 KR(3,3) (80,218 terms)
GATE_TERM_BUDGET = 10_000


def test_certified_factors_pass_the_gate(engines, in_span_all_nodes, monkeypatch):
    # the dominant route rests on every factor lying in K_t because the
    # engine built it: each one the verifiers hand to the dominant product
    # must pass the membership oracle, and its copy with the last term
    # dropped must fail it
    factors: dict = {}
    real_dominant = systems.dominant_product

    def recording(L, chars, *rest):
        for ch in chars:
            lo = min((s for _, s in ch.poly.roots), default=0)
            factors.setdefault((str(ch.L), ch.poly.shift(-lo)), ch.shift(-lo))
        return real_dominant(L, chars, *rest)

    monkeypatch.setattr(systems, "dominant_product", recording)
    cases = _decision_cases(engines)
    # criterion 5 adds D5, whose factors the decision ranges above lack
    d5 = engines[("D", 5)]
    cases += [(verify_t_system_t, d5, i, k) for i in d5.L.nodes for k in (1, 2)]
    for verify, eng, i, k in cases:
        assert verify(eng.L, i, k, eng).ok
    monkeypatch.undo()
    skipped = []
    for key, ch in factors.items():
        if len(ch) > GATE_TERM_BUDGET:
            skipped.append(key)
            continue
        last = ch.items()[-1][0]
        dropped = QtCharacter(ch.L, ch.poly, {m: p for m, p in ch.terms.items() if m != last})
        assert in_span_all_nodes(ch), key
        assert not in_span_all_nodes(dropped), key
    assert skipped == [("D5", DrinfeldPoly.kr(3, 3, 0))]


class _ScaledEngine(Engine):
    """Engine whose node-2 string characters are doubled: still in K_t,
    but with every coefficient changed, the dominant ones included."""

    def kr_char_direct(self, i, k, s=0):
        ch = super().kr_char_direct(i, k, s)
        if i != 2 or k == 0:
            return ch
        return QtCharacter(ch.L, ch.poly, {m: p + p for m, p in ch.terms.items()})


@pytest.mark.parametrize("verify", [verify_t_system_t, verify_t_system_t1])
def test_perturbed_dominant_coefficient_fails_like_full_route(A2, verify, monkeypatch):
    eng = _ScaledEngine(A2)
    rep = verify(A2, 1, 2, eng)
    assert rep.status == "fail"
    _full_route(monkeypatch)
    full = verify(A2, 1, 2, eng)
    assert full.status == "fail"
    assert rep.text() == full.text()
    assert rep == full


@pytest.mark.parametrize("edit", ["count_only", "edited_coefficient", "stray_term"])
def test_digest_less_cache_entry_is_recomputed(A2, tmp_path, edit):
    # an A2 KR(1,2) entry without the digest trailer: one written with the
    # count alone, one with a coefficient edited by hand, and one with a
    # dominant term that is not below the top; none is read, each is
    # recomputed and rewritten once, and the reports are a fresh cache's
    verifiers = (verify_t_system_t, verify_t_system_t1)
    fresh = Engine(A2, str(tmp_path))
    expected = [verify(A2, 1, 2, fresh) for verify in verifiers]
    path = tmp_path / "A2_kr_1_2.qtc"
    sealed = path.read_text()
    lines = sealed.splitlines()
    assert lines[-1].startswith("end 6 ") and lines[-2].startswith("term 1 : ")
    if edit == "count_only":
        lines[-1] = "end 6"
    elif edit == "edited_coefficient":
        lines[-2:] = ["term 2 : " + lines[-2][len("term 1 : "):], "end 6"]
    else:
        lines[-1:] = ["term 1 : Y[1,6]", "end 7"]
    path.write_text("\n".join(lines) + "\n")
    eng = Engine(A2, str(tmp_path))
    reports = [verify(A2, 1, 2, eng) for verify in verifiers]
    assert path.read_text() == sealed
    for rep, want in zip(reports, expected):
        assert rep.ok, rep.text()
        assert rep == want and rep.text() == want.text()
    # the rewritten entry is read as it is
    before = (path.stat().st_ino, path.stat().st_mtime_ns)
    assert Engine(A2, str(tmp_path)).kr_char_direct(1, 2) == eng.kr_char_direct(1, 2)
    assert (path.stat().st_ino, path.stat().st_mtime_ns) == before


# -- specialized and refined string recursions ------------------------------------


@pytest.mark.parametrize("family,rank,i,k", [("A", 2, 1, 2), ("A", 3, 2, 2), ("D", 4, 2, 1)])
def test_t_system_t1_passes(engines, family, rank, i, k):
    eng = engines[(family, rank)]
    rep = verify_t_system_t1(eng.L, i, k, eng)
    assert rep.ok, rep.text()


@pytest.mark.parametrize("family,rank,i,k", [("A", 1, 1, 3), ("A", 2, 1, 2), ("A", 3, 2, 1)])
def test_t_system_t_passes(engines, family, rank, i, k):
    eng = engines[(family, rank)]
    rep = verify_t_system_t(eng.L, i, k, eng)
    assert rep.ok, rep.text()


def test_t_system_rejects_bad_k(A2):
    with pytest.raises(DomainError):
        verify_t_system_t1(A2, 1, 0)
    with pytest.raises(DomainError):
        verify_t_system_t(A2, 1, -2)


@pytest.mark.parametrize("verify", [verify_t_system_t1, verify_t_system_t, verify_kr_tensor_split])
def test_string_checks_reject_out_of_range_nodes(A2, verify):
    # the node is checked before any commutation exponent is looked up
    for i in (0, 3, 5):
        with pytest.raises(DomainError, match=f"node {i} out of range for A2"):
            verify(A2, i, 1, Engine(A2))


def test_t1_system_restricts_to_q_system(A2, engine_for):
    # collapsing the spectral data of both sides of the specialized string
    # recursion gives exactly the finite-type recursion sides
    eng = engine_for(A2)
    i, k = 1, 2

    def collapse(terms):
        out: dict = {}
        for m, c in terms.items():
            w = m.weight(A2)
            out[w] = out.get(w, 0) + c
            if not out[w]:
                del out[w]
        return out

    from qtchar.character import qchar_mul, specialize_t1, terms_add

    def q(ii, kk, ss):
        return specialize_t1(eng.kr_char_direct(ii, kk, ss))

    lhs = collapse(qchar_mul(q(i, k, 0), q(i, k, 2)))
    assert lhs == (q_character_Q(A2, i, k, eng) * q_character_Q(A2, i, k, eng)).terms

    rhs_one = qchar_mul(q(i, k + 1, 0), q(i, k - 1, 2))
    rhs_two = q(2, k, 1)
    rhs = collapse(terms_add(rhs_one, rhs_two))
    want = (
        q_character_Q(A2, i, k + 1, eng) * q_character_Q(A2, i, k - 1, eng)
        + q_character_Q(A2, 2, k, eng)
    ).terms
    assert rhs == want


# -- tensor split ------------------------------------------------------------------


@pytest.mark.parametrize("family,rank,i,k", [("A", 1, 1, 3), ("A", 2, 1, 2), ("A", 2, 2, 2)])
def test_kr_tensor_split_passes(engines, family, rank, i, k):
    eng = engines[(family, rank)]
    rep = verify_kr_tensor_split(eng.L, i, k, eng)
    assert rep.ok, rep.text()


def test_twisted_product_of_adjacent_strings_has_unit_dominants(A2, engine_for):
    # the two-sided product appearing on the recursion's right admits no
    # t-spread at its l-dominant monomials
    eng = engine_for(A2)
    table = EpsilonTable(A2)
    for k in (1, 2, 3):
        p1, p2 = DrinfeldPoly.kr(1, k + 1, 0), DrinfeldPoly.kr(1, k - 1, 2)
        st = star_product(
            A2, eng.kr_char_direct(1, k + 1, 0), eng.kr_char_direct(1, k - 1, 2), table
        )
        st = terms_scale(st, TPoly.t_power(-table.of(p1.monomial(), p2.monomial())))
        doms = {m: p for m, p in st.items() if m.is_l_dominant()}
        assert len(doms) == k
        assert all(p == TPoly.ONE for p in doms.values())


# -- convergence -------------------------------------------------------------------


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("A", 3)])
def test_convergence_passes(engines, family, rank):
    eng = engines[(family, rank)]
    for i in eng.L.nodes:
        rep = verify_convergence(eng.L, i, 4, 2, eng)
        assert rep.ok, rep.text()


def test_convergence_vacuous_and_bad_args(A1, engine_for):
    rep = verify_convergence(A1, 1, 2, 2, engine_for(A1))
    assert rep.ok
    with pytest.raises(DomainError):
        verify_convergence(A1, 1, 1, 2)
    with pytest.raises(DomainError):
        verify_convergence(A1, 1, 2, -1)


def test_string_grows_by_prefix_factor(A1, A2, engine_for):
    # the length-(k+1) string minus Y[i,0] times the shifted length-k
    # string is supported strictly below depth k
    for L, kmax in ((A1, 4), (A2, 3)):
        eng = engine_for(L)
        for k in range(1, kmax + 1):
            big = eng.kr_char_direct(1, k + 1, 0)
            top = big.highest
            diff = dict(big.terms)
            y0 = YMonomial.var(1, 0)
            for m, p in eng.kr_char_direct(1, k, 2).terms.items():
                mm = y0 * m
                q = diff.get(mm, TPoly.ZERO) - p
                if q:
                    diff[mm] = q
                else:
                    diff.pop(mm, None)
            assert diff
            for m in diff:
                assert sum(v_factorization(L, m, top).values()) > k


# -- finite-type restriction --------------------------------------------------------


def test_restricted_string_characters(A2, engine_for):
    eng = engine_for(A2)
    assert q_character_Q(A2, 1, 0, eng).terms == {(0, 0): 1}
    g = q_character_Q(A2, 1, 2, eng)
    assert g.dimension() == 6
    assert g.terms == {
        (2, 0): 1,
        (0, 1): 1,
        (1, -1): 1,
        (-2, 2): 1,
        (-1, 0): 1,
        (0, -2): 1,
    }


@pytest.mark.parametrize("family,rank,i,k", [("A", 2, 1, 3), ("A", 3, 2, 2), ("D", 4, 2, 1)])
def test_q_system_passes(engines, family, rank, i, k):
    eng = engines[(family, rank)]
    rep = verify_q_system(eng.L, i, k, eng)
    assert rep.ok, rep.text()


# -- configuration sums ---------------------------------------------------------------


def test_fermionic_rhs_frozen_rows(A1, A2):
    assert fermionic_rhs(A1, {(1, 1): 1}, 3) == {(0,): 1, (2,): -1}
    assert fermionic_rhs(A1, {}, 2) == {(0,): 1, (1,): -1}
    assert fermionic_rhs(A1, {}, 2, "lusztig") == {(0,): 1}
    assert fermionic_rhs(A2, {(1, 1): 1}, 2) == {(0, 0): 1, (0, 1): -1, (2, 0): -1}


def test_fermionic_conventions_agree_when_tops_nonneg(A1):
    # with nu large enough every binomial top is nonnegative and the
    # conventions coincide
    big = {(1, 1): 4}
    assert fermionic_rhs(A1, big, 2) == fermionic_rhs(A1, big, 2, "lusztig")
    assert fermionic_rhs(A1, big, 2) == {(0,): 1, (1,): 3, (2,): 2}


def test_fermionic_conventions_differ_on_small_nu(A1):
    assert fermionic_rhs(A1, {}, 2) != fermionic_rhs(A1, {}, 2, "lusztig")


def test_fermionic_rejects_bad_input(A1):
    with pytest.raises(DomainError):
        fermionic_rhs(A1, {}, -1)
    with pytest.raises(DomainError):
        fermionic_rhs(A1, {(1, 1): 1}, 2, "weird")


@pytest.mark.parametrize(
    "family,rank,nu,D",
    [
        ("A", 1, {(1, 1): 1}, 6),
        ("A", 1, {(1, 2): 1, (1, 1): 1}, 4),
        ("A", 2, {(1, 1): 1}, 4),
        ("A", 2, {(2, 2): 1}, 4),
        ("A", 2, {}, 3),
        ("A", 3, {(1, 1): 1}, 3),
    ],
)
def test_kr_formula_passes(engines, family, rank, nu, D):
    eng = engines[(family, rank)]
    rep = verify_kr_formula(eng.L, nu, D, eng)
    assert rep.ok, rep.text()


# -- monomial families ------------------------------------------------------------------


def test_right_negative_flag():
    assert not right_negative(YMonomial.one())
    assert not right_negative(parse_monomial("Y[1,0]"))
    assert right_negative(parse_monomial("Y[2,1] Y[1,2]^-1"))
    assert not right_negative(parse_monomial("Y[1,2]^-1 Y[2,2]"))


def test_string_right_negative_family(A2, engine_for):
    eng = engine_for(A2)
    for i, k in ((1, 2), (1, 3), (2, 2)):
        ch = eng.kr_char_direct(i, k)
        doms = [m for m in ch.terms if m.is_l_dominant()]
        assert doms == [ch.highest]
        family = kr_right_negative_family(A2, i, k)
        assert len(family) == k
        found = {
            m for m in ch.terms if right_negative(m) and m.max_s() <= 2 * k
        }
        assert found == set(family)
        for m in family:
            assert ch.coeff(m) == TPoly.ONE


def test_paired_string_dominant_coefficients(A2, engine_for):
    eng = engine_for(A2)
    for k in (2, 3):
        P = DrinfeldPoly.kr(1, k, 0) * DrinfeldPoly.kr(1, k, 2)
        st = eng.standard_char(P)
        simple = eng.kl_decompose(P).simples[P]
        pairs = paired_string_dominants(A2, 1, k)
        assert len(pairs) == k - 1
        for m, coeff in pairs:
            assert st.coeff(m) == coeff
            assert simple.coeff(m) == TPoly.ONE


# -- pairing identities sampled from computed characters ----------------------------


def test_pairing_routes_and_transport(A2, engine_for):
    eng = engine_for(A2)
    chars = [
        eng.fundamental_char(1, 0),
        eng.fundamental_char(2, 1),
        eng.kr_char_direct(1, 2),
        eng.standard_char(DrinfeldPoly.kr(1, 2, 0)),
    ]
    rng = random.Random(17)
    pool = [(m, ch.highest) for ch in chars for m in ch.terms]
    checked = 0
    for _ in range(400):
        (m1, p1), (m2, p2) = rng.choice(pool), rng.choice(pool)
        d12 = pairing_d(A2, m1, p1, m2, p2)
        assert d12 == pairing_d_alt(A2, m1, p1, m2, p2)
        d21 = pairing_d(A2, m2, p2, m1, p1)
        assert epsilon(A2, m1, m2) == d12 - d21 + epsilon(A2, p1, p2)
        checked += 1
    assert checked == 400


# -- finite-type building blocks ------------------------------------------------------


def test_irreducible_g_char_dimensions(A1, A2, D4):
    assert irreducible_g_char(A1, (3,)).dimension() == 4
    assert irreducible_g_char(A2, (1, 0)).dimension() == 3
    assert irreducible_g_char(A2, (1, 1)).dimension() == 8
    adj = irreducible_g_char(A2, (1, 1))
    assert adj.coeff((0, 0)) == 2
    assert irreducible_g_char(D4, (0, 1, 0, 0)).dimension() == 28


def test_irreducible_g_char_rejects_bad_weights(A2):
    with pytest.raises(DomainError):
        irreducible_g_char(A2, (-1, 0))
    with pytest.raises(DomainError):
        irreducible_g_char(A2, (1,))


def test_strip_to_irreducibles_round_trip(A2):
    g = irreducible_g_char(A2, (1, 0)).scaled(2) + irreducible_g_char(A2, (1, 1))
    assert strip_to_irreducibles(A2, g) == {(1, 0): 2, (1, 1): 1}
    assert strip_to_irreducibles(A2, GCharacter(A2)) == {}


def test_strip_to_irreducibles_flags_non_characters(A2):
    with pytest.raises(InternalError):
        strip_to_irreducibles(A2, GCharacter(A2, {(-1, 0): 1}))
    with pytest.raises(InternalError):
        strip_to_irreducibles(A2, GCharacter(A2, {(0, 0): -1}))


def test_restricted_string_strips_to_one_irreducible(A2, engine_for):
    got = strip_to_irreducibles(A2, q_character_Q(A2, 1, 2, engine_for(A2)))
    assert got == {(2, 0): 1}
