from __future__ import annotations

from collections import Counter
import hashlib
import json
from pathlib import Path
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
    build_lie_type,
    fermionic_rhs,
    irreducible_g_char,
    parse_monomial,
    parse_tpoly,
    q_character_Q,
    restrict_to_g,
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
from qtchar.character import _star_fold, terms_add
from qtchar.monomial import v_factorization
from qtchar.systems import check_nu
from qtchar.tpoly import CONVENTIONS


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


def _stray_term_add(a: dict, b: dict) -> dict:
    """terms_add with one term too many: the unit monomial, which is
    l-dominant and on no side of a T-system or tensor split, with
    coefficient 1."""
    out = terms_add(a, b)
    out[YMonomial()] = TPoly.ONE
    return out


def _full_route(monkeypatch) -> None:
    """Build the T-system and tensor-split sides from the full products
    instead of their dominant parts."""
    monkeypatch.setattr(systems, "dominant_product", _star_fold)


def _dominant_keys(side: dict) -> dict:
    """The entries of a report side whose key is an l-dominant monomial."""
    return {key: v for key, v in side.items() if parse_monomial(key).is_l_dominant()}


def _assert_dominant_part_of(rep: VerifyReport, full: VerifyReport) -> None:
    """rep is the full route's report full shown on l-dominant keys: the
    same status, each side full's side at those keys, and a text whose
    lines are full's lines at those keys."""
    assert rep.status == full.status
    assert rep.lhs == _dominant_keys(full.lhs)
    assert rep.rhs == _dominant_keys(full.rhs)
    head, *lines = full.text().split("\n")
    kept = [ln for ln in lines if parse_monomial(ln[2:].partition(": ")[0]).is_l_dominant()]
    assert rep.text().split("\n") == [head, *kept]


def test_failing_report_lists_the_full_routes_dominant_lines(engines, monkeypatch):
    eng = engines[("A", 2)]
    monkeypatch.setattr(systems, "terms_add", _stray_term_add)
    for verify in (verify_t_system_t, verify_t_system_t1, verify_kr_tensor_split):
        rep = verify(eng.L, 1, 2, eng)
        assert rep.text().split("\n")[1:] == ["  1: lhs=0 rhs=1"]
        with monkeypatch.context() as m:
            _full_route(m)
            full = verify(eng.L, 1, 2, eng)
        assert full.status == "fail"
        _assert_dominant_part_of(rep, full)


def test_report_sides_are_text_dicts(engines, monkeypatch):
    eng = engines[("A", 2)]
    reports = [
        verify_t_system_t(eng.L, 1, 1, eng),
        verify_q_system(eng.L, 1, 2, eng),
        verify_convergence(eng.L, 1, 3, 1, eng),
    ]
    for rep in reports:
        assert rep.ok, rep.text()
        for side in (rep.lhs, rep.rhs):
            assert side and all(isinstance(k, str) and isinstance(v, str) for k, v in side.items())
        assert rep.lhs == rep.rhs
    # the T-system's sides are the full products' dominant parts; the
    # other two read no dominant product, so the full route leaves them be
    _full_route(monkeypatch)
    _assert_dominant_part_of(reports[0], verify_t_system_t(eng.L, 1, 1, eng))
    assert reports[1:] == [verify_q_system(eng.L, 1, 2, eng), verify_convergence(eng.L, 1, 3, 1, eng)]


# -- dominant sides against the full route ---------------------------------------

# (verifier, [(family, rank, nodes, max k)]): the ranges of acceptance
# criteria 4, 5, 6 and 10
CRITERIA_RANGES = [
    (verify_t_system_t1, [("A", 1, (1,), 6), ("A", 2, (1, 2), 4), ("A", 3, (1, 2, 3), 3),
                          ("D", 4, (1, 2, 3, 4), 2), ("D", 5, (1, 2, 3, 4, 5), 2)]),
    (verify_t_system_t, [("A", 1, (1,), 4), ("A", 2, (1, 2), 3), ("A", 3, (1, 2, 3), 2),
                         ("D", 4, (1, 2, 3, 4), 2), ("D", 5, (1, 2, 3, 4, 5), 2)]),
    (verify_kr_tensor_split, [("A", 1, (1,), 4), ("A", 2, (1, 2), 3), ("A", 3, (1, 2, 3), 2),
                              ("D", 4, (1, 2, 3, 4), 2), ("D", 5, (1, 2, 3, 4, 5), 1)]),
    (verify_q_system, [("A", 1, (1,), 6), ("A", 2, (1, 2), 4), ("A", 3, (1, 2, 3), 3),
                       ("D", 4, (1, 2, 3, 4), 2), ("D", 5, (1, 2, 3, 4, 5), 1), ("E", 6, (1, 2, 6), 1)]),
]

# the dominant-part checks over criteria 4-6 without D5, whose full
# products are too large for the full route
DECISION_RANGES = [(verify, [r for r in ranges if r[:2] != ("D", 5)]) for verify, ranges in CRITERIA_RANGES[:3]]


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
    fast = [verify(eng.L, i, k, eng) for verify, eng, i, k in cases]
    _full_route(monkeypatch)
    for rep, (verify, eng, i, k) in zip(fast, cases):
        full = verify(eng.L, i, k, eng)
        assert full.status == "pass", (verify.__name__, eng.L, i, k)
        _assert_dominant_part_of(rep, full)


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


@pytest.mark.parametrize(
    "verify,i,k",
    [
        pytest.param(verify, i, k, id=verify.__name__)
        for verify, i, k in ((verify_t_system_t, 1, 2), (verify_t_system_t1, 1, 2), (verify_kr_tensor_split, 2, 2))
    ],
)
def test_perturbed_dominant_coefficient_fails_like_full_route(A2, verify, i, k, monkeypatch):
    eng = _ScaledEngine(A2)
    rep = verify(A2, i, k, eng)
    assert rep.status == "fail"
    _full_route(monkeypatch)
    _assert_dominant_part_of(rep, verify(A2, i, k, eng))


class _TSquaredEngine(Engine):
    """Engine whose node-1 string characters have every coefficient but the
    top one multiplied by t^2: wrong as t-characters, right at t = 1."""

    def kr_char_direct(self, i, k, s=0):
        ch = super().kr_char_direct(i, k, s)
        if i != 1 or k == 0:
            return ch
        top = ch.highest
        return QtCharacter(ch.L, ch.poly, {m: p if m == top else p.shifted(2) for m, p in ch.terms.items()})


@pytest.mark.parametrize("rank,k", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2)])
def test_t1_check_specializes_the_refined_sides(rank, k):
    # the t=1 check is the t-refined sides at t=1, not a copy of the
    # t-refined decision: the refined check fails on these characters, the
    # t=1 check passes as it does on the true ones, and its sides are the
    # refined full sides at t=1
    L = build_lie_type("A", rank)
    eng = _TSquaredEngine(L)
    refined = verify_t_system_t(L, 1, k, eng)
    assert refined.status == "fail"
    rep = verify_t_system_t1(L, 1, k, eng)
    assert rep.ok, rep.text()
    assert rep == verify_t_system_t1(L, 1, k, Engine(L))

    def at_one(side: dict) -> dict:
        values = {key: parse_tpoly(v).at_one() for key, v in side.items()}
        return {key: str(c) for key, c in values.items() if c}

    assert rep.lhs == at_one(refined.lhs)
    assert rep.rhs == at_one(refined.rhs)


# -- the report half of the behaviour contract ---------------------------------------

# report_contract.json holds, for every case below, its report's status and
# a digest of its claim, params, status, text() and both sides.  Update an
# entry only for a deliberate change of a report, and say so in CHANGES.md.
REPORT_CONTRACT = Path(__file__).resolve().parent / "report_contract.json"

# (verifier, args after the type) of the A2 cases each fault is run on
FAULT_CALLS = (
    [(verify, (i, k)) for verify in (verify_t_system_t1, verify_t_system_t, verify_kr_tensor_split, verify_q_system)
     for i in (1, 2) for k in (1, 2)]
    + [(verify_convergence, (i, 4, 2)) for i in (1, 2)]
    + [(verify_kr_formula, (nu, 4)) for nu in ({(1, 1): 1}, {(2, 1): 1}, {(2, 2): 1})]
)


def _criteria_calls() -> list:
    """(family, rank, verifier, args after the type) of acceptance criteria
    4-6 and 9-11 over their ranges."""
    calls = [
        (family, rank, verify, (i, k))
        for verify, ranges in CRITERIA_RANGES
        for family, rank, nodes, kmax in ranges
        for i in nodes
        for k in range(1, kmax + 1)
    ]
    calls += [("A", rank, verify_convergence, (i, 4, 2)) for rank in (1, 2, 3) for i in range(1, rank + 1)]
    for a in range(3):
        for b in range(3):
            for c in range(3):
                if a + 2 * b + 3 * c <= 6:
                    nu = {(1, k): v for k, v in ((1, a), (2, b), (3, c)) if v}
                    calls.append(("A", 1, verify_kr_formula, (nu, 6)))
    calls += [("A", 2, verify_kr_formula, ({(i, k): 1}, 4)) for i in (1, 2) for k in (1, 2)]
    calls.append(("A", 3, verify_kr_formula, ({(1, 1): 1}, 3)))
    return calls


def _contract_reports(engines, monkeypatch):
    """(case, report) of every contract case: the criteria's ranges on
    engines (E6 on an engine of its own), then FAULT_CALLS on the A2
    engines that scale node 2 and put t^2 on node 1, and with terms_add
    adding a stray term."""
    e6 = Engine(build_lie_type("E", 6))
    for family, rank, verify, args in _criteria_calls():
        eng = engines.get((family, rank), e6)
        yield f"{verify.__name__} {eng.L} {args}", verify(eng.L, *args, eng)
    A2 = build_lie_type("A", 2)
    faults = {"scaled": _ScaledEngine(A2), "t_squared": _TSquaredEngine(A2), "stray_term": engines[("A", 2)]}
    for fault, eng in faults.items():
        with monkeypatch.context() as m:
            if fault == "stray_term":
                m.setattr(systems, "terms_add", _stray_term_add)
            for verify, args in FAULT_CALLS:
                yield f"{fault}: {verify.__name__} {eng.L} {args}", verify(eng.L, *args, eng)


def _report_digest(rep: VerifyReport) -> str:
    """sha256 of the report's claim, params, status, text() and sides."""
    h = hashlib.sha256()
    parts = (
        rep.claim,
        json.dumps(rep.params),
        rep.status,
        rep.text(),
        json.dumps(rep.lhs, sort_keys=True),
        json.dumps(rep.rhs, sort_keys=True),
    )
    for part in parts:
        data = part.encode("utf-8")
        h.update(f"{len(data)}\n".encode() + data)
    return h.hexdigest()


def test_reports_match_contract(engines, monkeypatch):
    want = {e["case"]: (e["status"], e["sha256"]) for e in json.loads(REPORT_CONTRACT.read_text())}
    got = {case: (rep.status, _report_digest(rep)) for case, rep in _contract_reports(engines, monkeypatch)}
    assert sorted(got) == sorted(want)
    assert {case: got[case] for case in want if got[case] != want[case]} == {}


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
        verify_t_system_t1(A2, 1, 0, Engine(A2))
    with pytest.raises(DomainError):
        verify_t_system_t(A2, 1, -2, Engine(A2))


@pytest.mark.parametrize("verify", [verify_t_system_t1, verify_t_system_t, verify_kr_tensor_split])
def test_string_checks_reject_out_of_range_nodes(A2, verify):
    # the node is checked before any commutation exponent is looked up
    for i in (0, 3, 5):
        with pytest.raises(DomainError, match=f"node {i} out of range for A2"):
            verify(A2, i, 1, Engine(A2))


class _UnreadEngine(Engine):
    """Engine whose every character read fails the test."""

    def _read(self, *args):
        raise AssertionError("character read from a mismatched engine")

    fundamental_char = kr_char_direct = standard_char = simple_char = kl_decompose = _read


MISMATCH_CALLS = {
    "verify_t_system_t1": lambda L, eng: verify_t_system_t1(L, 1, 1, eng),
    "verify_t_system_t": lambda L, eng: verify_t_system_t(L, 1, 1, eng),
    "verify_kr_tensor_split": lambda L, eng: verify_kr_tensor_split(L, 1, 1, eng),
    "verify_convergence": lambda L, eng: verify_convergence(L, 1, 2, 1, eng),
    "q_character_Q": lambda L, eng: q_character_Q(L, 1, 1, eng),
    "verify_q_system": lambda L, eng: verify_q_system(L, 1, 1, eng),
    "verify_kr_formula": lambda L, eng: verify_kr_formula(L, {(1, 1): 1}, 2, eng),
}


@pytest.mark.parametrize("name", sorted(MISMATCH_CALLS))
def test_mismatched_engine_is_refused(A2, D4, name):
    # a D4 engine handed to an A2 check is refused before any character is
    # read, instead of answering about D4 characters under an A2 label
    with pytest.raises(DomainError, match="engine computes D4 characters, not A2"):
        MISMATCH_CALLS[name](A2, _UnreadEngine(D4))


def test_t1_system_restricts_to_q_system(A2, engine_for, qchar_mul):
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

    from qtchar.character import specialize_t1, terms_add

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


def test_twisted_product_of_adjacent_strings_has_unit_dominants(A2, engine_for, terms_scale):
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
        verify_convergence(A1, 1, 1, 2, engine_for(A1))
    with pytest.raises(DomainError):
        verify_convergence(A1, 1, 2, -1, engine_for(A1))


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


@pytest.mark.parametrize("D", [0, 1])
def test_fermionic_checks_convention_at_every_depth(A1, D):
    # at D=0 the sum has one empty count array and calls no binomial
    for convention in CONVENTIONS:
        assert fermionic_rhs(A1, {}, D, convention)[(0,)] == 1
    with pytest.raises(DomainError, match="unknown binomial convention 'weird'"):
        fermionic_rhs(A1, {}, D, "weird")


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


def test_right_negative_flag(right_negative):
    assert not right_negative(YMonomial())
    assert not right_negative(parse_monomial("Y[1,0]"))
    assert right_negative(parse_monomial("Y[2,1] Y[1,2]^-1"))
    assert not right_negative(parse_monomial("Y[1,2]^-1 Y[2,2]"))


def test_string_right_negative_family(A2, engine_for, kr_right_negative_family, right_negative):
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


def test_paired_string_dominant_coefficients(A2, engine_for, paired_string_dominants):
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


def test_pairing_routes_and_transport(A2, engine_for, pairing_d, pairing_d_alt, epsilon):
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


def test_weyl_dimension_oracle(weyl_dimension):
    # the oracle's own values on the fundamentals, then the multiplicity
    # recursion of irreducible_g_char against it on every fundamental of
    # A3, D4, D5 and E6
    want = {
        ("A", 3): [4, 6, 4],
        ("D", 4): [8, 28, 8, 8],
        ("D", 5): [10, 45, 120, 16, 16],
        ("E", 6): [27, 78, 351, 2925, 351, 27],
    }
    for (family, rank), dims in want.items():
        L = build_lie_type(family, rank)
        assert [weyl_dimension(L, _omega(rank, [i])) for i in L.nodes] == dims
        assert weyl_dimension(L, _omega(rank, [])) == 1
        for i in L.nodes:
            hw = _omega(rank, [i])
            assert irreducible_g_char(L, hw).dimension() == weyl_dimension(L, hw), (L, i)


def test_irreducible_g_char_rejects_bad_weights(A2):
    with pytest.raises(DomainError):
        irreducible_g_char(A2, (-1, 0))
    with pytest.raises(DomainError):
        irreducible_g_char(A2, (1,))


def test_strip_to_irreducibles_round_trip(A2):
    a = irreducible_g_char(A2, (1, 0))
    g = a + a + irreducible_g_char(A2, (1, 1))
    assert strip_to_irreducibles(A2, g) == {(1, 0): 2, (1, 1): 1}
    assert strip_to_irreducibles(A2, GCharacter(A2)) == {}


def test_strip_to_irreducibles_flags_non_characters(A2):
    with pytest.raises(InternalError):
        strip_to_irreducibles(A2, GCharacter(A2, {(-1, 0): 1}))
    with pytest.raises(InternalError):
        strip_to_irreducibles(A2, GCharacter(A2, {(0, 0): -1}))


def test_strip_to_irreducibles_refuses_another_type(A2, D4):
    # an A4 character handed over as a D4 one is the caller's error, not
    # a non-dominant maximal weight of the library's
    g = restrict_to_g(Engine(build_lie_type("A", 4)).fundamental_char(2, 0))
    with pytest.raises(DomainError, match="A4"):
        strip_to_irreducibles(D4, g)
    with pytest.raises(DomainError):
        strip_to_irreducibles(A2, GCharacter(D4))


def _omega(rank: int, nodes) -> tuple:
    """The sum of the fundamental weights at nodes; no nodes give 0."""
    return tuple(int(j in nodes) for j in range(1, rank + 1))


# Fundamentals beyond D4 (criterion 14): the highest weights of the
# irreducibles their restrictions strip into, as node lists.  Each case
# takes under a second.  E7 nodes 3-5 and E8 nodes 1-7 are left out for
# time: irreducible_g_char runs over every weight, and the smallest of them,
# E8 node 1, takes about 4 s.
@pytest.mark.parametrize(
    "family,rank,node,weights",
    [
        ("D", 5, 1, [[1]]),
        ("D", 5, 2, [[2], []]),
        ("D", 5, 3, [[3], [1]]),
        ("D", 5, 4, [[4]]),
        ("D", 5, 5, [[5]]),
        ("E", 6, 1, [[1]]),
        ("E", 6, 2, [[2], []]),
        ("E", 6, 3, [[3], [6]]),
        ("E", 6, 5, [[5], [1]]),
        ("E", 6, 6, [[6]]),
        ("E", 7, 1, [[1], []]),
        ("E", 7, 7, [[7]]),
        ("E", 8, 8, [[8], []]),
        # 3732 = 2925 + 650 + 2 * 78 + 1: omega_2 appears twice
        ("E", 6, 4, [[4], [1, 6], [2], [2], []]),
        # 968 = 912 + 56
        ("E", 7, 2, [[2], [7]]),
        # 1673 = 1539 + 133 + 1
        ("E", 7, 6, [[6], [1], []]),
    ],
)
def test_fundamental_restriction_strips(family, rank, node, weights):
    L = build_lie_type(family, rank)
    g = restrict_to_g(Engine(L).fundamental_char(node, 0))
    # the strip ends on an empty remainder, so the dimensions match too;
    # a node list given twice is an irreducible of multiplicity 2
    assert strip_to_irreducibles(L, g) == Counter(_omega(rank, nodes) for nodes in weights)


def test_restricted_string_strips_to_one_irreducible(A2, engine_for):
    got = strip_to_irreducibles(A2, q_character_Q(A2, 1, 2, engine_for(A2)))
    assert got == {(2, 0): 1}
