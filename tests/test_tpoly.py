from __future__ import annotations

from math import comb

import pytest

from qtchar import DomainError, ParseError, TPoly, gen_binomial, parse_tpoly


def test_ring_basics():
    p = TPoly({0: 1, 2: 1})
    q = TPoly({-1: 3})
    assert (p + q).terms == {0: 1, 2: 1, -1: 3}
    assert (p - p).terms == {}
    assert (p * q).terms == {-1: 3, 1: 3}
    assert (p * 0) == TPoly.ZERO
    assert (1 + TPoly.t_power(1)).terms == {0: 1, 1: 1}
    assert (-q).terms == {-1: -3}


def test_zero_coefficients_dropped():
    assert TPoly({3: 0, 1: 2}).terms == {1: 2}
    assert not TPoly({0: 0})
    assert (TPoly({1: 1}) - TPoly({1: 1})) == 0


def test_constructor_refuses_non_integers():
    # t^0.5 would print a coefficient that parse_tpoly refuses
    for terms in ({0.5: 1}, {1: 0.5}, {1: 2.0}, {"1": 1}, {1: 0.0}):
        with pytest.raises(DomainError, match="is not an integer"):
            TPoly(terms)
    for n, c in ((0.5, 1), (0.5, 0), (1, 1.0)):
        with pytest.raises(DomainError, match="is not an integer"):
            TPoly.t_power(n, c)


def test_shift_bar_at_one():
    p = TPoly({0: 1, -2: 2})
    assert p.shifted(3).terms == {3: 1, 1: 2}
    assert p.at_one() == 3


def test_symmetry_and_sign_queries(is_bar_symmetric, only_negative_powers):
    assert is_bar_symmetric(TPoly({2: 1, 0: 5, -2: 1}))
    assert not is_bar_symmetric(TPoly({2: 1}))
    assert only_negative_powers(TPoly({-1: 1, -4: 2}))
    assert not only_negative_powers(TPoly({0: 1}))
    assert TPoly({1: 1, -1: 2}).has_nonneg_coeffs()
    assert not TPoly({1: -1}).has_nonneg_coeffs()


def test_str_and_parse_round_trip():
    cases = [
        TPoly.ZERO,
        TPoly.ONE,
        TPoly({-1: 1}),
        TPoly({2: 3, 0: -1, -5: 7}),
        TPoly({1: -1, -1: -1}),
    ]
    for p in cases:
        assert parse_tpoly(str(p)) == p
    assert str(TPoly({-1: 1})) == "t^-1"
    assert str(TPoly({0: 1, 2: 1})) == "1+t^2"
    assert parse_tpoly("1 + t^2") == TPoly({0: 1, 2: 1})
    with pytest.raises(ParseError):
        parse_tpoly("")
    with pytest.raises(ParseError):
        parse_tpoly("t^^2")
    # int refuses a numeral past 4,300 digits with a bare ValueError
    big = "1" * 5000
    for text in (f"-{big}", f"{big}t", f"1 + t^-{big}"):
        with pytest.raises(ParseError, match="^5000-digit number past the limit"):
            parse_tpoly(text)


def test_t_binomial_small_values(t_binomial):
    assert t_binomial(0, 0) == TPoly.ONE
    assert t_binomial(4, 0) == TPoly.ONE
    assert t_binomial(4, 4) == TPoly.ONE
    assert t_binomial(2, 1).terms == {-1: 1, 1: 1}
    assert t_binomial(4, 2).terms == {-4: 1, -2: 1, 0: 2, 2: 1, 4: 1}
    with pytest.raises(DomainError):
        t_binomial(2, 3)
    with pytest.raises(DomainError):
        t_binomial(2, -1)


def test_t_binomial_symmetry_and_specialization(t_binomial, is_bar_symmetric):
    for n in range(8):
        for r in range(n + 1):
            b = t_binomial(n, r)
            assert b == t_binomial(n, n - r)
            assert is_bar_symmetric(b)
            assert b.has_nonneg_coeffs()
            assert b.at_one() == comb(n, r)


def test_t_binomial_against_sympy_gaussian(t_binomial):
    sympy = pytest.importorskip("sympy")
    q = sympy.symbols("q")

    def qint(n):
        return sum(q**j for j in range(n))

    for n in range(7):
        for r in range(n + 1):
            expect = sympy.cancel(
                sympy.prod([qint(n - j) for j in range(r)])
                / sympy.prod([qint(j + 1) for j in range(r)])
            )
            got = sum(
                c * q ** ((e + r * (n - r)) // 2) for e, c in t_binomial(n, r).terms.items()
            )
            assert sympy.simplify(expect - got) == 0


def test_gen_binomial_conventions():
    assert gen_binomial(5, 2) == 10
    assert gen_binomial(5, 2, "lusztig") == 10
    assert gen_binomial(3, 0) == 1
    assert gen_binomial(3, -1) == 0
    assert gen_binomial(-1, 1) == -1
    assert gen_binomial(-1, 2) == 1
    assert gen_binomial(-2, 3) == -4
    assert gen_binomial(-1, 1, "lusztig") == 0
    assert gen_binomial(1, 3, "lusztig") == 0
    with pytest.raises(DomainError):
        gen_binomial(1, 1, "other")


def test_gen_binomial_pascal_rule():
    # both conventions satisfy C(a, b) = C(a-1, b) + C(a-1, b-1) for b >= 1
    for conv in ("gamma", "lusztig"):
        for a in range(-6, 7):
            for b in range(1, 7):
                assert gen_binomial(a, b, conv) == gen_binomial(
                    a - 1, b, conv
                ) + gen_binomial(a - 1, b - 1, conv)
