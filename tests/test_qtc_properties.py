"""Properties on random draws: round trips of the qtc text format on
monomials and characters, and the group laws of YMonomial and the ring
laws of TPoly."""

from __future__ import annotations

from collections import Counter

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from qtchar import (  # noqa: E402
    DrinfeldPoly,
    QtCharacter,
    TPoly,
    YMonomial,
    build_lie_type,
    dumps_qtc,
    loads_qtc,
    parse_monomial,
    read_qtc,
    write_qtc,
)

A3 = build_lie_type("A", 3)

# small draws: the examples run in tier-1, derandomized and without a database
_examples = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
_factors = st.lists(st.tuples(st.integers(1, 3), st.integers(-4, 4), st.integers(-3, 3)), max_size=6)
_tpolys = st.dictionaries(st.integers(-4, 4), st.integers(-9, 9), max_size=3).map(TPoly)


def _merged(factors) -> YMonomial:
    exps: Counter = Counter()
    for i, s, e in factors:
        exps[i, s] += e
    return YMonomial((i, s, e) for (i, s), e in exps.items())


_monomials = _factors.map(_merged)


@_examples
@given(factors=_factors, rnd=st.randoms(use_true_random=False))
def test_shuffled_factor_text_parses_to_the_merged_monomial(factors, rnd):
    m = _merged(factors)
    assert parse_monomial(str(m)) == m
    # any order, an explicit ^1 or none, zero exponents and runs of spaces
    toks = [f"Y[{i},{s}]" if e == 1 and rnd.random() < 0.5 else f"Y[{i},{s}]^{e}" for i, s, e in factors]
    rnd.shuffle(toks)
    text = "".join(" " * rnd.randint(1, 3) + tok for tok in toks) or "1"
    assert parse_monomial(text) == m
    assert str(parse_monomial(text)) == str(m)


@_examples
@given(
    terms=st.dictionaries(_monomials, _tpolys, max_size=6),
    roots=st.lists(st.tuples(st.integers(1, 3), st.integers(-4, 4)), max_size=3),
)
def test_character_text_round_trips(terms, roots, tmp_path):
    ch = QtCharacter(A3, DrinfeldPoly(roots), terms)
    text = dumps_qtc(ch)
    assert loads_qtc(text) == ch
    path = tmp_path / "ch.qtc"
    write_qtc(path, ch)
    assert read_qtc(path) == ch
    assert path.read_text().startswith(text)


# few nodes and levels, so that a list repeats and cancels factors
_dense_factors = st.lists(st.tuples(st.integers(1, 2), st.integers(0, 2), st.integers(-2, 2)), max_size=8)


@_examples
@given(factors=_dense_factors)
def test_monomial_is_the_product_of_its_factors(factors):
    prod = YMonomial()
    for i, s, e in factors:
        prod = prod * YMonomial.var(i, s, e)
    assert YMonomial(factors) == prod == _merged(factors)


@_examples
@given(a=_monomials, b=_monomials, c=_monomials)
def test_monomial_group_laws(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * a**-1 == YMonomial() and a * YMonomial() == a


@_examples
@given(p=_tpolys, q=_tpolys, r=_tpolys)
def test_tpoly_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
