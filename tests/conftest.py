from __future__ import annotations

import pytest

from qtchar import Engine, QtCharacter, TPoly, build_lie_type


@pytest.fixture(scope="session")
def A1():
    return build_lie_type("A", 1)


@pytest.fixture(scope="session")
def A2():
    return build_lie_type("A", 2)


@pytest.fixture(scope="session")
def A3():
    return build_lie_type("A", 3)


@pytest.fixture(scope="session")
def D4():
    return build_lie_type("D", 4)


@pytest.fixture(scope="session")
def D5():
    return build_lie_type("D", 5)


@pytest.fixture(scope="session")
def engines(A1, A2, A3, D4, D5, tmp_path_factory):
    """One disk-cached engine per type, shared across the whole run so the
    expensive D4 and D5 fixpoints are computed once."""
    cache = tmp_path_factory.mktemp("qtc-cache")
    return {
        ("A", 1): Engine(A1, str(cache)),
        ("A", 2): Engine(A2, str(cache)),
        ("A", 3): Engine(A3, str(cache)),
        ("D", 4): Engine(D4, str(cache)),
        ("D", 5): Engine(D5, str(cache)),
    }


@pytest.fixture(scope="session")
def engine_for(engines):
    def get(L):
        return engines[(L.family, L.rank)]

    return get


@pytest.fixture(scope="session")
def subtraction_simples():
    """Reference simples of a KLResult by the subtraction route, independent
    of the fixpoint runs that build res.simples: deepest row first, each
    simple is the full standard character minus the z-weighted simples
    below it."""

    def build(eng, res) -> dict:
        out: dict = {}
        for ai in range(len(res.order) - 1, -1, -1):
            terms = dict(eng.standard_char(res.order[ai]).terms)
            for bi in range(ai + 1, len(res.order)):
                zab = res.z.get((ai, bi))
                if not zab:
                    continue
                for m, p in out[res.order[bi]].terms.items():
                    r = terms.get(m, TPoly.ZERO) - zab * p
                    if r:
                        terms[m] = r
                    else:
                        terms.pop(m, None)
            out[res.order[ai]] = QtCharacter(eng.L, res.order[ai], terms)
        return out

    return build
