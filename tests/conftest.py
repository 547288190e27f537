from __future__ import annotations

import pytest

from qtchar import Engine, build_lie_type


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
