import pytest

from monoidkit.verify import cached_monoid


@pytest.fixture(scope="session")
def T2():
    return cached_monoid("T", 2)


@pytest.fixture(scope="session")
def T3():
    return cached_monoid("T", 3)


@pytest.fixture(scope="session")
def T4():
    return cached_monoid("T", 4)


@pytest.fixture(scope="session")
def PT2():
    return cached_monoid("PT", 2)


@pytest.fixture(scope="session")
def PT3():
    return cached_monoid("PT", 3)


@pytest.fixture(scope="session")
def I2():
    return cached_monoid("I", 2)


@pytest.fixture(scope="session")
def I3():
    return cached_monoid("I", 3)


@pytest.fixture(scope="session")
def P2():
    return cached_monoid("P", 2)


@pytest.fixture(scope="session")
def P3():
    return cached_monoid("P", 3)
