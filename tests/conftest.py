import pytest

# the package pins one BLAS thread when it loads; conftest loads before
# any test module imports numpy, so the pin holds for the whole suite
from expsqlab import CutoffProfile, RngStream, TorusGrid


@pytest.fixture(scope="session")
def grid32():
    return TorusGrid(32)


@pytest.fixture(scope="session")
def grid8():
    return TorusGrid(8)


@pytest.fixture(scope="session")
def sharp():
    return CutoffProfile("sharp")


@pytest.fixture(scope="session")
def smooth():
    return CutoffProfile("smooth")


@pytest.fixture()
def stream():
    return RngStream(901)
