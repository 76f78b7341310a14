import os

# One BLAS thread, set before anything imports numpy: OpenBLAS threads
# gain no wall time on the per-row np.dot of sobolev_norms and cost 40%
# to 2x more CPU.  A thread count already in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

from expsqlab import CutoffProfile, RngStream, make_grid  # noqa: E402


@pytest.fixture(scope="session")
def grid32():
    return make_grid(32)


@pytest.fixture(scope="session")
def grid8():
    return make_grid(8)


@pytest.fixture(scope="session")
def sharp():
    return CutoffProfile("sharp")


@pytest.fixture(scope="session")
def smooth():
    return CutoffProfile("smooth")


@pytest.fixture()
def stream():
    return RngStream(901)
