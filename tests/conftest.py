import pytest

from subner import util


@pytest.fixture()
def blas_threads():
    """The getter of the loaded OpenBLAS's thread count. The count is set
    to 2 for the test, so that a failed restore shows even where the process
    starts at one thread, and set back after it. Skips where `util` finds
    no getter."""
    found = util._openblas_threads()
    if found is None:
        pytest.skip("no OpenBLAS thread-count getter found")
    get, set_ = found
    count = get()
    set_(2)
    yield get
    set_(count)
