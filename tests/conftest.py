import tracemalloc

import pytest

from fraclap import _kernels, singular


@pytest.fixture(autouse=True)
def _clear_memos():
    """Start every test with empty kernel, kernel-spectrum and
    equivalence-table memos, so what it builds or transforms does not depend
    on the tests before it."""
    singular.periodized_kernel.cache_clear()
    singular._equivalence_tables.cache_clear()
    _kernels._kernel_spectrum.cache_clear()


def _traced_peak(call, *args, **kwargs) -> int:
    """Peak bytes that numpy and Python allocate during call(*args, **kwargs),
    beyond what was live before it (tracemalloc; the result is dropped)."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        call(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak
