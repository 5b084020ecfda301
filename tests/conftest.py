import tracemalloc

import pytest


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
