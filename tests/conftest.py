import tracemalloc
from typing import NamedTuple

import pytest

from leobeams.config import SceneConfig, build_scene


@pytest.fixture(scope="session")
def scene():
    """Reference scene with the default configuration."""
    return build_scene(SceneConfig())


class Traced(NamedTuple):
    peak: int    # most bytes traced at once during the call
    held: int    # bytes still traced when it returned, its result included
    result: object


@pytest.fixture(scope="session")
def traced_peak():
    """traced_peak(fn) calls fn() under tracemalloc and returns a `Traced`:
    the peak, the bytes held on return and fn's result."""
    def run(fn) -> Traced:
        tracemalloc.start()
        try:
            result = fn()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return Traced(peak, held, result)
    return run
