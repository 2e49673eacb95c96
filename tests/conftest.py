import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from leobeams import simulate as sim
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


@pytest.fixture(scope="session")
def serve_whole():
    """serve_whole(scene, px, py, book, g, h=None, **kw) gathers what
    `_served_slices` yields for `_serve_plan(book, g, h)` at (px, py) into
    whole (sides, points) arrays: (IDs, serving gains, interferer sums),
    None where kw turns one off. py may carry signs: it is served at |py|."""
    def run(scene, px, py, book, g, h=None, **kw):
        px = np.asarray(px, dtype=float)
        py = np.abs(np.asarray(py, dtype=float))
        out = [None] * 3
        for s, _, *parts in sim._served_slices(
                scene, px, py, sim._serve_plan(book, g, h), **kw):
            for k, part in enumerate(parts):
                if part is not None:
                    if out[k] is None:
                        out[k] = np.empty((part.shape[0], px.size),
                                          part.dtype)
                    out[k][:, s] = part
        return tuple(out)
    return run
