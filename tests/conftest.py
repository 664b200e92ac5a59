import tracemalloc

import numpy as np
import pytest

from fusereg.evaluation import synthetic_texture
from fusereg.grid import GridGeometry, ScalarImage


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def geom16():
    return GridGeometry(16, 16, 1.0, 1.0, 0.0, 0.0)


@pytest.fixture
def geom_small():
    return GridGeometry(24, 20, 1.0, 1.0, 0.0, 0.0)


@pytest.fixture
def texture64():
    return synthetic_texture(GridGeometry(64, 64, 1.0, 1.0, 0.0, 0.0), seed=5, smoothness=2.0)


def random_image(geometry, rng, lo=0.0, hi=1.0):
    vals = rng.uniform(lo, hi, geometry.shape)
    return ScalarImage(geometry, vals)


def traced_peak(fn):
    """Bytes that ``fn()`` allocates at its peak, above what was live
    before the call (tracemalloc; numpy reports its array buffers)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
