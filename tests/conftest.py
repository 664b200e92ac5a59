import tracemalloc

import numpy as np
import pytest

from fusereg.errors import FormatError
from fusereg.evaluation import synthetic_texture
from fusereg.grid import DisplacementField, GridGeometry, ScalarImage


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


def field_vector(u):
    """The field as one 1-D array, the u_x block then the u_y block."""
    return np.concatenate([u.u_x.ravel(), u.u_y.ravel()])


def field_from_vector(geometry, vec):
    """Inverse of :func:`field_vector`."""
    return DisplacementField(geometry, np.reshape(vec, (2,) + geometry.shape))


def read_pgm(path):
    """Read a binary PGM back to floats in [0, 1]."""
    with open(str(path), "rb") as fh:
        data = fh.read()
    tokens = []
    idx = 0
    while len(tokens) < 4 and idx < len(data):
        # header tokens separated by whitespace, '#' starts a comment line
        while idx < len(data) and data[idx : idx + 1].isspace():
            idx += 1
        if idx < len(data) and data[idx : idx + 1] == b"#":
            while idx < len(data) and data[idx : idx + 1] != b"\n":
                idx += 1
            continue
        start = idx
        while idx < len(data) and not data[idx : idx + 1].isspace():
            idx += 1
        tokens.append(data[start:idx])
    if len(tokens) != 4 or tokens[0] != b"P5":
        raise FormatError("%s: not a binary PGM" % path)
    idx += 1  # single whitespace after maxval
    try:
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise FormatError("%s: bad PGM header" % path) from exc
    if w < 1 or h < 1 or not 1 <= maxval <= 65535:
        raise FormatError("%s: bad PGM header" % path)
    dtype = np.dtype(np.uint8) if maxval < 256 else np.dtype(">u2")
    raw = np.frombuffer(data[idx:], dtype=dtype)
    if raw.size != w * h:
        raise FormatError("%s: truncated PGM payload" % path)
    return raw.reshape(h, w).astype(np.float64) / maxval


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
