"""Flat-binary raster container and PGM export.

A raster is stored as raw little-endian float32 samples, band sequential,
row major, next to a text sidecar ``<path>.hdr`` of ``key = value`` lines::

    width = 512
    height = 384
    bands = 1
    spacing_x = 1.0
    spacing_y = 1.0
    origin_easting = 355200.0
    origin_northing = 5687400.0
    nodata = -9999.0
    wavelengths = 460.0, 549.0, 640.0

``nodata`` and ``wavelengths`` are optional.  The format is deliberately
dumb: self describing, diffable, and readable from any environment without
a geodata stack.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import FormatError, GeometryError
from .grid import DisplacementField, GridGeometry, ScalarImage

DEFAULT_NODATA = -9999.0

_HEADER_FLOAT_KEYS = ("spacing_x", "spacing_y", "origin_easting", "origin_northing")


def _header_path(path: str) -> str:
    return str(path) + ".hdr"


def write_raster(
    path,
    geometry: GridGeometry,
    bands,
    wavelengths=None,
    nodata_mask=None,
    nodata_value: float = DEFAULT_NODATA,
):
    """Write one or more bands sharing a grid.

    ``bands`` is a sequence of (height, width) arrays.  ``nodata_mask`` (one
    shared boolean array) marks pixels stored as the sentinel value.
    """
    path = str(path)
    bands = [np.asarray(b, dtype=np.float64) for b in bands]
    if not bands:
        raise FormatError("raster needs at least one band")
    for b in bands:
        if b.shape != geometry.shape:
            raise FormatError(
                "band shape %s does not match grid %s" % (b.shape, geometry.shape)
            )
    if wavelengths is not None and len(wavelengths) != len(bands):
        raise FormatError("wavelength count does not match band count")
    lines = [
        "width = %d" % geometry.width,
        "height = %d" % geometry.height,
        "bands = %d" % len(bands),
        "spacing_x = %r" % geometry.spacing_x,
        "spacing_y = %r" % geometry.spacing_y,
        "origin_easting = %r" % geometry.origin_easting,
        "origin_northing = %r" % geometry.origin_northing,
    ]
    if nodata_mask is not None and np.asarray(nodata_mask).any():
        lines.append("nodata = %r" % float(nodata_value))
    if wavelengths is not None:
        lines.append("wavelengths = " + ", ".join("%r" % float(wl) for wl in wavelengths))
    with open(_header_path(path), "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    payload = np.stack(bands)
    if nodata_mask is not None:
        mask = np.asarray(nodata_mask, dtype=bool)
        payload = np.where(mask[None, :, :], float(nodata_value), payload)
    with open(path, "wb") as fh:
        fh.write(payload.astype("<f4").tobytes())


def _parse_header(path: str) -> dict:
    hpath = _header_path(path)
    if not os.path.exists(hpath):
        raise FormatError("missing raster sidecar %s" % hpath)
    fields = {}
    with open(hpath, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError("%s:%d: expected 'key = value'" % (hpath, lineno))
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()
    for key in ("width", "height", "bands"):
        if key not in fields:
            raise FormatError("%s: missing required key %r" % (hpath, key))
        try:
            fields[key] = int(fields[key])
        except ValueError as exc:
            raise FormatError("%s: bad integer for %r" % (hpath, key)) from exc
    for key in _HEADER_FLOAT_KEYS + ("nodata",):
        if key in fields:
            try:
                fields[key] = float(fields[key])
            except ValueError as exc:
                raise FormatError("%s: bad float for %r" % (hpath, key)) from exc
    if "wavelengths" in fields:
        try:
            fields["wavelengths"] = [
                float(tok) for tok in fields["wavelengths"].split(",") if tok.strip()
            ]
        except ValueError as exc:
            raise FormatError("%s: bad wavelength list" % hpath) from exc
        if len(fields["wavelengths"]) != fields["bands"]:
            raise FormatError("%s: wavelength count does not match bands" % hpath)
    return fields


def read_raster(path):
    """Read a raster; returns (geometry, band arrays, wavelengths, nodata mask).

    Wavelengths and mask are None when absent.  Pixels equal to the header's
    nodata sentinel (in any band) are masked.
    """
    path = str(path)
    if not os.path.exists(path):
        raise FormatError("missing raster payload %s" % path)
    fields = _parse_header(path)
    try:
        geometry = GridGeometry(
            width=fields["width"],
            height=fields["height"],
            spacing_x=fields.get("spacing_x", 1.0),
            spacing_y=fields.get("spacing_y", 1.0),
            origin_easting=fields.get("origin_easting", 0.0),
            origin_northing=fields.get("origin_northing", 0.0),
        )
    except GeometryError as exc:
        raise FormatError("%s: %s" % (_header_path(path), exc)) from exc
    nbands = fields["bands"]
    expected = nbands * geometry.width * geometry.height
    raw = np.fromfile(path, dtype="<f4")
    if raw.size != expected:
        raise FormatError(
            "%s: payload has %d samples, header implies %d" % (path, raw.size, expected)
        )
    data = raw.astype(np.float64).reshape(nbands, geometry.height, geometry.width)
    mask = None
    if "nodata" in fields:
        sentinel = np.float64(np.float32(fields["nodata"]))
        mask = (data == sentinel).any(axis=0)
        if not mask.any():
            mask = None
    bands = [data[i] for i in range(nbands)]
    return geometry, bands, fields.get("wavelengths"), mask


def write_image(path, image: ScalarImage):
    write_raster(path, image.geometry, [image.values], nodata_mask=image.nodata)


def read_image(path) -> ScalarImage:
    geometry, bands, _, mask = read_raster(path)
    if len(bands) != 1:
        raise FormatError("%s: expected a single band, found %d" % (path, len(bands)))
    return ScalarImage(geometry, np.where(mask, 0.0, bands[0]) if mask is not None else bands[0], mask)


def write_field(path, u: DisplacementField):
    """Displacement field as a two-band raster (u_x, u_y)."""
    write_raster(path, u.geometry, [u.u_x, u.u_y])


def read_field(path) -> DisplacementField:
    geometry, bands, _, mask = read_raster(path)
    if len(bands) != 2:
        raise FormatError("%s: expected two bands, found %d" % (path, len(bands)))
    if mask is not None:
        raise FormatError("%s: displacement fields cannot carry nodata" % path)
    return DisplacementField(geometry, bands[0], bands[1])


# ---------------------------------------------------------------------------
# PGM export for visual inspection


def write_pgm(path, values: np.ndarray, bits: int = 8):
    """Binary PGM (P5) of values in [0, 1]; out-of-range values are clipped."""
    if bits not in (8, 16):
        raise FormatError("PGM depth must be 8 or 16 bits")
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise FormatError("PGM expects a 2-D array")
    maxval = (1 << bits) - 1
    q = np.clip(np.rint(np.clip(arr, 0.0, 1.0) * maxval), 0, maxval)
    header = "P5\n%d %d\n%d\n" % (arr.shape[1], arr.shape[0], maxval)
    if bits == 8:
        payload = q.astype(np.uint8).tobytes()
    else:
        payload = q.astype(">u2").tobytes()
    with open(str(path), "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(payload)


def read_pgm(path) -> np.ndarray:
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
    dtype = np.dtype(np.uint8) if maxval < 256 else np.dtype(">u2")
    raw = np.frombuffer(data[idx:], dtype=dtype)
    if raw.size != w * h:
        raise FormatError("%s: truncated PGM payload" % path)
    return raw.reshape(h, w).astype(np.float64) / maxval
