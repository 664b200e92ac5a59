"""Flat-binary raster container and 8-bit PGM export.

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

``nodata`` and ``wavelengths`` are optional; any other key, or a key given
twice, is refused.  ``#`` starts a comment.  The format is deliberately
dumb: self describing, diffable, and readable from any environment without
a geodata stack.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import FormatError, GeometryError
from .grid import DisplacementField, GridGeometry, ScalarImage

DEFAULT_NODATA = -9999.0

# the GridGeometry fields a header stores, written as plain decimal floats
_HEADER_FLOAT_KEYS = ("spacing_x", "spacing_y", "origin_easting", "origin_northing")
# every key a header may hold, each at most once
_HEADER_KEYS = ("width", "height", "bands") + _HEADER_FLOAT_KEYS + ("nodata", "wavelengths")


def _header_path(path: str) -> str:
    return str(path) + ".hdr"


def write_raster(
    path,
    geometry: GridGeometry,
    bands,
    wavelengths=None,
    nodata_mask=None,
):
    """Write one or more bands sharing a grid.

    ``bands`` is a sequence of (height, width) arrays.  ``nodata_mask`` (one
    shared boolean array) marks pixels stored as ``DEFAULT_NODATA``; where
    it marks any, a sample outside it that float32 stores as that value
    would read back as nodata, and is refused.
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
    payload = np.stack(bands)
    # NaN fails this test too; larger values would be stored as inf
    stored = (np.abs(payload) <= np.finfo(np.float32).max).all(axis=0)
    if nodata_mask is not None:
        mask = np.asarray(nodata_mask, dtype=bool)
        stored |= mask
        payload = np.where(mask[None, :, :], DEFAULT_NODATA, payload)
    if not stored.all():
        raise FormatError("%s: samples outside the nodata mask must be finite float32 values" % path)
    samples = payload.astype("<f4")
    with_sentinel = nodata_mask is not None and mask.any()
    # with the sentinel in the header, a sample stored as it reads back masked
    if with_sentinel and ((samples == np.float32(DEFAULT_NODATA)).any(axis=0) & ~mask).any():
        raise FormatError(
            "%s: a sample outside the nodata mask equals the nodata value %r"
            % (path, DEFAULT_NODATA)
        )
    lines = ["width = %d" % geometry.width, "height = %d" % geometry.height,
             "bands = %d" % len(bands)]
    lines += ["%s = %r" % (k, float(getattr(geometry, k))) for k in _HEADER_FLOAT_KEYS]
    if with_sentinel:
        lines.append("nodata = %r" % DEFAULT_NODATA)
    if wavelengths is not None:
        lines.append("wavelengths = " + ", ".join("%r" % float(wl) for wl in wavelengths))
    with open(_header_path(path), "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(path, "wb") as fh:
        fh.write(samples.tobytes())


def _parse_header(path: str) -> dict:
    hpath = _header_path(path)
    if not os.path.exists(hpath):
        raise FormatError("missing raster sidecar %s" % hpath)
    fields = {}
    with open(hpath, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.isascii():
                raise FormatError("%s:%d: non-ASCII byte" % (hpath, lineno))
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError("%s:%d: expected 'key = value'" % (hpath, lineno))
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _HEADER_KEYS:
                raise FormatError("%s:%d: unknown key %r" % (hpath, lineno, key))
            if key in fields:
                raise FormatError("%s:%d: repeated key %r" % (hpath, lineno, key))
            fields[key] = value.strip()
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
    try:  # an absent float key keeps GridGeometry's default
        geometry = GridGeometry(fields["width"], fields["height"],
                                **{k: fields[k] for k in _HEADER_FLOAT_KEYS if k in fields})
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
    if not np.isfinite(data[:, ~mask] if mask is not None else data).all():
        raise FormatError("%s: payload holds non-finite samples outside the nodata mask" % path)
    bands = [data[i] for i in range(nbands)]
    return geometry, bands, fields.get("wavelengths"), mask


def write_image(path, image: ScalarImage):
    write_raster(path, image.geometry, [image.values], nodata_mask=image.nodata)


def read_image(path) -> ScalarImage:
    geometry, bands, _, mask = read_raster(path)
    if len(bands) != 1:
        raise FormatError("%s: expected a single band, found %d" % (path, len(bands)))
    return ScalarImage(geometry, bands[0], mask)


def write_field(path, u: DisplacementField):
    """Displacement field as a two-band raster (u_x, u_y)."""
    write_raster(path, u.geometry, u.values)


def read_field(path) -> DisplacementField:
    geometry, bands, _, mask = read_raster(path)
    if len(bands) != 2:
        raise FormatError("%s: expected two bands, found %d" % (path, len(bands)))
    if mask is not None:
        raise FormatError("%s: displacement fields cannot carry nodata" % path)
    return DisplacementField(geometry, bands)


# ---------------------------------------------------------------------------
# PGM export for visual inspection


def write_pgm(path, values: np.ndarray):
    """8-bit binary PGM (P5) of values in [0, 1]; out-of-range values are
    clipped, NaN is refused."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise FormatError("PGM expects a 2-D array")
    if np.isnan(arr).any():
        raise FormatError("PGM values must not be NaN")
    q = np.rint(np.clip(arr, 0.0, 1.0) * 255.0)
    header = "P5\n%d %d\n255\n" % (arr.shape[1], arr.shape[0])
    with open(str(path), "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(q.astype(np.uint8).tobytes())
