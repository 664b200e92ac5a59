"""Point CSV ingest: numpy's parser against the row scan it falls back to.

``LidarPointCloud.from_csv`` reads a file with numpy's C parser and rescans
it row by row when numpy refuses it.  The fast path must never accept a
file the scan rejects, nor read one differently: every case here is read
both ways and the arrays must be bit-identical, the error messages equal.
"""

import warnings

import numpy as np
import pytest

from fusereg import geo
from fusereg.errors import FormatError
from fusereg.geo import LidarPointCloud

COLUMNS = ("easting", "northing", "elevation", "intensity", "return_number", "agc")


def read(path):
    """The cloud ``from_csv`` returns, or the text of its FormatError."""
    try:
        return LidarPointCloud.from_csv(path)
    except FormatError as exc:
        return str(exc)


def read_both(path, monkeypatch):
    """``from_csv`` as shipped, then with numpy's parser refusing every file."""
    fast = read(path)

    def refuse(_path):
        raise ValueError("refused")

    with monkeypatch.context() as m:
        m.setattr(geo, "_load_points", refuse)
        scan = read(path)
    return fast, scan


def assert_same_cloud(a, b):
    for name in COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        if y is None:
            assert x is None
            continue
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes(), name


def numpy_accepts(path):
    try:
        geo._load_points(str(path))
    except ValueError:
        return False
    return True


GOOD = "1.5,2.25,3.0,40.0,1\n7.0,8.5,9.75,50.5,2\n"

# name -> (file bytes, rows, does numpy's parser take it; None: either way)
VALID = {
    "plain": (GOOD.encode(), 2, True),
    "header": (b"easting,northing,elev,intensity,return\n" + GOOD.encode(), 2, True),
    "leading_blank_lines": (b"\n\n\n" + GOOD.encode(), 2, True),
    "blank_lines_around_header": (b"\n\nx,y,z,i,r\n\n" + GOOD.encode() + b"\n\n", 2, True),
    "whitespace_only_lines": (b"1,2,3,4,1\n   \n\t\n1,2,3,4,2\n", 2, False),
    "whitespace_only_line_before_header": (b"  \nx,y,z,i,r\n" + GOOD.encode(), 2, True),
    "crlf": (GOOD.replace("\n", "\r\n").encode(), 2, True),
    "crlf_header": (b"x,y,z,i,r\r\n" + GOOD.replace("\n", "\r\n").encode(), 2, True),
    "cr_only": (GOOD.replace("\n", "\r").encode(), 2, None),
    "cr_only_header": (b"x,y,z,i,r\r" + GOOD.replace("\n", "\r").encode(), 2, None),
    "six_columns": (b"e,n,z,i,r,agc\n1,2,3,4,1,7.5\n1,2,3,4,3,-8\n", 2, True),
    "single_row": (b"1,2,3,4,1\n", 1, True),
    "single_row_no_newline": (b"1,2,3,4,1", 1, True),
    "digit_underscores": (b"1_000.5,2,3,4,1\n1,2,3,4,1_0\n", 2, False),
    "padded_fields": (b" 1 , 2 ,3,\t4,1  \n", 1, True),
    "separator_at_line_end": (b"1,2,3,4,1\x1c\n", 1, False),
}


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_files_read_identically(tmp_path, monkeypatch, name):
    content, rows, fast_path = VALID[name]
    p = tmp_path / "pts.csv"
    p.write_bytes(content)
    fast, scan = read_both(p, monkeypatch)
    assert isinstance(scan, LidarPointCloud), scan
    assert isinstance(fast, LidarPointCloud), fast
    assert len(fast) == rows
    assert_same_cloud(fast, scan)
    if fast_path is not None:
        assert numpy_accepts(p) == fast_path


@pytest.mark.parametrize("fmt", ["repr", "25g"])
def test_random_doubles_parse_bit_identically(tmp_path, fmt):
    rng = np.random.default_rng(20140)
    values = rng.standard_normal(2000) * 10.0 ** rng.uniform(-300, 300, 2000)
    values[:4] = (5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, -0.0)
    text = "\n".join(
        ",".join(repr(v) if fmt == "repr" else "%.25g" % v for v in row)
        for row in values.reshape(400, 5).tolist()
    )
    p = tmp_path / "doubles.csv"
    p.write_text("x,y,z,i,r\n" + text + "\n")
    fast = geo._load_points(str(p))
    scan = geo._scan_points(str(p))
    assert fast.shape == scan.shape == (400, 5)
    assert fast.tobytes() == scan.tobytes()
    assert fast.ravel().tobytes() == values.tobytes()


# name -> (file bytes, message suffix after "<path>")
ERRORS = {
    "empty": (b"", ": empty point file"),
    "blank_only": (b"\n  \n\t\n", ": empty point file"),
    "header_only": (b"x,y,z,i,r\n", ": no data rows"),
    "header_then_blank_lines": (b"x,y,z,i,r\n\n\n", ": no data rows"),
    "four_columns": (b"1,2,3,4\n1,2,3,4\n", ": expected 5 or 6 columns, found 4"),
    "four_then_ragged": (b"1,2,3,4\n1,2,3\n", ": expected 5 or 6 columns, found 4"),
    "seven_columns": (b"1,2,3,4,1,6,7\n", ": expected 5 or 6 columns, found 7"),
    "ragged": (b"1,2,3,4,1\n1,2,3,4\n", ":2: ragged row"),
    "ragged_after_blanks": (b"x,y,z,i,r\n\n\n1,2,3,4,1\n\n1,2,3,4\n", ":6: ragged row"),
    "bad_number": (b"1,2,3,4,1\n1,2,three,4,1\n", ":2: bad number"),
    "trailing_comma": (b"1,2,3,4,1\n1,2,3,4,1,\n", ":2: ragged row"),
    "empty_field": (b"1,2,3,4,1\n1,2,,4,1\n", ":2: bad number"),
    "hex_number": (b"1,2,3,4,1\n0x10,2,3,4,1\n", ":2: bad number"),
    "separator_inside_line": (b"1,2,3,4,1\n1\x1c,2,3,4,1\n", ":2: bad number"),
    "nul_byte": (b"1,2,3,4,1\n1,2,3,4,1\x00\n", ":2: bad number"),
    "cr_splits_a_row": (b"1,2,3,4,1\n1,2\r,3,4,1\n", ":2: ragged row"),
    "non_ascii_data": (b"1,2,3,4,1\n\n1,2,3,4,\xe9\n", ":3: non-ASCII byte"),
    "non_ascii_header": (b"\xe9asting,n,z,i,r\n1,2,3,4,1\n", ":1: non-ASCII byte"),
    "non_ascii_after_a_megabyte": (
        b"1,2,3,4,1\n" * 120000 + b"1,2,3,4,\xe9\n",
        ":120001: non-ASCII byte",
    ),
}


@pytest.mark.parametrize("name", sorted(ERRORS))
def test_error_files_give_the_scan_message(tmp_path, monkeypatch, name):
    content, suffix = ERRORS[name]
    p = tmp_path / "bad.csv"
    p.write_bytes(content)
    fast, scan = read_both(p, monkeypatch)
    assert fast == scan == str(p) + suffix


# rejected after parsing, by the point cloud's own validation
INVALID_VALUES = {
    "nan_return": b"1,2,3,4,1\n1,2,3,4,nan\n",
    "fractional_return": b"1,2,3,4,1.5\n1,2,3,4,2.9\n",
    "huge_return": b"1,2,3,4,1e30\n",
    "zero_return": b"1,2,3,4,0\n",
    "inf_agc": b"1,2,3,4,1,0.5\n1,2,3,4,1,inf\n",
    "negative_intensity": b"1,2,3,-4,1\n",
}


@pytest.mark.parametrize("name", sorted(INVALID_VALUES))
def test_invalid_values_rejected_on_both_paths(tmp_path, monkeypatch, name):
    p = tmp_path / "bad.csv"
    p.write_bytes(INVALID_VALUES[name])
    assert numpy_accepts(p)
    fast, scan = read_both(p, monkeypatch)
    assert isinstance(fast, str) and fast == scan


# the same refusals name the file and the line of the first offending row;
# name -> (file bytes, message suffix after "<path>")
INVALID_VALUE_LINES = {
    "fractional_return_line_4": (
        b"x,y,z,i,r\n1,2,3,4,1\n\n5,6,7,8,1.5\n",
        ":4: return numbers must be integers from 1 to 2**63 - 1",
    ),
    "negative_intensity": (b"1,2,3,4,1\n1,2,3,-4,1\n", ":2: intensities must be non-negative"),
    "nan_easting": (b"1,2,3,4,1\nnan,2,3,4,1\n", ":2: easting contains non-finite entries"),
    "inf_elevation_crlf": (
        b"1,2,3,4,1\r\n\r\n1,2,-inf,4,1\r\n",
        ":3: elevation contains non-finite entries",
    ),
    "nan_agc": (
        b"e,n,z,i,r,agc\n1,2,3,4,1,0.5\n1,2,3,4,1,nan\n",
        ":3: agc contains non-finite entries",
    ),
    # the first bad row decides, not the first check that fails
    "first_row_wins": (
        b"1,2,3,4,1\n1,2,3,-4,1\n1,nan,3,4,1\n",
        ":2: intensities must be non-negative",
    ),
    "deep_in_a_strip": (
        b"1,2,3,4,1\n" * 3776 + b"1,2,3,4,0\n" + b"1,2,3,4,1\n" * 1000,
        ":3777: return numbers must be integers from 1 to 2**63 - 1",
    ),
}


@pytest.mark.parametrize("name", sorted(INVALID_VALUE_LINES))
def test_invalid_values_name_the_line(tmp_path, monkeypatch, name):
    content, suffix = INVALID_VALUE_LINES[name]
    p = tmp_path / "bad.csv"
    p.write_bytes(content)
    assert numpy_accepts(p)
    fast, scan = read_both(p, monkeypatch)
    assert fast == scan == str(p) + suffix


def test_header_only_file_warns_nothing(tmp_path):
    p = tmp_path / "header.csv"
    p.write_text("easting,northing,elevation,intensity,return\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(FormatError, match="no data rows"):
            LidarPointCloud.from_csv(p)
    assert caught == []


def cloud(return_number):
    n = len(return_number)
    ones = np.ones(n)
    return LidarPointCloud(ones, ones, ones, ones, np.asarray(return_number))


@pytest.mark.parametrize(
    "returns",
    [
        [1.5, 2.9],
        [1.0, 1e30],
        [1.0, 2.0**63],
        np.array([1, 2**64 - 1], dtype=np.uint64),
        [1, 0],
        [True, True],
        [1 + 0j, 2 + 0j],
    ],
)
def test_return_numbers_must_be_int64_integers(returns):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match="return numbers"):
            cloud(returns)


def test_integral_return_numbers_are_kept_exactly():
    c = cloud([1.0, 3.0])
    assert c.return_number.dtype == np.int64
    np.testing.assert_array_equal(c.return_number, [1, 3])
    big = np.array([1, 2**63 - 1], dtype=np.int64)
    np.testing.assert_array_equal(cloud(big).return_number, big)
    np.testing.assert_array_equal(cloud(np.array([2, 7], np.uint8)).return_number, [2, 7])
