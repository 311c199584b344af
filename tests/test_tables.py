import csv
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from intrarc import cli
from intrarc import features as feat
from intrarc import forest, metrics, tables

import reference_tables
from conftest import read_rows, read_trace_csv

# Every reader of a CSV table, with its header and one valid row.
READERS = {
    "features": (feat.read_features_csv, "frame_index,e_y,l_y,e_u,l_u,e_v,l_v",
                 "0,1,0.5,1,0.5,1,0.5"),
    "training": (forest.read_training_csv, "frame_index,e_y,l_y,e_u,l_u,e_v,l_v,q,bits",
                 "0,1,0.5,1,0.5,1,0.5,32,1000"),
    "rd": (metrics.read_rd_csv, "bitrate,psnr_yuv", "1000,30"),
    "trace": (read_trace_csv, "frame_index,q_p,b_hat,b_prime,q_bar,q_prime,actual_bits,deficit",
              "0,32,100,100,32,32,100,0"),
}


def _write(tmp_path, header, rows):
    path = tmp_path / "table.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    return str(path)


def test_write_formats_ints_as_they_are_and_floats_to_9_digits(tmp_path):
    path = tmp_path / "t.csv"
    columns = {"frame_index": tables.INDEX, "q": tables.QP, "value": tables.REAL}
    tables.write(str(path), columns, [(7, 32, 1234567890), (8, 0, 0.1 + 0.2)])
    assert path.read_bytes() == b"frame_index,q,value\r\n7,32,1.23456789e+09\r\n8,0,0.3\r\n"
    assert read_rows(str(path), columns) == [(2, [7, 32, 1.23456789e9]), (3, [8, 0, 0.3])]


@pytest.mark.parametrize("name", READERS)
@pytest.mark.parametrize("text", ["x", "3x", "abc"])
def test_field_that_is_not_a_number_names_file_and_line(tmp_path, name, text):
    reader, header, row = READERS[name]
    bad = ",".join([text, *row.split(",")[1:]])
    path = _write(tmp_path, header, [row, bad])
    with pytest.raises(ValueError, match=f"{path}: line 3 has [a-z_]+='{text}', expected"):
        reader(path)


@pytest.mark.parametrize("name", READERS)
def test_first_column_below_its_range_names_file_and_line(tmp_path, name):
    """-1 is below every first column: a frame index is >= 0, a bitrate >= 1."""
    reader, header, row = READERS[name]
    bad = ",".join(["-1", *row.split(",")[1:]])
    path = _write(tmp_path, header, [row, bad])
    first = header.split(",")[0]
    with pytest.raises(ValueError, match=rf"{path}: line 3 has {first}='-1', expected .* \[[01],"):
        reader(path)


@pytest.mark.parametrize("name", READERS)
def test_field_over_the_csv_size_limit_names_line(tmp_path, name):
    reader, header, row = READERS[name]
    path = _write(tmp_path, header, [row, "1" * (csv.field_size_limit() + 1)])
    with pytest.raises(ValueError, match=f"{path}: line 3: field larger than field limit"):
        reader(path)


@pytest.mark.parametrize("line, fault", [
    ("1" * (20 << 20), "field larger than field limit ({limit})"),
    # cut inside a quoted field: each cut of `longest` characters, a multiple
    # of 4, falls on the "a" of a '"a",' field
    ("x" + ',"a"' * (5 << 20), "longer than {longest} characters"),
], ids=["digits", "quoted fields"])
def test_20_mb_line_is_read_only_to_its_first_fault(tmp_path, line, fault):
    """Physical lines reach the csv module cut at a length that no line of
    in-limit fields reaches, so a line that never ends is not read whole."""
    header = READERS["features"][1]
    path = _write(tmp_path, header, [line])
    limit = csv.field_size_limit()
    longest = (header.count(",") + 1) * (2 * limit + 4)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            feat.read_features_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == f"{path}: line 2: " + fault.format(limit=limit, longest=longest)
    assert peak < 10 << 20


@pytest.mark.parametrize("name", READERS)
def test_table_without_rows_rejected(tmp_path, name):
    reader, header, _ = READERS[name]
    with pytest.raises(ValueError, match="no data rows"):
        reader(_write(tmp_path, header, []))


def test_trace_short_row_names_line(tmp_path):
    path = _write(tmp_path, READERS["trace"][1], ["0,32,100,100,32,32,100"])
    with pytest.raises(ValueError, match="line 2 has 7 fields, expected 8"):
        read_trace_csv(path)


def test_non_utf8_bytes_name_file(tmp_path):
    path = tmp_path / "f.csv"
    path.write_bytes(b"frame_index,e_y,l_y,e_u,l_u,e_v,l_v\n0,\xff,1,1,1,1,1\n")
    with pytest.raises(ValueError, match=f"{path}: .*can't decode"):
        feat.read_features_csv(str(path))


def test_naming_prefixes_the_path_once_and_keeps_the_type():
    with pytest.raises(metrics.OverlapError) as info:
        with tables.naming("a.csv"), tables.naming("a.csv"):
            raise metrics.OverlapError("no PSNR overlap")
    assert str(info.value) == "a.csv: no PSNR overlap"


# Every reader whose first column is a frame index.
INDEXED = {**{name: READERS[name] for name in ("features", "training", "trace")},
           "log": (lambda path: cli._log_encoder(path, {0}), "frame_index,q,bits", "0,32,1000")}


@pytest.mark.parametrize("name", INDEXED)
@pytest.mark.parametrize("text", [str(2**53 + 1), "9" * 400], ids=["2**53+1", "400-digits"])
def test_frame_index_past_2_to_53_names_file_line_and_column(tmp_path, name, text):
    reader, header, row = INDEXED[name]
    bad = ",".join([text, *row.split(",")[1:]])
    path = _write(tmp_path, header, [row, bad])
    with pytest.raises(ValueError, match=f"{path}: line 3 has frame_index='{text}', "
                                         r"expected a finite int in \[0, 9007199254740992\]"):
        reader(path)


def test_frame_index_of_2_to_53_is_read(tmp_path):
    _, header, row = READERS["training"]
    path = _write(tmp_path, header, [row.replace("0", str(2**53), 1)])
    assert read_rows(path, forest.TRAINING_COLUMNS)[0][1][0] == 2**53


def test_earlier_bad_value_wins_over_later_faults(tmp_path):
    """A bad value, a short row and an oversized field, each a block apart:
    the first in file order is reported."""
    header, row = READERS["features"][1:]
    rows = [row] * 5 + [row.replace("0.5", "2", 1), "0,1", "1" * (csv.field_size_limit() + 1)]
    path = _write(tmp_path, header, rows)
    for block in (1, 2, 3, 1024):
        with mock.patch.object(tables, "BLOCK_ROWS", block):
            with pytest.raises(ValueError, match=r"line 7 has l_y='2', expected a finite float"):
                feat.read_features_csv(path)


# The columns of the generated tables, and for each column the texts of
# values inside and outside its range.
COLUMNS = {"frame_index": tables.INDEX, "q": tables.QP, "level": tables.LEVEL,
           "real": tables.REAL}
VALID = {
    "frame_index": st.integers(0, 2**53).map(str),
    "q": st.integers(0, tables.QP_MAX).map(str),
    "level": st.floats(0, 1).map(repr),
    "real": st.floats(allow_nan=False, allow_infinity=False).map(repr),
}
INVALID = st.sampled_from(["x", "", "3x", "1.5", "-1", "64", "2", str(2**53 + 1), "9" * 40,
                           "1e400", "-1e400", "inf", "-inf", "nan", " 7 ", "1_0", "0x10"])
FIELD_LIMIT = 48   # the csv field size limit while the property runs
OVERSIZED = "1" * (FIELD_LIMIT + 1)
FAULTS = ["value", "value", "value", "short", "long", "blank", "oversized", "not utf-8"]


def _quoted(draw, text):
    # A quoted field may hold a line break, which moves the line numbers.
    quote = draw(st.sampled_from(["", "", "", "q", "qn"]))
    return f'"{text}\n"' if quote == "qn" else f'"{text}"' if quote else text


@st.composite
def table_texts(draw):
    """A table: the header (rarely a wrong one), then valid rows in which
    up to three faults are put: a bad value, a row of the wrong length, a
    blank line, a field over the size limit or a byte that is not UTF-8."""
    header = draw(st.sampled_from([",".join(COLUMNS)] * 9 + ["frame_index,q,level"]))
    rows = [[draw(VALID[name]) for name in COLUMNS] for _ in range(draw(st.integers(0, 12)))]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row, col = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(COLUMNS) - 1))
        fault = draw(st.sampled_from(FAULTS))
        if fault == "short":
            rows[row] = rows[row][:draw(st.integers(1, len(COLUMNS) - 1))]
        elif fault == "long":
            rows[row] = rows[row] + [draw(VALID["real"])]
        elif fault == "blank":
            rows[row] = []
        elif col < len(rows[row]):
            rows[row][col] = {"value": draw(INVALID), "oversized": OVERSIZED,
                              "not utf-8": "\udcff"}[fault]
    lines = [header, *(",".join(_quoted(draw, text) for text in row) for row in rows)]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def _outcome(read, path):
    try:
        return repr(read(path, COLUMNS))
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=400, deadline=None)
@given(text=table_texts(), block=st.integers(1, 4))
def test_block_reader_matches_the_row_reader(tmp_path_factory, text, block):
    """Same rows and values, or the same message for the first fault in
    file order, with faults drawn on both sides of block boundaries."""
    path = tmp_path_factory.mktemp("table") / "t.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    limit = csv.field_size_limit(FIELD_LIMIT)
    try:
        want = _outcome(reference_tables.read, str(path))
        with mock.patch.object(tables, "BLOCK_ROWS", block):
            assert _outcome(read_rows, str(path)) == want
    finally:
        csv.field_size_limit(limit)
