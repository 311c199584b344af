import csv

import pytest

from intrarc import features as feat
from intrarc import forest, metrics, tables
from intrarc import ratecontrol as rc

# Every reader of a CSV table, with its header and one valid row.
READERS = {
    "features": (feat.read_features_csv, "frame_index,e_y,l_y,e_u,l_u,e_v,l_v",
                 "0,1,0.5,1,0.5,1,0.5"),
    "training": (forest.read_training_csv, "frame_index,e_y,l_y,e_u,l_u,e_v,l_v,q,bits",
                 "0,1,0.5,1,0.5,1,0.5,32,1000"),
    "rd": (metrics.read_rd_csv, "bitrate,psnr_yuv", "1000,30"),
    "trace": (rc.read_trace_csv, "frame_index,q_p,b_hat,b_prime,q_bar,q_prime,actual_bits,deficit",
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
    assert tables.read(str(path), columns) == [(2, [7, 32, 1.23456789e9]), (3, [8, 0, 0.3])]


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


@pytest.mark.parametrize("name", READERS)
def test_table_without_rows_rejected(tmp_path, name):
    reader, header, _ = READERS[name]
    with pytest.raises(ValueError, match="no data rows"):
        reader(_write(tmp_path, header, []))


def test_trace_short_row_names_line(tmp_path):
    path = _write(tmp_path, READERS["trace"][1], ["0,32,100,100,32,32,100"])
    with pytest.raises(ValueError, match="line 2 has 7 fields, expected 8"):
        rc.read_trace_csv(path)


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
