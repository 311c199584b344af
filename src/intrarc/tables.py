"""The CSV format of every table intrarc reads or writes: a header of
column names, then rows of numbers, each column an int or float type
with a finite range. Float columns are written to 9 significant digits.

A table is read in blocks of up to BLOCK_ROWS records. Each column of a
block is converted with one `map` of its type and checked with one
`sum`, `min` and `max`, so the per-value work runs in C. A block that
fails those checks is parsed again field by field, which finds its first
fault and its message. Faults are reported in file order: a wrong field
count, a bad value or malformed CSV on an earlier line wins over any
fault after it.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from functools import partial
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Sequence

QP_MAX = 63        # quantization parameters run 0..QP_MAX
BLOCK_ROWS = 256   # records read, converted and checked at a time


class Column(NamedTuple):
    kind: type   # int or float; values must also be finite
    lo: float = -math.inf
    hi: float = math.inf


INDEX = Column(int, 0, 2**53)       # frame index; 2**53 keeps it exact as a float
QP = Column(int, 0, QP_MAX)
BITS = Column(float, 1, 2**53)      # bits of a frame, or bits per second; 2**53 keeps sums exact
ENERGY = Column(float, 0)           # DCT texture energy
LEVEL = Column(float, 0, 1)         # normalized brightness
REAL = Column(float)


def format_row(columns: dict[str, Column], row: Sequence) -> list[str]:
    return [f"{v:.9g}" if col.kind is float else str(v) for col, v in zip(columns.values(), row)]


def write(path: str, columns: dict[str, Column], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(format_row(columns, row) for row in rows)


@contextmanager
def naming(path: str):
    """Name `path` in data errors: a ValueError raised inside gets "{path}: " once, type kept."""
    try:
        yield
    except ValueError as exc:
        if not str(exc).startswith(f"{path}: "):
            exc.args = (f"{path}: {exc}",)
        raise


def _parse(line: int, name: str, col: Column, text: str):
    try:
        value = col.kind(text)
        if col.lo <= value <= col.hi and value - value == 0:   # x - x is 0 only for finite x
            return value
    except ValueError:
        pass
    raise ValueError(f"line {line} has {name}={text!r}, "
                     f"expected a finite {col.kind.__name__} in [{col.lo:.16g}, {col.hi:.16g}]")


def _fits(col: Column, values: list) -> bool:
    """Whether every value is finite and inside `col`. A float column whose
    sum overflows fails too; the field-by-field parse then passes it."""
    total = sum(values)
    return total - total == 0 and col.lo <= min(values) and max(values) <= col.hi


def _columns(lines: list[int], records: list[list[str]], columns: dict[str, Column]) -> list[list]:
    """A block's values column by column; raises its first fault in file order."""
    if set(map(len, records)) == {len(columns)}:
        try:
            values = [list(map(col.kind, texts))
                      for col, texts in zip(columns.values(), zip(*records))]
        except ValueError:
            pass
        else:
            if all(map(_fits, columns.values(), values)):
                return values
    rows = []
    for line, rec in zip(lines, records):
        if len(rec) != len(columns):
            raise ValueError(f"line {line} has {len(rec)} fields, expected {len(columns)}")
        rows.append([_parse(line, name, col, text)
                     for (name, col), text in zip(columns.items(), rec)])
    return [list(col) for col in zip(*rows)]


def _csv_fault(reader, exc: csv.Error | UnicodeDecodeError) -> ValueError:
    if isinstance(exc, csv.Error):
        return ValueError(f"line {reader.line_num}: {exc}")
    return ValueError(str(exc))


def _lines(fh, longest: int) -> Iterator[str]:
    """The physical lines of `fh`, each cut at `longest` characters, so that a
    line that never ends is not read whole. The caller picks `longest` so
    that a cut line holds a field over the csv field limit or too many
    fields, which the csv module or the field count reports; a line cut
    inside a quoted field ends with a csv.Error instead."""
    for line in iter(partial(fh.readline, longest), ""):
        yield line
        if len(line) == longest and line[-1] not in "\r\n":
            raise csv.Error(f"longer than {longest} characters")


def blocks(path: str, columns: dict[str, Column]) -> Iterator[tuple[list[int], list[list]]]:
    """The rows after the exact header, in blocks of up to BLOCK_ROWS: each
    block's line numbers and its values column by column. No rows, a row
    with the wrong field count, a value outside its column or malformed CSV
    raise ValueError naming the line, the first in file order."""
    with naming(path), open(path, newline="", encoding="utf-8") as fh:
        # Longer than any line of in-limit fields, even one with each field
        # quoted and each of its characters a doubled quote.
        reader = csv.reader(_lines(fh, len(columns) * (2 * csv.field_size_limit() + 4)))
        try:
            header = next(reader, None)
        except (csv.Error, UnicodeDecodeError) as exc:
            raise _csv_fault(reader, exc) from None
        if header != list(columns):
            raise ValueError(f"expected header {','.join(columns)}")
        n_rows = 0
        while True:
            lines, records, fault = [], [], None
            try:
                for rec in islice(reader, BLOCK_ROWS):
                    records.append(rec)
                    lines.append(reader.line_num)
            except (csv.Error, UnicodeDecodeError) as exc:
                # The rows read before it may hold an earlier fault.
                fault = _csv_fault(reader, exc)
            if records:
                yield lines, _columns(lines, records, columns)
                n_rows += len(records)
            if fault:
                raise fault
            if len(records) < BLOCK_ROWS:
                break
        if not n_rows:
            raise ValueError("no data rows")


def read(path: str, columns: dict[str, Column]) -> list[tuple[int, list]]:
    """Every row as (line number, values); `blocks` says what is rejected."""
    rows = []
    for lines, values in blocks(path, columns):
        rows.extend(zip(lines, map(list, zip(*values))))
    return rows
