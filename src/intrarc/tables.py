"""The CSV format of every table intrarc reads or writes: a header of
column names, then rows of numbers, each column an int or float type
with a finite range. Float columns are written to 9 significant digits.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from typing import Iterable, NamedTuple, Sequence

QP_MAX = 63   # quantization parameters run 0..QP_MAX


class Column(NamedTuple):
    kind: type   # int or float; values must also be finite
    lo: float = -math.inf
    hi: float = math.inf


INDEX = Column(int, 0)              # frame index
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


def read(path: str, columns: dict[str, Column]) -> list[tuple[int, list]]:
    """Every row as (line number, values) after the exact header; no rows, a
    value outside its column or malformed CSV raise ValueError naming the line."""
    rows = []
    with naming(path), open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != list(columns):
                raise ValueError(f"expected header {','.join(columns)}")
            for rec in reader:
                line = reader.line_num
                if len(rec) != len(columns):
                    raise ValueError(f"line {line} has {len(rec)} fields, "
                                     f"expected {len(columns)}")
                rows.append((line, [_parse(line, name, col, text)
                                    for (name, col), text in zip(columns.items(), rec)]))
        except csv.Error as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(str(exc)) from None
        if not rows:
            raise ValueError("no data rows")
    return rows
