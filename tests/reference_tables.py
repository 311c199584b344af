"""The row-by-row table reader that `tables` once used, kept as the oracle
that the block reader must reproduce: the same rows and values, or the
same message for the first fault in file order.

It parses one record at a time: the field count, then each field in
column order, so the first bad field of the first bad row is reported,
and a CSV or UTF-8 error stops the read where the csv module meets it.
"""

import csv

from intrarc.tables import Column, naming


def parse(line: int, name: str, col: Column, text: str):
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
                rows.append((line, [parse(line, name, col, text)
                                    for (name, col), text in zip(columns.items(), rec)]))
        except csv.Error as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(str(exc)) from None
        if not rows:
            raise ValueError("no data rows")
    return rows
