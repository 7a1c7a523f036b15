"""The CSV renderer ``cli._csv`` replaced, kept as its test oracle.

Every value of the table goes through one ``%`` of the row format repeated
once per row, so each field is exactly what Python's ``%d`` or correctly
rounded ``%.6e`` prints.
"""

from __future__ import annotations

import itertools


def percent_csv(header: str, row_format: str, columns) -> str:
    """CSV text: ``header``, then one ``row_format`` line per row of the
    equal-length ``columns``, all rendered by one ``%``."""
    columns = tuple(columns)
    values = tuple(itertools.chain.from_iterable(zip(*columns)))
    rows = len(values) // len(columns)
    return f"{header}\n" + (row_format + "\n") * rows % values
