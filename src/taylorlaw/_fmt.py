"""Text formatting shared by the reports, the plots and the table parsers.

All user-facing numbers are rendered at 12 significant digits so repeated
runs with identical inputs produce byte-identical files. CSV rows are
quoted where ``csv.reader`` needs it, and a leading field that the tables'
comment rule would skip is quoted too, so a report can be read back with
``csv.reader``. Nothing here needs numpy.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence


def sig12(x: float) -> str:
    """Format a finite float at 12 significant digits."""
    return format(float(x), ".12g")


def _is_comment(line: str) -> bool:
    if not line.startswith("#"):
        return False
    rest = line[1:]
    return rest == "" or rest[0] in " \t#"


_NEEDS_QUOTES = re.compile('[,"\n\r]')


def _quote(field: str, first: bool) -> str:
    if _NEEDS_QUOTES.search(field) or (first and _is_comment(field)):
        return '"' + field.replace('"', '""') + '"'
    return field


def _emit(rows: Iterable[Sequence[str]]) -> str:
    """CSV text of ``rows``. The rows are joined as they stand, and the text
    is kept when no field can need quoting: it holds no quote and no
    carriage return, no line of it starts with ``#``, and its commas and
    line breaks are the rows' own separators. Otherwise each row whose
    joined fields the quoting regex matches, or whose first field reads as a
    comment, is joined again with its fields quoted."""
    rows = list(rows)
    lines = list(map(",".join, rows))
    lines.append("")
    text = "\n".join(lines)
    if (
        text.count(",") == sum(map(len, rows)) - len(rows)
        and text.count("\n") == len(rows)
        and '"' not in text
        and "\r" not in text
        and "\n#" not in text
        and not text.startswith("#")
    ):
        return text
    for i, row in enumerate(rows):
        if _NEEDS_QUOTES.search("".join(row)) or _is_comment(row[0]):
            lines[i] = ",".join([_quote(f, k == 0) for k, f in enumerate(row)])
    return "\n".join(lines)
