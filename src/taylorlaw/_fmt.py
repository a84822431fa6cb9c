"""Text formatting shared by the table writers, the reports and the plots.

All user-facing numbers are rendered at 12 significant digits so repeated
runs with identical inputs produce byte-identical files. CSV rows are
written with the tables' quoting rule, so a report can be read back with
``csv.reader``. Nothing here needs numpy.
"""

from __future__ import annotations

import io
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
    """CSV text of ``rows``. The quoting regex runs once over a row's joined
    fields; only a row that it matches, or whose first field reads as a
    comment, is quoted field by field."""
    out = io.StringIO()
    for row in rows:
        if _NEEDS_QUOTES.search("".join(row)) or _is_comment(row[0]):
            row = [_quote(f, i == 0) for i, f in enumerate(row)]
        out.write(",".join(row))
        out.write("\n")
    return out.getvalue()
