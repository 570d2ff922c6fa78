"""Per-line pragma suppressions.

A finding is suppressed by a comment on its own line::

    for key in bucket:  # simlint: ignore[SIM103]
    started = time.time()  # simlint: ignore[SIM101,SIM105]
    anything_goes()  # simlint: ignore

The bare form suppresses every rule on that line; the bracketed form only
the listed codes. ``# simlint: skip-file`` anywhere in the file suppresses
the whole file (use sparingly — prefer line pragmas).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

#: ``# simlint: ignore`` or ``# simlint: ignore[SIM101, SIM103]``
_PRAGMA_RE = re.compile(
    r"#\s*simlint\s*:\s*ignore(?:\s*\[(?P<codes>[A-Za-z0-9_,\s]*)\])?")
_SKIP_FILE_RE = re.compile(r"#\s*simlint\s*:\s*skip-file\b")


@dataclass
class Suppressions:
    """Parsed pragma state for one file."""

    #: line number -> set of suppressed codes; empty set = all rules.
    lines: dict[int, set[str]] = field(default_factory=dict)
    skip_file: bool = False

    def covers(self, line: int, code: str) -> bool:
        if self.skip_file:
            return True
        codes = self.lines.get(line)
        if codes is None:
            return False
        return not codes or code in codes


def parse_pragmas(source: str) -> Suppressions:
    suppressions = Suppressions()
    for lineno, text in enumerate(source.splitlines(), start=1):
        if "simlint" not in text:
            continue
        if _SKIP_FILE_RE.search(text):
            suppressions.skip_file = True
        match = _PRAGMA_RE.search(text)
        if match:
            raw = match.group("codes")
            codes = {code.strip().upper() for code in raw.split(",")
                     if code.strip()} if raw is not None else set()
            suppressions.lines.setdefault(lineno, set()).update(codes)
            if raw is None:
                suppressions.lines[lineno] = set()  # bare form: all rules
    return suppressions

