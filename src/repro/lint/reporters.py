"""Finding reporters: human text and machine JSON.

The JSON schema (version 1) is stable for CI consumers::

    {
      "version": 1,
      "findings": [{"rule", "path", "line", "col", "message"}, ...],
      "counts": {"SIM103": 2, ...},
      "files_checked": 42
    }
"""

from __future__ import annotations

import json
import typing

REPORT_VERSION = 1


def render_text(findings: typing.Sequence, files_checked: int) -> str:
    lines = [f"{finding.path}:{finding.line}:{finding.col + 1}: "
             f"{finding.rule} {finding.message}"
             for finding in findings]
    counts = _counts(findings)
    if findings:
        summary = ", ".join(f"{code}×{count}"
                            for code, count in counts.items())
        lines.append(f"{len(findings)} finding(s) in {files_checked} "
                     f"file(s): {summary}")
    else:
        lines.append(f"clean: 0 findings in {files_checked} file(s)")
    return "\n".join(lines)


def render_json(findings: typing.Sequence, files_checked: int) -> str:
    payload = {
        "version": REPORT_VERSION,
        "findings": [finding.to_dict() for finding in findings],
        "counts": _counts(findings),
        "files_checked": files_checked,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _counts(findings: typing.Sequence) -> dict[str, int]:
    counts: dict[str, int] = {}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return dict(sorted(counts.items()))
