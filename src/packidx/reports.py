"""Self-describing run reports with canonical serialization.

Reports must be byte-identical for identical semantic configs regardless of
wall-clock, process or hash seed, so the ``timing`` block carries deterministic
work counters only; elapsed seconds go to stderr, never into the payload.
"""

from __future__ import annotations

import csv
import io
import json
import shlex
from dataclasses import dataclass, field
from pathlib import Path

SCHEMA_VERSION = 1


def row(check: str, ok: bool, detail="") -> dict:
    """One summary row; ``detail`` is reported as text."""
    return {"check": check, "status": "pass" if ok else "fail", "detail": str(detail)}


@dataclass
class Report:
    command: str
    config: dict
    results: dict
    summary: list[dict] = field(default_factory=list)
    timing: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(row.get("status") != "fail" for row in self.summary)

    def echo(self) -> str:
        parts = [f"pack {self.command}"]
        for key in sorted(self.config):
            value = self.config[key]
            if value is None or value is False:
                continue
            flag = "--" + key.replace("_", "-")
            parts.append(flag if value is True else f"{flag} {shlex.quote(str(value))}")
        return " ".join(parts)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "echo": self.echo(),
            "config": self.config,
            "results": self.results,
            "summary": self.summary,
            "timing": self.timing,
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check", "status", "detail"])
        for row in self.summary:
            writer.writerow(
                [row.get("check", ""), row.get("status", ""), row.get("detail", "")]
            )
        return buf.getvalue()


def emit(report: Report, fmt: str = "json", out: str | None = None) -> str:
    """Render the report and write it to ``out`` or return it for stdout."""
    text = report.to_csv() if fmt == "csv" else report.to_json()
    if out:
        Path(out).write_text(text)
    return text
