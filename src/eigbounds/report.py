"""Deterministic machine-readable run reports.

One record per line, key=value pairs; every value is finite or an explicit
sentinel string, and bound magnitudes always carry their log10 so values far
below float underflow stay first-class.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

from .types import LogScalar

__all__ = ["RunReport"]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, LogScalar):
        if value.log10 < math.inf:
            return value.format(digits=6)
        # rendered as the float it overflows to
        value = value.sign * math.inf
    if value is None:
        return "invalid"
    if isinstance(value, float):
        if math.isnan(value):
            return "undefined"
        if math.isinf(value):
            return "overflow" if value > 0 else "-overflow"
        return repr(value)
    return str(value)


@dataclass
class RunReport:
    """Command echo, per-index records, summary counts, pass/fail verdict."""

    command: str
    records: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def add(self, **fields) -> dict:
        self.records.append(fields)
        return fields

    def check(self, label: str, ok: bool, margin: str = "") -> bool:
        """Record a verification verdict; failures drive the exit status."""
        detail = f" {margin}" if margin else ""
        self.add(check=label, verdict="PASS" if ok else "FAIL", detail=detail.strip())
        if not ok:
            self.failures.append(label)
        return ok

    @property
    def sound(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [f"command={self.command}"]
        for rec in self.records:
            lines.append(" ".join(f"{k}={_fmt(v)}" for k, v in rec.items()))
        for key in sorted(self.summary):
            lines.append(f"summary {key}={_fmt(self.summary[key])}")
        lines.append(f"status={'sound' if self.sound else 'violations:' + ','.join(self.failures)}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str) -> None:
        keys: list[str] = []
        for rec in self.records:
            for k in rec:
                if k not in keys:
                    keys.append(k)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=keys, restval="")
            writer.writeheader()
            for rec in self.records:
                writer.writerow({k: _fmt(v) for k, v in rec.items()})
