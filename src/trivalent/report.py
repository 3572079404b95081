"""Structured pass/fail reports for the verification checks."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class Finding:
    """One failed check: which law or identity broke, and on what."""

    check: str
    detail: str

    def __str__(self) -> str:
        return f"{self.check}: {self.detail}"


@dataclass(slots=True)
class Report:
    name: str
    checks: int = 0
    failures: list[Finding] = field(default_factory=list)
    notes: dict[str, object] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, check: str, ok: bool, detail: str = "") -> bool:
        self.checks += 1
        if not ok:
            self.failures.append(Finding(check, detail))
        return ok
