"""Small result containers shared by all validation routines, and the two
helpers with which every frozen dataclass stores its read-only arrays."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def _frozen(m, dtype=complex):
    out = np.array(m, dtype=dtype)
    out.flags.writeable = False
    return out


def _set_frozen(obj, **values):
    """Store fields of a frozen dataclass; called only from its __post_init__."""
    for name, value in values.items():
        object.__setattr__(obj, name, value)


def running_max(worst: float, value: float) -> float:
    """max(worst, value) for residuals, where a NaN or infinite value is
    kept: Python's max(0.0, nan) is 0.0, and a check would pass on it."""
    value = float(value)
    if not math.isfinite(worst):
        return worst
    if not math.isfinite(value):
        return value
    return max(worst, value)


@dataclass
class CheckResult:
    """One named residual check with its tolerance and verdict."""

    check_id: str
    residual: float
    tol: float
    formula: str = ""
    note: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tol)

    def as_dict(self) -> dict:
        return {
            "id": self.check_id,
            "residual": float(self.residual),
            "tol": float(self.tol),
            "passed": self.passed,
            "formula": self.formula,
            "note": self.note,
        }


@dataclass
class ValidationReport:
    """A bag of CheckResults for one validated object."""

    subject: str
    checks: list[CheckResult] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def add(self, check_id: str, residual: float, tol: float, formula: str = "", note: str = "") -> CheckResult:
        result = CheckResult(check_id, float(residual), float(tol), formula, note)
        self.checks.append(result)
        return result

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def max_residual(self) -> float:
        worst = 0.0
        for c in self.checks:
            worst = running_max(worst, c.residual)
        return worst

    def failing(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def residual(self, check_id: str) -> float:
        for c in self.checks:
            if c.check_id == check_id:
                return c.residual
        raise KeyError(check_id)

    def as_dict(self) -> dict:
        return {
            "subject": self.subject,
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
            "notes": self.notes,
        }

    def summary(self) -> str:
        lines = [f"[{'PASS' if self.passed else 'FAIL'}] {self.subject}"]
        for c in self.checks:
            mark = "ok " if c.passed else "BAD"
            lines.append(f"  {mark} {c.check_id}: residual={c.residual:.3e} tol={c.tol:.1e}")
        return "\n".join(lines)
