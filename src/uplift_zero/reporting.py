"""Shared pass/fail reporting for verification routines.

Every verifier in the package returns a VerificationReport: a list of named
condition checks, each carrying the compared values and, on failure, a
witness point.  Informational checks (required=False) never affect the
overall verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class ConditionCheck:
    condition: str
    passed: bool
    lhs: Optional[float] = None
    rhs: Optional[float] = None
    witness: Optional[dict] = None
    note: str = ""
    required: bool = True

    def to_json(self) -> dict:
        out = {"condition": self.condition, "pass": self.passed}
        if self.lhs is not None:
            out["lhs"] = self.lhs
        if self.rhs is not None:
            out["rhs"] = self.rhs
        if self.witness is not None:
            out["witness"] = self.witness
        if self.note:
            out["note"] = self.note
        if not self.required:
            out["informational"] = True
        return out


@dataclass
class VerificationReport:
    checks: list[ConditionCheck] = field(default_factory=list)

    def add(self, check: ConditionCheck) -> None:
        self.checks.append(check)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.required)

    def failures(self) -> list[ConditionCheck]:
        return [c for c in self.checks if c.required and not c.passed]

    def check_named(self, condition: str) -> ConditionCheck:
        for c in self.checks:
            if c.condition == condition:
                return c
        raise KeyError(condition)

    def to_json(self) -> list[dict]:
        return [c.to_json() for c in self.checks]
