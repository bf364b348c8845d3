"""Structured diagnostics shared by the plan verifier and the linter.

A :class:`Diagnostic` is one rule violation: the rule id, a severity, the
place it anchors to (a GraphNode path for plan checks, ``file:line`` for
lint findings), the statement of the problem, and a fix hint.  Verifiers
never raise on the first problem — they collect everything into a
:class:`VerificationReport` so a corrupted plan shows all of its defects
at once, the way a compiler reports every type error in a file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

__all__ = [
    "ERROR",
    "WARNING",
    "Diagnostic",
    "VerificationReport",
    "PlanVerificationError",
]

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    """One rule violation found by a verifier or the linter."""

    rule: str                 # e.g. "plan/divisibility", "lint/cache-key"
    message: str              # what is wrong
    where: str = ""           # GraphNode path or file:line
    severity: str = ERROR
    hint: str = ""            # how to fix it
    #: stable identity for baseline matching — no line numbers, so a
    #: finding keeps its key while unrelated edits shift the file.
    key: str = ""

    def __post_init__(self) -> None:
        if self.severity not in (ERROR, WARNING):
            raise ValueError(f"bad severity {self.severity!r}")

    def format(self) -> str:
        loc = f"{self.where}: " if self.where else ""
        hint = f"  (hint: {self.hint})" if self.hint else ""
        return f"{self.severity}[{self.rule}] {loc}{self.message}{hint}"

    def as_dict(self) -> dict:
        """JSON-ready form (the ``--format json`` record shape)."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "where": self.where,
            "message": self.message,
            "hint": self.hint,
            "key": self.key,
        }


class PlanVerificationError(ValueError):
    """A plan failed static verification; carries the full report."""

    def __init__(self, report: "VerificationReport") -> None:
        self.report = report
        super().__init__(report.describe())


@dataclass
class VerificationReport:
    """Every diagnostic one verification pass produced."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: how many rules the pass evaluated (context for "0 diagnostics")
    rules_checked: int = 0

    def add(
        self,
        rule: str,
        message: str,
        where: str = "",
        severity: str = ERROR,
        hint: str = "",
    ) -> None:
        self.diagnostics.append(Diagnostic(rule, message, where, severity, hint))

    def extend(self, other: "VerificationReport") -> None:
        self.diagnostics.extend(other.diagnostics)
        self.rules_checked += other.rules_checked

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def ok(self) -> bool:
        """True when no *error*-severity diagnostic was recorded."""
        return not self.errors

    def has_rule(self, rule: str) -> bool:
        return any(d.rule == rule for d in self.diagnostics)

    def describe(self) -> str:
        if not self.diagnostics:
            return f"verified: {self.rules_checked} rules, no diagnostics"
        lines = [d.format() for d in self.diagnostics]
        lines.append(
            f"{len(self.errors)} error(s), "
            f"{len(self.diagnostics) - len(self.errors)} warning(s)"
        )
        return "\n".join(lines)

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise PlanVerificationError(self)
