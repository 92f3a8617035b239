"""Finding records produced by the invariant linter."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings are invariant violations that can leak private
    data or corrupt a protocol run; ``WARNING`` findings are hygiene
    problems that make such violations easy to introduce. Both fail the
    lint gate unless suppressed by a pragma -- the severity is a
    reading aid, not a bypass.
    """

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes
    ----------
    rule:
        The rule identifier (e.g. ``channel-leak``), usable in a
        ``# repro: allow[rule]`` pragma.
    severity:
        :class:`Severity` of the rule.
    path:
        Path of the offending file as given to the linter.
    module:
        Dotted module name (stable across checkouts; the scoped rules
        key off it).
    line:
        1-based source line of the violation.
    message:
        Human-readable description of what is wrong and why it matters.
    snippet:
        The stripped source line, for display.
    chain:
        For interprocedural findings, the qualified-name call chain
        from the flagged site to the sink (or from a thread entry point
        to the flagged write). Empty for purely local findings.
    """

    rule: str
    severity: Severity
    path: str
    module: str
    line: int
    message: str
    snippet: str = ""
    chain: Tuple[str, ...] = ()

    def render(self) -> str:
        """One-line human-readable form (``path:line: [rule] message``)."""
        return (
            f"{self.path}:{self.line}: {self.severity.value} "
            f"[{self.rule}] {self.message}"
        )

    def to_dict(self) -> dict:
        """JSON-friendly representation (used by ``--format json``)."""
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "module": self.module,
            "line": self.line,
            "message": self.message,
            "snippet": self.snippet,
            "chain": list(self.chain),
        }
