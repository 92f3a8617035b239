"""Repo-specific static analysis: crypto/protocol invariant linting.

The protocols in this library are only as private as the code that
moves the bytes. This package turns the reviewer folklore of SMC
implementations -- "never let a decrypted value touch the channel
unencrypted", "every wire tag needs a decoder", "Paillier nonces never
come from a Mersenne Twister" -- into AST-level checkers that run in CI
(``python -m repro lint``). The lint parses every file serially,
checks the whole program, and fails on any finding.

Public API
----------
:func:`run_checks`
    Lint a set of files/directories; returns :class:`Finding` objects.
:data:`ALL_CHECKERS`
    The registered checker instances, one per rule.
:class:`Finding` / :class:`Severity`
    The finding record and its severity scale.

The only exemption is a pragma comment on the flagged line (or the
line above it), which suppresses one rule there::

    risky_call()  # repro: allow[rule-id] -- one-line justification

See ``docs/STATIC_ANALYSIS.md`` for the rule catalogue and the threat
model behind each rule.
"""

from repro.analysis.findings import Finding, Severity
from repro.analysis.framework import (
    Checker,
    ModuleInfo,
    iter_python_files,
    run_checks,
)
from repro.analysis.checkers import ALL_CHECKERS

__all__ = [
    "ALL_CHECKERS",
    "Checker",
    "Finding",
    "ModuleInfo",
    "Severity",
    "iter_python_files",
    "run_checks",
]
