"""Shared visitor framework for the invariant checkers.

A checker is a small class with a ``rule`` id and a ``check(module)``
method producing :class:`~repro.analysis.findings.Finding` objects.
This module owns everything checkers share: parsing files once into
:class:`ModuleInfo` records, mapping file paths to dotted module names,
the ``# repro: allow[rule-id]`` suppression pragma, and the
:func:`run_checks` driver the CLI and the test suite call.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import (
    Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

from repro.analysis.findings import Finding, Severity

#: Packages holding cryptographic or protocol code; the scoped rules
#: (RNG hygiene, channel leaks, exception hygiene, ...) apply here.
CRYPTO_SCOPE = ("repro.crypto", "repro.smc", "repro.circuits", "repro.secure")

_PRAGMA = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_\-*,\s]+)\]")


@dataclass
class ModuleInfo:
    """One parsed source module, shared by every checker.

    Attributes
    ----------
    path:
        The file path as given to the linter (used in reports).
    module:
        Dotted module name (``repro.smc.wire``); scoped checkers key off
        this, and tests can inject synthetic names for fixture files.
    source / lines:
        Raw text and its split lines (1-based access via
        :meth:`line_text`).
    tree:
        The parsed ``ast.Module``.
    allows:
        Per-line suppression pragmas: line number -> set of rule ids
        (``*`` suppresses every rule on that line).
    """

    path: str
    module: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    allows: Dict[int, Set[str]] = field(default_factory=dict)

    @classmethod
    def from_source(
        cls, source: str, module: str, path: str = "<memory>"
    ) -> "ModuleInfo":
        """Parse ``source`` into a ready-to-check module record."""
        tree = ast.parse(source, filename=path)
        lines = source.splitlines()
        return cls(
            path=path,
            module=module,
            source=source,
            tree=tree,
            lines=lines,
            allows=_parse_pragmas(lines),
        )

    @classmethod
    def from_path(
        cls, path: Path, module: Optional[str] = None
    ) -> "ModuleInfo":
        """Load and parse a file; the module name is derived from the
        path unless given explicitly."""
        source = path.read_text(encoding="utf-8")
        return cls.from_source(
            source, module or module_name_for(path), path=str(path)
        )

    def line_text(self, line: int) -> str:
        """The stripped text of 1-based ``line`` (empty when out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def is_suppressed(self, rule: str, line: int) -> bool:
        """True when a pragma on ``line`` or the line above allows ``rule``."""
        for candidate in (line, line - 1):
            allowed = self.allows.get(candidate)
            if allowed and (rule in allowed or "*" in allowed):
                return True
        return False

    def in_scope(self, packages: Sequence[str] = CRYPTO_SCOPE) -> bool:
        """True when this module lives inside one of ``packages``."""
        return any(
            self.module == pkg or self.module.startswith(pkg + ".")
            for pkg in packages
        )

    def functions(self) -> Iterator[ast.AST]:
        """Every function/method definition in the module, source order."""
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node


def _parse_pragmas(lines: List[str]) -> Dict[int, Set[str]]:
    allows: Dict[int, Set[str]] = {}
    for number, text in enumerate(lines, start=1):
        if "repro:" not in text:
            continue
        match = _PRAGMA.search(text)
        if match:
            rules = {part.strip() for part in match.group(1).split(",")}
            allows[number] = {rule for rule in rules if rule}
    return allows


#: Files whose presence marks a directory as the repository root, for
#: :func:`repo_relative` path normalization.
_REPO_MARKERS = ("pyproject.toml", "setup.py", ".git")


@lru_cache(maxsize=512)
def _repo_root_for(directory: str) -> Optional[str]:
    """Nearest ancestor of ``directory`` (inclusive) that looks like a
    repository root, or ``None``."""
    current = Path(directory)
    for candidate in (current, *current.parents):
        if any((candidate / marker).exists() for marker in _REPO_MARKERS):
            return str(candidate)
    return None


def repo_relative(path: Path) -> Path:
    """``path`` relative to its repository root when one is found.

    This is what keeps module names -- and therefore rule scopes and
    reported findings -- identical between a local checkout and CI: an
    absolute path like ``/home/ci/build/tests/analysis/x.py`` and a
    relative ``tests/analysis/x.py`` both normalize to the same
    repo-relative form. Paths outside any repository pass through
    unchanged.
    """
    try:
        resolved = path.resolve()
    except OSError:  # pragma: no cover - unresolvable paths pass through
        return path
    root = _repo_root_for(str(resolved.parent))
    if root is not None:
        try:
            return resolved.relative_to(root)
        except ValueError:  # pragma: no cover - symlinked out of root
            return path
    return path


def module_name_for(path: Path) -> str:
    """Dotted module name for ``path``.

    The path is first normalized to be repository-relative (see
    :func:`repo_relative`), then the segments after the last ``src``
    component are used when one is present (``src/repro/smc/wire.py``
    -> ``repro.smc.wire``), so names are stable no matter which
    directory the linter is invoked from *and* which machine it runs
    on.
    """
    normalized = repo_relative(path)
    parts = list(normalized.with_suffix("").parts)
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    while parts and parts[0] in (".", "/", normalized.anchor):
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or path.stem


def iter_python_files(paths: Iterable[str]) -> Iterator[Path]:
    """Expand files/directories into the ``.py`` files to lint."""
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


class Checker:
    """Base class for one lint rule.

    Subclasses set ``rule``, ``severity`` and ``description`` and
    implement :meth:`check`, yielding findings for one parsed module.

    Whole-program checkers additionally read :attr:`program`: the
    driver binds the :class:`~repro.analysis.callgraph.Program` built
    over every linted module before the check phase starts, so a
    checker sees the full call graph even though it is invoked one
    module at a time. Purely local checkers ignore it.
    """

    rule: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""

    #: The whole-program index, bound by the driver (phase one of the
    #: two-phase run). ``None`` means the checker runs standalone on a
    #: single module and should fall back to a solo program if needed.
    program = None

    def bind(self, program) -> None:
        """Attach the whole-program index for this lint run."""
        self.program = program

    def check(self, mod: ModuleInfo) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(
        self, mod: ModuleInfo, node: ast.AST, message: str,
        chain: Sequence[str] = (),
    ) -> Finding:
        """Build a finding anchored at ``node``'s source line."""
        line = getattr(node, "lineno", 1)
        return Finding(
            rule=self.rule,
            severity=self.severity,
            path=mod.path,
            module=mod.module,
            line=line,
            message=message,
            snippet=mod.line_text(line),
            chain=tuple(chain),
        )


def check_module(
    mod: ModuleInfo,
    checkers: Optional[Sequence[Checker]] = None,
    respect_pragmas: bool = True,
    program=None,
) -> List[Finding]:
    """Run ``checkers`` over one module, honouring suppression pragmas.

    When no pre-built ``program`` is supplied (standalone/test use),
    the module is indexed as a program of one so the whole-program
    checkers still run -- with intra-module resolution only.
    """
    from repro.analysis.checkers import ALL_CHECKERS
    from repro.analysis.callgraph import Program

    if program is None:
        program = Program.build([mod])
    results: List[Finding] = []
    for checker in checkers if checkers is not None else ALL_CHECKERS:
        checker.bind(program)
        for finding in checker.check(mod):
            if respect_pragmas and mod.is_suppressed(
                finding.rule, finding.line
            ):
                continue
            results.append(finding)
    return results


def parse_modules(
    paths: Iterable[str],
) -> Tuple[List[ModuleInfo], List[Finding]]:
    """Phase one: parse every python file under ``paths``.

    Returns the parsed modules plus ``parse-error`` findings for
    unparseable files (a syntax error cannot silently shrink the lint
    surface).
    """
    modules: List[ModuleInfo] = []
    errors: List[Finding] = []
    for path in iter_python_files(paths):
        try:
            modules.append(ModuleInfo.from_path(path))
        except (SyntaxError, UnicodeDecodeError, OSError) as error:
            errors.append(Finding(
                rule="parse-error",
                severity=Severity.ERROR,
                path=str(path),
                module=module_name_for(path),
                line=getattr(error, "lineno", None) or 1,
                message=f"cannot parse file: {error}",
            ))
    return modules, errors


def run_checks(
    paths: Iterable[str],
    checkers: Optional[Sequence[Checker]] = None,
    respect_pragmas: bool = True,
) -> List[Finding]:
    """Lint every python file under ``paths``; the library entry point.

    Runs the two phases back to back: parse and build the whole-program
    index, then check each module against it.
    """
    from repro.analysis.callgraph import Program

    modules, results = parse_modules(paths)
    program = Program.build(modules)
    for mod in modules:
        results.extend(
            check_module(mod, checkers, respect_pragmas, program=program)
        )
    results.sort(key=lambda f: (f.path, f.line, f.rule))
    return results


# -- small AST helpers shared by the checkers --------------------------------


def call_name(node: ast.AST) -> str:
    """The rightmost name of a call target (``ctx.channel.send`` -> ``send``)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def dotted_source(node: ast.AST) -> str:
    """Best-effort dotted rendering of a Name/Attribute chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def walk_in_order(node: ast.AST) -> Iterator[ast.AST]:
    """Depth-first traversal yielding nodes in source order."""
    for child in ast.iter_child_nodes(node):
        yield child
        yield from walk_in_order(child)
