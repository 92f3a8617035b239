"""Rule ``lock-discipline``: guarded state must stay guarded.

The PR-5 race class, mechanized. The concurrent serving stack keeps
shared mutable state behind ``threading.Lock``/``RLock``/``Condition``
objects; the invariant is *consistency*: an attribute written under
``with self._lock`` anywhere in a class is lock-guarded state, and a
write to it outside the lock -- in code another thread can actually
execute -- is a data race waiting for load.

Inference, per class in scope:

1. **lock attributes** -- ``self._x = threading.Lock()`` (or ``RLock``
   / ``Condition``) marks ``_x`` as a lock; a ``Condition`` wrapping an
   existing lock counts as the same guard.
2. **guarded attributes** -- every ``self._*`` attribute assigned (or
   element-assigned, or ``del``-ed) inside a ``with self.<lock>:``
   block in any method of the class.
3. **violations** -- unguarded writes to a guarded attribute in a
   method *reachable from a thread or executor entry point* (per the
   whole-program call graph: ``Thread(target=...)``, ``Timer``,
   ``executor.submit``/``map``), excluding ``__init__``, which runs
   before the object is shared.

The reachability requirement keeps single-threaded setup code
(``start()`` wiring attributes before any worker exists) out of scope,
matching how the serving runtime is actually written. Findings render
the thread entry chain that reaches the offending method.

Scope: ``repro.serving``, ``repro.telemetry``,
``repro.crypto.stockpile`` (the one stockpile behind both offline
phases, with its background refiller) and ``repro.crypto.triples`` --
the code that shares state across threads today. Widen the tuple as
concurrency spreads.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import Finding, Severity
from repro.analysis.framework import Checker, ModuleInfo, call_name

#: threading factories whose result guards state.
LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition"})

#: Packages whose classes share mutable state across threads.
THREADED_SCOPE = ("repro.serving", "repro.telemetry",
                  "repro.crypto.stockpile", "repro.crypto.triples")


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self._x`` (possibly under subscripts) -> ``"_x"``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _AttrWrite:
    """One write to ``self._*`` and whether a lock was held there."""

    __slots__ = ("attr", "line", "locked", "method")

    def __init__(self, attr: str, line: int, locked: bool,
                 method: str) -> None:
        self.attr = attr
        self.line = line
        self.locked = locked
        self.method = method


def _lock_attrs_of(cls_node: ast.ClassDef) -> Set[str]:
    locks: Set[str] = set()
    for node in ast.walk(cls_node):
        if not isinstance(node, ast.Assign):
            continue
        if not isinstance(node.value, ast.Call):
            continue
        if call_name(node.value) not in LOCK_FACTORIES:
            continue
        for target in node.targets:
            attr = _self_attr(target)
            if attr is not None:
                locks.add(attr)
    return locks


def _holds_lock(item: ast.withitem, locks: Set[str]) -> bool:
    """Is this ``with`` item ``self.<lock>`` (or a call on it)?"""
    expr = item.context_expr
    if isinstance(expr, ast.Call):
        expr = expr.func
        if isinstance(expr, ast.Attribute) and expr.attr in (
            "acquire", "hold",
        ):
            expr = expr.value
    attr = _self_attr(expr)
    return attr is not None and attr in locks


def _walk_writes(
    body: List[ast.stmt], locks: Set[str], method: str, locked: bool,
) -> Iterator[_AttrWrite]:
    """Yield ``self._*`` writes in ``body`` with lock state tracked."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        if isinstance(stmt, ast.With):
            inner = locked or any(
                _holds_lock(item, locks) for item in stmt.items
            )
            yield from _walk_writes(stmt.body, locks, method, inner)
            continue
        targets: List[ast.AST] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        for target in targets:
            flat = (
                target.elts
                if isinstance(target, (ast.Tuple, ast.List))
                else [target]
            )
            for element in flat:
                attr = _self_attr(element)
                if attr is not None and attr.startswith("_"):
                    yield _AttrWrite(
                        attr, getattr(element, "lineno", stmt.lineno),
                        locked, method,
                    )
        for field_name in ("body", "orelse", "finalbody"):
            child = getattr(stmt, field_name, None)
            if isinstance(child, list):
                yield from _walk_writes(child, locks, method, locked)
        for handler in getattr(stmt, "handlers", []) or []:
            yield from _walk_writes(handler.body, locks, method, locked)


class LockDisciplineChecker(Checker):
    rule = "lock-discipline"
    severity = Severity.ERROR
    description = (
        "attributes guarded by 'with self._lock' elsewhere in the class "
        "may not be written without the lock in thread-reachable code"
    )

    def check(self, mod: ModuleInfo) -> Iterable[Finding]:
        if not mod.in_scope(THREADED_SCOPE):
            return
        program = self._program_for(mod)
        reachable = self._reachable(program)
        for cls in program.classes.values():
            if cls.module != mod.module:
                continue
            yield from self._check_class(mod, program, cls, reachable)

    def _program_for(self, mod: ModuleInfo):
        if self.program is not None \
                and mod.module in self.program.modules:
            return self.program
        from repro.analysis.callgraph import Program

        return Program.build([mod])

    def _reachable(self, program) -> Set[str]:
        cache = program._taint_cache
        if "thread-reachable" not in cache:
            cache["thread-reachable"] = program.reachable_from_threads()
        return cache["thread-reachable"]

    def _check_class(
        self, mod: ModuleInfo, program, cls, reachable: Set[str]
    ) -> Iterator[Finding]:
        locks = _lock_attrs_of(cls.node)
        if not locks:
            return
        writes: List[Tuple[str, _AttrWrite]] = []
        guarded: Set[str] = set()
        for name, info in cls.methods.items():
            body = getattr(info.node, "body", [])
            for write in _walk_writes(body, locks, name, locked=False):
                if write.attr in locks:
                    continue
                writes.append((info.qualname, write))
                if write.locked:
                    guarded.add(write.attr)
        lock_name = min(locks)  # deterministic label for the message
        reported: Set[Tuple[int, str]] = set()
        findings: List[Finding] = []
        for qualname, write in writes:
            if write.locked or write.attr not in guarded:
                continue
            if write.method == "__init__":
                continue  # construction precedes sharing
            if qualname not in reachable:
                continue
            key = (write.line, write.attr)
            if key in reported:
                continue
            reported.add(key)
            chain = tuple(program.thread_path_to(qualname))
            rendered = (
                f" [thread entry chain: {' -> '.join(chain)}]"
                if chain else ""
            )
            findings.append(
                Finding(
                    rule=self.rule,
                    severity=self.severity,
                    path=mod.path,
                    module=mod.module,
                    line=write.line,
                    message=(
                        f"write to self.{write.attr} without holding "
                        f"self.{lock_name}: {cls.name} guards this "
                        f"attribute with the lock elsewhere, and "
                        f"{write.method}() runs on a worker thread"
                        f"{rendered}"
                    ),
                    snippet=mod.line_text(write.line),
                    chain=chain,
                )
            )
        findings.sort(key=lambda f: f.line)
        yield from findings
