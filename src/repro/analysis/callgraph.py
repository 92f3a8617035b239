"""Project-wide call graph for the whole-program analysis phase.

:class:`Program` indexes every function and class of a parsed module
set, resolves call sites to their likely targets, and derives the two
facts the interprocedural checkers consume:

* **call edges** (and their reverse) between qualified function names,
  which `lock-discipline` walks to find code reachable from thread and
  executor entry points, and whose reverse the taint fixpoint follows
  to re-analyse callers;
* **thread roots** -- functions handed to ``threading.Thread(target=...)``
  or an executor's ``submit``/``map``: the places where a second thread
  of control enters the program.

Resolution is deliberately name-based and conservative. Python has no
static types to lean on, so a call ``obj.refill()`` resolves to *every*
project function named ``refill`` (capped -- a name with more than
:data:`MAX_CANDIDATES` homonyms resolves to nothing and the taint layer
falls back to its generic worst-case call handling). Three cases are
precise: bare names defined or imported in the same module,
``self.method(...)`` inside a class, and fully-dotted paths that start
at an imported module. A name that denotes a class resolves to that
class's own ``__init__``: ``Cls(...)`` and ``mod.Cls(...)`` run it.
The over-approximation errs toward *more* reachability, which is the
safe direction for a checker that asks "can a thread get here".
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.framework import ModuleInfo, call_name, dotted_source

#: A bare method/function name carried by more than this many distinct
#: project functions resolves to nothing (the generic call fallback)
#: rather than fanning an edge out to every homonym.
MAX_CANDIDATES = 8

#: Callables that put a function on another thread of control.
_THREAD_SPAWNERS = frozenset({"Thread", "Timer"})
_EXECUTOR_METHODS = frozenset({"submit", "map"})


@dataclass
class FunctionInfo:
    """One function or method definition in the program."""

    qualname: str            #: ``module.Class.name`` / ``module.name``
    module: str
    name: str
    cls: Optional[str]       #: owning class qualname, if a method
    node: ast.AST
    path: str
    line: int
    params: List[str] = field(default_factory=list)
    kwonly: List[str] = field(default_factory=list)

    @property
    def is_method(self) -> bool:
        return self.cls is not None and bool(self.params) \
            and self.params[0] in ("self", "cls")

    def param_index(self, call: ast.Call, arg_position: int) -> Optional[int]:
        """Map a call-site positional index onto this function's params.

        Accounts for the implicit ``self`` of bound-method calls
        (``obj.m(a)`` binds ``a`` to param 1) and of constructor calls
        (``Cls(a)`` binds ``a`` to ``__init__``'s param 1). Returns
        ``None`` when the position falls outside the declared
        parameters (``*args``).
        """
        offset = 1 if self.is_method and (
            isinstance(call.func, ast.Attribute) or self.name == "__init__"
        ) else 0
        index = arg_position + offset
        return index if index < len(self.params) else None

    def param_index_for_keyword(self, keyword: str) -> Optional[int]:
        if keyword in self.params:
            return self.params.index(keyword)
        if keyword in self.kwonly:
            return len(self.params) + self.kwonly.index(keyword)
        return None


@dataclass
class ClassInfo:
    """One class definition and its directly-defined methods."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


def _function_params(node: ast.AST) -> Tuple[List[str], List[str]]:
    args = node.args
    positional = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    kwonly = [a.arg for a in args.kwonlyargs]
    return positional, kwonly


def _module_imports(tree: ast.Module) -> Dict[str, str]:
    """Alias -> dotted target for the module's top-level imports."""
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports[alias.asname or alias.name.split(".")[0]] = (
                    alias.name
                )
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return imports


class Program:
    """The whole-program index: functions, classes, calls, reachability.

    Build one with :meth:`Program.build` over every parsed module, then
    ask it questions; it is immutable after construction and cached by
    the framework for the duration of one lint run.
    """

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.by_name: Dict[str, List[str]] = {}
        self.imports: Dict[str, Dict[str, str]] = {}
        self.edges: Dict[str, Set[str]] = {}
        self.redges: Dict[str, Set[str]] = {}
        self.thread_roots: Set[str] = set()
        self._taint_cache: dict = {}

    # -- construction ----------------------------------------------------

    @classmethod
    def build(cls, modules: Iterable[ModuleInfo]) -> "Program":
        program = cls()
        for mod in modules:
            program._index_module(mod)
        program._link()
        return program

    def _index_module(self, mod: ModuleInfo) -> None:
        self.modules[mod.module] = mod
        self.imports[mod.module] = _module_imports(mod.tree)
        self._index_body(mod, mod.tree.body, prefix=mod.module, cls=None)

    def _index_body(
        self,
        mod: ModuleInfo,
        body: Sequence[ast.stmt],
        prefix: str,
        cls: Optional[str],
    ) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{node.name}"
                params, kwonly = _function_params(node)
                info = FunctionInfo(
                    qualname=qualname,
                    module=mod.module,
                    name=node.name,
                    cls=cls,
                    node=node,
                    path=mod.path,
                    line=node.lineno,
                    params=params,
                    kwonly=kwonly,
                )
                self.functions[qualname] = info
                self.by_name.setdefault(node.name, []).append(qualname)
                if cls is not None and cls in self.classes:
                    self.classes[cls].methods[node.name] = info
                # Nested defs index under their parent's qualname.
                self._index_body(mod, node.body, prefix=qualname, cls=cls)
            elif isinstance(node, ast.ClassDef):
                qualname = f"{prefix}.{node.name}"
                self.classes[qualname] = ClassInfo(
                    qualname=qualname,
                    module=mod.module,
                    name=node.name,
                    node=node,
                )
                self._index_body(mod, node.body, prefix=qualname,
                                 cls=qualname)
            elif isinstance(node, (ast.If, ast.Try, ast.With)):
                # Conditionally-defined functions still belong to the
                # program (TYPE_CHECKING guards, capability probes).
                self._index_guarded(mod, node, prefix, cls)

    def _index_guarded(
        self, mod: ModuleInfo, node: ast.stmt, prefix: str,
        cls: Optional[str]
    ) -> None:
        for field_name in ("body", "orelse", "finalbody"):
            self._index_body(
                mod, getattr(node, field_name, []) or [], prefix, cls
            )
        for handler in getattr(node, "handlers", []) or []:
            self._index_body(mod, handler.body, prefix, cls)

    def _link(self) -> None:
        for info in self.functions.values():
            callees: Set[str] = set()
            for call in self._calls_in(info):
                for target in self.resolve_call(call, info):
                    callees.add(target)
                self._note_thread_root(call, info)
            self.edges[info.qualname] = callees
            for callee in callees:
                self.redges.setdefault(callee, set()).add(info.qualname)

    def _calls_in(self, info: FunctionInfo) -> Iterable[ast.Call]:
        """Call nodes in ``info``'s body, excluding nested defs (they
        are indexed as their own functions)."""
        stack = list(ast.iter_child_nodes(info.node))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(node, ast.Call):
                yield node
            stack.extend(ast.iter_child_nodes(node))

    # -- resolution ------------------------------------------------------

    def resolve_call(
        self, call: ast.Call, caller: FunctionInfo
    ) -> List[str]:
        """Qualified names ``call`` may invoke, best-effort (see module
        docstring for the resolution rules). Empty means unknown."""
        return self.resolve_reference(call.func, caller)

    def resolve_reference(
        self, node: ast.AST, caller: FunctionInfo
    ) -> List[str]:
        """Resolve a function-valued expression (a call target or a
        ``target=self._worker`` style reference) to qualnames."""
        imports = self.imports.get(caller.module, {})
        if isinstance(node, ast.Name):
            for candidate in (f"{caller.module}.{node.id}",
                              imports.get(node.id)):
                target = self._callable(candidate)
                if target:
                    return [target]
            return []
        if isinstance(node, ast.Attribute):
            # self.method() -> the enclosing class's method.
            if isinstance(node.value, ast.Name) \
                    and node.value.id in ("self", "cls") \
                    and caller.cls is not None:
                cls = self.classes.get(caller.cls)
                if cls is not None and node.attr in cls.methods:
                    return [cls.methods[node.attr].qualname]
            # Fully-dotted path rooted at an imported module/function.
            dotted = dotted_source(node)
            if dotted:
                head, _, rest = dotted.partition(".")
                expanded = imports.get(head)
                for candidate in (
                    dotted,
                    f"{expanded}.{rest}" if expanded and rest else None,
                    expanded if expanded and not rest else None,
                ):
                    target = self._callable(candidate)
                    if target:
                        return [target]
            # Bare-name fallback: every project function with this name.
            candidates = self.by_name.get(node.attr, [])
            if 0 < len(candidates) <= MAX_CANDIDATES:
                return list(candidates)
        return []

    def _callable(self, dotted: Optional[str]) -> Optional[str]:
        """The function a dotted name calls: itself, or for a class its
        own ``__init__`` (constructing ``Cls(...)`` runs that body)."""
        if dotted in self.functions:
            return dotted
        cls = self.classes.get(dotted)
        init = cls.methods.get("__init__") if cls is not None else None
        return init.qualname if init is not None else None

    def _note_thread_root(
        self, call: ast.Call, caller: FunctionInfo
    ) -> None:
        """Record functions this call hands to another thread."""
        name = call_name(call)
        refs: List[ast.AST] = []
        if name in _THREAD_SPAWNERS:
            refs.extend(
                kw.value for kw in call.keywords if kw.arg == "target"
            )
        elif name in _EXECUTOR_METHODS and isinstance(
            call.func, ast.Attribute
        ) and call.args:
            refs.append(call.args[0])
        for ref in refs:
            for target in self.resolve_reference(ref, caller):
                self.thread_roots.add(target)

    # -- queries ---------------------------------------------------------

    def reachable_from_threads(self) -> Set[str]:
        """Functions reachable from any thread/executor entry point."""
        return self.reachable_from(self.thread_roots)

    def reachable_from(self, roots: Iterable[str]) -> Set[str]:
        seen: Set[str] = set()
        stack = [root for root in roots if root in self.functions]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.edges.get(current, ()))
        return seen

    def thread_path_to(self, qualname: str) -> List[str]:
        """A shortest entry-point -> ... -> ``qualname`` chain, for
        rendering lock-discipline findings (empty when unreachable)."""
        from collections import deque

        parents: Dict[str, Optional[str]] = {}
        queue = deque()
        for root in sorted(self.thread_roots):
            if root in self.functions and root not in parents:
                parents[root] = None
                queue.append(root)
        while queue:
            current = queue.popleft()
            if current == qualname:
                chain = [current]
                while parents[chain[-1]] is not None:
                    chain.append(parents[chain[-1]])
                return list(reversed(chain))
            for callee in sorted(self.edges.get(current, ())):
                if callee not in parents:
                    parents[callee] = current
                    queue.append(callee)
        return []
