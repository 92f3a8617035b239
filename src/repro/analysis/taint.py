"""Summary-based interprocedural taint analysis over the call graph.

This is the engine behind the ``channel-leak`` and ``branch-on-secret``
rules. It generalizes the original intra-function taint walk in two
directions:

* **labels instead of booleans** -- a value's taint is a set: the
  :data:`SECRET` label (derived from a ``*decrypt*`` call or
  private-key material) and/or parameter indices (derived from the
  enclosing function's *i*-th argument). Parameter labels are what make
  function summaries composable;
* **per-function summaries, computed to a fixpoint** -- for every
  project function the engine derives

  - ``return_labels`` / ``returns_elements``: which inputs (or SECRET)
    flow to the return value, element-wise when the function returns a
    literal tuple;
  - ``sends_param``: parameters that reach a channel send / transport
    write without passing through an ``*encrypt*`` / ``*encode*`` call,
    with the hop chain recorded for rendering;
  - ``sanitizer``: name-based (``encrypt``/``encode`` in the name), the
    same convention the intra-function rule always used.

  Summaries start empty (no flow) and only grow, so the worklist
  iteration -- re-analysing a function whenever one of its callees'
  summaries changed -- terminates at the least fixpoint.

A call that resolves (see :mod:`repro.analysis.callgraph`) is modelled
by its targets' summaries, and a constructor call's result also carries
its arguments' labels; a call that does not resolve falls back to the
original conservative rule: any tainted argument taints the result.
With resolution disabled entirely (``interprocedural=False``) the engine
reproduces the historical intra-function ``channel-leak`` behaviour,
which the regression corpus in ``tests/analysis`` pins against the new
mode.

Control dependence is deliberately *not* a value flow: the taint of
``a if bit else b`` is the taint of ``a`` and ``b``, never of ``bit``.
Branching on a secret is a different bug class with its own advisory
rule (``branch-on-secret``), fed by the :class:`BranchEvent` stream this
engine emits alongside the leak events.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.framework import call_name
from repro.analysis.callgraph import FunctionInfo, Program

#: Label for "derived from decrypt output / private-key material".
SECRET = -1

SOURCE_ATTRS = frozenset({"private_key", "secret_key"})
SINK_NAMES = frozenset(
    {"send", "client_sends", "server_sends", "send_frame", "sendall",
     "exchange"}
)
MUTATORS = frozenset({"append", "extend", "insert", "add", "update"})

Labels = Set[int]


def is_source_name(name: str) -> bool:
    return "decrypt" in name


def is_sanitizer_name(name: str) -> bool:
    return "encrypt" in name or "encode" in name


@dataclass
class LeakEvent:
    """SECRET reached a send -- directly or through callee summaries."""

    func: FunctionInfo
    line: int
    sink: str                     #: sink call name at this site
    chain: Tuple[str, ...]        #: qualnames, this function downward
    detail: str                   #: human chain rendering with lines


@dataclass
class BranchEvent:
    """Control flow conditioned on a SECRET-labelled value."""

    func: FunctionInfo
    line: int
    kind: str                     #: ``if`` / ``while`` / ``ternary`` ...


@dataclass
class Summary:
    """What one function does with taint, seen from its call sites."""

    sanitizer: bool = False
    return_labels: Labels = field(default_factory=set)
    returns_elements: Optional[List[Labels]] = None
    sends_param: Dict[int, Tuple[Tuple[str, ...], str]] = field(
        default_factory=dict
    )
    #: chain + detail for a SECRET return (which decrypt it came from).
    source_detail: str = ""

    def key(self) -> tuple:
        """Monotone-comparison key used to detect fixpoint convergence."""
        elements = (
            None if self.returns_elements is None
            else tuple(frozenset(e) for e in self.returns_elements)
        )
        return (
            frozenset(self.return_labels),
            elements,
            frozenset(self.sends_param),
        )


class ProgramTaint:
    """Engine instance: summaries plus per-module event extraction."""

    #: Hard cap on re-analyses of one function; real call chains
    #: converge in a handful of rounds, this bounds pathological SCCs.
    MAX_VISITS = 12

    def __init__(self, program: Program, interprocedural: bool = True):
        self.program = program
        self.interprocedural = interprocedural
        self.summaries: Dict[str, Summary] = {}
        for qualname, info in program.functions.items():
            self.summaries[qualname] = Summary(
                sanitizer=is_sanitizer_name(info.name)
            )
        self._computed = False

    def compute(self) -> "ProgramTaint":
        """Run the summary fixpoint (idempotent)."""
        if self._computed:
            return self
        from collections import deque

        visits: Dict[str, int] = {}
        worklist = deque(sorted(self.program.functions))
        queued = set(worklist)
        while worklist:
            qualname = worklist.popleft()
            queued.discard(qualname)
            if visits.get(qualname, 0) >= self.MAX_VISITS:
                continue
            visits[qualname] = visits.get(qualname, 0) + 1
            info = self.program.functions[qualname]
            before = self.summaries[qualname].key()
            walk = _FunctionTaint(self, info, collect_events=False)
            summary = walk.run()
            summary.sanitizer = self.summaries[qualname].sanitizer
            if summary.key() != before:
                self.summaries[qualname] = summary
                for caller in self.program.redges.get(qualname, ()):
                    if caller not in queued:
                        worklist.append(caller)
                        queued.add(caller)
        self._computed = True
        return self

    def events_for(
        self, module: str
    ) -> Tuple[List[LeakEvent], List[BranchEvent]]:
        """Leak and branch events for one module's functions (final
        pass with converged summaries)."""
        self.compute()
        leaks: List[LeakEvent] = []
        branches: List[BranchEvent] = []
        for info in self.program.functions.values():
            if info.module != module:
                continue
            walk = _FunctionTaint(self, info, collect_events=True)
            walk.run()
            leaks.extend(walk.leaks)
            branches.extend(walk.branches)
        leaks.sort(key=lambda e: e.line)
        branches.sort(key=lambda e: e.line)
        return leaks, branches


def engine_for(
    program: Program, interprocedural: bool = True
) -> ProgramTaint:
    """The (cached) taint engine for ``program``.

    Both taint-backed rules share one engine per program, so summaries
    are computed once per lint run no matter how many modules report.
    """
    key = ("taint", interprocedural)
    engine = program._taint_cache.get(key)
    if engine is None:
        engine = ProgramTaint(program, interprocedural).compute()
        program._taint_cache[key] = engine
    return engine


class _FunctionTaint:
    """Flow-sensitive label propagation over one function body."""

    def __init__(
        self, engine: ProgramTaint, info: FunctionInfo,
        collect_events: bool
    ) -> None:
        self.engine = engine
        self.info = info
        self.collect_events = collect_events
        self.labels: Dict[str, Labels] = {}
        for index, name in enumerate(info.params):
            if name in ("self", "cls"):
                continue
            self.labels[name] = {index}
        base = len(info.params)
        for offset, name in enumerate(info.kwonly):
            self.labels[name] = {base + offset}
        self.summary = Summary()
        self.leaks: List[LeakEvent] = []
        self.branches: List[BranchEvent] = []
        self._reported: Set[Tuple[int, str]] = set()
        self._return_stmts = 0
        #: line of the first local SECRET source, for chain details.
        self._source_line: Optional[int] = None

    # -- entry -----------------------------------------------------------

    def run(self) -> Summary:
        body = getattr(self.info.node, "body", [])
        # Two passes so loop-carried taint converges, exactly like the
        # original intra-function analysis.
        for _ in range(2):
            self.process_body(body)
        return self.summary

    # -- expression labels -----------------------------------------------

    def expr_labels(self, node: ast.AST) -> Labels:
        if isinstance(node, ast.Call):
            return self.call_labels(node)
        if isinstance(node, ast.Attribute):
            if node.attr in SOURCE_ATTRS:
                self._note_source(node.lineno)
                return {SECRET}
            return self.expr_labels(node.value)
        if isinstance(node, ast.Name):
            return set(self.labels.get(node.id, ()))
        if isinstance(node, ast.IfExp):
            # Control dependence is not a value flow: the chosen arm's
            # labels propagate, the condition's do not (the condition is
            # branch-on-secret territory).
            self.check_branch(node.test, "ternary")
            return self.expr_labels(node.body) | self.expr_labels(node.orelse)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            return self._comprehension_labels(node)
        if isinstance(node, (ast.Lambda, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            return set()
        result: Labels = set()
        for child in ast.iter_child_nodes(node):
            result |= self.expr_labels(child)
        return result

    def _comprehension_labels(self, node: ast.AST) -> Labels:
        """A comprehension's labels are its *element expression's*
        labels with the loop targets bound to the iterables' labels --
        not the union of every child, so ``[encrypt(b) for b in bits]``
        stays clean no matter how secret ``bits`` is."""
        saved: Dict[str, Optional[Labels]] = {}
        for gen in node.generators:
            iter_labels = self.expr_labels(gen.iter)
            for name_node in ast.walk(gen.target):
                if isinstance(name_node, ast.Name):
                    name = name_node.id
                    if name not in saved:
                        saved[name] = self.labels.get(name)
                    if iter_labels:
                        self.labels[name] = set(iter_labels)
                    else:
                        self.labels.pop(name, None)
            for cond in gen.ifs:
                self.check_branch(cond, "comprehension filter")
                self.expr_labels(cond)
        if isinstance(node, ast.DictComp):
            result = self.expr_labels(node.key) | self.expr_labels(node.value)
        else:
            result = self.expr_labels(node.elt)
        for name, old in saved.items():
            if old is None:
                self.labels.pop(name, None)
            else:
                self.labels[name] = old
        return result

    def call_labels(self, call: ast.Call) -> Labels:
        name = call_name(call)
        arg_nodes = list(call.args) + [kw.value for kw in call.keywords]
        arg_labels = [self.expr_labels(arg) for arg in arg_nodes]
        # A method called on a tainted receiver returns tainted data
        # (``private_key.is_zero(c)`` reveals key-derived information
        # even though no argument is secret).
        recv_labels: Labels = (
            self.expr_labels(call.func.value)
            if isinstance(call.func, ast.Attribute) else set()
        )

        self._track_mutation(call, arg_labels)
        if name in SINK_NAMES:
            self._check_direct_sink(call, name, arg_nodes, arg_labels)
            return set().union(recv_labels, *arg_labels)
        if is_sanitizer_name(name):
            return set()
        if is_source_name(name):
            self._note_source(call.lineno)
            return {SECRET}

        targets = (
            self.engine.program.resolve_call(call, self.info)
            if self.engine.interprocedural else []
        )
        summaries = [
            self.engine.summaries[t] for t in targets
            if t in self.engine.summaries
        ]
        if not summaries:
            # Unknown callee: the historical conservative rule.
            return set().union(recv_labels, *arg_labels)

        result: Labels = set(recv_labels)
        for target, summary in zip(targets, summaries):
            if summary.sanitizer:
                continue
            result |= self._apply_summary(call, target, summary)
            if self.engine.program.functions[target].name == "__init__":
                # A constructed object holds what it was built from.
                result.update(*arg_labels)
        return result

    def _apply_summary(
        self, call: ast.Call, target: str, summary: Summary
    ) -> Labels:
        """Model one resolved callee: map arguments through its summary
        (return flow + send-reaching parameters)."""
        info = self.engine.program.functions[target]
        # Labels of the expression bound to each callee parameter.
        bound: Dict[int, Tuple[Labels, ast.AST]] = {}
        for position, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                continue
            index = info.param_index(call, position)
            if index is not None:
                bound[index] = (self.expr_labels(arg), arg)
        for keyword in call.keywords:
            if keyword.arg is None:
                continue
            index = info.param_index_for_keyword(keyword.arg)
            if index is not None:
                bound[index] = (self.expr_labels(keyword.value),
                                keyword.value)

        result: Labels = set()
        for label in summary.return_labels:
            if label == SECRET:
                result.add(SECRET)
                self._note_source(call.lineno)
            elif label in bound:
                result |= bound[label][0]

        for index, (chain, detail) in summary.sends_param.items():
            if index not in bound:
                continue
            labels, _node = bound[index]
            if SECRET in labels:
                self._report_leak(
                    call.lineno,
                    sink=info.name,
                    chain=(self.info.qualname,) + chain,
                    detail=(
                        f"{self.info.qualname}:{call.lineno} passes it to "
                        f"{detail}"
                    ),
                )
            for label in labels - {SECRET}:
                self.summary.sends_param.setdefault(
                    label,
                    (
                        (self.info.qualname,) + chain,
                        f"{self.info.qualname}:{call.lineno} passes it to "
                        f"{detail}",
                    ),
                )
        return result

    def _track_mutation(
        self, call: ast.Call, arg_labels: Sequence[Labels]
    ) -> None:
        """``lst.append(tainted)`` and friends taint ``lst``."""
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATORS
            and isinstance(func.value, ast.Name)
            and arg_labels
        ):
            incoming = set().union(*arg_labels)
            if incoming:
                self.labels.setdefault(func.value.id, set()).update(incoming)

    def _check_direct_sink(
        self,
        call: ast.Call,
        name: str,
        arg_nodes: Sequence[ast.AST],
        arg_labels: Sequence[Labels],
    ) -> None:
        for labels in arg_labels:
            if SECRET in labels:
                self._report_leak(
                    call.lineno,
                    sink=name,
                    chain=(self.info.qualname,),
                    detail=f"{name}() at {self.info.qualname}:{call.lineno}",
                )
                break
        for labels in arg_labels:
            for label in labels - {SECRET}:
                self.summary.sends_param.setdefault(
                    label,
                    (
                        (self.info.qualname,),
                        f"{name}() at {self.info.qualname}:{call.lineno}",
                    ),
                )

    # -- events ----------------------------------------------------------

    def _note_source(self, line: int) -> None:
        if self._source_line is None:
            self._source_line = line

    def _report_leak(
        self, line: int, sink: str, chain: Tuple[str, ...], detail: str
    ) -> None:
        key = (line, "leak")
        if key in self._reported:
            return
        self._reported.add(key)
        if self.collect_events:
            self.leaks.append(
                LeakEvent(
                    func=self.info, line=line, sink=sink, chain=chain,
                    detail=detail,
                )
            )

    def check_branch(self, test: ast.AST, kind: str) -> None:
        labels = self.expr_labels(test)
        if SECRET not in labels:
            return
        line = getattr(test, "lineno", self.info.line)
        key = (line, "branch")
        if key in self._reported:
            return
        self._reported.add(key)
        if self.collect_events:
            self.branches.append(
                BranchEvent(func=self.info, line=line, kind=kind)
            )

    # -- statement walk --------------------------------------------------

    def process_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.process_stmt(stmt)

    def process_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested defs are analysed as their own functions
        if isinstance(stmt, ast.Assign):
            labels = self.expr_labels(stmt.value)
            elements = self._element_labels(stmt.value)
            for target in stmt.targets:
                self.assign_target(target, labels, elements)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.assign_target(
                    stmt.target, self.expr_labels(stmt.value), None
                )
            return
        if isinstance(stmt, ast.AugAssign):
            labels = self.expr_labels(stmt.value)
            if labels:
                self.assign_target(stmt.target, labels, None, augment=True)
            else:
                self.expr_labels(stmt.target)
            return
        if isinstance(stmt, ast.Expr):
            self.expr_labels(stmt.value)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._record_return(stmt.value)
            return
        if isinstance(stmt, ast.For):
            labels = self.expr_labels(stmt.iter)
            self.assign_target(stmt.target, labels, None)
            self.process_body(stmt.body)
            self.process_body(stmt.orelse)
            return
        if isinstance(stmt, ast.While):
            self.check_branch(stmt.test, "while")
            self.expr_labels(stmt.test)
            self.process_body(stmt.body)
            self.process_body(stmt.orelse)
            return
        if isinstance(stmt, ast.If):
            self.check_branch(stmt.test, "if")
            self.expr_labels(stmt.test)
            self.process_body(stmt.body)
            self.process_body(stmt.orelse)
            return
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                labels = self.expr_labels(item.context_expr)
                if item.optional_vars is not None:
                    self.assign_target(item.optional_vars, labels, None)
            self.process_body(stmt.body)
            return
        if isinstance(stmt, ast.Try):
            self.process_body(stmt.body)
            for handler in stmt.handlers:
                self.process_body(handler.body)
            self.process_body(stmt.orelse)
            self.process_body(stmt.finalbody)
            return
        if isinstance(stmt, ast.Assert):
            self.check_branch(stmt.test, "assert")
        # Raise/Assert/Pass/Delete/Global/...: scan for calls/sinks.
        for child in ast.iter_child_nodes(stmt):
            self.expr_labels(child)

    def _element_labels(
        self, value: ast.AST
    ) -> Optional[List[Labels]]:
        """Per-element labels when ``value`` is a literal tuple/list or
        a call to a function summarized element-wise."""
        if isinstance(value, (ast.Tuple, ast.List)):
            return [self.expr_labels(element) for element in value.elts]
        if isinstance(value, ast.Call) and self.engine.interprocedural:
            targets = self.engine.program.resolve_call(value, self.info)
            if len(targets) == 1:
                summary = self.engine.summaries.get(targets[0])
                if summary is not None \
                        and summary.returns_elements is not None:
                    info = self.engine.program.functions[targets[0]]
                    mapped: List[Labels] = []
                    for element in summary.returns_elements:
                        labels: Labels = set()
                        for label in element:
                            if label == SECRET:
                                labels.add(SECRET)
                            else:
                                mapped_labels = self._bound_arg_labels(
                                    value, info, label
                                )
                                labels |= mapped_labels
                        mapped.append(labels)
                    return mapped
        return None

    def _bound_arg_labels(
        self, call: ast.Call, info: FunctionInfo, param: int
    ) -> Labels:
        for position, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                continue
            if info.param_index(call, position) == param:
                return self.expr_labels(arg)
        for keyword in call.keywords:
            if keyword.arg is not None \
                    and info.param_index_for_keyword(keyword.arg) == param:
                return self.expr_labels(keyword.value)
        return set()

    def assign_target(
        self,
        target: ast.AST,
        labels: Labels,
        elements: Optional[List[Labels]],
        augment: bool = False,
    ) -> None:
        if isinstance(target, ast.Name):
            if augment:
                self.labels.setdefault(target.id, set()).update(labels)
            elif labels:
                self.labels[target.id] = set(labels)
            else:
                self.labels.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            if elements is not None and len(elements) == len(target.elts) \
                    and not any(
                        isinstance(e, ast.Starred) for e in target.elts
                    ):
                for element, element_labels in zip(target.elts, elements):
                    self.assign_target(element, element_labels, None)
            else:
                for element in target.elts:
                    self.assign_target(element, labels, None)
        elif isinstance(target, ast.Starred):
            self.assign_target(target.value, labels, None)
        elif isinstance(target, (ast.Subscript, ast.Attribute)) and labels:
            # Writing a tainted value into a container/field taints the
            # whole container name (weak update).
            base = target.value
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                base = base.value
            if isinstance(base, ast.Name):
                self.labels.setdefault(base.id, set()).update(labels)

    def _record_return(self, value: ast.AST) -> None:
        labels = self.expr_labels(value)
        self.summary.return_labels |= labels
        self._return_stmts += 1
        if isinstance(value, ast.Tuple):
            elements = [self.expr_labels(element) for element in value.elts]
            current = self.summary.returns_elements
            if current is None and self._return_stmts == 1:
                self.summary.returns_elements = elements
            elif current is not None and len(current) == len(elements):
                for mine, theirs in zip(current, elements):
                    mine |= theirs
            else:
                self.summary.returns_elements = None
        else:
            self.summary.returns_elements = None
