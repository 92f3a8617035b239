"""No ``src/`` code is reachable only from tests.

The whole-program call graph (:class:`repro.analysis.callgraph.Program`)
is built over ``src``, ``benchmarks`` and ``examples`` and rooted at
what the project runs: the CLI entry point, every bench and example,
the module-level code of every module (which registers the checkers
and evaluates decorators) and the public surface ``repro.api.__all__``
(every public method of an exported class, every name an exported
module lists). Call edges alone miss functions passed as values, so the
graph's edges are widened with every function a reachable body
*references*; a referenced class brings in its dunder methods, and an
attribute name with any number of homonyms reaches all of them.

The ``src/`` defs left unreachable must be exactly :data:`KEPT`: the
helpers the test suite uses to check other code. Anything else that
only tests reach is dead weight; delete it, or, if it is a test helper,
add it here with its reason.
"""

import ast
import inspect
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set

import repro.api
from repro.analysis.callgraph import Program
from repro.analysis.framework import dotted_source, parse_modules

REPO = Path(__file__).resolve().parents[2]

#: Unreachable by design: qualified name -> why the suite needs it.
KEPT = {
    "repro.smc.argmax.secure_argmax_plain_reference":
        "the plaintext reference secure_argmax is tested against",
    "repro.smc.protocol.ExecutionTrace.op_count":
        "reads one op count off a trace in trace-vs-live assertions",
    "repro.smc.wire.kind_registry":
        "the wire round-trip property tests enumerate every frame kind",
    "repro.circuits.builder.assign_value":
        "builds circuit input assignments for the circuit tests",
    "repro.circuits.arithmetic.subtract":
        "builds the test circuits that check the Yao runtime",
    "repro.circuits.arithmetic.twos_complement_negate":
        "subtract's negation, tested on its own",
    "repro.serving.fleet.ClassificationFleet.drain_shard":
        "the fleet's documented rolling-restart drain, pinned by test_fleet",
    "repro.crypto.rand.DeterministicRandom.is_deterministic":
        "checks which randomness mode a session was built with",
    "repro.crypto.secret_sharing.AdditiveSecretSharer.reconstruct":
        "the plaintext reference for additive shares and Beaver triples",
    "repro.crypto.triples.TripleStore.remaining_triples":
        "observes the offline triple stock in the depletion tests",
    "repro.crypto.triples.TripleStore.remaining_masks":
        "observes the offline mask stock in the depletion tests",
    "repro.data.schema.Dataset.feature_names":
        "checks generated schemas in the data tests",
    "repro.privacy.adversary.ExactJointAdversary":
        "the exact reference adversary the factorised ones are checked "
        "against",
}


def _roots_from_api(program: Program) -> Set[str]:
    roots: Set[str] = set()
    for name in repro.api.__all__:
        obj = getattr(repro.api, name)
        if inspect.ismodule(obj):
            targets = [f"{obj.__name__}.{n}" for n in obj.__all__]
        else:
            targets = [f"{obj.__module__}.{obj.__qualname__}"]
        for dotted in targets:
            target = _resolve(program, dotted)
            if target in program.classes:
                roots |= {
                    method.qualname
                    for method_name, method
                    in program.classes[target].methods.items()
                    if not method_name.startswith("_")
                } | _dunders(program, target)
            elif target is not None:
                roots.add(target)
    return roots


def _resolve(program: Program, dotted: str, depth: int = 0) -> Optional[str]:
    """A dotted name -> function/class qualname, through re-exports."""
    if dotted in program.functions or dotted in program.classes:
        return dotted
    module, _, name = dotted.rpartition(".")
    if module in program.classes:
        method = program.classes[module].methods.get(name)
        return method.qualname if method else None
    imported = program.imports.get(module, {}).get(name)
    if imported and depth < 8:
        return _resolve(program, imported, depth + 1)
    return None


def _in_src(qualname: str) -> bool:
    return qualname.split(".")[0] == "repro"


def _dunders(program: Program, cls: str) -> Set[str]:
    return {
        method.qualname
        for name, method in program.classes[cls].methods.items()
        if name.startswith("__") and name.endswith("__")
    }


def _references(
    program: Program, classes_by_name: Dict[str, List[str]],
    nodes: Iterable[ast.AST], module: str, cls: Optional[str],
) -> Set[str]:
    """Functions and classes the given code refers to (nested defs and
    classes are not descended into: they are nodes of their own)."""
    imports = program.imports.get(module, {})
    found: Set[str] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            target = _resolve(program, f"{module}.{node.id}")
            if target is None and node.id in imports:
                target = _resolve(program, imports[node.id])
            if target:
                found.add(target)
        elif isinstance(node, ast.Attribute):
            head, _, rest = dotted_source(node).partition(".")
            target = None
            if head in imports and rest:
                target = _resolve(program, f"{imports[head]}.{rest}")
            elif head in ("self", "cls") and cls and rest == node.attr:
                target = _resolve(program, f"{cls}.{node.attr}")
            if target:
                found.add(target)
            else:
                found.update(program.by_name.get(node.attr, ()))
                found.update(classes_by_name.get(node.attr, ()))
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return found


def _definition_time_code(body: Iterable[ast.stmt]) -> list:
    """What runs when a module or class body executes: its statements,
    decorators, default values and base classes, but no def bodies."""
    code = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            code += node.decorator_list + node.args.defaults
            code += [d for d in node.args.kw_defaults if d is not None]
        elif isinstance(node, ast.ClassDef):
            code += node.decorator_list + node.bases + node.keywords
            code += _definition_time_code(node.body)
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            code += [c for c in ast.iter_child_nodes(node)
                     if not isinstance(c, ast.stmt)]
            for field in ("body", "orelse", "finalbody"):
                code += _definition_time_code(getattr(node, field, []))
            for handler in getattr(node, "handlers", []):
                code += _definition_time_code(handler.body)
        else:
            code.append(node)
    return code


def _unreachable_src_defs() -> Set[str]:
    paths = [str(REPO / "src"), str(REPO / "examples")]
    paths += [
        str(path) for path in sorted((REPO / "benchmarks").rglob("*.py"))
        if not path.name.startswith("test_")
    ]
    modules, errors = parse_modules(paths)
    assert not errors
    program = Program.build(modules)

    classes = set(program.classes)
    classes_by_name: Dict[str, List[str]] = {}
    for qualname, info in program.classes.items():
        classes_by_name.setdefault(info.name, []).append(qualname)

    def expand(refs: Set[str]) -> Set[str]:
        out = {ref for ref in refs if ref in program.functions}
        for ref in refs & classes:
            out |= _dunders(program, ref)
        return out

    body_refs = {
        qualname: _references(program, classes_by_name, info.node.body,
                              info.module, info.cls)
        for qualname, info in program.functions.items()
    }
    for qualname, refs in body_refs.items():
        program.edges[qualname] = program.edges[qualname] | expand(refs)
    for qualname in program.functions:  # a nested def runs with its parent
        parent = qualname.rpartition(".")[0]
        if parent in program.functions:
            program.edges[parent].add(qualname)

    roots = {"repro.cli.main"} | _roots_from_api(program)
    referenced_classes: Set[str] = set()
    for module in program.modules.values():
        in_program = _in_src(module.module)
        roots |= {
            q for q, f in program.functions.items()
            if f.module == module.module
            and (not in_program or (f.cls is None and f.name.startswith("__")))
        }
        refs = _references(
            program, classes_by_name,
            _definition_time_code(module.tree.body), module.module, None,
        )
        referenced_classes |= refs & classes
        roots |= expand(refs)
    reachable = program.reachable_from(roots)
    for qualname in reachable:
        referenced_classes |= body_refs[qualname] & classes

    return {
        q for q in program.functions if _in_src(q) and q not in reachable
    } | {
        q for q in program.classes
        if _in_src(q) and q not in referenced_classes
    }


def test_only_the_kept_test_helpers_are_unreachable():
    unreachable = _unreachable_src_defs()
    assert sorted(unreachable - set(KEPT)) == [], (
        "src/ code only tests reach: delete it, or list it in KEPT"
    )
    assert sorted(set(KEPT) - unreachable) == [], (
        "KEPT names code that is reachable now (or gone): drop it"
    )
