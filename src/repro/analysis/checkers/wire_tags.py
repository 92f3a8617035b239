"""Rule ``wire-tags``: every wire tag must have an encode AND a decode path.

A tag constant with an encoder but no decoder is a protocol landmine:
the sending side happily emits frames the receiving side rejects as
"unknown type tag", typically only on the first message shape a new
feature exercises in production. The converse (decoder without
encoder) hides dead protocol surface that drifts unreviewed.

This checker activates on any module defining ``TAG_*`` integer
constants (in this repository, :mod:`repro.smc.wire`). For each tag it
requires at least one reference inside an *encode-side* function (name
containing ``encode``) and one inside a *decode-side* function (name
containing ``decode``). The same discipline applies to
the ciphertext classes registered with the codec: every ``*Ciphertext``
class imported or defined by the module must appear on both sides, so
registering a fourth ciphertext scheme without teaching the decoder
about it fails the lint gate rather than a live session.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set

from repro.analysis.findings import Finding, Severity
from repro.analysis.framework import Checker, ModuleInfo


def _module_tag_constants(mod: ModuleInfo) -> Dict[str, ast.stmt]:
    """Module-level ``TAG_*`` assignments -> their defining statement."""
    tags: Dict[str, ast.stmt] = {}
    for stmt in mod.tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id.startswith("TAG_"):
                tags[target.id] = stmt
    return tags


def _ciphertext_classes(mod: ModuleInfo) -> Dict[str, ast.stmt]:
    """Names ending in ``Ciphertext`` imported or defined at module level."""
    classes: Dict[str, ast.stmt] = {}
    for stmt in mod.tree.body:
        if isinstance(stmt, ast.ImportFrom):
            for alias in stmt.names:
                name = alias.asname or alias.name
                if name.endswith("Ciphertext"):
                    classes[name] = stmt
        elif isinstance(stmt, ast.ClassDef) and stmt.name.endswith(
            "Ciphertext"
        ):
            classes[stmt.name] = stmt
    return classes


def _names_used_in(functions: List[ast.AST]) -> Set[str]:
    used: Set[str] = set()
    for func in functions:
        for node in ast.walk(func):
            if isinstance(node, ast.Name):
                used.add(node.id)
    return used


class WireTagChecker(Checker):
    rule = "wire-tags"
    severity = Severity.ERROR
    description = (
        "every TAG_* wire constant and every registered ciphertext class "
        "needs both an encode branch and a decode branch"
    )

    def check(self, mod: ModuleInfo) -> Iterable[Finding]:
        tags = _module_tag_constants(mod)
        if not tags:
            return

        encode_side: List[ast.AST] = []
        decode_side: List[ast.AST] = []
        for func in mod.functions():
            name = func.name.lower()
            if "decode" in name:
                decode_side.append(func)
            if "encode" in name:
                encode_side.append(func)

        encode_names = _names_used_in(encode_side)
        decode_names = _names_used_in(decode_side)

        for tag, stmt in sorted(tags.items()):
            if tag not in encode_names:
                yield self.finding(
                    mod,
                    stmt,
                    f"wire tag {tag} has no encode branch (not referenced "
                    f"in any encode function)",
                )
            if tag not in decode_names:
                yield self.finding(
                    mod,
                    stmt,
                    f"wire tag {tag} has no decode branch (not referenced "
                    f"in any decode function)",
                )

        for cls, stmt in sorted(_ciphertext_classes(mod).items()):
            if cls not in encode_names:
                yield self.finding(
                    mod,
                    stmt,
                    f"ciphertext class {cls} is registered with the codec "
                    f"module but never encoded",
                )
            if cls not in decode_names:
                yield self.finding(
                    mod,
                    stmt,
                    f"ciphertext class {cls} is registered with the codec "
                    f"module but never decoded",
                )
