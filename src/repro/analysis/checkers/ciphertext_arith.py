"""Rule ``ciphertext-arith``: only ring operations on ciphertext names.

Paillier/DGK ciphertexts support homomorphic addition and scalar
multiplication -- nothing else. ``ct / 2`` silently computes garbage in
the exponent group, a float anywhere near a ciphertext means a lost
quantisation step, and ``ct == 3`` compares a group element against a
plaintext (always false for a semantically secure scheme, and if it
ever *is* meaningful the scheme is broken). All three appear routinely
when plaintext model code is ported onto the encrypted path.

Ciphertext-typed names are inferred per function from

* parameter/variable annotations whose source contains ``Ciphertext``,
* assignment from a call whose name contains ``encrypt`` (e.g.
  ``client_encrypt``, ``encrypt_batch``, ``server_encrypt``) or
  ``rerandomize``.

Flagged, per function:

* any ``/`` or ``//`` binary operation with a ciphertext operand,
* any binary operation mixing a ciphertext name and a float literal,
* ``==`` / ``!=`` between a ciphertext name and a numeric literal.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Set

from repro.analysis.findings import Finding, Severity
from repro.analysis.framework import Checker, ModuleInfo, call_name


def _annotation_is_ciphertext(annotation: ast.AST) -> bool:
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name) and "Ciphertext" in node.id:
            return True
        if isinstance(node, ast.Attribute) and "Ciphertext" in node.attr:
            return True
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and "Ciphertext" in node.value:
            return True
    return False


def _is_encrypt_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = call_name(node)
    return "encrypt" in name or "rerandomize" in name


def _ciphertext_names(func: ast.AST) -> Set[str]:
    names: Set[str] = set()
    args = func.args
    for arg in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    ):
        if arg.annotation is not None and _annotation_is_ciphertext(
            arg.annotation
        ):
            names.add(arg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            if _annotation_is_ciphertext(node.annotation):
                names.add(node.target.id)
        elif isinstance(node, ast.Assign) and _is_encrypt_call(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _mentions(node: ast.AST, names: Set[str]) -> bool:
    """Does ``node`` reference one of ``names`` directly (not via calls)?"""
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, ast.Call):
        return False  # call results are a different value
    return any(_mentions(child, names) for child in ast.iter_child_nodes(node))


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp):
        return _is_float_literal(node.operand)
    return False


def _is_numeric_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(
        node.value, (int, float)
    ) and not isinstance(node.value, bool):
        return True
    if isinstance(node, ast.UnaryOp):
        return _is_numeric_literal(node.operand)
    return False


class CiphertextArithChecker(Checker):
    rule = "ciphertext-arith"
    severity = Severity.ERROR
    description = (
        "no division, float literals or ==-against-literal on "
        "ciphertext-typed names (only ring operations are homomorphic)"
    )

    def check(self, mod: ModuleInfo) -> Iterable[Finding]:
        if not mod.in_scope():
            return
        for func in mod.functions():
            names = _ciphertext_names(func)
            if names:
                yield from self._check_function(mod, func, names)

    def _check_function(
        self, mod: ModuleInfo, func: ast.AST, names: Set[str]
    ) -> Iterator[Finding]:
        for node in ast.walk(func):
            if isinstance(node, ast.BinOp):
                operands = (node.left, node.right)
                involves_ct = any(_mentions(op, names) for op in operands)
                if not involves_ct:
                    continue
                if isinstance(node.op, (ast.Div, ast.FloorDiv)):
                    yield self.finding(
                        mod,
                        node,
                        "division applied to a ciphertext-typed value; "
                        "homomorphic ciphertexts only support addition "
                        "and scalar multiplication",
                    )
                elif any(_is_float_literal(op) for op in operands):
                    yield self.finding(
                        mod,
                        node,
                        "float literal combined with a ciphertext-typed "
                        "value; quantise to the fixed-point integer "
                        "encoding first",
                    )
            elif isinstance(node, ast.Compare):
                comparands = [node.left] + list(node.comparators)
                has_ct = any(
                    isinstance(c, ast.Name) and c.id in names
                    for c in comparands
                )
                if not has_ct:
                    continue
                for op, comparand in zip(node.ops, node.comparators):
                    if isinstance(op, (ast.Eq, ast.NotEq)) and (
                        _is_numeric_literal(comparand)
                        or _is_numeric_literal(node.left)
                    ):
                        yield self.finding(
                            mod,
                            node,
                            "==/!= between a ciphertext-typed value and a "
                            "numeric literal; compare the decrypted "
                            "plaintext (or use a secure comparison) "
                            "instead",
                        )
                        break
