"""OBSERVABILITY.md's span table matches the protocol spans in code.

Every ``@protocol_entry(span="...")`` in ``src/`` must be documented,
and every documented span under a protocol prefix (the first component
of some code span: ``argmax.``, ``compare.``, ...) must be opened by
code, so an operator never looks for a span that cannot appear.
"""

import ast
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def _code_protocol_spans():
    spans = set()
    for path in (REPO_ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                if isinstance(decorator, ast.Call) and getattr(
                    decorator.func, "id", None
                ) == "protocol_entry":
                    for keyword in decorator.keywords:
                        if keyword.arg == "span":
                            spans.add(keyword.value.value)
    return spans


def _documented_spans():
    text = (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text()
    section = text.split("\n## Spans\n", 1)[1].split("\n## ", 1)[0]
    spans = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            first_cell = line.split("|")[1]
            spans.update(re.findall(r"`([a-z_.]+)`", first_cell))
    return spans


def test_every_protocol_span_is_documented():
    code = _code_protocol_spans()
    assert code, "found no @protocol_entry(span=...) in src/"
    assert code - _documented_spans() == set()


def test_every_documented_protocol_span_exists_in_code():
    code = _code_protocol_spans()
    prefixes = {span.split(".")[0] + "." for span in code}
    documented = {
        span for span in _documented_spans() if span.startswith(tuple(prefixes))
    }
    assert documented - code == set()
