"""Documentation checkers: link integrity and CLI-flag drift.

Prose rots faster than code: a renamed file silently breaks a relative
link, and a CLI flag documented in an operator guide keeps being
recommended long after the flag is gone. Both failure modes are cheap
to detect mechanically, so this module makes them CI failures:

* :func:`check_links` walks every markdown link in the given files and
  verifies that repo-relative targets exist and that ``#anchors``
  resolve to a real heading (GitHub's slug rules) in the target file;
* :func:`check_cli_flag_drift` verifies that every ``--flag`` token
  mentioned in an operator guide is a real flag of the CLI commands
  that guide documents (:data:`DOC_COMMANDS` maps guide -> commands;
  ``docs/DEPLOYMENT.md`` and ``docs/PRIVACY.md`` check against both
  ``python -m repro serve --help`` and ``python -m repro budget
  --help``), so a guide cannot drift from the CLI it documents.

Run it the same way CI does::

    PYTHONPATH=src python -m repro.analysis.docs README.md docs

Exit code 0 means every link resolves and the deployment guide only
names flags the ``serve`` command actually accepts; 1 lists the
problems, one per line, as ``file:line: message``.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Markdown inline links: ``[text](target)``. Images (``![alt](src)``)
#: match too -- their targets must exist just the same.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
_FENCE_RE = re.compile(r"^\s*(```|~~~)")
_FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
_EXTERNAL_SCHEMES = ("http://", "https://", "mailto:", "ftp://")


def github_slug(heading: str) -> str:
    """The anchor GitHub generates for a markdown heading.

    Lower-case, spaces to hyphens, everything except word characters
    and hyphens dropped (backticks, punctuation, ampersands...).
    """
    text = re.sub(r"`([^`]*)`", r"\1", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _markdown_lines_outside_fences(text: str) -> Iterable[Tuple[int, str]]:
    """(1-based line number, line) pairs, skipping fenced code blocks."""
    in_fence = False
    for number, line in enumerate(text.splitlines(), start=1):
        if _FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if not in_fence:
            yield number, line


def heading_slugs(path: str) -> Dict[str, int]:
    """Anchor slug -> first line number, for every heading in ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    slugs: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    for number, line in _markdown_lines_outside_fences(text):
        match = _HEADING_RE.match(line)
        if not match:
            continue
        slug = github_slug(match.group(2))
        seen = counts.get(slug, 0)
        counts[slug] = seen + 1
        # GitHub de-duplicates repeats as slug, slug-1, slug-2, ...
        slugs.setdefault(slug if seen == 0 else f"{slug}-{seen}", number)
    return slugs


def check_links(paths: Sequence[str], root: Optional[str] = None) -> List[str]:
    """Validate every markdown link in ``paths``; returns problems.

    ``root`` is the repository root used to resolve targets that start
    with ``/`` (defaults to the current working directory). Relative
    targets resolve against the linking file's directory, exactly as
    GitHub renders them. External URLs are skipped -- checking them
    needs a network and belongs elsewhere.
    """
    root = os.path.abspath(root or os.getcwd())
    problems: List[str] = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        base = os.path.dirname(os.path.abspath(path))
        for number, line in _markdown_lines_outside_fences(text):
            for match in _LINK_RE.finditer(line):
                target = match.group(1)
                if target.startswith(_EXTERNAL_SCHEMES):
                    continue
                problems.extend(
                    f"{path}:{number}: {message}"
                    for message in _check_one_target(target, base, root, path)
                )
    return problems


def _check_one_target(target: str, base: str, root: str,
                      source: str) -> List[str]:
    """Problems for a single non-external link target."""
    target, _, anchor = target.partition("#")
    if target:
        resolved = (os.path.join(root, target.lstrip("/"))
                    if target.startswith("/") else os.path.join(base, target))
        resolved = os.path.normpath(resolved)
        if not os.path.exists(resolved):
            return [f"broken link: {target!r} does not exist"]
        anchor_file = resolved
    else:
        anchor_file = os.path.abspath(source)
    if not anchor:
        return []
    if not anchor_file.endswith((".md", ".markdown")):
        return []  # anchors into non-markdown files are not ours to judge
    if anchor.lower() not in heading_slugs(anchor_file):
        where = "this file" if not target else repr(target)
        return [f"broken anchor: #{anchor} not a heading of {where}"]
    return []


#: Which CLI commands each operator guide documents: every ``--flag``
#: the guide mentions must belong to one of these commands' parsers.
DOC_COMMANDS = {
    "DEPLOYMENT.md": ("serve", "budget"),
    "PRIVACY.md": ("serve", "budget"),
}


def command_help_text(command: str) -> str:
    """A ``python -m repro <command> --help`` text, captured in-process."""
    from repro.cli import build_parser

    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices[command].format_help()
    raise RuntimeError("repro CLI has no subcommands")  # pragma: no cover


def check_cli_flag_drift(
    doc_path: str,
    help_text: Optional[str] = None,
    commands: Sequence[str] = ("serve",),
) -> List[str]:
    """Every ``--flag`` token in ``doc_path`` must be a real CLI flag.

    An operator guide documents one or more ``python -m repro``
    commands (``commands``); a flag that none of them accepts any more
    (renamed, removed) is drift, reported as a problem. ``help_text``
    defaults to the live parsers' concatenated help so the check can
    never disagree with the shipping CLI.
    """
    if help_text is None:
        help_text = "\n".join(command_help_text(c) for c in commands)
    known = set(_FLAG_RE.findall(help_text))
    spelled = "|".join(commands)
    with open(doc_path, "r", encoding="utf-8") as handle:
        text = handle.read()
    problems = []
    for number, line in enumerate(text.splitlines(), start=1):
        for flag in _FLAG_RE.findall(line):
            if flag not in known:
                problems.append(
                    f"{doc_path}:{number}: flag {flag} is not accepted by "
                    f"'python -m repro {spelled}' (drifted doc?)"
                )
    return problems


def _expand_markdown(paths: Sequence[str]) -> List[str]:
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            files.extend(
                os.path.join(path, name)
                for name in sorted(os.listdir(path))
                if name.endswith((".md", ".markdown"))
            )
        else:
            files.append(path)
    return files


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point: ``python -m repro.analysis.docs README.md docs``."""
    parser = argparse.ArgumentParser(
        prog="repro.analysis.docs",
        description="markdown link checker + CLI-flag drift checker",
    )
    parser.add_argument(
        "paths", nargs="+",
        help="markdown files or directories of *.md to check",
    )
    parser.add_argument(
        "--root", default=".",
        help="repository root for absolute (/-prefixed) links (default .)",
    )
    args = parser.parse_args(argv)

    files = _expand_markdown(args.paths)
    problems = check_links(files, root=args.root)
    for path in files:
        commands = DOC_COMMANDS.get(os.path.basename(path))
        if commands:
            problems.extend(check_cli_flag_drift(path, commands=commands))
    for problem in problems:
        print(problem)
    print(f"{len(problems)} problem(s) in {len(files)} file(s)",
          file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
