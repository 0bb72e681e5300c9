#!/usr/bin/env python3
"""Markdown link-and-anchor checker, plus the runbook's flag-table gate.

Validates every inline markdown link (``[text](target)``) in the given
documents:

* relative file targets must exist on disk (resolved against the
  document's own directory);
* ``#anchor`` fragments — in-document or on a linked ``.md`` file —
  must match a heading's GitHub-style slug in the target document;
* ``http(s)://`` and ``mailto:`` targets are skipped (no network I/O
  in CI).

Fenced code blocks and inline code spans are stripped first, so command
examples never produce false positives. Citation brackets like
``[46] (Lillibridge...)`` don't match — only ``](`` adjacency counts.

When ``docs/RUNBOOK.md`` is among the documents, its flag tables are
checked against the ``repro`` CLI parser (:func:`flag_table_problems`):
a row may name only flags its subcommand's parser has, and every flag
of a subcommand with a table must have a row. This needs the ``repro``
package importable (``src/`` next to ``tools/``, and numpy).

Usage::

    python tools/check_docs.py README.md DESIGN.md ...
    python tools/check_docs.py            # the default doc set

Exits 1 listing every broken link or flag-table mismatch, 0 when there
is none.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
RUNBOOK = ROOT / "docs" / "RUNBOOK.md"

DEFAULT_DOCS = (
    "README.md",
    "DESIGN.md",
    "ARCHITECTURE.md",
    "EXPERIMENTS.md",
    "docs/RUNBOOK.md",
    "docs/METRICS.md",
    "docs/PERFORMANCE.md",
)

_LINK = re.compile(r"\[([^\]]*)\]\(([^)\s]+)\)")
_FENCE = re.compile(r"^(```|~~~).*?^\1\s*$", re.M | re.S)
_INLINE_CODE = re.compile(r"`[^`\n]*`")
_HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$", re.M)
_CODE_NAME = re.compile(r"`([^`]+)`")
_FLAG = re.compile(r"--[A-Za-z0-9][\w-]*")


def _strip_code(text: str) -> str:
    return _INLINE_CODE.sub("", _FENCE.sub("", text))


def _slugify(heading: str) -> str:
    """GitHub-style heading slug (lowercase, punctuation dropped)."""
    heading = _INLINE_CODE.sub(
        lambda match: match.group(0).strip("`"), heading
    )
    # Drop markdown emphasis and link syntax from the heading text.
    heading = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading)
    heading = heading.lower().strip()
    heading = re.sub(r"[^\w\- ]", "", heading)
    return heading.replace(" ", "-")


def _anchors(path: Path) -> Dict[str, None]:
    """Every valid anchor slug in one markdown document."""
    text = _FENCE.sub("", path.read_text())
    slugs: Dict[str, None] = {}
    for match in _HEADING.finditer(text):
        slug = _slugify(match.group(2))
        if slug in slugs:  # duplicates get -1, -2, ... suffixes
            suffix = 1
            while f"{slug}-{suffix}" in slugs:
                suffix += 1
            slug = f"{slug}-{suffix}"
        slugs[slug] = None
    return slugs


def check_document(path: Path) -> List[str]:
    """All broken links in one document, as human-readable strings."""
    problems: List[str] = []
    text = _strip_code(path.read_text())
    for match in _LINK.finditer(text):
        target = match.group(2)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        file_part, _, anchor = target.partition("#")
        if file_part:
            resolved = (path.parent / file_part).resolve()
            if not resolved.exists():
                problems.append(
                    f"{path}: broken file link '{target}' "
                    f"({resolved} does not exist)"
                )
                continue
        else:
            resolved = path
        if anchor:
            if resolved.suffix != ".md" or not resolved.is_file():
                continue  # anchors into non-markdown are unverifiable
            if anchor not in _anchors(resolved):
                problems.append(
                    f"{path}: broken anchor '{target}' "
                    f"(no heading slugs to '#{anchor}' "
                    f"in {resolved.name})"
                )
    return problems


def _cli_parsers() -> Dict[str, argparse.ArgumentParser]:
    """``repro``'s subcommand parsers by name."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.cli import build_parser

    (subparsers,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return dict(subparsers.choices)


def _long_flags(parser: argparse.ArgumentParser) -> List[str]:
    return [
        option
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    ]


def _flag_tables(text: str) -> Iterator[Tuple[str, List[str]]]:
    """``(heading, rows)`` of every markdown table whose first header
    cell says "flag"; a row is its first cell."""
    heading = ""
    table: List[str] = []
    for line in _FENCE.sub("", text).splitlines() + [""]:
        if line.startswith("|"):
            table.append(line.strip("|").split("|")[0])
            continue
        if table and "flag" in table[0].lower():
            yield heading, table
        table = []
        match = _HEADING.match(line)
        if match:
            heading = match.group(2)


def flag_table_problems(
    path: Path, parsers: Dict[str, argparse.ArgumentParser]
) -> List[str]:
    """Runbook flag-table rows that disagree with the CLI parsers.

    A table belongs to the subcommands its header cell names in
    backticks (`` `loadgen` flag ``), else to those its section heading
    names (`` ### `upload` / `download` ``). Each flag in a row's first
    cell must belong to one of them, and each of their ``--`` flags must
    appear in some row.
    """
    problems: List[str] = []
    for heading, rows in _flag_tables(path.read_text()):
        owners = [
            name for name in _CODE_NAME.findall(rows[0]) if name in parsers
        ] or [name for name in _CODE_NAME.findall(heading) if name in parsers]
        if not owners:
            continue
        tabled = {flag for row in rows[2:] for flag in _FLAG.findall(row)}
        known = {flag for name in owners for flag in _long_flags(parsers[name])}
        for flag in sorted(tabled - known):
            problems.append(
                f"{path}: the table of {' / '.join(owners)} names {flag}, "
                f"which no such repro parser has"
            )
        for name in owners:
            for flag in sorted(set(_long_flags(parsers[name])) - tabled):
                problems.append(
                    f"{path}: repro {name} {flag} is missing from its table"
                )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "documents",
        nargs="*",
        help=f"markdown files to check (default: {', '.join(DEFAULT_DOCS)})",
    )
    args = parser.parse_args(argv)
    documents = [
        Path(doc) for doc in (args.documents or ())
    ] or [ROOT / doc for doc in DEFAULT_DOCS]

    problems: List[str] = []
    checked = 0
    for path in documents:
        if not path.exists():
            problems.append(f"{path}: document does not exist")
            continue
        checked += 1
        problems.extend(check_document(path))
        if path.resolve() == RUNBOOK:
            problems.extend(flag_table_problems(path, _cli_parsers()))
    if problems:
        print("\n".join(problems), file=sys.stderr)
        print(
            f"\n{len(problems)} problem(s) across {checked} document(s).",
            file=sys.stderr,
        )
        return 1
    print(f"all links resolve across {checked} document(s).")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
