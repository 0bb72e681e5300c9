#!/usr/bin/env python3
"""Generate (or verify) the metrics reference from the live registry.

Imports every module under ``repro.*`` so each one registers its
instruments with the process-global observability registry
(``repro.obs.metrics``), then renders the instrument catalogue —
name, kind, label names, help text — as a markdown table. Only
instrument *definitions* are rendered, never label values or counts,
so the output is deterministic for a given source tree.

Usage::

    python tools/gen_metrics_doc.py            # rewrite docs/METRICS.md
    python tools/gen_metrics_doc.py --check    # exit 1 if out of date

CI runs ``--check`` so the committed reference can never drift from the
code (the freshness gate next to the markdown link checker). ``--check``
also fails

* when a checked file (:data:`CHECKED_DOCS`) names, in backticks, a
  ``ted_*`` instrument the registry does not register, so a deleted
  instrument cannot live on in the prose or a docstring;
* when a registered instrument has no reader: no file under
  :data:`READERS` names it (a runbook step, a gate, a view or a test),
  so an instrument nobody reads is deleted rather than kept.
"""

from __future__ import annotations

import argparse
import importlib
import pkgutil
import re
import sys
from pathlib import Path
from typing import Iterable, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = ROOT / "docs" / "METRICS.md"

#: Docs whose backticked ``ted_*`` names must be registered instruments.
CHECKED_DOCS = (
    "README.md",
    "DESIGN.md",
    "ARCHITECTURE.md",
    "EXPERIMENTS.md",
    "docs/*.md",
    "src/repro/**/*.py",
)

#: Files whose mention of an instrument makes them its reader. A name
#: counts bare or with its ``_sum``/``_count``/``_bucket`` export suffix;
#: the instrument's own registration call does not count.
READERS = (
    "docs/RUNBOOK.md",
    "src/repro/cli.py",
    "src/repro/loadgen/**/*.py",
    "tools/**/*.py",
    "perfbook/**/*.py",
    "perfbook/**/*.md",
    "benchmarks/**/*.py",
    "tests/**/*.py",
)

#: Reader files whose ``ted_*`` names are sample text, not reads.
NOT_READERS = frozenset({"tests/test_docs_tooling.py"})

#: Backticked ``ted_``-prefixed names that are not instruments.
NOT_INSTRUMENTS = frozenset(
    {"ted_<subsystem>_<name>", "ted_<subsystem>_<name>[_total]"}
)

_BACKTICKED_NAME = re.compile(r"`(ted_[^`\s]*)")
_TRAILING_LABELS = re.compile(r"\{[^{}]*\}$")
_ALTERNATIVES = re.compile(r"\{([^{}]*)\}")
_REGISTRATION = re.compile(
    r"""\.(?:counter|gauge|histogram)\(\s*["']ted_\w+["']"""
)
_NAME = re.compile(r"\bted_\w+")
_EXPORT_SUFFIXES = ("", "_sum", "_count", "_bucket")

_HEADER = """\
# Metrics reference

All instruments registered with the process-global observability
registry (`repro.obs.metrics`), exported via `repro stats --format prom`
(Prometheus text) or `--format json`. Naming follows
`ted_<subsystem>_<name>[_total]` (DESIGN.md §9); histograms additionally
export `_count`, `_sum`, and `p50/p95/p99` quantiles in snapshots.

<!-- GENERATED FILE — do not edit by hand.
     Regenerate with: python tools/gen_metrics_doc.py
     CI verifies freshness with: python tools/gen_metrics_doc.py --check -->

| Metric | Type | Labels | Help |
|---|---|---|---|
"""


def _register_all_instruments() -> None:
    """Import every repro module so instruments self-register."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    for info in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    ):
        importlib.import_module(info.name)


def render() -> str:
    """The full METRICS.md contents for the current source tree."""
    _register_all_instruments()
    from repro.obs.metrics import get_registry

    lines = [_HEADER]
    for instrument in get_registry().instruments():
        labels = ", ".join(
            f"`{name}`" for name in instrument.labelnames
        ) or "—"
        help_text = instrument.help.replace("|", "\\|")
        lines.append(
            f"| `{instrument.name}` | {instrument.kind} "
            f"| {labels} | {help_text} |\n"
        )
    return "".join(lines)


def _expand(name: str) -> List[str]:
    """``a_{x,y}_b`` → ``[a_x_b, a_y_b]`` (every brace group)."""
    group = _ALTERNATIVES.search(name)
    if group is None:
        return [name]
    head, tail = name[: group.start()], name[group.end() :]
    return [
        expanded
        for choice in group.group(1).split(",")
        for expanded in _expand(head + choice + tail)
    ]


def dangling_names(docs: Iterable[Path]) -> List[Tuple[Path, str]]:
    """Backticked ``ted_*`` names in ``docs`` that name no instrument.

    A trailing brace group is a label set and is dropped; any other brace
    group lists alternatives. A name ending in ``_`` or ``_*`` is a
    family prefix and must match at least one instrument.
    """
    _register_all_instruments()
    from repro.obs.metrics import get_registry

    names = {instrument.name for instrument in get_registry().instruments()}

    def known(name: str) -> bool:
        if name.endswith("_*") or name.endswith("_"):
            prefix = name.rstrip("*")
            return any(n.startswith(prefix) for n in names)
        return name in names

    found = []
    for doc in docs:
        for token in _BACKTICKED_NAME.findall(doc.read_text()):
            if token in NOT_INSTRUMENTS:
                continue
            stem = _TRAILING_LABELS.sub("", token)
            if not all(known(name) for name in _expand(stem)):
                found.append((doc, token))
    return found


def unread_instruments() -> List[str]:
    """Registered instruments that no file under :data:`READERS` names."""
    _register_all_instruments()
    from repro.obs.metrics import get_registry

    mentioned = set()
    for path in _expand_globs(READERS):
        if path.relative_to(ROOT).as_posix() in NOT_READERS:
            continue
        text = _REGISTRATION.sub("", path.read_text())
        mentioned.update(_NAME.findall(text))
    return [
        instrument.name
        for instrument in get_registry().instruments()
        if not any(
            instrument.name + suffix in mentioned
            for suffix in _EXPORT_SUFFIXES
        )
    ]


def _expand_globs(patterns: Iterable[str]) -> List[Path]:
    return [
        path for pattern in patterns for path in sorted(ROOT.glob(pattern))
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the committed doc matches the live registry "
        "instead of rewriting it",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_OUT,
        help=f"output path (default: {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)

    content = render()
    if args.check:
        committed = (
            args.out.read_text() if args.out.exists() else None
        )
        problems = []
        if committed != content:
            problems.append(
                f"{args.out} is out of date with the metrics registry.\n"
                f"Regenerate with: python tools/gen_metrics_doc.py"
            )
        for doc, token in dangling_names(_expand_globs(CHECKED_DOCS)):
            problems.append(
                f"{doc.relative_to(ROOT)}: `{token}` names no registered "
                f"instrument"
            )
        for name in unread_instruments():
            problems.append(
                f"`{name}` has no reader: name it in docs/RUNBOOK.md, a "
                f"gate, a view or a test, or delete it"
            )
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        print(f"{args.out} is up to date "
              f"({content.count('| `ted_')} instruments).")
        return 0
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(content)
    print(f"wrote {args.out} "
          f"({content.count('| `ted_')} instruments).")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
