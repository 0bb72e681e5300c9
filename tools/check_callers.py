#!/usr/bin/env python3
"""Caller gate: every ``src/repro`` module must be imported by something
other than its tests.

Scans the ``import`` statements of every Python file under ``src/``,
``tools/``, ``perfbook/``, ``benchmarks/`` and ``examples/`` and reports
each ``repro`` module that none of them imports. Two kinds of importer
do not count as callers:

* a package ``__init__.py`` — a re-export alone is not a use. A caller
  that imports a re-exported name through the package
  (``from repro.storage import DedupEngine``) is followed back to the
  module that defines it;
* anything under a ``tests`` directory.

Packages themselves and modules named ``__main__`` are exempt.

Usage::

    python tools/check_callers.py               # this checkout
    python tools/check_callers.py --root DIR    # another tree

Exits 1 naming every module without a caller, 0 when there is none.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent

CALLER_DIRS = ("src", "tools", "perfbook", "benchmarks", "examples")


def _module_name(path: Path, src: Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imports(
    path: Path, package: str
) -> Iterator[Tuple[str, Tuple[str, ...]]]:
    """``(module, names)`` per import statement, relative ones resolved.

    ``names`` is empty for a plain ``import a.b``.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[: len(anchor) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            yield base, tuple(alias.name for alias in node.names)


class _Tree:
    def __init__(self, root: Path) -> None:
        self.src = root / "src"
        self.modules: Dict[str, Path] = {
            _module_name(path, self.src): path
            for path in sorted((self.src / "repro").rglob("*.py"))
        }
        self.packages = {
            name
            for name, path in self.modules.items()
            if path.name == "__init__.py"
        }
        # package -> {re-exported name -> module it was imported from}
        self.reexports: Dict[str, Dict[str, str]] = {}
        for package in self.packages:
            path = self.modules[package]
            exported = self.reexports.setdefault(package, {})
            for module, names in _imports(path, package):
                for name in names:
                    exported[name] = module

    def resolve(self, module: str, name: str = "") -> Optional[str]:
        """The repro module that ``from module import name`` reaches."""
        seen = set()
        while module not in seen:
            seen.add(module)
            if name and f"{module}.{name}" in self.modules:
                return f"{module}.{name}"
            if module in self.packages and name in self.reexports[module]:
                module = self.reexports[module][name]
                continue
            return module if module in self.modules else None
        return None


def uncalled_modules(root: Path = ROOT) -> List[str]:
    """Names of the ``repro`` modules no caller imports, sorted."""
    tree = _Tree(root)
    called: Set[str] = set()
    for directory in CALLER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            relative = path.relative_to(root).parts
            if "tests" in relative or path.name == "__init__.py":
                continue
            # The package a relative import in this module resolves in.
            package = (
                _module_name(path, tree.src).rpartition(".")[0]
                if directory == "src"
                else ""
            )
            for module, names in _imports(path, package):
                targets = (
                    [tree.resolve(module, name) for name in names]
                    if names
                    else [tree.resolve(module)]
                )
                called.update(t for t in targets if t is not None)
    return sorted(
        name
        for name in tree.modules
        if name not in tree.packages
        and name.rpartition(".")[2] != "__main__"
        and name not in called
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, default=ROOT,
        help="repository root to scan (default: this checkout)",
    )
    args = parser.parse_args(argv)
    missing = uncalled_modules(args.root)
    for name in missing:
        print(
            f"{name}: imported only by tests or a package __init__",
            file=sys.stderr,
        )
    if missing:
        return 1
    print("every repro module has a caller")
    return 0


if __name__ == "__main__":
    sys.exit(main())
