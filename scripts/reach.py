#!/usr/bin/env python3
"""Reach check: keep only what a product path runs.

A module under ``src/repro`` stays only if a *product root* reaches it,
and a top-level function or class in a reached module stays only if some
reached code names it.  The product roots are the entry points a user or
the benchmark actually runs (``PRODUCT_ROOTS`` below); tests are not
roots, so code whose only caller is its own test is reported.

The walk is static (stdlib ``ast``; nothing is imported or started) and
follows:

- every ``import`` and ``from ... import``, including ones inside
  functions, and imports of a sibling file next to the importing one
  (``benchmarks/ladder/run.py`` puts its own directory on ``sys.path``);
- string constants that name a module, as in ``[sys.executable, "-m",
  "repro.engine.worker_main"]``;
- names resolved through a package's ``lazy_exports`` table, but only
  when a reached file imports that name or reads it off the package.
  An entry in the table alone is not reach.

Usage:  python3 scripts/reach.py

Prints one line per finding and exits 1 if there is any, else exits 0.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

# Each entry: a file (or glob) relative to the repository root, and the
# product path it stands for.
PRODUCT_ROOTS: Tuple[Tuple[str, str], ...] = (
    ("src/repro/engine/manager.py", "a Manager run"),
    ("src/repro/engine/router.py", "a Router run"),
    ("src/repro/flow/__init__.py", "repro.flow"),
    ("src/repro/bench/__main__.py", "python -m repro.bench <experiment>"),
    ("src/repro/obs/__main__.py", "python -m repro.obs report (README)"),
    ("benchmarks/ladder/run.py", "the ladder workloads (BENCHMARK.json)"),
    ("examples/*.py", "the examples (README)"),
)

# Top-level names kept although no product root names them, each with
# its reason.  Keyed by (module, name).
ALLOWED: Dict[Tuple[str, str], str] = {
    ("repro.obs.trace", "unparented_events"):
        "test oracle: every span of a traced run has a parent",
    ("repro.obs.trace", "read_jsonl"):
        "test oracle: reads back the JSONL that Tracer.flush writes",
    ("repro.obs.statusd", "parse_prometheus"):
        "test oracle: /metrics output is valid Prometheus text",
    ("repro.util.logging", "reset_for_tests"):
        "test isolation: drops the process-wide logger configuration",
}


def module_files() -> Dict[str, Path]:
    """Dotted module name -> file, for every module under src/."""
    files = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        files[".".join(parts)] = path
    return files


def lazy_tables(files: Dict[str, Path]) -> Dict[str, Dict[str, str]]:
    """Package -> {exported name: submodule} from each ``lazy_exports`` call."""
    tables: Dict[str, Dict[str, str]] = {}
    for module, path in files.items():
        if path.name != "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "lazy_exports"
                and len(node.args) == 2
                and isinstance(node.args[1], ast.Dict)
            ):
                table = tables.setdefault(module, {})
                for key, value in zip(node.args[1].keys, node.args[1].values):
                    for name in ast.literal_eval(value):
                        table[name] = f"{module}.{ast.literal_eval(key)}"
    return tables


class Walk:
    def __init__(self) -> None:
        self.files = module_files()
        self.by_path = {path: module for module, path in self.files.items()}
        self.lazy = lazy_tables(self.files)
        self.reached: Set[Path] = set()
        self.trees: Dict[Path, ast.Module] = {}
        self.pending: List[Path] = []
        self.roots: Set[Path] = set()

    # -- reach ---------------------------------------------------------
    def reach_file(self, path: Path) -> None:
        if path not in self.reached:
            self.reached.add(path)
            self.pending.append(path)

    def reach_module(self, module: str) -> None:
        """Reach ``module`` and the packages it is imported through."""
        parts = module.split(".")
        for i in range(1, len(parts) + 1):
            path = self.files.get(".".join(parts[:i]))
            if path is not None:
                self.reach_file(path)

    def reach_name(self, package: str, name: str) -> None:
        """``from package import name`` or ``package.name``."""
        if f"{package}.{name}" in self.files:
            self.reach_module(f"{package}.{name}")
        elif name in self.lazy.get(package, {}):
            self.reach_module(self.lazy[package][name])

    def run(self, roots: Iterable[Path]) -> None:
        for root in roots:
            self.roots.add(root)
            self.reach_file(root)
        while self.pending:
            self.scan(self.pending.pop())

    def scan(self, path: Path) -> None:
        tree = self.trees[path] = ast.parse(path.read_text(), str(path))
        here = self.by_path.get(path)
        aliases: Dict[str, str] = {}  # local name -> module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.import_plain(path, alias.name)
                    if alias.asname:
                        aliases[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".")[0]
                        aliases[top] = top
            elif isinstance(node, ast.ImportFrom):
                base = self.resolve_from(here, path, node)
                if base is None:
                    continue
                self.reach_module(base)
                for alias in node.names:
                    self.reach_name(base, alias.name)
                    if f"{base}.{alias.name}" in self.files:
                        aliases[alias.asname or alias.name] = f"{base}.{alias.name}"
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value in self.files:
                    self.reach_module(node.value)
        # ``package.name`` read off an imported package.
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                dotted = dotted_name(node.value)
                if dotted is None:
                    continue
                head, _, rest = dotted.partition(".")
                if head in aliases:
                    package = aliases[head] + (f".{rest}" if rest else "")
                    self.reach_name(package, node.attr)

    def import_plain(self, path: Path, name: str) -> None:
        if name.split(".")[0] == "repro":
            self.reach_module(name)
            return
        sibling = path.parent / f"{name}.py"
        if "." not in name and sibling.exists():
            self.reach_file(sibling)

    def resolve_from(
        self, here: Optional[str], path: Path, node: ast.ImportFrom
    ) -> Optional[str]:
        if node.level == 0:
            if node.module and node.module.split(".")[0] == "repro":
                return node.module
            if node.module and (path.parent / f"{node.module}.py").exists():
                self.reach_file(path.parent / f"{node.module}.py")
            return None
        if here is None:
            return None
        package = here if path.name == "__init__.py" else here.rpartition(".")[0]
        for _ in range(node.level - 1):
            package = package.rpartition(".")[0]
        return f"{package}.{node.module}" if node.module else package

    # -- findings ------------------------------------------------------
    def unreached_modules(self) -> List[Path]:
        return [p for p in self.files.values() if p not in self.reached]

    def unnamed_definitions(self) -> List[Tuple[Path, ast.AST]]:
        """Top-level functions and classes of reached modules that no
        reached file names outside their own definition.  A package
        ``__init__`` that re-exports a name does not name it, unless the
        package is itself a product root (its exports are the product)."""
        used: Set[str] = set()
        for path, tree in self.trees.items():
            reexports = path.name != "__init__.py" or path in self.roots
            for top in tree.body:
                own = top.name if isinstance(top, DEFINITIONS) else None
                for node in ast.walk(top):
                    used.update(n for n in names_in(node, reexports) if n != own)
        findings = []
        for path in sorted(self.reached):
            module = self.by_path.get(path)
            if module is None:
                continue
            for top in self.trees[path].body:
                if (
                    isinstance(top, DEFINITIONS)
                    and top.name not in used
                    and (module, top.name) not in ALLOWED
                ):
                    findings.append((path, top))
        return findings


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_in(node: ast.AST, reexports: bool) -> Iterable[str]:
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.ImportFrom) and reexports:
        for alias in node.names:
            yield alias.name


def dotted_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def main() -> int:
    roots = [p for pattern, _ in PRODUCT_ROOTS for p in sorted(REPO.glob(pattern))]
    walk = Walk()
    walk.run(roots)
    findings = 0
    for path in walk.unreached_modules():
        lines = len(path.read_text().splitlines())
        print(f"unreached module: {path.relative_to(REPO)} ({lines} lines)")
        findings += 1
    for path, node in walk.unnamed_definitions():
        print(f"unnamed definition: {path.relative_to(REPO)}:{node.lineno} {node.name}")
        findings += 1
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
