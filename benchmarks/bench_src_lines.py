"""Size of ``src/`` and the modules nothing imports.

Usage::

    PYTHONPATH=src python benchmarks/bench_src_lines.py

Writes ``results/BENCH_src.json`` with

* ``src_lines`` — physical lines of every ``.py`` file under ``src/``;
* ``unimported`` — the ``src/`` modules that no file in ``src/``,
  ``benchmarks/``, ``perfbench/`` or ``examples/`` imports, each with its
  line count.  An import by the module's own package ``__init__`` does not
  count; a name imported from a package counts for the module that
  package re-exports it from.  Packages and ``__main__`` modules are entry
  points and are not listed.

``src_lines`` is context for the size of the code base, not a gate.
``unimported`` is a gate: the script exits 1 when any module is listed,
so ``make bench-smoke`` (and ``make ci``) fail when a module that only
its own tests import comes back.  Join such a module to a production
path, or delete it with its tests (keep test-only helpers under
``tests/support/``).
"""

from __future__ import annotations

import ast
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONSUMERS = ("src", "benchmarks", "perfbench", "examples")


def module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imported_names(tree: ast.AST) -> list[tuple[str, str | None]]:
    """``(module, name)`` for every import; ``name`` is None for ``import m``.

    Module names passed as strings (``importlib.import_module("m")``) count
    as ``import m``.
    """
    found: list[tuple[str, str | None]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.startswith("repro.") and node.value.replace(".", "").replace("_", "").isalnum():
                found.append((node.value, None))
    return found


def main() -> dict:
    sources = {module_name(p): p for p in sorted(SRC.rglob("*.py"))}
    trees = {name: ast.parse(path.read_text()) for name, path in sources.items()}

    # names a package __init__ re-exports, mapped to the module defining them
    reexports: dict[tuple[str, str], str] = {}
    for name, path in sources.items():
        if path.name == "__init__.py":
            for module, attr in imported_names(trees[name]):
                if attr is not None and module.startswith(name + "."):
                    reexports[(name, attr)] = module

    importers: dict[str, set[str]] = {name: set() for name in sources}
    files = [p for d in CONSUMERS for p in sorted((ROOT / d).rglob("*.py"))]
    for path in files:
        in_src = path.is_relative_to(SRC)
        importer = module_name(path) if in_src else str(path.relative_to(ROOT))
        tree = trees[importer] if in_src else ast.parse(path.read_text())
        for module, attr in imported_names(tree):
            targets = [module]
            if attr is not None:
                targets.append(f"{module}.{attr}")
                targets.append(reexports.get((module, attr), ""))
            for target in targets:
                if target in importers and target != importer:
                    importers[target].add(importer)

    def package_of(name: str) -> str:
        return name.rpartition(".")[0]

    unimported = {
        name: len(sources[name].read_text().splitlines())
        for name, users in importers.items()
        if sources[name].name not in ("__init__.py", "__main__.py")
        and not (users - {package_of(name)})
    }
    record = {
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources.values()),
        "src_modules": len(sources),
        "unimported": unimported,
        "unimported_lines": sum(unimported.values()),
    }
    out = ROOT / "results" / "BENCH_src.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(record, indent=2, sort_keys=True))
    print(f"[saved to {out.relative_to(ROOT)}]")
    return record


if __name__ == "__main__":
    unimported = main()["unimported"]
    if unimported:
        print(f"FAIL: src/ modules only tests import: {', '.join(sorted(unimported))}")
        sys.exit(1)
