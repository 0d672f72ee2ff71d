"""Tier-1 gate: every module under src/repro is imported by something that runs.

A module that only tests import is code no user path runs. The walk follows
``import``/``from`` statements (deferred imports inside functions included)
from three kinds of root: the ``repro`` package itself, the console scripts
declared in ``setup.py``, and every module that a file under ``perfbench/``,
``examples/`` or ``benchmarks/`` imports. Importing ``a.b.c`` runs ``a`` and
``a.b`` first, so it reaches all three.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
NON_TEST_TREES = ("perfbench", "examples", "benchmarks")


def module_files(src: Path) -> dict:
    """Dotted module name -> source file, for every module under ``src/repro``."""
    files = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


def imported_names(path: Path) -> set:
    """Every dotted name an import statement in ``path`` may load as a module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def _with_parents(name: str) -> list:
    parts = name.split(".")
    return [".".join(parts[:end]) for end in range(1, len(parts) + 1)]


def unreached_modules(src: Path, roots) -> list:
    """Modules under ``src/repro`` that no chain of imports from ``roots`` loads."""
    modules = module_files(src)
    reached = set()
    frontier = [name for root in roots for name in _with_parents(root)]
    while frontier:
        name = frontier.pop()
        if name in reached or name not in modules:
            continue
        reached.add(name)
        for imported in imported_names(modules[name]):
            frontier.extend(_with_parents(imported))
    return sorted(set(modules) - reached)


def console_script_modules(setup_py: Path) -> list:
    """The module of every ``console_scripts`` entry point in ``setup.py``."""
    for node in ast.walk(ast.parse(setup_py.read_text())):
        if isinstance(node, ast.keyword) and node.arg == "entry_points":
            scripts = ast.literal_eval(node.value)["console_scripts"]
            return [script.split("=", 1)[1].split(":", 1)[0].strip() for script in scripts]
    return []


def test_every_repro_module_is_reached_from_a_non_test_root():
    scripts = console_script_modules(REPO / "setup.py")
    assert len(scripts) == 3, scripts
    roots = ["repro", *scripts]
    for tree in NON_TEST_TREES:
        for path in sorted((REPO / tree).rglob("*.py")):
            roots.extend(imported_names(path))
    orphans = unreached_modules(REPO / "src", roots)
    assert orphans == [], (
        "modules under src/repro that no package import, console script, "
        f"perfbench/, examples/ or benchmarks/ file reaches: {', '.join(orphans)}. "
        "Delete them with their tests, or import them from a path that runs."
    )


def test_walk_follows_deferred_imports_and_parent_packages(tmp_path):
    package = tmp_path / "repro"
    (package / "sub").mkdir(parents=True)
    files = {
        "__init__.py": "from repro.eager import thing\n",
        "eager.py": "def thing():\n    from repro.deferred import other\n    return other\n",
        "deferred.py": "other = 1\n",
        "sub/__init__.py": "",
        "sub/leaf.py": "import repro.sub.deep\n",
        "sub/deep.py": "",
        "orphan.py": "import repro.eager\n",
    }
    for name, text in files.items():
        (package / name).write_text(text)
    assert unreached_modules(tmp_path, ["repro"]) == ["repro.orphan", "repro.sub", "repro.sub.deep", "repro.sub.leaf"]
    assert unreached_modules(tmp_path, ["repro", "repro.sub.leaf"]) == ["repro.orphan"]
