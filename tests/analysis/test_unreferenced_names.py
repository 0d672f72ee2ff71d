"""Tier-1 gate: every function, class and method under src/repro is referenced.

A definition whose name appears nowhere in ``src/``, ``perfbench/``,
``benchmarks/`` or ``examples/`` except at the definition itself is code that
only tests run. The scan lists every top-level function and class of
``src/repro`` and every method of a top-level class, dunders excluded, and
counts each name as a word in every ``.py`` file of those trees: code,
strings (perfbench's probes and the jobs client's op names reach methods by
string), comments and docstrings alike.

Matching by name is coarse. It misses a dead method that shares its name with
a live one, or with any other word in those files.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
CALLER_TREES = ("src", "perfbench", "benchmarks", "examples")

#: Accessors that only tests call, kept because tests of kept code observe
#: through them (ROADMAP item 3).
ALLOWED_UNREFERENCED = {
    "TransitionSystem.to_networkx",
    "DPOBatchMetrics.as_dict",
    "Corpus.category_counts",
    "Tokenizer.newline_id",
    "Counterexample.finite_unrolling",
    "Trace.count_action",
    "Trace.propositions_seen",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(src: Path) -> dict:
    """``{qualified name: name}`` for every top-level function and class
    under ``src/repro`` and every non-dunder method of a top-level class."""
    found = {}
    for path in sorted((src / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (*_FUNCTIONS, ast.ClassDef)) and not _is_dunder(node.name):
                found[node.name] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _FUNCTIONS) and not _is_dunder(item.name):
                        found[f"{node.name}.{item.name}"] = item.name
    return found


def unreferenced(defined: dict, files) -> list:
    """The qualified names whose name occurs once in ``files``: at its definition."""
    counts: Counter = Counter()
    for path in files:
        counts.update(_WORD.findall(path.read_text()))
    return sorted(qualified for qualified, name in defined.items() if counts[name] <= 1)


def test_every_definition_is_referenced_outside_the_tests():
    files = [path for tree in CALLER_TREES for path in sorted((REPO / tree).rglob("*.py"))]
    found = unreferenced(definitions(REPO / "src"), files)
    assert ALLOWED_UNREFERENCED <= set(found), (
        f"allowlisted names that are gone or now referenced: {sorted(ALLOWED_UNREFERENCED - set(found))}"
    )
    dead = [name for name in found if name not in ALLOWED_UNREFERENCED]
    assert dead == [], (
        "definitions that nothing in src/, perfbench/, benchmarks/ or examples/ refers to, "
        f"so only tests run them: {', '.join(dead)}. Delete each, or give it a caller."
    )


def test_scan_counts_words_beyond_the_definition(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    module = package / "mod.py"
    module.write_text(
        "def used():\n    pass\n"
        "def unused():\n    pass\n"
        "class Box:\n"
        "    def __init__(self):\n        self.value = used()\n"
        "    def by_string(self):\n        pass\n"
        "    def dead(self):\n        pass\n"
    )
    caller = tmp_path / "caller.py"
    caller.write_text("from repro.mod import Box\ngetattr(Box(), 'by_string')()\n")
    defined = definitions(tmp_path / "src")
    assert set(defined) == {"used", "unused", "Box", "Box.by_string", "Box.dead"}
    assert unreferenced(defined, [module, caller]) == ["Box.dead", "unused"]
