"""Tier-1 gate: every field of a ``*Config`` dataclass is set by some caller.

A field that no caller sets has one value in use, so it is a constant, not a
setting. The scan reads ``src/``, ``perfbench/`` and ``benchmarks/`` (not
tests, not examples). For each ``*Config`` dataclass defined under
``src/repro`` it counts the keyword and positional arguments of every call to
the class, plus every keyword of a ``dataclasses.replace`` call, matched by
field name whatever the class.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
CALLER_TREES = ("src", "perfbench", "benchmarks")

#: Fields no caller sets that stay settings anyway.
ALLOWED_UNSET = {
    # perfbench's frontier gate reads both, and files under perfbench/ change
    # only with the benchmark: they become constants in that change.
    "SamplingConfig.temperature",
    "SamplingConfig.top_k",
}


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        _name(decorator.func if isinstance(decorator, ast.Call) else decorator) == "dataclass"
        for decorator in node.decorator_list
    )


def _is_replace(func) -> bool:
    """``replace(...)`` (imported from dataclasses) or ``dataclasses.replace(...)``."""
    if isinstance(func, ast.Attribute):
        return func.attr == "replace" and _name(func.value) == "dataclasses"
    return _name(func) == "replace"


def config_fields(src: Path) -> dict:
    """``{class name: [field, ...]}`` for every ``*Config`` dataclass under ``src/repro``."""
    classes = {}
    for path in sorted((src / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and node.name.endswith("Config") and _is_dataclass(node):
                classes[node.name] = [
                    statement.target.id
                    for statement in node.body
                    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)
                ]
    return classes


def set_fields(classes: dict, files) -> set:
    """``Class.field`` for every field that some call in ``files`` sets."""
    found, replaced = set(), set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            keywords = {keyword.arg for keyword in node.keywords if keyword.arg is not None}
            name = _name(node.func)
            if name in classes:
                fields = classes[name]
                positional = [arg for arg in node.args if not isinstance(arg, ast.Starred)]
                found.update(f"{name}.{field}" for field in fields[: len(positional)])
                found.update(f"{name}.{field}" for field in fields if field in keywords)
            elif _is_replace(node.func):
                replaced |= keywords
    found.update(
        f"{name}.{field}" for name, fields in classes.items() for field in fields if field in replaced
    )
    return found


def test_every_config_field_has_a_non_test_setter():
    classes = config_fields(REPO / "src")
    assert {"PipelineConfig", "FeedbackConfig", "ServingConfig", "PretrainConfig"} <= set(classes)
    every = {f"{name}.{field}" for name, fields in classes.items() for field in fields}
    files = [path for tree in CALLER_TREES for path in sorted((REPO / tree).rglob("*.py"))]
    found = set_fields(classes, files)
    assert ALLOWED_UNSET <= every - found, (
        f"allowlisted fields that are gone or now set: {sorted(ALLOWED_UNSET - (every - found))}"
    )
    unset = sorted(every - found - ALLOWED_UNSET)
    assert unset == [], (
        "config fields that no src/, perfbench/ or benchmarks/ caller sets, so each has "
        f"one value in use: {', '.join(unset)}. Make each a constant at that value."
    )


def test_scan_counts_keywords_positionals_and_replace(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "conf.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class AConfig:\n    first: int = 0\n    second: int = 0\n    third: int = 0\n    fourth: int = 0\n"
        "class PlainConfig:\n    ignored: int = 0\n"
    )
    caller = tmp_path / "caller.py"
    caller.write_text(
        "import dataclasses\n"
        "from repro import conf\n"
        "a = conf.AConfig(1, third=3)\n"
        "b = dataclasses.replace(a, fourth=4)\n"
    )
    classes = config_fields(tmp_path / "src")
    assert classes == {"AConfig": ["first", "second", "third", "fourth"]}
    assert set_fields(classes, [caller]) == {"AConfig.first", "AConfig.third", "AConfig.fourth"}
