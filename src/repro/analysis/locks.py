"""Static lock-order analysis: nested ``with <lock>:`` acquisitions as a graph.

Deadlock by lock-order inversion is the one concurrency bug a test suite is
worst at catching — it needs two threads to interleave exactly wrongly, once.
This module extracts the *acquisition-order graph* statically instead: every
``with self.<lock>:`` (or ``with self.<lock_factory>():``) block that acquires
another lock inside its body — directly, or through a same-class method call
whose (transitively computed) summary acquires one — contributes an edge
``outer → inner``.  A cycle in that graph means two call paths acquire the
same locks in opposite orders: a potential deadlock, reported as a
``lock-order-cycle`` finding.

Lock identity is ``ClassName.attribute`` (module-level locks use the bare
name).  An attribute counts as a lock when the class assigns it a
``threading`` synchronisation primitive (via
:func:`repro.analysis.rules.class_lock_attributes` — dataclass lock fields
included) or when its name says so (``lock`` / ``cond`` / ``mutex`` /
``sem``), which also covers contextmanager *methods* such as a
``self._shard_lock(path)`` factory.  Distinct instances of one class are
conflated — the usual conservative approximation.  Re-entrant self-edges
(``L → L``, legal on ``RLock``/``Condition``) are excluded from the graph.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass

from repro.analysis.engine import Finding
from repro.analysis.rules import class_lock_attributes, dotted_name

#: Rule id stamped on cycle findings.
LOCK_CYCLE_RULE_ID = "lock-order-cycle"

#: Attribute/function names that read as synchronisation primitives.
_LOCKISH_NAME = re.compile(r"lock|cond|mutex|sem", re.IGNORECASE)


@dataclass(frozen=True, order=True)
class LockAcquisition:
    """One ``with``-statement acquisition of a named lock."""

    lock: str
    file: str
    line: int
    function: str

    def to_dict(self) -> dict:
        """JSON-friendly record for the ``--format json`` lock-order section."""
        return {"lock": self.lock, "file": self.file, "line": self.line, "function": self.function}


@dataclass(frozen=True, order=True)
class LockEdge:
    """``outer`` was held while ``inner`` was acquired (at ``file:line``)."""

    outer: str
    inner: str
    file: str
    line: int
    via: str = ""  # the method call the acquisition was reached through, if any

    def to_dict(self) -> dict:
        """JSON-friendly record for the ``--format json`` lock-order section."""
        return {
            "outer": self.outer,
            "inner": self.inner,
            "file": self.file,
            "line": self.line,
            "via": self.via,
        }


class LockOrderAnalyzer:
    """Accumulates acquisitions/edges over files; reports ordering cycles.

    Feed it files with :meth:`add_file`, then read :attr:`acquisitions`,
    :attr:`edges`, :meth:`graph`, :meth:`cycles` and :meth:`findings`.
    """

    def __init__(self):
        self.acquisitions: list = []
        self.edges: list = []
        self._edge_keys: set = set()

    # ------------------------------------------------------------------ #
    def add_file(self, path: str, source: str) -> None:
        """Extract acquisitions and ordering edges from one source file.

        Files that do not parse are skipped — the engine already reports a
        ``syntax-error`` finding for them.
        """
        try:
            tree = ast.parse(source)
        except SyntaxError:
            return
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                self._add_class(path, node)
        # Module-level functions: bare-name locks only.
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._walk_function(path, node, owner=None, lock_attrs=set(), summaries={})

    # ------------------------------------------------------------------ #
    def _add_class(self, path: str, cls: ast.ClassDef) -> None:
        lock_attrs = class_lock_attributes(cls)
        methods = {
            stmt.name: stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }

        # Pass 1: per-method direct acquisitions + same-class calls, then a
        # fixpoint for transitive summaries (locks reachable by calling m).
        direct: dict = {}
        calls: dict = {}
        for name, method in methods.items():
            acquired: set = set()
            called: set = set()
            for node in ast.walk(method):
                if isinstance(node, (ast.With, ast.AsyncWith)):
                    for item in node.items:
                        lock = self._lock_of(item.context_expr, cls.name, lock_attrs)
                        if lock is not None:
                            acquired.add(lock)
                elif isinstance(node, ast.Call):
                    callee = dotted_name(node.func)
                    if callee and callee.startswith("self.") and callee[5:] in methods:
                        called.add(callee[5:])
            direct[name] = acquired
            calls[name] = called
        summaries = {name: set(acquired) for name, acquired in direct.items()}
        changed = True
        while changed:
            changed = False
            for name in summaries:
                merged = set(summaries[name])
                for callee in calls[name]:
                    merged |= summaries[callee]
                if merged != summaries[name]:
                    summaries[name] = merged
                    changed = True

        # Pass 2: walk each method with the held-lock stack, emitting edges.
        for name, method in methods.items():
            self._walk_function(path, method, owner=cls.name, lock_attrs=lock_attrs, summaries=summaries)

    def _lock_of(self, expr, owner: str | None, lock_attrs: set) -> str | None:
        """The lock id a ``with``-item acquires, or None if it is not a lock."""
        if isinstance(expr, ast.Call):  # contextmanager factories: self._store_lock(x)
            expr = expr.func
        name = dotted_name(expr)
        if name is None:
            return None
        if owner is not None:
            if not name.startswith("self."):
                return None
            attr = name[5:]
            if "." in attr:  # self.a.b — another object's lock; out of scope
                return None
            if attr in lock_attrs or _LOCKISH_NAME.search(attr):
                return f"{owner}.{attr}"
            return None
        if "." not in name and _LOCKISH_NAME.search(name):
            return name
        return None

    def _walk_function(self, path, func, *, owner, lock_attrs, summaries) -> None:
        def visit(node, held: tuple) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
                return  # nested scopes execute later, under unknown lock state
            if isinstance(node, (ast.With, ast.AsyncWith)):
                stack = held
                for item in node.items:
                    visit(item.context_expr, stack)
                    lock = self._lock_of(item.context_expr, owner, lock_attrs)
                    if lock is not None:
                        self.acquisitions.append(
                            LockAcquisition(lock=lock, file=path, line=node.lineno, function=func.name)
                        )
                        self._emit_edges(stack, lock, path, node.lineno, via="")
                        stack = stack + (lock,)
                for stmt in node.body:
                    visit(stmt, stack)
                return
            if held and isinstance(node, ast.Call):
                callee = dotted_name(node.func)
                if callee and callee.startswith("self.") and callee[5:] in summaries:
                    for lock in sorted(summaries[callee[5:]]):
                        self._emit_edges(held, lock, path, node.lineno, via=callee)
            for child in ast.iter_child_nodes(node):
                visit(child, held)

        for stmt in func.body:
            visit(stmt, ())

    def _emit_edges(self, held: tuple, inner: str, path: str, line: int, *, via: str) -> None:
        for outer in held:
            if outer == inner:  # re-entrant acquisition (RLock/Condition); not an order edge
                continue
            key = (outer, inner)
            if key not in self._edge_keys:
                self._edge_keys.add(key)
                self.edges.append(LockEdge(outer=outer, inner=inner, file=path, line=line, via=via))

    # ------------------------------------------------------------------ #
    def graph(self) -> dict:
        """Adjacency mapping ``{outer: sorted([inner, ...])}`` of the order graph."""
        adjacency: dict = {}
        for edge in self.edges:
            adjacency.setdefault(edge.outer, set()).add(edge.inner)
        return {outer: sorted(inners) for outer, inners in sorted(adjacency.items())}

    def cycles(self) -> list:
        """Every distinct acquisition-order cycle, as a list of lock names.

        Each cycle is rotated to start at its lexicographically smallest
        member, so the report is deterministic across runs.
        """
        adjacency = {outer: set(inners) for outer, inners in self.graph().items()}
        WHITE, GREY, BLACK = 0, 1, 2
        color = {lock: WHITE for lock in adjacency}
        found: list = []
        seen_keys: set = set()
        stack: list = []

        def dfs(lock: str) -> None:
            color[lock] = GREY
            stack.append(lock)
            for nxt in sorted(adjacency.get(lock, ())):
                if color.get(nxt, WHITE) == GREY:
                    cycle = stack[stack.index(nxt):]
                    pivot = cycle.index(min(cycle))
                    normalized = tuple(cycle[pivot:] + cycle[:pivot])
                    if normalized not in seen_keys:
                        seen_keys.add(normalized)
                        found.append(list(normalized))
                elif color.get(nxt, WHITE) == WHITE and nxt in adjacency:
                    dfs(nxt)
                elif color.get(nxt, WHITE) == WHITE:
                    color[nxt] = BLACK  # sink: no outgoing edges, cannot close a cycle
            stack.pop()
            color[lock] = BLACK

        for lock in sorted(adjacency):
            if color[lock] == WHITE:
                dfs(lock)
        return found

    def findings(self) -> list:
        """One ``lock-order-cycle`` finding per cycle, anchored at an edge site."""
        findings = []
        edge_at = {(edge.outer, edge.inner): edge for edge in self.edges}
        for cycle in self.cycles():
            pairs = list(zip(cycle, cycle[1:] + cycle[:1]))
            anchor = next((edge_at[pair] for pair in pairs if pair in edge_at), None)
            path = " -> ".join(cycle + [cycle[0]])
            findings.append(
                Finding(
                    file=anchor.file if anchor else "<unknown>",
                    line=anchor.line if anchor else 0,
                    rule_id=LOCK_CYCLE_RULE_ID,
                    message=(
                        f"lock acquisition order cycle {path}: two call paths take these "
                        "locks in opposite orders — a potential deadlock; pick one global "
                        "order and restructure the inner acquisition"
                    ),
                )
            )
        return findings
