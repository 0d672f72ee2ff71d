"""The rule catalogue: six AST rules distilled from bugs this repo actually had.

Each rule class has a ``rule_id``, a one-line ``description`` and a
``check(context)`` generator over :class:`~repro.analysis.engine.Finding`.
``docs/analysis.md`` documents the originating (fixed) bug behind every rule;
the short version:

==============================  =================================================
``atomic-write``                PR 2: ``FeedbackCache.save`` truncated the
                                persisted cache on crash until writes became
                                tmp + ``os.replace``; later, checkpoint
                                weights went to disk via a bare
                                ``np.savez_compressed(path, ...)``.
``falsy-default``               PR 3: ``evaluate_model(num_samples=0)`` and
                                ``FeedbackCache.load(max_entries=0)`` silently
                                became the defaults through ``x = arg or d``.
``unguarded-shared-mutation``   PR 6: ``ServingMetrics`` counters were mutated
                                off-lock by producer threads, losing increments.
``rebind-shared-container``     PR 6: ``ServingMetrics.reset()`` rebound
                                ``stage_seconds`` instead of clearing it,
                                stranding registry providers on a dead dict.
``nondeterministic-iteration``  Set iteration feeding score/pair/trace output
                                paths made byte-identical-output guarantees
                                depend on hash order.
``swallowed-exception``         PR 3: broken process pools degraded silently;
                                over-broad handlers that *drop* the error hide
                                exactly that class of failure.
==============================  =================================================
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import FileContext, Finding

#: Constructors recognised as thread-synchronisation primitives.
LOCK_CONSTRUCTORS = {
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
    "Lock",
    "RLock",
    "Condition",
}

#: Constructors/literals recognised as shared containers.
CONTAINER_CONSTRUCTORS = {
    "list",
    "dict",
    "set",
    "frozenset",
    "tuple",
    "deque",
    "collections.deque",
    "OrderedDict",
    "collections.OrderedDict",
    "defaultdict",
    "collections.defaultdict",
    "Counter",
    "collections.Counter",
    "WeakSet",
    "weakref.WeakSet",
}

#: Method names that mutate a container/file object in place.
MUTATING_METHODS = {
    "append",
    "appendleft",
    "add",
    "clear",
    "discard",
    "extend",
    "extendleft",
    "insert",
    "pop",
    "popleft",
    "popitem",
    "remove",
    "reverse",
    "rotate",
    "setdefault",
    "sort",
    "update",
    "write",
}


def dotted_name(node) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, or None for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def class_lock_attributes(cls: ast.ClassDef) -> set:
    """Names of ``self.<attr>`` synchronisation primitives a class owns.

    Detects both plain ``self._lock = threading.Lock()`` assignments in any
    method and dataclass-style class-level fields
    (``_lock: threading.RLock = field(default_factory=threading.RLock)``).
    """
    locks: set = set()
    for stmt in cls.body:
        # Dataclass field: the annotation or the default_factory names a lock.
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            annotation = dotted_name(stmt.annotation)
            if annotation in LOCK_CONSTRUCTORS:
                locks.add(stmt.target.id)
            elif isinstance(stmt.value, ast.Call):
                for keyword in stmt.value.keywords:
                    if keyword.arg == "default_factory" and dotted_name(keyword.value) in LOCK_CONSTRUCTORS:
                        locks.add(stmt.target.id)
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(stmt):
            if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
                continue
            if dotted_name(node.value.func) not in LOCK_CONSTRUCTORS:
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    locks.add(target.attr)
    return locks


def _with_acquires_lock(node, locks: set) -> bool:
    """Whether one ``with`` statement acquires any of the class's own locks."""
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Call):  # e.g. ``with self._cond_factory():``
            expr = expr.func
        name = dotted_name(expr)
        if name is not None and name.startswith("self.") and name[len("self."):] in locks:
            return True
    return False


class AtomicWriteRule:
    """Persistent-path writes must go through :mod:`repro.utils.atomic`.

    Flags ``open(..., "w"/"wb"/"w+")``, ``Path.open("w")``, ``.write_text()``,
    ``.write_bytes()`` and ``np.save`` / ``np.savez`` /
    ``np.savez_compressed`` on a path anywhere outside the whitelisted
    atomic-write helper module.  A crash (or a concurrent reader) mid-write
    must never observe a truncated artifact; the tmp + ``os.replace`` idiom
    lives in one place so every writer inherits it.  NumPy writers are clean
    when their target is an ``io.BytesIO`` buffer (later handed to
    ``write_bytes_atomic``).
    """

    rule_id = "atomic-write"
    description = "persistent-path write outside the tmp + os.replace idiom"

    #: The one module allowed to open files for (over)writing directly.
    WHITELIST_SUFFIXES = ("repro/utils/atomic.py",)

    #: NumPy functions that truncate and rewrite a file when given a path.
    NUMPY_WRITERS = {
        f"{module}.{name}" for module in ("np", "numpy") for name in ("save", "savez", "savez_compressed")
    }

    #: Constructors of in-memory buffers, safe targets for the NumPy writers.
    BUFFER_CONSTRUCTORS = {"io.BytesIO", "BytesIO"}

    def check(self, context: FileContext) -> Iterator[Finding]:
        """Yield findings for direct truncating writes in ``context``."""
        if context.posix_path.endswith(self.WHITELIST_SUFFIXES):
            return
        buffers = self._buffer_names(context.tree)
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            what = self._truncating_write(node, buffers)
            if what is not None:
                yield Finding(
                    file=context.path,
                    line=node.lineno,
                    rule_id=self.rule_id,
                    message=(
                        f"{what} writes in place — a crash mid-write corrupts the file; "
                        "use repro.utils.atomic (write_text_atomic / write_bytes_atomic / "
                        "dump_json_atomic; serialise NumPy archives into io.BytesIO first)"
                    ),
                )

    @classmethod
    def _is_buffer(cls, node) -> bool:
        return isinstance(node, ast.Call) and dotted_name(node.func) in cls.BUFFER_CONSTRUCTORS

    @classmethod
    def _buffer_names(cls, tree) -> set:
        """Names bound to an ``io.BytesIO()`` anywhere in the file (``=`` or ``with ... as``)."""
        names: set = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and cls._is_buffer(node.value):
                names.update(target.id for target in node.targets if isinstance(target, ast.Name))
            elif isinstance(node, ast.withitem) and cls._is_buffer(node.context_expr):
                if isinstance(node.optional_vars, ast.Name):
                    names.add(node.optional_vars.id)
        return names

    @classmethod
    def _truncating_write(cls, node: ast.Call, buffers: set) -> str | None:
        func = node.func
        name = dotted_name(func)
        if name in cls.NUMPY_WRITERS:
            target = node.args[0] if node.args else None
            for keyword in node.keywords:
                if keyword.arg == "file":
                    target = keyword.value
            if cls._is_buffer(target) or (isinstance(target, ast.Name) and target.id in buffers):
                return None
            return f"{name}() on a path"
        if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
            return f".{func.attr}()"
        mode = None
        if isinstance(func, ast.Name) and func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else None
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            mode = node.args[0] if node.args else None
        if mode is None:
            for keyword in node.keywords:
                if keyword.arg == "mode":
                    mode = keyword.value
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str) and "w" in mode.value:
            return f'open(mode="{mode.value}")'
        return None


class FalsyDefaultRule:
    """``x = arg or default`` turns a caller's 0 / empty collection into the default.

    Flags assignments whose value is ``<parameter> or <numeric/string/
    collection literal-or-constructor>``: an explicit ``0``, ``0.0``, ``""``
    or ``[]`` from the caller silently becomes the default.  Use
    ``if arg is None: arg = default`` instead.
    """

    rule_id = "falsy-default"
    description = "`param or default` default-ing that swallows falsy arguments"

    def check(self, context: FileContext) -> Iterator[Finding]:
        """Yield findings for or-defaulting of function parameters."""
        for func in ast.walk(context.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            arguments = func.args
            params = {
                arg.arg
                for arg in (
                    list(arguments.posonlyargs) + list(arguments.args) + list(arguments.kwonlyargs)
                )
            } - {"self", "cls"}
            for node in ast.walk(func):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                value = node.value
                if not (isinstance(value, ast.BoolOp) and isinstance(value.op, ast.Or)):
                    continue
                first = value.values[0]
                if not (isinstance(first, ast.Name) and first.id in params):
                    continue
                if any(self._falsy_swallowing_default(v) for v in value.values[1:]):
                    yield Finding(
                        file=context.path,
                        line=node.lineno,
                        rule_id=self.rule_id,
                        message=(
                            f"`{first.id} or <default>` treats a falsy argument (0, empty "
                            f"collection) as missing; use `if {first.id} is None` instead"
                        ),
                    )

    @staticmethod
    def _falsy_swallowing_default(node) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, (int, float, complex, str, bytes)) and not isinstance(
                node.value, bool
            )
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.Tuple)):
            return True
        if isinstance(node, ast.Call):
            return dotted_name(node.func) in CONTAINER_CONSTRUCTORS
        return False


class UnguardedSharedMutationRule:
    """Attributes guarded by a class's lock must never be mutated off-lock.

    For every class that owns a synchronisation primitive (``self._lock =
    threading.Lock()`` or a dataclass lock field), any attribute that is
    mutated inside a ``with self.<lock>:`` block *anywhere* in the class is
    considered lock-guarded.  Mutating such an attribute outside a lock block
    is then a finding — a half-guarded counter loses increments under
    concurrency, the exact bug ``ServingMetrics`` had.

    Two escape hatches keep the rule honest without suppression noise:
    ``__init__`` is exempt (no concurrent access before construction
    completes), and a *private* method is treated as running under the lock
    when every one of its same-class call sites is inside a lock block or
    inside another lock-held method (computed to a fixpoint) — or when its
    name ends in ``_locked``, the documented "caller must hold the lock"
    convention.
    """

    rule_id = "unguarded-shared-mutation"
    description = "lock-guarded attribute mutated outside the lock"

    def check(self, context: FileContext) -> Iterator[Finding]:
        """Yield findings for off-lock mutations of guarded attributes."""
        for cls in ast.walk(context.tree):
            if isinstance(cls, ast.ClassDef):
                yield from self._check_class(cls, context)

    # ------------------------------------------------------------------ #
    def _check_class(self, cls: ast.ClassDef, context: FileContext) -> Iterator[Finding]:
        locks = class_lock_attributes(cls)
        if not locks:
            return
        methods = [stmt for stmt in cls.body if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))]
        method_names = {method.name for method in methods}

        # Pass 1: every mutation and every same-class call, with held-lock state.
        mutations: dict = {}      # method name -> [(attr, line, held)]
        call_sites: dict = {}     # callee name -> [(caller name, held)]
        for method in methods:
            collected: list = []
            self._collect(method.body, locks, False, collected, call_sites, method.name, method_names)
            mutations[method.name] = collected

        # Pass 2: fixpoint over private methods whose every call site holds the lock.
        lock_held = {name for name in method_names if name.endswith("_locked")}
        changed = True
        while changed:
            changed = False
            for name in method_names:
                if name in lock_held or not name.startswith("_") or name.startswith("__"):
                    continue
                sites = call_sites.get(name, [])
                if sites and all(held or caller in lock_held for caller, held in sites):
                    lock_held.add(name)
                    changed = True

        # An attribute is lock-guarded when some mutation of it happens under
        # the lock: textually inside a with-block, inside a lock-held method,
        # or inside a method that at least one caller invokes while holding
        # the lock (a *mixed* call path — the other callers are the bug).
        sometimes_held = {
            name
            for name, sites in call_sites.items()
            if any(held or caller in lock_held for caller, held in sites)
        }
        guarded_attrs = {
            attr
            for method_name, per_method in mutations.items()
            for attr, _line, held in per_method
            if method_name != "__init__"
            and (held or method_name in lock_held or method_name in sometimes_held)
        } - locks

        for method in methods:
            if method.name == "__init__" or method.name in lock_held:
                continue
            for attr, line, held in mutations[method.name]:
                if not held and attr in guarded_attrs:
                    yield Finding(
                        file=context.path,
                        line=line,
                        rule_id=self.rule_id,
                        message=(
                            f"self.{attr} is mutated under {cls.name}'s lock elsewhere but "
                            f"not here — unsynchronised updates can be lost; take the lock "
                            "(or suffix the method `_locked` if the caller must hold it)"
                        ),
                    )

    def _collect(self, stmts, locks, held, out, call_sites, method_name, method_names) -> None:
        for stmt in stmts:
            self._collect_node(stmt, locks, held, out, call_sites, method_name, method_names)

    def _collect_node(self, node, locks, held, out, call_sites, method_name, method_names) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            return  # nested scopes run later, under unknown lock state
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner_held = held or _with_acquires_lock(node, locks)
            for item in node.items:
                self._collect_node(
                    item.context_expr, locks, held, out, call_sites, method_name, method_names
                )
            self._collect(node.body, locks, inner_held, out, call_sites, method_name, method_names)
            return
        for attr in self._mutated_attrs(node):
            out.append((attr, node.lineno, held))
        if isinstance(node, ast.Call):
            callee = dotted_name(node.func)
            if callee is not None and callee.startswith("self."):
                name = callee[len("self."):]
                if name in method_names:
                    call_sites.setdefault(name, []).append((method_name, held))
        for child in ast.iter_child_nodes(node):
            self._collect_node(child, locks, held, out, call_sites, method_name, method_names)

    @staticmethod
    def _mutated_attrs(node) -> Iterator[str]:
        def self_attr(target) -> str | None:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                return target.attr
            return None

        targets: list = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        flattened: list = []
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets.extend(target.elts)
            elif isinstance(target, ast.Starred):
                targets.append(target.value)
            else:
                flattened.append(target)
        for target in flattened:
            attr = self_attr(target)
            if attr is not None:
                yield attr
            elif isinstance(target, ast.Subscript):  # self.x[k] = v mutates self.x
                attr = self_attr(target.value)
                if attr is not None:
                    yield attr
        # In-place mutating method calls: self.x.append(...), self.x.clear(), ...
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATING_METHODS:
                attr = self_attr(node.func.value)
                if attr is not None:
                    yield attr


class RebindSharedContainerRule:
    """Clearing shared state by rebinding strands everyone holding the old object.

    For any class whose ``__init__`` binds ``self.<attr>`` to a container,
    assigning that attribute a *fresh empty* container in another method is a
    finding: a telemetry provider, a test, or another thread holding the old
    container keeps observing stale state forever.  Mutate in place
    (``.clear()``) instead — the bug ``ServingMetrics.reset()`` had with
    ``stage_seconds``.
    """

    rule_id = "rebind-shared-container"
    description = "shared container cleared by rebinding instead of .clear()"

    def check(self, context: FileContext) -> Iterator[Finding]:
        """Yield findings for empty-container rebinds of ``__init__`` containers."""
        for cls in ast.walk(context.tree):
            if isinstance(cls, ast.ClassDef):
                yield from self._check_class(cls, context)

    def _check_class(self, cls: ast.ClassDef, context: FileContext) -> Iterator[Finding]:
        container_attrs = self._init_container_attrs(cls)
        if not container_attrs:
            return
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name == "__init__":
                continue
            for node in ast.walk(method):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                if not self._is_empty_container(node.value):
                    continue
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in self._flat_targets(targets):
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and target.attr in container_attrs
                    ):
                        yield Finding(
                            file=context.path,
                            line=node.lineno,
                            rule_id=self.rule_id,
                            message=(
                                f"self.{target.attr} is rebound to a fresh container — "
                                "holders of the old one keep stale state; mutate in place "
                                "with .clear()"
                            ),
                        )

    @staticmethod
    def _flat_targets(targets) -> Iterator:
        stack = list(targets)
        while stack:
            target = stack.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                stack.extend(target.elts)
            else:
                yield target

    @classmethod
    def _init_container_attrs(cls_, cls: ast.ClassDef) -> set:
        attrs: set = set()
        for stmt in cls.body:
            # Dataclass container fields: x: dict = field(default_factory=dict)
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                if isinstance(stmt.value, ast.Call):
                    for keyword in stmt.value.keywords:
                        if (
                            keyword.arg == "default_factory"
                            and dotted_name(keyword.value) in CONTAINER_CONSTRUCTORS
                        ):
                            attrs.add(stmt.target.id)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt.name == "__init__":
                for node in ast.walk(stmt):
                    if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                        continue
                    if not cls_._is_container_value(node.value):
                        continue
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for target in cls_._flat_targets(targets):
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            attrs.add(target.attr)
        return attrs

    @staticmethod
    def _is_container_value(node) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        return isinstance(node, ast.Call) and dotted_name(node.func) in CONTAINER_CONSTRUCTORS

    @staticmethod
    def _is_empty_container(node) -> bool:
        if isinstance(node, (ast.List, ast.Set)) and not node.elts:
            return True
        if isinstance(node, ast.Dict) and not node.keys:
            return True
        if (
            isinstance(node, ast.Call)
            and not node.args
            and not node.keywords
            and dotted_name(node.func) in CONTAINER_CONSTRUCTORS
        ):
            return True
        return False


class NondeterministicIterationRule:
    """Iterating a set where order reaches output makes results hash-order-dependent.

    Flags ``for``-loop iterables, comprehension sources and ``list()`` /
    ``tuple()`` / ``enumerate()`` / ``str.join()`` arguments that are
    syntactically sets (literals, set comprehensions, ``set(...)`` /
    ``frozenset(...)`` calls).  Scores, pairs and traces are promised to be
    byte-identical across runs; wrap the set in ``sorted(...)`` to keep that
    promise.  Order-insensitive folds (``sum``, ``len``, ``any``, membership
    tests, another ``set(...)``) are not flagged.
    """

    rule_id = "nondeterministic-iteration"
    description = "unordered set iterated into an order-sensitive context"

    _ORDER_SENSITIVE_CALLS = {"list", "tuple", "enumerate"}

    def check(self, context: FileContext) -> Iterator[Finding]:
        """Yield findings for order-sensitive iteration over set expressions."""
        for node in ast.walk(context.tree):
            iterables: list = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iterables.extend(generator.iter for generator in node.generators)
            elif isinstance(node, ast.Call):
                func_name = dotted_name(node.func)
                if func_name in self._ORDER_SENSITIVE_CALLS or (
                    isinstance(node.func, ast.Attribute) and node.func.attr == "join"
                ):
                    iterables.extend(node.args[:1])
            for iterable in iterables:
                if self._is_set_expression(iterable):
                    yield Finding(
                        file=context.path,
                        line=iterable.lineno,
                        rule_id=self.rule_id,
                        message=(
                            "iterating an unordered set here makes the result depend on "
                            "hash order; wrap it in sorted(...) for a deterministic order"
                        ),
                    )

    @staticmethod
    def _is_set_expression(node) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return isinstance(node, ast.Call) and dotted_name(node.func) in {"set", "frozenset"}


class SwallowedExceptionRule:
    """Over-broad handlers that drop the error hide worker/stream failures.

    Flags bare ``except:`` unconditionally, and ``except Exception`` /
    ``except BaseException`` handlers whose body neither re-raises, uses the
    bound exception, nor calls anything — the error is simply discarded.
    Dispatcher, worker-pool and stream code must either handle the specific
    exceptions it expects or propagate; a verification error silently
    swallowed becomes a wrong score.
    """

    rule_id = "swallowed-exception"
    description = "bare/over-broad except that drops the error"

    def check(self, context: FileContext) -> Iterator[Finding]:
        """Yield findings for error-dropping broad exception handlers."""
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield Finding(
                    file=context.path,
                    line=node.lineno,
                    rule_id=self.rule_id,
                    message="bare `except:` catches everything (even KeyboardInterrupt); "
                    "name the exception types this code can actually handle",
                )
                continue
            if not self._is_broad(node.type):
                continue
            if self._body_handles_error(node):
                continue
            caught = dotted_name(node.type) or "Exception"
            yield Finding(
                file=context.path,
                line=node.lineno,
                rule_id=self.rule_id,
                message=(
                    f"`except {caught}` drops the error without re-raising, logging or "
                    "using it — narrow the exception types or propagate the failure"
                ),
            )

    @staticmethod
    def _is_broad(type_node) -> bool:
        def broad(node) -> bool:
            return (dotted_name(node) or "").split(".")[-1] in ("Exception", "BaseException")

        if isinstance(type_node, ast.Tuple):
            return any(broad(element) for element in type_node.elts)
        return broad(type_node)

    @staticmethod
    def _body_handles_error(handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(ast.Module(body=list(handler.body), type_ignores=[])):
            if isinstance(node, (ast.Raise, ast.Call)):
                return True
            if handler.name and isinstance(node, ast.Name) and node.id == handler.name:
                return True
        return False


#: The rules ``repro-lint`` (and the tier-1 clean-tree test) run by default.
DEFAULT_RULES = (
    AtomicWriteRule,
    FalsyDefaultRule,
    UnguardedSharedMutationRule,
    RebindSharedContainerRule,
    NondeterministicIterationRule,
    SwallowedExceptionRule,
)


def default_rules() -> list:
    """Fresh instances of every rule in :data:`DEFAULT_RULES`."""
    return [rule() for rule in DEFAULT_RULES]
