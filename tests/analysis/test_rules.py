"""Per-rule tests: every rule catches its seeded violation and passes a clean twin.

Each bad fixture is a miniature of the real (fixed) bug the rule was distilled
from; each clean twin is the shape the fix produced.  A rule that cannot tell
the two apart is either blind or noisy.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import analyze_source
from repro.analysis.rules import (
    DEFAULT_RULES,
    AtomicWriteRule,
    FalsyDefaultRule,
    NondeterministicIterationRule,
    RebindSharedContainerRule,
    SwallowedExceptionRule,
    UnguardedSharedMutationRule,
    class_lock_attributes,
    default_rules,
    dotted_name,
)


def check(rule, code: str, path: str = "pkg/module.py") -> list:
    """Findings of one rule over a dedented source snippet."""
    return analyze_source(textwrap.dedent(code).lstrip("\n"), path, [rule])


class TestAtomicWrite:
    def test_flags_write_text(self):
        (finding,) = check(AtomicWriteRule(), "path.write_text(data)\n")
        assert finding.rule_id == "atomic-write"

    def test_flags_write_bytes(self):
        (finding,) = check(AtomicWriteRule(), "path.write_bytes(data)\n")
        assert finding.rule_id == "atomic-write"

    def test_flags_builtin_open_w(self):
        (finding,) = check(AtomicWriteRule(), 'f = open(p, "w")\n')
        assert "w" in finding.message

    def test_flags_path_open_w_and_mode_keyword(self):
        assert check(AtomicWriteRule(), 'f = p.open("w")\n')
        assert check(AtomicWriteRule(), 'f = open(p, mode="wb")\n')

    def test_clean_twins_read_append_and_atomic_helper(self):
        clean = """
        from repro.utils.atomic import write_text_atomic

        def save(path, text):
            write_text_atomic(path, text)
            with path.open() as f:        # read
                f.read()
            with path.open("a") as f:     # append never truncates
                f.write(text)
        """
        assert check(AtomicWriteRule(), clean) == []

    def test_flags_numpy_save_on_a_path(self):
        """The checkpoint bug: weights written in place next to atomic JSON."""
        (finding,) = check(
            AtomicWriteRule(),
            """
            import numpy as np

            def save_model(state, directory):
                np.savez_compressed(directory / "weights.npz", **state)
            """,
        )
        assert "np.savez_compressed" in finding.message
        assert check(AtomicWriteRule(), 'np.save("w.npy", array)\n')
        assert check(AtomicWriteRule(), "numpy.savez(file=path, a=array)\n")

    def test_clean_twin_saves_numpy_into_a_buffer(self):
        clean = """
        import io

        import numpy as np
        from repro.utils.atomic import write_bytes_atomic

        def save_model(state, directory):
            weights = io.BytesIO()
            np.savez_compressed(weights, **state)
            write_bytes_atomic(directory / "weights.npz", weights.getvalue())

        def save_array(array, path):
            with io.BytesIO() as buffer:
                np.save(buffer, array)
                write_bytes_atomic(path, buffer.getvalue())

        def encode(array, state, path):
            np.save(io.BytesIO(), array)
            np.savez(file=io.BytesIO(), **state)
            return np.load(path)          # readers never truncate
        """
        assert check(AtomicWriteRule(), clean) == []

    def test_a_buffer_elsewhere_does_not_excuse_a_path_target(self):
        (finding,) = check(
            AtomicWriteRule(),
            """
            import io

            import numpy as np

            def save(array, path):
                buffer = io.BytesIO()
                np.save(buffer, array)
                np.save(path, array)
            """,
        )
        assert finding.line == 8 and "np.save() on a path" in finding.message

    def test_whitelisted_module_is_exempt(self):
        source = "path.write_text(data)\n"
        assert check(AtomicWriteRule(), source, path="src/repro/utils/atomic.py") == []
        assert check(AtomicWriteRule(), source, path="src/repro/utils/other.py")


class TestFalsyDefault:
    def test_flags_or_default_of_parameter(self):
        bad = """
        def evaluate(num_samples=None):
            num_samples = num_samples or 25
            return num_samples
        """
        (finding,) = check(FalsyDefaultRule(), bad)
        assert finding.rule_id == "falsy-default"
        assert "num_samples" in finding.message

    def test_flags_container_defaults(self):
        bad = """
        def load(entries=None, names=None):
            entries = entries or []
            names = names or dict()
            return entries, names
        """
        assert len(check(FalsyDefaultRule(), bad)) == 2

    def test_clean_twin_uses_is_none(self):
        clean = """
        def evaluate(num_samples=None):
            if num_samples is None:
                num_samples = 25
            return num_samples
        """
        assert check(FalsyDefaultRule(), clean) == []

    def test_or_between_locals_is_not_flagged(self):
        clean = """
        def pick(flag=None):
            fallback = 25
            chosen = fallback or 30   # not a parameter
            other = flag or compute() # not a literal default
            return chosen, other
        """
        assert check(FalsyDefaultRule(), clean) == []


class TestUnguardedSharedMutation:
    BAD = """
    import threading

    class Metrics:
        def __init__(self):
            self._lock = threading.Lock()
            self.hits = 0

        def record_hit(self):
            with self._lock:
                self.hits += 1

        def record_hit_fast(self):
            self.hits += 1     # off-lock: the ServingMetrics bug
    """

    def test_flags_off_lock_mutation_of_guarded_attr(self):
        (finding,) = check(UnguardedSharedMutationRule(), self.BAD)
        assert finding.rule_id == "unguarded-shared-mutation"
        assert "self.hits" in finding.message

    def test_clean_twin_takes_the_lock_everywhere(self):
        clean = """
        import threading

        class Metrics:
            def __init__(self):
                self._lock = threading.Lock()
                self.hits = 0

            def record_hit(self):
                with self._lock:
                    self.hits += 1

            def record_hit_fast(self):
                with self._lock:
                    self.hits += 1
        """
        assert check(UnguardedSharedMutationRule(), clean) == []

    def test_init_is_exempt(self):
        # The single finding is the off-lock bump in record_hit_fast; the
        # unguarded `self.hits = 0` in __init__ is never reported.
        (finding,) = check(UnguardedSharedMutationRule(), self.BAD)
        assert finding.line == 13

    def test_locked_suffix_convention_is_honoured(self):
        clean = """
        import threading

        class Metrics:
            def __init__(self):
                self._lock = threading.Lock()
                self.hits = 0

            def record(self):
                with self._lock:
                    self._bump_locked()

            def _bump_locked(self):
                self.hits += 1
        """
        assert check(UnguardedSharedMutationRule(), clean) == []

    def test_private_method_called_only_under_lock_is_exempt(self):
        clean = """
        import threading

        class Metrics:
            def __init__(self):
                self._lock = threading.Lock()
                self.hits = 0

            def record(self):
                with self._lock:
                    self._bump()

            def _bump(self):
                self.hits += 1
        """
        assert check(UnguardedSharedMutationRule(), clean) == []

    def test_private_method_with_an_unlocked_call_site_is_flagged(self):
        bad = """
        import threading

        class Metrics:
            def __init__(self):
                self._lock = threading.Lock()
                self.hits = 0

            def record(self):
                with self._lock:
                    self._bump()

            def record_unsafe(self):
                self._bump()

            def _bump(self):
                self.hits += 1
        """
        (finding,) = check(UnguardedSharedMutationRule(), bad)
        assert "self.hits" in finding.message

    def test_dataclass_lock_field_and_inplace_mutations(self):
        bad = """
        import threading
        from dataclasses import dataclass, field

        @dataclass
        class Telemetry:
            _lock: threading.RLock = field(default_factory=threading.RLock)
            stages: dict = field(default_factory=dict)

            def record(self, name, value):
                with self._lock:
                    self.stages[name] = value

            def record_fast(self, name, value):
                self.stages[name] = value
        """
        (finding,) = check(UnguardedSharedMutationRule(), bad)
        assert "self.stages" in finding.message

    def test_unguarded_only_attrs_are_not_flagged(self):
        # An attribute never mutated under the lock is not "guarded"; the
        # rule only enforces consistency, not blanket locking.
        clean = """
        import threading

        class Worker:
            def __init__(self):
                self._lock = threading.Lock()
                self.scratch = 0

            def bump(self):
                self.scratch += 1
        """
        assert check(UnguardedSharedMutationRule(), clean) == []


class TestRebindSharedContainer:
    BAD = """
    class Metrics:
        def __init__(self):
            self.stage_seconds = {}

        def reset(self):
            self.stage_seconds = {}   # strands registry providers
    """

    def test_flags_rebinding_reset(self):
        (finding,) = check(RebindSharedContainerRule(), self.BAD)
        assert finding.rule_id == "rebind-shared-container"
        assert "stage_seconds" in finding.message

    def test_clean_twin_clears_in_place(self):
        clean = """
        class Metrics:
            def __init__(self):
                self.stage_seconds = {}

            def reset(self):
                self.stage_seconds.clear()
        """
        assert check(RebindSharedContainerRule(), clean) == []

    def test_flags_empty_constructor_rebind_of_dataclass_field(self):
        bad = """
        from collections import deque
        from dataclasses import dataclass, field

        @dataclass
        class Buffer:
            items: deque = field(default_factory=deque)

            def reset(self):
                self.items = deque()
        """
        (finding,) = check(RebindSharedContainerRule(), bad)
        assert "items" in finding.message

    def test_rebinding_to_nonempty_value_is_allowed(self):
        # Replacing contents wholesale (e.g. a computed snapshot) is not the
        # clear-by-rebind bug.
        clean = """
        class Cache:
            def __init__(self):
                self.entries = {}

            def reload(self, loaded):
                self.entries = dict(loaded)
        """
        assert check(RebindSharedContainerRule(), clean) == []


class TestNondeterministicIteration:
    def test_flags_for_loop_over_set_comprehension(self):
        bad = """
        def prepare(jobs):
            for scenario in {job.scenario for job in jobs}:
                build(scenario)
        """
        (finding,) = check(NondeterministicIterationRule(), bad)
        assert finding.rule_id == "nondeterministic-iteration"

    def test_flags_set_literal_call_and_join(self):
        bad = """
        def render(names):
            ordered = list(set(names))
            text = ", ".join({n.title() for n in names})
            for item in {1, 2, 3}:
                print(item)
        """
        assert len(check(NondeterministicIterationRule(), bad)) == 3

    def test_clean_twin_sorts_first(self):
        clean = """
        def prepare(jobs):
            for scenario in sorted({job.scenario for job in jobs}):
                build(scenario)
        """
        assert check(NondeterministicIterationRule(), clean) == []

    def test_order_insensitive_folds_are_not_flagged(self):
        clean = """
        def stats(names):
            total = len(set(names))
            any_hit = any(n in {"a", "b"} for n in names)
            return total, any_hit, sum({1, 2})
        """
        assert check(NondeterministicIterationRule(), clean) == []


class TestSwallowedException:
    def test_flags_bare_except(self):
        bad = """
        try:
            work()
        except:
            pass
        """
        (finding,) = check(SwallowedExceptionRule(), bad)
        assert "bare" in finding.message

    def test_flags_broad_except_dropping_the_error(self):
        bad = """
        try:
            work()
        except Exception:
            pass
        """
        (finding,) = check(SwallowedExceptionRule(), bad)
        assert finding.rule_id == "swallowed-exception"

    def test_broad_except_that_logs_or_reraises_is_clean(self):
        clean = """
        try:
            work()
        except Exception as exc:
            log.warning("failed: %s", exc)
        try:
            work()
        except BaseException:
            cleanup()
            raise
        """
        assert check(SwallowedExceptionRule(), clean) == []

    def test_narrow_except_is_clean_even_when_dropping(self):
        clean = """
        try:
            path.unlink()
        except FileNotFoundError:
            pass
        """
        assert check(SwallowedExceptionRule(), clean) == []

    def test_broad_member_of_tuple_is_flagged(self):
        bad = """
        try:
            work()
        except (ValueError, Exception):
            pass
        """
        assert check(SwallowedExceptionRule(), bad)


class TestHelpers:
    def test_dotted_name(self):
        import ast

        expr = ast.parse("a.b.c", mode="eval").body
        assert dotted_name(expr) == "a.b.c"
        assert dotted_name(ast.parse("f()", mode="eval").body) is None

    def test_class_lock_attributes_plain_and_dataclass(self):
        import ast

        source = textwrap.dedent(
            """
            class Mixed:
                _cond: threading.Condition = field(default_factory=threading.Condition)

                def __init__(self):
                    self._lock = threading.Lock()
                    self.data = {}
            """
        )
        cls = ast.parse(source).body[0]
        assert class_lock_attributes(cls) == {"_lock", "_cond"}

    def test_default_rules_are_fresh_instances(self):
        first, second = default_rules(), default_rules()
        assert [type(r) for r in first] == list(DEFAULT_RULES)
        assert all(a is not b for a, b in zip(first, second))

    @pytest.mark.parametrize("rule_class", DEFAULT_RULES)
    def test_every_rule_declares_id_and_description(self, rule_class):
        rule = rule_class()
        assert rule.rule_id
        assert rule.description
        assert check(rule, "x = 1\n") == []
