"""Tracer unit tests: the null path, nesting, and adopting a worker's spans."""

import multiprocessing
import threading
from dataclasses import replace

from repro.obs import tracer as obs
from repro.obs.tracer import NullTracer, Tracer


class TestNullPath:
    def test_default_tracer_is_null(self):
        assert isinstance(obs.current_tracer(), NullTracer)
        assert not obs.tracing_enabled()

    def test_null_span_is_a_shared_noop_context_manager(self):
        first = obs.span("anything", category="modelcheck", spec="phi_1")
        second = obs.span("else")
        assert first is second  # one shared handle, zero allocation per span
        with first as handle:
            assert handle is first

    def test_null_counter_is_a_noop(self):
        obs.counter("queue", 3)  # nothing to assert beyond "does not raise"

    def test_install_and_uninstall_swap_the_global(self):
        tracer = Tracer()
        assert obs.install_tracer(tracer) is tracer
        assert obs.current_tracer() is tracer
        assert obs.tracing_enabled()
        obs.uninstall_tracer()
        assert isinstance(obs.current_tracer(), NullTracer)


class TestNesting:
    def test_child_records_parent_and_root_has_none(self):
        tracer = obs.install_tracer(Tracer())
        with obs.span("outer", category="pipeline"):
            with obs.span("inner", category="modelcheck", spec="phi_2"):
                pass
        inner, outer = tracer.spans()  # inner closes (and lands) first
        assert inner.name == "inner" and outer.name == "outer"
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert inner.attributes == {"spec": "phi_2"}

    def test_sibling_spans_share_a_parent(self):
        tracer = obs.install_tracer(Tracer())
        with obs.span("parent"):
            with obs.span("a"):
                pass
            with obs.span("b"):
                pass
        a, b, parent = tracer.spans()
        assert a.parent_id == parent.span_id
        assert b.parent_id == parent.span_id
        assert a.span_id != b.span_id

    def test_nested_span_timing_is_contained_in_parent(self):
        tracer = obs.install_tracer(Tracer())
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        inner, outer = tracer.spans()
        assert outer.start_ns <= inner.start_ns
        assert inner.start_ns + inner.duration_ns <= outer.start_ns + outer.duration_ns
        assert inner.duration_seconds >= 0.0

    def test_threads_nest_independently(self):
        tracer = obs.install_tracer(Tracer())
        ready = threading.Barrier(2)

        def worker():
            ready.wait()
            with obs.span("thread_root"):
                pass

        with obs.span("main_root"):
            thread = threading.Thread(target=worker)
            thread.start()
            ready.wait()
            thread.join()
        roots = [s for s in tracer.spans() if s.name == "thread_root"]
        assert roots and roots[0].parent_id is None  # not a child of main_root


def _worker_spans() -> list:
    """Two nested spans as a forked worker's fresh tracer records them: its
    ids start at 1, like the parent's, and its pid differs."""
    worker = Tracer()
    with worker.span("train.forward", category="train", shard=1):
        with worker.span("train.group", category="train", width=8):
            pass
    return [replace(span, pid=span.pid + 1) for span in worker.spans()]


class TestAdopt:
    """``Tracer.adopt`` is the one way spans cross a process boundary."""

    def test_a_root_is_filed_under_the_open_span(self):
        tracer = Tracer()
        with tracer.span("pipeline.train", category="pipeline"):
            with tracer.span("dpo.step", category="train"):
                tracer.adopt(_worker_spans())
        group, forward, step, train = tracer.spans()
        assert (group.name, forward.name) == ("train.group", "train.forward")
        assert forward.parent_id == step.span_id  # the innermost open span
        assert group.parent_id == forward.span_id
        assert step.parent_id == train.span_id

    def test_with_no_open_span_a_root_stays_a_root(self):
        tracer = Tracer()
        tracer.adopt(_worker_spans())
        group, forward = tracer.spans()
        assert forward.parent_id is None
        assert group.parent_id == forward.span_id

    def test_adopted_ids_clash_with_nothing(self):
        """Each reply comes from a fresh tracer, so every reply reuses ids
        1 and 2; the links still point within their own reply."""
        tracer = Tracer()
        with tracer.span("local"):
            pass
        with tracer.span("dpo.step", category="train"):
            tracer.adopt(_worker_spans())
            tracer.adopt(_worker_spans())
        spans = tracer.spans()
        assert len({span.span_id for span in spans}) == len(spans) == 6
        first_group, first_forward, second_group, second_forward = spans[1:5]
        assert first_group.parent_id == first_forward.span_id
        assert second_group.parent_id == second_forward.span_id

    def test_pid_timing_and_attributes_are_kept(self):
        recorded = _worker_spans()
        tracer = Tracer()
        tracer.adopt(recorded)
        for before, after in zip(recorded, tracer.spans(), strict=True):
            assert after == replace(before, span_id=after.span_id, parent_id=after.parent_id)
        assert {span.pid for span in tracer.spans()} == {tracer._pid + 1}

    def test_only_the_calling_threads_open_span_is_a_parent(self):
        tracer = Tracer()
        with tracer.span("main_root"):
            thread = threading.Thread(target=tracer.adopt, args=(_worker_spans(),))
            thread.start()
            thread.join()
        forward = next(span for span in tracer.spans() if span.name == "train.forward")
        assert forward.parent_id is None

    def test_adopting_nothing_records_nothing(self):
        tracer = Tracer()
        with tracer.span("dpo.step", category="train"):
            tracer.adopt([])
        assert [span.name for span in tracer.spans()] == ["dpo.step"]

    def test_spans_survive_the_pipe_a_worker_replies_through(self):
        recorded = _worker_spans()
        receiver, sender = multiprocessing.Pipe(duplex=False)
        with receiver, sender:
            sender.send(recorded)
            received = receiver.recv()
        assert received == recorded
        tracer = Tracer()
        tracer.adopt(received)
        assert [span.name for span in tracer.spans()] == ["train.group", "train.forward"]
