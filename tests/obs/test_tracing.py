"""Request tracing: span trees, context propagation, the slow ring.

The tracing contract the service relies on: spans recorded from any
thread land in one tree, parent links nest, only top-level spans feed
the per-stage histograms (no double billing), and the recorder keeps a
slow request inspectable long after fast ones have rotated it out of
the recent ring.
"""

import threading

import pytest

from repro.obs.tracing import (
    Trace,
    TraceRecorder,
    new_trace_id,
    valid_trace_id,
)


class TestValidTraceId:
    def test_minted_ids_are_valid(self):
        assert valid_trace_id(new_trace_id())

    def test_w3c_style_ids_with_dashes_are_valid(self):
        assert valid_trace_id("4bf9-2f35-77b3-4da6")

    @pytest.mark.parametrize(
        "value",
        [
            "short",                 # under 8 chars
            "f" * 65,                # over 64 chars
            "../etc/passwd",         # path traversal
            "deadbeef deadbeef",     # whitespace
            "zzzzzzzz",              # non-hex letters
            1234567890,              # not a string
            None,
        ],
    )
    def test_bad_shapes_are_rejected(self, value):
        assert not valid_trace_id(value)


class TestTrace:
    def test_span_context_manager_times_the_body(self):
        trace = Trace("t1")
        with trace.span("parse"):
            pass
        spans = trace.spans()
        assert [span.name for span in spans] == ["parse"]
        assert spans[0].seconds >= 0.0

    def test_add_records_explicit_intervals_with_notes(self):
        trace = Trace()
        span = trace.add("queue_wait", 1.0, 1.5, docs=3)
        assert span.seconds == pytest.approx(0.5)
        assert span.notes == {"docs": 3}

    def test_tree_nests_children_under_parents(self):
        trace = Trace("t2")
        trace.add("batch_mine", 0.0, 1.0)
        trace.add("kernel", 0.1, 0.6, parent="batch_mine")
        trace.add("replay", 0.6, 0.9, parent="batch_mine")
        tree = trace.tree()
        assert tree["trace_id"] == "t2"
        (root,) = tree["spans"]
        assert root["name"] == "batch_mine"
        assert [child["name"] for child in root["children"]] == [
            "kernel",
            "replay",
        ]

    def test_stage_seconds_skips_children(self):
        trace = Trace()
        trace.add("batch_mine", 0.0, 1.0)
        trace.add("kernel", 0.0, 0.8, parent="batch_mine")
        trace.add("finalize", 1.0, 1.25)
        stages = trace.stage_seconds()
        assert stages == pytest.approx(
            {"batch_mine": 1.0, "finalize": 0.25}
        )

    def test_spans_recorded_from_another_thread_are_visible(self):
        trace = Trace()

        def worker():
            trace.add("kernel", 0.0, 0.5)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert [span.name for span in trace.spans()] == ["kernel"]

    def test_finish_is_idempotent(self):
        trace = Trace()
        trace.finish()
        first = trace.ended
        trace.finish()
        assert trace.ended == first

    def test_new_trace_ids_are_distinct(self):
        assert new_trace_id() != new_trace_id()

    def test_adopted_id_is_flagged_and_parent_span_rendered(self):
        trace = Trace("deadbeefdeadbeef", parent_span="proxy")
        trace.finish()
        assert trace.adopted
        tree = trace.tree()
        assert tree["trace_id"] == "deadbeefdeadbeef"
        assert tree["parent_span"] == "proxy"

    def test_minted_trace_has_no_parent_span_key(self):
        trace = Trace()
        trace.finish()
        assert not trace.adopted
        assert "parent_span" not in trace.tree()

    def test_attached_profile_rides_the_tree(self):
        trace = Trace()
        trace.profile = {"samples": 3, "phases": {"kernel": 3}}
        trace.finish()
        assert trace.tree()["profile"]["phases"] == {"kernel": 3}


class TestTraceRecorder:
    def test_recent_ring_is_bounded(self):
        recorder = TraceRecorder(capacity=2, slow_ms=10_000.0)
        for _ in range(5):
            trace = Trace()
            trace.finish()
            recorder.record(trace)
        snapshot = recorder.snapshot()
        assert snapshot["recorded"] == 5
        assert len(snapshot["recent"]) == 2
        assert snapshot["slow"] == []

    def test_slow_trace_survives_fast_churn(self):
        recorder = TraceRecorder(capacity=2, slow_ms=0.0)
        slow = Trace("slowone")
        slow.add("batch_mine", 0.0, 1.0)
        slow.finish()
        recorder.record(slow)
        # churn the recent ring far past capacity with threshold raised
        recorder.slow_ms = 10_000.0
        for _ in range(10):
            fast = Trace()
            fast.finish()
            recorder.record(fast)
        snapshot = recorder.snapshot()
        assert [t["trace_id"] for t in snapshot["slow"]] == ["slowone"]
        assert "slowone" not in [t["trace_id"] for t in snapshot["recent"]]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)

    def test_get_returns_the_tree_for_an_id(self):
        recorder = TraceRecorder(capacity=4, slow_ms=10_000.0)
        trace = Trace("findme01")
        trace.add("parse", 0.0, 0.1)
        trace.finish()
        recorder.record(trace)
        tree = recorder.get("findme01")
        assert tree is not None
        assert [span["name"] for span in tree["spans"]] == ["parse"]
        assert recorder.get("missing1") is None

    def test_get_finds_slow_traces_after_recent_churn(self):
        recorder = TraceRecorder(capacity=2, slow_ms=0.0)
        slow = Trace("slowget1")
        slow.finish()
        recorder.record(slow)
        recorder.slow_ms = 10_000.0
        for _ in range(10):
            fast = Trace()
            fast.finish()
            recorder.record(fast)
        assert recorder.get("slowget1") is not None

    def test_get_returns_an_isolated_copy(self):
        # The router mutates the returned tree while stitching shard
        # spans into it; the ring must not see those mutations.
        recorder = TraceRecorder(capacity=4, slow_ms=10_000.0)
        trace = Trace("isolate1")
        trace.finish()
        recorder.record(trace)
        first = recorder.get("isolate1")
        first["spans"].append({"name": "injected"})
        first["assembled"] = True
        second = recorder.get("isolate1")
        assert second["spans"] == []
        assert "assembled" not in second


class TestTraceRecorderConcurrency:
    """A threaded ``record()`` storm: the rings stay bounded and ordered.

    The recorder is written to from the event loop, the batcher thread
    and (indirectly) test harnesses at once; these tests pin that no
    interleaving can grow a ring past capacity, scramble eviction
    order, or mis-admit traces at the ``slow_ms`` boundary.
    """

    def _finished(self, trace_id: str, total_ms: float) -> Trace:
        trace = Trace(trace_id)
        trace.started = 0.0
        trace.ended = total_ms / 1000.0
        return trace

    def test_storm_respects_ring_capacity(self):
        recorder = TraceRecorder(capacity=16, slow_ms=5.0)
        threads = 8
        per_thread = 50
        barrier = threading.Barrier(threads)

        def hammer(worker: int) -> None:
            barrier.wait()
            for index in range(per_thread):
                # every other trace lands over the slow threshold
                total_ms = 10.0 if index % 2 else 1.0
                recorder.record(
                    self._finished(f"{worker:02d}-{index:05d}", total_ms)
                )

        pool = [
            threading.Thread(target=hammer, args=(worker,))
            for worker in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        snapshot = recorder.snapshot()
        assert snapshot["recorded"] == threads * per_thread
        assert len(snapshot["recent"]) == 16
        assert len(snapshot["slow"]) == 16
        # every surviving entry is a complete tree, not a torn write
        for tree in snapshot["recent"] + snapshot["slow"]:
            assert valid_trace_id(tree["trace_id"])
            assert tree["total_ms"] >= 0.0

    def test_eviction_is_oldest_first_in_order(self):
        recorder = TraceRecorder(capacity=4, slow_ms=10_000.0)
        for index in range(10):
            recorder.record(self._finished(f"order-{index:02d}", 1.0))
        recent = [t["trace_id"] for t in recorder.snapshot()["recent"]]
        assert recent == [f"order-{i:02d}" for i in range(6, 10)]

    def test_slow_ring_admission_at_the_boundary(self):
        recorder = TraceRecorder(capacity=4, slow_ms=50.0)
        recorder.record(self._finished("under-50", 49.0))
        recorder.record(self._finished("at-50000", 50.0))
        recorder.record(self._finished("over-50x", 51.0))
        slow = [t["trace_id"] for t in recorder.snapshot()["slow"]]
        assert slow == ["at-50000", "over-50x"]  # >= is inclusive
