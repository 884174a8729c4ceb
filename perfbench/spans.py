"""In-memory spans recorded from the benchmark's side of each layer.

The traced run wraps the public functions a layer exposes -- kernel
backend scans, ``mine_batch`` and ``simulate_x2max``;
``CorpusEngine.mine_documents`` and ``finalize``;
``CalibrationCache.distribution_for`` -- and times every client
request, so the program runs unmodified.  Spans of one operation share
its id.  They stay in memory and are written out once, when the run
ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from pathlib import Path

#: Kernel backend methods that mine documents (``simulate_x2max`` is
#: timed too, but it is calibration work, not mining).
KERNEL_SCANS = (
    "scan_mss", "scan_mss_min_length", "scan_top_t", "scan_threshold",
    "mine_batch",
)


class SpanRecorder:
    """Spans ``{op, layer, name, parent, start, end, notes}`` in memory.

    ``op`` is the id of the operation in progress; callers set it
    before each operation.  ``parent`` is the enclosing wrapped call on
    the same thread (``"layer.name"``), so a call nested in another of
    its own layer (a scan inside ``simulate_x2max``) is not counted
    twice.
    """

    def __init__(self) -> None:
        self.op = "setup"
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def add(self, layer: str, name: str, start: float, end: float,
            parent: str | None = None, **notes) -> None:
        span = {
            "op": self.op,
            "layer": layer,
            "name": name,
            "parent": parent,
            "start": start,
            "end": end,
        }
        if notes:
            span["notes"] = notes
        with self._lock:
            self.spans.append(span)

    def wrap(self, owner, attr: str, layer: str, annotate=None) -> None:
        """Replace ``owner.attr`` (a class's function or an instance's
        bound method) with a version that records one span per call.
        ``annotate(result)`` may return notes for the span."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            stack.append(f"{layer}.{attr}")
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            notes = annotate(result) if annotate is not None else {}
            recorder.add(layer, attr, start, end, parent=parent, **notes)
            return result

        setattr(owner, attr, traced)

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def seconds(self, layer: str, names, ops=None, top_level=True,
                **notes) -> float:
        """Total seconds of matching spans (``ops``: a set of op ids;
        ``top_level``: skip calls nested in another call of the layer)."""
        total = 0.0
        for span in self.spans:
            if span["layer"] != layer or span["name"] not in names:
                continue
            if ops is not None and span["op"] not in ops:
                continue
            if top_level and (span["parent"] or "").startswith(layer + "."):
                continue
            if any(span.get("notes", {}).get(k) != v for k, v in notes.items()):
                continue
            total += span["end"] - span["start"]
        return total

    def per_op(self, layer: str, name: str) -> dict[str, float]:
        """Seconds of one span name, summed per operation id."""
        totals: dict[str, float] = {}
        for span in self.spans:
            if span["layer"] == layer and span["name"] == name:
                totals[span["op"]] = (
                    totals.get(span["op"], 0.0) + span["end"] - span["start"]
                )
        return totals


def trace_layers(recorder: SpanRecorder, backend, engine_cls, cache_cls) -> None:
    """Wrap every layer function the library path calls."""
    for name in (*KERNEL_SCANS, "simulate_x2max"):
        recorder.wrap(backend, name, "kernels")
    recorder.wrap(engine_cls, "mine_documents", "engine")
    recorder.wrap(engine_cls, "finalize", "engine")
    seen: set[int] = set()

    def cold(distribution) -> dict:
        # A cache hit returns the object a cold call stored, so the
        # first sighting of each object is the simulating call.
        first = id(distribution) not in seen
        seen.add(id(distribution))
        return {"cold": first}

    recorder.wrap(cache_cls, "distribution_for", "engine", annotate=cold)


def write_jsonl(path: Path, records) -> None:
    """Write ``records`` (dicts) as JSON lines, replacing ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
