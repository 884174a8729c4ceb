"""Continuous sampling profiler: stdlib-only, flamegraph-ready.

"Where did ``batch_mine`` go?" must be answerable on a *live* shard
without restarting it under a tracing profiler.  This module does what
production Python profilers (py-spy, Austin) do, minus the native
machinery: a daemon thread wakes ~100 times a second, snapshots every
thread's current stack via :func:`sys._current_frames`, and appends the
collapsed stacks to a bounded ring.  Three read paths consume the ring:

* ``GET /debug/profile?seconds=N`` renders the last ``N`` seconds in
  Brendan Gregg's collapsed-stack text format -- pipe it straight into
  ``flamegraph.pl`` or speedscope;
* the service attaches :meth:`SamplingProfiler.phase_counts` to slow
  traces just before recording, so a slow trace carries the sampled
  phase breakdown (parse / pack / kernel / finalize / ...) alongside
  its span tree;
* :meth:`SamplingProfiler.overhead` reports the profiler's own
  measured duty cycle (sampling time over wall time), published in
  ``/stats`` and asserted under 5% by ``benchmarks/bench_service.py``.

Sampling bias caveats apply as usual: the sampler sees only what runs
while the GIL lets it look, and C-extension time shows up attributed to
the Python frame that called in.  Both are fine for the question this
answers -- relative time share across phases of the mining pipeline.
"""

from __future__ import annotations

import collections
import os.path
import sys
import threading
import time

__all__ = ["SamplingProfiler"]

#: Stack depth cap per sample: deeper frames are summarized away so a
#: runaway recursion cannot bloat the ring.
_MAX_DEPTH = 48

#: Ring capacity in samples (per-thread stacks count individually).
#: ~100 Hz x a handful of threads -> several minutes of history.
_MAX_SAMPLES = 120_000

#: Leaf function names that mean "this thread is parked, not working".
_IDLE_LEAVES = frozenset(
    {
        "wait",
        "select",
        "poll",
        "epoll",
        "accept",
        "_wait_for_tstate_lock",
        "_recv_bytes",
        "recv",
        "recv_into",
        "read",
        "readline",
        "sleep",
        "get",
        "acquire",
    }
)

#: Function-name markers mapping sampled frames onto the span phases of
#: the canonical ``POST /mine`` trace.  Scanned leaf-to-root; first hit
#: wins, so ``kernel`` (innermost) beats ``batch_mine`` (outermost).
_PHASE_MARKERS: tuple[tuple[str, frozenset[str]], ...] = (
    ("kernel", frozenset({"mine_batch", "run_job", "scan", "wavefront"})),
    ("finalize", frozenset({"finalize", "calibrate", "threshold_for"})),
    ("batch_mine", frozenset({"mine_documents", "mine_and_finalize",
                              "run_jobs"})),
    ("parse", frozenset({"parse_mine_request", "_parse_body"})),
    ("serialize", frozenset({"payload", "response_bytes"})),
)


def _frame_label(frame) -> str:
    """``file:function`` label for one frame, collapsed-format safe."""
    code = frame.f_code
    base = os.path.basename(code.co_filename)
    if base.endswith(".py"):
        base = base[:-3]
    label = f"{base}:{code.co_name}"
    # The collapsed format delimits frames with ';' and the count with a
    # trailing space -- strip both from labels.
    return label.replace(";", ",").replace(" ", "_")


class SamplingProfiler:
    """A daemon thread sampling all Python stacks at a fixed interval.

    ``interval`` is the target seconds between wakeups (default 10 ms,
    ~100 Hz).  :meth:`start` spawns the thread; :meth:`stop` joins it.
    The profiler never samples its own thread, keeps at most
    ``max_samples`` recent samples, and measures its own duty cycle.

    Examples
    --------
    >>> profiler = SamplingProfiler(interval=0.005)
    >>> profiler.start()
    >>> time.sleep(0.05)
    >>> profiler.stop()
    >>> profiler.sample_count > 0
    True
    """

    def __init__(
        self,
        interval: float = 0.01,
        max_samples: int = _MAX_SAMPLES,
    ) -> None:
        interval = float(interval)
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval!r}")
        self.interval = interval
        self._samples: collections.deque[tuple[float, str, tuple[str, ...]]]
        self._samples = collections.deque(maxlen=int(max_samples))
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._busy_seconds = 0.0
        self._started_at: float | None = None
        self._stopped_wall = 0.0

    # -- lifecycle ----------------------------------------------------

    def start(self) -> None:
        """Start the sampling thread (no-op if already running)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop and join the sampling thread (idempotent)."""
        self._stop.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=2.0)
        if self._started_at is not None:
            self._stopped_wall += time.perf_counter() - self._started_at
            self._started_at = None
        self._thread = None

    @property
    def running(self) -> bool:
        """Whether the sampling thread is alive."""
        thread = self._thread
        return thread is not None and thread.is_alive()

    def _run(self) -> None:
        own_ident = threading.get_ident()
        while not self._stop.is_set():
            began = time.perf_counter()
            self._sample_once(began, own_ident)
            self._busy_seconds += time.perf_counter() - began
            self._stop.wait(self.interval)

    def _sample_once(self, now: float, own_ident: int) -> None:
        names = {t.ident: t.name for t in threading.enumerate()}
        frames = sys._current_frames()
        batch = []
        for ident, frame in frames.items():
            if ident == own_ident:
                continue
            stack: list[str] = []
            depth = 0
            while frame is not None and depth < _MAX_DEPTH:
                stack.append(_frame_label(frame))
                frame = frame.f_back
                depth += 1
            stack.reverse()  # root -> leaf, collapsed-format order
            batch.append(
                (now, names.get(ident, f"thread-{ident}"), tuple(stack))
            )
        with self._lock:
            self._samples.extend(batch)

    # -- read paths ---------------------------------------------------

    @property
    def sample_count(self) -> int:
        """Number of samples currently in the ring."""
        with self._lock:
            return len(self._samples)

    def _window(
        self, seconds: float | None
    ) -> list[tuple[float, str, tuple[str, ...]]]:
        with self._lock:
            samples = list(self._samples)
        if seconds is None:
            return samples
        cutoff = time.perf_counter() - float(seconds)
        return [s for s in samples if s[0] >= cutoff]

    def collapsed(self, seconds: float | None = None) -> str:
        """The last ``seconds`` of samples in collapsed-stack text.

        One line per distinct stack: ``thread;frame;frame;... count``,
        sorted by descending count then lexically -- the exact input
        format of ``flamegraph.pl`` and speedscope.  ``seconds=None``
        renders the whole ring.
        """
        counts: collections.Counter[str] = collections.Counter()
        for _, thread_name, stack in self._window(seconds):
            key = ";".join(
                (thread_name.replace(";", ",").replace(" ", "_"), *stack)
            )
            counts[key] += 1
        lines = [
            f"{key} {count}"
            for key, count in sorted(
                counts.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def phase_counts(self, seconds: float | None = None) -> dict:
        """Sample counts per mining phase over the recent window.

        Classifies each sample by scanning its frames leaf-to-root
        against :data:`_PHASE_MARKERS`; parked threads (idle leaf
        functions) count as ``idle``, everything else as ``other``.
        Attached to slow traces so their span trees carry a sampled
        "where the CPU actually was" breakdown.
        """
        counts: dict[str, int] = {}
        for _, _, stack in self._window(seconds):
            phase = self._classify(stack)
            counts[phase] = counts.get(phase, 0) + 1
        return {
            "samples": sum(counts.values()),
            "interval_seconds": self.interval,
            "phases": dict(
                sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
            ),
        }

    @staticmethod
    def _classify(stack: tuple[str, ...]) -> str:
        funcs = [label.rsplit(":", 1)[-1] for label in stack]
        for func in reversed(funcs):  # leaf -> root
            for phase, markers in _PHASE_MARKERS:
                if func in markers:
                    return phase
        if funcs and funcs[-1] in _IDLE_LEAVES:
            return "idle"
        return "other"

    def overhead(self) -> float:
        """Measured duty cycle: sampling seconds over wall seconds.

        This is the profiler's *self*-overhead upper bound -- the
        fraction of one core it spends walking stacks.  Returns 0.0
        before the first start.
        """
        wall = self._stopped_wall
        if self._started_at is not None:
            wall += time.perf_counter() - self._started_at
        if wall <= 0.0:
            return 0.0
        return self._busy_seconds / wall

    def summary(self) -> dict:
        """JSON-ready status block for ``GET /stats``."""
        return {
            "running": self.running,
            "interval_seconds": self.interval,
            "samples": self.sample_count,
            "overhead_ratio": round(self.overhead(), 6),
        }

    def __repr__(self) -> str:
        return (
            f"SamplingProfiler(interval={self.interval}, "
            f"running={self.running}, samples={self.sample_count})"
        )
