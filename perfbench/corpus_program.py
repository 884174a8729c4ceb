"""The ``corpus`` program: the library path, with no HTTP.

    python3 perfbench/corpus_program.py SPEC.json RESULT.json

``perfbench/run.py`` starts one process per set-up repetition.  Set-up
starts at ``import repro`` and ends once a fresh ``CorpusEngine`` with a
fresh ``CalibrationCache(trials, seed)`` and library defaults (serial
executor, per-document dispatch, BH correction) has mined a warm-up job
holding one document per length bucket -- the cold calibration of
every (model, bucket) key the workload uses.  The process then calls
``run_texts`` on the job pool in a closed loop, from one thread, for
its segment of the timed window.  With ``trace`` set, every layer
function is wrapped in a span from ``import repro`` on.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def _vm_hwm_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    started = time.perf_counter()
    from repro import BernoulliModel, CalibrationCache, CorpusEngine
    from repro.kernels import get_backend

    recorder = None
    if spec["trace"]:
        from spans import SpanRecorder, trace_layers

        recorder = SpanRecorder()
        trace_layers(recorder, get_backend(), CorpusEngine, CalibrationCache)
    model = BernoulliModel(list(spec["alphabet"]), spec["probs"])
    engine = CorpusEngine(
        calibration=CalibrationCache(
            trials=spec["trials"], seed=spec["calib_seed"]
        )
    )
    engine.run_texts(spec["warmup"], model)
    setup_s = time.perf_counter() - started
    jobs = spec["jobs"]
    ops, outputs = [], []
    window_start = time.perf_counter()
    window_end = window_start + spec["seconds"]
    while time.perf_counter() < window_end:
        index = (spec["offset"] + len(ops)) % len(jobs)
        if recorder is not None:
            recorder.op = f"op-{len(ops)}"
        op_start = time.perf_counter()
        try:
            output = engine.run_texts(jobs[index], model)
            error = None
        except Exception as exc:  # counted as a failed operation
            output, error = None, f"{type(exc).__name__}: {exc}"
        ops.append({
            "job": index,
            "seconds": time.perf_counter() - op_start,
            "docs": len(jobs[index]),
            "error": error,
        })
        outputs.append(output)
    window_s = time.perf_counter() - window_start
    backend = get_backend()
    result = {
        "setup_s": setup_s,
        "window_s": window_s,
        "peak_rss_kib": _vm_hwm_kib(),
        "backend_resolved": getattr(backend, "resolved_name", backend.name),
        "ops": ops,
    }
    from inputs import outcome

    result["outcomes"] = [
        None if output is None
        else outcome(output.payload(include_timing=False))
        for output in outputs
    ]
    if recorder is not None:
        from repro.obs.metrics import default_registry

        result["spans"] = recorder.spans
        result["metrics"] = default_registry().render_prometheus()
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
