"""Engine scaling: corpus throughput (docs/sec) across executors.

The corpus engine's pitch is that mining a corpus is embarrassingly
parallel once calibration is shared; this benchmark measures what each
executor actually buys on one synthetic corpus and emits
machine-readable ``results/BENCH_engine.json`` alongside the usual text
table.  Two executor families appear as rows:

* ``serial`` / ``serial-batch*`` -- ``ThreadExecutor(1)``, the
  in-process baseline, and the corpus-batched kernel path
  (``batch_docs``: one ``mine_batch`` call per chunk of documents), the
  serial amortisation win tracked across PRs.  On native kernels both
  run the lane walker on the calling thread (four scans in flight;
  ``batch_docs`` does not apply there), so they read alike;
* ``workers-thread*`` -- the thread tier
  (:class:`repro.engine.ThreadExecutor`): a persistent thread pool
  whose threads all run the lane walker over one shared claim cursor.
  The native kernels release the GIL, so these rows scale with cores;
  on any other backend the executor mines on one thread and the rows
  read as serial.

Honest measurement notes:

* The shared :class:`~repro.engine.calibration.CalibrationCache` is
  **pre-warmed before any timing starts** and its cost reported as a
  separate ``calibrate_seconds`` phase.  Earlier revisions either left
  calibration out entirely or would have let the first executor under
  test pay the Monte-Carlo bill for everyone, making serial-vs-parallel
  comparisons meaningless.
* Every row therefore times the *mine* phase only (``mine_seconds``),
  with identical warm-cache conditions across executors.
* The per-document results are byte-identical across executors **and
  across the batched kernel path** (tested in ``tests/engine``); only
  throughput varies.
* Speedup is bounded by physical cores.  On a single-core container
  every multi-worker row only shows dispatch overhead -- the JSON
  records ``cpu_count`` so downstream tooling can judge the numbers
  fairly; the ``workers-thread*`` acceptance target (>= 1.5x serial,
  and above the best serial-batch row) applies on hosts with >= 2
  cores.
* ``backend`` records which kernel backend was selected (see
  :mod:`repro.kernels`; override with ``REPRO_BACKEND``) and
  ``backend_resolved`` the one that actually mined -- ``numpy`` when
  ``native`` fell back on a host with no C compiler.  Every row repeats
  ``cpu_count`` and ``backend_resolved``.

Run directly (``python benchmarks/bench_engine_scaling.py``, with
``--smoke`` for the fast CI variant and ``--workers N`` to pick the
thread counts) or through pytest
(``pytest benchmarks/bench_engine_scaling.py``).
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.core.model import BernoulliModel
from repro.engine import (
    CalibrationCache,
    CorpusEngine,
    JobSpec,
    ThreadExecutor,
)
from repro.generators import generate_null_string
from repro.kernels import get_backend

DOCS = 96
DOC_LENGTH = 1500
THREAD_COUNTS = [2, 4]
BATCH_SIZES = [32, DOCS]
CALIBRATION_TRIALS = 50

SMOKE_DOCS = 32
SMOKE_DOC_LENGTH = 500
SMOKE_TRIALS = 15
SMOKE_BATCH_DOCS = 8

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def build_corpus(model, docs, doc_length):
    texts = []
    for i in range(docs):
        text = generate_null_string(model, doc_length, seed=1000 + i)
        if i % 9 == 0:  # sprinkle bursts so the workload is not pure null
            middle = doc_length // 2
            text = text[:middle] + "a" * 60 + text[middle + 60:]
        texts.append(text)
    return texts


def run_scaling(smoke=False, threads=None, backend=None):
    docs = SMOKE_DOCS if smoke else DOCS
    doc_length = SMOKE_DOC_LENGTH if smoke else DOC_LENGTH
    trials = SMOKE_TRIALS if smoke else CALIBRATION_TRIALS
    batch_sizes = [SMOKE_BATCH_DOCS] if smoke else BATCH_SIZES
    if threads is None:
        threads = THREAD_COUNTS
    model = BernoulliModel.uniform("ab")
    corpus = build_corpus(model, docs, doc_length)
    # ``backend=None`` defers to REPRO_BACKEND / the registry default,
    # exactly like the engine itself; ``--backend`` pins every row (and
    # the calibration pre-warm) to one kernel.
    spec = JobSpec(backend=backend) if backend is not None else None

    # Pre-warm the shared calibration cache so no executor under test
    # pays the Monte-Carlo simulation; its cost is its own phase.
    cache = CalibrationCache(trials=trials, seed=0, backend=backend)
    started = time.perf_counter()
    cache.distribution_for(model, doc_length)
    calibrate_seconds = time.perf_counter() - started

    kernel = get_backend(backend)
    resolved = getattr(kernel, "resolved_name", kernel.name)
    rows = []

    def measure(label, executor, batch_docs=None):
        with CorpusEngine(executor=executor, calibration=cache,
                          correction="bh", batch_docs=batch_docs) as engine:
            started = time.perf_counter()
            result = engine.run_texts(corpus, model, spec)
            mine_seconds = time.perf_counter() - started
        rows.append({
            "mode": label,
            "workers": executor.workers,
            "threads": executor.threads(backend),
            "batch_docs": batch_docs,
            "mine_seconds": mine_seconds,
            "docs_per_sec": docs / mine_seconds,
            "significant": result.n_significant,
            "cpu_count": os.cpu_count(),
            "backend_resolved": resolved,
        })

    measure("serial", ThreadExecutor(1))
    # The batched kernel path: same serial executor, chunk-of-documents
    # kernel calls.  Identical results; this is the per-PR trajectory row.
    for batch_docs in batch_sizes:
        measure(f"serial-batch{batch_docs}", ThreadExecutor(1),
                batch_docs=batch_docs)
    # The thread tier: every pool thread's lanes claim from one cursor.
    for workers in threads:
        measure(f"workers-thread{workers}", ThreadExecutor(workers))

    serial_rate = rows[0]["docs_per_sec"]
    best_serial_batch = max(
        row["docs_per_sec"] for row in rows
        if row["mode"].startswith("serial-batch")
    )
    for row in rows:
        row["speedup_vs_serial"] = row["docs_per_sec"] / serial_rate
        row["speedup_vs_serial_batch"] = (
            row["docs_per_sec"] / best_serial_batch
        )
    meta = {
        "docs": docs,
        "doc_length": doc_length,
        "calibration_trials": trials,
        "smoke": smoke,
        "backend": kernel.name,
        # differs from "backend" when native fell back to numpy
        "backend_resolved": resolved,
    }
    return calibrate_seconds, rows, meta


def emit_json(calibrate_seconds, rows, meta):
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "benchmark": "engine_scaling",
        "cpu_count": os.cpu_count(),
        **meta,
        "phases": {
            "calibrate_seconds": calibrate_seconds,
            "note": "calibration cache pre-warmed once; every mode row "
                    "times the mine phase only; serial-batch* rows pass "
                    "batch_docs (the corpus-batched kernel path on numpy; "
                    "native runs the lane walker either way); "
                    "workers-thread* rows mine on the lane walker of "
                    "every thread of a persistent pool ('threads' is how "
                    "many actually mined: one unless the backend "
                    "resolved to native)",
        },
        "results": rows,
    }
    path = RESULTS_DIR / "BENCH_engine.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def _render(calibrate_seconds, rows, meta, emit):
    emit(f"Corpus engine scaling ({meta['docs']} docs x "
         f"{meta['doc_length']} symbols, {os.cpu_count()} cpu core(s), "
         f"backend={meta['backend']} "
         f"(resolved {meta['backend_resolved']})"
         f"{', smoke' if meta['smoke'] else ''}):")
    emit(f"calibrate phase (pre-warmed, shared): {calibrate_seconds:.3f}s "
         f"({meta['calibration_trials']} trials)")
    header = (f"{'mode':>15}  {'threads':>7}  {'batch':>5}  {'mine s':>8}  "
              f"{'docs/sec':>9}  {'speedup':>8}")
    emit(header)
    emit("-" * len(header))
    for row in rows:
        batch = row.get("batch_docs")
        emit(
            f"{row['mode']:>15}  {row['threads']:>7}  "
            f"{'-' if batch is None else batch:>5}  "
            f"{row['mine_seconds']:>8.3f}"
            f"  {row['docs_per_sec']:>9.1f}  {row['speedup_vs_serial']:>7.2f}x"
        )


def test_engine_scaling(benchmark, reporter):
    calibrate_seconds, rows, meta = benchmark.pedantic(
        run_scaling, rounds=1, iterations=1
    )
    path = emit_json(calibrate_seconds, rows, meta)
    _render(calibrate_seconds, rows, meta, reporter.emit)
    reporter.emit(f"JSON written to {path}")
    # correctness-side assertions only; speedup depends on available cores
    assert all(row["significant"] == rows[0]["significant"] for row in rows)
    assert all(row["docs_per_sec"] > 0 for row in rows)
    thread_rows = [
        row for row in rows if row["mode"].startswith("workers-thread")
    ]
    assert thread_rows
    assert calibrate_seconds > 0
    if (os.cpu_count() or 1) >= 2:
        # With real cores behind the threads, the thread rows must beat
        # both plain serial (by a wide margin) and the best serial-batch
        # row -- the "make --workers actually win" gate.
        best_thread = max(row["docs_per_sec"] for row in thread_rows)
        best_serial_batch = max(
            row["docs_per_sec"] for row in rows
            if row["mode"].startswith("serial-batch")
        )
        assert best_thread >= 1.5 * rows[0]["docs_per_sec"]
        assert best_thread > best_serial_batch


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small fast corpus (the CI bench-smoke variant)")
    parser.add_argument("--workers", type=int, action="append", default=None,
                        metavar="N",
                        help="thread count(s) for the workers-thread rows "
                             "(repeatable; default 2 and 4)")
    parser.add_argument("--backend", default=None, metavar="NAME",
                        help="kernel backend for every row (python, numpy, "
                             "native); default: REPRO_BACKEND or native "
                             "(which serves the bit-identical numpy "
                             "fallback without a C compiler)")
    args = parser.parse_args(argv)
    calibrate_s, rows, meta = run_scaling(
        smoke=args.smoke, threads=args.workers, backend=args.backend
    )
    _render(calibrate_s, rows, meta, lambda line="": print(line, file=sys.stdout))
    print(f"JSON written to {emit_json(calibrate_s, rows, meta)}")


if __name__ == "__main__":
    main()
