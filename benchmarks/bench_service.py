"""Service load: closed-loop clients against the async mining service.

The serving pitch (``repro-mss serve``) is that request micro-batching
recovers the engine's batched-kernel throughput even when every client
sends one document at a time.  This benchmark measures exactly that
claim end-to-end -- real sockets, real HTTP framing, real concurrency --
and emits machine-readable ``results/BENCH_service.json``.

Per scenario, ``clients`` closed-loop workers (send, wait, repeat --
each over its own keep-alive connection) fire single-document mine
requests at an in-process :class:`~repro.service.app.MiningService`;
each client count runs twice:

* ``batch-off`` -- ``batch_docs=1``: every request is its own engine
  pass, the no-batching control;
* ``batch-on``  -- ``batch_docs=32``, natural batching: the batcher
  dispatches as soon as its mining lane is idle, and requests that
  arrived during the previous mine coalesce into one shared
  ``mine_batch`` kernel call.

Reported per row: sustained docs/sec over the timed window and the
pooled request-latency p50/p99 -- measured twice, once by the clients'
own clocks and once from the service's ``repro_http_request_seconds``
histogram (the recent-window quantiles that ``GET /metrics`` and
``/stats`` expose) -- plus the service's own measured batch fill.  The
two latency views must agree (see ``test_service_load``): client p50
is server p50 plus client-side overhead, so a large gap means the
service's telemetry is lying.  The acceptance gate for PR 5 is the
``batching_speedup`` comparison: with >= 4 concurrent clients,
``batch-on`` must sustain more docs/sec than ``batch-off``
(single-doc requests cannot coalesce with fewer concurrent senders, so
the 1-client rows are the honest baseline, not a target).

Each run also saves the final scenario's raw ``GET /metrics`` scrape
(``results/metrics_smoke.txt`` / ``results/metrics.txt``); CI feeds it
to ``tools/check_metrics.py`` to prove the exposition stays parseable.

Honest measurement notes:

* every client performs ``WARMUP`` untimed requests first, so backend
  resolution and import costs stay out of the window;
* responses are bit-identical to a direct ``CorpusEngine.run`` whatever
  the batching mode (that is a *test* -- ``tests/service`` -- not a
  benchmark claim);
* the service runs ``workers=1`` here: micro-batching and multi-core
  mining are independent wins, and a 1-worker service isolates the
  batching effect on any host (``cpu_count`` is recorded regardless).

Run directly (``python benchmarks/bench_service.py``, ``--smoke`` for
the fast CI variant) or through pytest
(``pytest benchmarks/bench_service.py``).

``--fault SPEC`` (e.g. ``--fault mine_delay_ms:50,disk_cache_corrupt``)
switches to the chaos smoke: a ``REPRO_FAULTS`` spec is injected into a
calibrated 2-thread service over a pre-warmed disk calibration store,
and the run fails unless every response without a deadline stayed
bit-identical to a direct engine run *and* each injected fault actually
bit: ``mine_delay_ms`` must time out the short-deadline probes
(nonzero ``repro_requests_timed_out_total``), ``disk_cache_corrupt``
must quarantine a stored entry (nonzero
``repro_calibration_events_total{event="disk_corrupt"}``).  CI's
``chaos-smoke`` job runs exactly this.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.core.model import BernoulliModel
from repro.engine import CalibrationCache, CorpusEngine
from repro.faults import FAULTS_ENV, FaultRegistry, reset_faults
from repro.generators import generate_null_string
from repro.kernels import get_backend
from repro.service import (
    DiskCalibrationCache,
    MiningService,
    ServiceClient,
    ServiceError,
    ServiceThread,
)

DOC_LENGTH = 600
CLIENT_COUNTS = [1, 4, 8]
REQUESTS_PER_CLIENT = 40
WARMUP = 5
BATCH_DOCS = 32

SMOKE_DOC_LENGTH = 300
SMOKE_CLIENT_COUNTS = [2]
SMOKE_REQUESTS_PER_CLIENT = 12
SMOKE_WARMUP = 2

RESULTS_DIR = Path(__file__).resolve().parent / "results"

MODEL = BernoulliModel.uniform("ab")


def build_documents(count, doc_length):
    """Deterministic per-request documents, bursts sprinkled in."""
    documents = []
    for i in range(count):
        text = generate_null_string(MODEL, doc_length, seed=7000 + i)
        if i % 7 == 0:
            middle = doc_length // 2
            text = text[:middle] + "a" * 40 + text[middle + 40:]
        documents.append(text)
    return documents


def run_scenario(label, clients, requests_per_client, warmup, doc_length,
                 batch_docs, backend=None):
    """One (client count, batching mode) row: serve, load, measure."""
    documents = build_documents(clients * (requests_per_client + warmup),
                                doc_length)
    service = MiningService(
        MODEL,
        workers=1,
        batch_docs=batch_docs,
        max_pending_docs=max(64, 4 * clients),
        backend=backend,
    )
    latencies_by_client = [[] for _ in range(clients)]
    errors = []
    start_barrier = threading.Barrier(clients + 1)

    def client_loop(client_id):
        try:
            with ServiceClient(*handle.address, timeout=120.0) as client:
                base = client_id * (requests_per_client + warmup)
                for i in range(warmup):
                    client.mine(text=documents[base + i])
                start_barrier.wait(timeout=60)
                for i in range(requests_per_client):
                    text = documents[base + warmup + i]
                    started = time.perf_counter()
                    response = client.mine(text=text)
                    latencies_by_client[client_id].append(
                        time.perf_counter() - started
                    )
                    if response["documents"] != 1:
                        raise RuntimeError(f"bad response: {response}")
        except Exception as exc:  # surfaced by the caller
            errors.append(exc)
            start_barrier.abort()

    with ServiceThread(service) as handle:
        threads = [
            threading.Thread(target=client_loop, args=(client_id,))
            for client_id in range(clients)
        ]
        for thread in threads:
            thread.start()
        start_barrier.wait(timeout=60)  # all clients warmed up
        window_started = time.perf_counter()
        for thread in threads:
            thread.join(600)
        window_seconds = time.perf_counter() - window_started
        stats = service.stats()
        # The service's own latency view: recent-window quantiles off the
        # repro_http_request_seconds histogram -- the numbers /metrics
        # and /stats publish, compared below against client-side clocks.
        server_histogram = service.metrics.get("repro_http_request_seconds")
        mine_series = server_histogram.labels(endpoint="/mine")
        server_p50 = mine_series.quantile(0.50)
        server_p99 = mine_series.quantile(0.99)
        # The continuous profiler ran for the whole scenario; its own
        # measured cost is the honest price of always-on profiling, and
        # the acceptance gate holds it under 5% of wall time.
        profiler = service.profiler.summary()
        with ServiceClient(*handle.address, timeout=30.0) as scraper:
            metrics_text = scraper.metrics()
    if errors:
        raise errors[0]
    latencies = sorted(
        latency for per_client in latencies_by_client for latency in per_client
    )
    total_requests = len(latencies)
    batcher = stats["batcher"]
    return metrics_text, {
        "mode": label,
        "clients": clients,
        "batching": batch_docs > 1,
        "batch_docs": batch_docs,
        "requests": total_requests,
        "window_seconds": window_seconds,
        "docs_per_second": total_requests / window_seconds,
        "p50_ms": statistics.median(latencies) * 1000.0,
        "p99_ms": latencies[min(total_requests - 1,
                                int(0.99 * total_requests))] * 1000.0,
        "server_p50_ms": server_p50 * 1000.0,
        "server_p99_ms": server_p99 * 1000.0,
        "batch_fill": batcher["batch_fill"],
        "batches": batcher["batches"],
        "rejected": batcher["requests_rejected"],
        "profiler_samples": profiler["samples"],
        "profiler_overhead": profiler["overhead_ratio"],
    }


def run_service_load(smoke=False, backend=None):
    doc_length = SMOKE_DOC_LENGTH if smoke else DOC_LENGTH
    client_counts = SMOKE_CLIENT_COUNTS if smoke else CLIENT_COUNTS
    requests_per_client = (
        SMOKE_REQUESTS_PER_CLIENT if smoke else REQUESTS_PER_CLIENT
    )
    warmup = SMOKE_WARMUP if smoke else WARMUP
    rows = []
    metrics_text = ""
    for clients in client_counts:
        for label, batch_docs in (("batch-off", 1), ("batch-on", BATCH_DOCS)):
            metrics_text, row = run_scenario(
                f"{label}-c{clients}", clients, requests_per_client, warmup,
                doc_length, batch_docs, backend=backend,
            )
            rows.append(row)
    comparison = []
    for clients in client_counts:
        off = next(r for r in rows
                   if r["clients"] == clients and not r["batching"])
        on = next(r for r in rows if r["clients"] == clients and r["batching"])
        comparison.append({
            "clients": clients,
            "batching_speedup": on["docs_per_second"] / off["docs_per_second"],
            "p50_ratio": on["p50_ms"] / off["p50_ms"],
        })
    kernel = get_backend(backend)
    resolved = getattr(kernel, "resolved_name", kernel.name)
    for row in rows:
        row["cpu_count"] = os.cpu_count()
        row["backend_resolved"] = resolved
    meta = {
        "doc_length": doc_length,
        "requests_per_client": requests_per_client,
        "warmup_per_client": warmup,
        "smoke": smoke,
        "backend": kernel.name,
        # differs from "backend" when native fell back to numpy
        "backend_resolved": resolved,
        "metrics_text": metrics_text,
    }
    return rows, comparison, meta


def emit_json(rows, comparison, meta):
    """Write the JSON artifact; smoke runs get their own file so they
    never clobber the committed full-run acceptance comparison.

    The final scenario's raw ``GET /metrics`` scrape is saved next to
    it (``metrics_smoke.txt`` / ``metrics.txt``) for
    ``tools/check_metrics.py`` to validate.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    meta = dict(meta)
    metrics_text = meta.pop("metrics_text", "")
    scrape_name = "metrics_smoke.txt" if meta["smoke"] else "metrics.txt"
    (RESULTS_DIR / scrape_name).write_text(metrics_text)
    payload = {
        "benchmark": "service_load",
        "cpu_count": os.cpu_count(),
        **meta,
        "note": "closed-loop clients sending 1-document mine requests over "
                "keep-alive HTTP to an in-process MiningService (workers=1); "
                "batch-on coalesces concurrent requests into batch_docs-"
                "sized mine_batch kernel calls as soon as the mining lane is "
                "idle (no linger), batch-off is the per-request "
                "control; batching_speedup is the PR 5 acceptance metric at "
                ">= 4 clients",
        "results": rows,
        "comparison": comparison,
    }
    name = "BENCH_service_smoke.json" if meta["smoke"] else "BENCH_service.json"
    path = RESULTS_DIR / name
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def _render(rows, comparison, meta, emit):
    emit(f"Service load ({meta['requests_per_client']} reqs/client x 1 doc "
         f"of {meta['doc_length']} symbols, {os.cpu_count()} cpu core(s), "
         f"backend={meta['backend']} "
         f"(resolved {meta['backend_resolved']})"
         f"{', smoke' if meta['smoke'] else ''}):")
    header = (f"{'mode':>14}  {'clients':>7}  {'docs/sec':>9}  "
              f"{'p50 ms':>8}  {'p99 ms':>8}  {'srv p50':>8}  "
              f"{'srv p99':>8}  {'fill':>5}  {'batches':>7}")
    emit(header)
    emit("-" * len(header))
    for row in rows:
        emit(f"{row['mode']:>14}  {row['clients']:>7}  "
             f"{row['docs_per_second']:>9.1f}  {row['p50_ms']:>8.2f}  "
             f"{row['p99_ms']:>8.2f}  {row['server_p50_ms']:>8.2f}  "
             f"{row['server_p99_ms']:>8.2f}  {row['batch_fill']:>5.2f}  "
             f"{row['batches']:>7}")
    for entry in comparison:
        emit(f"batching speedup at {entry['clients']} client(s): "
             f"{entry['batching_speedup']:.2f}x docs/sec, "
             f"p50 {entry['p50_ratio']:.2f}x")
    worst = max(rows, key=lambda row: row["profiler_overhead"])
    emit(f"continuous profiler overhead: worst row "
         f"{100.0 * worst['profiler_overhead']:.2f}% of wall "
         f"({worst['profiler_samples']} samples in {worst['mode']}; "
         f"gate {100.0 * PROFILER_OVERHEAD_GATE:.0f}%)")


#: Client- vs server-side latency agreement: the client's clock reads
#: server time plus client-side overhead, so server p50 must sit below
#: the client's but within this relative band of it (plus a small
#: absolute floor for sub-millisecond scheduling noise).
AGREEMENT_RELATIVE = 0.5
AGREEMENT_FLOOR_MS = 5.0

#: Ceiling on the continuous profiler's measured self-overhead (busy
#: seconds inside the sampling thread over service wall time) during a
#: sustained load scenario: always-on profiling must cost < 5%.
PROFILER_OVERHEAD_GATE = 0.05


def latency_views_agree(row) -> bool:
    """Whether a row's client-measured and server-measured p50 agree."""
    tolerance = max(AGREEMENT_FLOOR_MS, AGREEMENT_RELATIVE * row["p50_ms"])
    return abs(row["p50_ms"] - row["server_p50_ms"]) <= tolerance


def test_service_load(benchmark, reporter):
    rows, comparison, meta = benchmark.pedantic(
        run_service_load, kwargs={"smoke": True}, rounds=1, iterations=1
    )
    path = emit_json(rows, comparison, meta)
    _render(rows, comparison, meta, reporter.emit)
    reporter.emit(f"JSON written to {path}")
    assert all(row["docs_per_second"] > 0 for row in rows)
    assert all(row["rejected"] == 0 for row in rows)  # sized under capacity
    # with 2 concurrent clients the batch-on rows must actually coalesce
    on_rows = [row for row in rows if row["batching"]]
    assert all(row["batch_fill"] > 1.0 for row in on_rows)
    # the service's own histogram must tell the same latency story as
    # the clients' clocks
    assert all(row["server_p50_ms"] > 0.0 for row in rows)
    assert all(latency_views_agree(row) for row in rows)
    # the always-on sampling profiler must stay effectively free
    assert all(row["profiler_samples"] > 0 for row in rows)
    assert all(
        row["profiler_overhead"] < PROFILER_OVERHEAD_GATE for row in rows
    )


#: Chaos smoke shape: FAULT_ROUNDS requests of FAULT_DOCS documents
#: through a 2-thread service with a FAULT_BATCH_DOCS batch target and
#: a FAULT_TRIALS-trial disk calibration store.
FAULT_DOCS = 16
FAULT_BATCH_DOCS = 4
FAULT_ROUNDS = 6
FAULT_TRIALS = 20


def _metric_total(metrics_text, name, labels=""):
    """Sum every sample of one family (whose labels contain ``labels``)
    in a Prometheus exposition."""
    total = 0.0
    for line in metrics_text.splitlines():
        if line.startswith(name) and not line.startswith("#"):
            head = line.split(" ")[0]
            if (head == name or head.startswith(name + "{")) and (
                labels in head
            ):
                total += float(line.rsplit(" ", 1)[1])
    return total


def run_fault_smoke(fault_spec, emit=print):
    """The chaos smoke: mine under ``REPRO_FAULTS=fault_spec``.

    Each of ``FAULT_ROUNDS`` rounds sends one request without a
    deadline, which must be bit-identical to a direct calibrated
    ``CorpusEngine.run`` of the same documents, and -- when
    ``mine_delay_ms`` is injected -- one probe whose ``timeout_ms`` is
    half the stall, which must be answered 504.  Each injected fault
    must bite: ``mine_delay_ms`` on ``repro_requests_timed_out_total``,
    ``disk_cache_corrupt`` on
    ``repro_calibration_events_total{event="disk_corrupt"}`` (the store
    is pre-warmed so the service reads its entries from disk).  The
    final metrics scrape is saved to ``results/metrics_fault_smoke.txt``,
    the trace sink to ``results/trace_fault_smoke.jsonl`` and the
    profiler's collapsed stacks to ``results/profile_fault_smoke.txt``
    -- CI uploads all three when the job fails, so a chaos failure
    arrives with its traces attached.

    Returns the number of hard failures (0 = pass).
    """
    sites = FaultRegistry.from_spec(fault_spec).sites
    delay_ms = sites.get("mine_delay_ms", 0.0)
    previous = os.environ.get(FAULTS_ENV)
    RESULTS_DIR.mkdir(exist_ok=True)
    trace_path = RESULTS_DIR / "trace_fault_smoke.jsonl"
    trace_path.unlink(missing_ok=True)  # the sink appends; start clean
    documents = build_documents(FAULT_DOCS, SMOKE_DOC_LENGTH)
    expected = [
        {k: v for k, v in doc.payload(include_timing=False).items()
         if k != "elapsed_seconds"}
        for doc in CorpusEngine(
            calibration=CalibrationCache(trials=FAULT_TRIALS, seed=0)
        ).run_texts(documents, MODEL).documents
    ]
    with tempfile.TemporaryDirectory() as store:
        DiskCalibrationCache(
            store, trials=FAULT_TRIALS, seed=0
        ).distribution_for(MODEL, SMOKE_DOC_LENGTH)
        os.environ[FAULTS_ENV] = fault_spec
        reset_faults()
        try:
            service = MiningService(
                MODEL,
                workers=2,
                batch_docs=FAULT_BATCH_DOCS,
                calibration=DiskCalibrationCache(
                    store, trials=FAULT_TRIALS, seed=0
                ),
                trace_log=str(trace_path),
            )
            mismatches = late = 0
            with ServiceThread(service) as handle:
                with ServiceClient(*handle.address, timeout=120.0) as client:
                    for _ in range(FAULT_ROUNDS):
                        response = client.mine(texts=documents)
                        got = [
                            {k: v for k, v in doc.items()
                             if k != "elapsed_seconds"}
                            for doc in response["results"]
                        ]
                        if got != expected:
                            mismatches += 1
                        if delay_ms > 0:
                            try:
                                client.mine(
                                    texts=documents[:1],
                                    timeout_ms=max(1, int(delay_ms / 2)),
                                )
                                late += 1  # answered despite the stall
                            except ServiceError as exc:
                                if exc.status != 504:
                                    late += 1
                    metrics_text = client.metrics()
                    profile_text = service.profiler.collapsed()
        finally:
            if previous is None:
                os.environ.pop(FAULTS_ENV, None)
            else:
                os.environ[FAULTS_ENV] = previous
            reset_faults()
    timed_out = _metric_total(metrics_text, "repro_requests_timed_out_total")
    corrupt = _metric_total(
        metrics_text, "repro_calibration_events_total", 'event="disk_corrupt"'
    )
    (RESULTS_DIR / "metrics_fault_smoke.txt").write_text(metrics_text)
    (RESULTS_DIR / "profile_fault_smoke.txt").write_text(profile_text)
    emit(f"Chaos smoke (REPRO_FAULTS={fault_spec}): "
         f"{FAULT_ROUNDS} rounds x {FAULT_DOCS} docs, "
         f"timed_out={timed_out:.0f}, disk_corrupt={corrupt:.0f}, "
         f"mismatches={mismatches}, late={late}")
    failures = mismatches + late
    if mismatches:
        emit(f"FAIL: {mismatches} response(s) diverged from the direct "
             f"engine run under fault injection", file=sys.stderr)
    if late:
        emit(f"FAIL: {late} probe(s) shorter than the mine stall were not "
             f"answered 504", file=sys.stderr)
    if "mine_delay_ms" in sites and timed_out <= 0:
        failures += 1
        emit("FAIL: the injected mine stall never timed a request out "
             "(repro_requests_timed_out_total == 0)", file=sys.stderr)
    if "disk_cache_corrupt" in sites and corrupt <= 0:
        failures += 1
        emit("FAIL: the injected corruption never quarantined an entry "
             '(repro_calibration_events_total{event="disk_corrupt"} == 0)',
             file=sys.stderr)
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="2 clients, few requests (the CI variant)")
    parser.add_argument(
        "--fault",
        default=None,
        metavar="SPEC",
        help="run the chaos smoke instead: a REPRO_FAULTS spec, e.g. "
             "mine_delay_ms:50,disk_cache_corrupt (asserts bit-identical "
             "responses and that every injected fault bit)",
    )
    parser.add_argument(
        "--backend", default=None, metavar="NAME",
        help="kernel backend for the service under load (python, numpy, "
             "native); default: REPRO_BACKEND or native (which serves "
             "the bit-identical numpy fallback without a C compiler)",
    )
    args = parser.parse_args(argv)
    if args.fault:
        def emit(message="", file=sys.stdout):
            print(message, file=file)

        return 1 if run_fault_smoke(args.fault, emit=emit) else 0
    rows, comparison, meta = run_service_load(
        smoke=args.smoke, backend=args.backend
    )
    _render(rows, comparison, meta, lambda line="": print(line, file=sys.stdout))
    print(f"JSON written to {emit_json(rows, comparison, meta)}")
    if not args.smoke:
        # the PR 5 acceptance gate: batching wins at >= 4 clients
        gated = [entry for entry in comparison if entry["clients"] >= 4]
        failing = [entry for entry in gated if entry["batching_speedup"] <= 1.0]
        if failing:
            print(f"WARNING: batching did not win: {failing}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
