"""Router scale-out: closed-loop clients against a real shard fleet.

The scale-out pitch (``repro-mss route``) is that N single-machine
service processes behind the consistent-hash router sustain close to N
times the docs/sec of one -- because each (spec, model) request class
sticks to one shard, micro-batching keeps coalescing, and shards share
nothing.  This benchmark measures that end-to-end: genuine ``serve``
child processes on ephemeral ports, the asyncio router in front, real
sockets all the way, emitting ``results/BENCH_router.json``.

Per shard count, ``CLIENTS`` closed-loop workers (send, wait, repeat
over keep-alive connections through the router) fire
``DOCS_PER_REQUEST``-document mine requests.  Each client carries a
distinct ``limit`` value -- a spec field, hence a distinct routing key
-- *pre-picked so the keys spread evenly across the fleet* (placement
is a pure function of the shard names, so the assignment can be
computed before any process starts).  The work per document is
identical across clients: ``limit`` values this large never truncate
results, so rows differ only in where the ring sends them.

Reported per row: sustained docs/sec over the timed window, pooled
request-latency p50/p99, and the per-shard request spread from the
router's own ``repro_router_proxied_total`` metric.  The acceptance
gate for PR 8 is ``scaling_speedup`` -- 2 shards must sustain >= 1.7x
the docs/sec of 1 shard -- which only applies on hosts with >= 2 CPU
cores (shards are processes; on one core they time-slice, and the
honest result is ~1x).  The gate is therefore conditioned on
``os.cpu_count()``, and the JSON records the core count either way.

Run directly (``python benchmarks/bench_router.py``, ``--smoke`` for
the fast CI variant -- 2 shards only, few requests, never clobbering
the committed full run) or through pytest
(``pytest benchmarks/bench_router.py``).
"""

import argparse
import json
import os
import statistics
import sys
import threading
import time
import urllib.request
from pathlib import Path

from repro.core.model import BernoulliModel
from repro.generators import generate_null_string
from repro.kernels import get_backend
from repro.router import HashRing, RouterService, ShardProcess, routing_key
from repro.service import ServiceClient
from repro.service.app import ServiceThread

DOC_LENGTH = 400
DOCS_PER_REQUEST = 4
CLIENTS = 6
REQUESTS_PER_CLIENT = 12
WARMUP = 2
SHARD_COUNTS = [1, 2]

SMOKE_DOC_LENGTH = 240
SMOKE_CLIENTS = 4
SMOKE_REQUESTS_PER_CLIENT = 4
SMOKE_WARMUP = 1
SMOKE_SHARD_COUNTS = [2]

#: The scale-out acceptance bar: docs/sec at 2 shards over 1 shard,
#: enforced only where shard processes can actually run in parallel.
SPEEDUP_GATE = 1.7

#: ``limit`` values start here: far above any per-document result
#: count at these sizes, so distinct limits never change the work.
LIMIT_FLOOR = 10_000

RESULTS_DIR = Path(__file__).resolve().parent / "results"

MODEL = BernoulliModel.uniform("ab")

SERVE_ARGS = [
    "--alphabet", "ab",
    "--workers", "1",
    "--batch-docs", "32",
    "--max-pending", "256",
]


def build_documents(count, doc_length):
    """Deterministic documents, anomalous bursts sprinkled in."""
    documents = []
    for i in range(count):
        text = generate_null_string(MODEL, doc_length, seed=8100 + i)
        if i % 5 == 0:
            middle = doc_length // 2
            text = text[:middle] + "b" * 30 + text[middle + 30:]
        documents.append(text)
    return documents


def balanced_limits(n_shards, clients):
    """Per-client ``limit`` values whose routing keys spread evenly.

    Ring placement depends only on the shard *names* (``shard-0`` ...),
    which are fixed before any process spawns, so the search runs
    offline: client ``i`` gets the next limit value whose key lands on
    shard ``i % n_shards``.
    """
    ring = HashRing([f"shard-{i}" for i in range(n_shards)])
    limits = []
    candidate = LIMIT_FLOOR
    for i in range(clients):
        target = f"shard-{i % n_shards}"
        while True:
            body = json.dumps({"limit": candidate}).encode()
            if ring.node_for(routing_key(body)) == target:
                break
            candidate += 1
        limits.append(candidate)
        candidate += 1
    return limits


def _metric_by_shard(metrics_text, name):
    """Per-shard sample totals of one family in the merged exposition."""
    per_shard = {}
    for line in metrics_text.splitlines():
        if line.startswith(name + "{") and 'shard="' in line:
            shard = line.split('shard="', 1)[1].split('"', 1)[0]
            value = float(line.rsplit(" ", 1)[1])
            per_shard[shard] = per_shard.get(shard, 0.0) + value
    return per_shard


def _shard_profile(shard, seconds=60):
    """One shard's ``GET /debug/profile`` dump (collapsed stacks), or
    a placeholder line if the shard cannot answer -- this is a failure
    artifact, never worth failing the benchmark over."""
    host, port = shard.address
    try:
        with urllib.request.urlopen(
            f"http://{host}:{port}/debug/profile?seconds={seconds}",
            timeout=30,
        ) as response:
            return response.read().decode()
    except OSError as exc:
        return f"# profile fetch from {shard.name} failed: {exc}\n"


def run_scenario(n_shards, clients, requests_per_client, warmup, doc_length,
                 trace_log=None):
    """One shard-count row: spawn fleet, route load, measure, drain."""
    documents = build_documents(
        clients * (requests_per_client + warmup) * DOCS_PER_REQUEST,
        doc_length,
    )
    limits = balanced_limits(n_shards, clients)
    latencies_by_client = [[] for _ in range(clients)]
    errors = []
    start_barrier = threading.Barrier(clients + 1)

    def client_loop(client_id):
        try:
            with ServiceClient(*handle.address, timeout=300.0) as client:
                base = client_id * (requests_per_client + warmup)
                for i in range(warmup):
                    lo = (base + i) * DOCS_PER_REQUEST
                    client.mine(texts=documents[lo:lo + DOCS_PER_REQUEST],
                                limit=limits[client_id])
                start_barrier.wait(timeout=120)
                for i in range(requests_per_client):
                    lo = (base + warmup + i) * DOCS_PER_REQUEST
                    started = time.perf_counter()
                    response = client.mine(
                        texts=documents[lo:lo + DOCS_PER_REQUEST],
                        limit=limits[client_id],
                    )
                    latencies_by_client[client_id].append(
                        time.perf_counter() - started
                    )
                    if response["documents"] != DOCS_PER_REQUEST:
                        raise RuntimeError(f"bad response: {response}")
        except Exception as exc:  # surfaced by the caller
            errors.append(exc)
            start_barrier.abort()

    shards = []
    try:
        for index in range(n_shards):
            shard = ShardProcess(SERVE_ARGS, name=f"shard-{index}",
                                 startup_timeout=120.0)
            shard.start()
            shards.append(shard)
        router = RouterService(processes=shards, trace_log=trace_log)
        with ServiceThread(router, startup_timeout=120.0) as handle:
            threads = [
                threading.Thread(target=client_loop, args=(client_id,))
                for client_id in range(clients)
            ]
            for thread in threads:
                thread.start()
            start_barrier.wait(timeout=120)  # all clients warmed up
            window_started = time.perf_counter()
            for thread in threads:
                thread.join(600)
            window_seconds = time.perf_counter() - window_started
            with ServiceClient(*handle.address, timeout=60.0) as scraper:
                metrics_text = scraper.metrics()
                stats = scraper.stats()
            profile_text = _shard_profile(shards[0])
    finally:
        for shard in shards:
            if shard.alive:
                shard.kill()
    if errors:
        raise errors[0]
    latencies = sorted(
        latency for per_client in latencies_by_client for latency in per_client
    )
    total_requests = len(latencies)
    proxied = _metric_by_shard(metrics_text, "repro_router_proxied_total")
    rejected = sum(
        shard_stats["batcher"]["requests_rejected"]
        for shard_stats in stats["shards"].values()
    )
    return metrics_text, profile_text, {
        "shards": n_shards,
        "clients": clients,
        "docs_per_request": DOCS_PER_REQUEST,
        "requests": total_requests,
        "window_seconds": window_seconds,
        "docs_per_second": total_requests * DOCS_PER_REQUEST / window_seconds,
        "p50_ms": statistics.median(latencies) * 1000.0,
        "p99_ms": latencies[min(total_requests - 1,
                                int(0.99 * total_requests))] * 1000.0,
        "proxied_by_shard": proxied,
        "rejected": rejected,
    }


def run_router_scaling(smoke=False):
    doc_length = SMOKE_DOC_LENGTH if smoke else DOC_LENGTH
    shard_counts = SMOKE_SHARD_COUNTS if smoke else SHARD_COUNTS
    clients = SMOKE_CLIENTS if smoke else CLIENTS
    requests_per_client = (
        SMOKE_REQUESTS_PER_CLIENT if smoke else REQUESTS_PER_CLIENT
    )
    warmup = SMOKE_WARMUP if smoke else WARMUP
    rows = []
    metrics_text = ""
    profile_text = ""
    # The router's trace sink (JSONL, one kept trace per line) and a
    # shard /debug/profile dump land next to the JSON artifact; CI
    # uploads both when the router job fails.
    RESULTS_DIR.mkdir(exist_ok=True)
    trace_name = "trace_router_smoke.jsonl" if smoke else "trace_router.jsonl"
    trace_path = RESULTS_DIR / trace_name
    trace_path.unlink(missing_ok=True)  # the sink appends; start clean
    for n_shards in shard_counts:
        metrics_text, profile_text, row = run_scenario(
            n_shards, clients, requests_per_client, warmup, doc_length,
            trace_log=str(trace_path),
        )
        rows.append(row)
    comparison = {}
    by_count = {row["shards"]: row for row in rows}
    if 1 in by_count and 2 in by_count:
        comparison = {
            "scaling_speedup": (by_count[2]["docs_per_second"]
                                / by_count[1]["docs_per_second"]),
            "gate": SPEEDUP_GATE,
            "gate_applies": (os.cpu_count() or 1) >= 2,
        }
    kernel = get_backend()
    meta = {
        "backend": kernel.name,
        # the shards inherit this environment and compile cache, so
        # they resolve the same way; differs from "backend" when native
        # fell back to numpy
        "backend_resolved": getattr(kernel, "resolved_name", kernel.name),
        "doc_length": doc_length,
        "requests_per_client": requests_per_client,
        "warmup_per_client": warmup,
        "smoke": smoke,
        "metrics_text": metrics_text,
        "profile_text": profile_text,
    }
    return rows, comparison, meta


def emit_json(rows, comparison, meta):
    """Write the JSON artifact; smoke runs get their own file so they
    never clobber the committed full-run acceptance comparison.  The
    final fleet's merged ``GET /metrics`` scrape is saved next to it
    for ``tools/check_metrics.py``.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    meta = dict(meta)
    metrics_text = meta.pop("metrics_text", "")
    profile_text = meta.pop("profile_text", "")
    scrape_name = (
        "metrics_router_smoke.txt" if meta["smoke"] else "metrics_router.txt"
    )
    (RESULTS_DIR / scrape_name).write_text(metrics_text)
    profile_name = (
        "profile_router_smoke.txt" if meta["smoke"] else "profile_router.txt"
    )
    (RESULTS_DIR / profile_name).write_text(profile_text)
    payload = {
        "benchmark": "router_scaling",
        "cpu_count": os.cpu_count(),
        **meta,
        "note": "closed-loop clients sending multi-document mine requests "
                "through repro-mss route to N spawned serve processes; each "
                "client's distinct limit value gives it a distinct routing "
                "key, pre-balanced across the ring; scaling_speedup is the "
                "PR 8 acceptance metric (2 shards vs 1), gated on "
                "cpu_count >= 2 because shard processes on a single core "
                "time-slice instead of scaling",
        "results": rows,
        "comparison": comparison,
    }
    name = "BENCH_router_smoke.json" if meta["smoke"] else "BENCH_router.json"
    path = RESULTS_DIR / name
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def _render(rows, comparison, meta, emit):
    emit(f"Router scaling ({meta['requests_per_client']} reqs/client x "
         f"{DOCS_PER_REQUEST} docs of {meta['doc_length']} symbols, "
         f"{os.cpu_count()} cpu core(s), backend={meta['backend']} "
         f"(resolved {meta['backend_resolved']})"
         f"{', smoke' if meta['smoke'] else ''}):")
    header = (f"{'shards':>6}  {'clients':>7}  {'docs/sec':>9}  "
              f"{'p50 ms':>8}  {'p99 ms':>8}  {'spread':>20}")
    emit(header)
    emit("-" * len(header))
    for row in rows:
        spread = ",".join(
            f"{shard.split('-')[-1]}:{int(count)}"
            for shard, count in sorted(row["proxied_by_shard"].items())
        )
        emit(f"{row['shards']:>6}  {row['clients']:>7}  "
             f"{row['docs_per_second']:>9.1f}  {row['p50_ms']:>8.2f}  "
             f"{row['p99_ms']:>8.2f}  {spread:>20}")
    if comparison:
        applies = "enforced" if comparison["gate_applies"] else (
            "not enforced on this host (single core)")
        emit(f"scaling speedup 2 shards vs 1: "
             f"{comparison['scaling_speedup']:.2f}x docs/sec "
             f"(gate {comparison['gate']}x, {applies})")


def test_router_scaling(benchmark, reporter):
    rows, comparison, meta = benchmark.pedantic(
        run_router_scaling, kwargs={"smoke": True}, rounds=1, iterations=1
    )
    path = emit_json(rows, comparison, meta)
    _render(rows, comparison, meta, reporter.emit)
    reporter.emit(f"JSON written to {path}")
    assert all(row["docs_per_second"] > 0 for row in rows)
    assert all(row["rejected"] == 0 for row in rows)  # sized under capacity
    # the pre-balanced routing keys must have reached every shard
    for row in rows:
        assert len(row["proxied_by_shard"]) == row["shards"]
        assert all(count > 0 for count in row["proxied_by_shard"].values())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="2 shards only, few requests (the CI variant)")
    args = parser.parse_args(argv)
    rows, comparison, meta = run_router_scaling(smoke=args.smoke)
    _render(rows, comparison, meta, lambda line="": print(line, file=sys.stdout))
    print(f"JSON written to {emit_json(rows, comparison, meta)}")
    if comparison and comparison["gate_applies"]:
        if comparison["scaling_speedup"] < SPEEDUP_GATE:
            print(f"WARNING: 2-shard speedup "
                  f"{comparison['scaling_speedup']:.2f}x is below the "
                  f"{SPEEDUP_GATE}x gate", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
