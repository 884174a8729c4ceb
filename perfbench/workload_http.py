"""``trickle`` and ``burst``: the program over HTTP, as users deploy it.

* ``trickle`` -- one keep-alive connection sends 1-document binary
  requests through ``repro-mss route --upstream`` to two ``serve
  --calibrate`` shards.  Requests alternate between two tenants' null
  models that the ring places on different shards.  Every hop is on the
  path and the kernel is tiny, so per-request fixed costs dominate.
* ``burst`` -- two keep-alive connections send 2-8 document requests to
  one ``serve --workers 2 --calibrate``; each connection alternates its
  own pair of problems, so coalesced batches hold two spec groups that
  the shared-memory pool mines as separate chunks.  The only workload
  on the pool and the in-host parallel tier.

Both are closed loops from this one load-generator process.  Every
response is compared with a direct ``CorpusEngine.run`` of the same
documents (see :mod:`inputs`).
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import inputs
import measure
from fleet import Client, Program, metric_by, metric_total, parse_metrics

SERVE = ["serve", "--host", "127.0.0.1", "--port", "0", "--calibrate"]
READY_TIMEOUT = 60.0


def _wait_healthy(client: Client, shards: int) -> None:
    """Poll ``/healthz`` until the edge is ok -- for the router, until
    a health sweep has seen every shard ok."""
    deadline = time.monotonic() + READY_TIMEOUT
    health: dict = {}
    while time.monotonic() < deadline:
        try:
            health = client.get_json("/healthz")
        except (OSError, RuntimeError):
            health = {}
        states = [s.get("status") for s in health.get("shards", {}).values()]
        if health.get("status") == "ok" and states.count("ok") == shards:
            return
        time.sleep(0.01)
    raise RuntimeError(f"program not healthy after {READY_TIMEOUT}s: {health}")


class Fleet:
    """The processes of one HTTP workload, from spawn to stop."""

    def __init__(self, workload: str, ctx) -> None:
        self.workload = workload
        self.ctx = ctx
        self.programs: list[Program] = []
        self.edge: tuple[str, int] | None = None

    def spawn(self, args: list[str]) -> Program:
        program = Program(args, self.ctx.env)
        self.programs.append(program)
        return program

    def start(self) -> None:
        cache = self.ctx.tmp / f"calib-{self.ctx.next_id()}"
        if self.workload == "trickle":
            shards = [
                self.spawn(SERVE + ["--alphabet", inputs.BINARY_ALPHABET,
                                    "--cache-dir", str(cache)])
                for _ in inputs.SHARD_NAMES
            ]
            upstream = ",".join(
                f"{host}:{port}" for host, port in (s.address() for s in shards)
            )
            router = self.spawn(
                ["route", "--host", "127.0.0.1", "--port", "0",
                 "--upstream", upstream]
            )
            self.edge = router.address()
            expected_shards = len(shards)
        else:
            serve = self.spawn(
                SERVE + ["--alphabet", inputs.DNA_ALPHABET,
                         "--probs", ",".join(map(str, inputs.DNA_PROBS)),
                         "--workers", "2", "--cache-dir", str(cache)]
            )
            self.edge = serve.address()
            expected_shards = 0
        client = Client(self.edge)
        try:
            _wait_healthy(client, expected_shards)
        finally:
            client.close()

    def peak_rss_kib(self) -> int:
        return sum(program.peak_rss_kib() for program in self.programs)

    def stop(self) -> None:
        # The router first, so no shard is drained under live traffic.
        for program in reversed(self.programs):
            program.stop()


def _exchange(client: Client, request: dict, traced: bool) -> dict:
    """One ``POST /mine`` plus, when traced, its ``GET /trace/<id>``."""
    record: dict = {"docs": len(inputs.request_texts(request))}
    encode_start = time.perf_counter()
    body = json.dumps(request).encode("utf-8")
    sent = time.perf_counter()
    try:
        status, headers, data = client.request("POST", "/mine", body)
    except Exception as exc:  # transport failure: a failed operation
        record.update(status=None, error=f"{type(exc).__name__}: {exc}",
                      sent=sent, seconds=time.perf_counter() - sent)
        return record
    received = time.perf_counter()
    try:
        payload = json.loads(data)
    except ValueError:
        payload = None
    decoded = time.perf_counter()
    record.update(
        status=status, error=None, sent=sent, seconds=received - sent,
        client_s=(sent - encode_start) + (decoded - received),
        payload=payload, trace_id=headers.get("X-Trace-Id"),
    )
    if traced and record["trace_id"]:
        try:
            trace_status, _, trace_body = client.request(
                "GET", f"/trace/{record['trace_id']}"
            )
            if trace_status == 200:
                record["tree"] = json.loads(trace_body)
        except (OSError, http.client.HTTPException, ValueError):
            pass  # the operation stays in the results, untraced
    return record


def _warm_up(fleet: Fleet, warmup, traced: bool) -> list[dict]:
    client = Client(fleet.edge)
    try:
        records = [
            _exchange(client, request, traced)
            for requests in warmup for request in requests
        ]
    finally:
        client.close()
    for record in records:
        if record["status"] != 200:
            raise RuntimeError(f"warm-up request failed: {record}")
    return records


def _drive(edge, connections, seconds: float, traced: bool, part: int):
    """Closed loop, one thread per connection, for ``seconds``, starting
    ``part`` thirds of the way into each connection's request pool.

    Returns ``(records, window seconds, HTTP calls made)``; the window
    ends when the last operation started inside it completes.
    """
    clients = [Client(edge) for _ in connections]
    records: list[list[dict]] = [[] for _ in connections]
    window: dict = {}
    barrier = threading.Barrier(len(connections) + 1)

    def loop(conn: int) -> None:
        requests = connections[conn]
        offset = part * len(requests) // measure.SETUP_REPS
        barrier.wait()
        while time.perf_counter() < window["end"]:
            index = (offset + len(records[conn])) % len(requests)
            record = _exchange(clients[conn], requests[index], traced)
            record.update(conn=conn, index=index)
            records[conn].append(record)

    threads = [
        threading.Thread(target=loop, args=(conn,), daemon=True)
        for conn in range(len(connections))
    ]
    for thread in threads:
        thread.start()
    window["start"] = time.perf_counter()
    window["end"] = window["start"] + seconds
    barrier.wait()
    for thread in threads:
        thread.join()
    calls = sum(client.calls for client in clients)
    for client in clients:
        client.close()
    flat = [record for conn in records for record in conn]
    last = max(record["sent"] + record["seconds"] for record in flat)
    return flat, last - window["start"], calls


def _rep(ctx, workload: str, data: dict, expected, traced: bool,
         part: int) -> dict:
    """One set-up from cold plus segment ``part`` of the timed window."""
    fleet = Fleet(workload, ctx)
    try:
        started = time.perf_counter()
        fleet.start()
        warm = _warm_up(fleet, data["warmup"], traced)
        setup_s = time.perf_counter() - started
        admin = Client(fleet.edge)
        before = parse_metrics(admin.get_text("/metrics"))
        records, window_s, calls = _drive(
            fleet.edge, data["connections"],
            ctx.seconds / measure.SETUP_REPS, traced, part,
        )
        rss_kib = fleet.peak_rss_kib()
        after = parse_metrics(admin.get_text("/metrics"))
        stats = admin.get_json("/stats")
        admin.close()
    finally:
        fleet.stop()
    for record in records:
        record["ok"] = (
            record["status"] == 200
            and record.get("payload") is not None
            and inputs.outcome(record["payload"])
            == expected[record["conn"]][record["index"]]
        )
    return {
        "setup_s": setup_s, "warm": warm, "records": records,
        "window_s": window_s, "calls": calls, "rss_kib": rss_kib,
        "before": before, "after": after, "stats": stats,
    }


def _service_view(tree: dict):
    """``(edge total ms, service total ms, service spans)`` of a trace.

    A routed trace nests the shard's tree under the router's ``proxy``
    span as ``shard:<name>``; a direct one is the service tree itself.
    """
    view = (tree["total_ms"], tree["total_ms"], tree.get("spans", []))
    for node in tree.get("spans", ()):
        if node.get("name") != "proxy":
            continue
        for child in node.get("children", ()):
            if str(child.get("name", "")).startswith("shard:"):
                view = (tree["total_ms"], child["ms"], child.get("children", []))
    return view


def _layers(reps: list[dict], keys: int) -> dict:
    """Per-layer values from the traced windows' span trees, the
    ``/metrics`` deltas across each window and the final ``/stats``."""
    ok = [r for rep in reps for r in rep["records"] if r["ok"] and "tree" in r]
    stages = {stage: [] for stage in measure.STAGES}
    proxy, http, kernel_ms, chunks = [], [], 0.0, set()
    for record in ok:
        edge_ms, service_ms, spans = _service_view(record["tree"])
        proxy.append(edge_ms - service_ms)
        http.append(record["seconds"] * 1000.0 - edge_ms)
        for stage in measure.STAGES:
            stages[stage].append(
                sum(s["ms"] for s in spans if s.get("name") == stage)
            )
        for span in spans:
            if span.get("name") != "batch_mine":
                continue
            for child in span.get("children", ()):
                name, notes = child.get("name", ""), child.get("notes", {})
                if name == "kernel":
                    kernel_ms += child["ms"]
                elif name.startswith("worker_chunk_") and notes.get("worker"):
                    # Every request of a batch carries the batch's chunk
                    # spans; count each chunk once.
                    chunks.add((notes.get("pid"), notes.get("docs"),
                                notes.get("kernel_ms"), child["ms"]))
    docs = sum(r["docs"] for r in ok)
    evaluated = sum(r["payload"]["evaluated"] for r in ok)
    pairs = sum(
        d["n"] * (d["n"] + 1) // 2 for r in ok for d in r["payload"]["results"]
    )

    def window(name: str) -> float:
        """Growth of a counter across the timed windows."""
        return sum(
            metric_total(rep["after"], name) - metric_total(rep["before"], name)
            for rep in reps
        )

    def lifetime(name: str, **match) -> float:
        """A counter over the programs' whole lives."""
        return sum(metric_total(rep["after"], name, **match) for rep in reps)

    def per_setup(name: str, **match) -> float:
        """A set-up quantity: its median over the set-ups."""
        return measure.median(
            metric_total(rep["after"], name, **match) for rep in reps
        )

    shard_counts = [0.0] * len(inputs.SHARD_NAMES)
    for rep in reps:
        after = metric_by(rep["after"], "repro_router_proxied_total", "shard")
        before = metric_by(rep["before"], "repro_router_proxied_total", "shard")
        for i, name in enumerate(inputs.SHARD_NAMES):
            shard_counts[i] += after.get(name, 0.0) - before.get(name, 0.0)
    routed = any(shard_counts)
    profilers = [
        report.get("profiler", {})
        for rep in reps
        for report in (
            rep["stats"]["shards"].values()
            if "shards" in rep["stats"] else [rep["stats"]]
        )
    ]
    mine_ms = 1000.0 * measure.ratio(
        window("repro_engine_mine_seconds_sum"),
        window("repro_engine_docs_mined_total"),
    )
    batches = window("repro_batcher_batches_total")
    split = (
        measure.median(proxy)
        + sum(measure.median(values) for values in stages.values())
        + measure.median(http)
    )
    return {
        "kernels.mine_ms_per_doc": measure.ratio(kernel_ms, docs),
        "kernels.evals_per_doc": measure.ratio(evaluated, docs),
        "kernels.prune_ratio": measure.ratio(evaluated, pairs),
        "kernels.ns_per_eval": 1e6 * measure.ratio(kernel_ms, evaluated),
        "kernels.simulate_s": per_setup("repro_calibration_simulate_seconds_sum"),
        "engine.mine_ms_per_doc": mine_ms,
        # With the pool, kernel time summed over workers can exceed the
        # engine's wall time, and this goes negative.
        "engine.dispatch_ms_per_doc": mine_ms - measure.ratio(kernel_ms, docs),
        "engine.finalize_ms": 1000.0 * measure.ratio(
            window("repro_engine_finalize_seconds_sum"),
            window("repro_engine_finalize_seconds_count"),
        ),
        # Cold calibration runs in the finalize of the warm-up requests,
        # which are the first to touch each (model, bucket) key.
        "engine.calibrate_s": measure.median(
            sum(
                s["ms"] for r in rep["warm"] if "tree" in r
                for s in _service_view(r["tree"])[2]
                if s.get("name") == "finalize"
            ) / 1000.0
            for rep in reps
        ),
        "engine.calib_simulations": per_setup(
            "repro_calibration_events_total", event="simulate"
        ),
        "engine.calib_keys": keys,
        "engine.shm_pool_chunks": len(chunks),
        "engine.shm_fallback_chunks": lifetime("repro_shm_fallback_chunks_total"),
        "engine.shm_pack_ms": 1000.0 * measure.ratio(
            window("repro_shm_pack_seconds_sum"),
            window("repro_shm_pack_seconds_count"),
        ),
        **{
            f"service.{stage}_ms": measure.median(values)
            for stage, values in stages.items()
        },
        "service.requests_per_batch": measure.ratio(
            window("repro_batcher_requests_total"), batches
        ),
        "service.docs_per_batch": measure.ratio(
            window("repro_batcher_docs_total"), batches
        ),
        "service.rejected": lifetime("repro_batcher_requests_rejected_total")
        + lifetime("repro_batcher_tenant_rejected_total"),
        "service.timed_out": lifetime("repro_requests_timed_out_total"),
        "service.http_ms": measure.median(http),
        "router.proxy_ms": measure.median(proxy),
        # A shard that saw nothing counts as 1 request, so the spread of
        # a one-sided ring reads as the busy shard's count, not infinity.
        "router.spread": (
            max(shard_counts) / max(1.0, min(shard_counts)) if routed else 0.0
        ),
        "router.shards_used": sum(1 for count in shard_counts if count > 0),
        "router.retries": lifetime("repro_router_retries_total"),
        "router.ejections": lifetime("repro_router_ejections_total"),
        "obs.profiler_overhead": measure.median(
            p.get("overhead_ratio", 0.0) for p in profilers
        ),
        "obs.split_ratio": measure.ratio(
            split, measure.median(r["seconds"] * 1000.0 for r in ok)
        ),
        "loadgen.client_ms": 1000.0 * measure.median(r["client_s"] for r in ok),
        "loadgen.http_calls": sum(rep["calls"] for rep in reps),
    }


def _backend(stats: dict) -> str:
    reports = list(stats["shards"].values()) if "shards" in stats else [stats]
    return ",".join(sorted({r["engine"]["backend_resolved"] for r in reports}))


def _measure(ctx, workload: str, data: dict, expected, traced: bool) -> dict:
    """Set up ``SETUP_REPS`` times; each set-up runs one window segment."""
    reps = [
        _rep(ctx, workload, data, expected, traced, part)
        for part in range(measure.SETUP_REPS)
    ]
    records = [r for rep in reps for r in rep["records"]]
    ok = [r for r in records if r["ok"]]
    return {
        "reps": reps,
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "backend": _backend(reps[-1]["stats"]),
        "e2e": measure.end_to_end(
            workload,
            [rep["setup_s"] for rep in reps],
            [r["seconds"] for r in ok],
            sum(r["docs"] for r in ok),
            sum(rep["window_s"] for rep in reps),
            measure.median(rep["rss_kib"] for rep in reps),
        ),
    }


def run(ctx) -> dict:
    workload = ctx.workload
    make = inputs.trickle_inputs if workload == "trickle" else inputs.burst_inputs
    data = make(ctx.seed)
    default_model = inputs.dna_model()
    reference = inputs.Reference()
    expected = [
        [
            reference.outcome(
                inputs.request_texts(request),
                inputs.request_model(request, default_model),
                inputs.request_spec(request, inputs.REFERENCE_BACKEND),
            )
            for request in requests
        ]
        for requests in data["connections"]
    ]
    untraced = _measure(ctx, workload, data, expected, False)
    report = {
        "attempted": untraced["attempted"],
        "failed": untraced["failed"],
        "e2e": untraced["e2e"],
        "info": {
            "backend_resolved": untraced["backend"],
            "operations": untraced["attempted"],
        },
    }
    if ctx.trace:
        traced = _measure(ctx, workload, data, expected, True)
        report["attempted"] += traced["attempted"]
        report["failed"] += traced["failed"]
        keys = inputs.calibration_keys(
            (text, inputs.request_model(request, default_model))
            for group in (*data["connections"], *data["warmup"])
            for request in group
            for text in inputs.request_texts(request)
        )
        report["layers"] = measure.per_layer(
            _layers(traced["reps"], keys), traced["e2e"], untraced["e2e"]
        )
        report["spans"] = [
            {key: r.get(key) for key in (
                "conn", "index", "trace_id", "sent", "seconds", "status", "tree"
            )}
            for rep in traced["reps"] for r in rep["records"]
        ]
    return report
