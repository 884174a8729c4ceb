"""Observability end-to-end: /metrics, /stats schema, traces, logs.

The contract under test, per the observability PR:

* ``GET /metrics`` is valid Prometheus text exposition (the same
  validator CI runs over the benchmark's scrape gates it here) and
  carries the request-latency histograms, per-stage timings, cache
  hit/miss counters and the per-backend X² evaluation counter;
* the ``/stats`` payload keeps one schema across executor variants
  (serial vs the thread tier), including the resolved kernel backend,
  the mining thread count and the full metrics snapshot;
* a request's span tree is retrievable afterwards from
  ``GET /stats?trace=1``, and error responses carry their trace id in
  both the JSON body and the ``X-Trace-Id`` header;
* none of it perturbs responses: a mined 200 body is byte-identical
  to the pre-observability payload shape (covered by the parity tests
  in ``test_service.py``, which this file deliberately leaves alone).
"""

import json
import sys
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.core.model import BernoulliModel
from repro.generators import generate_null_string
from repro.service import MiningService, ServiceClient, ServiceThread

_TOOLS = Path(__file__).resolve().parents[2] / "tools"
sys.path.insert(0, str(_TOOLS))
from check_metrics import check_exposition  # noqa: E402

MODEL = BernoulliModel.uniform("ab")


@pytest.fixture(scope="module")
def corpus():
    return [
        generate_null_string(MODEL, 60 + 10 * (i % 3), seed=4200 + i)
        for i in range(6)
    ]


def _serve(**kwargs):
    return ServiceThread(MiningService(MODEL, **kwargs))


def _post(address, body_bytes, extra_headers=None):
    """Raw POST /mine, returning (status, headers, decoded body)."""
    headers = {"Content-Type": "application/json"}
    headers.update(extra_headers or {})
    request = urllib.request.Request(
        f"http://{address[0]}:{address[1]}/mine",
        data=body_bytes,
        headers=headers,
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, response.headers, json.load(response)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers, json.loads(exc.read())


def _get(address, path):
    """Raw GET, returning (status, headers, raw body bytes)."""
    try:
        with urllib.request.urlopen(
            f"http://{address[0]}:{address[1]}{path}"
        ) as response:
            return response.status, response.headers, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers, exc.read()


#: Executor variants the /stats schema must hold across.
VARIANTS = [
    pytest.param({"workers": 1}, id="serial"),
    pytest.param({"workers": 2}, id="threads"),
]


class TestStatsSchema:
    @pytest.mark.parametrize("kwargs", VARIANTS)
    def test_schema_is_stable_across_executors(self, corpus, kwargs):
        with _serve(batch_docs=4, **kwargs) as handle:
            with ServiceClient(*handle.address) as client:
                client.mine(texts=corpus)
                stats = client.stats()
        assert stats["uptime_seconds"] > 0.0
        engine = stats["engine"]
        # the resolved kernel backend, not None, whatever the executor
        assert engine["backend"] in ("numpy", "python", "native")
        assert engine["backend_resolved"] in ("numpy", "python", "native")
        for key in ("executor", "workers", "threads", "correction", "alpha"):
            assert key in engine
        batcher = stats["batcher"]
        assert batcher["batch_docs"] == 4
        assert batcher["requests_total"] == 1
        assert batcher["docs_total"] == len(corpus)
        # the metrics snapshot rides /stats and tells the same story
        metrics = stats["metrics"]
        assert (
            metrics["repro_batcher_docs_total"]["value"] == len(corpus)
        )
        assert metrics["repro_engine_mine_seconds"]["count"] >= 1
        http = metrics["repro_http_requests_total"]["series"]
        mined = [
            series for series in http
            if series["labels"] == {"endpoint": "/mine", "status": "200"}
        ]
        assert mined and mined[0]["value"] == 1

    @pytest.mark.parametrize("kwargs", VARIANTS)
    def test_x2_evaluations_are_counted_per_backend(self, corpus, kwargs):
        with _serve(batch_docs=4, **kwargs) as handle:
            with ServiceClient(*handle.address) as client:
                before = client.stats()
                response = client.mine(texts=corpus)
                after = client.stats()
        backend = after["engine"]["backend_resolved"]

        def series(stats):
            family = stats["metrics"]["repro_kernel_x2_evaluations_total"]
            return {s["labels"]["backend"]: s["value"] for s in family["series"]}

        # created at zero in start(), before the first mined document
        assert series(before) == {backend: 0}
        # the mining threads share the service registry: the counter
        # carries exactly the evaluations the response reports
        assert series(after) == {backend: response["evaluated"]}


class TestMetricsEndpoint:
    @pytest.mark.parametrize("kwargs", VARIANTS)
    def test_exposition_is_valid_prometheus_text(self, corpus, kwargs):
        with _serve(batch_docs=4, **kwargs) as handle:
            with ServiceClient(*handle.address) as client:
                client.mine(texts=corpus)
                text = client.metrics()
        assert check_exposition(text) == []
        assert "# TYPE repro_http_request_seconds histogram" in text
        assert "# TYPE repro_request_stage_seconds histogram" in text

    def test_two_services_do_not_share_counters(self, corpus):
        with _serve(batch_docs=4) as first:
            with ServiceClient(*first.address) as client:
                client.mine(texts=corpus)
        with _serve(batch_docs=4) as second:
            with ServiceClient(*second.address) as client:
                client.mine(texts=corpus[:2])
                stats = client.stats()
        assert stats["batcher"]["docs_total"] == 2

    def test_calibration_cache_events_are_counted(self, corpus, tmp_path):
        from repro.service import DiskCalibrationCache

        cache = DiskCalibrationCache(tmp_path, trials=20)
        service = MiningService(
            MODEL, batch_docs=4, calibration=cache
        )
        with ServiceThread(service) as handle:
            with ServiceClient(*handle.address) as client:
                client.mine(texts=corpus)
                client.mine(texts=corpus)
                metrics = client.stats()["metrics"]
        events = {
            tuple(series["labels"].items()): series["value"]
            for series in metrics["repro_calibration_events_total"]["series"]
        }
        assert events[(("event", "simulate"),)] >= 1
        assert events[(("event", "memory_hit"),)] >= 1


class TestTracing:
    def test_span_tree_is_retrievable_after_the_request(self, corpus):
        with _serve(batch_docs=4) as handle:
            with ServiceClient(*handle.address) as client:
                client.mine(texts=corpus)
                traces = client.stats(trace=True)["traces"]
        assert traces["recorded"] == 1
        (tree,) = traces["recent"]
        names = [span["name"] for span in tree["spans"]]
        assert names == [
            "parse", "queue_wait", "batch_mine", "finalize", "serialize",
        ]
        batch_mine = tree["spans"][2]
        children = [c["name"] for c in batch_mine.get("children", ())]
        assert "kernel" in children
        assert tree["total_ms"] > 0.0

    def test_plain_stats_omits_traces(self, corpus):
        with _serve(batch_docs=4) as handle:
            with ServiceClient(*handle.address) as client:
                client.mine(texts=corpus[:1])
                assert "traces" not in client.stats()

    def test_success_carries_trace_header_but_clean_body(self, corpus):
        with _serve(batch_docs=4) as handle:
            body = json.dumps({"texts": corpus[:1]}).encode()
            status, headers, payload = _post(handle.address, body)
        assert status == 200
        assert len(headers["X-Trace-Id"]) == 16
        assert "trace_id" not in payload  # 200 bodies stay bit-identical


class TestTraceAdoption:
    def test_valid_inbound_trace_id_is_adopted(self, corpus):
        with _serve(batch_docs=4) as handle:
            body = json.dumps({"texts": corpus[:1]}).encode()
            status, headers, _ = _post(
                handle.address, body,
                {"X-Trace-Id": "feedface00000042", "X-Parent-Span": "proxy"},
            )
        assert status == 200
        assert headers["X-Trace-Id"] == "feedface00000042"

    def test_malformed_inbound_trace_id_is_replaced(self, corpus):
        with _serve(batch_docs=4) as handle:
            body = json.dumps({"texts": corpus[:1]}).encode()
            status, headers, _ = _post(
                handle.address, body, {"X-Trace-Id": "../etc/passwd"}
            )
        assert status == 200
        assert headers["X-Trace-Id"] != "../etc/passwd"
        assert len(headers["X-Trace-Id"]) == 16  # freshly minted

    def test_adopted_trace_records_its_parent_span(self, corpus):
        with _serve(batch_docs=4) as handle:
            body = json.dumps({"texts": corpus[:1]}).encode()
            _post(
                handle.address, body,
                {"X-Trace-Id": "feedface00000042", "X-Parent-Span": "proxy"},
            )
            status, _, raw = _get(handle.address, "/trace/feedface00000042")
        assert status == 200
        tree = json.loads(raw)
        assert tree["trace_id"] == "feedface00000042"
        assert tree["parent_span"] == "proxy"


class TestTraceEndpoint:
    def test_trace_by_id_returns_the_span_tree(self, corpus):
        with _serve(batch_docs=4) as handle:
            body = json.dumps({"texts": corpus}).encode()
            _, headers, _ = _post(handle.address, body)
            trace_id = headers["X-Trace-Id"]
            status, _, raw = _get(handle.address, f"/trace/{trace_id}")
        assert status == 200
        tree = json.loads(raw)
        assert tree["trace_id"] == trace_id
        names = [span["name"] for span in tree["spans"]]
        assert names == [
            "parse", "queue_wait", "batch_mine", "finalize", "serialize",
        ]

    def test_unknown_trace_id_is_404(self):
        with _serve() as handle:
            status, _, raw = _get(handle.address, "/trace/feedface00000099")
        assert status == 404
        assert "error" in json.loads(raw)

    def test_malformed_trace_id_is_400(self):
        with _serve() as handle:
            status, _, raw = _get(handle.address, "/trace/no")
        assert status == 400
        assert "error" in json.loads(raw)

    def test_client_trace_helper_round_trips(self, corpus):
        with _serve(batch_docs=4) as handle:
            with ServiceClient(*handle.address) as client:
                client.mine(texts=corpus[:2])
                assert len(client.last_trace_id) == 16
                tree = client.trace()
        assert tree["trace_id"] == client.last_trace_id

    def test_client_trace_without_an_id_raises(self):
        with pytest.raises(ValueError):
            ServiceClient("127.0.0.1", 1).trace()


class TestSampling:
    def test_rate_zero_drops_successful_traces(self, corpus):
        with _serve(
            batch_docs=4, trace_sample=0.0
        ) as handle:
            body = json.dumps({"texts": corpus[:1]}).encode()
            _, headers, _ = _post(handle.address, body)
            trace_id = headers["X-Trace-Id"]
            status, _, _ = _get(handle.address, f"/trace/{trace_id}")
            with ServiceClient(*handle.address) as client:
                recorded = client.stats(trace=True)["traces"]["recorded"]
        assert status == 404
        assert recorded == 0

    def test_rate_zero_still_keeps_errors(self):
        with _serve(trace_sample=0.0) as handle:
            status, headers, payload = _post(handle.address, b"{not json")
            trace_status, _, raw = _get(
                handle.address, f"/trace/{headers['X-Trace-Id']}"
            )
        assert status == 400
        assert payload["trace_id"] == headers["X-Trace-Id"]
        assert trace_status == 200
        assert json.loads(raw)["trace_id"] == headers["X-Trace-Id"]

    def test_trace_sink_writes_kept_trees(self, corpus, tmp_path):
        sink_path = tmp_path / "traces.jsonl"
        with _serve(
            batch_docs=4, trace_log=str(sink_path)
        ) as handle:
            body = json.dumps({"texts": corpus[:1]}).encode()
            _, headers, _ = _post(handle.address, body)
        lines = sink_path.read_text().splitlines()
        assert [json.loads(l)["trace_id"] for l in lines] == [
            headers["X-Trace-Id"]
        ]


class TestProfileEndpoint:
    def test_debug_profile_returns_collapsed_text(self, corpus):
        with _serve(batch_docs=4) as handle:
            with ServiceClient(*handle.address) as client:
                client.mine(texts=corpus)
            status, headers, raw = _get(
                handle.address, "/debug/profile?seconds=30"
            )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        for line in raw.decode().splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack and count.isdigit()

    def test_bad_seconds_is_400(self):
        with _serve() as handle:
            for query in ("seconds=nope", "seconds=0", "seconds=3600"):
                status, _, raw = _get(
                    handle.address, f"/debug/profile?{query}"
                )
                assert status == 400
                assert "seconds" in json.loads(raw)["error"]

    def test_profiler_overhead_is_reported_in_stats(self, corpus):
        with _serve(batch_docs=4) as handle:
            with ServiceClient(*handle.address) as client:
                client.mine(texts=corpus[:1])
                profiler = client.stats()["profiler"]
        assert profiler["running"] is True
        # the strict < 5% gate runs over a sustained closed-loop load in
        # benchmarks/bench_service.py; a just-started service has too
        # little wall time for a tight ratio
        assert 0.0 <= profiler["overhead_ratio"] < 0.5

    def test_slow_traces_carry_a_phase_profile(self, corpus):
        service = MiningService(MODEL, batch_docs=4)
        service.traces.slow_ms = 0.0  # every request counts as slow
        with ServiceThread(service) as handle:
            body = json.dumps({"texts": corpus}).encode()
            _, headers, _ = _post(handle.address, body)
            status, _, raw = _get(
                handle.address, f"/trace/{headers['X-Trace-Id']}"
            )
        assert status == 200
        profile = json.loads(raw)["profile"]
        assert profile["samples"] >= 0
        assert "phases" in profile


class TestSloLayer:
    def test_burn_gauges_render_without_configuration(self, corpus):
        with _serve(batch_docs=4) as handle:
            with ServiceClient(*handle.address) as client:
                client.mine(texts=corpus[:1])
                text = client.metrics()
        assert check_exposition(text) == []
        assert "# TYPE repro_slo_burn_rate gauge" in text
        assert 'objective="p99:250ms"' in text
        assert "repro_slo_fast_burn_degraded 0" in text

    def test_default_slo_is_not_enforced(self, corpus):
        with _serve(batch_docs=4) as handle:
            with ServiceClient(*handle.address) as client:
                client.mine(texts=corpus[:1])
                stats = client.stats()["slo"]
                health = client.healthz()
        assert stats["enforce"] is False
        assert health["status"] == "ok"

    def test_fast_burn_is_reported_while_healthz_stays_ok(self, corpus):
        # a microsecond p99 is unmeetable -- every mine burns the
        # latency budget at 100x, tripping the fast-burn condition once
        # min_events requests land in the fast window.  The burn gets
        # its own /healthz fields; status stays ok, so a router keeps
        # the shard in rotation.
        with _serve(
            batch_docs=4, slo="p99:0.001ms"
        ) as handle:
            with ServiceClient(*handle.address) as client:
                assert client.healthz()["slo_fast_burn"] is False
                for _ in range(12):
                    client.mine(texts=corpus[:1])
                health = client.healthz()
                text = client.metrics()
        assert health["status"] == "ok"
        assert health["slo_fast_burn"] is True
        assert "slo fast burn" in health["slo_fast_burn_reason"]
        assert "p99:0.001ms" in health["slo_fast_burn_reason"]
        assert "repro_slo_fast_burn_degraded 1" in text

    def test_mining_results_are_identical_with_everything_on(
        self, corpus, tmp_path
    ):
        def strip_timing(payload):
            payload = {
                k: v for k, v in payload.items()
                if not k.endswith("_seconds")
            }
            payload["results"] = [
                {k: v for k, v in doc.items() if not k.endswith("_seconds")}
                for doc in payload["results"]
            ]
            return payload

        body = json.dumps({"texts": corpus}).encode()
        with _serve(batch_docs=4) as handle:
            _, _, plain = _post(handle.address, body)
        with _serve(
            batch_docs=4,
            trace_sample=0.5,
            trace_log=str(tmp_path / "sink.jsonl"),
            slo="p99:250ms,errors:0.1%",
        ) as handle:
            _, _, observed = _post(handle.address, body)
        assert strip_timing(observed) == strip_timing(plain)


class TestErrorTraceIds:
    def test_400_body_carries_trace_id(self):
        with _serve() as handle:
            status, headers, payload = _post(handle.address, b"{not json")
        assert status == 400
        assert payload["trace_id"] == headers["X-Trace-Id"]

    def test_413_body_carries_trace_id(self, corpus):
        with _serve(max_pending_docs=2) as handle:
            body = json.dumps({"texts": corpus[:4]}).encode()
            status, headers, payload = _post(handle.address, body)
        assert status == 413
        assert payload["trace_id"] == headers["X-Trace-Id"]
        assert "error" in payload


class TestAccessLog:
    def test_mine_request_emits_one_access_line(self, corpus):
        import io

        from repro.obs.log import configure

        stream = io.StringIO()
        configure(format="json", level="info", stream=stream)
        try:
            with _serve(batch_docs=4) as handle:
                with ServiceClient(*handle.address) as client:
                    client.mine(texts=corpus[:2])
        finally:
            configure(format="text", level="warning", stream=sys.stderr)
        records = [
            json.loads(line)
            for line in stream.getvalue().splitlines()
            if '"event":"access"' in line
        ]
        assert len(records) == 1
        record = records[0]
        assert record["status"] == 200
        assert record["docs"] == 2
        assert len(record["trace_id"]) == 16
        assert record["total_ms"] >= record["mine_ms"] >= 0.0
        assert len(record["tenant"]) == 12
        assert len(record["spec"]) == 12
