"""Router integration tests on the real multiprocess harness.

The load-bearing guarantee: mining *through the router* -- at any
shard count, even while a shard is killed mid-run -- returns the same
bytes as a single service, which returns the same bytes as a direct
:meth:`CorpusEngine.run`.  (Comparisons strip ``elapsed_seconds``, the
repo-wide convention for wall-clock fields; everything else is
compared as canonical JSON, i.e. byte-identical bodies.)

Also covered here: batch affinity (same routing key => same
``X-Shard``), health ejection + rejoin after a restart, aggregated
``/metrics`` (shard labels, single metadata per family) and ``/stats``,
shards on a host with no C compiler staying in rotation, the ordered
drain leaving no child process behind, and shard log pipes that never
fill up.
"""

import http.client
import json
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from harness import RouterHarness
from repro.core.model import BernoulliModel
from repro.engine import CorpusEngine
from repro.generators import generate_null_string
from repro.service import ServiceClient

_TOOLS = Path(__file__).resolve().parents[2] / "tools"
sys.path.insert(0, str(_TOOLS))
from check_metrics import check_exposition  # noqa: E402

MODEL = BernoulliModel.uniform("ab")


@pytest.fixture(scope="module")
def corpus():
    texts = []
    for i in range(12):
        text = generate_null_string(MODEL, 36 + 11 * (i % 4), seed=900 + i)
        if i % 3 == 0:
            text = text[:8] + "a" * 9 + text[17:]
        texts.append(text)
    return texts


#: The request mix every identity test replays: distinct (spec, model)
#: keys so several shards actually participate at N > 1.
def _request_mix(corpus):
    return [
        {"texts": corpus[0:3]},
        {"texts": corpus[3:6], "problem": "top", "t": 5},
        {"texts": corpus[6:9], "problem": "threshold", "threshold": 3.0},
        {"texts": corpus[9:12], "problem": "minlength", "min_length": 3},
        {"text": corpus[1], "correction": "bonferroni"},
        {"texts": corpus[2:7], "limit": 17},
    ]


#: The payload's wall-clock fields -- the only part of a response that
#: may differ between runs; everything else must be byte-identical.
_TIMING_KEYS = {"elapsed_seconds", "scan_seconds"}


def _strip_elapsed(payload: dict) -> dict:
    data = {k: v for k, v in payload.items() if k not in _TIMING_KEYS}
    data["results"] = [
        {k: v for k, v in doc.items() if k not in _TIMING_KEYS}
        for doc in payload["results"]
    ]
    return data


def _canonical(payload: dict) -> str:
    return json.dumps(_strip_elapsed(payload), sort_keys=True)


def _mine_mix(address, corpus):
    with ServiceClient(*address, timeout=120.0) as client:
        return [
            _canonical(client.mine(**request))
            for request in _request_mix(corpus)
        ]


def _direct_expected(corpus):
    """Per-request document payloads from a direct CorpusEngine.run."""
    from repro.engine import JobSpec

    engine = CorpusEngine()
    expected = []
    for request in _request_mix(corpus):
        texts = request.get("texts") or [request["text"]]
        spec_fields = {
            k: request[k]
            for k in ("problem", "t", "threshold", "min_length", "limit")
            if k in request
        }
        result = engine.run_texts(
            texts,
            MODEL,
            JobSpec(**spec_fields),
            correction=request.get("correction"),
        )
        expected.append(
            json.dumps(
                [doc.payload(include_timing=False) for doc in result.documents],
                sort_keys=True,
            )
        )
    return expected


class TestBitIdentityAcrossShardCounts:
    def test_one_two_and_four_shards_answer_identically(self, corpus):
        """The same corpus through 1, 2 and 4 shards: canonical bodies
        agree exactly, and each agrees with the direct engine run."""
        by_count = {}
        for n in (1, 2, 4):
            with RouterHarness(shards=n) as harness:
                by_count[n] = _mine_mix(harness.address, corpus)
        assert by_count[1] == by_count[2] == by_count[4]
        direct = _direct_expected(corpus)
        for canonical, expected_docs in zip(by_count[4], direct):
            payload = json.loads(canonical)
            assert (
                json.dumps(payload["results"], sort_keys=True) == expected_docs
            )

    def test_mid_run_shard_kill_keeps_responses_identical(self, corpus):
        """A shard SIGKILLed while the mix replays: the router fails
        requests over, every outcome is a 200, every body identical."""
        with RouterHarness(shards=4) as harness:
            baseline = _mine_mix(harness.address, corpus)
            killer = threading.Timer(
                0.05, harness.kill_shard, args=(1,)
            )
            killer.start()
            try:
                with harness.client(timeout=120.0) as client:
                    during = [
                        _canonical(
                            client.mine(**request, retries=3)
                        )
                        for _ in range(3)
                        for request in _request_mix(corpus)
                    ]
            finally:
                killer.join()
            harness.wait_status("degraded")
            after = _mine_mix(harness.address, corpus)
        assert during == baseline * 3
        assert after == baseline


class TestAffinity:
    def test_same_routing_key_hits_same_shard(self, corpus):
        """Requests sharing (spec, model) carry the same X-Shard header
        -- the property that keeps micro-batches coalescing."""
        with RouterHarness(shards=4) as harness:
            shards_seen = set()
            per_key: dict[str, set] = {}
            conn = http.client.HTTPConnection(*harness.address, timeout=60)
            try:
                for round_ in range(3):
                    for key_id, request in enumerate(_request_mix(corpus)):
                        conn.request(
                            "POST",
                            "/mine",
                            body=json.dumps(request),
                            headers={"Content-Type": "application/json"},
                        )
                        response = conn.getresponse()
                        response.read()
                        assert response.status == 200
                        shard = response.headers["X-Shard"]
                        shards_seen.add(shard)
                        per_key.setdefault(str(key_id), set()).add(shard)
            finally:
                conn.close()
        for key_id, shards in per_key.items():
            assert len(shards) == 1, (
                f"request shape {key_id} bounced across shards {shards}"
            )
        assert len(shards_seen) > 1  # distinct keys actually spread


class TestEjectionAndRejoin:
    def test_killed_shard_is_ejected_and_rejoins_after_restart(self, corpus):
        with RouterHarness(shards=2) as harness:
            harness.wait_status("ok")
            harness.kill_shard(0)
            health = harness.wait_status("degraded")
            assert health["shards_healthy"] == 1
            assert health["shards"]["shard-0"]["status"] == "down"

            # Every request keeps being answered by the survivor.
            with harness.client() as client:
                for request in _request_mix(corpus)[:3]:
                    assert "results" in client.mine(**request, retries=2)

            harness.restart_shard(0)
            health = harness.wait_status("ok")
            assert health["shards_healthy"] == 2
            assert health["shards"]["shard-0"]["status"] == "ok"

            # And the rejoined shard serves again: replay the mix and
            # require both shards in the X-Shard spread eventually.
            with harness.client() as client:
                scrape = client.metrics()
            assert 'shard="shard-0"' in scrape

    def test_all_shards_down_is_a_clean_503(self):
        with RouterHarness(shards=1) as harness:
            harness.kill_shard(0)
            harness.wait_status("down")
            conn = http.client.HTTPConnection(*harness.address, timeout=30)
            try:
                conn.request(
                    "POST",
                    "/mine",
                    body=json.dumps({"text": "ab" * 20}),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                body = json.loads(response.read())
            finally:
                conn.close()
            assert response.status == 503
            assert "retry_after" in body
            # A router-synthesized error still identifies itself: the
            # minted trace id rides the body AND the header, and the
            # router records a trace for it (errors bypass sampling).
            header_id = response.headers["X-Trace-Id"]
            assert body["trace_id"] == header_id
            assert len(header_id) == 16
            tree = json.loads(
                urllib.request.urlopen(
                    f"http://{harness.address[0]}:{harness.address[1]}"
                    f"/trace/{header_id}"
                ).read()
            )
            assert tree["trace_id"] == header_id
            assert "route" in [span["name"] for span in tree["spans"]]


class TestAggregation:
    def test_metrics_merge_with_shard_labels(self, corpus):
        with RouterHarness(shards=2) as harness:
            with harness.client() as client:
                client.mine(texts=corpus[:4])
                scrape = client.metrics()
        assert 'shard="shard-0"' in scrape
        assert 'shard="shard-1"' in scrape
        assert "repro_router_requests_total" in scrape
        # Exactly one HELP line per family: the merged exposition stays
        # a valid single scrape.
        help_lines = [
            line for line in scrape.splitlines() if line.startswith("# HELP")
        ]
        families = [line.split()[2] for line in help_lines]
        assert len(families) == len(set(families))
        # Per-shard HTTP counters survive the merge with their labels.
        assert 'repro_http_requests_total{' in scrape

    def test_stats_nest_every_shard(self, corpus):
        with RouterHarness(shards=2) as harness:
            with harness.client() as client:
                client.mine(texts=corpus[:4])
                stats = client.stats()
        assert sorted(stats["shards"]) == ["shard-0", "shard-1"]
        for shard_stats in stats["shards"].values():
            assert "batcher" in shard_stats
        router = stats["router"]
        assert router["ring"]["nodes"] == ["shard-0", "shard-1"]
        assert router["shards"]["shard-0"]["healthy"] is True
        mined = sum(
            s["batcher"]["requests_total"] for s in stats["shards"].values()
        )
        assert mined >= 1

    def test_unknown_endpoint_is_router_404(self):
        with RouterHarness(shards=1) as harness:
            conn = http.client.HTTPConnection(*harness.address, timeout=30)
            try:
                conn.request("GET", "/nope")
                response = conn.getresponse()
                response.read()
            finally:
                conn.close()
            assert response.status == 404


class TestBackendFallback:
    def test_compiler_less_shards_stay_in_rotation(self, corpus, tmp_path):
        """Shards whose default native kernels fell back to numpy (no
        compiler, empty artifact cache) say so on /stats and on
        repro_backend_fallback_total for every shard of the merged
        scrape, yet report "ok": the router keeps routing to them, and
        every answer still equals the direct engine run."""
        env = {
            "CC": "/nonexistent-compiler",
            "REPRO_NATIVE_CACHE": str(tmp_path / "empty-cache"),
            "REPRO_BACKEND": "",
        }
        with RouterHarness(shards=2, shard_env={0: env, 1: env}) as harness:
            mined = _mine_mix(harness.address, corpus)
            health = harness.wait_probed()
            with harness.client() as client:
                stats = client.stats()
                scrape = client.metrics()
        assert health["status"] == "ok"
        assert health["shards_healthy"] == 2
        assert {s["status"] for s in health["shards"].values()} == {"ok"}
        for shard_stats in stats["shards"].values():
            engine = shard_stats["engine"]
            assert engine["backend_resolved"] == "numpy"
            assert "no C compiler" in engine["backend_fallback_reason"]
        assert check_exposition(scrape, sharded=True) == []
        fallbacks = sorted(
            line for line in scrape.splitlines()
            if line.startswith("repro_backend_fallback_total{")
        )
        assert fallbacks == [
            'repro_backend_fallback_total{shard="shard-0"} 1',
            'repro_backend_fallback_total{shard="shard-1"} 1',
        ]
        for canonical, expected_docs in zip(mined, _direct_expected(corpus)):
            payload = json.loads(canonical)
            assert (
                json.dumps(payload["results"], sort_keys=True) == expected_docs
            )


class TestDrain:
    def test_teardown_leaves_no_children(self, corpus):
        with RouterHarness(shards=2) as harness:
            with harness.client() as client:
                client.mine(texts=corpus[:2])
            shards = list(harness.shards)
        # The ordered drain SIGTERMed both; none should need the
        # harness's SIGKILL backstop.
        deadline = time.monotonic() + 10
        while any(s.alive for s in shards) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(s.alive for s in shards)
        for shard in shards:
            assert shard.process.returncode == 0


class TestShardLogDrain:
    def test_access_log_past_the_pipe_buffer_never_wedges_a_shard(self):
        """``serve`` at its default ``--log-level info`` writes one
        access line per request to stderr.  ``ShardProcess`` must keep
        draining that pipe while stdout stays open for the child's
        whole life: once 64 KiB of unread log filled the pipe, the
        shard blocked mid-request and the router ejected it."""
        requests = 1400  # access lines run >= 100 bytes: > 2 x 64 KiB
        with RouterHarness(shards=1) as harness:
            with harness.client(timeout=20.0) as client:
                for _ in range(requests):
                    assert client.mine(text="abba")["documents"] == 1
                assert client.healthz()["shards_healthy"] == 1
