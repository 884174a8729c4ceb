"""Chaos tests: deterministic fault injection against the live service.

The contract under test, per the resilience issue:

* injected faults (``REPRO_FAULTS``) never corrupt a response -- every
  200 stays **bit-identical** to a direct ``CorpusEngine.run``;
* every outcome under chaos is one of {200, 429, 503, 504} -- never a
  hang, never a 500;
* a disk-cache entry quarantined by fault injection is re-simulated to
  bit-identical samples (self-healing store).
"""

import http.client
import json
import threading

import pytest

from repro.core.model import BernoulliModel
from repro.engine import CalibrationCache, CorpusEngine
from repro.faults import (
    FAULTS_ENV,
    FAULTS_SEED_ENV,
    get_faults,
    reset_faults,
)
from repro.generators import generate_null_string
from repro.obs.metrics import MetricsRegistry
from repro.service import (
    DiskCalibrationCache,
    MiningService,
    ServiceClient,
    ServiceError,
    ServiceOverloadedError,
    ServiceThread,
)

MODEL = BernoulliModel.uniform("ab")


@pytest.fixture(autouse=True)
def _clean_faults():
    """Every test starts and ends with no faults installed."""
    reset_faults()
    yield
    reset_faults()


def _expected_payloads(texts, calibration=None):
    """What a direct CorpusEngine.run of the same request returns."""
    result = CorpusEngine(calibration=calibration).run_texts(texts, MODEL)
    return [doc.payload(include_timing=False) for doc in result.documents]


def _strip_timing(results):
    return [
        {key: value for key, value in doc.items() if key != "elapsed_seconds"}
        for doc in results
    ]


def _identical(response, expected):
    return json.dumps(
        _strip_timing(response["results"]), sort_keys=True
    ) == json.dumps(expected, sort_keys=True)


def _metric_value(metrics_text: str, name: str) -> float:
    """Sum every sample of one family in a Prometheus exposition."""
    total = 0.0
    for line in metrics_text.splitlines():
        if line.startswith(name) and not line.startswith("#"):
            head = line.split(" ")[0]
            if head == name or head.startswith(name + "{"):
                total += float(line.rsplit(" ", 1)[1])
    return total


@pytest.fixture(scope="module")
def corpus():
    texts = []
    for i in range(12):
        text = generate_null_string(MODEL, 40 + 13 * (i % 4), seed=700 + i)
        if i % 3 == 0:
            text = text[:10] + "b" * 9 + text[19:]
        texts.append(text)
    return texts


class TestFaultSchedule:
    def test_probabilistic_faults_are_deterministic(self, monkeypatch):
        """Same spec + seed => the same fault schedule, draw for draw."""
        monkeypatch.setenv(FAULTS_ENV, "disk_cache_corrupt:0.5")
        monkeypatch.setenv(FAULTS_SEED_ENV, "42")
        first = [
            get_faults().should_fire("disk_cache_corrupt") for _ in range(32)
        ]
        reset_faults()
        second = [
            get_faults().should_fire("disk_cache_corrupt") for _ in range(32)
        ]
        assert first == second
        assert True in first and False in first  # 0.5 actually mixes


class TestDeadlineUnderDelay:
    def test_mine_delay_past_deadline_is_504_with_trace_id(
        self, corpus, monkeypatch
    ):
        """A stalled mine thread sheds the expired request: 504 whose
        body quotes the trace id, and the timeout counter moves."""
        monkeypatch.setenv(FAULTS_ENV, "mine_delay_ms:300")
        service = MiningService(MODEL)
        with ServiceThread(service) as handle:
            conn = http.client.HTTPConnection(*handle.address, timeout=30)
            try:
                conn.request(
                    "POST",
                    "/mine",
                    body=json.dumps({"text": corpus[0], "timeout_ms": 100}),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                body = json.loads(response.read())
                trace_header = response.headers.get("X-Trace-Id")
            finally:
                conn.close()
            with ServiceClient(*handle.address) as client:
                scrape = client.metrics()
        assert response.status == 504
        assert body["timeout_ms"] == 100
        assert body["trace_id"] == trace_header
        assert _metric_value(scrape, "repro_requests_timed_out_total") >= 1


class TestDiskCacheCorruption:
    def test_quarantined_entry_resimulates_identically(
        self, tmp_path, monkeypatch
    ):
        """A faulted read is treated as corruption: the entry is
        re-simulated (bit-identical samples) and written back."""
        text = generate_null_string(MODEL, 60, seed=11)
        healthy = DiskCalibrationCache(tmp_path, trials=20, seed=7)
        first = healthy.distribution_for(MODEL, len(text))
        assert healthy.disk_writes == 1

        monkeypatch.setenv(FAULTS_ENV, "disk_cache_corrupt")
        reset_faults()
        faulted = DiskCalibrationCache(tmp_path, trials=20, seed=7)
        faulted.metrics = MetricsRegistry()  # isolate the event counter
        second = faulted.distribution_for(MODEL, len(text))
        assert second.samples == first.samples
        assert faulted.disk_hits == 0  # the read was quarantined
        assert faulted.disk_misses == 1
        assert faulted.disk_writes == 1  # self-healed: overwritten
        assert get_faults().fired("disk_cache_corrupt") == 1
        events = faulted.metrics.get("repro_calibration_events_total")
        assert events.labels(event="disk_corrupt").value == 1


class TestChaosStorm:
    def test_outcomes_under_chaos_are_only_200_429_or_504(
        self, corpus, tmp_path, monkeypatch
    ):
        """Corrupt calibration reads + a stalling mine thread + a small
        queue + mixed deadlines, on the thread tier: every request
        resolves (no hangs), every outcome is 200 (bit-identical), 429,
        or 504 -- never a 500."""
        # Pre-warm the store so the service reads entries from disk,
        # where the corruption fault bites.
        warm = DiskCalibrationCache(tmp_path, trials=20, seed=7)
        for text in corpus:
            warm.distribution_for(MODEL, len(text))
        monkeypatch.setenv(
            FAULTS_ENV, "mine_delay_ms:50,disk_cache_corrupt"
        )
        monkeypatch.setenv(FAULTS_SEED_ENV, "7")
        service = MiningService(
            MODEL,
            workers=2,
            batch_docs=4,
            max_pending_docs=8,
            calibration=DiskCalibrationCache(tmp_path, trials=20, seed=7),
        )
        outcomes = []

        def mine_one(texts, timeout_ms):
            try:
                # Long-deadline requests retry through 429 bursts, so a
                # 200 is always reachable; short-deadline ones race
                # their timeout_ms and may legitimately 429 or 504.
                retries = 3 if timeout_ms >= 10_000 else 0
                with ServiceClient(*handle.address, timeout=60.0) as client:
                    outcomes.append(
                        (texts, 200, client.mine(texts=texts,
                                                 timeout_ms=timeout_ms,
                                                 retries=retries))
                    )
            except ServiceOverloadedError as exc:
                outcomes.append((texts, exc.status, None))
            except ServiceError as exc:
                outcomes.append((texts, exc.status, None))

        with ServiceThread(service) as handle:
            threads = []
            for i in range(10):
                texts = corpus[i % 4 : i % 4 + 4]
                timeout_ms = 10_000 if i % 2 == 0 else 60 + 5 * i
                thread = threading.Thread(
                    target=mine_one, args=(texts, timeout_ms)
                )
                thread.start()
                threads.append(thread)
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()  # no hangs under chaos
        assert len(outcomes) == 10
        statuses = {status for _, status, _ in outcomes}
        assert statuses <= {200, 429, 504}
        assert 200 in statuses  # chaos degraded service, never killed it
        assert get_faults().fired("disk_cache_corrupt") >= 1  # it bit
        reference = CalibrationCache(trials=20, seed=7)
        for texts, status, response in outcomes:
            if status == 200:
                assert _identical(
                    response,
                    _expected_payloads(texts, calibration=reference),
                )
