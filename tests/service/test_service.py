"""End-to-end service behaviour over real sockets.

The contract under test, per the roadmap's serving scenario:

* concurrent clients receive responses **bit-identical** to a direct
  ``CorpusEngine.run`` of their own request -- micro-batching with
  strangers must be unobservable;
* backpressure rejects over-capacity bursts deterministically (429 +
  ``Retry-After``) without harming accepted requests;
* shutdown drains in-flight batches (accepted requests are answered);
* a warm restart over a populated ``DiskCalibrationCache`` serves its
  first calibrated request with zero Monte-Carlo trials.
"""

import json
import threading
import time

import pytest

from repro.core.model import BernoulliModel
from repro.engine import CalibrationCache, CorpusEngine
from repro.generators import generate_null_string
from repro.service import (
    DiskCalibrationCache,
    MiningService,
    ServiceClient,
    ServiceOverloadedError,
    ServiceThread,
)

MODEL = BernoulliModel.uniform("ab")


def _expected_payloads(texts, *, correction=None, alpha=None, spec=None,
                       calibration=None, **run_kwargs):
    """What a direct CorpusEngine.run of the same request returns."""
    engine = CorpusEngine(calibration=calibration)
    result = engine.run_texts(
        texts, MODEL, spec, correction=correction, alpha=alpha, **run_kwargs
    )
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


@pytest.fixture(scope="module")
def corpus():
    texts = []
    for i in range(12):
        text = generate_null_string(MODEL, 40 + 13 * (i % 4), seed=900 + i)
        if i % 3 == 0:
            text = text[:10] + "a" * 9 + text[19:]
        texts.append(text)
    return texts


class TestMineEndpoint:
    def test_response_bit_identical_to_direct_engine(self, corpus):
        service = MiningService(MODEL, batch_docs=8)
        with ServiceThread(service) as handle:
            with ServiceClient(*handle.address) as client:
                response = client.mine(texts=corpus)
        assert _identical(response, _expected_payloads(corpus))
        assert response["correction"] == "bh"
        assert response["documents"] == len(corpus)

    def test_concurrent_clients_each_get_their_own_exact_answer(self, corpus):
        """Four closed-loop clients with different requests; batches mix
        their documents, responses must not."""
        from repro.engine import JobSpec

        cases = [
            {"texts": corpus[:4]},
            {"texts": corpus[4:8], "problem": "top", "t": 3},
            {"texts": corpus[8:], "correction": "bonferroni", "alpha": 0.01},
            {"texts": corpus[::2], "problem": "threshold", "threshold": 1.5,
             "limit": 5},
        ]
        expected = [
            _expected_payloads(cases[0]["texts"]),
            _expected_payloads(cases[1]["texts"], spec=JobSpec(problem="top", t=3)),
            _expected_payloads(cases[2]["texts"], correction="bonferroni",
                               alpha=0.01),
            _expected_payloads(cases[3]["texts"],
                               spec=JobSpec(problem="threshold", threshold=1.5,
                                            limit=5)),
        ]
        service = MiningService(MODEL, batch_docs=16)
        failures = []

        def worker(case, want):
            try:
                with ServiceClient(*handle.address) as client:
                    for _ in range(3):
                        response = client.mine(**case)
                        if not _identical(response, want):
                            failures.append((case, response))
            except Exception as exc:  # pragma: no cover - diagnostic
                failures.append((case, repr(exc)))

        with ServiceThread(service) as handle:
            threads = [
                threading.Thread(target=worker, args=(case, want))
                for case, want in zip(cases, expected)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        assert not failures
        stats = service.batcher.stats()
        assert stats["requests_total"] == 12
        # 3 rounds over corpora of 4 + 4 + 4 + 6 documents
        assert stats["docs_total"] == 3 * 18

    def test_service_backend_default_reaches_the_mining_spec(self, corpus):
        """`serve --backend` must actually pick the kernel (it once only
        configured the calibration cache); requests still override it."""
        captured = []

        class SpyEngine(CorpusEngine):
            def mine_documents(self, jobs, **kwargs):
                captured.extend(job.spec.backend for job in jobs)
                return super().mine_documents(jobs, **kwargs)

        service = MiningService(
            MODEL, backend="python", engine=SpyEngine()
        )
        with ServiceThread(service) as handle:
            with ServiceClient(*handle.address) as client:
                response = client.mine(text=corpus[0])
                client.mine(text=corpus[1], backend="numpy")
        assert captured == ["python", "numpy"]
        assert _identical(response, _expected_payloads([corpus[0]]))

    def test_stopped_service_cannot_be_restarted(self):
        service = MiningService(MODEL)
        with ServiceThread(service):
            pass
        with pytest.raises(RuntimeError, match="cannot be restarted"):
            ServiceThread(service).__enter__()

    def test_per_request_model_override(self, corpus):
        service = MiningService(MODEL)
        with ServiceThread(service) as handle:
            with ServiceClient(*handle.address) as client:
                response = client.mine(
                    text="abcabcaaa", alphabet="abc", probs=[0.5, 0.25, 0.25]
                )
        model = BernoulliModel("abc", [0.5, 0.25, 0.25])
        expected = CorpusEngine().run_texts(["abcabcaaa"], model)
        assert _strip_timing(response["results"]) == [
            doc.payload(include_timing=False) for doc in expected.documents
        ]

    def test_protocol_errors_are_400s(self):
        service = MiningService(MODEL)
        with ServiceThread(service) as handle:
            with ServiceClient(*handle.address) as client:
                for payload, fragment in [
                    ({"texts": []}, "empty"),
                    ({"text": "abz"}, "alphabet"),
                    ({"text": "ab", "problem": "episode"}, "job spec"),
                ]:
                    with pytest.raises(Exception) as caught:
                        client._call("POST", "/mine", payload)
                    assert "400" in str(caught.value)
                    assert fragment in str(caught.value)
                # malformed JSON body
                with pytest.raises(Exception, match="400"):
                    client._call("POST", "/mine", None)

    def test_unknown_paths_and_methods(self):
        service = MiningService(MODEL)
        with ServiceThread(service) as handle:
            with ServiceClient(*handle.address) as client:
                with pytest.raises(Exception, match="404"):
                    client._call("GET", "/nope")
                with pytest.raises(Exception, match="405"):
                    client._call("GET", "/mine")
                with pytest.raises(Exception, match="405"):
                    client._call("POST", "/healthz", {})


class TestObservability:
    def test_healthz_and_stats(self, corpus):
        service = MiningService(MODEL, batch_docs=4)
        with ServiceThread(service) as handle:
            with ServiceClient(*handle.address) as client:
                assert client.healthz()["status"] == "ok"
                client.mine(texts=corpus[:6])
                stats = client.stats()
        batcher = stats["batcher"]
        assert batcher["requests_total"] == 1
        assert batcher["docs_total"] == 6
        assert batcher["batches"] >= 1
        assert batcher["batch_fill"] > 0
        assert stats["engine"]["executor"] == "thread"
        assert stats["uptime_seconds"] >= 0

    def test_stats_reports_the_thread_tier(self, corpus):
        service = MiningService(
            MODEL, workers=2, batch_docs=4
        )
        with ServiceThread(service) as handle:
            with ServiceClient(*handle.address) as client:
                first = client.mine(texts=corpus)
                second = client.mine(texts=corpus)
                stats = client.stats()
        assert _identical(first, _expected_payloads(corpus))
        assert _identical(second, _expected_payloads(corpus))
        engine = stats["engine"]
        assert engine["executor"] == "thread"
        assert engine["workers"] == 2
        native = engine["backend_resolved"] == "native"
        assert engine["threads"] == (2 if native else 1)


class TestBackpressure:
    def test_burst_beyond_capacity_gets_429_and_retry_after(self, corpus):
        gate = threading.Event()
        entered = threading.Event()

        class GatedEngine(CorpusEngine):
            def mine_documents(self, jobs, **kwargs):
                entered.set()
                assert gate.wait(timeout=30)
                return super().mine_documents(jobs, **kwargs)

        service = MiningService(
            MODEL,
            engine=GatedEngine(),
            batch_docs=4,
            max_pending_docs=2,
        )
        accepted, rejected = [], []

        def mine_one(text):
            try:
                with ServiceClient(*handle.address) as client:
                    accepted.append(client.mine(text=text))
            except ServiceOverloadedError as exc:
                rejected.append(exc)

        with ServiceThread(service) as handle:
            first = threading.Thread(target=mine_one, args=(corpus[0],))
            first.start()
            assert entered.wait(10)  # one doc in flight, queue empty
            with ServiceClient(*handle.address) as probe:
                queued = []
                for text in corpus[1:3]:  # fills max_pending_docs=2 exactly
                    thread = threading.Thread(target=mine_one, args=(text,))
                    thread.start()
                    queued.append(thread)
                    while probe.stats()["batcher"]["queue_depth_docs"] < len(queued):
                        time.sleep(0.005)
                # deterministically over capacity now
                with pytest.raises(ServiceOverloadedError) as overload:
                    probe.mine(text=corpus[3])
            assert overload.value.retry_after >= 1
            gate.set()
            first.join(30)
            for thread in queued:
                thread.join(30)
        assert len(accepted) == 3  # every accepted request was answered
        assert not rejected
        assert service.batcher.requests_rejected == 1

    def test_oversized_request_gets_413_not_429(self, corpus):
        from repro.service import ServiceError

        service = MiningService(
            MODEL, max_pending_docs=3
        )
        with ServiceThread(service) as handle:
            with ServiceClient(*handle.address) as client:
                with pytest.raises(ServiceError) as caught:
                    client.mine(texts=corpus[:4])  # 4 docs can never fit
        assert not isinstance(caught.value, ServiceOverloadedError)
        assert caught.value.status == 413

    def test_accepted_requests_survive_the_burst_bit_identically(self, corpus):
        """Rejections must not perturb accepted results."""
        service = MiningService(
            MODEL, batch_docs=2, max_pending_docs=4
        )
        outcomes = []

        def mine_one(text):
            try:
                with ServiceClient(*handle.address) as client:
                    outcomes.append((text, client.mine(text=text)))
            except ServiceOverloadedError:
                outcomes.append((text, None))

        with ServiceThread(service) as handle:
            threads = [
                threading.Thread(target=mine_one, args=(text,))
                for text in corpus
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        for text, response in outcomes:
            if response is not None:
                assert _identical(response, _expected_payloads([text]))


class TestShutdown:
    def test_graceful_shutdown_drains_in_flight_requests(self, corpus):
        release = threading.Event()
        entered = threading.Event()

        class SlowEngine(CorpusEngine):
            def mine_documents(self, jobs, **kwargs):
                entered.set()
                release.wait(timeout=30)
                return super().mine_documents(jobs, **kwargs)

        service = MiningService(
            MODEL, engine=SlowEngine(), batch_docs=2
        )
        responses, errors = [], []

        def mine_one(text):
            try:
                with ServiceClient(*handle.address, timeout=60.0) as client:
                    responses.append((text, client.mine(text=text)))
            except Exception as exc:
                errors.append(exc)

        handle = ServiceThread(service)
        handle.__enter__()
        threads = [
            threading.Thread(target=mine_one, args=(text,))
            for text in corpus[:4]
        ]
        for thread in threads:
            thread.start()
        assert entered.wait(10)
        # graceful drain covers *accepted* requests: wait until all four
        # are in (one in the gated batch, the rest queued) before
        # starting the shutdown that must answer them all
        deadline = time.monotonic() + 10
        while (
            service.batcher.requests_total < 4
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        assert service.batcher.requests_total == 4
        shutdown = threading.Thread(target=handle.__exit__, args=(None,) * 3)
        shutdown.start()
        release.set()
        shutdown.join(60)
        for thread in threads:
            thread.join(60)
        # ... yet every accepted request was answered correctly
        assert not errors
        for text, response in responses:
            assert _identical(response, _expected_payloads([text]))

    def test_bind_failure_releases_batcher_and_pool(self):
        """A service that never served must not leak its dispatcher or
        mining threads when the port is already taken."""
        occupant = MiningService(MODEL)
        with ServiceThread(occupant) as handle:
            taken_port = handle.address[1]
            contender = MiningService(MODEL, workers=2)
            with pytest.raises(OSError):
                ServiceThread(
                    contender, port=taken_port
                ).__enter__()
            assert contender.engine.executor.started is False
            assert contender.batcher._task is None

    def test_stop_closes_the_thread_pool(self, corpus):
        service = MiningService(MODEL, workers=2, batch_docs=4)
        with ServiceThread(service) as handle:
            with ServiceClient(*handle.address) as client:
                client.mine(texts=corpus)
            native = service.backend_status()["backend_resolved"] == "native"
            assert service.engine.executor.started is native
        assert service.engine.executor.started is False


class TestCalibratedServing:
    def test_calibrated_responses_match_direct_engine(self, corpus, tmp_path):
        cache_dir = tmp_path / "store"
        service = MiningService(
            MODEL,
            calibration=DiskCalibrationCache(cache_dir, trials=20, seed=7),
        )
        with ServiceThread(service) as handle:
            with ServiceClient(*handle.address) as client:
                response = client.mine(texts=corpus[:5])
        expected = _expected_payloads(
            corpus[:5], calibration=CalibrationCache(trials=20, seed=7)
        )
        assert _identical(response, expected)
        assert response["results"][0]["p_value_kind"] == "calibrated"

    def test_warm_restart_serves_without_a_single_trial(
        self, corpus, tmp_path, monkeypatch
    ):
        cache_dir = tmp_path / "store"
        cold = MiningService(
            MODEL,
            calibration=DiskCalibrationCache(cache_dir, trials=20, seed=7),
        )
        with ServiceThread(cold) as handle:
            with ServiceClient(*handle.address) as client:
                first = client.mine(texts=corpus[:5])

        # restart: any Monte-Carlo simulation is now a hard failure
        def boom(self, model, bucket, **kwargs):
            raise AssertionError("warm restart ran Monte-Carlo trials")

        monkeypatch.setattr(CalibrationCache, "_simulate", boom)
        warm_cache = DiskCalibrationCache(cache_dir, trials=20, seed=7)
        warm = MiningService(MODEL, calibration=warm_cache)
        with ServiceThread(warm) as handle:
            with ServiceClient(*handle.address) as client:
                second = client.mine(texts=corpus[:5])
                stats = client.stats()
        assert _strip_timing(second["results"]) == _strip_timing(first["results"])
        assert warm_cache.disk_hits >= 1
        assert warm_cache.misses == 0
        assert stats["calibration"]["disk"]["hits"] >= 1
