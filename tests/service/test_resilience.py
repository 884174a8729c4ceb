"""Resilience primitives and their service-level edge cases.

Unit coverage for the building blocks -- :class:`FaultRegistry` and
:class:`Deadline` -- plus the satellite contracts:

* ``timeout_ms`` validation (non-positive / non-integer -> 400);
* a request whose deadline expires while queued is **never** mined, and
  its surviving batchmates stay bit-identical;
* :meth:`ServiceClient.mine` retry/backoff honours ``Retry-After`` and
  is deterministic; a double connection failure chains the original
  exception (the regression this PR fixes);
* graceful drain: in-flight requests complete, new requests on parked
  keep-alive connections get 503 + ``Connection: close``, and the
  flush wait is configurable (``--drain-timeout``).
"""

import http.client
import json
import socket
import threading
import time

import pytest

from repro.core.model import BernoulliModel
from repro.engine import CorpusEngine, Deadline
from repro.engine.deadline import (
    active_deadline,
    reset_active_deadline,
    set_active_deadline,
)
from repro.faults import FAULTS_ENV, FaultRegistry, get_faults, reset_faults
from repro.generators import generate_null_string
from repro.service import (
    MiningService,
    ServiceClient,
    ServiceError,
    ServiceOverloadedError,
    ServiceThread,
)
from repro.service.protocol import ProtocolError, parse_mine_request

MODEL = BernoulliModel.uniform("ab")


@pytest.fixture(autouse=True)
def _clean_faults():
    """Every test starts and ends with no faults installed."""
    reset_faults()
    yield
    reset_faults()


def _expected_payloads(texts, **run_kwargs):
    result = CorpusEngine().run_texts(texts, MODEL, **run_kwargs)
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
    return [
        generate_null_string(MODEL, 40 + 11 * (i % 3), seed=500 + i)
        for i in range(6)
    ]


class TestFaultRegistry:
    def test_spec_parsing(self):
        faults = FaultRegistry.from_spec(
            "disk_cache_corrupt:0.25, mine_delay_ms:150 "
        )
        assert faults.sites == {
            "disk_cache_corrupt": 0.25,
            "mine_delay_ms": 150.0,
        }
        assert faults.enabled("disk_cache_corrupt")
        assert FaultRegistry.from_spec("disk_cache_corrupt").sites == {
            "disk_cache_corrupt": 1.0,
        }
        assert not FaultRegistry.from_spec("mine_delay_ms:5").enabled(
            "disk_cache_corrupt"
        )
        assert faults.param("mine_delay_ms") == 150.0

    def test_unknown_site_is_a_configuration_error(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultRegistry.from_spec("disk_cache_corupt:0.5")
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultRegistry().should_fire("no_such_site")

    def test_bad_values_are_rejected(self):
        with pytest.raises(ValueError, match="non-numeric"):
            FaultRegistry.from_spec("disk_cache_corrupt:maybe")
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FaultRegistry.from_spec("disk_cache_corrupt:1.5")

    def test_param_sites_fire_iff_positive(self):
        assert FaultRegistry.from_spec("mine_delay_ms:1").should_fire(
            "mine_delay_ms"
        )
        assert not FaultRegistry.from_spec("mine_delay_ms:0").should_fire(
            "mine_delay_ms"
        )

    def test_draws_are_deterministic_per_seed(self):
        site = "disk_cache_corrupt"
        a = FaultRegistry.from_spec(f"{site}:0.5", seed=3)
        b = FaultRegistry.from_spec(f"{site}:0.5", seed=3)
        c = FaultRegistry.from_spec(f"{site}:0.5", seed=4)
        seq_a = [a.should_fire(site) for _ in range(64)]
        seq_b = [b.should_fire(site) for _ in range(64)]
        seq_c = [c.should_fire(site) for _ in range(64)]
        assert seq_a == seq_b
        assert seq_a != seq_c  # a different seed replays differently
        assert a.fired(site) == sum(seq_a)

    def test_unconfigured_sites_never_fire_or_draw(self):
        faults = FaultRegistry.from_spec("mine_delay_ms:10")
        assert not faults.should_fire("disk_cache_corrupt")
        assert faults.fired("disk_cache_corrupt") == 0

    def test_env_cache_follows_the_environment(self, monkeypatch):
        assert get_faults().sites == {}
        monkeypatch.setenv(FAULTS_ENV, "disk_cache_corrupt:0.5")
        assert get_faults().sites == {"disk_cache_corrupt": 0.5}
        same = get_faults()
        assert same is get_faults()  # cached until the env string changes
        monkeypatch.setenv(FAULTS_ENV, "mine_delay_ms:20")
        assert get_faults().sites == {"mine_delay_ms": 20.0}


class TestDeadline:
    def test_from_timeout_ms(self):
        assert Deadline.from_timeout_ms(None) is None
        soon = Deadline.from_timeout_ms(60_000)
        assert not soon.expired()
        assert 59.0 < soon.remaining() <= 60.0
        assert Deadline(expires_at=time.monotonic() - 1.0).expired()

    def test_contextvar_tunnel(self):
        assert active_deadline() is None
        deadline = Deadline.from_timeout_ms(1000)
        token = set_active_deadline(deadline)
        try:
            assert active_deadline() is deadline
        finally:
            reset_active_deadline(token)
        assert active_deadline() is None


class TestTimeoutValidation:
    @pytest.mark.parametrize("bad", [0, -5, True, 2.5, "100"])
    def test_non_positive_or_non_integer_timeout_is_rejected(self, bad):
        with pytest.raises(ProtocolError, match="timeout_ms"):
            parse_mine_request({"text": "abab", "timeout_ms": bad}, MODEL)

    def test_default_timeout_applies_only_when_absent(self):
        request = parse_mine_request(
            {"text": "abab"}, MODEL, default_timeout_ms=250
        )
        assert request.timeout_ms == 250
        request = parse_mine_request(
            {"text": "abab", "timeout_ms": 75}, MODEL, default_timeout_ms=250
        )
        assert request.timeout_ms == 75
        assert parse_mine_request({"text": "abab"}, MODEL).timeout_ms is None

    def test_bad_timeout_is_a_400_over_http(self, corpus):
        service = MiningService(MODEL)
        with ServiceThread(service) as handle:
            with ServiceClient(*handle.address) as client:
                with pytest.raises(ServiceError) as caught:
                    client.mine(text=corpus[0], timeout_ms=0)
        assert caught.value.status == 400
        assert "timeout_ms" in str(caught.value)


class TestQueuedExpiry:
    def test_expired_request_is_never_mined_and_survivors_are_identical(
        self, corpus
    ):
        """While a gated batch blocks the lane, a queued request's
        deadline passes: it must 504 without its text ever reaching the
        engine, and the batchmate that survived must still match a
        direct engine run bit for bit."""
        gate = threading.Event()
        entered = threading.Event()
        mined_texts = []

        class GatedSpyEngine(CorpusEngine):
            def mine_documents(self, jobs, **kwargs):
                mined_texts.extend(job.text for job in jobs)
                if not entered.is_set():
                    entered.set()
                    assert gate.wait(timeout=30)
                return super().mine_documents(jobs, **kwargs)

        service = MiningService(
            MODEL, engine=GatedSpyEngine(), batch_docs=4
        )
        results, errors = {}, {}

        def mine_one(name, text, timeout_ms):
            try:
                with ServiceClient(*handle.address, timeout=60.0) as client:
                    results[name] = client.mine(text=text,
                                                timeout_ms=timeout_ms)
            except ServiceError as exc:
                errors[name] = exc

        with ServiceThread(service) as handle:
            blocker = threading.Thread(
                target=mine_one, args=("blocker", corpus[0], None)
            )
            blocker.start()
            assert entered.wait(10)  # the lane is now blocked
            doomed = threading.Thread(
                target=mine_one, args=("doomed", corpus[1], 100)
            )
            survivor = threading.Thread(
                target=mine_one, args=("survivor", corpus[2], None)
            )
            doomed.start()
            survivor.start()
            deadline = time.monotonic() + 10
            while (
                service.batcher.requests_total < 3
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            time.sleep(0.2)  # let the doomed request's 100 ms pass
            gate.set()
            for thread in (blocker, doomed, survivor):
                thread.join(60)
        assert errors["doomed"].status == 504
        assert corpus[1] not in mined_texts  # shed, never mined
        assert _identical(results["blocker"], _expected_payloads([corpus[0]]))
        assert _identical(results["survivor"], _expected_payloads([corpus[2]]))

    def test_already_expired_at_admission_is_504_not_429(self, corpus):
        service = MiningService(MODEL)
        with ServiceThread(service) as handle:
            with ServiceClient(*handle.address) as client:
                try:
                    client.mine(text=corpus[0], timeout_ms=1)
                except ServiceError as exc:
                    # 1 ms has virtually always passed by submission;
                    # when mining still wins the race a 200 is valid,
                    # but a rejection must be a 504, never a 429.
                    assert exc.status == 504
        assert service.batcher.requests_rejected == 0  # not backpressure


class TestClientRetry:
    def _scripted_client(self, outcomes):
        """A client whose transport replays ``outcomes`` and records sleeps."""
        client = ServiceClient("127.0.0.1", 1)
        sleeps = []
        client._sleep = sleeps.append
        script = iter(outcomes)

        def fake_call(method, path, payload=None, **kwargs):
            outcome = next(script)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        client._call = fake_call
        return client, sleeps

    def test_429_retry_honours_retry_after(self):
        client, sleeps = self._scripted_client(
            [
                ServiceOverloadedError("busy", retry_after=2),
                ServiceOverloadedError("busy", retry_after=9),
                {"ok": True},
            ]
        )
        assert client.mine(text="abab", retries=2) == {"ok": True}
        assert sleeps == [2.0, 5.0]  # second hint clamped to backoff_cap

    def test_connection_errors_back_off_deterministically(self):
        client, sleeps = self._scripted_client(
            [ConnectionError("gone"), ConnectionError("gone"), {"ok": True}]
        )
        assert client.mine(text="abab", retries=2) == {"ok": True}
        assert sleeps == [client._backoff(0, 0.1, 5.0),
                          client._backoff(1, 0.1, 5.0)]
        assert 0.1 <= sleeps[0] < 0.2  # base * [1, 2) jitter
        assert sleeps[0] < sleeps[1]  # exponential growth

    def test_backoff_is_deterministic_and_capped(self):
        client = ServiceClient("127.0.0.1", 1)
        twin = ServiceClient("127.0.0.1", 1)
        assert client._backoff(3, 0.1, 5.0) == twin._backoff(3, 0.1, 5.0)
        assert client._backoff(30, 0.1, 5.0) == 5.0  # capped

    def test_503_is_retried_but_answers_are_not(self):
        client, sleeps = self._scripted_client(
            [ServiceError(503, "draining"), {"ok": True}]
        )
        assert client.mine(text="abab", retries=1) == {"ok": True}
        assert len(sleeps) == 1
        client, sleeps = self._scripted_client([ServiceError(504, "late")])
        with pytest.raises(ServiceError, match="504"):
            client.mine(text="abab", retries=3)
        assert sleeps == []  # a 504 is an answer, not transport weather

    def test_no_retries_by_default(self):
        client, sleeps = self._scripted_client([ConnectionError("gone")])
        with pytest.raises(ConnectionError):
            client.mine(text="abab")
        assert sleeps == []

    def test_double_connection_failure_chains_the_original(self):
        """Regression: the reconnect used to swallow the first failure;
        now the raised error is chained to it (`raise ... from`)."""
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        client = ServiceClient("127.0.0.1", dead_port, timeout=2.0)
        with pytest.raises(OSError) as caught:
            client.healthz()
        assert isinstance(caught.value.__cause__, OSError)
        assert caught.value.__cause__ is not caught.value


class TestGracefulDrain:
    def test_parked_connection_gets_503_with_connection_close(self, corpus):
        """While draining: the in-flight request completes 200, a new
        request on a parked keep-alive connection gets 503 and the
        connection is closed."""
        gate = threading.Event()
        entered = threading.Event()

        class GatedEngine(CorpusEngine):
            def mine_documents(self, jobs, **kwargs):
                entered.set()
                assert gate.wait(timeout=30)
                return super().mine_documents(jobs, **kwargs)

        service = MiningService(
            MODEL, engine=GatedEngine()
        )
        responses, errors = [], []

        def mine_one(text):
            try:
                with ServiceClient(*handle.address, timeout=60.0) as client:
                    responses.append(client.mine(text=text))
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        handle = ServiceThread(service)
        handle.__enter__()
        try:
            parked = http.client.HTTPConnection(*handle.address, timeout=30)
            parked.request("GET", "/healthz")
            assert parked.getresponse().read()  # connection is now parked
            in_flight = threading.Thread(target=mine_one, args=(corpus[0],))
            in_flight.start()
            assert entered.wait(10)
            shutdown = threading.Thread(
                target=handle.__exit__, args=(None,) * 3
            )
            shutdown.start()
            deadline = time.monotonic() + 10
            while not service._draining and time.monotonic() < deadline:
                time.sleep(0.005)
            assert service._draining
            parked.request(
                "POST",
                "/mine",
                body=json.dumps({"text": corpus[1]}),
                headers={"Content-Type": "application/json"},
            )
            refusal = parked.getresponse()
            body = json.loads(refusal.read())
            assert refusal.status == 503
            assert refusal.headers.get("Connection", "").lower() == "close"
            assert "draining" in body["error"]
            parked.close()
        finally:
            # Always release the gated batch so shutdown can drain even
            # when an assertion above failed.
            gate.set()
        shutdown.join(60)
        in_flight.join(60)
        assert not errors
        assert len(responses) == 1
        assert _identical(responses[0], _expected_payloads([corpus[0]]))

    def test_drain_timeout_is_configurable(self):
        service = MiningService(MODEL, drain_timeout=0.25)
        assert service.drain_timeout == 0.25
        with pytest.raises(ValueError, match="drain_timeout"):
            MiningService(MODEL, drain_timeout=-1.0)

    def test_serve_cli_exposes_the_new_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--alphabet", "ab", "--default-timeout-ms", "500",
             "--drain-timeout", "3.5"]
        )
        assert args.default_timeout_ms == 500
        assert args.drain_timeout == 3.5
        defaults = build_parser().parse_args(["serve", "--alphabet", "ab"])
        assert defaults.default_timeout_ms is None
        assert defaults.drain_timeout == 10.0
