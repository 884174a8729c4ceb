"""The micro-batcher: coalescing, deterministic backpressure, draining.

These tests drive :class:`MicroBatcher` directly on an event loop
(``asyncio.run``), with an instrumented engine whose mining pass can be
counted or blocked -- the full HTTP path is covered by
``test_service.py``.
"""

import asyncio
import json
import threading

import pytest

from repro.core.model import BernoulliModel
from repro.engine import CorpusEngine
from repro.service.batcher import (
    MicroBatcher,
    RequestTooLarge,
    ServiceOverloaded,
)
from repro.service.protocol import parse_mine_request

MODEL = BernoulliModel.uniform("ab")


class CountingEngine(CorpusEngine):
    """A serial engine that counts mine_documents passes."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.mine_calls = 0

    def mine_documents(self, jobs):
        self.mine_calls += 1
        return super().mine_documents(jobs)


class GatedEngine(CountingEngine):
    """A serial engine whose mining pass blocks until released.

    ``entered`` is set when a batch reaches the mining thread; the
    batch then waits for ``gate``.  This makes backpressure scenarios
    fully deterministic: the test knows exactly what is in flight and
    exactly what is queued.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.entered = threading.Event()
        self.gate = threading.Event()

    def mine_documents(self, jobs):
        self.entered.set()
        assert self.gate.wait(timeout=30), "test forgot to open the gate"
        return super().mine_documents(jobs)


def request(text="ab" * 20, **fields):
    return parse_mine_request({"text": text, **fields}, MODEL)


def multi_request(texts, **fields):
    return parse_mine_request({"texts": texts, **fields}, MODEL)


async def _wait_for(predicate, timeout=10.0):
    """Poll an event-loop-external condition without blocking the loop."""
    for _ in range(int(timeout / 0.005)):
        if predicate():
            return
        await asyncio.sleep(0.005)
    raise AssertionError("condition never became true")


def _doc_payloads(result):
    return json.dumps(
        [doc.payload(include_timing=False) for doc in result.documents],
        sort_keys=True,
    )


class TestCoalescing:
    def test_concurrent_requests_share_mining_passes(self):
        async def scenario():
            engine = CountingEngine()
            batcher = MicroBatcher(
                engine, batch_docs=16
            )
            await batcher.start()
            texts = [f"{'ab' * 15}{'a' * (4 + i)}" for i in range(6)]
            results = await asyncio.gather(
                *(batcher.submit(request(text)) for text in texts)
            )
            await batcher.close()
            return engine, batcher, texts, results

        engine, batcher, texts, results = asyncio.run(scenario())
        # Submitted together, they queue before the idle lane takes its
        # first batch: one mining pass, with no timer involved.
        assert engine.mine_calls == 1
        assert batcher.batches == engine.mine_calls
        assert batcher.docs_total == 6
        assert batcher.stats()["batch_fill"] > 1.0
        for text, result in zip(texts, results):
            expected = CorpusEngine().run_texts([text], MODEL)
            assert _doc_payloads(result) == _doc_payloads(expected)

    def test_requests_with_distinct_specs_coalesce_correctly(self):
        """One batch may carry several (spec, model) groups; each request
        still gets exactly its own documents and correction scope."""

        async def scenario():
            engine = CountingEngine()
            batcher = MicroBatcher(engine, batch_docs=32)
            await batcher.start()
            payloads = [
                {"text": "ab" * 20 + "aaaa"},
                {"text": "ba" * 25, "problem": "top", "t": 3},
                {"texts": ["ab" * 12, "a" * 6 + "b" * 6], "correction": "bonferroni"},
                {"text": "ab" * 9 + "bbb", "problem": "threshold",
                 "threshold": 1.0, "limit": 4},
            ]
            requests = [parse_mine_request(p, MODEL) for p in payloads]
            results = await asyncio.gather(
                *(batcher.submit(r) for r in requests)
            )
            await batcher.close()
            return payloads, results

        payloads, results = asyncio.run(scenario())
        for payload, result in zip(payloads, results):
            reference = parse_mine_request(payload, MODEL)
            expected = CorpusEngine().run(
                reference.jobs(),
                correction=reference.correction,
                alpha=reference.alpha,
            )
            assert _doc_payloads(result) == _doc_payloads(expected)
            assert result.correction == expected.correction

    def test_oversized_request_rides_alone(self):
        async def scenario():
            engine = CountingEngine()
            batcher = MicroBatcher(engine, batch_docs=2)
            await batcher.start()
            result = await batcher.submit(
                multi_request(["ab" * 10] * 7)  # 7 docs > batch_docs=2
            )
            await batcher.close()
            return batcher, result

        batcher, result = asyncio.run(scenario())
        assert len(result.documents) == 7
        assert batcher.batches == 1


class TestBackpressure:
    def test_overflow_is_rejected_deterministically(self):
        async def scenario():
            engine = GatedEngine()
            batcher = MicroBatcher(
                engine, batch_docs=8, max_pending_docs=4
            )
            await batcher.start()
            first = asyncio.ensure_future(batcher.submit(request()))
            # the dispatcher takes the first request out of the queue and
            # blocks inside the (gated) mining thread
            await _wait_for(engine.entered.is_set)
            assert batcher.queue_depth_docs == 0
            assert batcher.in_flight_docs == 1
            # exactly max_pending_docs=4 documents fit in the queue
            queued = [
                asyncio.ensure_future(batcher.submit(multi_request(["ab" * 8] * 2)))
                for _ in range(2)
            ]
            await _wait_for(lambda: batcher.queue_depth_docs == 4)
            # ... and the next document does not
            with pytest.raises(ServiceOverloaded) as overload:
                await batcher.submit(request())
            assert overload.value.retry_after >= 1
            assert batcher.requests_rejected == 1
            engine.gate.set()
            results = await asyncio.gather(first, *queued)
            await batcher.close()
            return batcher, results

        batcher, results = asyncio.run(scenario())
        # every accepted request was answered despite the rejection
        assert [len(r.documents) for r in results] == [1, 2, 2]
        assert batcher.stats()["requests_total"] == 3

    def test_retry_after_scales_with_backlog(self):
        async def scenario():
            engine = GatedEngine()
            batcher = MicroBatcher(
                engine, batch_docs=4, max_pending_docs=1000
            )
            await batcher.start()
            # manufacture a measured throughput of ~1000 docs/sec
            batcher.metrics.counter("repro_batcher_docs_total").inc(1000)
            batcher.metrics.counter("repro_batcher_mine_seconds_total").inc(1.0)
            batcher._queued_docs = 500
            hint = batcher.retry_after_hint()
            batcher._queued_docs = 0
            engine.gate.set()
            await batcher.close()
            return hint

        assert asyncio.run(scenario()) == 1  # 500 docs / 1000 docs-per-sec

    def test_request_larger_than_capacity_is_a_permanent_error(self):
        """429 means retry-later; a request that can never fit must not
        masquerade as one."""

        async def scenario():
            batcher = MicroBatcher(
                CountingEngine(), max_pending_docs=3
            )
            await batcher.start()
            with pytest.raises(ValueError, match="at most 3"):
                await batcher.submit(multi_request(["ab" * 8] * 4))
            await batcher.close()

        asyncio.run(scenario())

    def test_rejected_while_closing(self):
        async def scenario():
            batcher = MicroBatcher(CountingEngine())
            await batcher.start()
            await batcher.close()
            with pytest.raises(ServiceOverloaded):
                await batcher.submit(request())

        asyncio.run(scenario())


class TestTenantQuota:
    """Per-tenant fair-share quotas: one hog cannot starve the queue.

    Tenants are keyed by :attr:`MineRequest.tenant_key` (a hash of the
    request's model), so two payloads with different ``probs`` are two
    tenants here.
    """

    @staticmethod
    def _other_tenant(texts, **fields):
        """A request from a *different* tenant (different model hash)."""
        return parse_mine_request(
            {"texts": texts, "alphabet": "ab", "probs": [0.8, 0.2], **fields},
            MODEL,
        )

    def test_hog_tenant_gets_429_while_others_are_admitted(self):
        async def scenario():
            engine = GatedEngine()
            batcher = MicroBatcher(
                engine,
                batch_docs=8,
                max_pending_docs=8,
                tenant_fair_share=0.5,  # each tenant: 4 queued docs
            )
            await batcher.start()
            assert batcher.tenant_cap_docs == 4
            first = asyncio.ensure_future(batcher.submit(request()))
            await _wait_for(engine.entered.is_set)
            # Tenant A fills exactly its fair share of the queue...
            hogs = [
                asyncio.ensure_future(
                    batcher.submit(multi_request(["ab" * 8] * 2))
                )
                for _ in range(2)
            ]
            await _wait_for(lambda: batcher.queue_depth_docs == 4)
            # ... so its next document is a deterministic fair-share 429
            with pytest.raises(ServiceOverloaded, match="fair share"):
                await batcher.submit(request())
            assert batcher.tenant_rejected == 1
            assert batcher.requests_rejected == 1
            # while tenant B still has the other half of the queue.
            other = asyncio.ensure_future(
                batcher.submit(self._other_tenant(["ab" * 8] * 2))
            )
            await _wait_for(lambda: batcher.queue_depth_docs == 6)
            assert batcher.stats()["tenants_queued"] == 2
            engine.gate.set()
            results = await asyncio.gather(first, *hogs, other)
            await batcher.close()
            return batcher, results

        batcher, results = asyncio.run(scenario())
        assert [len(r.documents) for r in results] == [1, 2, 2, 2]
        stats = batcher.stats()
        assert stats["tenant_rejected"] == 1
        assert stats["tenant_fair_share"] == 0.5
        assert stats["tenants_queued"] == 0  # shares returned on dispatch

    def test_request_over_tenant_share_is_a_permanent_413(self):
        """A request that can never fit the tenant's share must be a
        413-style error, not a retry-later 429."""

        async def scenario():
            batcher = MicroBatcher(
                CountingEngine(),
                max_pending_docs=10,
                tenant_fair_share=0.3,  # cap: 3 docs
            )
            await batcher.start()
            with pytest.raises(RequestTooLarge, match="fair share"):
                await batcher.submit(multi_request(["ab" * 8] * 4))
            assert batcher.tenant_rejected == 0  # not a quota 429
            await batcher.close()

        asyncio.run(scenario())

    def test_share_is_released_when_batches_dispatch(self):
        """Quota accounting follows the queue, not the connection: once
        a tenant's documents dispatch into a mining pass, its share
        frees up even while that pass is still running."""

        class TwoGateEngine(CountingEngine):
            """Blocks each mining pass on its own gate (first two)."""

            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                self.entered = [threading.Event(), threading.Event()]
                self.gates = [threading.Event(), threading.Event()]

            def mine_documents(self, jobs):
                stage = min(self.mine_calls, 1)
                self.entered[stage].set()
                assert self.gates[stage].wait(timeout=30)
                return super().mine_documents(jobs)

        async def scenario():
            engine = TwoGateEngine()
            batcher = MicroBatcher(
                engine,
                batch_docs=64,
                max_pending_docs=8,
                tenant_fair_share=0.5,
            )
            await batcher.start()
            # A primer from the *other* tenant occupies the first pass...
            primer = asyncio.ensure_future(
                batcher.submit(self._other_tenant(["ab" * 8]))
            )
            await _wait_for(engine.entered[0].is_set)
            # ... while the hog tenant fills its whole share.
            hogs = [
                asyncio.ensure_future(
                    batcher.submit(multi_request(["ab" * 8] * 2))
                )
                for _ in range(2)
            ]
            await _wait_for(lambda: batcher.queue_depth_docs == 4)
            assert batcher.stats()["tenants_queued"] == 1
            # Release pass one: the dispatcher pulls all 4 hog documents
            # into pass two, which blocks on its own gate.
            engine.gates[0].set()
            await _wait_for(engine.entered[1].is_set)
            await _wait_for(lambda: batcher.queue_depth_docs == 0)
            # Mining still runs, but the share was returned at dispatch:
            assert batcher.in_flight_docs == 4
            assert batcher.stats()["tenants_queued"] == 0
            # ... so the same tenant immediately has its full share back.
            more = asyncio.ensure_future(
                batcher.submit(multi_request(["ab" * 8] * 4))
            )
            await _wait_for(lambda: batcher.queue_depth_docs == 4)
            engine.gates[1].set()
            results = await asyncio.gather(primer, *hogs, more)
            await batcher.close()
            return results

        results = asyncio.run(scenario())
        assert [len(r.documents) for r in results] == [1, 2, 2, 4]

    def test_default_share_of_one_is_a_behavioral_noop(self):
        """``tenant_fair_share=1.0`` (the default) must change nothing:
        the global bound rejects first, and the tenant counter stays 0."""

        async def scenario():
            engine = GatedEngine()
            batcher = MicroBatcher(
                engine, batch_docs=8, max_pending_docs=4
            )
            await batcher.start()
            assert batcher.tenant_cap_docs == batcher.max_pending_docs
            first = asyncio.ensure_future(batcher.submit(request()))
            await _wait_for(engine.entered.is_set)
            queued = [
                asyncio.ensure_future(
                    batcher.submit(multi_request(["ab" * 8] * 2))
                )
                for _ in range(2)
            ]
            await _wait_for(lambda: batcher.queue_depth_docs == 4)
            with pytest.raises(ServiceOverloaded) as overload:
                await batcher.submit(request())
            assert "fair share" not in str(overload.value)
            assert batcher.tenant_rejected == 0
            engine.gate.set()
            await asyncio.gather(first, *queued)
            await batcher.close()
            return batcher

        batcher = asyncio.run(scenario())
        assert batcher.requests_rejected == 1

    def test_share_validation(self):
        with pytest.raises(ValueError, match="tenant_fair_share"):
            MicroBatcher(CountingEngine(), tenant_fair_share=0.0)
        with pytest.raises(ValueError, match="tenant_fair_share"):
            MicroBatcher(CountingEngine(), tenant_fair_share=1.5)


class TestDraining:
    def test_close_drains_queued_requests(self):
        async def scenario():
            engine = GatedEngine()
            batcher = MicroBatcher(
                engine, batch_docs=2, max_pending_docs=64
            )
            await batcher.start()
            tasks = [
                asyncio.ensure_future(batcher.submit(request("ab" * (10 + i))))
                for i in range(5)
            ]
            await _wait_for(engine.entered.is_set)
            closer = asyncio.ensure_future(batcher.close())
            engine.gate.set()
            results = await asyncio.gather(*tasks)
            await closer
            return results

        results = asyncio.run(scenario())
        assert len(results) == 5
        assert all(len(r.documents) == 1 for r in results)

    def test_mining_failure_fails_the_whole_batch_only(self):
        class FlakyEngine(CountingEngine):
            def mine_documents(self, jobs):
                if self.mine_calls == 0:
                    self.mine_calls += 1
                    raise RuntimeError("backend exploded")
                return super().mine_documents(jobs)

        async def scenario():
            batcher = MicroBatcher(FlakyEngine())
            await batcher.start()
            with pytest.raises(RuntimeError, match="backend exploded"):
                await batcher.submit(request())
            # the batcher survives and serves the next request
            result = await batcher.submit(request())
            await batcher.close()
            return result

        assert len(asyncio.run(scenario()).documents) == 1
