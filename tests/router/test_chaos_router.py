"""Chaos through the router: the PR 7 storm, now with a faulted shard.

``REPRO_FAULTS`` is scoped to **one** shard's environment (the harness
spawns each shard with its own env), so the fleet mixes a healthy
shard with one whose calibration reads come back corrupt and whose
mine thread stalls.  The contract extends the single-service storm:

* every request resolves -- no hangs;
* every outcome is one of {200, 429, 504} at the client -- connection
  weather and shard drains are absorbed by router failover + client
  retries, never surfacing as 500s;
* every 200 body stays bit-identical to a direct engine run;
* a shard ejected for its sins rejoins the ring once its ``/healthz``
  recovers (here: restarted without the fault environment), and the
  rejoin is observable in the router's metrics;
* a SIGKILLed ``--workers 2`` shard leaves no process behind: it mines
  on threads, so it has no children to orphan.
"""

import json
import threading

import pytest

from harness import RouterHarness, alive, descendants
from repro.core.model import BernoulliModel
from repro.engine import CalibrationCache, CorpusEngine
from repro.faults import FAULTS_ENV, FAULTS_SEED_ENV
from repro.generators import generate_null_string
from repro.service import (
    DiskCalibrationCache,
    ServiceError,
    ServiceOverloadedError,
)

MODEL = BernoulliModel.uniform("ab")

#: The faulted shard's environment: every calibration entry read from
#: disk is treated as corrupt, and the mine thread stalls.
FAULTED_ENV = {FAULTS_ENV: "mine_delay_ms:50,disk_cache_corrupt",
               FAULTS_SEED_ENV: "7"}

#: Calibration trials and seed of every shard (``serve --calibrate``).
TRIALS, SEED = 20, 0


@pytest.fixture(scope="module")
def corpus():
    texts = []
    for i in range(12):
        text = generate_null_string(MODEL, 40 + 13 * (i % 4), seed=700 + i)
        if i % 3 == 0:
            text = text[:10] + "b" * 9 + text[19:]
        texts.append(text)
    return texts


def _expected_payloads(texts):
    result = CorpusEngine(
        calibration=CalibrationCache(trials=TRIALS, seed=SEED)
    ).run_texts(texts, MODEL)
    return [doc.payload(include_timing=False) for doc in result.documents]


def _identical(response, expected):
    stripped = [
        {k: v for k, v in doc.items() if k != "elapsed_seconds"}
        for doc in response["results"]
    ]
    return json.dumps(stripped, sort_keys=True) == json.dumps(
        expected, sort_keys=True
    )


def _metric_value(metrics_text: str, name: str) -> float:
    total = 0.0
    for line in metrics_text.splitlines():
        if line.startswith(name) and not line.startswith("#"):
            head = line.split(" ")[0]
            if head == name or head.startswith(name + "{"):
                total += float(line.rsplit(" ", 1)[1])
    return total


class TestRouterChaosStorm:
    def test_storm_with_one_faulted_shard(self, corpus, tmp_path):
        """Ten concurrent clients, mixed deadlines, shard-1 under
        fault injection: outcomes are only {200, 429, 504}, 200s are
        bit-identical, the faulted shard rejoins after a clean restart,
        and its SIGKILL orphans no process."""
        # Pre-warm the shared store so shards read entries from disk,
        # where the corruption fault bites.
        store = tmp_path / "calib"
        warm = DiskCalibrationCache(store, trials=TRIALS, seed=SEED)
        for text in corpus:
            warm.distribution_for(MODEL, len(text))
        serve_args = [
            "--alphabet", "ab",
            "--batch-docs", "4",
            "--max-pending", "64",
            "--workers", "2",
            "--calibrate", "--trials", str(TRIALS), "--seed", str(SEED),
            "--cache-dir", str(store),
        ]
        with RouterHarness(
            shards=2,
            serve_args=serve_args,
            shard_env={1: FAULTED_ENV},
            health_interval=0.1,
        ) as harness:
            outcomes = []

            def mine_one(texts, timeout_ms):
                try:
                    retries = 3 if timeout_ms >= 10_000 else 0
                    with harness.client(timeout=60.0) as client:
                        outcomes.append(
                            (texts, 200, client.mine(texts=texts,
                                                     timeout_ms=timeout_ms,
                                                     retries=retries))
                        )
                except ServiceOverloadedError as exc:
                    outcomes.append((texts, exc.status, None))
                except ServiceError as exc:
                    outcomes.append((texts, exc.status, None))

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
            assert 200 in statuses  # the fleet degraded, never died
            for texts, status, response in outcomes:
                if status == 200:
                    assert _identical(response, _expected_payloads(texts))

            # Recovery: take the faulted shard down, bring it back
            # clean, and require the router to notice both transitions.
            orphans = descendants(harness.shards[1].pid)
            harness.kill_shard(1)
            health = harness.wait_status("degraded")
            assert health["shards"]["shard-1"]["status"] == "down"
            harness.restart_shard(1, env={})  # faults gone
            health = harness.wait_status("ok")
            assert health["shards"]["shard-1"]["status"] == "ok"
            survivors = [pid for pid in orphans if alive(pid)]
            assert survivors == [], f"shard children outlived it: {survivors}"
            with harness.client() as client:
                response = client.mine(texts=corpus[:4], retries=2)
                assert _identical(response, _expected_payloads(corpus[:4]))
                scrape = client.metrics()
            assert _metric_value(scrape, "repro_router_ejections_total") >= 1
            assert _metric_value(scrape, "repro_router_rejoins_total") >= 1
