"""An enforced SLO never takes the fleet down.

Two spawned ``serve --slo p99:1ms`` shards behind the router (what
``route --shards 2 --slo p99:1ms`` runs): every request misses the
1 ms objective, so both shards fast-burn within a dozen requests.  The
burn shows on each shard's ``/healthz`` (``slo_fast_burn``) and
``/metrics``, but ``status`` stays ``ok``, so the router keeps both
shards in rotation and no request gets a "no healthy shards" 503.
"""

from __future__ import annotations

import time

from harness import DEFAULT_SERVE_ARGS, RouterHarness
from repro.core.model import BernoulliModel
from repro.generators import generate_null_string
from repro.service import ServiceClient


def test_fast_burning_shards_stay_in_rotation():
    model = BernoulliModel.uniform("ab")
    texts = [generate_null_string(model, 1500, seed=seed) for seed in range(4)]
    serve_args = [*DEFAULT_SERVE_ARGS, "--slo", "p99:1ms"]
    with RouterHarness(shards=2, serve_args=serve_args) as harness:
        harness.wait_status("ok")
        with harness.client() as client:
            for i in range(120):
                response = client.mine(
                    texts=[texts[i % 4]], problem="top", t=5
                )
                assert len(response["results"]) == 1
        burning = 0
        for shard in harness.shards:
            with ServiceClient(*shard.address) as client:
                health, metrics = client.healthz(), client.metrics()
            assert health["status"] == "ok"
            if health["slo_fast_burn"]:
                burning += 1
                assert "p99:1ms" in health["slo_fast_burn_reason"]
                assert "repro_slo_fast_burn_degraded 1" in metrics
        assert burning  # the objective really is missed
        time.sleep(3 * harness.health_interval)  # a few health sweeps
        health = harness.wait_status("ok")
        assert health["shards_healthy"] == 2
