"""Cross-process trace assembly: one tree for one routed request.

The fleet-tracing acceptance path: a ``POST /mine`` through a 2-shard
router yields ONE assembled trace from the router's ``GET /trace/<id>``
containing the router's proxy spans, the owning shard's service spans
(parse -> queue_wait -> batch_mine -> finalize) with the kernel child
of the batch -- with the identical trace id at every hop (client
header, router tree, shard subtree).  Real processes, real sockets: the
shards are genuine ``repro-mss serve`` children mining on two threads
each.
"""

import json
import urllib.error
import urllib.request

from harness import RouterHarness
from repro.core.model import BernoulliModel
from repro.generators import generate_null_string

MODEL = BernoulliModel.uniform("ab")

#: Shards on the thread tier with a small batch target.
THREADED_SERVE_ARGS = [
    "--alphabet", "ab",
    "--batch-docs", "4",
    "--workers", "2",
]


def _corpus(n_docs=8, length=80):
    return [
        generate_null_string(MODEL, length, seed=7100 + i)
        for i in range(n_docs)
    ]


def _get_json(address, path):
    try:
        with urllib.request.urlopen(
            f"http://{address[0]}:{address[1]}{path}"
        ) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _span_names(nodes):
    return [node["name"] for node in nodes]


def _find(nodes, name):
    matches = [node for node in nodes if node["name"] == name]
    assert matches, f"no span named {name!r} in {_span_names(nodes)}"
    return matches[-1]


class TestAssembledTrace:
    def test_one_request_one_fleet_wide_tree(self):
        with RouterHarness(
            shards=2, serve_args=THREADED_SERVE_ARGS
        ) as harness:
            with harness.client() as client:
                client.mine(texts=_corpus())
                trace_id = client.last_trace_id
                assert trace_id is not None
                assembled = client.trace()  # defaults to last_trace_id

        # -- one tree, the id the client saw on the wire ---------------
        assert assembled["trace_id"] == trace_id
        assert assembled["assembled"] is True
        assert len(assembled["shards"]) == 1  # exactly one owning shard

        # -- router layer: routing decision + the proxied attempt ------
        top = _span_names(assembled["spans"])
        assert "route" in top
        proxy = _find(assembled["spans"], "proxy")
        assert proxy["notes"]["status"] == 200
        owner = proxy["notes"]["shard"]
        assert owner in ("shard-0", "shard-1")

        # -- shard layer: stitched under the proxy span, same id -------
        shard_node = _find(proxy["children"], f"shard:{owner}")
        assert shard_node["notes"]["trace_id"] == trace_id
        assert shard_node["notes"]["parent_span"] == "proxy"
        service_spans = shard_node["children"]
        assert _span_names(service_spans) == [
            "parse", "queue_wait", "batch_mine", "finalize", "serialize",
        ]

        # -- kernel layer: the request's share inside batch_mine -------
        batch_mine = _find(service_spans, "batch_mine")
        kernel = _find(batch_mine["children"], "kernel")
        assert kernel["notes"]["docs"] == 8
        assert 0.0 < kernel["ms"] <= batch_mine["ms"]

    def test_router_adopts_a_client_supplied_trace_id(self):
        with RouterHarness(shards=2) as harness:
            request = urllib.request.Request(
                f"http://{harness.address[0]}:{harness.address[1]}/mine",
                data=json.dumps({"text": "ab" * 40}).encode(),
                headers={
                    "Content-Type": "application/json",
                    "X-Trace-Id": "feedface00000077",
                },
            )
            with urllib.request.urlopen(request) as response:
                assert response.status == 200
                assert response.headers["X-Trace-Id"] == "feedface00000077"
            status, assembled = _get_json(
                harness.address, "/trace/feedface00000077"
            )
        assert status == 200
        assert assembled["trace_id"] == "feedface00000077"
        assert assembled["assembled"] is True

    def test_shard_and_router_views_agree(self):
        # The shard's own /trace/<id> serves its half directly; the
        # router's assembled tree embeds exactly that half.
        with RouterHarness(shards=2) as harness:
            with harness.client() as client:
                client.mine(text="ab" * 40)
                trace_id = client.last_trace_id
                assembled = client.trace()
            proxy = _find(assembled["spans"], "proxy")
            owner = proxy["notes"]["shard"]
            state = harness.router.shards[owner]
            status, shard_tree = _get_json(
                state.address, f"/trace/{trace_id}"
            )
        assert status == 200
        assert shard_tree["trace_id"] == trace_id
        shard_node = _find(proxy["children"], f"shard:{owner}")
        assert _span_names(shard_node["children"]) == _span_names(
            shard_tree["spans"]
        )

    def test_unknown_trace_id_is_a_fleet_wide_404(self):
        with RouterHarness(shards=2) as harness:
            status, body = _get_json(
                harness.address, "/trace/feedface00000404"
            )
        assert status == 404
        assert "error" in body

    def test_malformed_trace_id_is_400(self):
        with RouterHarness(shards=1) as harness:
            status, body = _get_json(harness.address, "/trace/nope")
        assert status == 400
        assert "error" in body
