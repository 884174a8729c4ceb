"""Serving scenario: a mining service, several concurrent clients.

Starts a :class:`~repro.service.app.MiningService` in-process (the same
service ``repro-mss serve`` runs standalone), then drives it with
concurrent :class:`~repro.service.client.ServiceClient` workers whose
requests the micro-batcher coalesces into shared kernel calls -- and
shows that every client's response is bit-identical to mining its
request directly through :class:`~repro.engine.corpus.CorpusEngine`.

Run:  PYTHONPATH=src python examples/service_client.py
"""

import json
import threading

from repro.core.model import BernoulliModel
from repro.engine import CorpusEngine
from repro.generators import generate_null_string
from repro.service import MiningService, ServiceClient, ServiceThread


def main():
    model = BernoulliModel.uniform("ab")

    # Three tenants with different workloads: a plain MSS scan, a top-t
    # request, and a threshold sweep -- all hitting the same service.
    corpora = {
        "ids": [generate_null_string(model, 400, seed=s) for s in range(3)],
        "fraud": [
            generate_null_string(model, 300, seed=10 + s)[:120]
            + "a" * 25
            + generate_null_string(model, 300, seed=10 + s)[145:]
            for s in range(3)
        ],
        "telemetry": [generate_null_string(model, 500, seed=20 + s)
                      for s in range(2)],
    }
    requests = {
        "ids": {"texts": corpora["ids"]},
        "fraud": {"texts": corpora["fraud"], "problem": "top", "t": 2},
        "telemetry": {"texts": corpora["telemetry"], "problem": "threshold",
                      "threshold": 8.0, "limit": 3},
    }

    service = MiningService(model, batch_docs=16)
    responses = {}

    def call(tenant):
        with ServiceClient(*handle.address) as client:
            responses[tenant] = client.mine(**requests[tenant])

    print("starting mining service on an ephemeral port ...")
    with ServiceThread(service) as handle:
        host, port = handle.address
        print(f"serving on http://{host}:{port}")
        threads = [
            threading.Thread(target=call, args=(tenant,))
            for tenant in requests
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        with ServiceClient(host, port) as client:
            stats = client.stats()["batcher"]
        print(f"served {stats['requests_total']} concurrent requests "
              f"({stats['docs_total']} documents) in {stats['batches']} "
              f"micro-batch(es), fill {stats['batch_fill']:.1f} docs/batch\n")

    for tenant, response in sorted(responses.items()):
        best = max(
            (doc for doc in response["results"]),
            key=lambda doc: doc["x2_max"],
        )
        print(f"[{tenant}] {response['documents']} docs, "
              f"{response['significant']} significant; "
              f"max X2={best['x2_max']:.2f} at "
              f"[{best['substrings'][0]['start']}, "
              f"{best['substrings'][0]['end']})"
              if best["substrings"] else f"[{tenant}] nothing above threshold")

    # The serving guarantee: identical to mining directly, bit for bit.
    engine = CorpusEngine()
    direct = engine.run_texts(corpora["ids"], model)
    expected = [doc.payload(include_timing=False) for doc in direct.documents]
    served = [
        {key: value for key, value in doc.items() if key != "elapsed_seconds"}
        for doc in responses["ids"]["results"]
    ]
    match = json.dumps(served, sort_keys=True) == json.dumps(
        expected, sort_keys=True
    )
    print(f"\nservice response == direct CorpusEngine.run: {match}")


if __name__ == "__main__":
    main()
