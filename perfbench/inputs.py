"""Seeded inputs, reference outputs and the output comparison.

Every workload's documents come from ``repro.generators``: null strings
drawn from the workload's model, a fixed share of them carrying one
planted burst (a window re-drawn from a contrasting multinomial).
Lengths are stratified -- one draw per equal-width stratum of the
workload's range, shuffled -- and the planted share is exact, so every
seed yields the same mix of work and the run-to-run spread comes from
the program rather than from the luck of the draw.

The program only ever sees the generated texts (and, for the HTTP
workloads, the JSON bodies built from them).  Each workload draws a
fixed pool of operations and cycles through it; the program keeps no
per-document or per-request result cache, so a repeated operation costs
what its first run cost.
"""

from __future__ import annotations

import json

import numpy as np

from repro import BernoulliModel, CalibrationCache, CorpusEngine, JobSpec
from repro.engine import length_bucket
from repro.generators import PlantedSegment, generate_with_planted
from repro.router import HashRing, routing_key

#: The seed used while building and tuning the benchmark.
DEFAULT_SEED = 1
#: A seed never used while tuning: claims are re-checked on it.
HELDOUT_SEED = 7

#: Calibration the program runs with: ``serve --calibrate`` defaults and
#: ``CalibrationCache(trials=100, seed=0)`` for the library path.
TRIALS = 100
CALIB_SEED = 0

#: Backend the reference outputs are computed with.  Backends are
#: bit-identical by contract (the kernel parity suite enforces it), so
#: the reference may use the fastest one; when it is unavailable it
#: falls back to numpy with identical results.
REFERENCE_BACKEND = "native"

DNA_ALPHABET = "acgt"
DNA_PROBS = (0.3, 0.2, 0.2, 0.3)
DNA_BURST = (0.1, 0.4, 0.4, 0.1)
BINARY_ALPHABET = "ab"
BINARY_BURST = (0.9, 0.1)
#: Candidate binary tenant models; :func:`tenant_probs` picks the first
#: two that the router's ring places on different shards.
TENANT_CANDIDATES = (
    (0.5, 0.5), (0.55, 0.45), (0.45, 0.55), (0.6, 0.4), (0.4, 0.6),
    (0.65, 0.35), (0.35, 0.65), (0.7, 0.3), (0.3, 0.7),
)
SHARD_NAMES = ("shard-0", "shard-1")

CORPUS_JOBS = 8
CORPUS_DOCS_PER_JOB = 16
CORPUS_LENGTHS = (1000, 3500)
CORPUS_PLANTED_PER_JOB = 4

TRICKLE_DOCS_PER_TENANT = 98
TRICKLE_LENGTHS = (300, 800)
TRICKLE_PLANTED_PER_TENANT = 14          # 1 in 7

BURST_REQUESTS_PER_CONNECTION = 28
BURST_DOC_COUNTS = (2, 3, 4, 5, 6, 7, 8)
#: Documents of request ``i`` of both connections together: the two
#: closed loops stay in step, so each batch coalesces request ``i`` of
#: each, and complementary counts (2+8, 3+7, ...) make every batch ten
#: documents, one per length stratum, 2 or 3 of them planted (1 in 4).
#: The tail then reflects the program, not how a seed paired requests.
BURST_BATCH_DOCS = 10
BURST_LENGTHS = (500, 2000)
#: Each connection alternates its own pair of problems, so a batch that
#: coalesces one request from each holds two spec groups.
BURST_PROBLEMS = (
    ({"problem": "mss"}, {"problem": "top", "t": 5}),
    (
        {"problem": "threshold", "threshold": 12.0, "limit": 40},
        {"problem": "minlength", "min_length": 40},
    ),
)
#: Warm-up request filler: short enough to be cheap, long enough to stay
#: in the smallest bucket the workload already uses (257..512).
BURST_FILLER_LENGTH = 300
BURST_FILLER_DOCS = 31


def dna_model() -> BernoulliModel:
    """The skewed DNA null model of ``corpus`` and ``burst``."""
    return BernoulliModel(list(DNA_ALPHABET), list(DNA_PROBS))


def stratified_lengths(rng, count: int, low: int, high: int) -> list[int]:
    """``count`` lengths in ``[low, high]``, one per equal-width stratum,
    in shuffled order."""
    edges = np.linspace(low, high + 1, count + 1)
    lengths = [
        int(rng.integers(int(lo), max(int(lo) + 1, int(hi))))
        for lo, hi in zip(edges[:-1], edges[1:])
    ]
    rng.shuffle(lengths)
    return lengths


def planted_flags(rng, count: int, planted: int) -> list[bool]:
    """Exactly ``planted`` of ``count`` positions flagged, at random."""
    flags = [False] * count
    for index in rng.choice(count, size=planted, replace=False):
        flags[int(index)] = True
    return flags


def make_document(rng, model: BernoulliModel, n: int, burst=None) -> str:
    """A null string of length ``n``; with ``burst`` probabilities, one
    window of 5-12% of the string re-drawn from them."""
    segments = ()
    if burst is not None:
        length = int(rng.integers(max(1, n // 20), max(2, n // 8)))
        start = int(rng.integers(0, n - length + 1))
        segments = (PlantedSegment(start, length, tuple(burst)),)
    codes = generate_with_planted(model, n, segments, seed=rng)
    symbols = np.array(model.alphabet)
    return "".join(symbols[codes].tolist())


def tenant_probs() -> tuple[tuple[float, float], tuple[float, float]]:
    """Two binary tenant models whose requests the router's ring places
    on ``shard-0`` and ``shard-1`` respectively."""
    ring = HashRing(SHARD_NAMES)
    owners: dict[str, tuple[float, float]] = {}
    for probs in TENANT_CANDIDATES:
        body = json.dumps({"alphabet": BINARY_ALPHABET, "probs": list(probs)})
        owners.setdefault(ring.node_for(routing_key(body.encode())), probs)
    if len(owners) < 2:
        raise RuntimeError("no tenant pair splits across the two shards")
    return owners["shard-0"], owners["shard-1"]


def corpus_inputs(seed: int) -> dict:
    """``corpus``: jobs of 16 DNA documents, 4 of them planted."""
    rng = np.random.default_rng([seed, 1])
    model = dna_model()
    jobs = []
    for _ in range(CORPUS_JOBS):
        lengths = stratified_lengths(rng, CORPUS_DOCS_PER_JOB, *CORPUS_LENGTHS)
        flags = planted_flags(rng, CORPUS_DOCS_PER_JOB, CORPUS_PLANTED_PER_JOB)
        jobs.append([
            make_document(rng, model, n, DNA_BURST if planted else None)
            for n, planted in zip(lengths, flags)
        ])
    # One null document per length bucket the jobs use: setup calibrates
    # every bucket before the first timed operation.
    warmup = [make_document(rng, model, n) for n in (1000, 2000, 3500)]
    return {"model": model, "jobs": jobs, "warmup": warmup}


def trickle_inputs(seed: int) -> dict:
    """``trickle``: 1-document binary requests, alternating two tenants."""
    rng = np.random.default_rng([seed, 2])
    per_tenant = []
    warmup = []
    for probs in tenant_probs():
        model = BernoulliModel(list(BINARY_ALPHABET), list(probs))
        lengths = stratified_lengths(
            rng, TRICKLE_DOCS_PER_TENANT, *TRICKLE_LENGTHS
        )
        flags = planted_flags(
            rng, TRICKLE_DOCS_PER_TENANT, TRICKLE_PLANTED_PER_TENANT
        )
        base = {"alphabet": BINARY_ALPHABET, "probs": list(probs)}
        per_tenant.append([
            {**base, "text": make_document(
                rng, model, n, BINARY_BURST if planted else None
            )}
            for n, planted in zip(lengths, flags)
        ])
        warmup.extend(
            {**base, "text": make_document(rng, model, n)} for n in (400, 800)
        )
    requests = [req for pair in zip(*per_tenant) for req in pair]
    return {"connections": [requests], "warmup": [warmup]}


def burst_inputs(seed: int) -> dict:
    """``burst``: 2-8 DNA documents per request over two connections."""
    rng = np.random.default_rng([seed, 3])
    model = dna_model()
    counts = []
    for _ in range(BURST_REQUESTS_PER_CONNECTION // len(BURST_DOC_COUNTS)):
        block = list(BURST_DOC_COUNTS)
        rng.shuffle(block)
        counts.extend(block)
    connections: list[list[dict]] = [[], []]
    for index, count in enumerate(counts):
        lengths = stratified_lengths(rng, BURST_BATCH_DOCS, *BURST_LENGTHS)
        flags = planted_flags(rng, BURST_BATCH_DOCS, 2 + index % 2)
        docs = [
            make_document(rng, model, n, DNA_BURST if planted else None)
            for n, planted in zip(lengths, flags)
        ]
        for conn, texts in enumerate((docs[:count], docs[count:])):
            problems = BURST_PROBLEMS[conn]
            connections[conn].append(
                {**problems[index % len(problems)], "texts": texts}
            )
    # Setup request: one document per length bucket plus enough short
    # filler for two chunks, so the shared-memory pool mines once too.
    warmup_texts = [make_document(rng, model, n) for n in (500, 1000, 2000)]
    warmup_texts += [
        make_document(rng, model, BURST_FILLER_LENGTH)
        for _ in range(BURST_FILLER_DOCS)
    ]
    return {
        "connections": connections,
        "warmup": [[{"problem": "mss", "texts": warmup_texts}]],
    }


def request_model(request: dict, default: BernoulliModel) -> BernoulliModel:
    """The null model a ``/mine`` body selects (the service's default
    when it names none)."""
    if "alphabet" not in request:
        return default
    return BernoulliModel(list(request["alphabet"]), list(request["probs"]))


def request_spec(request: dict, backend: str | None = None) -> JobSpec:
    """The :class:`JobSpec` a ``/mine`` body selects."""
    fields = ("problem", "t", "threshold", "min_length", "limit")
    return JobSpec(
        **{name: request[name] for name in fields if name in request},
        backend=backend,
    )


def request_texts(request: dict) -> list[str]:
    """The documents of one ``/mine`` body."""
    return [request["text"]] if "text" in request else list(request["texts"])


def calibration_keys(texts_and_models) -> int:
    """Distinct (model, length bucket) pairs among ``(text, model)``."""
    return len({(model, length_bucket(len(text))) for text, model in texts_and_models})


#: Aggregate fields of a ``CorpusResult`` payload that describe the
#: outcome.  ``executor``, ``workers``, ``batch_docs`` and the
#: calibration cache's hit counters say how and where it was computed,
#: which differs between a serving process and a direct engine run by
#: design, so they are not compared.
_OUTCOME_FIELDS = (
    "documents", "total_symbols", "evaluated", "skipped", "correction",
    "alpha", "calibrated", "significant",
)


def outcome(payload: dict) -> dict:
    """The comparable part of a ``CorpusResult`` payload: every outcome
    field and per-document result, without ``elapsed_seconds``."""
    data = {key: payload[key] for key in _OUTCOME_FIELDS}
    data["results"] = [
        {key: value for key, value in doc.items() if key != "elapsed_seconds"}
        for doc in payload["results"]
    ]
    return data


class Reference:
    """Direct ``CorpusEngine.run`` outcomes for a workload's operations,
    computed outside the timed window with the same spec, model and
    ``CalibrationCache(trials, seed)`` the program uses."""

    def __init__(self) -> None:
        self.engine = CorpusEngine(
            calibration=CalibrationCache(
                trials=TRIALS, seed=CALIB_SEED, backend=REFERENCE_BACKEND
            )
        )

    def outcome(self, texts, model, spec: JobSpec) -> dict:
        """JSON-normalised outcome of mining ``texts`` as one request."""
        result = self.engine.run_texts(list(texts), model, spec)
        return json.loads(json.dumps(outcome(result.payload(include_timing=False))))
