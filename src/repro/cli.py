"""Command-line interface: ``repro-mss`` (or ``python -m repro.cli``).

Subcommands map one-to-one onto the paper's four problems plus a
generator for experimenting:

* ``mss``        -- Problem 1: the most significant substring.
* ``top``        -- Problem 2: the top-t substrings.
* ``threshold``  -- Problem 3: all substrings with X² above a threshold.
* ``minlength``  -- Problem 4: the MSS with a length floor.
* ``generate``   -- emit a synthetic string (null / geometric / zipf /
  markov / correlated) for piping back into the miners.
* ``calibrate``  -- Monte-Carlo family-wise critical values for X²max
  (the look-elsewhere-corrected significance threshold).
* ``stream``     -- online MSS over stdin with bounded memory
  (chunk + overlap; exact for anomalies up to the overlap length).
* ``batch``      -- mine a whole corpus (directory of files, or one
  document per line) concurrently with corrected significance
  (Bonferroni / Benjamini-Hochberg), via :mod:`repro.engine`.
* ``serve``      -- run the async mining service (:mod:`repro.service`):
  JSON/HTTP ``POST /mine`` with request micro-batching, a persistent
  pool of mining threads, deterministic 429 backpressure, and an
  optional disk-backed calibration cache (``--calibrate``).
* ``route``      -- run the shard router (:mod:`repro.router`): spawn
  ``--shards N`` serve processes (or front ``--upstream`` ones) behind
  one address, with consistent-hash batch affinity, health ejection,
  idempotent failover, and aggregated ``/metrics``/``/stats``.

Input is a text file (or stdin with ``-``); the alphabet defaults to the
distinct characters of the input with maximum-likelihood probabilities,
or is given explicitly with ``--alphabet``/``--probs``.  Output is
human-readable by default, JSON with ``--json``.  Every mining command
accepts ``--backend`` to pick a scan kernel (``native`` compiled-C
default, ``numpy`` vectorised, ``python`` reference -- identical
results, see :mod:`repro.kernels`); the ``REPRO_BACKEND`` environment
variable sets the session-wide default.  On a host with no C compiler
(and no cached artifact) ``native`` serves the bit-identical numpy
fallback; ``serve`` reports it on ``/healthz``, ``/stats`` and the
``repro_backend_fallback_total`` metric.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.core.minlength import find_mss_min_length
from repro.core.model import BernoulliModel
from repro.core.mss import find_mss
from repro.core.results import SignificantSubstring
from repro.core.threshold import find_above_threshold
from repro.core.topt import find_top_t
from repro.service.batcher import DEFAULT_BATCH_DOCS

__all__ = ["main", "build_parser"]


def _read_text(path: str) -> str:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    return _chomp(text)


def _chomp(text: str) -> str:
    """Drop a single trailing newline, nothing else.

    Stripping whitespace wholesale would silently delete meaningful
    leading/trailing symbols -- an anomaly at the very start or end of
    the file is exactly what a miner must not lose.
    """
    if text.endswith("\r\n"):
        return text[:-2]
    if text.endswith(("\n", "\r")):
        return text[:-1]
    return text


def _parse_probs(symbols: list, probs: str) -> list[float]:
    """Parse a ``--probs`` CSV and check it matches the alphabet length."""
    try:
        values = [float(x) for x in probs.split(",")]
    except ValueError:
        raise SystemExit(
            f"--probs must be comma-separated numbers, got {probs!r}"
        ) from None
    if len(values) != len(symbols):
        raise SystemExit(
            f"--probs has {len(values)} values but --alphabet has "
            f"{len(symbols)} symbols"
        )
    return values


def _build_model(text: str, alphabet: str | None, probs: str | None) -> BernoulliModel:
    if probs is not None and alphabet is None:
        raise SystemExit("--probs requires --alphabet")
    if alphabet is None:
        return BernoulliModel.from_string(text)
    symbols = list(alphabet)
    if probs is None:
        return BernoulliModel.from_string(text, alphabet=symbols, laplace=1.0)
    return BernoulliModel(symbols, _parse_probs(symbols, probs))


def _substring_payload(s: SignificantSubstring, text: str, preview: int = 60) -> dict:
    snippet = text[s.start : s.end]
    if len(snippet) > preview:
        snippet = snippet[: preview - 3] + "..."
    return {
        "start": s.start,
        "end": s.end,
        "length": s.length,
        "chi_square": round(s.chi_square, 6),
        "p_value": s.p_value,
        "counts": list(s.counts),
        "preview": snippet,
    }


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return
    def render(entry: dict) -> str:
        return (
            f"  [{entry['start']}, {entry['end']})  len={entry['length']}"
            f"  X2={entry['chi_square']:.4f}  p={entry['p_value']:.3g}"
            f"  {entry['preview']!r}"
        )
    print(f"n={payload['n']}  k={payload['k']}  evaluated={payload['evaluated']}")
    for entry in payload["substrings"]:
        print(render(entry))


_BACKEND_HELP = (
    "kernel backend: 'native' (compiled C, default; falls back to numpy "
    "without a compiler), 'numpy' (vectorised) or 'python' (reference); "
    "results are identical (env: REPRO_BACKEND)"
)


def _at_least(bound):
    return (lambda value: value >= bound, f">= {bound}")


#: The flags ``serve`` and ``route`` share, in ``--help`` order:
#: ``(flag, argparse options, forwarded, check)``.  ``route --shards``
#: passes every *forwarded* flag on to each ``serve`` child
#: (:func:`_shard_serve_args`); ``check`` is ``(predicate, rule)`` for
#: a value that is set, refused as ``"<flag> must be <rule>"``.
_SERVICE_FLAGS = (
    ("--alphabet", dict(
        help="the service's default alphabet, e.g. 'ab' (requests may "
             "override with their own; required by serve and by "
             "route --shards)",
    ), True, None),
    ("--probs", dict(
        help="comma-separated null probabilities matching --alphabet "
             "(default: uniform)",
    ), True, None),
    ("--workers", dict(
        type=int, default=1,
        help="mining threads on the native kernels, each keeping four "
             "scans in flight (default 1: the service's own mine "
             "thread; a numpy or python backend mines on one thread)",
    ), True, _at_least(1)),
    ("--batch-docs", dict(
        type=int, default=DEFAULT_BATCH_DOCS, metavar="N",
        help="micro-batch target: concurrent requests coalesce into "
             "batches of up to N documents",
    ), True, _at_least(1)),
    ("--max-pending", dict(
        type=int, default=1024, metavar="DOCS",
        help="backpressure bound on queued documents; beyond it requests "
             "get 429 + Retry-After",
    ), True, _at_least(1)),
    ("--tenant-fair-share", dict(
        type=float, default=1.0, metavar="FRACTION",
        help="fraction of --max-pending any one tenant (null model) may "
             "hold queued; beyond it that tenant gets 429 while others "
             "keep being admitted (default 1.0 = no per-tenant cap)",
    ), True, (lambda value: 0.0 < value <= 1.0, "in (0, 1]")),
    ("--default-timeout-ms", dict(
        type=int, default=None, metavar="MS",
        help="deadline applied to requests that do not send their own "
             "timeout_ms; expired requests are answered 504 "
             "(default: no deadline)",
    ), True, _at_least(1)),
    ("--drain-timeout", dict(
        type=float, default=10.0, metavar="SECONDS",
        help="how long shutdown waits for in-flight requests while new "
             "ones are refused with 503; route waits this long for each "
             "stage of its shard-by-shard drain (default 10s)",
    ), False, _at_least(0)),
    ("--correction", dict(
        choices=["none", "bonferroni", "bh"], default="bh",
        help="default per-request multiple-testing correction",
    ), True, None),
    ("--alpha", dict(
        type=float, default=0.05,
        help="default per-request significance level",
    ), True, None),
    ("--calibrate", dict(
        action="store_true",
        help="Monte-Carlo family-wise p-values via a disk-backed "
             "calibration cache (warm restarts skip the simulation)",
    ), True, None),
    ("--trials", dict(
        type=int, default=100,
        help="Monte-Carlo trials per calibration bucket",
    ), True, None),
    ("--seed", dict(
        type=int, default=0, help="calibration random seed",
    ), True, None),
    ("--cache-dir", dict(
        default=None,
        help="calibration store directory (default: "
             "$XDG_CACHE_HOME/repro-mss or ~/.cache/repro-mss)",
    ), True, None),
    ("--calib-cache-entries", dict(
        type=int, default=None, metavar="N",
        help="LRU bound on in-memory calibration distributions; evicted "
             "entries re-load from disk (--calibrate's store) or "
             "re-simulate bit-identically (default: unbounded)",
    ), True, _at_least(1)),
    ("--log-format", dict(
        choices=["text", "json"], default="text",
        help="structured log output: human-readable text or JSON lines "
             "on stderr",
    ), True, None),
    ("--log-level", dict(
        choices=["debug", "info", "warning", "error"], default="info",
        help="minimum level for structured log events (access logs are "
             "'info')",
    ), True, None),
    ("--trace-sample", dict(
        type=float, default=1.0, metavar="RATE",
        help="fraction of request traces recorded (head sampling, "
             "deterministic on the trace id so router and shards agree; "
             "errors and slow requests are always kept; default 1.0)",
    ), True, (lambda value: 0.0 <= value <= 1.0, "in [0, 1]")),
    ("--trace-log", dict(
        default=None, metavar="PATH",
        help="append every kept trace tree to PATH as JSON lines (route: "
             "the router's own; GET /trace/<id> assembles the shards')",
    ), False, None),
    ("--slo", dict(
        default=None, metavar="SPEC",
        help="enforce latency/error objectives on /mine, e.g. "
             "'p99:250ms,errors:0.1%%'; multi-window burn rates render "
             "on /metrics and a fast burn sets slo_fast_burn on /healthz",
    ), True, None),
    ("--backend", dict(default=None, help=_BACKEND_HELP), True, None),
)


def _add_service_flags(parser, *, alphabet_required: bool) -> None:
    """Add every :data:`_SERVICE_FLAGS` row to ``parser``."""
    for flag, options, _, _ in _SERVICE_FLAGS:
        if flag == "--alphabet":
            options = dict(options, required=alphabet_required)
        parser.add_argument(flag, **options)


def _check_service_flags(args: argparse.Namespace) -> None:
    """Refuse out-of-range :data:`_SERVICE_FLAGS` values (SystemExit)."""
    for flag, _, _, check in _SERVICE_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if check is not None and value is not None and not check[0](value):
            raise SystemExit(f"{flag} must be {check[1]}")
    if args.calibrate and args.trials < 10:
        raise SystemExit("--trials must be >= 10 for a usable Monte-Carlo "
                         "null distribution")
    if args.slo is not None:
        from repro.obs.slo import parse_slo_spec

        try:
            parse_slo_spec(args.slo)
        except ValueError as exc:
            raise SystemExit(f"--slo: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-mss",
        description="Mine statistically significant substrings (chi-square).",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="input text file, or - for stdin")
        p.add_argument("--alphabet", help="explicit alphabet, e.g. 'ab'")
        p.add_argument(
            "--probs",
            help="comma-separated null probabilities matching --alphabet",
        )
        add_backend(p)

    def add_backend(p: argparse.ArgumentParser) -> None:
        p.add_argument("--backend", default=None, help=_BACKEND_HELP)

    mss = sub.add_parser("mss", help="most significant substring (Problem 1)")
    common(mss)

    top = sub.add_parser("top", help="top-t substrings (Problem 2)")
    common(top)
    top.add_argument("-t", type=int, default=10, help="how many substrings")

    threshold = sub.add_parser(
        "threshold", help="substrings with X2 above a threshold (Problem 3)"
    )
    common(threshold)
    threshold.add_argument("--alpha", type=float, required=True, help="X2 threshold")
    threshold.add_argument(
        "--limit", type=int, default=1000, help="cap on reported substrings"
    )

    minlength = sub.add_parser(
        "minlength", help="MSS among substrings of a minimum length (Problem 4)"
    )
    common(minlength)
    minlength.add_argument(
        "--min-length", type=int, required=True, help="inclusive length floor"
    )

    calibrate = sub.add_parser(
        "calibrate",
        help="Monte-Carlo critical value of X2max (family-wise threshold)",
    )
    calibrate.add_argument("-n", type=int, required=True, help="string length")
    calibrate.add_argument("-k", type=int, default=2, help="alphabet size (<= 26)")
    calibrate.add_argument("--alpha", type=float, default=0.05,
                           help="family-wise significance level")
    calibrate.add_argument("--trials", type=int, default=100,
                           help="Monte-Carlo trials")
    calibrate.add_argument("--seed", type=int, default=0, help="random seed")
    add_backend(calibrate)

    stream = sub.add_parser(
        "stream", help="online MSS over a stream (bounded memory)"
    )
    common(stream)
    stream.add_argument("--chunk", type=int, default=4096,
                        help="symbols dropped per flush")
    stream.add_argument("--overlap", type=int, default=512,
                        help="symbols retained across flushes "
                             "(exact detection up to this length)")

    batch = sub.add_parser(
        "batch",
        help="mine a corpus of documents concurrently (repro.engine)",
    )
    batch.add_argument(
        "input",
        help="directory of text files, a file with one document per line, "
             "or - for one document per stdin line",
    )
    batch.add_argument(
        "--problem",
        choices=["mss", "top", "threshold", "minlength"],
        default="mss",
        help="which of the paper's problems to run per document",
    )
    batch.add_argument("-t", type=int, default=10,
                       help="top-t size (--problem top)")
    batch.add_argument("--threshold", type=float, default=0.0,
                       help="X2 cut-off (--problem threshold)")
    batch.add_argument("--min-length", type=int, default=1,
                       help="length floor (--problem minlength)")
    batch.add_argument("--limit", type=int, default=1000,
                       help="cap on reported substrings per document")
    batch.add_argument("--workers", type=int, default=None,
                       help="mining and calibration threads on the native "
                            "kernels, each running four scans in flight "
                            "(default: one per usable CPU; 1 = the calling "
                            "thread; other backends mine on one thread)")
    batch.add_argument(
        "--correction",
        choices=["none", "bonferroni", "bh"],
        default="bh",
        help="multiple-testing correction across documents",
    )
    batch.add_argument("--alpha", type=float, default=0.05,
                       help="corpus-level significance level")
    batch.add_argument(
        "--calibrate",
        action="store_true",
        help="Monte-Carlo family-wise p-values (cached per length bucket) "
             "instead of asymptotic chi-square p-values",
    )
    batch.add_argument("--trials", type=int, default=100,
                       help="Monte-Carlo trials per calibration bucket")
    batch.add_argument("--seed", type=int, default=0,
                       help="calibration random seed")
    batch.add_argument("--alphabet", help="explicit shared alphabet, e.g. 'ab'")
    batch.add_argument(
        "--probs",
        help="comma-separated null probabilities matching --alphabet",
    )
    add_backend(batch)

    serve = sub.add_parser(
        "serve",
        help="run the async mining service (repro.service)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="bind port (0 = ephemeral; default 8765)")
    _add_service_flags(serve, alphabet_required=True)

    route = sub.add_parser(
        "route",
        help="run the shard router over N serve processes (repro.router)",
    )
    route.add_argument("--host", default="127.0.0.1",
                       help="router bind address (default 127.0.0.1)")
    route.add_argument("--port", type=int, default=8799,
                       help="router bind port (0 = ephemeral; default 8799)")
    fleet = route.add_mutually_exclusive_group(required=True)
    fleet.add_argument(
        "--shards",
        type=int,
        metavar="N",
        help="spawn N owned `serve --port 0` shard processes (drained "
             "shard-by-shard on shutdown)",
    )
    fleet.add_argument(
        "--upstream",
        metavar="HOST:PORT,...",
        help="front already-running services instead of spawning "
             "(comma-separated addresses; they outlive the router)",
    )
    route.add_argument(
        "--replicas",
        type=int,
        default=128,
        help="virtual nodes per shard on the consistent-hash ring "
             "(default 128)",
    )
    route.add_argument(
        "--health-interval-ms",
        type=float,
        default=500.0,
        metavar="MS",
        help="/healthz sweep period; dead or degraded shards are ejected "
             "from the ring and rejoin when they recover (default 500)",
    )
    route.add_argument(
        "--fail-after",
        type=int,
        default=2,
        metavar="N",
        help="consecutive failed probes before a shard is ejected as "
             "dead (default 2)",
    )
    _add_service_flags(
        route.add_argument_group(
            "service flags",
            "the serve flags; with --shards, every one but --drain-timeout "
            "and --trace-log is passed on to each spawned shard, and the "
            "router itself uses --drain-timeout, --trace-log, "
            "--trace-sample and the log flags",
        ),
        alphabet_required=False,
    )

    generate = sub.add_parser("generate", help="emit a synthetic string")
    generate.add_argument(
        "kind",
        choices=["null", "geometric", "zipf", "markov", "correlated"],
        help="generator family",
    )
    generate.add_argument("-n", type=int, default=1000, help="string length")
    generate.add_argument("-k", type=int, default=2, help="alphabet size (<= 26)")
    generate.add_argument("--seed", type=int, default=0, help="random seed")
    generate.add_argument(
        "--same-prob",
        type=float,
        default=0.5,
        help="correlated generator: probability of repeating the last symbol",
    )

    # Accept --json after the subcommand too (`repro-mss batch ... --json`).
    # SUPPRESS keeps the top-level value when the flag is absent here --
    # a plain default would clobber a --json given before the subcommand.
    for subparser in (mss, top, threshold, minlength, calibrate, stream,
                      batch, serve, route, generate):
        subparser.add_argument(
            "--json",
            action="store_true",
            default=argparse.SUPPRESS,
            help=argparse.SUPPRESS,
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if getattr(args, "backend", None) is not None:
        from repro.kernels import get_backend

        try:
            get_backend(args.backend)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None

    if args.command == "generate":
        return _run_generate(args)
    if args.command == "calibrate":
        return _run_calibrate(args)
    if args.command == "batch":
        return _run_batch(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "route":
        return _run_route(args)

    text = _read_text(args.file)
    if not text:
        raise SystemExit("input is empty")
    if args.alphabet is None and len(set(text)) < 2:
        raise SystemExit(
            "input uses fewer than 2 distinct symbols; there is nothing to "
            "mine (pass --alphabet to score it against a wider alphabet)"
        )
    model = _build_model(text, args.alphabet, args.probs)

    if args.command == "mss":
        result = find_mss(text, model, backend=args.backend)
        substrings = [result.best]
        stats = result.stats
    elif args.command == "stream":
        from repro.extensions.streaming import StreamingMSS

        miner = StreamingMSS(model, chunk=args.chunk, overlap=args.overlap,
                             backend=args.backend)
        miner.feed(text)
        best = miner.finish()
        payload = {
            "n": miner.symbols_seen,
            "k": model.k,
            "evaluated": miner.flushes,
            "skipped": 0,
            "elapsed_seconds": 0.0,
            "exact_length_limit": miner.exact_length_limit,
            "substrings": [_substring_payload(best, text)],
        }
        _emit(payload, args.json)
        return 0
    elif args.command == "top":
        result = find_top_t(text, model, args.t, backend=args.backend)
        substrings = result.substrings
        stats = result.stats
    elif args.command == "threshold":
        result = find_above_threshold(
            text, model, args.alpha, limit=args.limit, backend=args.backend
        )
        substrings = result.substrings
        stats = result.stats
    else:  # minlength
        result = find_mss_min_length(
            text, model, args.min_length, backend=args.backend
        )
        substrings = [result.best]
        stats = result.stats

    payload = {
        "n": stats.n,
        "k": model.k,
        "evaluated": stats.substrings_evaluated,
        "skipped": stats.positions_skipped,
        "elapsed_seconds": stats.elapsed_seconds,
        "substrings": [_substring_payload(s, text) for s in substrings],
    }
    _emit(payload, args.json)
    return 0


def _read_corpus(source: str) -> tuple[list[str], list[str]]:
    """Load a corpus as (doc_ids, texts).

    A directory yields one document per (sorted) regular file; anything
    else is read as one document per line (``-`` reads stdin).  Empty
    documents are dropped -- there is nothing to mine in them.
    """
    import os

    ids: list[str] = []
    texts: list[str] = []
    if source != "-" and os.path.isdir(source):
        for name in sorted(os.listdir(source)):
            path = os.path.join(source, name)
            if not os.path.isfile(path):
                continue
            with open(path, encoding="utf-8") as handle:
                text = _chomp(handle.read())
            if text:
                ids.append(name)
                texts.append(text)
    else:
        if source == "-":
            lines = sys.stdin.read().splitlines()
        else:
            with open(source, encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        for number, line in enumerate(lines, start=1):
            if line:
                ids.append(f"line-{number:04d}")
                texts.append(line)
    return ids, texts


def _run_batch(args: argparse.Namespace) -> int:
    from repro.engine import (
        CalibrationCache,
        CorpusEngine,
        JobSpec,
        ThreadExecutor,
    )

    ids, texts = _read_corpus(args.input)
    if not texts:
        raise SystemExit("corpus is empty")
    if args.workers is not None and args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    if args.calibrate and args.trials < 10:
        raise SystemExit("--trials must be >= 10 for a usable Monte-Carlo "
                         "null distribution")

    if args.alphabet is None and args.probs is not None:
        raise SystemExit("--probs requires --alphabet")
    if args.alphabet is None and len({s for text in texts for s in text}) < 2:
        raise SystemExit("corpus uses fewer than 2 distinct symbols; "
                         "there is nothing to mine")
    model = _build_model("".join(texts), args.alphabet, args.probs)

    spec = JobSpec(
        problem=args.problem,
        t=args.t,
        threshold=args.threshold,
        min_length=args.min_length,
        limit=args.limit,
        backend=args.backend,
    )
    engine = CorpusEngine(
        executor=ThreadExecutor(args.workers),
        calibration=(
            CalibrationCache(
                trials=args.trials, seed=args.seed, backend=args.backend
            )
            if args.calibrate
            else None
        ),
        correction=args.correction,
        alpha=args.alpha,
    )
    with engine:
        result = engine.run_texts(texts, model, spec, ids=ids)

    if args.json:
        json.dump(result.payload(), sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0

    print(
        f"documents={len(result)}  symbols={result.stats.n}  "
        f"executor={result.executor}x{result.workers}  "
        f"correction={result.correction}  alpha={result.alpha}  "
        f"significant={result.n_significant}"
    )
    for doc, text in zip(result.documents, texts):
        best = doc.best
        flag = "*" if doc.significant else " "
        if best is None:
            print(f" {flag} {doc.doc_id}: no substring above the threshold")
            continue
        entry = _substring_payload(best, text)
        print(
            f" {flag} {doc.doc_id}: [{best.start}, {best.end})"
            f"  X2={best.chi_square:.4f}  p={doc.p_value:.3g}"
            f"  p_adj={doc.p_corrected:.3g}  {entry['preview']!r}"
        )
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    from repro.obs.log import configure as configure_logging
    from repro.service import DiskCalibrationCache, MiningService

    configure_logging(format=args.log_format, level=args.log_level)
    _check_service_flags(args)
    symbols = list(args.alphabet)
    if args.probs is None:
        model = BernoulliModel.uniform(symbols)
    else:
        model = BernoulliModel(symbols, _parse_probs(symbols, args.probs))

    calibration = (
        DiskCalibrationCache(
            args.cache_dir, trials=args.trials, seed=args.seed,
            backend=args.backend, max_entries=args.calib_cache_entries,
        )
        if args.calibrate
        else None
    )
    service = MiningService(
        model,
        workers=args.workers,
        batch_docs=args.batch_docs,
        max_pending_docs=args.max_pending,
        tenant_fair_share=args.tenant_fair_share,
        correction=args.correction,
        alpha=args.alpha,
        calibration=calibration,
        backend=args.backend,
        default_timeout_ms=args.default_timeout_ms,
        drain_timeout=args.drain_timeout,
        trace_sample=args.trace_sample,
        trace_log=args.trace_log,
        slo=args.slo,
    )
    cache_note = (
        f"  cache={calibration.cache_dir}" if calibration is not None else ""
    )

    def announce(bound):
        # Printed only once the socket is bound, so an ephemeral
        # --port 0 reports the port actually chosen.
        print(
            f"repro-mss serve: http://{bound[0]}:{bound[1]}  "
            f"workers={args.workers}  batch_docs={args.batch_docs}  "
            f"max_pending={args.max_pending}{cache_note}",
            flush=True,
        )

    service.run(args.host, args.port, on_bound=announce)
    return 0


def _shard_serve_args(args: argparse.Namespace) -> list[str]:
    """The ``serve`` argv each spawned shard runs with (after --port 0):
    every forwarded :data:`_SERVICE_FLAGS` flag that is set."""
    shard_args = []
    for flag, _, forwarded, _ in _SERVICE_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if not forwarded or value is None or value is False:
            continue
        shard_args.append(flag if value is True else f"{flag}={value}")
    return shard_args


def _run_route(args: argparse.Namespace) -> int:
    from repro.obs.log import configure as configure_logging
    from repro.router import RouterService, ShardProcess

    configure_logging(format=args.log_format, level=args.log_level)
    if args.replicas < 1:
        raise SystemExit("--replicas must be >= 1")
    if args.health_interval_ms <= 0:
        raise SystemExit("--health-interval-ms must be > 0")
    if args.fail_after < 1:
        raise SystemExit("--fail-after must be >= 1")
    _check_service_flags(args)

    processes: list[ShardProcess] = []
    upstreams: list[tuple[str, int]] = []
    if args.shards is not None:
        if args.shards < 1:
            raise SystemExit("--shards must be >= 1")
        if args.alphabet is None:
            raise SystemExit("--shards requires --alphabet (the spawned "
                             "shards' default model)")
        shard_args = _shard_serve_args(args)
        try:
            for index in range(args.shards):
                shard = ShardProcess(shard_args, name=f"shard-{index}")
                shard.start()
                processes.append(shard)
        except Exception:
            for shard in processes:
                shard.kill()
            raise
    else:
        for entry in args.upstream.split(","):
            host, _, port = entry.strip().rpartition(":")
            if not host or not port.isdigit():
                raise SystemExit(
                    f"--upstream entries must be host:port, got {entry!r}"
                )
            upstreams.append((host, int(port)))

    router = RouterService(
        upstreams or None,
        processes=processes or None,
        replicas=args.replicas,
        health_interval=args.health_interval_ms / 1000.0,
        fail_after=args.fail_after,
        drain_timeout=args.drain_timeout,
        trace_sample=args.trace_sample,
        trace_log=args.trace_log,
    )

    def announce(bound):
        shards = ", ".join(
            f"{name}={state.address[0]}:{state.address[1]}"
            for name, state in sorted(router.shards.items())
        )
        print(
            f"repro-mss route: http://{bound[0]}:{bound[1]}  "
            f"shards={len(router.shards)}  [{shards}]",
            flush=True,
        )

    try:
        router.run(args.host, args.port, on_bound=announce)
    finally:
        # router.stop() already drained owned shards; this is the
        # belt-and-braces reap for startup failures mid-run().
        for shard in processes:
            if shard.alive:
                shard.terminate(args.drain_timeout)
    return 0


def _run_calibrate(args: argparse.Namespace) -> int:
    from repro.analysis.calibration import mss_null_distribution

    if not 2 <= args.k <= 26:
        raise SystemExit("-k must be between 2 and 26")
    alphabet = "abcdefghijklmnopqrstuvwxyz"[: args.k]
    model = BernoulliModel.uniform(alphabet)
    distribution = mss_null_distribution(
        model, args.n, trials=args.trials, seed=args.seed,
        backend=args.backend,
    )
    payload = {
        "n": args.n,
        "k": args.k,
        "trials": args.trials,
        "alpha": args.alpha,
        "critical_value": distribution.critical_value(args.alpha),
        "mean_x2max": distribution.mean,
        "two_ln_n": distribution.two_ln_n,
    }
    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print(
            f"n={args.n} k={args.k} trials={args.trials}: reject at "
            f"X2max > {payload['critical_value']:.3f} "
            f"(alpha={args.alpha}; mean={payload['mean_x2max']:.2f}, "
            f"2 ln n={payload['two_ln_n']:.2f})"
        )
    return 0


def _run_generate(args: argparse.Namespace) -> int:
    from repro.generators import (
        MarkovChain,
        generate_correlated_binary,
        generate_null_string,
        paper_markov_chain,
    )

    if not 2 <= args.k <= 26:
        raise SystemExit("-k must be between 2 and 26")
    alphabet = "abcdefghijklmnopqrstuvwxyz"[: args.k]
    if args.kind == "null":
        model = BernoulliModel.uniform(alphabet)
        text = generate_null_string(model, args.n, seed=args.seed)
    elif args.kind == "geometric":
        model = BernoulliModel.geometric(alphabet)
        text = generate_null_string(model, args.n, seed=args.seed)
    elif args.kind == "zipf":
        model = BernoulliModel.harmonic(alphabet)
        text = generate_null_string(model, args.n, seed=args.seed)
    elif args.kind == "markov":
        chain: MarkovChain = paper_markov_chain(args.k)
        codes = chain.generate(args.n, seed=args.seed)
        text = "".join(alphabet[c] for c in codes)
    else:  # correlated
        bits = generate_correlated_binary(args.n, args.same_prob, seed=args.seed)
        text = "".join("ab"[b] for b in bits)
    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
