"""Corpus mining: many monitored streams, one verdict per stream.

The paper motivates substring mining with corpus-scale settings --
intrusion detection over many sessions, market monitoring over many
tickers.  This example runs that workload through the corpus engine:

1. build 40 synthetic "sessions" under one shared null model, three of
   them carrying planted bursts,
2. mine all of them in one ``CorpusEngine.run_texts`` call -- through
   the *batched* kernel path (``batch_docs``): on the numpy kernels
   each chunk of sessions becomes a single ``mine_batch`` wavefront
   instead of one scan per session (the CLI equivalent is
   ``repro-mss batch --batch-docs``); the default native kernels mine
   several sessions on the lane walker whatever ``batch_docs`` says,
3. replace each session's asymptotic p-value with a Monte-Carlo
   family-wise p-value (one cached simulation for the whole corpus),
4. apply Benjamini-Hochberg correction across sessions and report the
   survivors -- after checking the batched results are identical to the
   per-document path, just faster.

Run:  python examples/corpus_batch.py
"""

import time

from repro import BernoulliModel, CalibrationCache, CorpusEngine
from repro.generators import PlantedSegment, generate_with_planted

SESSIONS = 30
LENGTH = 400
PLANTED = {7: 0.95, 19: 0.90, 23: 0.92}  # session -> burst 'a'-probability

# Monte-Carlo p-values resolve no finer than 1 / (trials + 1), and
# Benjamini-Hochberg needs the 3rd-smallest p-value below
# alpha * 3 / SESSIONS = 0.005 -- so the trial count must comfortably
# exceed SESSIONS / alpha * rank sensitivity.  240 trials give a floor
# of 1/241 ~ 0.00415 < 0.005; with 60 trials every planted burst would
# be missed purely for lack of resolution.
TRIALS = 240


def build_corpus(model: BernoulliModel) -> list[str]:
    texts = []
    for session in range(SESSIONS):
        segments = []
        if session in PLANTED:
            segments.append(
                PlantedSegment(
                    start=LENGTH // 3,
                    length=60,
                    probabilities=(PLANTED[session], 1 - PLANTED[session]),
                )
            )
        codes = generate_with_planted(model, LENGTH, segments, seed=session)
        texts.append(model.decode_to_string(codes))
    return texts


def main() -> None:
    model = BernoulliModel.uniform("ab")
    corpus = build_corpus(model)
    ids = [f"session-{i:02d}" for i in range(SESSIONS)]

    # One Monte-Carlo simulation covers the whole corpus: every session
    # is 400 symbols, so they all share the 512-length bucket.  Warm it
    # up front so the timing comparison below measures mining only.
    calibration = CalibrationCache(trials=TRIALS, seed=123)
    calibration.distribution_for(model, LENGTH)
    engine = CorpusEngine(
        calibration=calibration, correction="bh", alpha=0.05, batch_docs=10
    )
    started = time.perf_counter()
    report = engine.run_texts(corpus, model, ids=ids)
    batched_seconds = time.perf_counter() - started

    # Same engine, batch size 1: one kernel call per document -- the
    # dispatch cost the batched path amortises.  Identical verdicts;
    # batch_docs is a pure throughput knob.
    started = time.perf_counter()
    per_doc = engine.run_texts(corpus, model, ids=ids, batch_docs=1)
    per_doc_seconds = time.perf_counter() - started
    assert [d.payload(include_timing=False) for d in report.documents] == [
        d.payload(include_timing=False) for d in per_doc.documents
    ], "batched and per-document mining must agree exactly"

    print(f"=== Corpus verdict ({SESSIONS} sessions, BH at alpha=0.05) ===")
    print(
        f"mining       batch_docs=10 {batched_seconds * 1e3:.0f} ms"
        f" vs one kernel call per document {per_doc_seconds * 1e3:.0f} ms"
        f" -- identical results"
    )
    print(
        f"scan work    {report.stats.substrings_evaluated} substrings evaluated "
        f"({100 * report.stats.fraction_skipped:.1f}% pruned)"
    )
    print(f"calibration  {calibration!r}")
    print(f"significant  {report.n_significant} sessions "
          f"(planted: {sorted(PLANTED)})")
    for doc in report.significant:
        best = doc.best
        print(
            f"  {doc.doc_id}  [{best.start:3d}, {best.end:3d})"
            f"  X2={best.chi_square:7.2f}  p={doc.p_value:.3g}"
            f"  p_adj={doc.p_corrected:.3g}"
        )

    flagged = {int(doc.doc_id.split("-")[1]) for doc in report.significant}
    missed = sorted(set(PLANTED) - flagged)
    false_alarms = sorted(flagged - set(PLANTED))
    print(f"missed: {missed or 'none'}   false alarms: {false_alarms or 'none'}")


if __name__ == "__main__":
    main()
