"""Tests for CorpusEngine: jobs, parity across executors, corrections."""

import json

import pytest

from repro.core.model import BernoulliModel
from repro.core.mss import find_mss
from repro.core.results import ScanStats
from repro.engine import (
    CalibrationCache,
    CorpusEngine,
    JobSpec,
    MiningJob,
    ThreadExecutor,
    run_job,
)
from repro.generators import generate_null_string


@pytest.fixture(scope="module")
def model():
    return BernoulliModel.uniform("ab")


def _corpus(model, count, length, seed=0):
    """Deterministic synthetic corpus with a planted burst every 7th doc."""
    texts = []
    for i in range(count):
        text = generate_null_string(model, length, seed=seed + i)
        if i % 7 == 0:
            middle = length // 2
            burst = min(20, length // 3)
            text = text[:middle] + "a" * burst + text[middle + burst:]
        texts.append(text)
    return texts


class TestJobSpec:
    def test_defaults_to_mss(self, model):
        substrings, stats, truncated = JobSpec().mine("ab" * 10 + "aaaa", model)
        assert len(substrings) == 1
        assert stats.n == 24
        assert truncated is False

    def test_top(self, model):
        substrings, _, _ = JobSpec(problem="top", t=5).mine("ab" * 20, model)
        assert len(substrings) == 5
        values = [s.chi_square for s in substrings]
        assert values == sorted(values, reverse=True)

    def test_top_t_capped_to_document_size(self, model):
        # t larger than n(n+1)/2 must not blow up on a tiny document
        # (the scanner only returns substrings beating its zero-seeded heap,
        # so "ab" yields its two X²=1 singletons, not the X²=0 whole string)
        substrings, _, _ = JobSpec(problem="top", t=1000).mine("ab", model)
        assert len(substrings) == 2

    def test_threshold_may_match_nothing(self, model):
        substrings, _, truncated = JobSpec(problem="threshold",
                                           threshold=50.0).mine("ab" * 10, model)
        assert substrings == []
        assert truncated is False

    def test_threshold_truncation_is_reported(self, model):
        substrings, _, truncated = JobSpec(
            problem="threshold", threshold=0.1, limit=3
        ).mine("ab" * 30 + "aaaa" + "ba" * 30, model)
        assert len(substrings) == 3
        assert truncated is True

    def test_minlength(self, model):
        substrings, _, _ = JobSpec(problem="minlength", min_length=10).mine(
            "ab" * 20 + "aaaa", model
        )
        assert substrings[0].length >= 10

    def test_minlength_floor_above_document_returns_nothing(self, model):
        # the floor is a constraint, not a suggestion: a too-short document
        # has no qualifying substring and must not be silently clamped
        substrings, stats, _ = JobSpec(problem="minlength",
                                       min_length=50).mine("ab" * 10, model)
        assert substrings == []
        assert stats.n == 20

    def test_unknown_problem_rejected(self):
        with pytest.raises(ValueError, match="unknown problem"):
            JobSpec(problem="episodes")

    @pytest.mark.parametrize(
        "kwargs",
        [dict(problem="top", t=0), dict(problem="threshold", threshold=-1.0),
         dict(problem="minlength", min_length=0)],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            JobSpec(**kwargs)


class TestRunJob:
    def test_result_shape(self, model):
        job = MiningJob("d", "ab" * 15 + "aaaaaa", JobSpec(), model)
        doc = run_job(job)
        assert doc.doc_id == "d"
        assert doc.n == 36
        assert doc.best.slice(job.text) == "aaaaaa" or doc.x2_max > 0
        assert doc.p_value == doc.best.p_value
        assert doc.p_corrected is None and doc.significant is None

    def test_empty_document_rejected(self, model):
        with pytest.raises(ValueError, match="empty"):
            MiningJob("d", "", JobSpec(), model)

    def test_threshold_no_match_p_value_one(self, model):
        job = MiningJob("d", "ab" * 10, JobSpec(problem="threshold",
                                                threshold=99.0), model)
        doc = run_job(job)
        assert doc.best is None
        assert doc.x2_max == 0.0
        assert doc.p_value == 1.0


class TestExecutorParity:
    """Acceptance criterion: thread-pool results byte-identical to serial
    on a >= 100-document corpus."""

    @pytest.fixture(scope="class")
    def corpus(self, model):
        return _corpus(model, count=104, length=60, seed=100)

    @pytest.fixture(scope="class")
    def serial_result(self, model, corpus):
        return CorpusEngine(executor=ThreadExecutor(1)).run_texts(corpus, model)

    def _canonical_bytes(self, result):
        return json.dumps(
            [doc.payload(include_timing=False) for doc in result.documents],
            sort_keys=True,
        ).encode()

    def test_thread_pool_byte_identical_to_serial(
        self, model, corpus, serial_result
    ):
        parallel = CorpusEngine(executor=ThreadExecutor(workers=4)).run_texts(
            corpus, model
        )
        assert self._canonical_bytes(parallel) == self._canonical_bytes(
            serial_result
        )

    def test_matches_direct_find_mss(self, model, corpus, serial_result):
        for text, doc in zip(corpus[:10], serial_result.documents[:10]):
            direct = find_mss(text, model).best
            assert doc.best.chi_square == direct.chi_square
            assert (doc.best.start, doc.best.end) == (direct.start, direct.end)


class TestCorpusRun:
    def test_preserves_job_order_and_ids(self, model):
        texts = ["ab" * 10, "ba" * 12, "abba" * 6]
        result = CorpusEngine().run_texts(texts, model, ids=["x", "y", "z"])
        assert [doc.doc_id for doc in result.documents] == ["x", "y", "z"]
        assert [doc.n for doc in result.documents] == [20, 24, 24]

    def test_aggregate_stats_merge_documents(self, model):
        texts = ["ab" * 10, "ba" * 15]
        result = CorpusEngine().run_texts(texts, model)
        assert result.stats.n == 50
        per_doc = ScanStats.merged(doc.stats for doc in result.documents)
        assert result.stats.substrings_evaluated == per_doc.substrings_evaluated
        assert result.stats.positions_skipped == per_doc.positions_skipped

    def test_correction_fields_filled(self, model):
        result = CorpusEngine(correction="bonferroni", alpha=0.01).run_texts(
            ["ab" * 30, "a" * 25 + "b" * 5], model
        )
        for doc in result.documents:
            assert doc.p_corrected is not None
            assert doc.significant is not None
            assert doc.p_corrected >= doc.p_value - 1e-12
        assert result.correction == "bonferroni"
        assert result.alpha == 0.01

    def test_bonferroni_more_conservative_than_none(self, model):
        texts = _corpus(model, count=12, length=50, seed=7)
        none = CorpusEngine(correction="none").run_texts(texts, model)
        bonf = CorpusEngine(correction="bonferroni").run_texts(texts, model)
        assert bonf.n_significant <= none.n_significant

    def test_per_run_override(self, model):
        engine = CorpusEngine(correction="none", alpha=0.05)
        result = engine.run_texts(["ab" * 10], model, correction="bh", alpha=0.2)
        assert result.correction == "bh"
        assert result.alpha == 0.2
        assert engine.correction == "none"  # engine default untouched

    def test_rejects_empty_corpus(self, model):
        with pytest.raises(ValueError, match="no jobs"):
            CorpusEngine().run([])

    def test_rejects_bad_correction_and_alpha(self, model):
        with pytest.raises(ValueError, match="unknown correction"):
            CorpusEngine(correction="holm")
        with pytest.raises(ValueError, match="alpha"):
            CorpusEngine(alpha=0.0)
        with pytest.raises(ValueError, match="ids"):
            CorpusEngine().run_texts(["ab"], model, ids=["a", "b"])

    def test_mixed_problems_in_one_run(self, model):
        jobs = [
            MiningJob("m", "ab" * 20, JobSpec(), model),
            MiningJob("t", "ab" * 20, JobSpec(problem="top", t=3), model),
            MiningJob("h", "ab" * 20, JobSpec(problem="threshold",
                                              threshold=1.0), model),
        ]
        result = CorpusEngine().run(jobs)
        assert len(result.documents[0].substrings) == 1
        assert len(result.documents[1].substrings) == 3
        assert all(s.chi_square > 1.0 for s in result.documents[2].substrings)

    def test_payload_round_trips_through_json(self, model):
        result = CorpusEngine().run_texts(["ab" * 10, "a" * 8 + "b" * 8], model)
        payload = json.loads(json.dumps(result.payload()))
        assert payload["documents"] == 2
        assert len(payload["results"]) == 2
        assert payload["results"][0]["substrings"][0]["chi_square"] >= 0


class TestCalibratedRun:
    def test_calibration_replaces_p_values(self, model):
        cache = CalibrationCache(trials=12, seed=1)
        texts = ["ab" * 40, "ba" * 40, "ab" * 30 + "a" * 20]
        result = CorpusEngine(calibration=cache).run_texts(texts, model)
        assert result.calibrated
        assert all(doc.p_value_kind == "calibrated" for doc in result.documents)
        # all three docs share the n=128 bucket: exactly one simulation
        assert cache.misses == 1
        assert cache.hits == 2
        assert result.calibration_summary["entries"][0]["bucket"] == 128

    def test_calibrated_p_values_resist_look_elsewhere(self, model):
        """Asymptotic p-values call null docs significant; calibrated ones
        don't (the whole point of family-wise calibration)."""
        texts = [generate_null_string(model, 120, seed=s) for s in range(8)]
        raw = CorpusEngine(correction="none").run_texts(texts, model)
        calibrated = CorpusEngine(
            calibration=CalibrationCache(trials=24, seed=2), correction="none",
        ).run_texts(texts, model)
        assert calibrated.n_significant <= raw.n_significant
        assert calibrated.n_significant <= 1  # null corpus: ~alpha * 8


class TestJobSpecBackend:
    """JobSpec carries the kernel backend name through to every scan."""

    def test_backend_in_repr_when_set(self):
        assert "backend='python'" in repr(JobSpec(backend="python"))
        assert "backend" not in repr(JobSpec())

    def test_non_string_backend_rejected(self):
        with pytest.raises(TypeError, match="registered backend name"):
            JobSpec(backend=object())

    def test_backend_spec_pickles(self, model):
        import pickle

        spec = JobSpec(problem="top", t=3, backend="python")
        job = MiningJob("d", "abba" * 10, spec, model)
        assert pickle.loads(pickle.dumps(job)).spec.backend == "python"

    @pytest.mark.parametrize("problem", ["mss", "top", "threshold", "minlength"])
    def test_backends_agree_through_the_engine(self, model, problem):
        texts = _corpus(model, 6, 150)
        results = {}
        for backend in ("python", "numpy"):
            spec = JobSpec(problem=problem, t=4, threshold=4.0,
                           min_length=3, backend=backend)
            outcome = CorpusEngine().run_texts(texts, model, spec)
            results[backend] = [
                doc.payload(include_timing=False) for doc in outcome.documents
            ]
        assert results["python"] == results["numpy"]


class TestMineFinalizeSplit:
    def test_run_equals_mine_then_finalize(self, model):
        texts = _corpus(model, 8, 120)
        jobs = [
            MiningJob(f"doc-{i}", text, JobSpec(), model)
            for i, text in enumerate(texts)
        ]
        whole = CorpusEngine().run(jobs)
        engine = CorpusEngine()
        documents = engine.mine_documents(jobs)
        split = engine.finalize(jobs, documents)
        assert json.dumps(
            [doc.payload(include_timing=False) for doc in split.documents],
            sort_keys=True,
        ) == json.dumps(
            [doc.payload(include_timing=False) for doc in whole.documents],
            sort_keys=True,
        )

    def test_finalize_scope_is_per_slice(self, model):
        """Finalizing a slice of a merged mining pass must equal running
        that slice alone -- the service micro-batcher's contract."""
        texts_a = _corpus(model, 5, 110, seed=40)
        texts_b = _corpus(model, 4, 90, seed=80)
        spec = JobSpec()
        jobs_a = [MiningJob(f"a-{i}", t, spec, model)
                  for i, t in enumerate(texts_a)]
        jobs_b = [MiningJob(f"b-{i}", t, spec, model)
                  for i, t in enumerate(texts_b)]
        engine = CorpusEngine()
        merged = engine.mine_documents(jobs_a + jobs_b)
        sliced = engine.finalize(jobs_b, merged[len(jobs_a):],
                                 correction="bonferroni", alpha=0.01)
        alone = CorpusEngine().run(jobs_b, correction="bonferroni", alpha=0.01)
        assert json.dumps(
            [doc.payload(include_timing=False) for doc in sliced.documents],
            sort_keys=True,
        ) == json.dumps(
            [doc.payload(include_timing=False) for doc in alone.documents],
            sort_keys=True,
        )

    def test_finalize_rejects_mismatched_lengths(self, model):
        jobs = [MiningJob("d", "ab" * 10, JobSpec(), model)]
        engine = CorpusEngine()
        documents = engine.mine_documents(jobs)
        with pytest.raises(ValueError, match="documents"):
            engine.finalize(jobs, documents * 2)

    def test_run_elapsed_includes_calibration_time(self, model):
        """run() wall time must cover finalize -- a cold Monte-Carlo
        simulation is usually the dominant cost of a calibrated run."""
        import time as time_module

        class SlowCache(CalibrationCache):
            def p_value(self, model, n, x2_max, **kwargs):
                time_module.sleep(0.02)
                return super().p_value(model, n, x2_max, **kwargs)

        engine = CorpusEngine(calibration=SlowCache(trials=10, seed=0))
        result = engine.run_texts(_corpus(model, 2, 80), model)
        assert result.elapsed_seconds >= 0.04  # 2 docs x 0.02s calibration
