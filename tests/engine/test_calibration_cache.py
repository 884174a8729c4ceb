"""Tests for the shared Monte-Carlo calibration cache."""

import json

import pytest

from repro.core.model import BernoulliModel
from repro.engine.calibration import (
    CalibrationCache,
    length_bucket,
    model_fingerprint,
)


@pytest.fixture
def model():
    return BernoulliModel.uniform("ab")


class TestLengthBucket:
    def test_powers_of_two_with_floor(self):
        assert length_bucket(1) == 64
        assert length_bucket(64) == 64
        assert length_bucket(65) == 128
        assert length_bucket(128) == 128
        assert length_bucket(129) == 256
        assert length_bucket(100_000) == 131072

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            length_bucket(0)


class TestCache:
    def test_same_bucket_shares_one_simulation(self, model):
        cache = CalibrationCache(trials=12, seed=0)
        first = cache.distribution_for(model, 30)
        second = cache.distribution_for(model, 64)
        assert second is first
        assert (cache.misses, cache.hits) == (1, 1)
        assert len(cache) == 1

    def test_different_buckets_are_distinct(self, model):
        cache = CalibrationCache(trials=12, seed=0)
        small = cache.distribution_for(model, 40)
        large = cache.distribution_for(model, 200)
        assert small is not large
        assert small.n == 64 and large.n == 256
        assert len(cache) == 2

    def test_different_models_are_distinct_keys(self, model):
        cache = CalibrationCache(trials=12, seed=0)
        cache.distribution_for(model, 40)
        cache.distribution_for(BernoulliModel("ab", [0.8, 0.2]), 40)
        assert len(cache) == 2

    def test_contents_independent_of_request_order(self, model):
        forward = CalibrationCache(trials=12, seed=5)
        forward.distribution_for(model, 50)
        forward.distribution_for(model, 200)
        backward = CalibrationCache(trials=12, seed=5)
        backward.distribution_for(model, 200)
        backward.distribution_for(model, 50)
        assert (
            forward.distribution_for(model, 50).samples
            == backward.distribution_for(model, 50).samples
        )
        assert (
            forward.distribution_for(model, 200).samples
            == backward.distribution_for(model, 200).samples
        )

    def test_p_value_is_conservative_for_shorter_documents(self, model):
        """Bucketing rounds n up, and X²max grows with n, so the cached
        p-value can only overstate the true one (never false confidence)."""
        cache = CalibrationCache(trials=20, seed=2)
        distribution = cache.distribution_for(model, 30)  # simulated at n=64
        # an X²max that would be middling for n=64 is at least as
        # unremarkable for the n=30 document
        assert cache.p_value(model, 30, distribution.mean) >= 1.0 / (20 + 1)

    def test_extreme_score_gets_minimal_p_value(self, model):
        cache = CalibrationCache(trials=15, seed=3)
        assert cache.p_value(model, 100, 1e9) == pytest.approx(1 / 16)

    def test_critical_value_matches_distribution(self, model):
        cache = CalibrationCache(trials=19, seed=4)
        direct = cache.distribution_for(model, 90).critical_value(0.1)
        assert cache.critical_value(model, 90, 0.1) == direct

    def test_summary_is_json_ready(self, model):
        import json

        cache = CalibrationCache(trials=12, seed=0)
        cache.p_value(model, 45, 3.0)
        summary = cache.summary()
        json.dumps(summary)  # must not raise
        assert summary["misses"] == 1
        assert summary["entries"][0]["bucket"] == 64

    def test_rejects_nonpositive_trials(self):
        with pytest.raises(ValueError):
            CalibrationCache(trials=0)


class TestLRUBound:
    """The ``max_entries`` LRU: bounded growth, observable evictions,
    and bit-identical answers after re-simulation."""

    def test_unbounded_by_default(self, model):
        cache = CalibrationCache(trials=10, seed=0)
        for n in (30, 100, 300, 1000, 3000):
            cache.distribution_for(model, n)
        assert len(cache) == 5
        assert cache.evictions == 0

    def test_cap_is_honored_and_evictions_counted(self, model):
        cache = CalibrationCache(trials=10, seed=0, max_entries=2)
        cache.distribution_for(model, 30)    # bucket 64
        cache.distribution_for(model, 100)   # bucket 128
        assert len(cache) == 2 and cache.evictions == 0
        cache.distribution_for(model, 300)   # bucket 512 -> evicts 64
        assert len(cache) == 2
        assert cache.evictions == 1
        buckets = {bucket for _, bucket in cache}
        assert buckets == {128, 512}

    def test_recency_is_refreshed_on_hit(self, model):
        """A hit moves the entry to the back of the eviction order, so
        the *least recently used* entry goes, not the oldest insert."""
        cache = CalibrationCache(trials=10, seed=0, max_entries=2)
        cache.distribution_for(model, 30)    # bucket 64 (oldest insert)
        cache.distribution_for(model, 100)   # bucket 128
        cache.distribution_for(model, 30)    # touch 64
        cache.distribution_for(model, 300)   # evicts 128, not 64
        assert {bucket for _, bucket in cache} == {64, 512}

    def test_evicted_entry_resimulates_bit_identically(self, model):
        cache = CalibrationCache(trials=15, seed=7, max_entries=1)
        original = cache.distribution_for(model, 30).samples
        cache.distribution_for(model, 100)   # evicts bucket 64
        assert cache.evictions == 1
        misses_before = cache.misses
        again = cache.distribution_for(model, 30)
        assert again.samples == original     # eviction never changes answers
        assert cache.misses == misses_before + 1  # but it does cost a rerun

    def test_eviction_metric_moves(self, model):
        from repro.obs.metrics import MetricsRegistry

        cache = CalibrationCache(trials=10, seed=0, max_entries=1)
        cache.metrics = MetricsRegistry()
        cache.distribution_for(model, 30)
        cache.distribution_for(model, 100)
        cache.distribution_for(model, 300)
        counter = cache.metrics.counter("repro_calib_evictions_total")
        assert counter.value == cache.evictions == 2

    def test_summary_reports_bound_and_evictions(self, model):
        cache = CalibrationCache(trials=10, seed=0, max_entries=1)
        cache.distribution_for(model, 30)
        cache.distribution_for(model, 100)
        summary = cache.summary()
        assert summary["max_entries"] == 1
        assert summary["evictions"] == 1
        json.dumps(summary)  # still JSON-ready

    def test_rejects_nonpositive_max_entries(self):
        with pytest.raises(ValueError):
            CalibrationCache(trials=10, max_entries=0)


class TestFingerprint:
    def test_stable_and_parameter_sensitive(self, model):
        base = model_fingerprint(model, 100, 0)
        assert base == model_fingerprint(BernoulliModel.uniform("ab"), 100, 0)
        assert base != model_fingerprint(model, 101, 0)
        assert base != model_fingerprint(model, 100, 1)
        assert base != model_fingerprint(BernoulliModel("ab", [0.6, 0.4]), 100, 0)
        # alphabet order fixes symbol codes, so it must change the key
        assert base != model_fingerprint(BernoulliModel.uniform("ba"), 100, 0)

    def test_non_string_symbols_rejected(self):
        model = BernoulliModel.uniform([0, 1])
        with pytest.raises(TypeError, match="string symbols"):
            model_fingerprint(model, 100, 0)
