"""The disk-backed calibration store: warm restarts must cost zero trials."""

import json

import pytest

from repro.core.model import BernoulliModel
from repro.engine.calibration import CalibrationCache
from repro.service.store import DiskCalibrationCache, default_cache_dir


@pytest.fixture
def model():
    return BernoulliModel.uniform("ab")


def _no_simulation(monkeypatch):
    """Make any Monte-Carlo simulation a hard failure."""

    def boom(self, model, bucket, **kwargs):
        raise AssertionError(
            f"simulated (model k={model.k}, bucket={bucket}) despite a "
            f"populated disk cache"
        )

    monkeypatch.setattr(CalibrationCache, "_simulate", boom)


class TestDefaultDir:
    def test_respects_xdg_cache_home(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro-mss"

    def test_falls_back_to_home_cache(self, monkeypatch):
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        path = default_cache_dir()
        assert path.name == "repro-mss"
        assert path.parent.name == ".cache"


class TestColdPath:
    def test_miss_simulates_and_writes(self, model, tmp_path):
        cache = DiskCalibrationCache(tmp_path, trials=12, seed=1)
        distribution = cache.distribution_for(model, 50)
        assert distribution.trials == 12
        assert (cache.disk_misses, cache.disk_writes, cache.disk_hits) == (1, 1, 0)
        entry_file = cache.entry_path(model, 50)
        assert entry_file.exists()
        entry = json.loads(entry_file.read_text())
        assert entry["bucket"] == 64
        assert entry["samples"] == list(distribution.samples)

    def test_memory_tier_still_first(self, model, tmp_path):
        cache = DiskCalibrationCache(tmp_path, trials=12, seed=1)
        first = cache.distribution_for(model, 50)
        assert cache.distribution_for(model, 60) is first  # same bucket
        assert cache.hits == 1
        assert cache.disk_hits == 0  # never re-read once in memory


class TestWarmRestart:
    def test_restart_serves_from_disk_with_zero_trials(
        self, model, tmp_path, monkeypatch
    ):
        cold = DiskCalibrationCache(tmp_path, trials=12, seed=1)
        expected = cold.distribution_for(model, 50).samples

        _no_simulation(monkeypatch)
        warm = DiskCalibrationCache(tmp_path, trials=12, seed=1)
        distribution = warm.distribution_for(model, 50)
        assert distribution.samples == expected
        assert warm.disk_hits == 1
        assert warm.misses == 0

    def test_p_values_identical_across_restart(self, model, tmp_path, monkeypatch):
        cold = DiskCalibrationCache(tmp_path, trials=20, seed=2)
        p_cold = cold.p_value(model, 90, 11.5)
        _no_simulation(monkeypatch)
        warm = DiskCalibrationCache(tmp_path, trials=20, seed=2)
        assert warm.p_value(model, 90, 11.5) == p_cold

    def test_summary_reports_disk_tier(self, model, tmp_path):
        cache = DiskCalibrationCache(tmp_path, trials=12, seed=1)
        cache.distribution_for(model, 50)
        summary = cache.summary()
        json.dumps(summary)  # must stay JSON-ready for /stats
        assert summary["disk"]["writes"] == 1
        assert summary["disk"]["cache_dir"] == str(tmp_path)


class TestSafety:
    def test_corrupt_entry_is_resimulated_and_overwritten(self, model, tmp_path):
        cold = DiskCalibrationCache(tmp_path, trials=12, seed=1)
        expected = cold.distribution_for(model, 50).samples
        path = cold.entry_path(model, 50)
        path.write_text("{ not json")

        fresh = DiskCalibrationCache(tmp_path, trials=12, seed=1)
        assert fresh.distribution_for(model, 50).samples == expected
        assert fresh.disk_hits == 0  # the corrupt file was a miss
        assert fresh.disk_writes == 1  # ... and was healed
        assert json.loads(path.read_text())["samples"] == list(expected)

    def test_tampered_fingerprint_is_rejected(self, model, tmp_path):
        cold = DiskCalibrationCache(tmp_path, trials=12, seed=1)
        cold.distribution_for(model, 50)
        path = cold.entry_path(model, 50)
        entry = json.loads(path.read_text())
        entry["fingerprint"] = "0" * 64
        path.write_text(json.dumps(entry))
        fresh = DiskCalibrationCache(tmp_path, trials=12, seed=1)
        fresh.distribution_for(model, 50)
        assert fresh.disk_hits == 0  # mismatched entry never reused

    def test_configurations_never_share_entries(self, model, tmp_path):
        a = DiskCalibrationCache(tmp_path, trials=12, seed=1)
        b = DiskCalibrationCache(tmp_path, trials=14, seed=1)
        c = DiskCalibrationCache(tmp_path, trials=12, seed=9)
        paths = {
            cache.entry_path(model, 50) for cache in (a, b, c)
        }
        assert len(paths) == 3
        a.distribution_for(model, 50)
        assert b._read_entry(model, 64) is None  # a's entry is invisible to b

    def test_unwritable_directory_degrades_to_memory(self, model, tmp_path):
        blocked = tmp_path / "file-not-dir"
        blocked.write_text("occupied")
        cache = DiskCalibrationCache(blocked / "cache", trials=12, seed=1)
        distribution = cache.distribution_for(model, 50)  # must not raise
        assert distribution.trials == 12
        assert cache.disk_writes == 0


class TestLRUWithDiskTier:
    def test_evicted_entry_reloads_from_disk_without_simulation(
        self, model, tmp_path, monkeypatch
    ):
        """The in-memory LRU bound never costs a re-simulation here:
        the disk tier is unbounded, so an evicted entry comes back as a
        disk read with bit-identical samples."""
        cache = DiskCalibrationCache(tmp_path, trials=12, seed=1, max_entries=1)
        expected = cache.distribution_for(model, 50).samples  # bucket 64
        cache.distribution_for(model, 100)  # bucket 128 -> evicts 64
        assert len(cache) == 1
        assert cache.evictions == 1

        _no_simulation(monkeypatch)
        reloaded = cache.distribution_for(model, 50)
        assert reloaded.samples == expected
        assert cache.disk_hits == 1

    def test_memory_footprint_stays_bounded_across_many_buckets(self, model, tmp_path):
        cache = DiskCalibrationCache(tmp_path, trials=10, seed=0, max_entries=2)
        lengths = [30, 100, 300, 1000, 3000, 10_000]
        for n in lengths:
            cache.distribution_for(model, n)
        assert len(cache) == 2            # memory bounded
        assert cache.disk_writes == len(lengths)  # disk keeps everything
        assert cache.evictions == len(lengths) - 2
