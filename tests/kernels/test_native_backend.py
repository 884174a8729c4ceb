"""The native backend's lifecycle: compile cache, fallback ladder, logs.

Parity of the *results* lives in the shared suites
(``test_backend_parity.py`` etc., parametrized over ``ACCEL_BACKENDS``);
this file tests the machinery around them -- a forced compile failure
degrading to numpy with a structured warning, artifact reuse without a
compiler (the worker-after-fork story), corrupt-artifact demotion,
backend-independent calibration fingerprints, the registry's typo
hint, ``native`` as the default a fresh interpreter resolves, the
lane step it reports (``-DREPRO_SCALAR_LANES`` builds the scalar one),
and that a kernel which builds never fails its self-check.
Everything here runs on compiler-less hosts too: the fallback path is
exactly what is under test.
"""

from __future__ import annotations

import io
import json
import inspect
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.kernels.native_backend as native_backend
from repro.core.counts import PrefixCountIndex
from repro.core.model import BernoulliModel
from repro.engine.calibration import CalibrationCache, model_fingerprint
from repro.engine.jobs import JobSpec
from repro.generators import generate_null_string
from repro.kernels import get_backend
from repro.kernels.native_backend import NativeBackend
from repro.obs import log as obs_log
from tests.kernels.conftest import ACCEL_BACKENDS, _native_ready


@pytest.fixture
def warning_stream(monkeypatch):
    """Capture structured warnings as JSON lines."""
    buffer = io.StringIO()
    monkeypatch.setattr(obs_log._CONFIG, "format", "json")
    monkeypatch.setattr(obs_log._CONFIG, "level", "warning")
    monkeypatch.setattr(obs_log._CONFIG, "stream", buffer)
    return buffer


def _cpu_flags() -> set[str] | None:
    """The CPU's feature flags from ``/proc/cpuinfo``, or ``None`` on an
    OS without it."""
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("flags"):
            return set(line.partition(":")[2].split())
    return None


def _small_case():
    model = BernoulliModel.uniform("ab")
    text = generate_null_string(model, 120, seed=3)
    return model, PrefixCountIndex(model.encode(text), model.k)


class TestFallbackLadder:
    def test_no_compiler_degrades_to_numpy_with_warning(
        self, fresh_cache, no_compiler, warning_stream
    ):
        backend = NativeBackend()
        model, index = _small_case()
        result = backend.scan_mss(index, model)
        # numpy semantics, bit for bit -- callers never see the failure
        assert result == get_backend("numpy").scan_mss(index, model)
        assert backend.resolved_name == "numpy"
        assert not backend.is_native
        assert "no C compiler" in backend.fallback_reason
        assert backend.lane_step is None
        events = [
            json.loads(line) for line in warning_stream.getvalue().splitlines()
        ]
        fallback = [e for e in events if e["event"] == "native_fallback"]
        assert len(fallback) == 1  # one structured warning, not one per call
        assert fallback[0]["level"] == "warning"
        assert fallback[0]["resolved"] == "numpy"
        assert "no C compiler" in fallback[0]["reason"]

    def test_fallback_covers_every_method(
        self, fresh_cache, no_compiler, warning_stream
    ):
        from repro.engine.jobs import JobSpec

        backend = NativeBackend()
        numpy = get_backend("numpy")
        model, index = _small_case()
        assert backend.scan_top_t(index, model, 5) == numpy.scan_top_t(
            index, model, 5
        )
        assert backend.scan_threshold(
            index, model, 1.0, limit=3
        ) == numpy.scan_threshold(index, model, 1.0, limit=3)
        assert backend.scan_mss_min_length(
            index, model, 4
        ) == numpy.scan_mss_min_length(index, model, 4)
        assert backend.mine_batch(
            [index], model, JobSpec()
        ) == numpy.mine_batch([index], model, JobSpec())
        assert backend.simulate_x2max(
            model, 64, 4, 11
        ) == numpy.simulate_x2max(model, 64, 4, 11)

    def test_corrupt_artifact_degrades(
        self, fresh_cache, no_compiler, warning_stream
    ):
        artifact = native_backend._artifact_path()
        artifact.parent.mkdir(parents=True, exist_ok=True)
        artifact.write_bytes(b"not a shared library")
        backend = NativeBackend()
        model, index = _small_case()
        assert backend.scan_mss(index, model) == get_backend(
            "numpy"
        ).scan_mss(index, model)
        assert backend.resolved_name == "numpy"
        assert "native_fallback" in warning_stream.getvalue()


def test_a_built_kernel_passes_its_self_check():
    """Unguarded on purpose: a kernel that builds but fails its parity
    self-check resolves to numpy, so every test keyed on
    ``resolved_name == "native"`` skips -- this one fails instead.  A
    missing compiler stays a skip everywhere else."""
    reason = get_backend("native").fallback_reason or ""
    assert not reason.startswith("parity self-check failed"), reason


@pytest.mark.skipif(
    not _native_ready(), reason="needs a working C compiler"
)
class TestCompileCache:
    def test_artifact_is_cached_and_reused_without_compiler(
        self, fresh_cache, monkeypatch
    ):
        # First backend compiles into the fresh cache...
        first = NativeBackend()
        assert first.resolved_name == "native"
        artifact = native_backend._artifact_path()
        assert artifact.exists()
        # ...then a compiler-less process (a forked/spawned worker, or a
        # later session on a toolchain-free host) loads the same artifact.
        monkeypatch.setenv("CC", "/nonexistent-compiler")
        native_backend._LOAD_CACHE.pop(str(artifact), None)
        second = NativeBackend()
        assert second.resolved_name == "native"
        model, index = _small_case()
        assert second.scan_mss(index, model) == get_backend("python").scan_mss(
            index, model
        )

    def test_registered_backend_is_native(self):
        backend = get_backend("native")
        assert backend.name == "native"
        assert backend.resolved_name == "native"
        assert backend.fallback_reason is None

    @pytest.mark.skipif(
        bool(os.environ.get("CC", "").strip()),
        reason="a $CC wrapper may build the scalar lanes on purpose",
    )
    def test_lane_step_follows_the_cpu(self):
        step = get_backend("native").lane_step
        flags = _cpu_flags()
        if platform.machine().lower() not in ("x86_64", "amd64"):
            assert step == "scalar"
        elif flags is None:
            assert step in ("avx2", "scalar")
        else:
            assert step == ("avx2" if "avx2" in flags else "scalar")

    def test_scalar_lanes_build(self, fresh_cache, tmp_path, monkeypatch):
        """``-DREPRO_SCALAR_LANES`` (the seam CI uses to keep the scalar
        lanes tested on AVX2 hosts) builds the scalar step, which passes
        the self-check and matches the reference."""
        wrapper = tmp_path / "scalar-cc"
        wrapper.write_text(
            "#!/bin/sh\n"
            f'exec "{native_backend._find_compiler()}" '
            '-DREPRO_SCALAR_LANES "$@"\n'
        )
        wrapper.chmod(0o755)
        monkeypatch.setenv("CC", str(wrapper))
        backend = NativeBackend()
        assert backend.resolved_name == "native", backend.fallback_reason
        assert backend.lane_step == "scalar"
        model = BernoulliModel("acgt", [0.3, 0.2, 0.2, 0.3])
        rng = np.random.default_rng(8)
        indexes = [
            PrefixCountIndex(rng.integers(0, model.k, size=n), model.k)
            for n in (90, 0, 41, 7, 66, 12, 1)
        ]
        python = get_backend("python")
        for spec in (JobSpec(), JobSpec(problem="minlength", min_length=6)):
            assert backend.mine_batch(indexes, model, spec) == (
                python.mine_batch(indexes, model, spec)
            )
        assert backend.simulate_x2max(model, 70, 11, 4) == (
            get_backend("numpy").simulate_x2max(model, 70, 11, 4)
        )

    def test_env_var_selects_native(self, monkeypatch):
        from repro.kernels import ENV_VAR

        monkeypatch.setenv(ENV_VAR, "native")
        assert get_backend().name == "native"


#: Run in a fresh interpreter: resolve the default backend, then mine a
#: planted string with it and with the python reference.
_DEFAULT_PROBE = """
import dataclasses, json
from repro import BernoulliModel, find_mss, get_backend

def outcome(result):
    stats = dataclasses.asdict(result.stats)
    stats.pop("elapsed_seconds")
    return [dataclasses.asdict(result.best), stats]

backend = get_backend()
model = BernoulliModel.uniform("ab")
text = "ab" * 40 + "a" * 14 + "ba" * 40
print(json.dumps({
    "name": backend.name,
    "resolved": backend.resolved_name,
    "reason": backend.fallback_reason,
    "default": outcome(find_mss(text, model)),
    "python": outcome(find_mss(text, model, backend="python")),
}))
"""


def _probe_default(**env) -> dict:
    """Run :data:`_DEFAULT_PROBE` with no ``REPRO_BACKEND`` set."""
    child_env = {
        key: value for key, value in os.environ.items()
        if key != "REPRO_BACKEND"
    }
    child_env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    child_env.update(env)
    proc = subprocess.run(
        [sys.executable, "-c", _DEFAULT_PROBE],
        capture_output=True, text=True, env=child_env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestDefaultBackend:
    def test_fresh_interpreter_without_compiler_serves_numpy(self, tmp_path):
        report = _probe_default(
            CC="/nonexistent-compiler",
            REPRO_NATIVE_CACHE=str(tmp_path / "empty-cache"),
        )
        assert report["name"] == "native"
        assert report["resolved"] == "numpy"
        assert "no C compiler" in report["reason"]
        assert report["default"] == report["python"]

    @pytest.mark.skipif(
        not _native_ready(), reason="needs a working C compiler"
    )
    def test_fresh_interpreter_with_compiler_serves_native(self):
        report = _probe_default()
        assert report["name"] == "native"
        assert report["resolved"] == "native"
        assert report["reason"] is None
        assert report["default"] == report["python"]


class TestCalibrationFingerprints:
    def test_fingerprint_is_backend_independent(self):
        """Persisted calibration entries must be shareable across
        backends: the fingerprint hashes only (schema, alphabet,
        probabilities, trials, seed) -- no backend field exists to
        diverge on."""
        assert "backend" not in inspect.signature(
            model_fingerprint
        ).parameters
        model = BernoulliModel.uniform("ab")
        assert model_fingerprint(model, 50, 7) == model_fingerprint(
            model, 50, 7
        )

    @pytest.mark.parametrize("accel", ACCEL_BACKENDS)
    def test_caches_agree_across_backends(self, accel):
        model = BernoulliModel.uniform("ab")
        reference = CalibrationCache(trials=12, seed=3, backend="python")
        other = CalibrationCache(trials=12, seed=3, backend=accel)
        assert (
            other.distribution_for(model, 100).samples
            == reference.distribution_for(model, 100).samples
        )


class TestRegistryErrors:
    def test_typo_suggests_closest_backend(self):
        with pytest.raises(ValueError) as excinfo:
            get_backend("natve")
        message = str(excinfo.value)
        assert "unknown kernel backend 'natve'" in message
        assert "native" in message
        assert "did you mean 'native'?" in message

    def test_unrelated_name_lists_backends_without_guess(self):
        with pytest.raises(ValueError) as excinfo:
            get_backend("cuda")
        message = str(excinfo.value)
        assert "available:" in message
        assert "did you mean" not in message
