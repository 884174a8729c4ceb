"""The thread tier as the library default, calibration included.

``CorpusEngine()`` mines on one thread per usable CPU and scores cold
Monte-Carlo calibrations on the same pool.  Neither may change a bit:
calibration samples at any thread count equal the serial ones on numpy
and native (uneven splits, fewer trials than threads, draws spanning
several chunks), persisted-cache fingerprints stay put, and a host
without a compiler mines and calibrates without ever starting a pool.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro.kernels.native_backend as native_module
import repro.kernels.numpy_backend as numpy_module
from repro.analysis.calibration import mss_null_distribution
from repro.core.model import BernoulliModel
from repro.engine import (
    CalibrationCache,
    CorpusEngine,
    JobSpec,
    ThreadExecutor,
    model_fingerprint,
)
from repro.generators import generate_null_string
from repro.kernels import ENV_VAR, get_backend, register_backend
from repro.kernels.native_backend import NativeBackend
from repro.service import MiningService, ServiceClient, ServiceThread

NATIVE = get_backend("native").resolved_name == "native"
needs_native = pytest.mark.skipif(
    not NATIVE,
    reason="native backend unavailable (no C compiler or cached "
           "artifact); calibration then scores on the calling thread",
)
BACKENDS = ["numpy", pytest.param("native", marks=needs_native)]
SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="module")
def model():
    return BernoulliModel.uniform("ab")


def _samples(backend, model, n, trials, seed, threads):
    """Raw ``simulate_x2max`` samples, scored on ``threads`` threads."""
    with ThreadExecutor(threads) as executor:
        return get_backend(backend).simulate_x2max(
            model, n, trials, seed, executor=executor
        )


class TestCalibrationParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_null_distribution_equals_serial(self, model, backend, threads):
        # 11 trials split unevenly over 2 and 4 threads.
        serial = mss_null_distribution(
            model, 300, trials=11, seed=4, backend=backend
        )
        with ThreadExecutor(threads) as executor:
            pooled = mss_null_distribution(
                model, 300, trials=11, seed=4, backend=backend,
                executor=executor,
            )
        assert pooled.samples == serial.samples

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_cache_equals_serial(self, backend, threads):
        model = BernoulliModel("acgt", [0.3, 0.2, 0.2, 0.3])
        serial = CalibrationCache(trials=13, seed=7, backend=backend)
        pooled = CalibrationCache(trials=13, seed=7, backend=backend)
        with ThreadExecutor(threads) as executor:
            got = pooled.distribution_for(model, 200, executor=executor)
        assert got.samples == serial.distribution_for(model, 200).samples

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("threads", [2, 4])
    def test_fewer_trials_than_threads(self, model, backend, threads):
        reference = get_backend("python").simulate_x2max(model, 120, 1, 9)
        assert _samples(backend, model, 120, 1, 9, threads) == reference
        reference = get_backend("python").simulate_x2max(model, 120, 3, 9)
        assert _samples(backend, model, 120, 3, 9, threads) == reference

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_draws_spanning_several_chunks(
        self, model, backend, threads, monkeypatch
    ):
        reference = _samples(backend, model, 150, 10, 5, 1)
        # Three trials per chunk: chunks of 3, 3, 3 and 1 rows, so the
        # last chunk holds fewer rows than there are threads.
        monkeypatch.setattr(numpy_module, "_CALIB_CHUNK_ELEMS", 151 * 2 * 3)
        assert _samples(backend, model, 150, 10, 5, threads) == reference

    @needs_native
    def test_stress_more_threads_than_cores(self, model):
        """4 threads x 20 cold keys on one pool with a short switch
        interval: every key's samples equal the serial ones."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadExecutor(4) as executor:
                for key in range(20):
                    n, trials = 40 + 37 * key, 10 + key % 7
                    assert _samples("native", model, n, trials, key, 1) == (
                        get_backend("native").simulate_x2max(
                            model, n, trials, key, executor=executor
                        )
                    ), key
                assert executor.started
        finally:
            sys.setswitchinterval(interval)

    def test_fingerprints_do_not_change(self):
        """Persisted caches written before the thread tier stay valid."""
        assert model_fingerprint(BernoulliModel.uniform("ab"), 100, 0) == (
            "8b9db6f20dd672e8f82e1e11e3824cd25385e8d76fc4db46a450650ab0811f55"
        )
        assert model_fingerprint(
            BernoulliModel("acgt", [0.3, 0.2, 0.2, 0.3]), 60, 7
        ) == "ff0d334928e313e7324dfe53632b8ce087dccbaeabbeef33e53b2cd73af37c44"


class TestPooledCalibration:
    @needs_native
    def test_native_chunks_score_on_the_engine_pool(self, model, monkeypatch):
        """One document mines on the calling thread; the cold key's
        chunk then scores on two lane calls on the engine's own pool,
        sharing one claim cursor, and the pool work is submitted from
        the caller's thread."""
        scored, submitters = [], []
        real_chunk = native_module._native_x2max_chunk
        real_map = ThreadExecutor.map

        def chunk_spy(sub, n, k, probabilities, cursor, out):
            scored.append(
                (threading.current_thread().name, len(sub), id(cursor))
            )
            return real_chunk(sub, n, k, probabilities, cursor, out)

        def map_spy(self, fn, items):
            submitters.append(threading.current_thread().name)
            return real_map(self, fn, items)

        monkeypatch.setattr(native_module, "_native_x2max_chunk", chunk_spy)
        monkeypatch.setattr(ThreadExecutor, "map", map_spy)
        serial = CorpusEngine(
            executor=ThreadExecutor(1),
            calibration=CalibrationCache(trials=11, seed=2),
        )
        expected = serial.run_texts(["ab" * 40], model).payload(
            include_timing=False
        )["results"]
        scored.clear()
        with CorpusEngine(
            executor=ThreadExecutor(2),
            calibration=CalibrationCache(trials=11, seed=2),
        ) as engine:
            result = engine.run_texts(["ab" * 40], model)
            assert engine.executor.started
        assert result.payload(include_timing=False)["results"] == expected
        assert [size for _, size, _ in scored] == [11, 11]
        assert len({cursor for _, _, cursor in scored}) == 1
        assert all(name.startswith("repro-miner") for name, _, _ in scored)
        assert submitters == [threading.current_thread().name]

    @needs_native
    def test_service_calibrates_from_its_mine_thread(self, model, monkeypatch):
        """A service's finalize runs on the batcher's mine thread, never
        inside a pool task, so pooled calibration cannot deadlock."""
        submitters = []
        real_map = ThreadExecutor.map

        def map_spy(self, fn, items):
            submitters.append(threading.current_thread().name)
            return real_map(self, fn, items)

        monkeypatch.setattr(ThreadExecutor, "map", map_spy)
        service = MiningService(
            model, workers=2, calibration=CalibrationCache(trials=10, seed=0)
        )
        with ServiceThread(service) as handle:
            with ServiceClient(*handle.address) as client:
                assert client.mine(text="ab" * 40)["calibrated"] is True
        assert submitters
        assert all(name.startswith("repro-mine_") for name in submitters)

    def test_gil_bound_backends_score_on_the_calling_thread(self, model):
        executor = ThreadExecutor(2)
        CorpusEngine(
            executor=executor,
            calibration=CalibrationCache(trials=10, seed=0, backend="numpy"),
        ).run_texts(["ab" * 30, "ba" * 30], model, JobSpec(backend="numpy"))
        assert executor.started is False


class TestDefaults:
    def test_engine_takes_every_usable_cpu(self):
        expected = (
            len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count()
        )
        engine = CorpusEngine()
        assert isinstance(engine.executor, ThreadExecutor)
        assert engine.executor.workers == expected
        assert engine.executor.started is False  # lazily started

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="no CPU affinity API"
    )
    def test_affinity_mask_is_respected(self):
        code = (
            "import os\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from repro import CorpusEngine\n"
            "print(CorpusEngine().executor.workers)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True, timeout=60,
        ).stdout
        assert out.strip() == "1"

    def test_compiler_less_host_never_starts_a_pool(
        self, model, fresh_cache, no_compiler, scratch_registry, monkeypatch
    ):
        monkeypatch.delenv(ENV_VAR, raising=False)
        register_backend(NativeBackend(), replace=True)
        texts = [generate_null_string(model, 90, seed=i) for i in range(5)]
        texts[2] = texts[2][:30] + "a" * 20 + texts[2][50:]
        engine = CorpusEngine(calibration=CalibrationCache(trials=10, seed=1))
        result = engine.run_texts(texts, model)
        reference = CorpusEngine(
            executor=ThreadExecutor(1),
            calibration=CalibrationCache(trials=10, seed=1, backend="python"),
        ).run_texts(texts, model, JobSpec(backend="python"))
        assert get_backend().resolved_name == "numpy"
        assert result.calibrated
        assert result.payload(include_timing=False)["results"] == (
            reference.payload(include_timing=False)["results"]
        )
        assert engine.executor.started is False
