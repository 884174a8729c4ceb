"""The service's kernel backend: resolved at start-up, fallbacks visible.

``native`` is the registry default.  :meth:`MiningService.start`
resolves it -- library load (compiling if needed) and the parity
self-check -- off the event loop and before binding, so none of that
lands on the first request.  On a host with no C compiler the service
serves the bit-identical numpy fallback and says so on ``/healthz``,
``/stats`` and ``repro_backend_fallback_total``, while ``status`` stays
``ok``: the router ejects any shard that is not ``ok``, and a
compiler-less fleet still answers correctly.
"""

import sys
from pathlib import Path

import pytest

import repro.kernels.native_backend as native_backend
from repro.core.model import BernoulliModel
from repro.kernels import ENV_VAR, register_backend
from repro.kernels.native_backend import NativeBackend
from repro.service import MiningService, ServiceClient, ServiceThread

_TOOLS = Path(__file__).resolve().parents[2] / "tools"
sys.path.insert(0, str(_TOOLS))
from check_metrics import check_exposition  # noqa: E402

MODEL = BernoulliModel.uniform("ab")
TEXT = "abab" + "a" * 12 + "baba"


@pytest.fixture
def fresh_native(scratch_registry, monkeypatch):
    """An unresolved :class:`NativeBackend` registered as ``"native"``
    and selected by default (``REPRO_BACKEND`` unset)."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    backend = NativeBackend()
    register_backend(backend, replace=True)
    return backend


def _fallback_total(scrape: str) -> float:
    for line in scrape.splitlines():
        if line.startswith("repro_backend_fallback_total "):
            return float(line.split()[1])
    raise AssertionError("repro_backend_fallback_total is not exposed")


def test_fallback_is_visible_but_keeps_status_ok(
    fresh_cache, no_compiler, fresh_native
):
    with ServiceThread(MiningService(MODEL)) as handle:
        with ServiceClient(*handle.address) as client:
            mined = client.mine(text=TEXT)
            health = client.healthz()
            stats = client.stats()
            scrape = client.metrics()
    assert mined["documents"] == 1
    assert health["status"] == "ok"
    assert "reason" not in health
    assert health["backend"] == "native"
    assert health["backend_resolved"] == "numpy"
    assert "no C compiler" in health["backend_fallback_reason"]
    engine = stats["engine"]
    for key in ("backend", "backend_resolved", "backend_fallback_reason"):
        assert engine[key] == health[key]
    assert _fallback_total(scrape) == 1
    assert check_exposition(scrape) == []


def test_start_resolves_the_backend_before_the_first_request(
    monkeypatch, fresh_native
):
    calls = []
    real_check = native_backend._parity_self_check

    def spy(backend):
        calls.append(backend)
        return real_check(backend)

    monkeypatch.setattr(native_backend, "_parity_self_check", spy)
    assert repr(fresh_native) == "NativeBackend(unresolved)"
    with ServiceThread(MiningService(MODEL)) as handle:
        assert repr(fresh_native) != "NativeBackend(unresolved)"
        # The self-check runs once, in start(), when the library loads.
        assert calls == ([fresh_native] if fresh_native.is_native else [])
        calls.clear()
        with ServiceClient(*handle.address) as client:
            client.mine(text=TEXT)
            health = client.healthz()
            scrape = client.metrics()
    assert calls == []
    assert health["status"] == "ok"
    assert health["backend_resolved"] == fresh_native.resolved_name
    if fresh_native.is_native:
        assert "backend_fallback_reason" not in health
        assert _fallback_total(scrape) == 0


def test_compiler_less_workers_mine_on_one_thread(
    fresh_cache, no_compiler, fresh_native
):
    """``workers=2`` without a compiler: numpy holds the GIL, so the
    batch mines on one thread, /stats says so, and answers match."""
    from repro.engine import CorpusEngine

    texts = [TEXT, "ab" * 30, "ba" * 12 + "b" * 9]
    service = MiningService(MODEL, workers=2, batch_docs=2)
    with ServiceThread(service) as handle:
        with ServiceClient(*handle.address) as client:
            mined = client.mine(texts=texts)
            engine = client.stats()["engine"]
        assert service.engine.executor.started is False  # no pool spun up
    assert engine["backend_resolved"] == "numpy"
    assert (engine["executor"], engine["workers"], engine["threads"]) == (
        "thread", 2, 1,
    )
    expected = CorpusEngine().run_texts(texts, MODEL).payload(
        include_timing=False
    )
    for got, want in zip(mined["results"], expected["results"]):
        got.pop("elapsed_seconds")
        assert got == want
