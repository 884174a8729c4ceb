"""Shared fixtures and hypothesis strategies for the test-suite."""

from __future__ import annotations

import hypothesis
import hypothesis.strategies as st
import pytest

from repro.core.model import BernoulliModel

hypothesis.settings.register_profile(
    "repro",
    deadline=None,
    max_examples=60,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
# Only on first load: test modules that import ``tests.conftest`` run
# this file a second time, after ``--hypothesis-profile`` was applied.
if hypothesis.settings.get_current_profile_name() == "default":
    hypothesis.settings.load_profile("repro")
# CI's larger budget for the kernel and HTTP reader fuzz
# (``--hypothesis-profile=repro-fuzz``).
hypothesis.settings.register_profile(
    "repro-fuzz", parent=hypothesis.settings.get_profile("repro"),
    max_examples=400,
)

ALPHABETS = {2: "ab", 3: "abc", 4: "abcd", 5: "abcde"}


def pytest_configure(config):
    """Register the suite's custom markers."""
    config.addinivalue_line(
        "markers", "slow: a test that takes tens of seconds to run"
    )


@pytest.fixture
def scratch_registry():
    """Snapshot the process-global backend registry and restore it
    afterwards, so probe backends never leak into other tests."""
    import repro.kernels

    saved = dict(repro.kernels._REGISTRY)
    yield
    repro.kernels._REGISTRY.clear()
    repro.kernels._REGISTRY.update(saved)


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """Point the native compile cache at an empty directory."""
    from repro.kernels.native_backend import CACHE_ENV

    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cache"))
    return tmp_path / "cache"


@pytest.fixture
def no_compiler(monkeypatch):
    """Make compiler discovery fail ($CC is honoured, even when broken)."""
    monkeypatch.setenv("CC", "/nonexistent-compiler")


@pytest.fixture
def fair_model() -> BernoulliModel:
    """Uniform binary model -- the workhorse of the paper's experiments."""
    return BernoulliModel.uniform("ab")


@pytest.fixture
def skewed_model() -> BernoulliModel:
    """A k=3 model with unequal probabilities."""
    return BernoulliModel("abc", [0.5, 0.3, 0.2])


@st.composite
def models(draw, min_k: int = 2, max_k: int = 4):
    """A random BernoulliModel with k in [min_k, max_k]."""
    k = draw(st.integers(min_k, max_k))
    weights = draw(
        st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)
    )
    total = sum(weights)
    return BernoulliModel(ALPHABETS[k], [w / total for w in weights])


@st.composite
def model_and_text(draw, min_k: int = 2, max_k: int = 4,
                   min_length: int = 1, max_length: int = 40):
    """A random model together with a string over its alphabet."""
    model = draw(models(min_k=min_k, max_k=max_k))
    alphabet = "".join(model.alphabet)
    text = draw(st.text(alphabet=alphabet, min_size=min_length, max_size=max_length))
    return model, text
