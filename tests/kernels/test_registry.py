"""The kernel backend registry: selection, environment, extension."""

from __future__ import annotations

import pytest

import repro
from repro.core.model import BernoulliModel
from repro.core.mss import find_mss
from repro.kernels import (
    DEFAULT_BACKEND,
    ENV_VAR,
    available_backends,
    get_backend,
    register_backend,
)
from repro.kernels.numpy_backend import NumpyBackend
from repro.kernels.python_backend import PythonBackend


def test_builtin_backends_registered():
    assert "python" in available_backends()
    assert "numpy" in available_backends()


def test_get_backend_by_name():
    assert isinstance(get_backend("python"), PythonBackend)
    assert isinstance(get_backend("numpy"), NumpyBackend)


def test_default_backend(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert get_backend().name == DEFAULT_BACKEND


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "python")
    assert isinstance(get_backend(), PythonBackend)
    monkeypatch.setenv(ENV_VAR, "numpy")
    assert isinstance(get_backend(), NumpyBackend)
    # An empty value falls back to the default rather than erroring.
    monkeypatch.setenv(ENV_VAR, "")
    assert get_backend().name == DEFAULT_BACKEND


def test_env_var_reaches_the_miners(monkeypatch, scratch_registry):
    """find_mss with no explicit backend obeys REPRO_BACKEND."""
    calls = []

    class Probe(PythonBackend):
        name = "probe-env"

        def scan_mss(self, index, model):
            calls.append("scan")
            return super().scan_mss(index, model)

    register_backend(Probe(), replace=True)
    monkeypatch.setenv(ENV_VAR, "probe-env")
    model = BernoulliModel.uniform("ab")
    find_mss("abab", model)
    assert calls == ["scan"]


def test_unknown_backend_is_a_clear_error():
    with pytest.raises(ValueError, match="unknown kernel backend 'cuda'"):
        get_backend("cuda")


def test_backend_instances_pass_through():
    backend = PythonBackend()
    assert get_backend(backend) is backend


def test_non_backend_rejected():
    with pytest.raises(TypeError, match="backend must be a name"):
        get_backend(42)


def test_register_requires_name():
    class Nameless:
        pass

    with pytest.raises(ValueError, match="non-empty string 'name'"):
        register_backend(Nameless())


def test_register_rejects_silent_shadowing():
    with pytest.raises(ValueError, match="already registered"):
        register_backend(PythonBackend())


def test_register_custom_backend_usable_by_name(scratch_registry):
    class Tagged(PythonBackend):
        name = "tagged"

    register_backend(Tagged(), replace=True)
    assert "tagged" in available_backends()
    model = BernoulliModel.uniform("ab")
    result = find_mss("abba" * 10, model, backend="tagged")
    reference = find_mss("abba" * 10, model, backend="python")
    assert result.best.chi_square == reference.best.chi_square


def test_top_level_reexports():
    assert repro.get_backend is get_backend
    assert repro.available_backends is available_backends
