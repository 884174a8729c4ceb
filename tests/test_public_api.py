"""The public API surface: what `import repro` promises.

Guards against accidental export churn -- downstream users pin to these
names.
"""

import inspect

import repro


EXPECTED_TOP_LEVEL = {
    "BernoulliModel",
    "ChiSquareScorer",
    "PrefixCountIndex",
    "chi_square",
    "chi_square_from_counts",
    "find_mss",
    "find_top_t",
    "find_above_threshold",
    "find_mss_min_length",
    "MSSResult",
    "TopTResult",
    "ThresholdResult",
    "ScanStats",
    "SignificantSubstring",
    "CorpusEngine",
    "CorpusResult",
    "MiningJob",
    "JobSpec",
    "DocumentResult",
    "CalibrationCache",
    "chi2_critical_value",
    "chi2_sf",
    "p_value",
    "get_backend",
    "available_backends",
    "__version__",
}


def test_top_level_exports():
    assert set(repro.__all__) == EXPECTED_TOP_LEVEL
    for name in EXPECTED_TOP_LEVEL:
        assert hasattr(repro, name), name


def test_version_format():
    major, minor, patch = repro.__version__.split(".")
    assert all(part.isdigit() for part in (major, minor, patch))


def test_every_public_callable_has_a_docstring():
    for name in repro.__all__:
        obj = getattr(repro, name)
        if callable(obj):
            assert inspect.getdoc(obj), f"{name} lacks a docstring"


def test_subpackages_importable():
    import repro.analysis
    import repro.baselines
    import repro.datasets
    import repro.engine
    import repro.extensions
    import repro.generators
    import repro.stats
    import repro.strings

    for module in (
        repro.analysis,
        repro.baselines,
        repro.datasets,
        repro.engine,
        repro.extensions,
        repro.generators,
        repro.stats,
        repro.strings,
    ):
        assert module.__doc__, f"{module.__name__} lacks a package docstring"
        assert module.__all__, f"{module.__name__} lacks __all__"


def test_subpackage_alls_resolve():
    import repro.analysis
    import repro.baselines
    import repro.datasets
    import repro.engine
    import repro.extensions
    import repro.generators
    import repro.stats
    import repro.strings

    for module in (
        repro.analysis,
        repro.baselines,
        repro.datasets,
        repro.engine,
        repro.extensions,
        repro.generators,
        repro.stats,
        repro.strings,
    ):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_miners_share_signature_shape():
    """All four miners take (text, model, ...) in that order."""
    from repro import find_above_threshold, find_mss, find_mss_min_length, find_top_t

    for miner in (find_mss, find_top_t, find_above_threshold, find_mss_min_length):
        parameters = list(inspect.signature(miner).parameters)
        assert parameters[0] == "text"
        assert parameters[1] == "model"


#: Run in a fresh interpreter: which service modules an import loads.
_SERVICE_IMPORT_PROBE = """
import json, sys
import repro.cli
after_cli = "repro.service.app" in sys.modules
import repro.router.app
after_router = "repro.service.app" in sys.modules
from repro.service import MiningService
print(json.dumps([after_cli, after_router, MiningService.__module__]))
"""


def test_service_exports_resolve_lazily():
    """``import repro.cli`` and the router do not load the service app
    (nor its engine and asyncio), yet every export still resolves."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro.service

    proc = subprocess.run(
        [sys.executable, "-c", _SERVICE_IMPORT_PROBE],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, False, "repro.service.app"]
    for name in repro.service.__all__:
        assert hasattr(repro.service, name), name
