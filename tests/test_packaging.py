"""The package metadata ships the native default.

``setup.py egg_info`` reads ``pyproject.toml``.  An installed copy must
carry the ``repro-mss`` console script, depend on numpy, and include the
C kernel source that the default ``native`` backend compiles on first
use -- without it every install would fall back to numpy.
"""

import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]


def test_egg_info_ships_script_dependency_and_kernel_source(tmp_path):
    subprocess.run(
        [sys.executable, "setup.py", "-q", "egg_info",
         "--egg-base", str(tmp_path)],
        cwd=ROOT, check=True, capture_output=True, timeout=120,
    )
    (info,) = tmp_path.glob("*.egg-info")
    assert "repro-mss = repro.cli:main" in (
        info / "entry_points.txt"
    ).read_text().splitlines()
    # requires.txt lists the core dependencies first, then [extras].
    core, _, extras = (info / "requires.txt").read_text().partition("[")
    assert core.split() == ["numpy"]
    assert extras.split() == ["graph]", "networkx"]
    assert "src/repro/kernels/_native/mss_kernels.c" in (
        info / "SOURCES.txt"
    ).read_text().splitlines()
    assert f"Version: {repro.__version__}" in (
        info / "PKG-INFO"
    ).read_text().splitlines()
