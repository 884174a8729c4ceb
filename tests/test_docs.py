"""Documentation gates, enforced in tier-1 (CI's docs job runs the same
script standalone): intra-repo markdown links resolve, every public API
symbol carries a docstring, and the architecture document exists and
covers the concepts it promises to map."""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_check_docs_script_passes():
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_docs.py")],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 broken links" in result.stdout
    assert "0 missing docstrings" in result.stdout
    assert "0 tracked artifacts" in result.stdout


def test_architecture_document_covers_the_map():
    text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
    # paper concepts the document promises to map onto modules
    for concept in (
        "chi-square",
        "Lemma 5",
        "X²max",
        "top-t",
        "threshold",
        "min-length",
        "mine_batch",
        "repro-mss batch",
        "wavefront",
        "CalibrationCache",
    ):
        assert concept in text, f"ARCHITECTURE.md does not mention {concept!r}"


def test_readme_documents_batch_corpus_mining():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "--batch-docs" in text
    assert "--workers" in text
