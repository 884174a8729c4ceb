"""End-to-end tests for the ``repro-mss batch`` subcommand."""

import io
import json
import os

import pytest

from repro.cli import main


@pytest.fixture
def corpus_dir(tmp_path):
    """Six documents; doc2 carries a strong planted burst."""
    directory = tmp_path / "corpus"
    directory.mkdir()
    base = "ab" * 100
    docs = {
        "doc0.txt": base,
        "doc1.txt": "ba" * 100,
        "doc2.txt": base[:80] + "a" * 40 + base[120:],
        "doc3.txt": "abba" * 50,
        "doc4.txt": "baab" * 50,
        "doc5.txt": base[:50] + "b" * 12 + base[62:],
    }
    for name, text in docs.items():
        (directory / name).write_text(text + "\n")
    (directory / "subdir").mkdir()  # non-files must be skipped
    return directory


@pytest.fixture
def line_file(tmp_path):
    path = tmp_path / "docs.txt"
    path.write_text("ab" * 40 + "\n" + "a" * 30 + "\n" + "\n" + "ba" * 40 + "\n")
    return str(path)


def _run_json(argv, capsys):
    assert main(["--json"] + argv) == 0
    return json.loads(capsys.readouterr().out)


class TestInputs:
    def test_directory_input(self, corpus_dir, capsys):
        payload = _run_json(["batch", str(corpus_dir)], capsys)
        assert payload["documents"] == 6
        assert [r["doc_id"] for r in payload["results"]] == [
            f"doc{i}.txt" for i in range(6)
        ]
        assert payload["total_symbols"] == 6 * 200

    def test_line_file_input_skips_blank_lines(self, line_file, capsys):
        payload = _run_json(["batch", line_file], capsys)
        assert payload["documents"] == 3
        assert payload["results"][0]["doc_id"] == "line-0001"
        assert payload["results"][2]["doc_id"] == "line-0004"

    def test_stdin_lines(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("abab\nbaba\n"))
        payload = _run_json(["batch", "-"], capsys)
        assert payload["documents"] == 2

    def test_empty_corpus_rejected(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SystemExit, match="empty"):
            main(["batch", str(empty)])

    def test_probs_without_alphabet_rejected(self, line_file):
        with pytest.raises(SystemExit):
            main(["batch", line_file, "--probs", "0.5,0.5"])


class TestEndToEnd:
    def test_workers_4_bh_json(self, corpus_dir, capsys):
        """The acceptance-criterion invocation, verbatim -- including
        --json in trailing position after the subcommand."""
        assert main(["batch", str(corpus_dir), "--workers", "4",
                     "--correction", "bh", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # --workers > 1 mines on a pool of threads
        assert payload["executor"] == "thread"
        assert payload["workers"] == 4
        assert payload["correction"] == "bh"
        # the planted burst is the most significant document
        by_x2 = max(payload["results"], key=lambda r: r["x2_max"])
        assert by_x2["doc_id"] == "doc2.txt"
        assert by_x2["significant"] is True

    def test_default_workers_is_every_usable_cpu(self, corpus_dir, capsys):
        payload = _run_json(["batch", str(corpus_dir)], capsys)
        assert payload["executor"] == "thread"
        assert payload["workers"] == (
            len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count()
        )

    def test_parallel_results_match_serial(self, corpus_dir, capsys):
        serial = _run_json(
            ["batch", str(corpus_dir), "--workers", "1"], capsys
        )
        assert serial["executor"] == "thread"
        parallel = _run_json(
            ["batch", str(corpus_dir), "--workers", "2"], capsys
        )
        strip = lambda p: [
            {key: value for key, value in r.items() if key != "elapsed_seconds"}
            for r in p["results"]
        ]
        assert strip(parallel) == strip(serial)

    def test_batch_docs_results_match_per_document(self, corpus_dir, capsys):
        reference = _run_json(["batch", str(corpus_dir)], capsys)
        batched = _run_json(
            ["batch", str(corpus_dir), "--batch-docs", "4"], capsys
        )
        strip = lambda p: [
            {key: value for key, value in r.items() if key != "elapsed_seconds"}
            for r in p["results"]
        ]
        assert strip(batched) == strip(reference)
        assert batched["batch_docs"] == 4
        assert reference["batch_docs"] is None

    def test_batch_docs_must_be_positive(self, corpus_dir):
        with pytest.raises(SystemExit, match="batch-docs"):
            main(["batch", str(corpus_dir), "--batch-docs", "0"])

    def test_corrected_p_values_match_hand_bh(self, corpus_dir, capsys):
        """Recompute Benjamini-Hochberg from the raw p-values by hand."""
        payload = _run_json(
            ["batch", str(corpus_dir), "--correction", "bh"], capsys
        )
        raw = [r["p_value"] for r in payload["results"]]
        m = len(raw)
        # independent step-up implementation: adj(i) = min_{j>=i} p_(j)*m/j
        indexed = sorted(enumerate(raw), key=lambda pair: pair[1])
        expected = [0.0] * m
        for rank_from_top in range(m, 0, -1):
            original, p = indexed[rank_from_top - 1]
            candidates = [
                indexed[r - 1][1] * m / r for r in range(rank_from_top, m + 1)
            ]
            expected[original] = min(1.0, min(candidates))
        reported = [r["p_corrected"] for r in payload["results"]]
        assert reported == pytest.approx(expected)

    def test_corrected_p_values_match_hand_bonferroni(self, corpus_dir, capsys):
        payload = _run_json(
            ["batch", str(corpus_dir), "--correction", "bonferroni"], capsys
        )
        for r in payload["results"]:
            assert r["p_corrected"] == pytest.approx(min(1.0, 6 * r["p_value"]))

    def test_correction_none_keeps_raw(self, corpus_dir, capsys):
        payload = _run_json(
            ["batch", str(corpus_dir), "--correction", "none"], capsys
        )
        for r in payload["results"]:
            assert r["p_corrected"] == r["p_value"]

    def test_calibrate_adds_summary_and_changes_kind(self, corpus_dir, capsys):
        payload = _run_json(
            ["batch", str(corpus_dir), "--calibrate", "--trials", "12",
             "--alphabet", "ab", "--probs", "0.5,0.5"],
            capsys,
        )
        assert all(r["p_value_kind"] == "calibrated" for r in payload["results"])
        # all six docs are ~200 symbols -> one 256-bucket simulation
        assert payload["calibration"]["misses"] == 1
        assert payload["calibration"]["entries"][0]["bucket"] == 256

    def test_problem_variants(self, corpus_dir, capsys):
        top = _run_json(
            ["batch", str(corpus_dir), "--problem", "top", "-t", "3"], capsys
        )
        assert all(len(r["substrings"]) == 3 for r in top["results"])
        floor = _run_json(
            ["batch", str(corpus_dir), "--problem", "minlength",
             "--min-length", "25"], capsys,
        )
        assert all(r["substrings"][0]["length"] >= 25 for r in floor["results"])

    def test_human_output(self, corpus_dir, capsys):
        assert main(["batch", str(corpus_dir), "--correction", "bh"]) == 0
        out = capsys.readouterr().out
        assert "documents=6" in out
        assert "doc2.txt" in out and "X2=" in out and "p_adj=" in out
