from __future__ import annotations

import json
from pathlib import Path

import pytest

from reprorun.cli import build_parser, main

from conftest import DEMO_METADATA, DEMO_PACKAGES, make_package


@pytest.fixture
def cli_corpus(tmp_path: Path) -> Path:
    """Demo corpus ingested through the CLI's --local path, with metadata."""
    corpus = tmp_path / "corpus"
    for name, files in DEMO_PACKAGES.items():
        make_package(tmp_path / "sources", name, files)
        metadata_args = []
        for key, value in DEMO_METADATA[name].items():
            rendered = ";".join(value) if isinstance(value, list) else value
            metadata_args += ["--metadata", f"{key}={rendered}"]
        code = main(
            ["ingest", "--dest", str(corpus), "--local", str(tmp_path / "sources" / name)]
            + metadata_args
        )
        assert code == 0
    return corpus


def test_pipeline_end_to_end(cli_corpus: Path, tmp_path: Path):
    out = tmp_path / "metrics"
    assert main(["analyze", "--corpus", str(cli_corpus), "--out", str(out)]) == 0
    file_metrics = json.loads((out / "file_metrics.json").read_text())
    assert len(file_metrics) == 5  # five packages have exactly one R file each
    census = json.loads((out / "package_census.json").read_text())
    assert any(row["other_languages"] == ["stata"] for row in census)
    summary = json.loads((out / "corpus_summary.json").read_text())
    assert summary["n_packages"] == 6

    assert main(["clean", "--corpus", str(cli_corpus), "--diff"]) == 0
    cleaned_root = cli_corpus / "cleaned"
    cleaned_setwd = cleaned_root / "local_pkg-setwd" / "analysis.R"
    assert 'setwd(".")' in cleaned_setwd.read_text()
    assert (cleaned_root / "local_pkg-setwd" / "analysis.R.diff").exists()
    reports = json.loads((cleaned_root / "local_pkg-library" / "clean_reports.json").read_text())
    assert reports[0]["actions"][0]["kind"] == "library_guarded"

    store_path = tmp_path / "runs" / "store.jsonl"
    code = main(
        [
            "run", "--corpus", str(cli_corpus), "--store", str(store_path),
            "--stub", "--stub-repo", "dplyr",
            "--budget-file", "1.0", "--budget-package", "5.0",
            "--jobs", "2", "--scratch", str(tmp_path / "scratch"),
        ]
    )
    assert code == 0
    assert store_path.exists()

    report_dir = tmp_path / "report"
    assert main(["report", "--store", str(store_path), "--out", str(report_dir)]) == 0
    summary_text = (report_dir / "summary.txt").read_text()
    assert "fixed=2 broken=0" in summary_text
    report = json.loads((report_dir / "report.json").read_text())
    raw_mode = next(m for m in report["modes"] if m["mode"] == "raw")
    cleaned_mode = next(m for m in report["modes"] if m["mode"] == "cleaned")
    assert raw_mode["file_rate"]["numerator"] == 1 and raw_mode["file_rate"]["denominator"] == 4
    assert cleaned_mode["file_rate"]["numerator"] == 3 and cleaned_mode["file_rate"]["denominator"] == 4

    assert main([
        "report", "--store", str(store_path), "--out", str(report_dir),
        "--group-by", "journal", "--format", "csv",
    ]) == 0
    csv_text = (report_dir / "report.csv").read_text()
    assert csv_text.startswith("group,file_success_rate,dataset_success_rate,n_files,n_datasets\n")
    assert "JournalA" in csv_text and "JournalB" in csv_text

    assert main([
        "report", "--store", str(store_path), "--out", str(report_dir),
        "--group-by", "version", "--level", "dataset",
    ]) == 0
    grouped = (report_dir / "summary.txt").read_text()
    assert "R3.2" in grouped and "R4.0" in grouped


def test_partial_packages_excluded_but_reported(tmp_path: Path):
    corpus = tmp_path / "corpus"
    for name in ("goodpkg", "halfpkg"):
        make_package(tmp_path / "sources", name, {"a.R": "x <- 1\nprint(x)\n"})
        assert main(["ingest", "--dest", str(corpus), "--local", str(tmp_path / "sources" / name)]) == 0
    half_manifest = corpus / "manifests" / "local_halfpkg.json"
    data = json.loads(half_manifest.read_text())
    data["fetch_status"] = "partial"
    half_manifest.write_text(json.dumps(data))

    store_path = tmp_path / "store.jsonl"
    assert main([
        "run", "--corpus", str(corpus), "--store", str(store_path), "--stub",
        "--modes", "raw", "--budget-file", "2", "--budget-package", "5",
        "--scratch", str(tmp_path / "scratch"),
    ]) == 0
    report_dir = tmp_path / "report"
    assert main(["report", "--store", str(store_path), "--out", str(report_dir)]) == 0
    report = json.loads((report_dir / "report.json").read_text())
    assert report["packages"]["total"] == 2
    assert report["packages"]["fetch_status_counts"] == {"ok": 1, "partial": 1}
    raw_mode = report["modes"][0]
    assert raw_mode["file_rate"]["denominator"] == 1  # only the ok package executed


def test_run_resume_is_idempotent(cli_corpus: Path, tmp_path: Path):
    store_path = tmp_path / "store.jsonl"
    argv = [
        "run", "--corpus", str(cli_corpus), "--store", str(store_path),
        "--stub", "--stub-repo", "dplyr", "--modes", "raw",
        "--budget-file", "1.0", "--budget-package", "5.0",
        "--scratch", str(tmp_path / "scratch"),
    ]
    assert main(argv) == 0
    size_after_first = store_path.stat().st_size
    assert main(argv) == 0  # resume: everything already completed
    assert store_path.stat().st_size == size_after_first


def test_analyze_csv_format(cli_corpus: Path, tmp_path: Path):
    out = tmp_path / "metrics-csv"
    assert main(["analyze", "--corpus", str(cli_corpus), "--out", str(out), "--format", "csv"]) == 0
    header = (out / "file_metrics.csv").read_text().split("\n", 1)[0]
    assert "code_lines" in header and "dependencies" in header
    assert (out / "package_census.csv").exists()
    assert (out / "corpus_summary.json").exists()


def test_analyze_idempotent(cli_corpus: Path, tmp_path: Path):
    out = tmp_path / "m1"
    assert main(["analyze", "--corpus", str(cli_corpus), "--out", str(out)]) == 0
    first = (out / "corpus_summary.json").read_bytes()
    assert main(["analyze", "--corpus", str(cli_corpus), "--out", str(out)]) == 0
    assert (out / "corpus_summary.json").read_bytes() == first


def test_analyze_unreadable_corpus_exit_2(tmp_path: Path):
    assert main(["analyze", "--corpus", str(tmp_path / "gone"), "--out", str(tmp_path / "o")]) == 2


def test_ingest_network_failure_exit_3(tmp_path: Path):
    code = main(
        ["ingest", "--dest", str(tmp_path / "d"), "--api-base", "http://127.0.0.1:1", "--limit", "2"]
    )
    assert code == 3


def test_clean_unwritable_output_exit_4(tmp_path: Path):
    make_package(tmp_path / "corpus", "pkg", {"a.R": "x <- 1\n"})
    out_root = tmp_path / "out"
    out_root.mkdir()
    (out_root / "local_pkg").write_text("in the way")
    code = main(["clean", "--corpus", str(tmp_path / "corpus"), "--out", str(out_root)])
    assert code == 4


def test_run_missing_interpreter_exit_5(tmp_path: Path):
    make_package(tmp_path / "corpus", "pkg", {"a.R": "x <- 1\n"})
    config = tmp_path / "run.ini"
    config.write_text(
        "[interpreter.R9]\ncommand = /no/such/R9 {script}\n", encoding="utf-8"
    )
    code = main([
        "run", "--corpus", str(tmp_path / "corpus"), "--store", str(tmp_path / "s.jsonl"),
        "--config", str(config), "--modes", "raw", "--scratch", str(tmp_path / "scratch"),
    ])
    assert code == 5


def test_report_empty_store_exit_6(tmp_path: Path):
    assert main(["report", "--store", str(tmp_path / "none.jsonl"), "--out", str(tmp_path / "o")]) == 6
    from reprorun.store import RunStore

    RunStore.open(tmp_path / "empty.jsonl").close()
    assert main(["report", "--store", str(tmp_path / "empty.jsonl"), "--out", str(tmp_path / "o")]) == 6


def test_report_malformed_outcome_record_exit_6(tmp_path: Path, capsys):
    store_path = tmp_path / "s.jsonl"
    store_path.write_text('{"kind": "outcome", "package_id": "p", "file": "a.R"}\n', encoding="utf-8")
    assert main(["report", "--store", str(store_path), "--out", str(tmp_path / "o")]) == 6
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 1" in err and "interpreter_label" in err
    assert "Traceback" not in err


def test_report_metadata_overlay_for_policy(cli_corpus: Path, tmp_path: Path):
    store_path = tmp_path / "store.jsonl"
    assert main([
        "run", "--corpus", str(cli_corpus), "--store", str(store_path),
        "--stub", "--stub-repo", "dplyr", "--modes", "cleaned",
        "--budget-file", "1.0", "--budget-package", "5.0",
        "--scratch", str(tmp_path / "scratch"),
    ]) == 0
    overlay = {"local:pkg-success": {"policy_class": "overridden"}}
    overlay_path = tmp_path / "overlay.json"
    overlay_path.write_text(json.dumps(overlay))
    report_dir = tmp_path / "report"
    assert main([
        "report", "--store", str(store_path), "--out", str(report_dir),
        "--group-by", "policy", "--metadata-file", str(overlay_path),
    ]) == 0
    assert "overridden" in (report_dir / "report.csv").read_text()


DOCUMENTED_FLAGS = {
    "ingest": ["--dest", "--api-base", "--query", "--limit", "--local", "--metadata",
               "--metadata-file", "--jobs", "--force"],
    "analyze": ["--corpus", "--out", "--format"],
    "clean": ["--corpus", "--out", "--diff", "--mirror"],
    "run": ["--corpus", "--store", "--config", "--modes", "--jobs", "--budget-file",
            "--budget-package", "--scratch", "--keep-workspaces", "--no-network",
            "--include-partial", "--stub", "--stub-repo", "--stub-preinstalled", "--force"],
    "report": ["--store", "--out", "--group-by", "--level", "--format", "--mode",
               "--metadata-file"],
}


@pytest.mark.parametrize("command", sorted(DOCUMENTED_FLAGS))
def test_help_enumerates_documented_flags(command, capsys):
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([command, "--help"])
    help_text = capsys.readouterr().out
    for flag in DOCUMENTED_FLAGS[command]:
        assert flag in help_text, f"{command} --help missing {flag}"


def test_subcommands_match_spec():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["--help"])
