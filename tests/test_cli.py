from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from reprorun import cleaner, cli
from reprorun.cli import build_parser, main
from reprorun.executor import ExecutionOutcome
from reprorun.store import RunStore

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


def test_clean_diff_file_is_byte_exact(tmp_path: Path):
    corpus = tmp_path / "corpus"
    make_package(tmp_path / "sources", "pkg", {
        "a.R": b'# caf\xe9 analysis\nsetwd("/home/me/proj")\nx <- read.csv("data.csv")\nprint(x)\n',
    })
    assert main(["ingest", "--dest", str(corpus), "--local", str(tmp_path / "sources" / "pkg")]) == 0
    assert main(["clean", "--corpus", str(corpus), "--diff"]) == 0
    assert (corpus / "cleaned" / "local_pkg" / "a.R.diff").read_bytes() == (
        b"--- a.R (original)\n"
        b"+++ a.R (cleaned)\n"
        b"@@ -1,5 +1,5 @@\n"
        b"-# caf\xc3\xa9 analysis\n"
        b'-setwd("/home/me/proj")\n'
        b"+# caf? analysis\n"
        b'+setwd(".")\n'
        b' x <- read.csv("data.csv")\n'
        b" print(x)\n"
        b" \n"
    )


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
    assert all(e["mode"] != "-" for e in RunStore.load(store_path).events())  # fetch status lives on the package


def _partial_corpus(tmp_path: Path, names=("half",)) -> Path:
    """An ingested corpus of partial packages, each with a b.R whose download failed."""
    corpus = tmp_path / "corpus"
    for name in names:
        source = tmp_path / "sources" / name
        make_package(tmp_path / "sources", name, {"a.R": "x <- 1\nprint(x)\n", "b.R": "print(2)\n"})
        assert main(["ingest", "--dest", str(corpus), "--local", str(source)]) == 0
        manifest_path = corpus / "manifests" / f"local_{name}.json"
        data = json.loads(manifest_path.read_text())
        data["fetch_status"] = "partial"
        next(f for f in data["files"] if f["relative_path"] == "b.R")["error"] = "HTTP 500"
        manifest_path.write_text(json.dumps(data))
        (source / "b.R").unlink()
    return corpus


def test_clean_cleans_only_the_fetched_files_the_manifest_lists(tmp_path: Path):
    corpus = _partial_corpus(tmp_path)  # b.R is listed but was never fetched
    (tmp_path / "sources" / "half" / "extra.R").write_text('setwd("/y")\n', encoding="utf-8")  # on disk, unlisted
    assert main(["clean", "--corpus", str(corpus)]) == 0
    out = corpus / "cleaned" / "local_half"
    assert sorted(p.name for p in out.iterdir()) == ["a.R", "clean_reports.json"]
    reports = json.loads((out / "clean_reports.json").read_text())
    assert [Path(r["path"]).name for r in reports] == ["a.R"]


def test_analyze_counts_never_fetched_r_file_unknown(tmp_path: Path):
    corpus = _partial_corpus(tmp_path)
    out = tmp_path / "metrics"
    assert main(["analyze", "--corpus", str(corpus), "--out", str(out)]) == 0
    assert [Path(row["path"]).name for row in json.loads((out / "file_metrics.json").read_text())] == ["a.R"]
    [census] = json.loads((out / "package_census.json").read_text())
    assert census["encoding_histogram"] == {"ascii": 1, "unknown": 1}


def test_run_include_partial_leaves_never_fetched_file_unassigned(tmp_path: Path):
    corpus = _partial_corpus(tmp_path)
    store_path = tmp_path / "store.jsonl"
    argv = [
        "run", "--corpus", str(corpus), "--store", str(store_path), "--stub", "--include-partial",
        "--budget-file", "2", "--budget-package", "5", "--scratch", str(tmp_path / "scratch"),
    ]
    assert main(argv) == 0
    store = RunStore.load(store_path)
    verdicts: dict[tuple[str, str], set[str]] = {}
    for o in store.outcomes():
        verdicts.setdefault((o.file, o.cleaning_mode), set()).add(o.verdict)
    assert verdicts == {
        ("a.R", "raw"): {"success"}, ("a.R", "cleaned"): {"success"},
        ("b.R", "raw"): {"unassigned"}, ("b.R", "cleaned"): {"unassigned"},
    }
    assert {e["event"] for e in store.events()} == {"completed"}
    assert not (corpus / "cleaned").exists()

    report_dir = tmp_path / "report"
    assert main(["report", "--store", str(store_path), "--out", str(report_dir)]) == 0
    report = json.loads((report_dir / "report.json").read_text())
    assert [m["file_rate"]["denominator"] for m in report["modes"]] == [1, 1]


def _ingest_packages(tmp_path: Path, packages: dict[str, dict[str, str]]) -> Path:
    corpus = tmp_path / "corpus"
    for name, files in packages.items():
        make_package(tmp_path / "sources", name, files)
        assert main(["ingest", "--dest", str(corpus), "--local", str(tmp_path / "sources" / name)]) == 0
    return corpus


def _run_outcomes(corpus: Path, tmp_path: Path, tag: str, *flags: str) -> dict:
    store_path = tmp_path / f"{tag}.jsonl"
    assert main([
        "run", "--corpus", str(corpus), "--store", str(store_path), "--stub", "--stub-repo", "dplyr",
        "--budget-file", "2", "--budget-package", "5", "--scratch", str(tmp_path / f"scratch-{tag}"), *flags,
    ]) == 0
    return {
        (o.package_id, o.file, o.interpreter_label, o.cleaning_mode): (o.verdict, o.error_category, o.exit_code)
        for o in RunStore.load(store_path).outcomes()
    }


def test_run_cleans_a_corpus_that_was_never_cleaned(tmp_path: Path):
    names = ("pkg-setwd", "pkg-library", "pkg-object")
    corpus = _ingest_packages(tmp_path, {name: DEMO_PACKAGES[name] for name in names})
    first = _run_outcomes(corpus, tmp_path, "first", "--modes", "cleaned", "--keep-workspaces")
    assert not (corpus / "cleaned").exists()
    assert sorted(v[:2] for v in first.values()) == [("error", "object_not_found")] * 3 + [("success", None)] * 6

    assert main(["clean", "--corpus", str(corpus)]) == 0
    assert _run_outcomes(corpus, tmp_path, "after-clean", "--modes", "cleaned") == first
    cleaned = sorted((corpus / "cleaned").rglob("*.R"))
    assert len(cleaned) == 3
    for script in cleaned:  # every kept workspace holds the script `clean` writes
        workspaces = sorted((tmp_path / "scratch-first").glob(f"{script.parent.name}__*__cleaned"))
        assert len(workspaces) == 3
        assert all((w / script.name).read_bytes() == script.read_bytes() for w in workspaces)


def test_stale_cleaned_tree_changes_no_verdict(tmp_path: Path):
    corpus = _ingest_packages(tmp_path, {"pkg": {"a.R": 'setwd("/no/such/dir")\nx <- 1\n'}})
    first = _run_outcomes(corpus, tmp_path, "first")
    assert {key[3]: value[0] for key, value in first.items()} == {"raw": "error", "cleaned": "success"}
    stale = corpus / "cleaned" / "local_pkg" / "a.R"
    stale.parent.mkdir(parents=True, exist_ok=True)
    stale.write_text('stop("stale")\n', encoding="utf-8")
    assert _run_outcomes(corpus, tmp_path, "stale") == first
    assert stale.read_text(encoding="utf-8") == 'stop("stale")\n'


def test_run_config_mirror_reaches_the_cleaned_scripts(tmp_path: Path):
    corpus = _ingest_packages(tmp_path, {"pkg": {"a.R": "library(dplyr)\nx <- 1\n"}})
    (tmp_path / "run.ini").write_text("[run]\ncran_mirror = http://mirror.example\n", encoding="utf-8")
    flags = ["--config", str(tmp_path / "run.ini"), "--modes", "cleaned", "--keep-workspaces"]
    _run_outcomes(corpus, tmp_path, "s", *flags)
    scripts = sorted((tmp_path / "scratch-s").glob("local_pkg__*__cleaned/a.R"))
    assert len(scripts) == 3
    assert all('repos="http://mirror.example"' in p.read_text(encoding="utf-8") for p in scripts)
    assert RunStore.load(tmp_path / "s.jsonl").config["cran_mirror"] == "http://mirror.example"
    assert not (corpus / "cleaned").exists()


def test_run_lists_store_packages_once(tmp_path: Path, monkeypatch):
    corpus = _partial_corpus(tmp_path, names=("p1", "p2", "p3"))
    calls = []
    real_packages = RunStore.packages
    monkeypatch.setattr(RunStore, "packages", lambda self: calls.append(1) or real_packages(self))
    monkeypatch.setattr(cli, "run_matrix", lambda *args, **kwargs: iter(()))
    assert main([
        "run", "--corpus", str(corpus), "--store", str(tmp_path / "store.jsonl"), "--stub",
        "--scratch", str(tmp_path / "scratch"),
    ]) == 0
    assert len(calls) == 1  # three excluded packages, one scan of the store
    assert set(RunStore.load(tmp_path / "store.jsonl").package_ids()) == {"local:p1", "local:p2", "local:p3"}


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


@pytest.mark.parametrize(
    "flags, ini, message",
    [
        (["--modes", "raw,Raw"], "", "unknown cleaning mode 'Raw'"),
        (["--modes", "raw,raw"], "", "cleaning mode 'raw' listed twice"),
        (["--modes", ","], "", "at least one cleaning mode"),
        (["--jobs", "0"], "", "jobs must be >= 1"),
        ([], "[run]\njobs = -2\n", "jobs must be >= 1"),
        ([], "[run]\nmodes = raw, raw\n", "cleaning mode 'raw' listed twice"),
        ([], "[run]\njobs = four\n", "invalid literal for int()"),
        (["--budget-file", "10", "--budget-package", "5"], "", "need 0 < per_file <= per_package"),
        ([], "jobs = 3\n", "no section headers"),
    ],
    ids=[
        "unknown-mode", "mode-twice", "no-mode", "jobs-0", "ini-jobs", "ini-mode-twice", "ini-jobs-text", "budget",
        "ini-no-section",
    ],
)
def test_run_invalid_setting_exit_2_before_any_store(
    tmp_path: Path, capsys, flags: list[str], ini: str, message: str
):
    make_package(tmp_path / "corpus", "pkg", {"a.R": "x <- 1\n"})
    store_path = tmp_path / "s.jsonl"
    argv = [
        "run", "--corpus", str(tmp_path / "corpus"), "--store", str(store_path),
        "--stub", "--scratch", str(tmp_path / "scratch"), *flags,
    ]
    if ini:
        (tmp_path / "run.ini").write_text(ini, encoding="utf-8")
        argv += ["--config", str(tmp_path / "run.ini")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not store_path.exists()


def test_run_flags_combine_with_config_file_values(tmp_path: Path):
    make_package(tmp_path / "corpus", "pkg", {"a.R": "x <- 1\n"})
    config = tmp_path / "run.ini"
    config.write_text("[run]\njobs = 3\nper_file_seconds = 10\n", encoding="utf-8")
    store_path = tmp_path / "100%" / "s.jsonl"  # flags never meet INI interpolation
    assert main([
        "run", "--corpus", str(tmp_path / "corpus"), "--store", str(store_path),
        "--config", str(config), "--stub", "--modes", "raw", "--budget-package", "50", "--jobs", "2",
        "--scratch", str(tmp_path / "scratch"),
    ]) == 0
    from reprorun.store import RunStore

    recorded = RunStore.load(store_path).config
    assert (recorded["per_file_seconds"], recorded["per_package_seconds"], recorded["jobs"]) == (10, 50, 2)
    assert recorded["modes"] == ["raw"]


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


def test_report_invalid_utf8_record_exit_6(tmp_path: Path, capsys):
    store_path = tmp_path / "s.jsonl"
    store_path.write_bytes(b'{"kind": "config", "run_id": "r\xe9"}\n{"kind": "package_event"}\n')
    assert main(["report", "--store", str(store_path), "--out", str(tmp_path / "o")]) == 6
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 1" in err and "UTF-8" in err
    assert "Traceback" not in err


def test_malformed_metadata_file_exit_2(tmp_path: Path, capsys):
    bad = tmp_path / "bad.json"
    make_package(tmp_path / "sources", "pkg", {"a.R": "x <- 1\n"})
    store = RunStore.open(tmp_path / "s.jsonl")
    store.append_outcome(ExecutionOutcome("p", "a.R", "R1", "raw", "success"))
    store.close()
    for text, message in [
        ("{bad", "cannot read metadata file"),
        ('{"local:pkg": "oops"}', "must map package ids to metadata objects"),
    ]:
        bad.write_text(text, encoding="utf-8")
        assert main([
            "ingest", "--dest", str(tmp_path / "corpus"), "--local", str(tmp_path / "sources" / "pkg"),
            "--metadata-file", str(bad),
        ]) == 2
        assert not (tmp_path / "corpus").exists()  # nothing written before the inputs are read
        assert main([
            "report", "--store", str(tmp_path / "s.jsonl"), "--out", str(tmp_path / "o"), "--metadata-file", str(bad),
        ]) == 2
        err = capsys.readouterr().err
        assert err.count(message) == 2
        assert "Traceback" not in err


def _ingested_corpus(tmp_path: Path) -> Path:
    corpus = tmp_path / "corpus"
    make_package(tmp_path / "sources", "pkg", {"a.R": "x <- 1\n"})
    assert main(["ingest", "--dest", str(corpus), "--local", str(tmp_path / "sources" / "pkg")]) == 0
    return corpus


def _manifest_not_json(tmp_path: Path) -> list[str]:
    corpus = _ingested_corpus(tmp_path)
    (corpus / "manifests" / "local_pkg.json").write_text("{bad", encoding="utf-8")
    return ["analyze", "--corpus", str(corpus), "--out", str(tmp_path / "o")]


def _manifest_without_id(tmp_path: Path) -> list[str]:
    corpus = _ingested_corpus(tmp_path)
    path = corpus / "manifests" / "local_pkg.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    del data["persistent_id"]
    path.write_text(json.dumps(data), encoding="utf-8")
    return ["clean", "--corpus", str(corpus)]


def _run_on_corrupt_store(tmp_path: Path) -> list[str]:
    make_package(tmp_path / "corpus", "pkg", {"a.R": "x <- 1\n"})
    store_path = tmp_path / "s.jsonl"
    store = RunStore.open(store_path)
    store.append_outcome(ExecutionOutcome("p", "a.R", "R1", "raw", "success"))
    store.close()
    with open(store_path, "a", encoding="utf-8") as fh:
        fh.write('{"kind": "outc\n{"kind": "package_event"}\n')  # corrupt record, then a whole tail
    return [
        "run", "--corpus", str(tmp_path / "corpus"), "--store", str(store_path), "--stub",
        "--modes", "raw,cleaned", "--scratch", str(tmp_path / "scratch"),
    ]


def _store_with(tmp_path: Path, record: dict) -> Path:
    store = RunStore.open(tmp_path / "s.jsonl")
    store.append_outcome(ExecutionOutcome("p", "a.R", "R1", "raw", "success"))
    store.close()
    with open(tmp_path / "s.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    return tmp_path / "s.jsonl"


def _report_on_package_without_id(tmp_path: Path) -> list[str]:
    store_path = _store_with(tmp_path, {"kind": "package", "title": "no id"})
    return ["report", "--store", str(store_path), "--out", str(tmp_path / "o")]


def _run_on_completed_event_without_mode(tmp_path: Path) -> list[str]:
    make_package(tmp_path / "corpus", "pkg", {"a.R": "x <- 1\n"})
    store_path = _store_with(tmp_path, {"kind": "package_event", "package_id": "p", "event": "completed"})
    return [
        "run", "--corpus", str(tmp_path / "corpus"), "--store", str(store_path), "--stub",
        "--scratch", str(tmp_path / "scratch"),
    ]


def _run_on_package_id_list(tmp_path: Path) -> list[str]:
    make_package(tmp_path / "corpus", "pkg", {"a.R": "x <- 1\n"})
    store_path = _store_with(tmp_path, {"kind": "package", "package_id": ["x"]})
    return ["run", "--corpus", str(tmp_path / "corpus"), "--store", str(store_path), "--stub"]


def _report_on_package_id_list(tmp_path: Path) -> list[str]:
    store_path = _store_with(tmp_path, {"kind": "package", "package_id": ["x"]})
    return ["report", "--store", str(store_path), "--out", str(tmp_path / "o")]


def _completed_mode_list(tmp_path: Path) -> Path:
    return _store_with(tmp_path, {"kind": "package_event", "package_id": "p", "mode": ["raw"], "event": "completed"})


def _run_on_completed_mode_list(tmp_path: Path) -> list[str]:
    make_package(tmp_path / "corpus", "pkg", {"a.R": "x <- 1\n"})
    return ["run", "--corpus", str(tmp_path / "corpus"), "--store", str(_completed_mode_list(tmp_path)), "--stub"]


def _report_on_completed_mode_list(tmp_path: Path) -> list[str]:
    return ["report", "--store", str(_completed_mode_list(tmp_path)), "--out", str(tmp_path / "o")]


def _run_with_interpreter_lacking_script(tmp_path: Path) -> list[str]:
    make_package(tmp_path / "corpus", "pkg", {"a.R": "x <- 1\n"})
    (tmp_path / "run.ini").write_text("[interpreter.R2]\ncommand = Rscript\n", encoding="utf-8")
    return [
        "run", "--corpus", str(tmp_path / "corpus"), "--store", str(tmp_path / "new.jsonl"),
        "--config", str(tmp_path / "run.ini"), "--scratch", str(tmp_path / "scratch"),
    ]


def _analyze_out_under_a_file(tmp_path: Path) -> list[str]:
    make_package(tmp_path / "corpus", "pkg", {"a.R": "x <- 1\n"})
    (tmp_path / "f").write_text("", encoding="utf-8")
    return ["analyze", "--corpus", str(tmp_path / "corpus"), "--out", str(tmp_path / "f" / "x")]


def _report_on_disjoint_modes(tmp_path: Path) -> list[str]:
    store = RunStore.open(tmp_path / "s.jsonl")
    store.append_outcome(ExecutionOutcome("p1", "a.R", "R1", "raw", "success"))
    store.append_outcome(ExecutionOutcome("p2", "b.R", "R1", "cleaned", "success"))
    store.close()
    return ["report", "--store", str(tmp_path / "s.jsonl"), "--out", str(tmp_path / "o")]


def _ingest_missing_local_dir(tmp_path: Path) -> list[str]:
    return ["ingest", "--dest", str(tmp_path / "corpus"), "--local", str(tmp_path / "gone")]


@pytest.mark.parametrize(
    "make_argv, code, via_shell",
    [
        (_manifest_not_json, 2, False),
        (_manifest_without_id, 2, False),
        (_run_on_corrupt_store, 6, False),
        (_analyze_out_under_a_file, 4, False),
        (_report_on_disjoint_modes, 6, False),
        (_report_on_package_without_id, 6, False),
        (_run_on_completed_event_without_mode, 6, False),
        (_run_on_package_id_list, 6, False),
        (_report_on_package_id_list, 6, False),
        (_run_on_completed_mode_list, 6, False),
        (_report_on_completed_mode_list, 6, False),
        (_run_with_interpreter_lacking_script, 5, False),
        (_ingest_missing_local_dir, 2, True),
    ],
    ids=[
        "manifest-not-json", "manifest-without-id", "run-corrupt-store", "out-not-writable",
        "report-disjoint-modes", "report-package-without-id", "run-completed-without-mode",
        "run-package-id-list", "report-package-id-list", "run-completed-mode-list", "report-completed-mode-list",
        "run-interpreter-without-script", "missing-local-dir",
    ],
)
def test_hostile_input_exits_with_documented_code(tmp_path: Path, capsys, make_argv, code: int, via_shell: bool):
    argv = make_argv(tmp_path)
    if via_shell:
        import reprorun

        src = str(Path(reprorun.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "reprorun", *argv],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        )
        returncode, err = proc.returncode, proc.stderr
    else:
        capsys.readouterr()
        returncode, err = main(argv), capsys.readouterr().err
    assert returncode == code
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "corpus" / "cleaned").exists()  # run writes no cleaned tree
    assert not (tmp_path / "new.jsonl").exists()  # and before it creates a store


def test_file_name_that_is_not_utf8_keeps_its_package(tmp_path: Path, capsys):
    name = os.fsdecode(b"caf\xe9.R")  # a lone surrogate once decoded
    make_package(tmp_path / "sources", "pkg", {name: "x <- 1\n", "ok.R": "y <- 2\n"})
    corpus, store_path = tmp_path / "corpus", tmp_path / "s.jsonl"
    assert main(["ingest", "--dest", str(corpus), "--local", str(tmp_path / "sources" / "pkg")]) == 0
    capsys.readouterr()
    assert main([
        "run", "--corpus", str(corpus), "--store", str(store_path), "--stub", "--jobs", "1",
        "--scratch", str(tmp_path / "scratch"),
    ]) == 0
    assert "recorded 12 outcomes" in capsys.readouterr().out
    store = RunStore.load(store_path)
    assert {o.file for o in store.outcomes()} == {name, "ok.R"}
    assert {o.verdict for o in store.outcomes()} == {"success"}
    assert store.path.read_bytes().isascii()  # non-ASCII text is written as \uXXXX escapes
    assert main(["report", "--store", str(store_path), "--out", str(tmp_path / "report")]) == 0


def test_readme_exit_codes_match_main():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Exit codes", 1)[1].split("\n## ", 1)[0]
    documented = {int(m) for m in re.findall(r"^\| (\d+) \|", section, flags=re.MULTILINE)}
    assert documented == set(cli.EXIT_CODES.values()) | {cli.EXIT_WRITE}


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


def test_cli_imports_without_requests():
    import reprorun

    src = str(Path(reprorun.__file__).resolve().parent.parent)
    code = "import sys, reprorun.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'requests'))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
