from __future__ import annotations

import contextlib
import errno
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reprorun import cleaner, cli, ingest
from reprorun.cli import build_parser, main
from reprorun.executor import ERROR_CATEGORIES, VERDICTS, ExecutionOutcome
from reprorun.ingest import DataverseClient
from reprorun.results import GROUP_COLUMNS
from reprorun.store import RunStore

from conftest import DEMO_METADATA, DEMO_PACKAGES, make_package
from mock_dataverse import MockDataset, MockDataverse, MockFile

GROUP_HEADER = ",".join(GROUP_COLUMNS) + "\n"


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
        "--group-by", "journal", "--format", "json",
    ]) == 0
    grouped = json.loads((report_dir / "grouped.json").read_text())
    assert [row["group"] for row in grouped] == ["JournalA", "JournalB"]
    assert [list(row) for row in grouped] == [sorted(GROUP_COLUMNS)] * 2

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


def test_include_partial_skips_a_failed_package(tmp_path: Path, capsys):
    corpus = tmp_path / "corpus"
    make_package(tmp_path / "sources", "denied", {"a.R": "x <- 1\n"})
    assert main(["ingest", "--dest", str(corpus), "--local", str(tmp_path / "sources" / "denied")]) == 0
    manifest_path = corpus / "manifests" / "local_denied.json"
    data = json.loads(manifest_path.read_text())
    manifest_path.write_text(json.dumps({**data, "fetch_status": "failed", "failure_reason": "authorization"}))
    store_path = tmp_path / "store.jsonl"
    capsys.readouterr()
    assert main([
        "run", "--corpus", str(corpus), "--store", str(store_path), "--stub", "--include-partial",
        "--scratch", str(tmp_path / "scratch"),
    ]) == 0
    out = capsys.readouterr().out
    assert "skip local:denied: fetch status failed" in out and "recorded 0 outcomes" in out
    store = RunStore.load(store_path)
    assert store.outcomes() == [] and store.events() == []
    assert store.packages()["local:denied"]["fetch_status"] == "failed"


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
        # each as its own interpreter left it: each installed dplyr in a workspace of its own
        installed = [".stubr-library"] if script.name == "model.R" else []
        assert all(sorted(p.name for p in w.iterdir()) == sorted([script.name, *installed]) for w in workspaces)
        assert all((w / ".stubr-library").read_text() == "dplyr\n" for w in workspaces if installed)


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
    assert calls == []  # three excluded packages, and the store alone tells which it holds
    assert set(RunStore.load(tmp_path / "store.jsonl").packages()) == {"local:p1", "local:p2", "local:p3"}


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
    first_run = RunStore.load(store_path).run_id
    assert main(argv) == 0  # resume: everything already completed
    assert store_path.stat().st_size == size_after_first

    assert main([*argv, "--force"]) == 0  # starts the store over
    store = RunStore.load(store_path)
    assert [r["kind"] for r in store.records].count("config") == 1
    assert store.run_id != first_run
    assert len(store.packages()) == len(DEMO_PACKAGES)


# Interpreter A runs a file that names A, B one that names B; each fails any other file.
_CUT_INI = "".join(
    f"[interpreter.{label}]\ncommand = sh -c 'grep -q {label} \"$0\" || {{ echo \"object x not found\" >&2; exit 1; }}'"
    " {script}\n"
    for label in ("A", "B")
)


def _reports_blanked(store_path: Path, out: Path) -> list[str]:
    """report.json and grouped.json of one store, with the run id blanked."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["report", "--store", str(store_path), "--out", str(out), "--group-by", "version",
                     "--format", "json"]) == 0
    report = re.sub(r'"run_id": "\w*"', '"run_id": ""', (out / "report.json").read_text(encoding="utf-8"))
    return [report, (out / "grouped.json").read_text(encoding="utf-8")]


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_store_cut_anywhere_and_resumed_gives_the_uncut_reports(tmp_path: Path, jobs: int):
    for name, files in {"p1": ('x <- "A"\n', 'x <- "B"\n'), "p2": ('x <- "AB"\n', 'setwd("/gone")\n')}.items():
        make_package(tmp_path / "corpus", name, dict(zip(("a.R", "b.R"), files)))
    (tmp_path / "run.ini").write_text(_CUT_INI, encoding="utf-8")

    def run(store_path: Path) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([
                "run", "--corpus", str(tmp_path / "corpus"), "--store", str(store_path), "--config",
                str(tmp_path / "run.ini"), "--modes", "raw,cleaned", "--jobs", str(jobs),
                "--scratch", str(store_path.parent / "scratch"),
            ]) == 0

    (tmp_path / "uncut").mkdir()
    run(tmp_path / "uncut" / "s.jsonl")
    uncut = (tmp_path / "uncut" / "s.jsonl").read_bytes()
    expected = _reports_blanked(tmp_path / "uncut" / "s.jsonl", tmp_path / "uncut" / "o")
    line_ends = [i + 1 for i, byte in enumerate(uncut) if byte == ord("\n")]

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([0, *line_ends]) | st.integers(0, len(uncut)))
    def cut_and_resume(cut: int):
        with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
            store_path = Path(tmp) / "s.jsonl"
            store_path.write_bytes(uncut[:cut])
            run(store_path)
            assert _reports_blanked(store_path, Path(tmp) / "o") == expected

    cut_and_resume()


def test_analyze_csv_format(cli_corpus: Path, tmp_path: Path):
    out = tmp_path / "metrics-csv"
    assert main(["analyze", "--corpus", str(cli_corpus), "--out", str(out), "--format", "csv"]) == 0
    header = (out / "file_metrics.csv").read_text().split("\n", 1)[0]
    assert "code_lines" in header and "dependencies" in header
    assert (out / "package_census.csv").exists()
    assert (out / "corpus_summary.json").exists()

    make_package(tmp_path / "no-r", "pkg", {"README.md": "no code\n"})
    out = tmp_path / "no-r-csv"
    assert main(["analyze", "--corpus", str(tmp_path / "no-r"), "--out", str(out), "--format", "csv"]) == 0
    assert (out / "file_metrics.csv").read_bytes() == b""
    assert (out / "package_census.csv").read_text().count("\n") == 2  # header and one package


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


def test_run_refuses_an_interpreter_label_that_leaves_the_scratch_root(tmp_path: Path, capsys):
    make_package(tmp_path / "corpus", "pkg", {"a.R": "x <- 1\n"})
    config = tmp_path / "run.ini"
    config.write_text("[interpreter.v/../../outside]\ncommand = sh {script}\n", encoding="utf-8")
    code = main([
        "run", "--corpus", str(tmp_path / "corpus"), "--store", str(tmp_path / "work" / "s.jsonl"),
        "--config", str(config), "--modes", "raw", "--scratch", str(tmp_path / "work" / "scratch"),
        "--keep-workspaces",
    ])
    assert code == 5
    assert "path separator" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus", "run.ini"]


def test_run_interpreter_that_cannot_start_exit_5(tmp_path: Path, capsys):
    make_package(tmp_path / "corpus", "pkg", {"a.R": "x <- 1\n"})
    config = tmp_path / "run.ini"
    config.write_text("[interpreter.R9]\ncommand = /etc/passwd {script}\n", encoding="utf-8")
    store_path = tmp_path / "s.jsonl"
    code = main([
        "run", "--corpus", str(tmp_path / "corpus"), "--store", str(store_path),
        "--config", str(config), "--modes", "raw", "--scratch", str(tmp_path / "scratch"),
    ])
    assert code == 5
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: interpreter 'R9': ") and "Permission denied" in err[0]
    assert RunStore.load(store_path).outcomes() == []


def test_run_gives_each_child_an_empty_stdin(tmp_path: Path):
    make_package(tmp_path / "corpus", "pkg", {"a.R": "x <- 1\n", "b.R": "y <- 2\n"})
    config = tmp_path / "run.ini"
    config.write_text(
        '[interpreter.sh]\ncommand = sh -c "read x && { echo got:$x >&2; exit 3; }; exit 0" {script}\n',
        encoding="utf-8",
    )
    store_path = tmp_path / "s.jsonl"
    # a subprocess, because pytest's capture already gives this process /dev/null as its stdin
    proc = subprocess.run(
        [sys.executable, "-m", "reprorun", "run", "--corpus", str(tmp_path / "corpus"), "--store", str(store_path),
         "--config", str(config), "--modes", "raw", "--jobs", "1", "--scratch", str(tmp_path / "scratch")],
        input="secret-from-parent\n", capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    outcomes = RunStore.load(store_path).outcomes()
    assert [(o.file, o.verdict, o.stderr_tail) for o in outcomes] == [("a.R", "success", ""), ("b.R", "success", "")]


def test_run_counts_the_units_that_failed_on_stderr(tmp_path: Path, capsys):
    corpus = _ingest_packages(tmp_path, {"pkg": {"a.R": "x <- 1\n", "data.csv": "1\n"}})
    (tmp_path / "sources" / "pkg" / "data.csv").unlink()  # listed in the manifest, gone from the package
    argv = [
        "run", "--corpus", str(corpus), "--store", str(tmp_path / "s.jsonl"), "--stub", "--modes", "raw",
        "--scratch", str(tmp_path / "scratch"),
    ]
    capsys.readouterr()
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("recorded 0 outcomes in ")
    assert err == (
        "failed units: 1 (workspace_failure or infrastructure_failure);"
        " they hold no outcome and run again on resume\n"
    )
    (tmp_path / "sources" / "pkg" / "data.csv").write_text("1\n", encoding="utf-8")
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("recorded 3 outcomes in ") and err == ""  # one file under the three stub versions


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


def _ingest_metadata_without_value(tmp_path: Path) -> list[str]:
    make_package(tmp_path / "sources", "pkg", {"a.R": "x <- 1\n"})
    return ["ingest", "--dest", str(tmp_path / "corpus"), "--local", str(tmp_path / "sources" / "pkg"),
            "--metadata", "novalue"]


def _run_on_manifest_metadata_list(tmp_path: Path) -> list[str]:
    corpus = _ingested_corpus(tmp_path)
    path = corpus / "manifests" / "local_pkg.json"
    path.write_text(json.dumps({**json.loads(path.read_text(encoding="utf-8")), "metadata": ["x"]}), encoding="utf-8")
    return ["run", "--corpus", str(corpus), "--store", str(tmp_path / "new.jsonl"), "--stub"]


def _report_on_package_metadata_list(tmp_path: Path) -> list[str]:
    store_path = _store_with(tmp_path, {"kind": "package", "package_id": "p", "metadata": ["x"]})
    return ["report", "--store", str(store_path), "--out", str(tmp_path / "o"), "--group-by", "journal"]


def _run_on_manifest_publication_date_int(tmp_path: Path) -> list[str]:
    corpus = _ingested_corpus(tmp_path)
    path = corpus / "manifests" / "local_pkg.json"
    data = {**json.loads(path.read_text(encoding="utf-8")), "publication_date": 2019}
    path.write_text(json.dumps(data), encoding="utf-8")
    return ["run", "--corpus", str(corpus), "--store", str(tmp_path / "new.jsonl"), "--stub", "--modes", "raw"]


def _report_on_year_date_int(tmp_path: Path) -> list[str]:
    store_path = _store_with(tmp_path, {"kind": "package", "package_id": "p", "publication_date": 2019})
    return ["report", "--store", str(store_path), "--out", str(tmp_path / "o"), "--group-by", "year"]


VICTIM = 'setwd("/elsewhere")\n'


def _corpus_listing(tmp_path: Path, relative_path: str) -> Path:
    """An ingested corpus whose manifest also lists ``relative_path``, with a victim file outside each root."""
    corpus = _ingested_corpus(tmp_path)
    for victim in (tmp_path / "victim.R", tmp_path / "sources" / "escaped.R"):
        victim.write_text(VICTIM, encoding="utf-8")
    path = corpus / "manifests" / "local_pkg.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    data["files"].append({"relative_path": relative_path, "size": len(VICTIM)})
    path.write_text(json.dumps(data), encoding="utf-8")
    return corpus


def _run_cleaned(corpus: Path, tmp_path: Path) -> list[str]:
    return [
        "run", "--corpus", str(corpus), "--store", str(tmp_path / "new.jsonl"), "--stub", "--modes", "cleaned",
        "--scratch", str(tmp_path / "scratch"),
    ]


def _run_on_manifest_absolute_path(tmp_path: Path) -> list[str]:
    return _run_cleaned(_corpus_listing(tmp_path, str(tmp_path / "victim.R")), tmp_path)


def _run_on_manifest_parent_path(tmp_path: Path) -> list[str]:
    return _run_cleaned(_corpus_listing(tmp_path, "../escaped.R"), tmp_path)


def _clean_on_manifest_absolute_path(tmp_path: Path) -> list[str]:
    return ["clean", "--corpus", str(_corpus_listing(tmp_path, str(tmp_path / "victim.R"))), "--out", str(tmp_path / "o")]


def _clean_on_manifest_parent_path(tmp_path: Path) -> list[str]:
    return ["clean", "--corpus", str(_corpus_listing(tmp_path, "../escaped.R")), "--out", str(tmp_path / "o")]


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
        (_ingest_metadata_without_value, 2, False),
        (_run_on_manifest_metadata_list, 2, False),
        (_run_on_manifest_publication_date_int, 2, False),
        (_report_on_package_metadata_list, 6, False),
        (_report_on_year_date_int, 6, False),
        (_run_on_manifest_absolute_path, 2, False),
        (_run_on_manifest_parent_path, 2, False),
        (_clean_on_manifest_absolute_path, 2, False),
        (_clean_on_manifest_parent_path, 2, False),
    ],
    ids=[
        "manifest-not-json", "manifest-without-id", "run-corrupt-store", "out-not-writable",
        "report-disjoint-modes", "report-package-without-id", "run-completed-without-mode",
        "run-package-id-list", "report-package-id-list", "run-completed-mode-list", "report-completed-mode-list",
        "run-interpreter-without-script", "missing-local-dir", "ingest-metadata-without-value",
        "run-manifest-metadata-list", "run-manifest-publication-date-int", "report-package-metadata-list",
        "report-year-date-int",
        "run-manifest-absolute-path", "run-manifest-parent-path", "clean-manifest-absolute-path",
        "clean-manifest-parent-path",
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
    # a manifest path that leaves its package writes nothing outside the package, workspace or output
    assert not (tmp_path / "scratch" / "escaped.R").exists() and not (tmp_path / "o" / "escaped.R").exists()
    for victim in (tmp_path / "victim.R", tmp_path / "sources" / "escaped.R"):
        assert not victim.exists() or victim.read_text(encoding="utf-8") == VICTIM


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

    assert main([
        "report", "--store", str(store_path), "--out", str(report_dir), "--group-by", "journal", "--mode", "raw",
    ]) == 0
    assert (report_dir / "report.csv").read_text() == GROUP_HEADER  # no raw outcomes, no rows


def test_report_overlay_on_null_package_metadata(tmp_path: Path):
    store_path = _store_with(tmp_path, {"kind": "package", "package_id": "p", "metadata": None})
    (tmp_path / "labels.json").write_text(json.dumps({"p": {"journal": "J"}}), encoding="utf-8")
    assert main([
        "report", "--store", str(store_path), "--out", str(tmp_path / "o"), "--group-by", "journal",
        "--mode", "raw", "--metadata-file", str(tmp_path / "labels.json"),
    ]) == 0
    assert (tmp_path / "o" / "report.csv").read_text() == GROUP_HEADER + "J,1.0,1.0,1,1\n"


def _mock_datasets() -> list[MockDataset]:
    return [
        MockDataset(
            persistent_id=f"doi:10.5072/FK2/CLI{i}",
            dataverse_name=f"Journal{i % 2}",
            files=[MockFile("a.R", f"x <- {i}\nprint(x)\n".encode(), corrupt_checksum=i == 2),
                   MockFile("data.csv", b"a,b\n1,2\n")],
        )
        for i in range(3)
    ]


def test_ingest_from_a_repository_verifies_and_skips_saved_packages(tmp_path: Path, monkeypatch, capsys):
    downloads = []
    download = DataverseClient.download_file

    def counting_download(self, file_id, dest):
        downloads.append(file_id)
        download(self, file_id, dest)

    monkeypatch.setattr(DataverseClient, "download_file", counting_download)
    dest = tmp_path / "corpus"
    with MockDataverse(_mock_datasets()) as mock:
        argv = ["ingest", "--dest", str(dest), "--api-base", mock.base_url, "--query", "*", "--limit", "3",
                "--jobs", "2"]
        assert main(argv) == 0
        manifests = {m.ref.persistent_id: m for m in ingest.discover_corpus(dest)}
        assert len(manifests) == 3 and len(downloads) == 6
        verified = {(pid[-4:], e.relative_path): e.verified for pid, m in manifests.items() for e in m.files}
        assert verified.pop(("CLI2", "a.R")) == "mismatch"
        assert set(verified.values()) == {"ok"}
        saved = {p.name: p.read_bytes() for p in (dest / "manifests").iterdir()}

        downloads.clear()
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out.count("manifest exists") == 3
        assert downloads == []
        assert {p.name: p.read_bytes() for p in (dest / "manifests").iterdir()} == saved

        assert main([*argv, "--force"]) == 0
        assert len(downloads) == 6


def test_ingest_local_twice_skips_the_second_time(tmp_path: Path, capsys):
    make_package(tmp_path / "sources", "pkg", {"a.R": "x <- 1\n"})
    argv = ["ingest", "--dest", str(tmp_path / "corpus"), "--local", str(tmp_path / "sources" / "pkg")]
    assert main(argv) == 0
    saved = (tmp_path / "corpus" / "manifests" / "local_pkg.json").read_bytes()
    capsys.readouterr()
    assert main(argv) == 0
    assert "skip local:pkg: manifest exists" in capsys.readouterr().out
    assert (tmp_path / "corpus" / "manifests" / "local_pkg.json").read_bytes() == saved


def _comparable_manifest(path: Path) -> str:
    data = json.loads(path.read_text(encoding="utf-8"))
    del data["fetched_at"], data["root"]
    return json.dumps(data)  # keeps the saved key order


def test_ingest_stopped_by_one_package_keeps_the_manifests_of_the_others(tmp_path: Path, monkeypatch, capsys):
    datasets = [
        MockDataset(persistent_id=f"doi:10.5072/FK2/STOP{i}",
                    files=[MockFile("a.R", f"x <- {i}\n".encode()), MockFile("data.csv", b"a,b\n1,2\n")])
        for i in range(4)
    ]
    failing = datasets[2].persistent_id
    fetch_package, fetched, disk = ingest.fetch_package, [], {"full": True}

    def fetch_unless_the_disk_is_full(ref, dest, client):
        fetched.append(ref.persistent_id)
        if ref.persistent_id == failing and disk["full"]:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return fetch_package(ref, dest, client)

    with MockDataverse(datasets) as mock:
        def argv(dest: Path) -> list[str]:
            return ["ingest", "--dest", str(dest), "--api-base", mock.base_url, "--query", "*", "--jobs", "1"]

        assert main(argv(tmp_path / "clean")) == 0
        monkeypatch.setattr(ingest, "fetch_package", fetch_unless_the_disk_is_full)
        capsys.readouterr()
        assert main(argv(tmp_path / "corpus")) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        saved = sorted(p.name for p in (tmp_path / "corpus" / "manifests").iterdir())
        assert saved == sorted(f"{ingest.package_slug(d.persistent_id)}.json" for d in datasets if d.persistent_id != failing)
        for name in saved:
            clean = tmp_path / "clean" / "manifests" / name
            assert _comparable_manifest(tmp_path / "corpus" / "manifests" / name) == _comparable_manifest(clean)

        disk["full"], fetched[:] = False, []
        assert main(argv(tmp_path / "corpus")) == 0
    out = capsys.readouterr().out
    assert out.count("manifest exists") == 3 and f"fetched {failing}:" in out
    assert fetched == [failing]


@pytest.mark.parametrize(
    "field, value",
    [("size", "7"), ("root", 5), ("persistent_id", 5), ("fetch_status", None)],
)
def test_analyze_on_a_mistyped_manifest_field_exits_2(tmp_path: Path, capsys, field: str, value):
    corpus = _ingested_corpus(tmp_path)
    path = corpus / "manifests" / "local_pkg.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    (data["files"][0] if field == "size" else data)[field] = value
    path.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    assert main(["analyze", "--corpus", str(corpus), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read manifest {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "line, field, value",
    [(4, "verdict", "crashed"), (4, "error_category", "segfault"), (4, "error_category", 5), (4, "package_id", 3),
     (4, "cleaning_mode", 1), (2, "fetch_status", ["ok"]), (2, "fetch_status", None)],
)
def test_report_on_a_record_it_cannot_fold_exits_6_naming_its_line(tmp_path: Path, capsys, line: int, field, value):
    outcome = {"kind": "outcome", "file": "a.R", "interpreter_label": "R1", "cleaning_mode": "raw", "verdict": "error"}
    records = [  # well formed but for the one field set below
        {"kind": "config", "run_id": "r", "config": {}},
        {"kind": "package", "package_id": "p1", "metadata": {"journal": "A"}, "fetch_status": "ok"},
        {"kind": "package", "package_id": "p2", "metadata": {"journal": "B"}, "fetch_status": "partial"},
        {**outcome, "package_id": "p1", "error_category": "setwd"},
        {**outcome, "package_id": "p2", "error_category": "library"},
    ]
    records[line - 1][field] = value
    store_path = tmp_path / "s.jsonl"
    store_path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--store", str(store_path), "--out", str(tmp_path / "o")]) == 6
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and f"at line {line} of {store_path}" in err


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6) | st.sampled_from([*VERDICTS, *ERROR_CATEGORIES]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)
# (line, key path) of each value of the store below that a report reads, or that loading its record reads
_READ_FIELDS = [
    (1, ("run_id",)),
    *((2, (name,)) for name in ("package_id", "metadata", "publication_date", "fetch_status")),
    (2, ("metadata", "journal")),
    (2, ("metadata", "subject")),
    (2, ("metadata", "year")),
    *((3, (name,)) for name in ("package_id", "file", "interpreter_label", "cleaning_mode", "verdict", "error_category")),
    (4, ("package_id",)),
    (4, ("mode",)),
]


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(_READ_FIELDS), _JSON_VALUES)
@example((2, ("metadata", "subject")), 5)
def test_report_on_any_value_in_a_field_it_reads_exits_0_or_6(target, value):
    line, keys = target
    records = [
        {"kind": "config", "run_id": "r", "config": {}},
        {"kind": "package", "package_id": "p", "metadata": {"journal": "J"}, "publication_date": "2019-01-01",
         "fetch_status": "ok"},
        {"kind": "outcome", "package_id": "p", "file": "a.R", "interpreter_label": "R1", "cleaning_mode": "cleaned",
         "verdict": "error", "error_category": "setwd"},
        {"kind": "package_event", "package_id": "p", "mode": "cleaned", "event": "completed"},
    ]
    holder = records[line - 1]
    for key in keys[:-1]:
        holder = holder[key]
    holder[keys[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "s.jsonl"
        store_path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        for extra in (
            [],
            ["--group-by", "version", "--format", "json"],
            ["--group-by", "journal", "--format", "csv"],
            ["--group-by", "subject", "--format", "json"],
            ["--group-by", "year", "--format", "csv"],
        ):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["report", "--store", str(store_path), "--out", str(Path(tmp) / "o"), *extra])
            assert code in (0, 6)
            if code == 6:
                message = err.getvalue()
                assert message.startswith("error: ") and message.count("\n") == 1
                assert f"at line {line} of {store_path}" in message


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
