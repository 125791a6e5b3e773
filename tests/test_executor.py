from __future__ import annotations

import os
import time
from collections import Counter
from pathlib import Path

import pytest

import reprorun.executor as executor_mod
from reprorun.executor import (
    Budget,
    ExecutionOutcome,
    InterpreterConfigError,
    InterpreterSpec,
    WorkspaceError,
    classify_error,
    execute_file,
    execute_package,
    no_network_env,
    run_matrix,
    validate_interpreters,
)
from reprorun.results import group_report
from reprorun.store import RunStore

from conftest import make_demo_corpus, make_package, stub_spec


# --- error classification (strings frozen from real R sessions) -------------------


@pytest.mark.parametrize(
    "stderr,category",
    [
        ('Error in setwd("/x") : cannot change working directory', "setwd"),
        ("Error in library(foo) : there is no package called ‘foo’", "library"),
        ("Error in library(foo) : there is no package called 'foo'", "library"),
        ("Warning: package 'abc' is not available (for this R version)", "library"),
        ("unable to load shared object 'x.so'", "library"),
        ("Error in file(file, \"rt\") : cannot open file 'd.csv': No such file or directory", "file_path_output"),
        ("cannot open the connection", "file_path_output"),
        ("Error: object 'results' not found", "object_not_found"),
        ("", "other"),
        ("Error: something novel", "other"),
    ],
)
def test_classify_error(stderr, category):
    assert classify_error(stderr) == category


def test_classification_order_setwd_wins_over_file():
    # a setwd failure often also mentions the path; setwd rule is checked first
    stderr = 'Error in setwd("/gone") : cannot change working directory, No such file or directory'
    assert classify_error(stderr) == "setwd"


# --- single-file execution ----------------------------------------------------------


def run_one(tmp_path: Path, content: str, budget: float = 20.0, spec=None, **kwargs):
    workdir = tmp_path / "ws"
    workdir.mkdir(exist_ok=True)
    script = workdir / "script.R"
    script.write_text(content, encoding="utf-8")
    return execute_file(script, spec or stub_spec(), budget, workdir, **kwargs)


@pytest.fixture(params=["pidfd", "polling"])
def wait_path(request, monkeypatch):
    """Run a test on the pidfd wait and on the polling fallback."""
    if request.param == "polling":
        monkeypatch.delattr(os, "pidfd_open", raising=False)


def test_zero_exit_is_success(tmp_path: Path, wait_path):
    outcome = run_one(tmp_path, "x <- 1\nprint(x)\n")
    assert outcome.verdict == "success"
    assert outcome.exit_code == 0
    assert outcome.error_category is None


def test_sleep_beyond_budget_is_tle(tmp_path: Path, wait_path):
    start = time.monotonic()
    outcome = run_one(tmp_path, "Sys.sleep(5)\n", budget=0.5)
    assert outcome.verdict == "tle"
    assert outcome.exit_code is None
    assert outcome.error_category is None
    assert outcome.wall_time <= 1.0
    assert time.monotonic() - start < 3.0  # the kill really happened


def test_missing_library_is_error_library(tmp_path: Path, wait_path):
    outcome = run_one(tmp_path, "library(xyz)\n")
    assert outcome.verdict == "error"
    assert outcome.exit_code == 1
    assert outcome.error_category == "library"
    assert "there is no package called" in outcome.stderr_tail


def _exited(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    # a killed orphan stays a zombie until init reaps it, which can take seconds
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return False


def test_background_child_killed_after_success(tmp_path: Path, wait_path):
    spec = InterpreterSpec("sh", ("sh", "{script}"))
    outcome = run_one(tmp_path, "sleep 30 & echo $! > bg.pid\nexit 0\n", spec=spec)
    assert outcome.verdict == "success"
    pid = int((tmp_path / "ws" / "bg.pid").read_text())
    # SIGKILL is delivered asynchronously; allow it to land, not the sleep to end
    deadline = time.monotonic() + 10.0
    while not _exited(pid) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _exited(pid)


def test_bad_setwd_is_error_setwd(tmp_path: Path):
    outcome = run_one(tmp_path, 'setwd("/nonexistent/dir")\n')
    assert outcome.verdict == "error"
    assert outcome.error_category == "setwd"


def test_missing_interpreter_is_config_error(tmp_path: Path):
    spec = InterpreterSpec("broken", ("/no/such/interpreter", "{script}"))
    with pytest.raises(InterpreterConfigError):
        run_one(tmp_path, "x <- 1\n", spec=spec)


def test_stderr_tail_is_bounded(tmp_path: Path):
    lines = "\n".join(f'stop("{"x" * 80}")' for _ in range(1))
    outcome = run_one(tmp_path, lines + "\n", stderr_limit=64)
    assert len(outcome.stderr_tail.encode()) <= 64


def test_guarded_install_succeeds_with_repo(tmp_path: Path):
    content = (
        'if (!require("dplyr")) install.packages("dplyr", repos="http://cran.us.r-project.org");'
        " library(dplyr)\n"
    )
    outcome = run_one(tmp_path, content, spec=stub_spec(repo="dplyr"))
    assert outcome.verdict == "success"


def test_guarded_install_fails_without_network(tmp_path: Path):
    content = (
        'if (!require("dplyr")) install.packages("dplyr", repos="http://cran.us.r-project.org");'
        " library(dplyr)\n"
    )
    outcome = run_one(
        tmp_path, content, spec=stub_spec(repo="dplyr"), extra_env=no_network_env()
    )
    assert outcome.verdict == "error"
    assert outcome.error_category == "library"


def test_validate_interpreters():
    with pytest.raises(InterpreterConfigError):
        validate_interpreters([stub_spec("a"), stub_spec("a")])
    with pytest.raises(InterpreterConfigError):
        validate_interpreters([InterpreterSpec("x", ("Rscript",))])


# --- package execution ---------------------------------------------------------------


def test_lexicographic_order_within_package(tmp_path: Path):
    manifest = make_package(
        tmp_path,
        "ordered",
        {
            "01_a.R": 'writeLines("stage one", "a_done.txt")\n',
            "02_b.R": 'x <- readLines("a_done.txt")\nprint(x)\n',
        },
    )
    outcomes = execute_package(manifest, [stub_spec()], Budget(5, 10), "raw", tmp_path / "scratch")
    assert [o.file for o in outcomes] == ["01_a.R", "02_b.R"]
    assert [o.verdict for o in outcomes] == ["success", "success"]


def test_relative_scratch_root_still_finds_scripts(tmp_path: Path, monkeypatch):
    # regression: templates must get absolute paths, the child cwd differs
    manifest = make_package(tmp_path, "relpkg", {"a.R": "x <- 1\nprint(x)\n"})
    monkeypatch.chdir(tmp_path)
    outcomes = execute_package(manifest, [stub_spec()], Budget(5, 10), "raw", Path("scratch"))
    assert [o.verdict for o in outcomes] == ["success"]


def test_package_budget_exhaustion_leaves_unassigned(tmp_path: Path):
    manifest = make_package(
        tmp_path,
        "slowpkg",
        {"01_slow.R": "Sys.sleep(5)\n", "02_next.R": "x <- 1\n"},
    )
    outcomes = execute_package(
        manifest, [stub_spec()], Budget(1.0, 1.0), "raw", tmp_path / "scratch"
    )
    assert [o.verdict for o in outcomes] == ["tle", "unassigned"]
    unassigned = outcomes[1]
    assert unassigned.exit_code is None and unassigned.wall_time == 0.0


def test_package_execution_deterministic(tmp_path: Path):
    manifest = make_package(
        tmp_path,
        "det",
        {"a.R": "x <- 1\nprint(x)\n", "b.R": "library(gone)\n", "c.R": 'setwd("/nope")\n'},
    )
    def verdicts():
        outcomes = execute_package(
            manifest, [stub_spec()], Budget(5, 20), "raw", tmp_path / "scratch"
        )
        return Counter((o.file, o.verdict, o.error_category) for o in outcomes)

    assert verdicts() == verdicts()


def test_cleaned_mode_cleans_the_package_sources(tmp_path: Path):
    manifest = make_package(tmp_path / "src", "needsclean", {"a.R": 'setwd("/no/such/dir")\nx <- 1\n'})
    raw, cleaned = (
        execute_package(manifest, [stub_spec()], Budget(5, 10), mode, tmp_path / "scratch")
        for mode in ("raw", "cleaned")
    )
    assert [(o.verdict, o.error_category) for o in raw] == [("error", "setwd")]
    assert [(o.verdict, o.error_category) for o in cleaned] == [("success", None)]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scratch", "src"]  # no cleaned tree anywhere
    assert sorted(p.name for p in (tmp_path / "src" / "needsclean").iterdir()) == ["a.R"]


def test_unreadable_r_file_in_cleaned_mode_is_a_workspace_failure(tmp_path: Path):
    manifest = make_package(tmp_path, "gone", {"a.R": "x <- 1\n"})
    (tmp_path / "gone" / "a.R").unlink()
    for mode in ("raw", "cleaned"):
        with pytest.raises(WorkspaceError):
            execute_package(manifest, [stub_spec()], Budget(5, 10), mode, tmp_path / "scratch")


def test_failed_workspace_setup_leaves_no_workspace(tmp_path: Path):
    manifest = make_package(tmp_path, "gone", {"a.R": "x <- 1\n", "b.csv": "1,2\n"})
    (tmp_path / "gone" / "b.csv").unlink()
    scratch = tmp_path / "scratch"
    for mode in ("raw", "cleaned"):
        with pytest.raises(WorkspaceError, match="b.csv"):
            execute_package(manifest, [stub_spec()], Budget(5, 10), mode, scratch)
    assert list(scratch.iterdir()) == []


def test_workspace_destroyed_unless_keep(tmp_path: Path):
    manifest = make_package(tmp_path, "wipe", {"a.R": "x <- 1\n"})
    scratch = tmp_path / "scratch"
    execute_package(manifest, [stub_spec()], Budget(5, 10), "raw", scratch)
    assert list(scratch.iterdir()) == []
    execute_package(
        manifest, [stub_spec()], Budget(5, 10), "raw", scratch, keep_workspaces=True
    )
    assert len(list(scratch.iterdir())) == 1


def test_isolation_concurrent_divergent_data(tmp_path: Path):
    script = 'file.copy("input.txt", "output.txt")\n'
    manifest_a = make_package(tmp_path / "src", "iso-a", {"run.R": script, "input.txt": "AAA\n"})
    manifest_b = make_package(tmp_path / "src", "iso-b", {"run.R": script, "input.txt": "BBB\n"})
    source_snapshot = {
        p: p.read_bytes() for p in sorted((tmp_path / "src").rglob("*")) if p.is_file()
    }

    scratch = tmp_path / "scratch"
    store = RunStore.open(tmp_path / "store.jsonl")
    outcomes = list(
        run_matrix(
            [manifest_a, manifest_b], [stub_spec()], Budget(5, 10), ["raw"], store, scratch,
            jobs=2, keep_workspaces=True,
        )
    )
    store.close()
    assert Counter(o.verdict for o in outcomes) == Counter({"success": 2})
    assert (scratch / "local_iso-a__stubR__raw" / "output.txt").read_text() == "AAA\n"
    assert (scratch / "local_iso-b__stubR__raw" / "output.txt").read_text() == "BBB\n"
    # nothing escaped into the source packages
    current = {p: p.read_bytes() for p in sorted((tmp_path / "src").rglob("*")) if p.is_file()}
    assert current == source_snapshot


# --- run_matrix ------------------------------------------------------------------------


def _run_corpus(manifests, tmp_path: Path, jobs: int, tag: str):
    store = RunStore.open(tmp_path / f"store-{tag}.jsonl")
    outcomes = list(
        run_matrix(
            manifests,
            [stub_spec("R1", repo="dplyr"), stub_spec("R2", repo="dplyr")],
            Budget(1.0, 3.0),
            ["raw"],
            store,
            tmp_path / f"scratch-{tag}",
            jobs=jobs,
        )
    )
    store.close()
    return outcomes, store


def test_parallel_matches_serial(tmp_path: Path):
    manifests = make_demo_corpus(tmp_path / "corpus")
    serial, _ = _run_corpus(manifests, tmp_path, jobs=1, tag="serial")
    parallel, _ = _run_corpus(manifests, tmp_path, jobs=4, tag="parallel")
    key = lambda o: (o.package_id, o.file, o.interpreter_label, o.verdict, o.error_category)
    assert Counter(map(key, serial)) == Counter(map(key, parallel))
    assert len(parallel) == 10  # 5 packages with one R file each x 2 interpreters
    # per-file budget (1.0 s) plus kill grace bounds every recorded wall time
    assert all(o.wall_time <= 1.0 + 2.0 for o in serial + parallel)


def test_zero_packages_empty_stream(tmp_path: Path):
    store = RunStore.open(tmp_path / "store.jsonl")
    assert list(run_matrix([], [stub_spec()], Budget(1, 1), ["raw"], store, tmp_path / "s")) == []
    store.close()


def test_run_matrix_checks_interpreters_before_it_writes(tmp_path: Path):
    manifest = make_package(tmp_path, "pkg", {"a.R": "x <- 1\n"})
    store = RunStore.open(tmp_path / "store.jsonl")
    stream = run_matrix([manifest], [stub_spec("a"), stub_spec("a")], Budget(5, 10), ["raw"], store, tmp_path / "s")
    with pytest.raises(InterpreterConfigError, match="duplicate"):
        next(stream)
    store.close()
    assert store.packages() == {} and store.events() == []


def test_crashed_worker_isolated_to_its_package(tmp_path: Path, monkeypatch):
    manifests = [
        make_package(tmp_path, "okpkg", {"a.R": "x <- 1\n"}),
        make_package(tmp_path, "doomed", {"a.R": "x <- 1\n"}),
    ]
    real = executor_mod.execute_package

    def flaky(manifest, *args, **kwargs):
        if manifest.ref.persistent_id == "local:doomed":
            raise RuntimeError("simulated worker crash")
        return real(manifest, *args, **kwargs)

    monkeypatch.setattr(executor_mod, "execute_package", flaky)
    store = RunStore.open(tmp_path / "store.jsonl")
    outcomes = list(
        run_matrix(manifests, [stub_spec()], Budget(5, 10), ["raw"], store, tmp_path / "s", jobs=2)
    )
    store.close()
    assert {o.package_id for o in outcomes} == {"local:okpkg"}
    events = {(e["package_id"], e["event"]) for e in store.events()}
    assert ("local:doomed", "infrastructure_failure") in events
    assert ("local:okpkg", "completed") in events


def test_workspace_failure_recorded_as_package_fatal(tmp_path: Path):
    manifest = make_package(tmp_path, "ghost", {"a.R": "x <- 1\n"})
    (Path(manifest.root) / "a.R").unlink()  # manifest now lies about the directory
    store = RunStore.open(tmp_path / "store.jsonl")
    outcomes = list(
        run_matrix([manifest], [stub_spec()], Budget(5, 10), ["raw"], store, tmp_path / "s")
    )
    store.close()
    assert outcomes == []
    assert [e["event"] for e in store.events()] == ["workspace_failure"]


def test_resume_skips_completed_runs(tmp_path: Path):
    manifests = [
        make_package(tmp_path, "done", {"a.R": "x <- 1\n"}),
        make_package(tmp_path, "todo", {"a.R": "x <- 1\n"}),
    ]
    store = RunStore.open(tmp_path / "store.jsonl")
    store.append_event("local:done", "raw", "completed")
    outcomes = list(
        run_matrix(manifests, [stub_spec()], Budget(5, 10), ["raw"], store, tmp_path / "s")
    )
    store.close()
    assert {o.package_id for o in outcomes} == {"local:todo"}


def test_resume_supersedes_killed_attempt(tmp_path: Path):
    manifest = make_package(tmp_path, "pkg", {"a.R": "x <- 1\n"})
    path = tmp_path / "store.jsonl"
    store = RunStore.open(path)
    store.append_package(manifest)
    # a killed attempt: one outcome of the unit and no completed event
    store.append_outcome(
        ExecutionOutcome("local:pkg", "a.R", "R3.2", "raw", "error", error_category="other", exit_code=1)
    )
    store.close()
    store = RunStore.open(path)
    outcomes = list(
        run_matrix([manifest], [stub_spec("R3.2")], Budget(5, 10), ["raw"], store, tmp_path / "s")
    )
    store.close()
    assert [o.verdict for o in outcomes] == ["success"]
    (row,) = group_report(RunStore.load(path), "interpreter_label", mode="raw")
    assert (row["group"], row["file_success_rate"], row["n_files"]) == ("R3.2", 1.0, 1)


def test_closing_the_stream_cancels_units_not_started(tmp_path: Path):
    manifests = [make_package(tmp_path, f"slow{i}", {"a.R": "Sys.sleep(0.5)\n"}) for i in range(4)]
    store = RunStore.open(tmp_path / "store.jsonl")
    stream = run_matrix(manifests, [stub_spec()], Budget(5, 10), ["raw"], store, tmp_path / "s", jobs=1)
    first = next(stream)
    assert first.verdict == "success"
    stream.close()
    store.close()
    assert len(store.outcomes()) < 4
