from __future__ import annotations

import errno
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import reprorun.executor as executor_mod
from reprorun.executor import (
    DEFAULT_STDERR_TAIL,
    ERROR_CATEGORIES,
    VERDICTS,
    Budget,
    ExecutionOutcome,
    InterpreterConfigError,
    InterpreterSpec,
    WorkspaceError,
    child_env,
    classify_error,
    execute_file,
    execute_package,
    no_network_env,
    run_matrix,
    validate_interpreters,
)
from reprorun.results import combined_results, group_report, overview, render_json, success_rate
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


def test_outcome_vocabulary_is_named_once():
    assert VERDICTS == ("success", "error", "tle", "unassigned")
    assert ERROR_CATEGORIES == ("setwd", "library", "file_path_output", "object_not_found", "other")
    # one pattern per category, in the order the classifier tries them
    assert [category for category, _ in executor_mod._CLASSIFICATION_RULES] == list(ERROR_CATEGORIES[:-1])
    assert classify_error("Error: setwd failed") == "setwd"


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


@pytest.mark.parametrize("program", ["not-executable", "directory", "no-format"])
def test_interpreter_that_cannot_start_is_config_error(tmp_path: Path, program: str):
    path = tmp_path / program
    if program == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\x00\x01 not a program\n")
        path.chmod(0o644 if program == "not-executable" else 0o755)
    with pytest.raises(InterpreterConfigError, match=f"interpreter 'broken': .*{program}"):
        run_one(tmp_path, "x <- 1\n", spec=InterpreterSpec("broken", (str(path), "{script}")))


def test_process_creation_failure_is_not_a_config_error(tmp_path: Path, monkeypatch):
    def no_fork(*args, **kwargs):
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(executor_mod.subprocess, "Popen", no_fork)
    with pytest.raises(BlockingIOError):
        run_one(tmp_path, "x <- 1\n")


# The child writes its script argument and three variables to stderr.
ENV_PROBE = (
    "import os, sys; sys.stderr.write(' '.join([sys.argv[1]]"
    " + [os.environ.get(k, '-') for k in ('PROBE_BASE', 'PROBE_SPEC', 'PROBE_EXTRA')]))"
)


def test_direct_call_lays_the_overlays_over_the_current_environment(tmp_path: Path, monkeypatch):
    overlay = {"PROBE_SPEC": "spec", "PROBE_EXTRA": "spec"}
    spec = InterpreterSpec("probe", (sys.executable, "-c", ENV_PROBE, "{script}"), env=overlay)
    (tmp_path / "ws").mkdir()
    (tmp_path / "ws" / "a.R").write_text("x <- 1\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    tails = []
    for base in ("one", "two"):
        monkeypatch.setenv("PROBE_BASE", base)
        outcome = execute_file("ws/a.R", spec, 20.0, "ws", env=child_env(spec, {"PROBE_EXTRA": "extra"}))
        assert (outcome.file, outcome.verdict) == ("a.R", "success")
        tails.append(outcome.stderr_tail)
    script = tmp_path / "ws" / "a.R"
    assert tails == [f"{script} one spec extra", f"{script} two spec extra"]


def test_stderr_tail_is_bounded(tmp_path: Path):
    outcome = run_one(tmp_path, f'stop("{"x" * 20_000}")\n')
    assert outcome.verdict == "error"
    assert 0 < len(outcome.stderr_tail.encode()) <= DEFAULT_STDERR_TAIL


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
    spec = stub_spec(repo="dplyr")
    outcome = run_one(tmp_path, content, spec=spec, env=child_env(spec, no_network_env()))
    assert outcome.verdict == "error"
    assert outcome.error_category == "library"


def test_validate_interpreters():
    with pytest.raises(InterpreterConfigError):
        validate_interpreters([stub_spec("a"), stub_spec("a")])
    with pytest.raises(InterpreterConfigError):
        validate_interpreters([InterpreterSpec("x", ("Rscript",))])
    with pytest.raises(InterpreterConfigError, match="path separator"):
        validate_interpreters([stub_spec("v/../../outside")])


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


def test_each_workspace_builds_its_child_environment_once(tmp_path: Path, monkeypatch):
    built = []

    def counted(interpreter, extra_env=None):
        built.append(interpreter.label)
        return real(interpreter, extra_env)

    real = executor_mod.child_env
    monkeypatch.setattr(executor_mod, "child_env", counted)
    guarded = 'if (!require("dplyr")) install.packages("dplyr", repos="http://m"); library(dplyr)\n'
    manifest = make_package(tmp_path, "three", {"a.R": "x <- 1\n", "b.R": guarded, "c.R": "y <- 2\n"})
    specs = [stub_spec("R1", repo="dplyr"), stub_spec("R2", repo="dplyr")]
    outcomes = execute_package(manifest, specs, Budget(5, 10), "raw", tmp_path / "scratch", network_allowed=False)
    assert built == ["R1", "R2"]
    # the overlay of each workspace's one environment reaches every child: no network for the install
    assert [(o.interpreter_label, o.file, o.error_category) for o in outcomes] == [
        (label, f, "library" if f == "b.R" else None) for label in ("R1", "R2") for f in ("a.R", "b.R", "c.R")
    ]


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


# Run as the first interpreter of a unit: changes the workspace every way a child can, at once.
MESS = """\
printf 'XXXX' 1<> data.csv
rm gone.txt
chmod 700 mode.txt
rm todir.txt && mkdir todir.txt
rm tolink.txt && ln -s "$1" tolink.txt
ln linked.txt hard.txt && printf 'YYYY' 1<> hard.txt
chmod 700 sub
echo added > added.txt && mkdir newdir && ln -s data.csv newlink
echo dplyr > .stubr-library
"""

RESTORED = {
    "a.R": MESS, "data.csv": "1234", "gone.txt": "g\n", "mode.txt": "m\n", "todir.txt": "d\n",
    "tolink.txt": "l\n", "linked.txt": "abcd", "sub/x.csv": "x\n",
}


def _snapshot_spec(label: str, dest: Path) -> InterpreterSpec:
    """An interpreter that copies its workspace to dest, symlinks and modes included."""
    return InterpreterSpec(label, ("sh", "-c", 'cp -Rp . "$0"', str(dest), "{script}"))


def _tree(root: Path) -> dict:
    """Every entry under root: its kind and mode, and a file's bytes or a symlink's target."""
    tree = {}
    for path in sorted(root.rglob("*")):
        st = path.lstat()
        if path.is_symlink():
            tree[path.relative_to(root).as_posix()] = ("link", os.readlink(path))
        else:
            tree[path.relative_to(root).as_posix()] = (
                oct(st.st_mode), None if path.is_dir() else path.read_bytes()
            )
    return tree


@pytest.mark.parametrize("keep_workspaces", [True, False])
def test_a_leftover_workspace_is_replaced(tmp_path: Path, keep_workspaces: bool):
    manifest = make_package(tmp_path, "left", {"a.R": "x <- 1\n"})
    scratch = tmp_path / "scratch"
    workspace = scratch / ("local_left__snap__raw" if keep_workspaces else "local_left__raw")
    (workspace / "locked").mkdir(parents=True)
    (workspace / "locked" / "stale.txt").write_text("from an earlier run\n", encoding="utf-8")
    (workspace / "locked").chmod(0o555)
    outcomes = execute_package(
        manifest, [_snapshot_spec("snap", tmp_path / "seen")], Budget(5, 10), "raw", scratch,
        keep_workspaces=keep_workspaces,
    )
    assert [o.verdict for o in outcomes] == ["success"]
    assert sorted(_tree(tmp_path / "seen")) == ["a.R"]
    assert [p.name for p in scratch.iterdir()] == (["local_left__snap__raw"] if keep_workspaces else [])


def test_the_next_interpreter_gets_the_package_files_back(tmp_path: Path):
    manifest = make_package(tmp_path, "messy", RESTORED)
    outside = tmp_path / "outside.txt"
    outside.write_text("not ours\n", encoding="utf-8")
    mess = InterpreterSpec("mess", ("sh", "{script}", str(outside)))
    scratch = tmp_path / "scratch"
    outcomes = execute_package(
        manifest, [mess, _snapshot_spec("after", tmp_path / "after")], Budget(5, 10), "raw", scratch
    )
    assert [(o.interpreter_label, o.verdict) for o in outcomes] == [("mess", "success"), ("after", "success")]
    execute_package(manifest, [_snapshot_spec("fresh", tmp_path / "fresh")], Budget(5, 10), "raw", scratch)
    restored = _tree(tmp_path / "after")
    assert restored == _tree(tmp_path / "fresh")
    assert {path: content for path, (_, content) in restored.items() if content is not None} == {
        path: content.encode() for path, content in RESTORED.items()
    }
    assert outside.read_text(encoding="utf-8") == "not ours\n"
    assert list(scratch.iterdir()) == []


@pytest.mark.parametrize("mode", ["raw", "cleaned"])
def test_each_planned_file_is_written_once_per_unit(tmp_path: Path, monkeypatch, mode: str):
    writes = []

    def counted(dest, source, stamp_ns):
        writes.append(Path(dest).name)
        return real(dest, source, stamp_ns)

    real = executor_mod._write
    monkeypatch.setattr(executor_mod, "_write", counted)
    files = {"a.R": "x <- 1\n", "b.R": "library(dplyr)\n", "data.csv": "1,2\n", "sub/c.R": "y <- 2\n"}
    manifest = make_package(tmp_path, "still", files)
    specs = [stub_spec("R1", preinstalled="dplyr"), stub_spec("R2", preinstalled="dplyr"), stub_spec("R3")]
    outcomes = execute_package(manifest, specs, Budget(5, 10), mode, tmp_path / "scratch")
    assert [o.verdict for o in outcomes] == ["success"] * 6 + ["success", "error", "success"]
    assert sorted(writes) == ["a.R", "b.R", "c.R", "data.csv"]
    assert list((tmp_path / "scratch").iterdir()) == []


# Run as each interpreter of a unit: records the workspace it was given, then locks what it leaves.
LOCK = """\
find . | LC_ALL=C sort >> "$1"
mkdir -p out/deep && echo r > out/deep/res.txt && ln -s "$2" outside
chmod 555 out/deep "$3"
"""

# Runs one unit twice on one scratch root, in a child process, so root can drop the
# capabilities that let it ignore permission bits.
LOCKED_RUNS = """\
import sys
from reprorun.executor import Budget, InterpreterSpec, execute_package
from reprorun.ingest import load_local_package

package, scratch, seen, outside = sys.argv[1:]
specs = [
    InterpreterSpec(label, ("sh", "{script}", f"{seen}/{label}", outside, locked))
    for label, locked in (("R1", "."), ("R2", "out"), ("R3", "."))
]
for _ in range(2):
    print(*(o.verdict for o in execute_package(load_local_package(package), specs, Budget(5, 10), "raw", scratch)))
"""


def test_a_workspace_a_child_locked_is_restored_and_removed(tmp_path: Path):
    command = [sys.executable, "-c", LOCKED_RUNS]
    if os.geteuid() == 0:
        setpriv = shutil.which("setpriv")
        if setpriv is None:
            pytest.skip("root ignores permission bits, and setpriv is not there to drop that capability")
        command = [setpriv, "--bounding-set=-dac_override,-dac_read_search,-fowner", *command]
    make_package(tmp_path, "locking", {"a.R": LOCK, "data.csv": "1,2\n", "sub/x.csv": "x\n"})
    outside = tmp_path / "outside"
    (outside / "locked").mkdir(parents=True)
    (outside / "locked" / "keep.txt").write_text("not ours\n", encoding="utf-8")
    (outside / "locked").chmod(0o555)
    before = _tree(outside)
    scratch, seen = tmp_path / "scratch", tmp_path / "seen"
    seen.mkdir()
    env = {**os.environ, "PYTHONPATH": str(Path(executor_mod.__file__).parents[1])}
    done = subprocess.run(
        [*command, str(tmp_path / "locking"), str(scratch), str(seen), str(outside)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "success success success\n" * 2), done.stderr
    given = "".join(f"{path}\n" for path in (".", "./a.R", "./data.csv", "./sub", "./sub/x.csv"))
    assert {p.name: p.read_text(encoding="utf-8") for p in seen.iterdir()} == {
        label: given * 2 for label in ("R1", "R2", "R3")
    }
    assert list(scratch.iterdir()) == []
    assert _tree(outside) == before


@pytest.mark.parametrize("failure", ["missing interpreter", "set-up probe"])
def test_a_unit_whose_interpreter_raises_leaves_no_workspace(tmp_path: Path, monkeypatch, failure: str):
    manifest = make_package(tmp_path, "raises", {"a.R": "x <- 1\n", "b.csv": "1\n"})
    specs = [stub_spec("R1"), InterpreterSpec("R2", ("/no/such/R2", "{script}"))]
    expected = InterpreterConfigError
    if failure == "set-up probe":

        class Stop(Exception):
            pass

        def stop(*args, **kwargs):
            raise Stop

        monkeypatch.setattr(executor_mod, "execute_file", stop)
        expected = Stop
    scratch = tmp_path / "scratch"
    with pytest.raises(expected):
        execute_package(manifest, specs, Budget(5, 10), "raw", scratch)
    assert list(scratch.iterdir()) == []


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


# --- a unit reaches the store whole --------------------------------------------------
#
# Two packages whose a.R loads foo, under R1 (without foo) and R2 (with it): each
# file succeeds only through R2, so an R1 outcome folded alone reads as an error.


def _foo_corpus(tmp_path: Path):
    return [make_package(tmp_path / "corpus", name, {"a.R": "library(foo)\n"}) for name in ("p1", "p2")]


def _run_foo(manifests, path: Path, scratch: Path) -> list[ExecutionOutcome]:
    store = RunStore.open(path)
    try:
        specs = [stub_spec("R1"), stub_spec("R2", preinstalled="foo")]
        return list(run_matrix(manifests, specs, Budget(5, 10), ["raw"], store, scratch))
    finally:
        store.close()


def _raw_file_success(path: Path) -> tuple[int, int]:
    rate = success_rate(combined_results(RunStore.load(path).outcomes(), "raw"))
    return rate.numerator, rate.denominator


def _reports(path: Path) -> list[str]:
    store = RunStore.load(path)
    return [
        render_json({**overview(store), "run_id": None}),
        render_json(group_report(store, "interpreter_label", mode="raw")),
    ]


def test_a_unit_whose_restore_fails_leaves_no_outcome_and_runs_again_whole(tmp_path: Path, monkeypatch):
    manifests = _foo_corpus(tmp_path)
    fills = Counter()
    real = executor_mod._fill_workspace

    def fill(workspace, *args):
        fills[workspace.name] += 1
        if workspace.name == "local_p1__raw" and fills[workspace.name] == 2:  # the restore before R2
            raise OSError(errno.ENOSPC, "simulated full disk")
        return real(workspace, *args)

    monkeypatch.setattr(executor_mod, "_fill_workspace", fill)
    path = tmp_path / "store.jsonl"
    assert [(o.package_id, o.interpreter_label) for o in _run_foo(manifests, path, tmp_path / "s")] == [
        ("local:p2", "R1"), ("local:p2", "R2")
    ]
    store = RunStore.load(path)
    assert {o.package_id for o in store.outcomes()} == {"local:p2"}
    assert [(e["package_id"], e["event"]) for e in store.events()] == [
        ("local:p1", "workspace_failure"), ("local:p2", "completed")
    ]
    assert _raw_file_success(path) == (1, 1)

    monkeypatch.setattr(executor_mod, "_fill_workspace", real)
    assert len(_run_foo(manifests, path, tmp_path / "s")) == 2  # the resume runs p1 again, in full
    _run_foo(manifests, tmp_path / "clean.jsonl", tmp_path / "s-clean")
    assert _raw_file_success(path) == (2, 2)
    assert _reports(path) == _reports(tmp_path / "clean.jsonl")


class _Stopped(BaseException):
    """A stop that no handler of the harness catches, as a kill would leave the store."""


def test_a_unit_that_never_ends_leaves_no_outcome(tmp_path: Path, monkeypatch):
    manifests = _foo_corpus(tmp_path)
    real = executor_mod.execute_file

    def execute_file(script, interpreter, *args, **kwargs):
        if kwargs["package_id"] == "local:p1" and interpreter.label == "R2":
            raise _Stopped
        return real(script, interpreter, *args, **kwargs)

    monkeypatch.setattr(executor_mod, "execute_file", execute_file)
    path = tmp_path / "store.jsonl"
    with pytest.raises(_Stopped):
        _run_foo(manifests, path, tmp_path / "s")
    store = RunStore.load(path)
    assert [o for o in store.outcomes() if o.package_id == "local:p1"] == []
    assert [e for e in store.events() if e["package_id"] == "local:p1"] == []
