"""Run R files under configured interpreters inside scratch workspaces.

The unit of work is one package under one cleaning mode: ``run_matrix``
schedules units over a thread pool and writes each to the store when it
ends, its outcomes and then one event, which is what a resumed run
skips. Inside a unit, each interpreter starts in a workspace that holds
exactly the package's fetched files, whose R files the cleaned mode
cleans from the package's own sources. The unit copies them into one
workspace for all of its interpreters and restores in place what each
interpreter changed, added or removed, so a file the interpreters leave
alone is copied once per unit. One remover deletes workspaces and
entries, read-only ones too.
Files execute sequentially in lexicographic filename order against a
per-file wall-clock budget and a cumulative per-package budget. Each
child runs in its own process group. Its exit is awaited on a pidfd
(Linux), so it is seen as soon as it happens; where ``os.pidfd_open`` is
missing or fails, ``Popen.wait`` polls instead. When the child exits or
its budget runs out, its whole process group is killed, so no background
process outlives the run. Interpreter invocation is an adapter:
production configs launch real R (optionally containerized) while tests
use the scripted stub in ``reprorun.stubr``, so the suite runs on
machines without R. Every run ends with one of ``VERDICTS``; an error
gets the first category in ``_CLASSIFICATION_RULES`` whose pattern finds
a match in its stderr, else ``other``. ``ERROR_CATEGORIES`` lists them in
that order; the store refuses an outcome off these two tuples, and a
report breaks a tie between categories by that order.
"""

from __future__ import annotations

import contextlib
import os
import re
import select
import shutil
import signal
import stat
import subprocess
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath

from . import cleaner, rsource
from .ingest import PackageManifest, package_slug

VERDICT_SUCCESS = "success"
VERDICT_ERROR = "error"
VERDICT_TLE = "tle"
VERDICT_UNASSIGNED = "unassigned"
VERDICTS = (VERDICT_SUCCESS, VERDICT_ERROR, VERDICT_TLE, VERDICT_UNASSIGNED)

# each (package, mode) unit ends with one of these events in the store
EVENT_COMPLETED = "completed"
EVENT_WORKSPACE_FAILURE = "workspace_failure"
EVENT_INFRASTRUCTURE_FAILURE = "infrastructure_failure"

MODE_RAW = "raw"
MODE_CLEANED = "cleaned"

DEFAULT_STDERR_TAIL = 16 * 1024

# One pattern per error category: the first that finds a match in stderr names it, in this order.
_CLASSIFICATION_RULES = (
    ("setwd", re.compile(r"cannot change working directory|setwd")),
    ("library", re.compile(r"there is no package called|unable to load|package .* is not available")),
    ("file_path_output", re.compile(r"cannot open file|No such file or directory|cannot open the connection")),
    ("object_not_found", re.compile(r"object .* not found")),
)
CATEGORY_OTHER = "other"  # the category of an error that no rule matches
ERROR_CATEGORIES = (*(category for category, _ in _CLASSIFICATION_RULES), CATEGORY_OTHER)


class InterpreterConfigError(Exception):
    """The interpreter itself is missing or misconfigured (not a script failure)."""


class WorkspaceError(Exception):
    """The scratch workspace for a package could not be prepared."""


@dataclass
class InterpreterSpec:
    """One interpreter of the execution matrix.

    launch_command is an argument vector template; "{script}" is replaced
    by the script path and "{workdir}" by the workspace directory. The
    env overlay is merged into the child environment (stub registries,
    R_LIBS, and the like).
    """

    label: str
    launch_command: tuple[str, ...]
    release_date: str | None = None
    env: dict = field(default_factory=dict)


def validate_interpreters(specs: list[InterpreterSpec]) -> None:
    labels = [s.label for s in specs]
    if len(set(labels)) != len(labels):
        raise InterpreterConfigError(f"duplicate interpreter labels in {labels}")
    for spec in specs:
        # a label names a workspace under the scratch root, so it must stay one path component
        if any(sep and sep in spec.label for sep in ("/", os.sep, os.altsep)):
            raise InterpreterConfigError(f"interpreter label {spec.label!r} holds a path separator")
        if not any("{script}" in part for part in spec.launch_command):
            raise InterpreterConfigError(
                f"interpreter {spec.label!r} launch command has no {{script}} placeholder"
            )


@dataclass
class Budget:
    """Wall-clock budgets in seconds: per file, and cumulative per package."""

    per_file: float = 3600.0
    per_package: float = 18000.0

    def __post_init__(self):
        if not (0 < self.per_file <= self.per_package):
            raise ValueError(f"need 0 < per_file <= per_package, got {self.per_file}/{self.per_package}")


@dataclass(slots=True)
class ExecutionOutcome:
    """Verdict of one (file x interpreter x cleaning mode) run."""

    package_id: str
    file: str
    interpreter_label: str
    cleaning_mode: str
    verdict: str
    error_category: str | None = None
    stderr_tail: str = ""
    wall_time: float = 0.0
    exit_code: int | None = None


def classify_error(stderr: str) -> str:
    """Map interpreter stderr to an error category; first matching rule wins."""
    for category, pattern in _CLASSIFICATION_RULES:
        if pattern.search(stderr):
            return category
    return CATEGORY_OTHER


def no_network_env() -> dict:
    """Child-environment overlay that blackholes HTTP(S) downloads."""
    return {
        "http_proxy": "http://127.0.0.1:9",
        "https_proxy": "http://127.0.0.1:9",
        "ftp_proxy": "http://127.0.0.1:9",
        "no_proxy": "",
        "STUBR_NO_NETWORK": "1",
    }


def child_env(interpreter: InterpreterSpec, extra_env: dict | None = None) -> dict:
    """A child's environment: ``os.environ``, then ``interpreter.env``, then ``extra_env`` laid over it."""
    env = dict(os.environ)
    env.update(interpreter.env)
    env.update(extra_env or {})
    return env


def _await_exit(proc: subprocess.Popen, timeout: float) -> bool:
    """Wait up to timeout seconds for the child to exit; True if it did.

    On the pidfd path the child is left unreaped: as a zombie it keeps its
    pid, and so its process group id, from being reused before
    _kill_group signals the group.
    """
    try:
        pidfd = os.pidfd_open(proc.pid)
    except (AttributeError, OSError):  # not Linux, a kernel before 5.3, or no free fd
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return False
        return True
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        return bool(poller.poll(timeout * 1000))
    finally:
        os.close(pidfd)


def _kill_group(proc: subprocess.Popen) -> int:
    """SIGKILL the child's process group, then reap the child.

    start_new_session=True makes the group id the child's pid. On the
    polling path the child is already reaped, and the group is gone if no
    descendant is left.
    """
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        proc.kill()
    return proc.wait()


def _read_tail(fh) -> str:
    fh.seek(0, os.SEEK_END)
    size = fh.tell()
    fh.seek(max(0, size - DEFAULT_STDERR_TAIL))
    return fh.read().decode("utf-8", errors="replace")


def execute_file(
    script: Path | str,
    interpreter: InterpreterSpec,
    budget_seconds: float,
    workdir: Path | str,
    *,
    package_id: str = "",
    file_label: str | None = None,
    cleaning_mode: str = MODE_RAW,
    env: dict | None = None,
) -> ExecutionOutcome:
    """Run one script with the workspace as working directory.

    The child runs in its own process group, with ``/dev/null`` as its
    stdin. Its exit is awaited on a pidfd where the platform has one,
    else by polling ``Popen.wait``.
    The whole group is killed when the child exits or at budget expiry
    (verdict tle, no exit code), so background processes die with it.
    Exit 0 within budget is success; anything else is an error
    classified from the captured stderr tail. An interpreter that cannot
    be started (missing, not executable, not a program) raises
    InterpreterConfigError instead of producing a script verdict.

    ``env`` is the whole child environment; a caller that runs many files
    under one interpreter builds it once with ``child_env``. Without it,
    ``child_env(interpreter)`` builds it for this call.
    """
    # the child resolves relative argv against its own cwd (the workspace),
    # so the template must be filled with absolute paths (not resolved: symlinks may stay)
    script = os.path.abspath(script)
    workdir = os.path.abspath(workdir)
    cmd = [part.replace("{script}", script).replace("{workdir}", workdir) for part in interpreter.launch_command]
    if env is None:
        env = child_env(interpreter)

    outcome = ExecutionOutcome(
        package_id=package_id,
        file=file_label if file_label is not None else os.path.basename(script),
        interpreter_label=interpreter.label,
        cleaning_mode=cleaning_mode,
        verdict=VERDICT_ERROR,
    )
    with tempfile.TemporaryFile() as stderr_fh:
        start = time.monotonic()
        try:
            proc = subprocess.Popen(
                cmd,
                cwd=workdir,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=stderr_fh,
                env=env,
                start_new_session=True,
            )
        except OSError as exc:
            if exc.filename is None:
                raise  # no process could be made (out of memory or pids): not the interpreter's fault
            # exec or chdir failed in the child, which names the program or the workdir
            raise InterpreterConfigError(f"interpreter {interpreter.label!r}: {exc}") from exc
        try:
            exited = _await_exit(proc, budget_seconds)
        finally:
            exit_code = _kill_group(proc)
        if exited:
            outcome.exit_code = exit_code
            outcome.verdict = VERDICT_SUCCESS if exit_code == 0 else VERDICT_ERROR
        else:
            outcome.verdict = VERDICT_TLE
        outcome.wall_time = time.monotonic() - start
        outcome.stderr_tail = _read_tail(stderr_fh)
    if outcome.verdict == VERDICT_ERROR:
        outcome.error_category = classify_error(outcome.stderr_tail)
    return outcome


def _key(st: os.stat_result) -> tuple:
    """What must be unchanged for a workspace entry this unit made to be kept.

    A directory's times, size and link count move whenever an entry in it
    comes or goes, so only its identity and mode count; its entries are
    checked one by one.
    """
    if stat.S_ISDIR(st.st_mode):
        return (st.st_ino, st.st_mode, st.st_uid, st.st_gid)
    return (st.st_ino, st.st_mode, st.st_nlink, st.st_uid, st.st_gid, st.st_size, st.st_mtime_ns, st.st_ctime_ns)


def _open_up(directory: str | Path) -> None:
    """Give directory and every directory under it u+rwx; symlinks and their targets are left alone."""
    os.chmod(directory, stat.S_IRWXU)
    with os.scandir(directory) as entries:
        for entry in entries:
            if entry.is_dir(follow_symlinks=False):
                _open_up(entry.path)


def _remove(path: str | Path, st: os.stat_result) -> None:
    """Remove a workspace, or an entry in one, whose ``os.lstat`` is st; a symlink goes, not its target.

    If a directory a child locked makes rmtree fail, every directory in
    the tree is opened up and rmtree runs again.
    """
    if not stat.S_ISDIR(st.st_mode):
        os.unlink(path)
        return
    try:
        shutil.rmtree(path)
    except PermissionError:
        _open_up(path)
        shutil.rmtree(path)


def _keep_unchanged(path: str, relative_path: str, written: dict[str, tuple], kept: set[str]) -> None:
    """Keep path if it still has the key recorded when this unit made it, else remove it.

    A kept directory has its entries checked the same way. Symlinks are
    never followed: one that replaced a planned path has another key and
    is removed, not its target.
    """
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        return
    if written.get(relative_path) != _key(st):
        _remove(path, st)
        return
    kept.add(relative_path)
    if stat.S_ISDIR(st.st_mode):
        for name in os.listdir(path):
            child = f"{relative_path}/{name}" if relative_path else name
            _keep_unchanged(os.path.join(path, name), child, written, kept)


def _write(dest: str, source: str | Path, stamp_ns: int) -> tuple:
    """Write one planned file, a cleaned text or a copy of its source, and return its key.

    The file gets the unit's mtime stamp, which lies before any write a
    child of the unit can make, so such a write changes the key even on a
    file system with a coarse clock.
    """
    if isinstance(source, str):
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(source)
    else:
        shutil.copyfile(source, dest)
    os.utime(dest, ns=(stamp_ns, stamp_ns))
    return _key(os.lstat(dest))


def _fill_workspace(workspace: Path, plan: dict[str, str | Path], written: dict[str, tuple], stamp_ns: int) -> None:
    """Make workspace hold exactly the plan.

    ``written`` maps each path this unit made in the workspace to its key.
    Every entry whose key is unchanged is kept; everything else is removed,
    and each planned path that was not kept is made again and its key
    recorded. With nothing recorded, the same call fills a new workspace
    or replaces a leftover one.
    """
    root = os.fspath(workspace)
    kept: set[str] = set()
    _keep_unchanged(root, "", written, kept)
    # the root ("") and the planned directories, parents first
    for relative_path in ["", *sorted({str(d) for path in plan for d in PurePosixPath(path).parents} - {"."})]:
        if relative_path not in kept:
            path = os.path.join(root, relative_path)
            os.makedirs(path)
            written[relative_path] = _key(os.lstat(path))
    for relative_path, source in plan.items():
        if relative_path not in kept:
            written[relative_path] = _write(os.path.join(root, relative_path), source, stamp_ns)


def execute_package(
    manifest: PackageManifest,
    interpreters: list[InterpreterSpec],
    budget: Budget,
    mode: str,
    scratch_root: Path | str,
    *,
    cran_mirror: str = cleaner.DEFAULT_CRAN_MIRROR,
    keep_workspaces: bool = False,
    network_allowed: bool = True,
) -> list[ExecutionOutcome]:
    """Run every R file of one package under every interpreter.

    One pass over the manifest plans the unit's workspaces: a fetched
    file maps to its source, an R file in cleaned mode to its text cleaned
    once with ``cran_mirror``. Files run in lexicographic filename order.
    The per-package budget is cumulative per (interpreter x mode)
    workspace; once it is exhausted the remaining files get explicit
    "unassigned" outcomes rather than silently vanishing. So does a file
    whose download failed, which is never run.

    The interpreters run one after another in one workspace,
    ``<slug>__<mode>``. Before each, ``_fill_workspace`` makes it hold
    exactly the plan: the first call fills it, a later one restores what
    the previous interpreter changed. Each file the unit writes is stamped
    with one mtime from before the unit, so a child's write to it shows in
    its key. When the unit ends, finished or raised, its workspace is
    removed, unless ``keep_workspaces``: then each interpreter gets a fresh
    fill of its own, ``<slug>__<label>__<mode>``, kept as it left it.
    """
    scratch_root = Path(scratch_root)
    slug = package_slug(manifest.ref.persistent_id)
    pid = manifest.ref.persistent_id
    extra_env = None if network_allowed else no_network_env()
    r_entries = manifest.r_files()
    unfetched = manifest.unfetched()
    plan: dict[str, str | Path] = {}  # relative path -> cleaned text or source file, the same for every workspace
    try:
        for entry in manifest.files:
            if entry.relative_path in unfetched:
                continue  # recorded download failure, nothing to copy
            src = Path(manifest.root, entry.relative_path)
            if mode == MODE_CLEANED and rsource.is_r_source(entry.relative_path):
                plan[entry.relative_path] = cleaner.clean_text(src.read_bytes(), cran_mirror)[0]
            else:
                plan[entry.relative_path] = src
    except OSError as exc:
        raise WorkspaceError(f"workspace setup failed for {pid}: {exc}") from exc

    written: dict[str, tuple] = {}  # path in the workspace -> key of what this unit made there
    # before this unit, by more than any file system's timestamp granularity (FAT: 2 s)
    stamp_ns = time.time_ns() - 2_000_000_000
    workspace = scratch_root / f"{slug}__{mode}"
    outcomes: list[ExecutionOutcome] = []
    try:
        for interpreter in interpreters:
            if keep_workspaces:  # each interpreter's workspace stays as that interpreter left it
                workspace = scratch_root / f"{slug}__{interpreter.label}__{mode}"
                written.clear()
            try:
                _fill_workspace(workspace, plan, written, stamp_ns)
            except OSError as exc:
                raise WorkspaceError(f"workspace setup failed for {pid}: {exc}") from exc
            workdir = os.path.abspath(workspace)
            env = child_env(interpreter, extra_env)
            remaining = float(budget.per_package)
            for entry in r_entries:
                if remaining <= 0 or entry.relative_path in unfetched:
                    outcome = ExecutionOutcome(
                        package_id=pid,
                        file=entry.relative_path,
                        interpreter_label=interpreter.label,
                        cleaning_mode=mode,
                        verdict=VERDICT_UNASSIGNED,
                    )
                else:
                    outcome = execute_file(
                        os.path.join(workdir, entry.relative_path),
                        interpreter,
                        min(budget.per_file, remaining),
                        workdir,
                        package_id=pid,
                        file_label=entry.relative_path,
                        cleaning_mode=mode,
                        env=env,
                    )
                    remaining -= outcome.wall_time
                outcomes.append(outcome)
    finally:
        if not keep_workspaces:
            with contextlib.suppress(OSError):  # best effort: a removal cannot fail a finished unit
                _remove(workspace, os.lstat(workspace))
    return outcomes


def run_matrix(
    manifests: list[PackageManifest],
    interpreters: list[InterpreterSpec],
    budget: Budget,
    modes: list[str],
    store,
    scratch_root: Path | str,
    *,
    cran_mirror: str = cleaner.DEFAULT_CRAN_MIRROR,
    jobs: int = 1,
    network_allowed: bool = True,
    keep_workspaces: bool = False,
):
    """Execute (package, mode) units over a bounded worker pool, yielding outcomes.

    A unit is one package under one cleaning mode. Every package is
    recorded first (the store skips those it holds). Units already
    marked completed in the store are skipped, which makes interrupted
    runs resumable; the rest are submitted mode-major (every package's
    first mode before any package's second), so concurrent workers start
    on different packages.

    A unit reaches the store whole, when it ends: its outcomes, then its
    completed event. A unit that fails writes only its failure event,
    workspace_failure or infrastructure_failure (a crash inside that unit
    only), and yields nothing; an InterpreterConfigError propagates and
    its unit writes nothing. The generator yields each completed unit's
    outcomes in order of unit completion. Closing it early (as an
    interrupt in ``reprorun run`` does) cancels the units that have not
    started and waits for the running ones.
    """
    validate_interpreters(interpreters)
    scratch_root = Path(scratch_root)
    completed = store.completed_runs()
    for manifest in manifests:
        store.append_package(manifest)
    units = [
        (m, mode) for mode in modes for m in manifests if (m.ref.persistent_id, mode) not in completed
    ]

    def run_unit(manifest: PackageManifest, mode: str) -> list[ExecutionOutcome]:
        pid = manifest.ref.persistent_id
        try:
            outcomes = execute_package(
                manifest,
                interpreters,
                budget,
                mode,
                scratch_root,
                cran_mirror=cran_mirror,
                keep_workspaces=keep_workspaces,
                network_allowed=network_allowed,
            )
            for outcome in outcomes:
                store.append_outcome(outcome)
            store.append_event(pid, mode, EVENT_COMPLETED)
            return outcomes
        except WorkspaceError as exc:
            store.append_event(pid, mode, EVENT_WORKSPACE_FAILURE, str(exc))
        except InterpreterConfigError:
            raise
        except Exception as exc:  # crashed worker: isolate to this unit
            store.append_event(pid, mode, EVENT_INFRASTRUCTURE_FAILURE, repr(exc))
        return []

    pool = ThreadPoolExecutor(max_workers=jobs)
    try:
        futures = [pool.submit(run_unit, m, mode) for m, mode in units]
        for f in as_completed(futures):
            yield from f.result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
