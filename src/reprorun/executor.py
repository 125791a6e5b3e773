"""Run R files under configured interpreters inside scratch workspaces.

Each (interpreter x cleaning mode) run of a package gets a fresh copy of
the package directory; files execute sequentially in lexicographic
filename order against a per-file wall-clock budget and a cumulative
per-package budget. Each child runs in its own process group. Its exit
is awaited on a pidfd (Linux), so it is seen as soon as it happens; where
``os.pidfd_open`` is missing or fails, ``Popen.wait`` polls instead. When
the child exits or its budget runs out, its whole process group is
killed, so no background process outlives the run. Interpreter
invocation is an adapter: production configs launch real R (optionally
containerized) while tests use the scripted stub in ``reprorun.stubr``,
so the suite runs on machines without R.
"""

from __future__ import annotations

import os
import queue
import re
import select
import shutil
import signal
import subprocess
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

from . import rsource
from .ingest import PackageManifest, package_slug

VERDICT_SUCCESS = "success"
VERDICT_ERROR = "error"
VERDICT_TLE = "tle"
VERDICT_UNASSIGNED = "unassigned"

MODE_RAW = "raw"
MODE_CLEANED = "cleaned"

CATEGORY_SETWD = "setwd"
CATEGORY_LIBRARY = "library"
CATEGORY_FILE = "file_path_output"
CATEGORY_OBJECT = "object_not_found"
CATEGORY_OTHER = "other"

ERROR_CATEGORIES = (CATEGORY_SETWD, CATEGORY_LIBRARY, CATEGORY_FILE, CATEGORY_OBJECT, CATEGORY_OTHER)

DEFAULT_STDERR_TAIL = 16 * 1024

# First matching rule wins, in this order.
_CLASSIFICATION_RULES: list[tuple[str, list[re.Pattern]]] = [
    (CATEGORY_SETWD, [re.compile(p) for p in (r"cannot change working directory", r"setwd")]),
    (
        CATEGORY_LIBRARY,
        [
            re.compile(p)
            for p in (r"there is no package called", r"unable to load", r"package .* is not available")
        ],
    ),
    (
        CATEGORY_FILE,
        [
            re.compile(p)
            for p in (r"cannot open file", r"No such file or directory", r"cannot open the connection")
        ],
    ),
    (CATEGORY_OBJECT, [re.compile(r"object .* not found")]),
]


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


@dataclass
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

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutionOutcome":
        """Build from a record; a missing key without a default raises KeyError."""
        return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data or f.default is MISSING})


def classify_error(stderr: str) -> str:
    """Map interpreter stderr to an error category; first matching rule wins."""
    for category, patterns in _CLASSIFICATION_RULES:
        if any(p.search(stderr) for p in patterns):
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


def _read_tail(fh, limit: int) -> str:
    fh.seek(0, os.SEEK_END)
    size = fh.tell()
    fh.seek(max(0, size - limit))
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
    extra_env: dict | None = None,
    stderr_limit: int = DEFAULT_STDERR_TAIL,
) -> ExecutionOutcome:
    """Run one script with the workspace as working directory.

    The child runs in its own process group. Its exit is awaited on a
    pidfd where the platform has one, else by polling ``Popen.wait``.
    The whole group is killed when the child exits or at budget expiry
    (verdict tle, no exit code), so background processes die with it.
    Exit 0 within budget is success; anything else is an error
    classified from the captured stderr tail. A missing interpreter
    raises InterpreterConfigError instead of producing a script verdict.
    """
    # the child resolves relative argv against its own cwd (the workspace),
    # so the template must be filled with absolute paths
    script = Path(script).resolve()
    workdir = Path(workdir).resolve()
    cmd = [
        part.replace("{script}", str(script)).replace("{workdir}", str(workdir))
        for part in interpreter.launch_command
    ]
    env = dict(os.environ)
    env.update(interpreter.env)
    env.update(extra_env or {})

    outcome = ExecutionOutcome(
        package_id=package_id,
        file=file_label if file_label is not None else script.name,
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
                stdout=subprocess.DEVNULL,
                stderr=stderr_fh,
                env=env,
                start_new_session=True,
            )
        except FileNotFoundError as exc:
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
        outcome.stderr_tail = _read_tail(stderr_fh, stderr_limit)
    if outcome.verdict == VERDICT_ERROR:
        outcome.error_category = classify_error(outcome.stderr_tail)
    return outcome


def _populate_workspace(
    manifest: PackageManifest, workspace: Path, mode: str, cleaned_dir: Path | None
) -> None:
    try:
        if workspace.exists():
            shutil.rmtree(workspace)
        workspace.mkdir(parents=True)
        root = Path(manifest.root)
        for entry in manifest.files:
            src = root / entry.relative_path
            if mode == MODE_CLEANED and rsource.is_r_source(entry.relative_path):
                src = (cleaned_dir or Path("")) / entry.relative_path
                if cleaned_dir is None or not src.is_file():
                    raise WorkspaceError(
                        f"no cleaned output for {entry.relative_path} of {manifest.ref.persistent_id}"
                    )
            elif not src.is_file():
                if entry.error:
                    continue  # recorded download failure, nothing to copy
                raise WorkspaceError(f"missing package file {src}")
            dest = workspace / entry.relative_path
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(src, dest)
    except OSError as exc:
        raise WorkspaceError(f"workspace setup failed for {manifest.ref.persistent_id}: {exc}") from exc


def execute_package(
    manifest: PackageManifest,
    interpreters: list[InterpreterSpec],
    budget: Budget,
    mode: str,
    scratch_root: Path | str,
    *,
    cleaned_dir: Path | None = None,
    keep_workspaces: bool = False,
    network_allowed: bool = True,
    on_outcome=None,
) -> list[ExecutionOutcome]:
    """Run every R file of one package under every interpreter.

    Files run in lexicographic filename order. The per-package budget is
    cumulative per (interpreter x mode) workspace; once it is exhausted
    the remaining files get explicit "unassigned" outcomes rather than
    silently vanishing.
    """
    scratch_root = Path(scratch_root)
    slug = package_slug(manifest.ref.persistent_id)
    pid = manifest.ref.persistent_id
    extra_env = None if network_allowed else no_network_env()
    r_entries = manifest.r_files()

    outcomes: list[ExecutionOutcome] = []
    for interpreter in interpreters:
        workspace = scratch_root / f"{slug}__{interpreter.label}__{mode}"
        _populate_workspace(manifest, workspace, mode, cleaned_dir)
        try:
            remaining = float(budget.per_package)
            for entry in r_entries:
                if remaining <= 0:
                    outcome = ExecutionOutcome(
                        package_id=pid,
                        file=entry.relative_path,
                        interpreter_label=interpreter.label,
                        cleaning_mode=mode,
                        verdict=VERDICT_UNASSIGNED,
                    )
                else:
                    outcome = execute_file(
                        workspace / entry.relative_path,
                        interpreter,
                        min(budget.per_file, remaining),
                        workspace,
                        package_id=pid,
                        file_label=entry.relative_path,
                        cleaning_mode=mode,
                        extra_env=extra_env,
                    )
                    remaining -= outcome.wall_time
                outcomes.append(outcome)
                if on_outcome is not None:
                    on_outcome(outcome)
        finally:
            if not keep_workspaces:
                shutil.rmtree(workspace, ignore_errors=True)
    return outcomes


_JOB_DONE = object()  # run_matrix: queued once per finished package job


def run_matrix(
    manifests: list[PackageManifest],
    interpreters: list[InterpreterSpec],
    budget: Budget,
    modes: list[str],
    store,
    scratch_root: Path | str,
    *,
    cleaned_root: Path | str | None = None,
    jobs: int = 1,
    network_allowed: bool = True,
    keep_workspaces: bool = False,
):
    """Execute packages over a bounded worker pool, streaming outcomes.

    Outcomes are appended to the store as they complete and also yielded
    to the caller. (package, mode) pairs already marked completed in the
    store are skipped, which makes interrupted runs resumable. A crash
    inside one package's job is recorded as an infrastructure failure for
    that package only.
    """
    validate_interpreters(interpreters)
    scratch_root = Path(scratch_root)
    modes = list(modes)
    completed = store.completed_runs()
    known_packages = store.package_ids()
    out_queue: queue.Queue = queue.Queue()

    def job(manifest: PackageManifest) -> None:
        pid = manifest.ref.persistent_id
        if pid not in known_packages:
            store.append_package(manifest)
        for mode in modes:
            if (pid, mode) in completed:
                continue
            cleaned_dir = (
                Path(cleaned_root) / package_slug(pid) if cleaned_root is not None else None
            )
            try:
                execute_package(
                    manifest,
                    interpreters,
                    budget,
                    mode,
                    scratch_root,
                    cleaned_dir=cleaned_dir if mode == MODE_CLEANED else None,
                    keep_workspaces=keep_workspaces,
                    network_allowed=network_allowed,
                    on_outcome=lambda oc: (store.append_outcome(oc), out_queue.put(oc)),
                )
                store.append_event(pid, mode, "completed")
            except WorkspaceError as exc:
                store.append_event(pid, mode, "workspace_failure", str(exc))
            except InterpreterConfigError:
                raise
            except Exception as exc:  # crashed worker: isolate to this package
                store.append_event(pid, mode, "infrastructure_failure", repr(exc))

    pool = ThreadPoolExecutor(max_workers=max(1, jobs))
    futures = [pool.submit(job, m) for m in manifests]
    for f in futures:
        # also called when the job raises, so the count below always reaches zero
        f.add_done_callback(lambda _: out_queue.put(_JOB_DONE))
    try:
        running = len(futures)
        while running:
            item = out_queue.get()
            if item is _JOB_DONE:
                running -= 1
            else:
                yield item
        for f in futures:
            f.result()  # propagate config/store errors
    finally:
        pool.shutdown(wait=True)
