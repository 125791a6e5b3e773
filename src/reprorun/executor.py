"""Run R files under configured interpreters inside scratch workspaces.

The unit of work is one package under one cleaning mode: ``run_matrix``
schedules units over a thread pool, and the store marks each finished
unit with one event, which is what a resumed run skips. Inside a unit,
each interpreter gets a fresh copy of the package's fetched files,
whose R files the cleaned mode cleans from the package's own sources; files
execute sequentially in lexicographic filename order against a per-file
wall-clock budget and a cumulative per-package budget. Each child runs in its own process group. Its exit
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
import re
import select
import shutil
import signal
import subprocess
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import cleaner, rsource
from .ingest import PackageManifest, from_fields, package_slug

VERDICT_SUCCESS = "success"
VERDICT_ERROR = "error"
VERDICT_TLE = "tle"
VERDICT_UNASSIGNED = "unassigned"

# each (package, mode) unit ends with one of these events in the store
EVENT_COMPLETED = "completed"
EVENT_WORKSPACE_FAILURE = "workspace_failure"
EVENT_INFRASTRUCTURE_FAILURE = "infrastructure_failure"

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

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutionOutcome":
        """Build from a record; a missing key without a default raises KeyError."""
        return from_fields(cls, data)


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


def _populate_workspace(workspace: Path, plan: dict[str, str | Path], package_id: str) -> None:
    """Fill a fresh workspace from its plan: write each text, copy each source file."""
    try:
        if workspace.exists():
            shutil.rmtree(workspace)
        workspace.mkdir(parents=True)
        for relative_path, source in plan.items():
            dest = workspace / relative_path
            dest.parent.mkdir(parents=True, exist_ok=True)
            if isinstance(source, str):
                dest.write_text(source, encoding="utf-8")
            else:
                shutil.copyfile(source, dest)
    except OSError as exc:
        raise WorkspaceError(f"workspace setup failed for {package_id}: {exc}") from exc


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
    on_outcome=None,
) -> list[ExecutionOutcome]:
    """Run every R file of one package under every interpreter.

    One pass over the manifest plans the unit's workspaces: a fetched
    file maps to its source, an R file in cleaned mode to its text cleaned
    once with ``cran_mirror``. Files run in lexicographic filename order.
    The per-package budget is cumulative per (interpreter x mode)
    workspace; once it is exhausted the remaining files get explicit
    "unassigned" outcomes rather than silently vanishing. So does a file
    whose download failed, which is never run. A workspace is removed
    after use, or after a failed set-up, unless ``keep_workspaces``.
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

    outcomes: list[ExecutionOutcome] = []
    for interpreter in interpreters:
        workspace = scratch_root / f"{slug}__{interpreter.label}__{mode}"
        try:
            _populate_workspace(workspace, plan, pid)
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

    A unit is one package under one cleaning mode. Missing package
    records are appended first. Units already marked completed in the
    store are skipped, which makes interrupted runs resumable; the rest
    are submitted mode-major (every package's first mode before any
    package's second), so concurrent workers start on different packages.
    Each unit ends with one event: completed, workspace_failure, or
    infrastructure_failure (a crash inside that unit only).

    The store is written per file, as each outcome arrives, but the
    generator yields per unit: all of a unit's outcomes once it ends, in
    order of unit completion. An InterpreterConfigError propagates when
    its unit ends. Closing the generator early (as an interrupt in
    ``reprorun run`` does) cancels the units that have not started and
    waits for the running ones.
    """
    validate_interpreters(interpreters)
    scratch_root = Path(scratch_root)
    completed = store.completed_runs()
    known_packages = store.package_ids()
    for manifest in manifests:
        if manifest.ref.persistent_id not in known_packages:
            store.append_package(manifest)
    units = [
        (m, mode) for mode in modes for m in manifests if (m.ref.persistent_id, mode) not in completed
    ]

    def run_unit(manifest: PackageManifest, mode: str) -> list[ExecutionOutcome]:
        pid = manifest.ref.persistent_id
        outcomes: list[ExecutionOutcome] = []
        try:
            execute_package(
                manifest,
                interpreters,
                budget,
                mode,
                scratch_root,
                cran_mirror=cran_mirror,
                keep_workspaces=keep_workspaces,
                network_allowed=network_allowed,
                on_outcome=lambda oc: (store.append_outcome(oc), outcomes.append(oc)),
            )
            store.append_event(pid, mode, EVENT_COMPLETED)
        except WorkspaceError as exc:
            store.append_event(pid, mode, EVENT_WORKSPACE_FAILURE, str(exc))
        except InterpreterConfigError:
            raise
        except Exception as exc:  # crashed worker: isolate to this unit
            store.append_event(pid, mode, EVENT_INFRASTRUCTURE_FAILURE, repr(exc))
        return outcomes

    pool = ThreadPoolExecutor(max_workers=jobs)
    try:
        futures = [pool.submit(run_unit, m, mode) for m, mode in units]
        for f in as_completed(futures):
            yield from f.result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
