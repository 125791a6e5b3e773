"""Append-only JSON Lines store for execution outcomes and run events.

One record per line. The raw log is the source of truth: every derived
table (combined verdicts, dataset aggregates, grouped reports) is
recomputed from it deterministically. Appends are atomic per record and
tolerate concurrent producers; a torn final line (crash mid-write) is
reported and skipped on load instead of poisoning the run. Outcome
records are parsed into ``ExecutionOutcome`` objects on the first
``outcomes()`` call, not on load, and kept for later calls.
"""

from __future__ import annotations

import json
import logging
import threading
import uuid
from pathlib import Path

from .executor import ExecutionOutcome
from .ingest import PackageManifest

log = logging.getLogger(__name__)

KIND_CONFIG = "config"
KIND_OUTCOME = "outcome"
KIND_PACKAGE = "package"
KIND_EVENT = "package_event"

EVENT_COMPLETED = "completed"
EVENT_WORKSPACE_FAILURE = "workspace_failure"
EVENT_INFRASTRUCTURE_FAILURE = "infrastructure_failure"


class StoreError(Exception):
    """The store file is unusable (unreadable or corrupt before the tail)."""


class RunStore:
    """Writer/reader for one run's JSONL log."""

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self.records: list[dict] = []
        self.truncated_tail = False
        self.run_id: str | None = None
        self.config: dict = {}
        self._lock = threading.Lock()
        self._fh = None
        self._outcomes: list[ExecutionOutcome] | None = None  # parsed on first use

    # --- lifecycle -----------------------------------------------------------

    @classmethod
    def open(cls, path: Path | str, config: dict | None = None, run_id: str | None = None) -> "RunStore":
        """Open for appending, creating the log (with a config record) if new."""
        store = cls(path)
        if store.path.exists() and store.path.stat().st_size > 0:
            store._read()
        else:
            store.path.parent.mkdir(parents=True, exist_ok=True)
            store.run_id = run_id or uuid.uuid4().hex[:12]
            store.config = config or {}
            store.append({"kind": KIND_CONFIG, "run_id": store.run_id, "config": store.config})
        return store

    @classmethod
    def load(cls, path: Path | str) -> "RunStore":
        """Read-only view of an existing log."""
        store = cls(path)
        store._read()
        return store

    def _read(self) -> None:
        try:
            raw_lines = self.path.read_text(encoding="utf-8").split("\n")
        except OSError as exc:
            raise StoreError(f"cannot read store {self.path}: {exc}") from exc
        if raw_lines and raw_lines[-1] == "":
            raw_lines.pop()
        for i, line in enumerate(raw_lines):
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if i == len(raw_lines) - 1:
                    self.truncated_tail = True
                    log.warning("store %s: dropping torn final record", self.path)
                    break
                raise StoreError(f"corrupt record at line {i + 1} of {self.path}") from None
            if not isinstance(record, dict):
                raise StoreError(f"record at line {i + 1} of {self.path} is not a JSON object")
            self.records.append(record)
        for record in self.records:
            if record.get("kind") == KIND_CONFIG:
                self.run_id = record.get("run_id")
                self.config = record.get("config", {})
                break

    # --- appending -----------------------------------------------------------

    def append(self, record: dict) -> None:
        """Append one record; a single write so concurrent producers interleave whole lines."""
        line = json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"
        with self._lock:
            if self._fh is None:
                self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.write(line)
            self._fh.flush()
            self.records.append(record)
            if record.get("kind") == KIND_OUTCOME:
                self._outcomes = None

    def append_outcome(self, outcome: ExecutionOutcome) -> None:
        self.append({"kind": KIND_OUTCOME, **outcome.to_dict()})

    def append_package(self, manifest: PackageManifest) -> None:
        self.append(
            {
                "kind": KIND_PACKAGE,
                "package_id": manifest.ref.persistent_id,
                "title": manifest.ref.title,
                "publication_date": manifest.ref.publication_date,
                "metadata": manifest.ref.metadata,
                "fetch_status": manifest.fetch_status,
                "n_files": len(manifest.files),
            }
        )

    def append_event(self, package_id: str, mode: str, event: str, detail: str | None = None) -> None:
        self.append(
            {"kind": KIND_EVENT, "package_id": package_id, "mode": mode, "event": event, "detail": detail}
        )

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    # --- views ---------------------------------------------------------------

    def outcomes(self, mode: str | None = None) -> list[ExecutionOutcome]:
        """Outcome records as objects, in log order; a new list on every call.

        Raises StoreError naming the line of an outcome record that lacks
        a required key.
        """
        with self._lock:
            if self._outcomes is None:
                self._outcomes = [
                    self._parse_outcome(i, r)
                    for i, r in enumerate(self.records)
                    if r.get("kind") == KIND_OUTCOME
                ]
            out = list(self._outcomes)
        if mode is not None:
            out = [o for o in out if o.cleaning_mode == mode]
        return out

    def _parse_outcome(self, index: int, record: dict) -> ExecutionOutcome:
        try:
            return ExecutionOutcome.from_dict(record)
        except KeyError as exc:
            raise StoreError(
                f"outcome record at line {index + 1} of {self.path} lacks key {exc.args[0]!r}"
            ) from None

    def packages(self) -> dict[str, dict]:
        return {r["package_id"]: r for r in self.records if r.get("kind") == KIND_PACKAGE}

    def package_ids(self) -> set[str]:
        return set(self.packages())

    def events(self) -> list[dict]:
        return [r for r in self.records if r.get("kind") == KIND_EVENT]

    def completed_runs(self) -> set[tuple[str, str]]:
        return {
            (r["package_id"], r["mode"])
            for r in self.records
            if r.get("kind") == KIND_EVENT and r.get("event") == EVENT_COMPLETED
        }
