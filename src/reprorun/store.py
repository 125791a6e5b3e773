"""Append-only JSON Lines store for execution outcomes and run events.

One record per line. The raw log is the source of truth: every derived
table (combined verdicts, dataset aggregates, grouped reports) is
recomputed from it deterministically. Appends are atomic per record and
tolerate concurrent producers. A final line is whole only when it ends in
a newline and parses; any other final line is torn (a crash mid-write,
even inside a multi-byte character, or a record whose newline never
reached the disk). A torn final line is reported and skipped on load
instead of poisoning the run, and ``open`` cuts the file back to the end
of the last whole record before it appends. Invalid UTF-8 before the
final line is a StoreError. The log is read line by line, with the line
read last held back until the next one shows it is not the final line,
so a read holds one line of the file, not the whole log. No list of
records is kept: each whole record, read or appended, is routed once by
its kind into the one view that needs it. A record that lacks a key its
view needs, holds a list or an object there, or holds a value reports
cannot fold (a package field off ``PACKAGE_FIELD_TYPES``, an outcome key
field that is not a string, a verdict off ``VERDICTS``, an error category
neither null nor in ``ERROR_CATEGORIES``), is a StoreError naming its
line; an appended one is not written. A package is recorded once. Outcome
records become ``ExecutionOutcome`` objects, the latest of each
(package, file, interpreter, mode) winning, for readers only: ``load``
builds them as it reads, while ``open``, the writer's entry point, skips
them and reads them only if ``outcomes()`` is called.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import uuid
from collections.abc import Callable, Iterator
from dataclasses import asdict
from pathlib import Path

from .executor import ERROR_CATEGORIES, EVENT_COMPLETED, VERDICTS, ExecutionOutcome
from .ingest import PackageManifest, from_fields

log = logging.getLogger(__name__)

KIND_CONFIG = "config"
KIND_OUTCOME = "outcome"
KIND_PACKAGE = "package"
KIND_EVENT = "package_event"

# The fields of a package record that reports read, and the JSON types each may hold where present.
PACKAGE_FIELD_TYPES = {
    "package_id": (str,), "fetch_status": (str,), "metadata": (dict, type(None)), "publication_date": (str, type(None))
}
_OUTCOME_CATEGORIES = (None, *ERROR_CATEGORIES)


class StoreError(Exception):
    """The store file is unusable (unreadable or corrupt before the tail)."""


class RunStore:
    """Writer/reader for one run's JSONL log."""

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self.truncated_tail = False
        self.valid_end = 0  # byte offset where the last whole record ends
        self.run_id: str | None = None
        self.config: dict = {}
        self._configured = False  # the first config record wins
        self._packages: dict[str, dict] = {}
        self._events: list[dict] = []
        self._completed: set[tuple[str, str]] = set()
        self._outcomes: dict[tuple, ExecutionOutcome] | None = None  # built for readers only
        self._lock = threading.RLock()  # append_package checks and appends under it
        self._fh = None

    # --- lifecycle -----------------------------------------------------------

    @classmethod
    def open(cls, path: Path | str, config: dict | None = None, run_id: str | None = None) -> "RunStore":
        """Open for appending, creating the log (with a config record) if new."""
        store = cls(path)
        if store.path.exists() and store.path.stat().st_size > 0:
            store._read()
            if store.truncated_tail:
                # cut the torn record, so the next append starts a line of its own
                os.truncate(store.path, store.valid_end)
        if not store.valid_end:  # no whole record
            store.path.parent.mkdir(parents=True, exist_ok=True)
            store.run_id = run_id or uuid.uuid4().hex[:12]
            store.config = config or {}
            store.append({"kind": KIND_CONFIG, "run_id": store.run_id, "config": store.config})
        return store

    @classmethod
    def load(cls, path: Path | str) -> "RunStore":
        """Read-only view of an existing log, its outcomes included."""
        store = cls(path)
        store._outcomes = {}
        store._read()
        return store

    def _read(self) -> None:
        for number, record, end in self._lines():
            if record is None:
                self.truncated_tail = True
                log.warning("store %s: dropping torn final record", self.path)
            else:
                self._route(record, number)
                self.valid_end = end

    def _lines(self) -> Iterator[tuple[int, dict | None, int]]:
        """(number, record, end offset) of each line; the record of a torn final line is None."""
        end = 0
        last = None  # (number, bytes) of the line read last: the final line if no other follows
        try:
            with open(self.path, "rb") as fh:
                for number, line in enumerate(fh, 1):
                    if last is not None:
                        end += len(last[1])
                        yield last[0], self._parse_line(*last), end
                    last = number, line
        except OSError as exc:
            raise StoreError(f"cannot read store {self.path}: {exc}") from exc
        if last is not None:
            number, line = last
            record = self._parse_line(number, line, final=True) if line.endswith(b"\n") else None
            yield number, record, end + len(line)

    def _parse_line(self, number: int, line: bytes, final: bool = False) -> dict | None:
        """The record on a whole line; None for a final line that does not parse, which is torn."""
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError:
            raise StoreError(f"record at line {number} of {self.path} is not valid UTF-8") from None
        try:
            record = json.loads(text)
        except json.JSONDecodeError:
            if final:
                return None
            raise StoreError(f"corrupt record at line {number} of {self.path}") from None
        if not isinstance(record, dict):
            raise StoreError(f"record at line {number} of {self.path} is not a JSON object")
        return record

    def _route(self, record: dict, number: int | None = None, write: Callable | None = None) -> None:
        """Put one whole record into the view its kind feeds, after ``write`` when one is given.

        A record the store refuses (see the module docstring) is a
        StoreError naming its line, raised before ``write`` is called.
        """
        kind = record.get("kind")
        key = None
        fault = None
        try:
            if kind == KIND_OUTCOME and self._outcomes is not None:
                outcome = from_fields(ExecutionOutcome, record)
                key = outcome.package_id, outcome.file, outcome.interpreter_label, outcome.cleaning_mode
                if outcome.verdict not in VERDICTS or outcome.error_category not in _OUTCOME_CATEGORIES:
                    fault = f"holds verdict {outcome.verdict!r} with error category {outcome.error_category!r}"
                elif not str is type(key[0]) is type(key[1]) is type(key[2]) is type(key[3]):  # chained: all() costs 6x this per record
                    fault = f"holds a key field that is not a string in {key!r}"
            elif kind == KIND_PACKAGE:
                key = record["package_id"]
                for name, types in PACKAGE_FIELD_TYPES.items():
                    if name in record and not isinstance(record[name], types):
                        fault = f"holds a {type(record[name]).__name__} in {name!r}"
            elif kind == KIND_EVENT and record.get("event") == EVENT_COMPLETED:
                key = record["package_id"], record["mode"]
            hash(key)  # a list or an object in a key field cannot index a view
        except KeyError as exc:
            fault = f"lacks key {exc.args[0]!r}"
        except TypeError as exc:
            fault = f"has an unhashable key ({exc})"
        if fault is not None:
            at = f"at line {number} of" if number else "appended to"
            raise StoreError(f"{kind} record {at} {self.path} {fault}")
        if write is not None:
            write()
        if kind == KIND_OUTCOME:
            if self._outcomes is not None:
                self._outcomes[key] = outcome
        elif kind == KIND_PACKAGE:
            self._packages[key] = record
        elif kind == KIND_EVENT:
            if record.get("event") == EVENT_COMPLETED:
                self._completed.add(key)
            self._events.append(record)
        elif kind == KIND_CONFIG and not self._configured:
            self._configured = True
            self.run_id = record.get("run_id")
            self.config = record.get("config", {})

    @property
    def records(self) -> Iterator[dict]:
        """Every whole record of the log in log order, read from the file again on each use."""
        return (record for _, record, _ in self._lines() if record is not None)

    # --- appending -----------------------------------------------------------

    def append(self, record: dict) -> None:
        """Append one record; a single write so concurrent producers interleave whole lines.

        A record that its view cannot take is never written, and a
        record enters its view only once its write has returned.
        """
        line = json.dumps(record, sort_keys=True) + "\n"

        def write() -> None:
            if self._fh is None:
                self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.write(line)
            self._fh.flush()

        with self._lock:
            self._route(record, write=write)

    def append_outcome(self, outcome: ExecutionOutcome) -> None:
        self.append({"kind": KIND_OUTCOME, **asdict(outcome)})

    def append_package(self, manifest: PackageManifest) -> None:
        """Record a package, unless the store already holds a record of its id."""
        with self._lock:
            if manifest.ref.persistent_id in self._packages:
                return
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
        """The latest outcome of each (package, file, interpreter, mode); a new list on every call.

        ``run_matrix`` writes a unit's outcomes when the unit ends, so a
        store holds outcomes of a unit that did not complete only if an
        earlier version wrote it, one outcome as each file ended, or if
        the run was stopped among those writes. A rerun of the unit
        writes every one of its files again, so its outcomes supersede
        those; a file removed from the package between the attempts
        keeps its earlier outcome. Outcomes come in the log order of
        each key's first record.
        """
        with self._lock:
            if self._outcomes is None:  # an opened store reads its outcomes once, on first use
                self._outcomes = RunStore.load(self.path)._outcomes
            out = list(self._outcomes.values())
        if mode is not None:
            out = [o for o in out if o.cleaning_mode == mode]
        return out

    def packages(self) -> dict[str, dict]:
        return dict(self._packages)

    def events(self) -> list[dict]:
        return list(self._events)

    def completed_runs(self) -> set[tuple[str, str]]:
        return set(self._completed)
