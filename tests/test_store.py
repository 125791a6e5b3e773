from __future__ import annotations

import json
import re
import sys
import threading
from dataclasses import asdict
from pathlib import Path

import pytest

import reprorun.store as store_mod
from reprorun.executor import ExecutionOutcome
from reprorun.ingest import PackageManifest, PackageRef
from reprorun.store import RunStore, StoreError

from conftest import make_package, traced_memory


def outcome(i: int, mode: str = "raw") -> ExecutionOutcome:
    return ExecutionOutcome(
        package_id=f"pkg{i % 7}",
        file=f"f{i}.R",
        interpreter_label="R1",
        cleaning_mode=mode,
        verdict="success" if i % 2 else "error",
        error_category=None if i % 2 else "other",
        wall_time=0.01 * i,
        exit_code=0 if i % 2 else 1,
    )


def test_round_trip_100_records(tmp_path: Path):
    store = RunStore.open(tmp_path / "s.jsonl", config={"jobs": 2})
    for i in range(100):
        store.append_outcome(outcome(i))
    store.close()
    loaded = RunStore.load(tmp_path / "s.jsonl")
    assert len(loaded.outcomes()) == 100
    assert loaded.run_id == store.run_id
    assert loaded.config == {"jobs": 2}
    assert not loaded.truncated_tail
    assert [asdict(o) for o in loaded.outcomes()] == [asdict(outcome(i)) for i in range(100)]


def test_outcome_record_without_optional_keys_loads_defaults(tmp_path: Path):
    path = tmp_path / "s.jsonl"
    store = RunStore.open(path)
    store.append(
        {"kind": "outcome", "package_id": "p", "file": "a.R", "interpreter_label": "R1",
         "cleaning_mode": "raw", "verdict": "success"}
    )
    store.close()
    (loaded,) = RunStore.load(path).outcomes()
    assert loaded == ExecutionOutcome("p", "a.R", "R1", "raw", "success")
    assert (loaded.stderr_tail, loaded.wall_time, loaded.exit_code, loaded.error_category) == ("", 0.0, None, None)


def test_torn_final_record_dropped_with_warning(tmp_path: Path, caplog):
    path = tmp_path / "s.jsonl"
    store = RunStore.open(path)
    for i in range(100):
        store.append_outcome(outcome(i))
    store.close()
    raw = path.read_text(encoding="utf-8")
    lines = raw.rstrip("\n").split("\n")
    torn = "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2]
    path.write_text(torn, encoding="utf-8")

    loaded = RunStore.load(path)
    assert loaded.truncated_tail
    assert len(loaded.outcomes()) == 99


def test_open_cuts_torn_tail_before_appending(tmp_path: Path):
    path = tmp_path / "s.jsonl"
    store = RunStore.open(path)
    store.append_outcome(outcome(1))
    store.close()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"kind": "outcome", "package_id": "pk')
    torn = path.read_bytes()
    assert RunStore.load(path).truncated_tail
    assert path.read_bytes() == torn  # load stays read-only

    store = RunStore.open(path)
    assert store.truncated_tail
    store.append_outcome(outcome(2))
    store.append_outcome(outcome(3))
    store.close()
    loaded = RunStore.load(path)
    assert not loaded.truncated_tail
    assert [o.file for o in loaded.outcomes()] == ["f1.R", "f2.R", "f3.R"]


def test_open_cuts_an_unparseable_final_line_that_ends_in_newline(tmp_path: Path):
    path = tmp_path / "s.jsonl"
    store = RunStore.open(path)
    store.append_outcome(outcome(1))
    store.close()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"kind": "outc\n')
    assert RunStore.load(path).truncated_tail

    store = RunStore.open(path)
    assert store.truncated_tail
    store.append_event("pkg1", "raw", "completed")
    store.close()
    loaded = RunStore.load(path)
    assert not loaded.truncated_tail
    assert [o.file for o in loaded.outcomes()] == ["f1.R"]
    assert loaded.completed_runs() == {("pkg1", "raw")}


@pytest.mark.parametrize("n_appends", [1, 2])
def test_open_cuts_a_record_whose_newline_never_reached_the_disk(tmp_path: Path, n_appends: int):
    path = tmp_path / "s.jsonl"
    store = RunStore.open(path)
    store.append_outcome(outcome(1))
    store.close()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"kind": "outcome", **asdict(outcome(2))}))  # no "\n"
    loaded = RunStore.load(path)
    assert loaded.truncated_tail
    assert [o.file for o in loaded.outcomes()] == ["f1.R"]

    store = RunStore.open(path)
    assert store.truncated_tail
    store.append_outcome(outcome(3))
    if n_appends == 2:
        store.append_event("pkg3", "raw", "completed")
    store.close()
    loaded = RunStore.load(path)
    assert not loaded.truncated_tail
    assert [o.file for o in loaded.outcomes()] == ["f1.R", "f3.R"]
    assert loaded.completed_runs() == ({("pkg3", "raw")} if n_appends == 2 else set())


def _store_torn_inside_e_acute(path: Path, pad: int = 0) -> bytes:
    """A store whose last record, ``pad`` bytes longer, is cut after the first byte of a two-byte ``é``."""
    store = RunStore.open(path)
    store.append_outcome(ExecutionOutcome("p", "é.R", "R1", "raw", "success", stderr_tail="café"))
    store.close()
    whole = json.dumps({"kind": "outcome", "package_id": "p", "stderr_tail": "x" * pad + "é"}, ensure_ascii=False)
    torn = whole.encode("utf-8")[: whole.index("é") + 1]
    with open(path, "ab") as fh:
        fh.write(torn)
    return path.read_bytes()


def test_torn_tail_inside_a_multibyte_character_is_dropped(tmp_path: Path):
    path = tmp_path / "s.jsonl"
    torn = _store_torn_inside_e_acute(path)
    loaded = RunStore.load(path)
    assert loaded.truncated_tail
    assert [o.stderr_tail for o in loaded.outcomes()] == ["café"]
    assert path.read_bytes() == torn  # load stays read-only


def test_open_cuts_a_multibyte_torn_tail_before_appending(tmp_path: Path):
    path = tmp_path / "s.jsonl"
    _store_torn_inside_e_acute(path)
    store = RunStore.open(path)
    assert store.truncated_tail
    store.append_outcome(outcome(2))
    store.append_event("p", "raw", "completed")
    store.close()
    loaded = RunStore.load(path)
    assert not loaded.truncated_tail
    assert [o.file for o in loaded.outcomes()] == ["é.R", "f2.R"]
    assert loaded.completed_runs() == {("p", "raw")}


def test_open_cuts_a_torn_tail_longer_than_the_read_buffer(tmp_path: Path):
    path = tmp_path / "s.jsonl"
    torn = _store_torn_inside_e_acute(path, pad=2**18)  # far more than one read of the file
    loaded = RunStore.load(path)
    assert loaded.truncated_tail
    assert len(torn) - loaded.valid_end > 2**18
    store = RunStore.open(path)
    assert path.stat().st_size == store.valid_end == loaded.valid_end
    store.append_outcome(outcome(2))
    store.close()
    loaded = RunStore.load(path)
    assert not loaded.truncated_tail
    assert [o.file for o in loaded.outcomes()] == ["é.R", "f2.R"]


def test_invalid_utf8_before_the_tail_is_store_error_naming_its_line(tmp_path: Path):
    path = tmp_path / "s.jsonl"
    store = RunStore.open(path)
    for i in range(3):
        store.append_outcome(outcome(i))
    store.close()
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b"f1.R", b"f\xff.R")
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(StoreError, match="line 3 .*not valid UTF-8"):
        RunStore.load(path)


def _store_of_10k_outcomes(path: Path) -> Path:
    """A 10,001-line store over 4 MiB: its config record and 10,000 outcomes of distinct keys."""
    store = RunStore.open(path)
    for i in range(10_000):
        store.append_outcome(ExecutionOutcome(**{**asdict(outcome(i)), "stderr_tail": "é" * 200}))
    store.close()
    assert path.stat().st_size > 4 * 2**20
    return path


def test_load_holds_no_copy_of_the_log(tmp_path: Path):
    path = _store_of_10k_outcomes(tmp_path / "s.jsonl")
    loaded, held, peak = traced_memory(lambda: RunStore.load(path))
    assert len(list(loaded.records)) == 10_001
    assert peak - held < 2**20


def test_load_and_outcomes_hold_one_object_per_outcome(tmp_path: Path):
    path = _store_of_10k_outcomes(tmp_path / "s.jsonl")
    (loaded, outcomes), held, _ = traced_memory(lambda: (s := RunStore.load(path), s.outcomes()))
    assert len(outcomes) == 10_000
    assert held < 10 * 2**20  # one object per outcome, and no dict per record beside it


def test_records_reads_every_whole_record_in_log_order(tmp_path: Path):
    path = tmp_path / "s.jsonl"
    store = RunStore.open(path, run_id="r1")
    stale = outcome(1)
    store.append_outcome(stale)
    store.append_event("pkg1", "raw", "completed")
    rerun = ExecutionOutcome(**{**asdict(stale), "verdict": "error"})
    store.append_outcome(rerun)
    store.close()
    whole = path.read_bytes()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"kind": "outcome", "package_id": "pk')  # a torn tail
    loaded = RunStore.load(path)
    views = (loaded.valid_end, loaded.truncated_tail, loaded.outcomes(), loaded.events(), loaded.completed_runs())
    assert views[:3] == (len(whole), True, [rerun])  # superseded in the views, but not in records

    assert list(loaded.records) == [
        {"kind": "config", "run_id": "r1", "config": {}},
        {"kind": "outcome", **asdict(stale)},
        {"kind": "package_event", "package_id": "pkg1", "mode": "raw", "event": "completed", "detail": None},
        {"kind": "outcome", **asdict(rerun)},
    ]
    assert (loaded.valid_end, loaded.truncated_tail, loaded.outcomes(), loaded.events(), loaded.completed_runs()) == views


def test_records_reads_the_log_one_line_at_a_time(tmp_path: Path):
    path = _store_of_10k_outcomes(tmp_path / "s.jsonl")
    store = RunStore.open(path)
    n, _, peak = traced_memory(lambda: sum(1 for _ in store.records))
    store.close()
    assert n == 10_001
    assert peak < 2**20


def test_open_builds_no_outcome(tmp_path: Path, monkeypatch):
    path = tmp_path / "s.jsonl"
    store = RunStore.open(path)
    for i in range(20):
        store.append_outcome(outcome(i))
    store.append_event("pkg1", "raw", "completed")
    store.close()
    from_fields, calls = store_mod.from_fields, []

    def counting(cls, data, **values):
        if cls is ExecutionOutcome:
            calls.append(data)
        return from_fields(cls, data, **values)

    monkeypatch.setattr(store_mod, "from_fields", counting)
    resumed = RunStore.open(path)
    assert resumed.completed_runs() == {("pkg1", "raw")}
    resumed.append_outcome(outcome(20))
    assert calls == []  # a resumed run builds no outcome
    assert len(resumed.outcomes()) == 21 and len(resumed.outcomes()) == 21
    assert len(calls) == 21  # the first outcomes() builds each once
    resumed.close()


def test_write_that_fails_leaves_the_views_unchanged(tmp_path: Path):
    store = RunStore.open(tmp_path / "s.jsonl")
    store.append_outcome(outcome(1))
    store.close()  # the failing writer below replaces the file handle

    class FullDisk:
        def write(self, line):
            raise OSError(28, "No space left on device")

        def close(self):
            pass

    store._fh = FullDisk()
    views = store.outcomes(), store.packages(), store.events(), store.completed_runs()
    for record in (
        {"kind": "outcome", **asdict(outcome(2))},
        {"kind": "package", "package_id": "pkg2"},
        {"kind": "package_event", "package_id": "pkg1", "mode": "raw", "event": "completed"},
    ):
        with pytest.raises(OSError):
            store.append(record)
    assert (store.outcomes(), store.packages(), store.events(), store.completed_runs()) == views
    store.close()


def test_latest_outcome_of_each_key_wins(tmp_path: Path):
    path = tmp_path / "s.jsonl"
    store = RunStore.open(path)
    stale, other = outcome(1), outcome(2)
    store.append_outcome(stale)
    store.append_outcome(other)
    rerun = ExecutionOutcome(**{**asdict(stale), "verdict": "error", "exit_code": 1})
    store.append_outcome(rerun)
    store.append_outcome(outcome(1, mode="cleaned"))  # another mode is another key
    store.close()
    assert RunStore.load(path).outcomes() == [rerun, other, outcome(1, mode="cleaned")]


def test_corruption_before_tail_is_fatal(tmp_path: Path):
    path = tmp_path / "s.jsonl"
    store = RunStore.open(path)
    for i in range(5):
        store.append_outcome(outcome(i))
    store.close()
    lines = path.read_text().split("\n")
    lines[2] = '{"kind": "outcome", broken'
    path.write_text("\n".join(lines))
    with pytest.raises(StoreError):
        RunStore.load(path)


def test_concurrent_producers_interleave_whole_records(tmp_path: Path):
    store = RunStore.open(tmp_path / "s.jsonl")

    def produce(offset: int):
        for i in range(50):
            store.append_outcome(outcome(offset + i))

    threads = [threading.Thread(target=produce, args=(0,)), threading.Thread(target=produce, args=(1000,))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    store.close()

    loaded = RunStore.load(tmp_path / "s.jsonl")
    assert len(loaded.outcomes()) == 100
    for line in (tmp_path / "s.jsonl").read_text().strip().split("\n"):
        json.loads(line)  # every line is intact JSON


def test_concurrent_package_appends_record_each_package_once(tmp_path: Path):
    store = RunStore.open(tmp_path / "s.jsonl")
    manifests = [PackageManifest(PackageRef(f"p{i}"), root="") for i in range(30)]

    def produce():
        for manifest in manifests:
            store.append_package(manifest)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        producers = [threading.Thread(target=produce) for _ in range(4)]
        for t in producers:
            t.start()
        for t in producers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in producers)
    store.close()
    ids = [r["package_id"] for r in store.records if r["kind"] == "package"]
    assert sorted(ids) == sorted(m.ref.persistent_id for m in manifests)


def test_reopen_resumes_run_id_and_events(tmp_path: Path):
    path = tmp_path / "s.jsonl"
    store = RunStore.open(path, config={"modes": ["raw"]})
    store.append_event("pkgA", "raw", "completed")
    run_id = store.run_id
    store.close()

    resumed = RunStore.open(path)
    assert resumed.run_id == run_id
    assert resumed.completed_runs() == {("pkgA", "raw")}
    n_config = sum(1 for r in resumed.records if r["kind"] == "config")
    assert n_config == 1  # reopening does not add another config record


def test_a_package_is_recorded_once_across_reopens(tmp_path: Path):
    path = tmp_path / "s.jsonl"
    first = make_package(tmp_path / "a", "pkg", {"a.R": "x <- 1\n"}, {"journal": "A"})
    second = make_package(tmp_path / "b", "pkg", {"b.R": "y <- 2\n"}, {"journal": "B"})
    store = RunStore.open(path)
    store.append_package(first)
    store.append_package(second)
    store.close()
    size = path.stat().st_size
    resumed = RunStore.open(path)
    resumed.append_package(second)
    resumed.close()
    assert path.stat().st_size == size
    assert RunStore.load(path).packages()["local:pkg"]["metadata"] == {"journal": "A"}


@pytest.mark.parametrize(
    "field, value, type_name",
    [("metadata", ["x"], "list"), ("metadata", "J", "str"), ("publication_date", 2019, "int")],
)
def test_package_field_of_a_type_reports_cannot_read_is_store_error(tmp_path: Path, field, value, type_name):
    path = tmp_path / "s.jsonl"
    lines = [{"kind": "config", "run_id": "r", "config": {}}, {"kind": "package", "package_id": "p", field: value}]
    path.write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")
    with pytest.raises(StoreError, match=f"line 2 .*{type_name} in '{field}'"):
        RunStore.load(path)
    store = RunStore.open(tmp_path / "new.jsonl")
    with pytest.raises(StoreError, match=f"appended .*'{field}'"):
        store.append(lines[1])
    store.close()
    assert len(list(store.records)) == 1  # the record was never written


@pytest.mark.parametrize(
    "field, value, type_name",
    [("fetch_status", None, "NoneType"), ("fetch_status", ["ok"], "list"), ("package_id", 3, "int")],
)
def test_package_fetch_status_or_id_that_is_not_a_string_is_store_error(tmp_path: Path, field, value, type_name):
    lines = [{"kind": "config", "run_id": "r", "config": {}}, {"kind": "package", "package_id": "p", field: value}]
    (tmp_path / "s.jsonl").write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")
    with pytest.raises(StoreError, match=f"line 2 .*{type_name} in '{field}'"):
        RunStore.load(tmp_path / "s.jsonl")


_OUTCOME = {"kind": "outcome", "package_id": "p", "file": "a.R", "interpreter_label": "R1", "cleaning_mode": "raw",
            "verdict": "error", "error_category": "setwd"}


@pytest.mark.parametrize(
    "field, value",
    [("verdict", "crashed"), ("error_category", "segfault"), ("error_category", 5), ("error_category", ["setwd"]),
     ("package_id", 3), ("file", None), ("interpreter_label", True), ("cleaning_mode", 1)],
)
def test_outcome_off_the_outcome_vocabulary_is_store_error_naming_its_line(tmp_path: Path, field, value):
    record = {**_OUTCOME, field: value}
    lines = [{"kind": "config", "run_id": "r", "config": {}}, record]
    (tmp_path / "s.jsonl").write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")
    with pytest.raises(StoreError, match=f"line 2 .*{re.escape(repr(value))}"):
        RunStore.load(tmp_path / "s.jsonl")
    opened = RunStore.open(tmp_path / "s.jsonl")  # the writer reads no outcome until asked
    with pytest.raises(StoreError, match="line 2"):
        opened.outcomes()
    opened.close()
    store = RunStore.open(tmp_path / "new.jsonl")
    assert store.outcomes() == []  # from here on, appended outcomes are built too
    with pytest.raises(StoreError, match="appended"):
        store.append(record)
    store.close()
    assert len(list(store.records)) == 1  # the record was never written


def test_outcome_with_a_null_error_category_is_read(tmp_path: Path):
    store = RunStore.open(tmp_path / "s.jsonl")
    store.append({**_OUTCOME, "verdict": "success", "error_category": None})
    store.close()
    assert [o.verdict for o in RunStore.load(tmp_path / "s.jsonl").outcomes()] == ["success"]


def test_outcomes_filter_by_mode(tmp_path: Path):
    store = RunStore.open(tmp_path / "s.jsonl")
    store.append_outcome(outcome(1, mode="raw"))
    store.append_outcome(outcome(2, mode="cleaned"))
    assert len(store.outcomes("raw")) == 1
    assert len(store.outcomes("cleaned")) == 1
    assert len(store.outcomes()) == 2
    store.close()


def test_outcomes_include_records_appended_after_first_call(tmp_path: Path):
    store = RunStore.open(tmp_path / "s.jsonl")
    store.append_outcome(outcome(1))
    assert [o.file for o in store.outcomes()] == ["f1.R"]
    store.append_outcome(outcome(2))
    first, second = store.outcomes(), store.outcomes()
    assert first == second == [outcome(1), outcome(2)]
    assert first is not second
    store.close()
    assert RunStore.load(tmp_path / "s.jsonl").outcomes() == first


def test_outcomes_cache_survives_concurrent_appends(tmp_path: Path):
    store = RunStore.open(tmp_path / "s.jsonl")
    stop = threading.Event()

    def produce(offset: int):
        for i in range(100):
            store.append_outcome(outcome(offset + i))

    def read():
        while not stop.is_set():
            store.outcomes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        readers = [threading.Thread(target=read) for _ in range(2)]
        producers = [threading.Thread(target=produce, args=(k * 1000,)) for k in range(4)]
        for t in readers + producers:
            t.start()
        for t in producers:
            t.join(timeout=60)
        stop.set()
        for t in readers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in readers + producers)
    assert len(store.outcomes()) == 400
    store.close()
    assert store.outcomes() == RunStore.load(tmp_path / "s.jsonl").outcomes()


def test_outcome_record_missing_required_key_is_store_error(tmp_path: Path):
    path = tmp_path / "s.jsonl"
    path.write_text('{"kind": "outcome", "package_id": "p", "file": "a.R"}\n', encoding="utf-8")
    with pytest.raises(StoreError, match=r"line 1 .*'interpreter_label'"):
        RunStore.load(path)


def test_opened_store_raises_on_a_malformed_outcome_at_its_first_outcomes(tmp_path: Path):
    path = tmp_path / "s.jsonl"
    path.write_text('{"kind": "outcome", "package_id": "p", "file": "a.R"}\n', encoding="utf-8")
    store = RunStore.open(path)  # the writer does not build outcomes
    assert len(list(store.records)) == 1
    for _ in range(2):  # a failed first read leaves no partial view behind
        with pytest.raises(StoreError, match=r"line 1 .*'interpreter_label'"):
            store.outcomes()
    store.close()


@pytest.mark.parametrize(
    "record, key",
    [
        ({"kind": "outcome", "package_id": "p", "file": "a.R", "interpreter_label": "R1", "cleaning_mode": "raw"},
         "verdict"),
        ({"kind": "package", "title": "no id"}, "package_id"),
        ({"kind": "package_event", "package_id": "p", "event": "completed"}, "mode"),
        ({"kind": "package_event", "mode": "raw", "event": "completed"}, "package_id"),
    ],
    ids=["outcome-without-verdict", "package-without-id", "completed-without-mode", "completed-without-id"],
)
def test_record_lacking_a_key_its_view_needs_is_store_error_naming_its_line(tmp_path: Path, record, key):
    path = tmp_path / "s.jsonl"
    lines = [{"kind": "config", "run_id": "r", "config": {}}, record, {"kind": "package_event", "event": "started"}]
    path.write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")
    with pytest.raises(StoreError, match=f"line 2 .*'{key}'"):
        RunStore.load(path)
    store = RunStore.open(tmp_path / "new.jsonl")
    assert store.outcomes() == []  # from here on, appended outcomes are built too
    with pytest.raises(StoreError, match=f"appended .*'{key}'"):
        store.append(record)
    store.close()
    assert len(list(store.records)) == 1  # the record was never written


@pytest.mark.parametrize(
    "record",
    [
        {"kind": "outcome", "package_id": "p", "file": ["a.R"], "interpreter_label": "R1", "cleaning_mode": "raw",
         "verdict": "success"},
        {"kind": "package", "package_id": ["x"]},
        {"kind": "package_event", "package_id": "p", "mode": ["raw"], "event": "completed"},
    ],
    ids=["outcome-file-list", "package-id-list", "completed-mode-list"],
)
def test_record_with_an_unhashable_key_field_is_store_error_naming_its_line(tmp_path: Path, record):
    path = tmp_path / "s.jsonl"
    lines = [{"kind": "config", "run_id": "r", "config": {}}, record]
    path.write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")
    with pytest.raises(StoreError, match="line 2 .*unhashable"):
        RunStore.load(path)
    store = RunStore.open(tmp_path / "new.jsonl")
    assert store.outcomes() == []  # from here on, appended outcomes are built too
    with pytest.raises(StoreError, match="appended .*unhashable"):
        store.append(record)
    store.close()
    assert len(list(store.records)) == 1  # the record was never written


def test_record_that_is_not_an_object_is_store_error(tmp_path: Path):
    path = tmp_path / "s.jsonl"
    path.write_text('{"kind": "config", "run_id": "r", "config": {}}\n[1, 2]\n', encoding="utf-8")
    with pytest.raises(StoreError, match="line 2"):
        RunStore.load(path)
