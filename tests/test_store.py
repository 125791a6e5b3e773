from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

from reprorun.executor import ExecutionOutcome
from reprorun.store import RunStore, StoreError


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
    assert [o.to_dict() for o in loaded.outcomes()] == [outcome(i).to_dict() for i in range(100)]


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


def test_outcomes_filter_by_mode(tmp_path: Path):
    store = RunStore.open(tmp_path / "s.jsonl")
    store.append_outcome(outcome(1, mode="raw"))
    store.append_outcome(outcome(2, mode="cleaned"))
    assert len(store.outcomes("raw")) == 1
    assert len(store.outcomes("cleaned")) == 1
    assert len(store.outcomes()) == 2


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
    store = RunStore.load(path)  # loading does not parse outcomes
    assert len(store.records) == 1
    with pytest.raises(StoreError, match=r"line 1 .*'interpreter_label'"):
        store.outcomes()


def test_record_that_is_not_an_object_is_store_error(tmp_path: Path):
    path = tmp_path / "s.jsonl"
    path.write_text('{"kind": "config", "run_id": "r", "config": {}}\n[1, 2]\n', encoding="utf-8")
    with pytest.raises(StoreError, match="line 2"):
        RunStore.load(path)
