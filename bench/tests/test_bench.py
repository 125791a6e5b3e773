"""Tests of the benchmark's generator, oracle, check and span analysis.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "tests"))

import check  # noqa: E402
import corpus  # noqa: E402
import spans  # noqa: E402
from conftest import DEMO_PACKAGES  # noqa: E402
from reprorun.cleaner import clean_text  # noqa: E402
from reprorun.config import stub_interpreters  # noqa: E402
from reprorun.executor import execute_file  # noqa: E402


def _digest(c: corpus.Corpus) -> str:
    h = hashlib.sha256()
    for d in c.datasets:
        h.update(json.dumps([d.pid, d.title, d.journal, d.policy, d.year, d.subjects]).encode())
        for f in d.files:
            h.update(f.name.encode() + b"\0" + f.data + b"\0" + str(f.klass).encode())
    h.update(json.dumps(sorted(map(list, c.resume_partial.items())), default=list).encode())
    return h.hexdigest()


def _shape(c: corpus.Corpus):
    return (
        [[f.klass for f in d.r_files()] for d in c.datasets],
        sorted((c.datasets.index(d), mode, n) for d in c.datasets
               for (pid, mode), n in c.resume_partial.items() if pid == d.pid),
    )


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    first, again, other = (corpus.generate(workload, s) for s in (7, 7, 8))
    assert _digest(first) == _digest(again)
    assert corpus.oracle(first) == corpus.oracle(again)
    assert _digest(first) != _digest(other)
    # the seed changes the content, never the shape or layout
    assert _shape(first) == _shape(other)


def _demo_oracle() -> dict:
    """Oracle of the demo corpus the acceptance tests use, one file per demo class."""
    klass_of = {
        "pkg-success": "success", "pkg-setwd": "setwd", "pkg-library": "library",
        "pkg-object": "object", "pkg-tle": "tle",
    }
    files, packages = [], {}
    for name, contents in DEMO_PACKAGES.items():
        packages[name] = {"journal": "J", "policy_class": "p", "year": "2019"}
        for fname in contents:
            if fname.endswith(".R"):
                klass = klass_of[name]
                files.append({"package_id": name, "file": fname, "class": klass,
                              **{m: list(corpus.CLASSES[klass][m]) for m in corpus.MODES}})
    return {"versions": list(corpus.VERSIONS), "modes": list(corpus.MODES),
            "packages": packages, "files": files}


def test_oracle_agrees_with_acceptance_expectations_on_demo_classes():
    # test_acceptance C5: raw 1/4, cleaned 3/4 at file level, fixed 2, broken 0
    report = check.expectations(_demo_oracle()).report
    cleaned, raw = report["modes"]  # sorted by mode name
    assert (raw["mode"], cleaned["mode"]) == ("raw", "cleaned")
    assert (raw["file_rate"]["numerator"], raw["file_rate"]["denominator"]) == (1, 4)
    assert (cleaned["file_rate"]["numerator"], cleaned["file_rate"]["denominator"]) == (3, 4)
    assert report["cleaning_effect"]["fixed"] == 2
    assert report["cleaning_effect"]["broken"] == 0
    assert raw["file_verdicts"] == {"error": 3, "success": 1, "tle": 1}


def _verdict(script: bytes, mode: str, workspace: Path, data_files: dict[str, bytes]) -> tuple:
    shutil.rmtree(workspace, ignore_errors=True)
    workspace.mkdir(parents=True)
    for name, data in data_files.items():
        (workspace / name).write_bytes(data)
    text = clean_text(script)[0].encode() if mode == "cleaned" else script
    (workspace / "script.R").write_bytes(text)
    spec = stub_interpreters(preinstalled=corpus.STUB_PREINSTALLED, repo=corpus.STUB_REPO)[0]
    # the stub must import reprorun from any working directory
    spec.env["PYTHONPATH"] = str(ROOT / "src")
    outcome = execute_file(workspace / "script.R", spec, 0.6, workspace)
    return outcome.verdict, outcome.error_category


def test_demo_scripts_behave_as_their_class(tmp_path):
    klass_of = {"success.R": "success", "analysis.R": "setwd", "model.R": "library",
                "broken.R": "object", "slow.R": "tle"}
    for contents in DEMO_PACKAGES.values():
        for fname, text in contents.items():
            if fname in klass_of:
                for mode in corpus.MODES:
                    got = _verdict(text.encode(), mode, tmp_path / "ws", {})
                    assert got == corpus.CLASSES[klass_of[fname]][mode], (fname, mode)


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_generated_scripts_behave_as_the_oracle_says(workload, tmp_path):
    """One script of every class (and every kind of hostile content) under the real stub."""
    c = corpus.generate(workload, 3)
    seen = set()
    for d in c.datasets:
        data_files = {f.name: f.data for f in d.files if f.klass is None}
        for f in d.r_files():
            kind = (f.klass, f.twin, f.data.isascii())
            if kind in seen:
                continue
            seen.add(kind)
            for mode in corpus.MODES:
                got = _verdict(f.data, mode, tmp_path / "ws", data_files)
                assert got == corpus.CLASSES[f.klass][mode], (d.pid, f.name, mode)
    assert {k[0] for k in seen} == set(c.shape.classes)


@pytest.mark.parametrize("mid_unit", [False, True])
def test_prior_run_leaves_a_few_units_unfinished(tmp_path, mid_unit):
    from reprorun.store import RunStore

    c = corpus.generate("resume-large", 5)
    append_s = corpus.seed_prior_run(c, tmp_path / "store.jsonl", mid_unit=mid_unit)
    store = RunStore.load(tmp_path / "store.jsonl")
    n_units = len(c.datasets) * len(corpus.MODES)
    assert len(store.completed_runs()) == n_units - len(c.resume_partial)
    assert len(append_s) == len(store.outcomes())
    for (pid, mode), n in c.resume_partial.items():
        recorded = [o for o in store.outcomes(mode) if o.package_id == pid]
        assert len(recorded) == (n if mid_unit else 0)
        assert {o.interpreter_label for o in recorded} <= {corpus.VERSIONS[0]}
    # a unit stopped mid-unit is in the cleaned mode the version report reads
    assert any(n and mode == "cleaned" for (_, mode), n in c.resume_partial.items())


def test_check_counts_each_wrong_item_once(tmp_path):
    oracle = _demo_oracle()
    expected = check.expectations(oracle)
    records = [
        {"kind": "outcome", "package_id": f["package_id"], "file": f["file"],
         "cleaning_mode": mode, "interpreter_label": version,
         "verdict": f[mode][0], "error_category": f[mode][1]}
        for f in oracle["files"] for mode in oracle["modes"] for version in oracle["versions"]
    ]
    for name, payload in (
        (f"{check.REPORT_PLAIN}/report.json", {"run_id": "r1", **expected.report}),
        (f"{check.REPORT_VERSION}/grouped.json", expected.version_rows),
        (f"{check.REPORT_JOURNAL}/grouped.json", expected.journal_rows),
    ):
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(json.dumps(payload))

    def run_check(records, codes):
        (tmp_path / "store.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
        return check.check_repetition(expected, tmp_path, {"run": codes})

    assert run_check(records, [0]).failed == 0
    # every version of pkg-success/success.R errs in raw mode: that file's
    # combined verdict and its dataset verdict are wrong; one stage failed
    for r in records:
        if r["package_id"] == "pkg-success" and r["cleaning_mode"] == "raw":
            r["verdict"], r["error_category"] = "error", "other"
    result = run_check(records, [3])
    assert result.failed == 3, result.problems
    assert result.attempted == run_check(records, [0]).attempted


def test_self_time_subtracts_covered_child_time():
    s = [
        {"id": 1, "name": "outer", "start": 0.0, "end": 10.0, "parent": None, "unit": None, "attrs": {}},
        {"id": 2, "name": "inner", "start": 1.0, "end": 4.0, "parent": 1, "unit": None, "attrs": {}},
        {"id": 3, "name": "inner", "start": 3.0, "end": 6.0, "parent": 1, "unit": None, "attrs": {}},
    ]
    rows = {r["name"]: r for r in spans.self_times(s)}
    assert rows["outer"]["self_s"] == pytest.approx(5.0)  # children cover 1..6
    assert rows["inner"]["calls"] == 2 and rows["inner"]["self_s"] == pytest.approx(6.0)
    assert spans.percentile([5.0, 1.0, 3.0, 2.0, 4.0], 0.5) == 3.0
    assert spans.percentile([5.0, 1.0, 3.0, 2.0, 4.0], 0.9) == 5.0


def test_setup_probe_stops_where_the_first_child_would_start(tmp_path, monkeypatch):
    import pipeline
    from reprorun import executor
    from reprorun.ingest import FileEntry, PackageManifest, PackageRef

    root = tmp_path / "pkg"
    root.mkdir()
    (root / "a.R").write_text("x <- 1\n")
    manifest = PackageManifest(ref=PackageRef("doi:10.5072/FK2/PROBE"), root=str(root), files=[FileEntry("a.R", 7)])
    monkeypatch.setattr(executor, "execute_file", executor.execute_file)  # restored after the test
    calls = pipeline._stop_before_children(executor)
    with pytest.raises(pipeline.SetupProbeStop):
        executor.execute_package(
            manifest, stub_interpreters(), executor.Budget(1.0, 10.0), executor.MODE_RAW, tmp_path / "scratch"
        )
    assert len(calls) == 1
    # the first workspace was populated before the stop, then removed
    assert not any((tmp_path / "scratch").iterdir())
