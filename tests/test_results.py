from __future__ import annotations

import itertools
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reprorun.results as results_mod
from reprorun.executor import ExecutionOutcome
from reprorun.results import (
    GROUP_COLUMNS,
    CombinedResult,
    MismatchError,
    aggregate_dataset,
    combine_outcomes,
    combined_results,
    compare_runs,
    dataset_results,
    group_report,
    group_value,
    render_csv,
    render_json,
    render_overview_text,
    overview,
    success_rate,
)
from reprorun.store import RunStore

VERDICTS = ("success", "error", "tle")


def oracle_combined(verdicts) -> str:
    """Independent statement of the combination table."""
    if "success" in verdicts:
        return "success"
    if "tle" in verdicts:
        return "tle"
    return "error"


def test_exhaustive_27_triples_match_table():
    for triple in itertools.product(VERDICTS, repeat=3):
        assert combine_outcomes(triple) == oracle_combined(triple), triple


def test_combine_paper_rows():
    assert combine_outcomes(["success", "error", "tle"]) == "success"
    assert combine_outcomes(["tle", "error", "error"]) == "tle"
    assert combine_outcomes(["error", "error", "error"]) == "error"


def test_combine_ignores_unassigned_and_empty():
    assert combine_outcomes(["unassigned", "error"]) == "error"
    assert combine_outcomes(["unassigned"]) == "unassigned"
    assert combine_outcomes([]) == "unassigned"


@given(st.lists(st.sampled_from(VERDICTS), min_size=1, max_size=6))
def test_combine_is_order_insensitive(verdicts):
    baseline = combine_outcomes(verdicts)
    for perm in itertools.islice(itertools.permutations(verdicts), 24):
        assert combine_outcomes(perm) == baseline


_ORDERING = {"error": 0, "tle": 1, "success": 2}


@given(st.lists(st.sampled_from(VERDICTS), min_size=1, max_size=6))
def test_adding_success_never_lowers_the_verdict(verdicts):
    before = combine_outcomes(verdicts)
    after = combine_outcomes(verdicts + ["success"])
    assert _ORDERING[after] >= _ORDERING[before]


# --- dataset aggregation ---------------------------------------------------------


def combined(verdicts, pid="p1", mode="cleaned"):
    return [
        CombinedResult(pid, f"f{i}.R", mode, v, "other" if v == "error" else None)
        for i, v in enumerate(verdicts)
    ]


def oracle_dataset(verdicts) -> str:
    if "success" in verdicts:
        return "success"
    if "tle" in verdicts:
        return "excluded_tle"
    return "error"


def test_dataset_rules_brute_force_up_to_4():
    for size in range(1, 5):
        for verdicts in itertools.product(VERDICTS, repeat=size):
            assert aggregate_dataset(combined(verdicts)).verdict == oracle_dataset(verdicts), verdicts


def test_dataset_paper_examples():
    assert aggregate_dataset(combined(["success", "error"])).verdict == "success"
    assert aggregate_dataset(combined(["error", "tle"])).verdict == "excluded_tle"
    assert aggregate_dataset(combined(["error", "error"])).verdict == "error"


def test_dataset_empty_is_excluded_no_results():
    assert aggregate_dataset([]).verdict == "excluded_no_results"


def test_dataset_mixed_packages_rejected():
    rows = combined(["success"]) + combined(["error"], pid="p2")
    with pytest.raises(ValueError):
        aggregate_dataset(rows)


def outcome(pid, file, label, verdict, mode="cleaned", category=None):
    return ExecutionOutcome(
        package_id=pid, file=file, interpreter_label=label, cleaning_mode=mode,
        verdict=verdict, error_category=category,
    )


@given(
    st.dictionaries(
        st.sampled_from(["a.R", "b.R", "c.R"]),
        st.lists(st.sampled_from(VERDICTS), min_size=1, max_size=3),
        min_size=1,
        max_size=3,
    )
)
def test_aggregation_from_raw_outcomes_matches_brute_force(files):
    outcomes = [
        outcome("pkg", name, f"R{i}", verdict, category="other" if verdict == "error" else None)
        for name, verdicts in files.items()
        for i, verdict in enumerate(verdicts)
    ]
    per_file = combined_results(outcomes, "cleaned")
    got = dataset_results(per_file)[0].verdict

    file_verdicts = [oracle_combined(vs) for vs in files.values()]
    assert got == oracle_dataset(file_verdicts)


# --- success rates ------------------------------------------------------------------


def test_success_rate_excludes_tle_from_denominator():
    rows = combined(["success", "success", "error", "error", "tle", "tle", "tle", "tle", "tle", "tle"])
    rate = success_rate(rows)
    assert (rate.numerator, rate.denominator) == (2, 4)
    assert rate.rate == 0.5


def test_success_rate_all_success_and_all_tle():
    assert success_rate(combined(["success"] * 3)).rate == 1.0
    empty = success_rate(combined(["tle"] * 3))
    assert empty.rate is None
    assert (empty.numerator, empty.denominator) == (0, 0)


# --- cleaning comparison --------------------------------------------------------------


def _cr(pid, file, verdict, category=None, mode="raw"):
    return CombinedResult(pid, file, mode, verdict, category)


def test_compare_runs_transitions_and_conservation():
    raw = [
        _cr("p", "a.R", "error", "setwd"),
        _cr("p", "b.R", "success"),
        _cr("p", "c.R", "error", "other"),
        _cr("p", "d.R", "error", "library"),
        _cr("p", "e.R", "tle"),
    ]
    cleaned = [
        _cr("p", "a.R", "success", mode="cleaned"),
        _cr("p", "b.R", "success", mode="cleaned"),
        _cr("p", "c.R", "error", "other", mode="cleaned"),
        _cr("p", "d.R", "success", mode="cleaned"),
        _cr("p", "e.R", "tle", mode="cleaned"),
    ]
    report = compare_runs(raw, cleaned)
    assert report.n_restricted == 4  # e.R excluded for TLE
    assert report.fixed == 2 and report.broken == 0
    assert report.unchanged_success == 1 and report.unchanged_error == 1
    assert report.fixed + report.broken + report.unchanged_success + report.unchanged_error == report.n_restricted
    transitions = {(t["from"], t["to"]): t["count"] for t in report.transitions}
    assert transitions == {
        ("setwd", "success"): 1,
        ("library", "success"): 1,
        ("other", "other"): 1,
        ("success", "success"): 1,
    }
    assert (report.raw_rate.numerator, report.raw_rate.denominator) == (1, 4)
    assert (report.cleaned_rate.numerator, report.cleaned_rate.denominator) == (3, 4)
    assert (report.best_of_both.numerator, report.best_of_both.denominator) == (3, 4)


def test_compare_runs_counts_breakage():
    raw = [_cr("p", "a.R", "success")]
    cleaned = [_cr("p", "a.R", "error", "other", mode="cleaned")]
    report = compare_runs(raw, cleaned)
    assert report.broken == 1
    assert {(t["from"], t["to"]) for t in report.transitions} == {("success", "other")}


def test_compare_runs_disjoint_sets_fatal():
    with pytest.raises(MismatchError):
        compare_runs([_cr("p", "a.R", "success")], [_cr("p", "b.R", "success", mode="cleaned")])


# --- grouped reports --------------------------------------------------------------------


def _store_with(tmp_path: Path, outcomes, packages) -> RunStore:
    store = RunStore.open(tmp_path / "store.jsonl")
    for pid, meta in packages.items():
        store.append(
            {"kind": "package", "package_id": pid, "title": pid,
             "publication_date": meta.pop("_date", None), "metadata": meta}
        )
    for oc in outcomes:
        store.append_outcome(oc)
    store.close()
    return store


def test_group_report_two_journals(tmp_path: Path):
    outcomes = [
        # JournalX: 4 explicit files, 2 success / 2 error (plus a tle that stays out)
        outcome("p1", "a.R", "R1", "success"),
        outcome("p1", "b.R", "R1", "success"),
        outcome("p1", "c.R", "R1", "error", category="other"),
        outcome("p2", "d.R", "R1", "error", category="other"),
        outcome("p2", "e.R", "R1", "tle"),
        # JournalY: 3 files, all success
        outcome("p3", "f.R", "R1", "success"),
        outcome("p3", "g.R", "R1", "success"),
        outcome("p4", "h.R", "R1", "success"),
    ]
    packages = {
        "p1": {"journal": "JournalX"},
        "p2": {"journal": "JournalX"},
        "p3": {"journal": "JournalY"},
        "p4": {"journal": "JournalY"},
    }
    store = _store_with(tmp_path, outcomes, packages)
    rows = group_report(store, "journal")
    assert [row["group"] for row in rows] == ["JournalX", "JournalY"]
    x, y = rows
    assert x["file_success_rate"] == 0.5 and x["n_files"] == 4
    assert y["file_success_rate"] == 1.0 and y["n_files"] == 3
    # p1 has a success so it counts; p2 (error + tle, no success) is excluded
    assert x["dataset_success_rate"] == 1.0 and x["n_datasets"] == 1
    assert y["dataset_success_rate"] == 1.0 and y["n_datasets"] == 2


def test_group_report_single_year_row(tmp_path: Path):
    store = _store_with(
        tmp_path,
        [outcome("p1", "a.R", "R1", "success")],
        {"p1": {"year": "2018"}},
    )
    rows = group_report(store, "year")
    assert rows == [
        {"group": "2018", "file_success_rate": 1.0, "dataset_success_rate": 1.0,
         "n_files": 1, "n_datasets": 1}
    ]


def test_year_falls_back_to_publication_date(tmp_path: Path):
    store = _store_with(
        tmp_path,
        [outcome("p1", "a.R", "R1", "success")],
        {"p1": {"_date": "2016-05-01T00:00:00Z"}},
    )
    assert group_report(store, "year")[0]["group"] == "2016"


def test_subject_specificity_rule(tmp_path: Path):
    assert group_value({"metadata": {"subject": ["social science", "law"]}}, "subject") == "law"
    assert group_value({"metadata": {"subject": ["Social Sciences"]}}, "subject") == "Social Sciences"
    assert group_value({"metadata": {"subject": "law"}}, "subject") == "law"
    assert group_value({"metadata": {"subject": 5}}, "subject") == "5"
    assert group_value({"metadata": {}}, "subject") == "(unlabeled)"
    store = _store_with(
        tmp_path,
        [outcome("p1", "a.R", "R1", "success")],
        {"p1": {"subject": ["social science", "law"]}},
    )
    assert group_report(store, "subject")[0]["group"] == "law"


def test_missing_key_grouped_unlabeled(tmp_path: Path):
    store = _store_with(
        tmp_path,
        [outcome("p1", "a.R", "R1", "success"), outcome("p2", "b.R", "R1", "error", category="other")],
        {"p1": {"journal": "J"}, "p2": {}},
    )
    rows = group_report(store, "journal")
    assert [row["group"] for row in rows] == ["(unlabeled)", "J"]


def test_group_by_interpreter_uses_per_version_outcomes(tmp_path: Path):
    outcomes = [
        outcome("p1", "a.R", "R1", "success"),
        outcome("p1", "a.R", "R2", "error", category="other"),
        outcome("p1", "b.R", "R1", "error", category="other"),
        outcome("p1", "b.R", "R2", "error", category="other"),
    ]
    timed_out_once = [
        outcome("p2", "c.R", "R1", "tle"),
        outcome("p2", "c.R", "R2", "error", category="other"),
    ]
    store = _store_with(tmp_path, outcomes + timed_out_once, {"p1": {}, "p2": {}})
    rows = group_report(store, "interpreter_label")
    assert [row["group"] for row in rows] == ["R1", "R2"]
    assert rows[0]["file_success_rate"] == 0.5  # R1: 1 of 2, the TLE is not counted
    assert rows[1]["file_success_rate"] == 0.0  # R2: 0 of 3
    assert [row["n_files"] for row in rows] == [2, 3]
    # per-version datasets: p2 timed out only under R1, so R1 excludes it
    assert (rows[0]["dataset_success_rate"], rows[0]["n_datasets"]) == (1.0, 1)
    assert (rows[1]["dataset_success_rate"], rows[1]["n_datasets"]) == (0.0, 2)
    # combined verdicts would have hidden the per-version difference
    assert [r.verdict for r in combined_results(outcomes, "cleaned")] == ["success", "error"]


def test_reports_are_deterministic(tmp_path: Path):
    outcomes = [
        outcome("p1", "a.R", "R1", "success", mode="raw"),
        outcome("p1", "a.R", "R1", "success"),
        outcome("p2", "b.R", "R1", "error", category="library", mode="raw"),
        outcome("p2", "b.R", "R1", "success"),
    ]
    store = _store_with(tmp_path, outcomes, {"p1": {"journal": "J"}, "p2": {"journal": "J"}})
    first = (
        render_json(overview(store)),
        render_csv(group_report(store, "journal"), GROUP_COLUMNS),
        render_overview_text(overview(store)),
    )
    second = (
        render_json(overview(store)),
        render_csv(group_report(store, "journal"), GROUP_COLUMNS),
        render_overview_text(overview(store)),
    )
    assert first == second
    assert "fixed=1 broken=0" in first[2]


def test_overview_folds_each_mode_once(tmp_path: Path, monkeypatch):
    outcomes = [
        outcome("p1", "a.R", "R1", "error", category="setwd", mode="raw"),
        outcome("p1", "a.R", "R2", "error", category="setwd", mode="raw"),
        outcome("p1", "a.R", "R1", "success"),
        outcome("p1", "a.R", "R2", "success"),
    ]
    store = _store_with(tmp_path, outcomes, {"p1": {}})
    calls = []
    fold = results_mod.combined_results
    monkeypatch.setattr(
        results_mod, "combined_results", lambda outs, mode: calls.append(mode) or fold(outs, mode)
    )
    report = overview(store)
    assert sorted(calls) == ["cleaned", "raw"]
    assert [m["mode"] for m in report["modes"]] == ["cleaned", "raw"]
    assert report["cleaning_effect"]["fixed"] == 1


def test_group_csv_columns_stable(tmp_path: Path):
    store = _store_with(tmp_path, [outcome("p1", "a.R", "R1", "success")], {"p1": {"journal": "J"}})
    csv_text = render_csv(group_report(store, "journal"), GROUP_COLUMNS)
    header = csv_text.split("\n", 1)[0]
    assert header == "group,file_success_rate,dataset_success_rate,n_files,n_datasets"
