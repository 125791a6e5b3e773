"""Fold per-version outcomes into combined verdicts and grouped reports.

Combination rules per file across interpreter versions: any success wins,
otherwise any time-limit-exceeded makes the file TLE, otherwise it is an
error. Dataset aggregation: a package with at least one successful file
is a success, a package whose remaining files only timed out is excluded,
otherwise it is an error. Success rates always report numerator and
denominator explicitly; TLE and unassigned files never enter a
denominator. All report functions are read-only and deterministic:
identical stores produce byte-identical reports.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import asdict, dataclass

from .executor import (
    CATEGORY_OTHER,
    ERROR_CATEGORIES,
    MODE_CLEANED,
    MODE_RAW,
    VERDICT_ERROR,
    VERDICT_SUCCESS,
    VERDICT_TLE,
    VERDICT_UNASSIGNED,
    ExecutionOutcome,
)

DATASET_SUCCESS = "success"
DATASET_ERROR = "error"
DATASET_EXCLUDED_TLE = "excluded_tle"
DATASET_EXCLUDED_NO_RESULTS = "excluded_no_results"

UNLABELED = "(unlabeled)"

_SOCIAL_SCIENCE = {"social science", "social sciences"}


class MismatchError(Exception):
    """compare_runs was given runs over disjoint file sets."""


@dataclass
class CombinedResult:
    """Per-file verdict folded across interpreter versions."""

    package_id: str
    file: str
    cleaning_mode: str
    verdict: str
    error_category: str | None = None


@dataclass
class DatasetResult:
    """Per-package verdict folded across that package's combined file results."""

    package_id: str
    cleaning_mode: str
    verdict: str


@dataclass
class SuccessRate:
    numerator: int
    denominator: int

    @property
    def rate(self) -> float | None:
        return self.numerator / self.denominator if self.denominator else None

    def to_dict(self) -> dict:
        return {"rate": self.rate, "numerator": self.numerator, "denominator": self.denominator}


def combine_outcomes(verdicts) -> str:
    """Fold a multiset of per-interpreter verdicts into one combined verdict.

    Order-insensitive: any success -> success; else any tle -> tle; else
    all error -> error. Unassigned entries are not results and are
    ignored; an empty multiset stays unassigned.
    """
    vs = [v for v in verdicts if v != VERDICT_UNASSIGNED]
    if VERDICT_SUCCESS in vs:
        return VERDICT_SUCCESS
    if VERDICT_TLE in vs:
        return VERDICT_TLE
    if vs:
        return VERDICT_ERROR
    return VERDICT_UNASSIGNED


def _majority_category(categories: list[str]) -> str:
    counts = Counter(categories)
    return max(counts, key=lambda c: (counts[c], -ERROR_CATEGORIES.index(c)))


def combine_file_outcomes(outcomes: list[ExecutionOutcome]) -> CombinedResult:
    """Combined verdict for one file's outcomes across interpreters.

    For a combined error the category is the most frequent one among the
    per-interpreter errors (ties broken by the classifier's rule order),
    so cleaning-effect transitions have a single before/after state.
    """
    first = outcomes[0]
    verdict = combine_outcomes(o.verdict for o in outcomes)
    category = None
    if verdict == VERDICT_ERROR:
        category = _majority_category(
            [o.error_category or CATEGORY_OTHER for o in outcomes if o.verdict == VERDICT_ERROR]
        )
    return CombinedResult(
        package_id=first.package_id,
        file=first.file,
        cleaning_mode=first.cleaning_mode,
        verdict=verdict,
        error_category=category,
    )


def combined_results(outcomes: list[ExecutionOutcome], mode: str) -> list[CombinedResult]:
    """Per-file combined verdicts for one cleaning mode, sorted by (package, file)."""
    groups: dict[tuple[str, str], list[ExecutionOutcome]] = {}
    for outcome in outcomes:
        if outcome.cleaning_mode != mode:
            continue
        groups.setdefault((outcome.package_id, outcome.file), []).append(outcome)
    return [combine_file_outcomes(groups[key]) for key in sorted(groups)]


def aggregate_dataset(file_results: list[CombinedResult]) -> DatasetResult:
    """Fold one package's combined file verdicts into a dataset verdict.

    Any successful file makes the dataset a success (even when other
    files timed out); otherwise any TLE excludes the dataset; otherwise
    it is an error. An empty input is excluded with reason no_results.
    """
    pids = {r.package_id for r in file_results}
    modes = {r.cleaning_mode for r in file_results}
    if len(pids) > 1 or len(modes) > 1:
        raise ValueError(f"mixed packages/modes in dataset aggregation: {pids} {modes}")
    verdicts = {r.verdict for r in file_results}
    if VERDICT_SUCCESS in verdicts:
        verdict = DATASET_SUCCESS
    elif VERDICT_TLE in verdicts:
        verdict = DATASET_EXCLUDED_TLE
    elif VERDICT_ERROR in verdicts:
        verdict = DATASET_ERROR
    else:
        verdict = DATASET_EXCLUDED_NO_RESULTS
    return DatasetResult(
        package_id=next(iter(pids), ""),
        cleaning_mode=next(iter(modes), ""),
        verdict=verdict,
    )


def dataset_results(combined: list[CombinedResult]) -> list[DatasetResult]:
    """Dataset verdicts per (package, mode); per-version outcomes fold the same way."""
    groups: dict[tuple[str, str], list[CombinedResult]] = {}
    for result in combined:
        groups.setdefault((result.package_id, result.cleaning_mode), []).append(result)
    return [aggregate_dataset(groups[key]) for key in sorted(groups)]


def success_rate(results) -> SuccessRate:
    """Success rate with explicit counts; only explicit success/error verdicts count.

    TLE, unassigned, and excluded datasets never enter the denominator,
    matching how the source rates are computed.
    """
    verdicts = [r.verdict for r in results]
    numerator = sum(1 for v in verdicts if v == VERDICT_SUCCESS)
    denominator = numerator + sum(1 for v in verdicts if v == VERDICT_ERROR)
    return SuccessRate(numerator, denominator)


def _state(result: CombinedResult) -> str:
    if result.verdict == VERDICT_SUCCESS:
        return VERDICT_SUCCESS
    return result.error_category or CATEGORY_OTHER


@dataclass
class CleaningEffectReport:
    """Raw-vs-cleaned comparison restricted to files explicit in both runs."""

    n_common_files: int
    n_restricted: int
    fixed: int
    broken: int
    unchanged_success: int
    unchanged_error: int
    transitions: list[dict]
    raw_rate: SuccessRate
    cleaned_rate: SuccessRate
    best_of_both: SuccessRate

    def to_dict(self) -> dict:
        rates = {key: getattr(self, key).to_dict() for key in ("raw_rate", "cleaned_rate", "best_of_both")}
        return {**asdict(self), **rates}


def compare_runs(raw: list[CombinedResult], cleaned: list[CombinedResult]) -> CleaningEffectReport:
    """Cleaning-effect report over files with explicit verdicts in both modes.

    Emits the error-category transition matrix, fixed/broken/unchanged
    counts, per-mode rates on the restricted set, and the best-of-both
    rate (success if either mode succeeded).
    """
    raw_by = {(r.package_id, r.file): r for r in raw}
    cleaned_by = {(r.package_id, r.file): r for r in cleaned}
    common = sorted(set(raw_by) & set(cleaned_by))
    if not common and (raw_by or cleaned_by):
        raise MismatchError("raw and cleaned runs cover disjoint file sets")

    explicit = (VERDICT_SUCCESS, VERDICT_ERROR)
    pairs = [
        (raw_by[key], cleaned_by[key])
        for key in common
        if raw_by[key].verdict in explicit and cleaned_by[key].verdict in explicit
    ]
    transitions: Counter = Counter((_state(r), _state(c)) for r, c in pairs)
    moves = Counter((r.verdict, c.verdict) for r, c in pairs)
    best = sum(1 for r, c in pairs if VERDICT_SUCCESS in (r.verdict, c.verdict))
    return CleaningEffectReport(
        n_common_files=len(common),
        n_restricted=len(pairs),
        fixed=moves[VERDICT_ERROR, VERDICT_SUCCESS],
        broken=moves[VERDICT_SUCCESS, VERDICT_ERROR],
        unchanged_success=moves[VERDICT_SUCCESS, VERDICT_SUCCESS],
        unchanged_error=moves[VERDICT_ERROR, VERDICT_ERROR],
        transitions=[
            {"from": frm, "to": to, "count": count}
            for (frm, to), count in sorted(transitions.items())
        ],
        raw_rate=success_rate([r for r, _ in pairs]),
        cleaned_rate=success_rate([c for _, c in pairs]),
        best_of_both=SuccessRate(best, len(pairs)),
    )


def _subject_value(labels) -> str:
    if not isinstance(labels, list):  # a string, or any other scalar or object, is one label
        labels = [labels]
    labels = [str(v) for v in labels if str(v).strip()]
    specific = [v for v in labels if v.strip().lower() not in _SOCIAL_SCIENCE]
    if specific:
        return specific[0]
    return labels[0] if labels else UNLABELED


def group_value(package_record: dict | None, metadata_key: str) -> str:
    """Group label for one package under a metadata key.

    Subjects follow the specificity rule: a generic social-science label
    is dropped whenever a more specific field coexists. The year falls
    back to the publication date when not given explicitly.
    """
    record = package_record or {}
    meta = record.get("metadata", {}) or {}
    if metadata_key == "subject":
        value = meta.get("subject")
        return _subject_value(value) if value else UNLABELED
    if metadata_key == "year":
        value = meta.get("year")
        if not value:
            date = record.get("publication_date") or ""
            value = date[:4] if len(date) >= 4 and date[:4].isdigit() else None
        return str(value) if value else UNLABELED
    value = meta.get(metadata_key)
    return str(value) if value else UNLABELED


def _rate_row(group: str, file_rate: SuccessRate, dataset_rate: SuccessRate) -> dict:
    return {
        "group": group,
        "file_success_rate": file_rate.rate,
        "dataset_success_rate": dataset_rate.rate,
        "n_files": file_rate.denominator,
        "n_datasets": dataset_rate.denominator,
    }


def group_report(store, metadata_key: str, mode: str = MODE_CLEANED) -> list[dict]:
    """One row per group value: file and dataset success rates plus their n.

    ``n_files`` and ``n_datasets`` are the rate denominators (explicit
    success/error verdicts only). The synthetic key ``interpreter_label``
    groups the uncombined per-version outcomes instead of package
    metadata; packages missing the requested key group under
    ``(unlabeled)``.
    """
    outcomes = store.outcomes()
    by_group: dict[str, list] = {}
    if metadata_key == "interpreter_label":
        for outcome in outcomes:
            if outcome.cleaning_mode == mode:
                by_group.setdefault(outcome.interpreter_label, []).append(outcome)
    else:
        packages = store.packages()
        for result in combined_results(outcomes, mode):
            group = group_value(packages.get(result.package_id), metadata_key)
            by_group.setdefault(group, []).append(result)

    rows = []
    for group in sorted(by_group):
        results = by_group[group]
        rows.append(_rate_row(group, success_rate(results), success_rate(dataset_results(results))))
    return rows


def mode_summary(mode: str, combined: list[CombinedResult]) -> dict:
    """Verdict counts and rates for one cleaning mode's combined file results."""
    datasets = dataset_results(combined)
    verdict_counts = Counter(r.verdict for r in combined)
    dataset_counts = Counter(d.verdict for d in datasets)
    return {
        "mode": mode,
        "file_verdicts": dict(sorted(verdict_counts.items())),
        "dataset_verdicts": dict(sorted(dataset_counts.items())),
        "file_rate": success_rate(combined).to_dict(),
        "dataset_rate": success_rate(datasets).to_dict(),
    }


def overview(store) -> dict:
    """Whole-run report: per-mode summaries plus the cleaning comparison.

    Each mode's outcomes are folded once and shared by its summary and
    the comparison.
    """
    outcomes = store.outcomes()
    combined = {m: combined_results(outcomes, m) for m in sorted({o.cleaning_mode for o in outcomes})}
    packages = store.packages()
    report: dict = {
        "run_id": store.run_id,
        "packages": {
            "total": len(packages),
            "fetch_status_counts": dict(
                sorted(Counter(r.get("fetch_status", "ok") for r in packages.values()).items())
            ),
        },
        "modes": [mode_summary(m, results) for m, results in combined.items()],
    }
    if MODE_RAW in combined and MODE_CLEANED in combined:
        report["cleaning_effect"] = compare_runs(combined[MODE_RAW], combined[MODE_CLEANED]).to_dict()
    return report


# --- rendering ----------------------------------------------------------------

GROUP_COLUMNS = ("group", "file_success_rate", "dataset_success_rate", "n_files", "n_datasets")

_AGGREGATION_FOOTNOTE = (
    "note: a dataset with any successful file counts as success even if other files"
    " timed out; datasets whose files produced no success and at least one timeout"
    " are excluded from dataset-level rates."
)


def _csv_cell(value):
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return value


def render_csv(rows: list[dict], columns=None) -> str:
    """CSV of ``rows`` under ``columns`` (by default the first row's keys); no columns give no text."""
    columns = columns or list(rows[0] if rows else ())
    if not columns:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({col: _csv_cell(row[col]) for col in columns})
    return buf.getvalue()


def render_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def format_rate(rate: float | None) -> str:
    return "n/a" if rate is None else f"{100 * rate:.1f}%"


def render_overview_text(report: dict) -> str:
    lines = [f"run {report.get('run_id', '?')}"]
    packages = report.get("packages")
    if packages:
        lines.append(
            f"packages: {packages['total']} (fetch status {packages['fetch_status_counts']})"
        )
    for mode in report["modes"]:
        fr, dr = mode["file_rate"], mode["dataset_rate"]
        lines.append(
            f"[{mode['mode']}] file success {format_rate(fr['rate'])}"
            f" ({fr['numerator']}/{fr['denominator']}),"
            f" dataset success {format_rate(dr['rate'])}"
            f" ({dr['numerator']}/{dr['denominator']})"
        )
        lines.append(f"  file verdicts: {mode['file_verdicts']}")
        lines.append(f"  dataset verdicts: {mode['dataset_verdicts']}")
    effect = report.get("cleaning_effect")
    if effect:
        lines.append(
            f"cleaning effect on {effect['n_restricted']} files explicit in both runs:"
            f" fixed={effect['fixed']} broken={effect['broken']}"
            f" unchanged_success={effect['unchanged_success']}"
            f" unchanged_error={effect['unchanged_error']}"
        )
        lines.append(
            f"  raw {format_rate(effect['raw_rate']['rate'])}"
            f" -> cleaned {format_rate(effect['cleaned_rate']['rate'])}"
            f" (best of both {format_rate(effect['best_of_both']['rate'])})"
        )
        for t in effect["transitions"]:
            lines.append(f"  {t['from']} -> {t['to']}: {t['count']}")
    lines.append(_AGGREGATION_FOOTNOTE)
    return "\n".join(lines) + "\n"
