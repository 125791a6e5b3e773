"""Output check of one pipeline repetition against the corpus oracle.

The expected reports are derived here from the oracle with the paper's
rules, independently of ``reprorun.results``: per file, any success
wins, else any TLE, else error (category by majority, ties by the
classifier's rule order); per dataset, any successful file makes a
success, otherwise any TLE excludes it, otherwise it is an error. TLE
and unassigned never enter a denominator.

Each checked item is one attempted operation; a mismatch, a stage that
exits non-zero, or a workspace or infrastructure failure event is one
failed operation.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ERROR_ORDER = ("setwd", "library", "file_path_output", "object_not_found", "other")
FAILURE_EVENTS = ("workspace_failure", "infrastructure_failure")

# report directories written by the three report invocations of a repetition
REPORT_PLAIN = "report"
REPORT_VERSION = "report-version"
REPORT_JOURNAL = "report-journal"
# files compared byte for byte across repetitions of one seed
DETERMINISTIC_OUTPUTS = (
    f"{REPORT_PLAIN}/report.json",
    f"{REPORT_VERSION}/grouped.json",
    f"{REPORT_JOURNAL}/grouped.json",
)
_RUN_ID_RE = re.compile(rb'"run_id": "[^"]*"')
# ``report --group-by`` tables cover this cleaning mode (the CLI default)
GROUP_MODE = "cleaned"


def fold(verdicts) -> str:
    vs = [v for v in verdicts if v != "unassigned"]
    if "success" in vs:
        return "success"
    if "tle" in vs:
        return "tle"
    return "error" if vs else "unassigned"


def _combine(pairs: list[tuple[str, str | None]]) -> tuple[str, str | None]:
    verdict = fold(v for v, _ in pairs)
    if verdict != "error":
        return verdict, None
    counts = Counter(c or "other" for v, c in pairs if v == "error")
    return verdict, max(counts, key=lambda c: (counts[c], -ERROR_ORDER.index(c)))


def _dataset(file_verdicts: list[str]) -> str:
    counts = Counter(file_verdicts)
    if counts["success"]:
        return "success"
    if counts["tle"]:
        return "excluded_tle"
    if counts["error"]:
        return "error"
    return "excluded_no_results"


def _rate(numerator: int, denominator: int) -> dict:
    return {
        "rate": numerator / denominator if denominator else None,
        "numerator": numerator,
        "denominator": denominator,
    }


def _row(group: str, file_ok: int, file_n: int, ds_ok: int, ds_n: int) -> dict:
    return {
        "group": group,
        "file_success_rate": file_ok / file_n if file_n else None,
        "dataset_success_rate": ds_ok / ds_n if ds_n else None,
        "n_files": file_n,
        "n_datasets": ds_n,
    }


@dataclass
class Expected:
    combined: dict  # (pid, file, mode) -> (verdict, category)
    datasets: dict  # (pid, mode) -> dataset verdict
    version_rows: list[dict]
    journal_rows: list[dict]
    report: dict  # report.json without run_id


def expectations(oracle: dict) -> Expected:
    """Reports the pipeline must produce for this oracle."""
    mode = GROUP_MODE
    versions = oracle["versions"]
    combined = {}
    per_version = {}  # (pid, file, mode, version) -> verdict
    for f in oracle["files"]:
        for m in oracle["modes"]:
            verdict, category = f[m]
            # the stub behaves alike under every version label
            pairs = [(verdict, category)] * len(versions)
            combined[(f["package_id"], f["file"], m)] = _combine(pairs)
            for version in versions:
                per_version[(f["package_id"], f["file"], m, version)] = verdict

    by_unit: dict[tuple[str, str], list[str]] = {}
    for (pid, _, m), (verdict, _) in combined.items():
        by_unit.setdefault((pid, m), []).append(verdict)
    datasets = {unit: _dataset(vs) for unit, vs in by_unit.items()}

    version_rows = []
    for version in sorted(versions):
        selected = {k: v for k, v in per_version.items() if k[2] == mode and k[3] == version}
        per_pkg: dict[str, list[str]] = {}
        for (pid, *_), verdict in selected.items():
            per_pkg.setdefault(pid, []).append(verdict)
        ds = [fold(vs) for vs in per_pkg.values()]
        ds = [v for v in ds if v not in ("tle", "unassigned")]
        vs = list(selected.values())
        version_rows.append(
            _row(
                version,
                vs.count("success"),
                vs.count("success") + vs.count("error"),
                ds.count("success"),
                len(ds),
            )
        )

    journal_rows = []
    journals = sorted({p["journal"] for p in oracle["packages"].values()})
    for journal in journals:
        pids = {pid for pid, p in oracle["packages"].items() if p["journal"] == journal}
        fv = [v for (pid, _, m), (v, _) in combined.items() if m == mode and pid in pids]
        dv = [v for (pid, m), v in datasets.items() if m == mode and pid in pids]
        journal_rows.append(
            _row(
                journal,
                fv.count("success"),
                fv.count("success") + fv.count("error"),
                dv.count("success"),
                dv.count("success") + dv.count("error"),
            )
        )

    return Expected(combined, datasets, version_rows, journal_rows, _expected_report(oracle, combined, datasets))


def _expected_report(oracle: dict, combined: dict, datasets: dict) -> dict:
    modes = []
    for m in sorted(oracle["modes"]):
        fv = [v for (_, _, mm), (v, _) in combined.items() if mm == m]
        dv = [v for (_, mm), v in datasets.items() if mm == m]
        modes.append(
            {
                "mode": m,
                "file_verdicts": dict(sorted(Counter(fv).items())),
                "dataset_verdicts": dict(sorted(Counter(dv).items())),
                "file_rate": _rate(fv.count("success"), fv.count("success") + fv.count("error")),
                "dataset_rate": _rate(dv.count("success"), dv.count("success") + dv.count("error")),
            }
        )
    pairs = []
    for (pid, name, m), raw in sorted(combined.items()):
        if m != "raw":
            continue
        cleaned = combined[(pid, name, "cleaned")]
        if raw[0] in ("success", "error") and cleaned[0] in ("success", "error"):
            pairs.append((raw, cleaned))

    def state(result):
        return "success" if result[0] == "success" else result[1] or "other"

    transitions = Counter((state(r), state(c)) for r, c in pairs)
    both = [(r[0], c[0]) for r, c in pairs]
    effect = {
        "n_common_files": sum(1 for k in combined if k[2] == "raw"),
        "n_restricted": len(pairs),
        "fixed": both.count(("error", "success")),
        "broken": both.count(("success", "error")),
        "unchanged_success": both.count(("success", "success")),
        "unchanged_error": both.count(("error", "error")),
        "transitions": [
            {"from": a, "to": b, "count": n} for (a, b), n in sorted(transitions.items())
        ],
        "raw_rate": _rate(sum(r == "success" for r, _ in both), len(both)),
        "cleaned_rate": _rate(sum(c == "success" for _, c in both), len(both)),
        "best_of_both": _rate(sum("success" in pair for pair in both), len(both)),
    }
    n_packages = len(oracle["packages"])
    return {
        "packages": {"total": n_packages, "fetch_status_counts": {"ok": n_packages}},
        "modes": modes,
        "cleaning_effect": effect,
    }


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


def read_store(path: Path) -> list[dict]:
    """Records of a store; none when ``run`` never created it (its exit code says why)."""
    records = []
    if not path.exists():
        return records
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                records.append(json.loads(line))
    return records


def check_repetition(expected: Expected, rep_dir: Path, exit_codes: dict[str, list[int]]) -> CheckResult:
    """Compare one repetition's store and reports with the expectations."""
    result = CheckResult()
    for stage, codes in exit_codes.items():
        for i, code in enumerate(codes):
            result.expect(code == 0, f"stage {stage}[{i}] exited {code}")

    observed: dict[tuple[str, str, str], list[tuple[str, str | None]]] = {}
    failure_events = []
    for r in read_store(rep_dir / "store.jsonl"):
        if r.get("kind") == "outcome":
            key = (r["package_id"], r["file"], r["cleaning_mode"])
            observed.setdefault(key, []).append((r["verdict"], r.get("error_category")))
        elif r.get("kind") == "package_event" and r.get("event") in FAILURE_EVENTS:
            failure_events.append(r)
    for r in failure_events:
        result.expect(False, f"{r['event']} for {r['package_id']} {r['mode']}: {r.get('detail')}")

    for key, want in sorted(expected.combined.items()):
        got = _combine(observed[key]) if key in observed else None
        result.expect(got == want, f"file {key}: got {got}, want {want}")
    for key in sorted(set(observed) - set(expected.combined)):
        result.expect(False, f"unexpected outcomes for {key}")

    by_unit: dict[tuple[str, str], list[str]] = {}
    for (pid, _, m), pairs in observed.items():
        by_unit.setdefault((pid, m), []).append(_combine(pairs)[0])
    for unit, want in sorted(expected.datasets.items()):
        got = _dataset(by_unit[unit]) if unit in by_unit else None
        result.expect(got == want, f"dataset {unit}: got {got}, want {want}")

    report = _load_json(rep_dir / REPORT_PLAIN / "report.json")
    for section, want in expected.report.items():
        got = report.get(section) if report else None
        result.expect(got == want, f"report.json {section}: got {got}, want {want}")
    for name, rows in (
        (REPORT_VERSION, expected.version_rows),
        (REPORT_JOURNAL, expected.journal_rows),
    ):
        got_rows = {row["group"]: row for row in _load_json(rep_dir / name / "grouped.json") or []}
        for want in rows:
            got = got_rows.get(want["group"])
            result.expect(got == want, f"{name} row {want['group']}: got {got}, want {want}")
    return result


def _load_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def deterministic_bytes(rep_dir: Path) -> dict[str, bytes | None]:
    """Outputs that must match across repetitions; the random run id is blanked."""
    out = {}
    for name in DETERMINISTIC_OUTPUTS:
        try:
            out[name] = _RUN_ID_RE.sub(b'"run_id": ""', (rep_dir / name).read_bytes())
        except OSError:
            out[name] = None
    return out
