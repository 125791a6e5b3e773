"""Spans around reprorun's layer boundaries, recorded from outside the program.

``install`` wraps the public functions of each layer at the name its
caller uses (``reprorun.cli.run_matrix``, ``reprorun.executor.execute_file``
and so on). Each call becomes a span with its name, start, end, parent
span and a unit id (package, package/mode or file); spans are kept in
memory, under a lock because layers run in worker threads, and written
out once the pipeline ends. A span opened on a worker thread with no
open span of its own takes the innermost open span of the main thread as
its parent.

``self_times`` and ``layer_metrics`` turn a span list into the self-time
table and the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

TWIN_L = "00_dput_L.R"
TWIN_4L = "00_dput_4L.R"


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.yield_lags: list[float] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = defaultdict(list)
        self._main = threading.main_thread().ident
        self._appended: dict[int, float] = {}

    @contextmanager
    def span(self, name: str, unit: str | None = None):
        """Record one span; the body may add attributes to the yielded dict."""
        stack = self._stacks[threading.get_ident()]
        main = self._stacks[self._main]
        parent = stack[-1] if stack else (main[-1] if main else None)
        span_id = next(self._ids)
        attrs: dict = {}
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            record = {"id": span_id, "name": name, "start": start, "end": end,
                      "parent": parent, "unit": unit, "attrs": attrs}
            with self._lock:
                self.spans.append(record)

    def wrap(self, fn, name: str, unit=None, after=None):
        """fn traced as ``name``; ``unit(args, kwargs)`` names the unit, ``after(result, args, kwargs)`` adds attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, unit(args, kwargs) if unit else None) as attrs:
                result = fn(*args, **kwargs)
            if after is not None:  # outside the timed interval
                attrs.update(after(result, args, kwargs))
            return result

        return traced

    def outcome_appended(self, outcome) -> None:
        with self._lock:
            self._appended[id(outcome)] = time.perf_counter()

    def outcome_yielded(self, outcome) -> None:
        now = time.perf_counter()
        with self._lock:
            appended = self._appended.pop(id(outcome), None)
            if appended is not None:
                self.yield_lags.append(now - appended)

    def dump(self) -> dict:
        with self._lock:
            return {"spans": list(self.spans), "yield_lags": list(self.yield_lags)}


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def install(tracer: Tracer) -> None:
    """Wrap the public layer functions reprorun's CLI reaches."""
    from reprorun import cleaner, cli, executor, ingest, metrics, results
    from reprorun.store import RunStore

    def manifest_bytes(m) -> int:
        return sum(e.size for e in m.files)

    ingest.list_packages = tracer.wrap(ingest.list_packages, "ingest.list_packages")
    ingest.fetch_many = tracer.wrap(ingest.fetch_many, "ingest.fetch_many")
    ingest.fetch_package = tracer.wrap(
        ingest.fetch_package, "ingest.fetch_package",
        unit=lambda a, k: a[0].persistent_id,
        after=lambda m, a, k: {"bytes": manifest_bytes(m)},
    )
    ingest.verify_checksums = tracer.wrap(
        ingest.verify_checksums, "ingest.verify_checksums",
        unit=lambda a, k: a[0].ref.persistent_id,
        after=lambda m, a, k: {"bytes": manifest_bytes(m)},
    )
    ingest.discover_corpus = tracer.wrap(ingest.discover_corpus, "ingest.discover_corpus")

    metrics.analyze_package = tracer.wrap(
        metrics.analyze_package, "metrics.analyze_package",
        unit=lambda a, k: a[0].ref.persistent_id,
    )
    metrics.analyze_r_file = tracer.wrap(
        metrics.analyze_r_file, "metrics.analyze_r_file",
        unit=lambda a, k: k.get("package_id"),
        after=lambda r, a, k: {"file": os.path.basename(str(a[0])), "bytes": _size(a[0])},
    )

    cleaner.clean_tree = tracer.wrap(cleaner.clean_tree, "cleaner.clean_tree")
    cleaner.clean_file = tracer.wrap(
        cleaner.clean_file, "cleaner.clean_file",
        unit=lambda a, k: os.path.basename(os.path.dirname(str(a[0]))),
        after=lambda r, a, k: {
            "file": os.path.basename(str(a[0])), "bytes": _size(a[0]), "actions": len(r.actions),
        },
    )

    executor.execute_package = tracer.wrap(
        executor.execute_package, "executor.execute_package",
        unit=lambda a, k: f"{a[0].ref.persistent_id}/{a[3]}",
    )
    executor.execute_file = tracer.wrap(
        executor.execute_file, "executor.execute_file",
        unit=lambda a, k: f"{k.get('package_id')}/{k.get('cleaning_mode')}",
        after=lambda o, a, k: {
            "file": o.file, "interpreter": o.interpreter_label, "mode": o.cleaning_mode,
            "verdict": o.verdict, "wall": o.wall_time, "budget": a[2],
        },
    )

    run_matrix = cli.run_matrix

    @functools.wraps(run_matrix)
    def traced_run_matrix(*args, **kwargs):
        with tracer.span("executor.run_matrix") as attrs:
            attrs["jobs"] = kwargs.get("jobs", 1)
            for outcome in run_matrix(*args, **kwargs):
                tracer.outcome_yielded(outcome)
                yield outcome

    cli.run_matrix = traced_run_matrix

    append_outcome = RunStore.append_outcome

    def traced_append_outcome(self, outcome):
        with tracer.span("store.append_outcome", f"{outcome.package_id}/{outcome.cleaning_mode}") as attrs:
            append_outcome(self, outcome)
            attrs["verdict"] = outcome.verdict
        tracer.outcome_appended(outcome)

    RunStore.append_outcome = traced_append_outcome
    for name in ("load", "open"):
        original = getattr(RunStore, name)  # bound classmethod
        setattr(RunStore, name, staticmethod(tracer.wrap(
            original, f"store.{name}",
            after=lambda store, a, k: {"bytes": _size(store.path)},
        )))
    RunStore.outcomes = tracer.wrap(RunStore.outcomes, "store.outcomes")
    RunStore.completed_runs = tracer.wrap(RunStore.completed_runs, "store.completed_runs")

    def outcome_count(r, a, k) -> dict:
        return {"outcomes": sum(1 for rec in a[0].records if rec.get("kind") == "outcome")}

    results.overview = tracer.wrap(results.overview, "results.overview", after=outcome_count)
    results.group_report = tracer.wrap(results.group_report, "results.group_report", after=outcome_count)


# --- analysis --------------------------------------------------------------------


def _union(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> list[dict]:
    """Per span name: calls, total seconds and self seconds (minus covered child time)."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    table: dict[str, dict] = {}
    for s in spans:
        covered = _union([
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children[s["id"]]
            if c["end"] > s["start"] and c["start"] < s["end"]
        ])
        row = table.setdefault(s["name"], {"name": s["name"], "calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += s["end"] - s["start"] - covered
    return sorted(table.values(), key=lambda r: -r["self_s"])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values (the companion count says n=0)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics derivable from one traced pipeline's spans alone."""
    spans = trace["spans"]
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def total(name):
        return sum(dur(s) for s in by[name])

    def twin_ratio(name):
        long = [dur(s) for s in by[name] if s["attrs"].get("file") == TWIN_4L]
        short = [dur(s) for s in by[name] if s["attrs"].get("file") == TWIN_L]
        return _ratio(sum(long) / max(1, len(long)), sum(short) / max(1, len(short)))

    m: dict[str, float] = {}
    fetch_ms = [1000 * dur(s) for s in by["ingest.fetch_package"]]
    m["ingest.fetch_package_ms.p50"] = percentile(fetch_ms, 0.5)
    m["ingest.fetch_package_ms.p90"] = percentile(fetch_ms, 0.9)
    m["ingest.fetch_package_n"] = len(fetch_ms)
    fetched = sum(s["attrs"]["bytes"] for s in by["ingest.fetch_package"])
    m["ingest.fetch_mb_per_s"] = _ratio(fetched / 1e6, total("ingest.fetch_many"))
    verified = sum(s["attrs"]["bytes"] for s in by["ingest.verify_checksums"])
    m["ingest.verify_mb_per_s"] = _ratio(verified / 1e6, total("ingest.verify_checksums"))
    m["ingest.discover_corpus_s"] = total("ingest.discover_corpus")

    for layer, name in (("cleaner", "cleaner.clean_file"), ("metrics", "metrics.analyze_r_file")):
        calls = by[name]
        m[f"{layer}.{name.split('.')[1]}_calls"] = len(calls)
        m[f"{layer}.mb_per_s"] = _ratio(sum(s["attrs"]["bytes"] for s in calls) / 1e6, total(name))
        m[f"{layer}.len4x_ratio"] = twin_ratio(name)
    m["cleaner.clean_file_ms.max"] = max((1000 * dur(s) for s in by["cleaner.clean_file"]), default=0.0)
    m["cleaner.actions"] = sum(s["attrs"]["actions"] for s in by["cleaner.clean_file"])

    files = by["executor.execute_file"]
    file_ms = [1000 * dur(s) for s in files]
    m["executor.execute_file_ms.p50"] = percentile(file_ms, 0.5)
    m["executor.execute_file_ms.p90"] = percentile(file_ms, 0.9)
    m["executor.execute_file_n"] = len(file_ms)
    packages = by["executor.execute_package"]
    ids = {s["id"] for s in packages}
    inner = sum(dur(s) for s in files if s["parent"] in ids)
    m["executor.workspace_ms_per_unit"] = 1000 * _ratio(total("executor.execute_package") - inner, len(packages))
    matrix = by["executor.run_matrix"]
    jobs = matrix[0]["attrs"]["jobs"] if matrix else 1
    capacity = jobs * total("executor.run_matrix")
    m["executor.utilization"] = _ratio(sum(dur(s) for s in files), capacity)
    m["executor.idle_worker_s"] = capacity - total("executor.execute_package")
    m["executor.yield_lag_ms.p50"] = percentile([1000 * x for x in trace["yield_lags"]], 0.5)
    overrun = [1000 * (s["attrs"]["wall"] - s["attrs"]["budget"]) for s in files if s["attrs"]["verdict"] == "tle"]
    m["executor.tle_overrun_ms.p50"] = percentile(overrun, 0.5)
    m["executor.tle_n"] = len(overrun)
    verdicts = [s["attrs"]["verdict"] for s in by["store.append_outcome"]]
    for verdict in ("success", "error", "tle", "unassigned"):
        m[f"executor.verdicts.{verdict}"] = verdicts.count(verdict)

    loads = by["store.load"] + by["store.open"]
    m["store.load_s"] = sum(dur(s) for s in loads)
    m["store.load_mb_per_s"] = _ratio(sum(s["attrs"]["bytes"] for s in loads) / 1e6, m["store.load_s"])
    m["store.outcomes_calls"] = len(by["store.outcomes"])
    m["store.outcomes_s"] = total("store.outcomes")
    m["store.completed_runs_s"] = total("store.completed_runs")

    m["results.overview_s"] = total("results.overview")
    m["results.group_report_s"] = total("results.group_report")
    folded = sum(s["attrs"]["outcomes"] for s in by["results.overview"] + by["results.group_report"])
    m["results.outcomes_folded_per_s"] = _ratio(folded, m["results.overview_s"] + m["results.group_report_s"])
    return m
