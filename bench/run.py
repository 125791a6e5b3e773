"""Pipeline benchmark for reprorun: the five CLI stages on a seeded corpus.

Usage, from the root of a checkout::

    python3 bench/run.py --workload corpus-typical --seed 1 --seconds 38 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 38 --trace 0

For one workload and seed, a generator process writes the corpus and its
oracle, and a mock Dataverse process serves it over loopback. Each
repetition then runs ``ingest``, ``analyze``, ``clean``, ``run`` (stub
interpreter matrix, three versions x raw and cleaned, ``--jobs 2``) and
``report`` (plain, ``--group-by version``, ``--group-by journal``) in one
fresh process, and checks the store and reports against the oracle.

With ``--trace 0`` repetitions run until ``--seconds`` have passed (at
least two) and the end-to-end metrics are their medians; ``setup_s`` is
the median of set-up probes, fresh ``run`` processes on each repetition's
corpus that stop where the first child would start. With
``--trace 1`` two untraced and two traced repetitions alternate; the
per-layer metrics come from the last traced one's spans, the mock
server's counters and bare stub children on scripts it executed, and
``trace.overhead_s`` is the difference of the two sides' median
``pipeline_s``. On ``resume-large`` a traced run also resumes, once, the
prior run killed mid-unit instead of between units, and reports the
failed check operations of that repetition as
``store.mid_unit_resume_failed``; they stay out of ``correct``.

Every metric is printed by name with its unit, then the output check;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Full results, with machine
details, go to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))
import check  # noqa: E402
import spans  # noqa: E402
from corpus import WORKLOADS  # noqa: E402

JOBS = 2
MIN_REPS = 2  # not more, so that a run on a slowed host still ends near --seconds
SETUP_PROBES = 2  # set-up probes after each repetition of an untraced run
DEADLINE_S = 170.0  # a run must end within 180 s
BARE_SAMPLE = 8  # scripts timed as bare stub children in a traced run
BARE_REPEATS = 2
TWIN_REPEATS = 3

# The bounded end-to-end metrics of BENCHMARK.json taken from whole
# repetitions; ``setup_s`` comes from set-up probes. The single-stage times
# are measured untraced on every repetition too, but as CPU-bound spans of
# 0.02-2 s their run-to-run spread on a shared 2-vCPU host exceeds the
# largest bound allowed, so they are printed and reported with the
# per-layer metrics of a traced run.
REP_METRICS = ("pipeline_s", "run_s", "harness_cpu_s", "peak_rss_mb")
STAGE_TIMES = ("ingest_s", "analyze_s", "clean_s", "report_s")
STAGES = ("ingest", "analyze", "clean", "run", "report")


class BenchError(Exception):
    """The benchmark could not measure (not a wrong output of the program)."""


def unit_of(metric: str) -> str:
    if metric == "peak_rss_mb":
        return "MB"
    if metric.endswith("share"):
        return "ratio"
    if metric.endswith("bytes_written"):
        return "bytes"
    if metric.endswith("mb_per_s"):
        return "MB/s"
    if metric.endswith("per_s"):
        return "1/s"
    if "_ms" in metric:
        return "ms"
    if "_us" in metric:
        return "us"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("ratio", "utilization")):
        return "ratio"
    return "count"


# --- processes -------------------------------------------------------------------


def _stop(proc: subprocess.Popen) -> None:
    """Kill a child started in its own session, with everything in its group."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()


class MockServer:
    """The mock repository process, stopped on exit."""

    def __init__(self, root: Path, work: Path, env: dict):
        self.root, self.work, self.env = root, work, env
        self.proc: subprocess.Popen | None = None
        self.url = ""

    def __enter__(self) -> "MockServer":
        port_file = self.work / "port"
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "mockrepo.py"), "--root", str(self.root), "--port-file", str(port_file)],
            env=self.env, start_new_session=True,
        )
        deadline = time.monotonic() + 30
        while not port_file.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                _stop(self.proc)
                raise BenchError("mock repository did not start")
            time.sleep(0.02)
        self.url = f"http://127.0.0.1:{port_file.read_text().strip()}"
        return self

    def stats(self) -> dict:
        with urllib.request.urlopen(self.url + "/_bench/stats", timeout=10) as resp:
            return json.loads(resp.read())

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            _stop(self.proc)


# --- one repetition ----------------------------------------------------------------


@dataclass
class Context:
    workload: str
    seed: int
    work: Path
    env: dict
    oracle: dict
    expected: check.Expected
    prior_store: Path | None
    server: MockServer
    deadline: float


@dataclass
class Repetition:
    values: dict  # end-to-end metric -> value
    check: check.CheckResult
    outputs: dict
    server: dict  # request, connection and byte counts during the repetition
    store_bytes_written: int
    rep_dir: Path
    trace: dict | None = None


def run_argv(ctx: Context, store: str, scratch: str) -> list[str]:
    run = ctx.oracle["run"]
    return [
        "run", "--corpus", "corpus", "--store", store, "--scratch", scratch,
        "--stub", "--stub-repo", run["stub_repo"], "--stub-preinstalled", run["stub_preinstalled"],
        "--budget-file", str(run["budget_file"]), "--budget-package", str(run["budget_package"]),
        "--jobs", str(JOBS),
    ]


def stage_argvs(ctx: Context) -> list:
    return [
        ("ingest", [[
            "ingest", "--dest", "corpus", "--api-base", ctx.server.url,
            "--limit", str(len(ctx.oracle["packages"])),
            "--metadata-file", str(ctx.work / "gen" / "metadata.json"), "--jobs", str(JOBS),
        ]]),
        ("analyze", [["analyze", "--corpus", "corpus", "--out", "metrics"]]),
        ("clean", [["clean", "--corpus", "corpus"]]),
        ("run", [run_argv(ctx, "store.jsonl", "scratch")]),
        ("report", [
            ["report", "--store", "store.jsonl", "--out", check.REPORT_PLAIN],
            ["report", "--store", "store.jsonl", "--out", check.REPORT_VERSION,
             "--group-by", "version", "--format", "json"],
            ["report", "--store", "store.jsonl", "--out", check.REPORT_JOURNAL,
             "--group-by", "journal", "--format", "json"],
        ]),
    ]


def _pipeline(ctx: Context, cwd: Path, name: str, spec: dict) -> dict:
    """Run ``pipeline.py`` on ``spec`` (written to ``cwd/name``) and return its result."""
    (cwd / name).write_text(json.dumps(spec), encoding="utf-8")
    log_path = cwd / f"{name}.log"
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "pipeline.py"), str(cwd / name)],
            cwd=cwd, stdout=log, stderr=subprocess.STDOUT, env=ctx.env, start_new_session=True,
        )
        try:
            proc.wait(timeout=max(1.0, ctx.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{cwd / name} did not finish before the deadline") from None
        finally:
            _stop(proc)
    if proc.returncode != 0:
        tail = log_path.read_text(errors="replace")[-2000:]
        raise BenchError(f"pipeline process exited {proc.returncode}:\n{tail}")
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def run_repetition(ctx: Context, k: int, trace: bool, prior: Path | None = None) -> Repetition:
    """One repetition, resuming ``prior`` (by default the context's prior store)."""
    rep = ctx.work / f"rep{k}"
    rep.mkdir()
    store = rep / "store.jsonl"
    initial = 0
    prior = prior or ctx.prior_store
    if prior is not None:
        shutil.copyfile(prior, store)
        initial = store.stat().st_size
    spec = {
        "stages": stage_argvs(ctx),
        "result": str(rep / "result.json"),
        "trace": str(rep / "trace.json") if trace else None,
    }
    # start every repetition with no writeback pending from the last one's
    # files, which would otherwise land on this one's ingest and clean
    os.sync()
    before = ctx.server.stats()
    result = _pipeline(ctx, rep, "spec.json", spec)
    after = ctx.server.stats()
    by_stage = {s["stage"]: s for s in result["stages"]}
    values = {f"{name}_s": by_stage[name]["seconds"] for name in STAGES}
    values["pipeline_s"] = sum(values[f"{name}_s"] for name in STAGES)
    outcome = check.check_repetition(
        ctx.expected, rep, {name: s["exit_codes"] for name, s in by_stage.items()}
    )
    values["harness_cpu_s"] = result["cpu_s"]
    values["peak_rss_mb"] = result["maxrss_kb"] / 1024
    return Repetition(
        values=values,
        check=outcome,
        outputs=check.deterministic_bytes(rep),
        server={key: after[key] - before[key] for key in after},
        store_bytes_written=store.stat().st_size - initial if store.exists() else 0,
        rep_dir=rep,
        trace=json.loads((rep / "trace.json").read_text(encoding="utf-8")) if trace else None,
    )


def setup_probe(ctx: Context, rep: Repetition, k: int) -> float:
    """Set-up time of a fresh ``run`` on a checked repetition's corpus and store.

    Seconds from the start of ``run`` until its first child would start:
    corpus discovery, the cleaned-tree check, the store open or load and
    the first workspace. The probe runs in its own process, as a user's
    ``run`` would, and stops there, so it can be repeated cheaply.
    """
    store = rep.rep_dir / f"probe{k}.jsonl"
    if ctx.prior_store is not None:
        shutil.copyfile(ctx.prior_store, store)
    spec = {
        "stages": [("run", [run_argv(ctx, store.name, f"probe{k}-scratch")])],
        "result": str(rep.rep_dir / f"probe{k}-result.json"),
        "setup_probe": True,
    }
    result = _pipeline(ctx, rep.rep_dir, f"probe{k}.json", spec)
    if result["first_child_mono"] is None:
        raise BenchError("a set-up probe reached no child")
    return result["first_child_mono"] - result["stages"][0]["start_mono"]


# --- bare stub children (traced runs) -------------------------------------------------


def _raw_runs(trace: dict) -> dict[tuple[str, str], list[float]]:
    """Wall times in ms of raw-mode ``execute_file`` spans, by (package, file)."""
    runs: dict[tuple[str, str], list[float]] = {}
    for s in trace["spans"]:
        if s["name"] == "executor.execute_file" and s["attrs"]["mode"] == "raw":
            key = (s["unit"].rsplit("/", 1)[0], s["attrs"]["file"])
            runs.setdefault(key, []).append(1000 * (s["end"] - s["start"]))
    return runs


def bare_children(ctx: Context, rep: Repetition, executed: set) -> dict:
    """Time ``python -m reprorun.stubr`` on copies of scripts the traced run executed raw.

    The sample is drawn from non-TLE scripts in ``executed``; the L / 4L
    twins are always timed.
    """
    roots = {}
    for path in (rep.rep_dir / "corpus" / "manifests").glob("*.json"):
        manifest = json.loads(path.read_text(encoding="utf-8"))
        roots[manifest["persistent_id"]] = Path(manifest["root"])
    files = ctx.oracle["files"]
    candidates = [
        f for f in files
        if f["class"] != "tle" and not f["twin"] and (f["package_id"], f["file"]) in executed
    ]
    sample = random.Random(f"bare:{ctx.seed}").sample(candidates, min(BARE_SAMPLE, len(candidates)))
    twins = [f for f in files if f["twin"]]

    run = ctx.oracle["run"]
    env = dict(ctx.env, STUBR_PREINSTALLED=run["stub_preinstalled"], STUBR_REPO=run["stub_repo"])
    workspaces: dict[str, Path] = {}

    def time_script(f: dict) -> float:
        ws = workspaces.get(f["package_id"])
        if ws is None:
            ws = ctx.work / "bare" / str(len(workspaces))
            shutil.copytree(roots[f["package_id"]], ws)
            workspaces[f["package_id"]] = ws
        argv = [sys.executable, "-m", "reprorun.stubr", str(ws / f["file"])]
        with tempfile.TemporaryFile() as stderr:
            start = time.perf_counter()
            subprocess.run(argv, cwd=ws, stdout=subprocess.DEVNULL, stderr=stderr, env=env, timeout=60)
            return 1000 * (time.perf_counter() - start)

    timed = {(f["package_id"], f["file"]): [time_script(f) for _ in range(BARE_REPEATS)] for f in sample}
    twin_ms = {"L": [], "4L": []}
    for f in twins:
        twin_ms[f["twin"]].extend(time_script(f) for _ in range(TWIN_REPEATS))
    return {"sampled": timed, "twins": twin_ms}


def per_layer(ctx: Context, reps: list[Repetition], append_s: list[float]) -> dict:
    """Per-layer metrics from the last traced repetition, plus the tracing overhead."""
    traced = [r for r in reps if r.trace is not None][-1]
    m = spans.layer_metrics(traced.trace)
    m["ingest.requests"] = traced.server["requests"]
    m["ingest.connections"] = traced.server["connections"]

    raw_runs = _raw_runs(traced.trace)
    bare = bare_children(ctx, traced, set(raw_runs))
    child_ms = [ms for runs in bare["sampled"].values() for ms in runs]
    m["stubr.child_ms.p50"] = spans.percentile(child_ms, 0.5)
    m["stubr.child_ms.p90"] = spans.percentile(child_ms, 0.9)
    m["stubr.child_n"] = len(child_ms)
    m["stubr.len4x_ratio"] = statistics.mean(bare["twins"]["4L"]) / statistics.mean(bare["twins"]["L"])
    # the same scripts inside the harness, minus the bare child
    in_harness = [ms for key in bare["sampled"] for ms in raw_runs[key]]
    m["executor.harness_ms_per_run"] = spans.percentile(in_harness, 0.5) - spans.percentile(child_ms, 0.5)

    appends = append_s + [
        s["end"] - s["start"] for s in traced.trace["spans"] if s["name"] == "store.append_outcome"
    ]
    m["store.append_us.p50"] = 1e6 * spans.percentile(appends, 0.5)
    m["store.bytes_written"] = traced.store_bytes_written
    m["trace.overhead_s"] = statistics.median(
        r.values["pipeline_s"] for r in reps if r.trace is not None
    ) - statistics.median(r.values["pipeline_s"] for r in reps if r.trace is None)
    return m


# --- one workload ----------------------------------------------------------------------


def machine() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    work = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    try:
        gen = work / "gen"
        prior = gen / "prior.jsonl" if WORKLOADS[workload].resume_mid_unit else None
        mid_unit = gen / "mid-unit.jsonl" if prior and trace else None
        setup_start = time.monotonic()
        subprocess.run(
            [sys.executable, str(BENCH / "corpus.py"), "--workload", workload, "--seed", str(seed),
             "--out", str(gen)]
            + (["--prior-store", str(prior)] if prior else [])
            + (["--mid-unit-store", str(mid_unit)] if mid_unit else []),
            env=env, check=True, timeout=120,
        )
        oracle = json.loads((gen / "oracle.json").read_text(encoding="utf-8"))
        append_s = json.loads((gen / "append_s.json").read_text()) if prior else []
        generate_s = time.monotonic() - setup_start

        with MockServer(gen / "remote", work, env) as server:
            ctx = Context(workload, seed, work, env, oracle, check.expectations(oracle), prior, server,
                          started + DEADLINE_S)
            reps: list[Repetition] = []
            setup: list[float] = []
            probe_problems: list[str] = []
            if trace:
                # untraced and traced repetitions alternate, so that slow
                # spells of the machine do not land on one side only
                for k, traced in enumerate((False, True, False, True)):
                    if reps:
                        shutil.rmtree(reps[-1].rep_dir, ignore_errors=True)
                    reps.append(run_repetition(ctx, k, trace=traced))
                metrics = per_layer(ctx, reps, append_s)
                untraced = [r for r in reps if r.trace is None]
                metrics.update({name: statistics.median(r.values[name] for r in untraced) for name in STAGE_TIMES})
                # without a prior run there is no mid-unit resume to fail
                metrics["store.mid_unit_resume_failed"] = 0
                if mid_unit is not None:
                    # ROADMAP item 3: the store keeps a killed attempt's
                    # outcomes next to the resumed ones. Recorded, not
                    # counted against correct, which covers the runs above.
                    shutil.rmtree(reps[-1].rep_dir, ignore_errors=True)
                    probe = run_repetition(ctx, len(reps), trace=False, prior=mid_unit)
                    metrics["store.mid_unit_resume_failed"] = probe.check.failed
                    probe_problems = probe.check.problems
            else:
                measure_start = time.monotonic()
                while True:
                    rep_start = time.monotonic()
                    reps.append(run_repetition(ctx, len(reps), trace=False))
                    setup.extend(setup_probe(ctx, reps[-1], k) for k in range(SETUP_PROBES))
                    shutil.rmtree(reps[-1].rep_dir, ignore_errors=True)
                    last = time.monotonic() - rep_start
                    now = time.monotonic()
                    if len(reps) >= MIN_REPS and now - measure_start + last > seconds:
                        break
                    if now + last > ctx.deadline:
                        break
                metrics = {name: statistics.median(r.values[name] for r in reps) for name in REP_METRICS}
                metrics["setup_s"] = statistics.median(setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.check.attempted for r in reps)
    failed = sum(r.check.failed for r in reps)
    problems = [p for r in reps for p in r.check.problems]
    for r in reps[1:]:
        for name, data in r.outputs.items():
            attempted += 1
            if data is None or data != reps[0].outputs[name]:
                failed += 1
                problems.append(f"{name} differs from the first repetition")
    if trace:
        metrics["failed_share"] = failed / attempted
    result = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "machine": machine(),
        "repetitions": len(reps),
        "generate_s": generate_s,
        "per_repetition": [r.values for r in reps],
        "setup_probes_s": setup,
        "medians": {name: statistics.median(r.values[name] for r in reps if r.trace is None)
                    for name in (*REP_METRICS, *STAGE_TIMES)},
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "mid_unit_resume_problems": probe_problems,
        "metrics": metrics,
    }
    if trace:
        result["self_times"] = spans.self_times(reps[-1].trace["spans"])
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True), encoding="utf-8"
    )
    return result


def print_result(result: dict) -> None:
    m = result["machine"]
    print(
        f"{result['workload']} seed {result['seed']}: {result['repetitions']} repetitions"
        f" (cpu_count {m['cpu_count']}, Python {m['python']}, {m['platform']})"
    )
    shown = dict(result["metrics"])
    if not result["trace"]:
        shown.update(result["medians"])
        shown["failed_share"] = result["failed"] / result["attempted"]
    for name, value in shown.items():
        print(f"  {name:34s} {value:14.4f} {unit_of(name)}")
    for row in result.get("self_times", [])[:12]:
        print(f"  self {row['name']:29s} {row['self_s']:10.4f} s of {row['total_s']:.4f} s in {row['calls']} calls")
    verdict = "ok" if result["correct"] else "FAILED"
    print(f"  output check: {verdict}, {result['failed']} of {result['attempted']} operations failed")
    for problem in result["problems"]:
        print(f"    {problem}")
    if result["mid_unit_resume_problems"]:
        print("  resumed from a run killed mid-unit (known store defect, not in the check):")
        for problem in result["mid_unit_resume_problems"]:
            print(f"    {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=38.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "reprorun" / "cli.py").is_file():
        print(f"error: no reprorun sources under {SRC}", file=sys.stderr)
        return 2

    # a terminated run still stops the mock repository and the pipeline
    # process on its way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for workload in workloads:
            results.append(run_workload(workload, args.seed, args.seconds, bool(args.trace)))
            print_result(results[-1])
    except (BenchError, subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (name if len(results) == 1 else f"{r['workload']}.{name}"): {
                "value": value, "unit": unit_of(name)
            }
            for r in results
            for name, value in r["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
