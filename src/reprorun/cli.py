"""Command-line entry point wiring the pipeline stages.

Subcommands: ingest, analyze, clean, run, report. The commands raise;
``main`` alone turns a failure into one ``error:`` line and its exit code.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import cleaner, ingest, metrics, results
from .config import (
    DEFAULT_API_BASE,
    DEFAULT_QUERY,
    ConfigError,
    load_config,
    stub_interpreters,
)
from .executor import InterpreterConfigError, run_matrix
from .ingest import CorpusError, IngestError, package_slug
from .store import RunStore, StoreError

EXIT_OK = 0
EXIT_WRITE = 4  # per-file clean failures are counted, not raised

# The exit code of each failure; the most specific listed class of an exception decides.
EXIT_CODES = {
    ConfigError: 2,
    CorpusError: 2,
    IngestError: 3,
    InterpreterConfigError: 5,
    StoreError: 6,
    results.MismatchError: 6,
    OSError: 4,  # an output that cannot be written; corpus and store reads raise their own errors
}

GROUP_BY_KEYS = {
    "journal": "journal",
    "policy": "policy_class",
    "year": "year",
    "subject": "subject",
    "version": "interpreter_label",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprorun",
        description="Ingest, analyze, clean, re-execute, and report on R replication packages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="download packages from a repository or catalog local ones")
    p_ingest.add_argument("--dest", required=True, help="corpus root to write manifests/ and packages/ into")
    p_ingest.add_argument("--api-base", default=None, help=f"repository API base URL (default {DEFAULT_API_BASE})")
    p_ingest.add_argument("--query", default=None, help=f"repository search query (default {DEFAULT_QUERY!r})")
    p_ingest.add_argument("--limit", type=int, default=10, help="maximum number of packages to ingest")
    p_ingest.add_argument("--local", default=None, metavar="DIR", help="catalog a local directory instead of the API")
    p_ingest.add_argument("--metadata", action="append", default=[], metavar="K=V", help="extra metadata for --local")
    p_ingest.add_argument("--metadata-file", default=None, help="JSON file mapping package id to extra metadata")
    p_ingest.add_argument("--jobs", type=int, default=4, help="concurrent package fetches")
    p_ingest.add_argument("--force", action="store_true", help="re-fetch packages that already have manifests")

    p_analyze = sub.add_parser("analyze", help="compute census and R file metrics for a corpus")
    p_analyze.add_argument("--corpus", required=True, help="corpus root (ingested or bare package directories)")
    p_analyze.add_argument("--out", required=True, help="output directory for metrics files")
    p_analyze.add_argument("--format", choices=("json", "csv"), default="json", help="tabular output format")

    p_clean = sub.add_parser("clean", help="apply automatic code cleaning to every R file")
    p_clean.add_argument("--corpus", required=True, help="corpus root")
    p_clean.add_argument("--out", default=None, help="cleaned tree root (default <corpus>/cleaned)")
    p_clean.add_argument("--diff", action="store_true", help="also emit a unified diff per changed file")
    p_clean.add_argument("--mirror", default=None, help="CRAN mirror injected into install calls")

    p_run = sub.add_parser("run", help="execute R files under the interpreter matrix")
    p_run.add_argument("--corpus", required=True, help="corpus root")
    p_run.add_argument("--store", default=None, help="results store path (JSON lines)")
    p_run.add_argument("--config", default=None, help="INI config file with [run] and [interpreter.*] sections")
    p_run.add_argument("--modes", default=None, help="comma-separated cleaning modes (raw,cleaned)")
    p_run.add_argument("--jobs", type=int, default=None, help="worker pool size over packages")
    p_run.add_argument("--budget-file", type=float, default=None, help="per-file budget in seconds")
    p_run.add_argument("--budget-package", type=float, default=None, help="per-package budget in seconds")
    p_run.add_argument("--scratch", default=None, help="scratch root for execution workspaces")
    p_run.add_argument("--keep-workspaces", action="store_true", help="do not delete scratch workspaces")
    p_run.add_argument("--no-network", action="store_true", help="blackhole network access for executed code")
    p_run.add_argument("--include-partial", action="store_true", help="also execute partially fetched packages")
    p_run.add_argument("--stub", action="store_true", help="use the scripted stub interpreter matrix")
    p_run.add_argument("--stub-repo", default="", help="comma-separated packages installable by the stub")
    p_run.add_argument("--stub-preinstalled", default="", help="comma-separated packages preinstalled in the stub")
    p_run.add_argument("--force", action="store_true", help="start a fresh store instead of resuming")

    p_report = sub.add_parser("report", help="derive combined, aggregated, and grouped reports")
    p_report.add_argument("--store", required=True, help="results store path")
    p_report.add_argument("--out", required=True, help="output directory for report files")
    p_report.add_argument("--group-by", choices=sorted(GROUP_BY_KEYS), default=None, help="grouping dimension")
    p_report.add_argument("--level", choices=("file", "dataset"), default="file", help="rate level for the text summary")
    p_report.add_argument("--format", choices=("csv", "json"), default="csv", help="grouped table format")
    p_report.add_argument("--mode", choices=("raw", "cleaned"), default="cleaned", help="cleaning mode to report on")
    p_report.add_argument("--metadata-file", default=None, help="JSON overlay of package metadata (e.g. policy labels)")
    return parser


def _parse_kv(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--metadata expects K=V, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _load_metadata_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read metadata file {path}: {exc}") from exc
    if not isinstance(data, dict) or not all(isinstance(value, dict) for value in data.values()):
        raise ConfigError(f"metadata file {path} must map package ids to metadata objects")
    return data


def cmd_ingest(args) -> int:
    dest = Path(args.dest).resolve()
    manifests_dir = dest / "manifests"
    overlay = _load_metadata_file(args.metadata_file)

    if args.local:
        manifest = ingest.load_local_package(Path(args.local).resolve(), _parse_kv(args.metadata))
        manifest.ref.metadata.update(overlay.get(manifest.ref.persistent_id, {}))
        manifest_path = manifests_dir / f"{package_slug(manifest.ref.persistent_id)}.json"
        if manifest_path.exists() and not args.force:
            print(f"skip {manifest.ref.persistent_id}: manifest exists")
            return EXIT_OK
        manifests_dir.mkdir(parents=True, exist_ok=True)
        ingest.save_manifest(manifest, manifest_path)
        print(f"cataloged {manifest.ref.persistent_id}: {len(manifest.files)} files")
        return EXIT_OK

    api_base = args.api_base or DEFAULT_API_BASE
    refs = ingest.list_packages(api_base, args.query or DEFAULT_QUERY, args.limit)
    manifests_dir.mkdir(parents=True, exist_ok=True)
    todo = []
    for ref in refs:
        ref.metadata.update(overlay.get(ref.persistent_id, {}))
        manifest_path = manifests_dir / f"{package_slug(ref.persistent_id)}.json"
        if manifest_path.exists() and not args.force:
            print(f"skip {ref.persistent_id}: manifest exists")
            continue
        todo.append(ref)
    manifests = ingest.fetch_many(
        todo, dest / "packages", lambda: ingest.DataverseClient(api_base), jobs=args.jobs
    )
    for manifest in manifests:
        ingest.verify_checksums(manifest)
        ingest.save_manifest(manifest, manifests_dir / f"{package_slug(manifest.ref.persistent_id)}.json")
        print(f"fetched {manifest.ref.persistent_id}: {len(manifest.files)} files, status {manifest.fetch_status}")
    print(f"ingested {len(manifests)} of {len(refs)} listed packages into {dest}")
    return EXIT_OK


def _write_table(rows: list[dict], out_path: Path, fmt: str) -> None:
    if fmt == "json":
        out_path.with_suffix(".json").write_text(results.render_json(rows), encoding="utf-8")
        return
    path = out_path.with_suffix(".csv")
    if not rows:
        path.write_text("", encoding="utf-8")
        return
    columns = list(rows[0])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _csv_cell(v) for k, v in row.items()})


def _csv_cell(value):
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return value


def cmd_analyze(args) -> int:
    manifests = ingest.discover_corpus(args.corpus)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    censuses, file_metrics = [], []
    for manifest in manifests:
        pkg_census, pkg_metrics = metrics.analyze_package(manifest)
        censuses.append(pkg_census)
        file_metrics.extend(pkg_metrics)
    summary = metrics.corpus_stats(file_metrics, censuses)

    _write_table([m.to_dict() for m in file_metrics], out / "file_metrics", args.format)
    _write_table([c.to_dict() for c in censuses], out / "package_census", args.format)
    (out / "corpus_summary.json").write_text(results.render_json(summary), encoding="utf-8")
    print(f"analyzed {len(censuses)} packages, {len(file_metrics)} R files -> {out}")
    return EXIT_OK


def cmd_clean(args) -> int:
    manifests = ingest.discover_corpus(args.corpus)
    out_root = Path(args.out) if args.out else Path(args.corpus) / "cleaned"
    mirror = args.mirror or cleaner.DEFAULT_CRAN_MIRROR

    n_actions = failures = 0
    for manifest in manifests:
        out_dir = out_root / package_slug(manifest.ref.persistent_id)
        reports = cleaner.clean_tree(manifest, out_dir, mirror, args.diff)
        for report in reports:
            n_actions += len(report.actions)
            if report.error:
                failures += 1
                print(f"error: {report.path}: {report.error}", file=sys.stderr)
        if reports:
            try:
                (out_dir / "clean_reports.json").write_text(
                    results.render_json([r.to_dict() for r in reports]), encoding="utf-8"
                )
            except OSError as exc:
                failures += 1
                print(f"error: cannot write clean reports for {out_dir.name}: {exc}", file=sys.stderr)
    print(f"cleaned {len(manifests)} packages into {out_root} ({n_actions} rewrite actions)")
    return EXIT_WRITE if failures else EXIT_OK


def cmd_run(args) -> int:
    config = load_config(
        args.config,
        modes=args.modes,
        jobs=args.jobs,
        per_file_seconds=args.budget_file,
        per_package_seconds=args.budget_package,
        store_path=args.store,
        scratch_root=args.scratch,
        network_allowed=False if args.no_network else None,
        interpreters=(
            stub_interpreters(preinstalled=args.stub_preinstalled, repo=args.stub_repo) if args.stub else None
        ),
    )
    manifests = ingest.discover_corpus(args.corpus)

    runnable, excluded = [], []
    for manifest in manifests:
        if manifest.fetch_status == ingest.FETCH_OK or args.include_partial:
            runnable.append(manifest)
        else:
            excluded.append(manifest)
            print(f"skip {manifest.ref.persistent_id}: fetch status {manifest.fetch_status}")

    store_path = Path(config.store_path)
    if args.force and store_path.exists():
        store_path.unlink()
    store = RunStore.open(store_path, config=config.snapshot())
    try:
        # excluded packages stay visible in reports, with their fetch status
        known_packages = store.package_ids()
        for manifest in excluded:
            if manifest.ref.persistent_id not in known_packages:
                store.append_package(manifest)
        n = 0
        for _ in run_matrix(
            runnable,
            config.interpreters,
            config.budget,
            config.modes,
            store,
            Path(config.scratch_root),
            cran_mirror=config.cran_mirror,
            jobs=config.jobs,
            network_allowed=config.network_allowed,
            keep_workspaces=args.keep_workspaces,
        ):
            n += 1
    finally:
        store.close()
    print(f"recorded {n} outcomes in {store_path} (run {store.run_id})")
    return EXIT_OK


def cmd_report(args) -> int:
    store = RunStore.load(args.store)
    if not store.outcomes():
        raise StoreError("store has no outcomes")
    overlay = _load_metadata_file(args.metadata_file)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if overlay:
        for pid, record in store.packages().items():
            record.setdefault("metadata", {}).update(overlay.get(pid, {}))

    report = results.overview(store)
    (out / "report.json").write_text(results.render_json(report), encoding="utf-8")
    summary = results.render_overview_text(report)

    if args.group_by:
        rows = results.group_report(store, GROUP_BY_KEYS[args.group_by], mode=args.mode)
        if args.format == "csv":
            (out / "report.csv").write_text(results.render_group_csv(rows), encoding="utf-8")
        else:
            (out / "grouped.json").write_text(results.render_json(rows), encoding="utf-8")
        rate_column = "file_success_rate" if args.level == "file" else "dataset_success_rate"
        lines = [f"success rate by {args.group_by} ({args.level} level, {args.mode} mode):"]
        for row in rows:
            lines.append(
                f"  {row['group']}: {results.format_rate(row[rate_column])}"
                f" (files n={row['n_files']}, datasets n={row['n_datasets']})"
            )
        summary += "\n".join(lines) + "\n"

    (out / "summary.txt").write_text(summary, encoding="utf-8")
    print(summary, end="")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "ingest": cmd_ingest,
        "analyze": cmd_analyze,
        "clean": cmd_clean,
        "run": cmd_run,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
