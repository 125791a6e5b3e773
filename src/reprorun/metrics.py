"""Static code-quality and census measurements for replication packages.

Per-package census (sizes, other-language detection, documentation,
encodings, filename statistics, configuration-file candidates), per-file
R source metrics (line partition, dependencies, naming, modularity), and
corpus-level summaries. Everything here is a pure function of file
contents; nothing is ever executed.
"""

from __future__ import annotations

import os
import re
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from . import rsource
from .ingest import PackageManifest

OTHER_LANGUAGE_EXTS = {
    ".do": "stata",
    ".py": "python",
    ".sas": "sas",
    ".cpp": "cpp",
    ".cc": "cpp",
    ".m": "matlab",
}

DOCUMENTATION_KEYWORDS = ("readme", "codebook", "documentation", "guide", "instruction")

_DEPENDENCY_CALLS = ("library", "require", "install.packages")
_CLASS_CALLS = ("setClass", "setRefClass", "R6Class")
_FUNCTION_DEF_RE = re.compile(r"([A-Za-z.][A-Za-z0-9._]*)\s*(?:<<-|<-|=)\s*function\s*\(")
# field assignments (df$col <- ...) bind no new top-level object
_ARROW_ASSIGN_RE = re.compile(r"(?<![$@\w.])([A-Za-z.][A-Za-z0-9._]*)\s*(?:<<-|<-)")


@dataclass
class FileMetrics:
    """Static measurements for one R source file."""

    path: str
    code_lines: int = 0
    comment_lines: int = 0
    blank_lines: int = 0
    code_to_comment_ratio: float | None = None
    dependencies: list[str] = field(default_factory=list)
    function_count: int = 0
    class_count: int = 0
    variable_names: list[str] = field(default_factory=list)
    mean_variable_name_length: float | None = None
    is_ascii: bool = True
    detected_encoding: str = "ascii"
    dependency_scan_skips: int = 0
    package_id: str | None = None

    @property
    def total_lines(self) -> int:
        return self.code_lines + self.comment_lines + self.blank_lines

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "package_id": self.package_id,
            "code_lines": self.code_lines,
            "comment_lines": self.comment_lines,
            "blank_lines": self.blank_lines,
            "code_to_comment_ratio": self.code_to_comment_ratio,
            "dependencies": self.dependencies,
            "function_count": self.function_count,
            "class_count": self.class_count,
            "variable_names": self.variable_names,
            "mean_variable_name_length": self.mean_variable_name_length,
            "is_ascii": self.is_ascii,
            "detected_encoding": self.detected_encoding,
            "dependency_scan_skips": self.dependency_scan_skips,
        }


@dataclass
class PackageCensus:
    """Package-level content measurements derived from a manifest."""

    package_id: str
    total_size: int = 0
    file_count: int = 0
    other_languages: set[str] = field(default_factory=set)
    has_rmd: bool = False
    has_rnw: bool = False
    has_documentation: bool = False
    documentation_files: list[str] = field(default_factory=list)
    encoding_histogram: dict[str, int] = field(default_factory=dict)
    filenames_with_spaces: int = 0
    filename_length_stats: dict | None = None
    config_file_candidates: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "package_id": self.package_id,
            "total_size": self.total_size,
            "file_count": self.file_count,
            "other_languages": sorted(self.other_languages),
            "has_rmd": self.has_rmd,
            "has_rnw": self.has_rnw,
            "has_documentation": self.has_documentation,
            "documentation_files": self.documentation_files,
            "encoding_histogram": dict(sorted(self.encoding_histogram.items())),
            "filenames_with_spaces": self.filenames_with_spaces,
            "filename_length_stats": self.filename_length_stats,
            "config_file_candidates": self.config_file_candidates,
        }


def detect_encoding(data: bytes) -> str:
    """Heuristic encoding label: ascii, utf-8, windows-1252, iso-8859-1, or binary."""
    if b"\x00" in data:
        return "binary"
    try:
        data.decode("ascii")
        return "ascii"
    except UnicodeDecodeError:
        pass
    try:
        data.decode("utf-8")
        return "utf-8"
    except UnicodeDecodeError:
        pass
    if re.search(rb"[\x80-\x9f]", data):
        return "windows-1252"
    return "iso-8859-1"


def scan_dependencies(source: str) -> tuple[list[str], int]:
    """Library names loaded or installed by the source, plus skipped call sites.

    Looks at the first argument of ``library(...)``, ``require(...)`` and
    ``install.packages(...)``, quoted or bare. Occurrences on comment
    lines (or behind an inline comment) are ignored. Call sites whose
    first argument is not a plain name (vectors, expressions, calls that
    do not close on the same line) are skipped and counted.
    """
    names: list[str] = []
    seen: set[str] = set()
    skipped = 0
    for line in rsource.split_lines(source):
        if rsource.classify_line(line) != rsource.CODE:
            continue
        code = rsource.mask_strings(line).partition("#")[0]
        for _, _, open_idx in rsource.find_calls(code, _DEPENDENCY_CALLS):
            close = rsource.matching_paren(code, open_idx)
            if close is None:
                skipped += 1
                continue
            arg_end = rsource.first_argument_end(code, open_idx + 1, close)
            name = rsource.package_name(line[open_idx + 1 : arg_end])
            if name is None:
                skipped += 1
                continue
            if name not in seen:
                seen.add(name)
                names.append(name)
    return names, skipped


def detect_dependencies(source: str) -> list[str]:
    """Deduplicated, first-seen-ordered library names referenced by the source."""
    return scan_dependencies(source)[0]


def _statement_level_eq_targets(masked: str) -> list[str]:
    """Left-hand identifiers of top-level '=' assignments in masked code."""
    targets = []
    depth = 0
    for i, ch in enumerate(masked):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "=" and depth <= 0:
            if i + 1 < len(masked) and masked[i + 1] == "=":
                continue
            if i > 0 and masked[i - 1] in "=!<>":
                continue
            j = i - 1
            while j >= 0 and masked[j] in " \t":
                j -= 1
            end = j
            while j >= 0 and masked[j] in rsource._IDENT_CHARS:
                j -= 1
            name = masked[j + 1 : end + 1]
            if j >= 0 and masked[j] in "$@":
                continue
            if name and not name[0].isdigit() and name[0] != "_":
                targets.append(name)
    return targets


def analyze_r_file(path: Path | str, package_id: str | None = None) -> FileMetrics:
    """Compute FileMetrics for one R script.

    Line classification is a partition: every physical line is exactly
    one of code, comment (first non-whitespace char is '#'), or blank.
    The ratio is code/comment and stays None when there are no comment
    lines. Variable names are collected statically from assignment
    targets (``<-``, ``<<-``, statement-level ``=``), deduplicated in
    first-seen order; running the code is never required.
    """
    path = Path(path)
    raw = path.read_bytes()
    metrics = FileMetrics(path=str(path), package_id=package_id)
    metrics.is_ascii = raw.isascii()
    metrics.detected_encoding = detect_encoding(raw)
    text = rsource.decode_best_effort(raw)

    variables: list[str] = []
    for line in rsource.split_lines(text):
        kind = rsource.classify_line(line)
        if kind == rsource.BLANK:
            metrics.blank_lines += 1
            continue
        if kind == rsource.COMMENT:
            metrics.comment_lines += 1
            continue
        metrics.code_lines += 1
        masked = rsource.mask_strings(line).partition("#")[0]
        metrics.function_count += len(_FUNCTION_DEF_RE.findall(masked))
        metrics.class_count += len(rsource.find_calls(masked, _CLASS_CALLS))
        variables.extend(_ARROW_ASSIGN_RE.findall(masked))
        variables.extend(_statement_level_eq_targets(masked))

    metrics.variable_names = list(dict.fromkeys(variables))
    if metrics.variable_names:
        metrics.mean_variable_name_length = sum(map(len, metrics.variable_names)) / len(
            metrics.variable_names
        )
    if metrics.comment_lines > 0:
        metrics.code_to_comment_ratio = metrics.code_lines / metrics.comment_lines
    metrics.dependencies, metrics.dependency_scan_skips = scan_dependencies(text)
    return metrics


def _filename_without_extension(name: str) -> str:
    # only the final extension is dropped: "analysis.final.R" -> "analysis.final"
    return os.path.splitext(name)[0]


def _is_config_candidate(name: str) -> bool:
    lower = name.lower()
    return (lower.endswith((".r",)) and "install" in lower) or lower == "postinstall"


def census(manifest: PackageManifest) -> PackageCensus:
    """Package-level census of sizes, languages, documentation, and encodings.

    Sizes come from the manifest (so unreadable files still count); the
    encoding histogram is per file, with "unknown" for unreadable
    entries, and always sums to the file count.
    """
    out = PackageCensus(package_id=manifest.ref.persistent_id)
    root = Path(manifest.root)
    lengths: list[int] = []
    for entry in manifest.files:
        name = os.path.basename(entry.relative_path)
        lower = name.lower()
        ext = os.path.splitext(lower)[1]
        out.file_count += 1
        out.total_size += entry.size

        lang = OTHER_LANGUAGE_EXTS.get(ext)
        if lang:
            out.other_languages.add(lang)
        if ext == ".rmd":
            out.has_rmd = True
        if ext == ".rnw":
            out.has_rnw = True
        if any(keyword in lower for keyword in DOCUMENTATION_KEYWORDS):
            out.has_documentation = True
            out.documentation_files.append(entry.relative_path)
        if _is_config_candidate(name):
            out.config_file_candidates.append(entry.relative_path)
        if " " in name:
            out.filenames_with_spaces += 1
        lengths.append(len(_filename_without_extension(name)))

        try:
            encoding = detect_encoding((root / entry.relative_path).read_bytes())
        except OSError:
            encoding = "unknown"
        out.encoding_histogram[encoding] = out.encoding_histogram.get(encoding, 0) + 1

    if lengths:
        out.filename_length_stats = {
            "min": min(lengths),
            "mean": sum(lengths) / len(lengths),
            "median": statistics.median(lengths),
            "max": max(lengths),
        }
    return out


def analyze_package(manifest: PackageManifest) -> tuple[PackageCensus, list[FileMetrics]]:
    """Census plus FileMetrics for every R file in the manifest, in path order."""
    pkg_census = census(manifest)
    root = Path(manifest.root)
    file_metrics = [
        analyze_r_file(root / entry.relative_path, package_id=manifest.ref.persistent_id)
        for entry in sorted(manifest.files, key=lambda e: e.relative_path)
        if rsource.is_r_source(entry.relative_path)
    ]
    return pkg_census, file_metrics


def _distribution(values: list[float], buckets: int = 10) -> dict:
    if not values:
        return {"count": 0, "min": None, "mean": None, "median": None, "max": None, "histogram": []}
    lo, hi = min(values), max(values)
    if lo == hi:
        histogram = [[f"{lo:g}", len(values)]]
    else:
        width = (hi - lo) / buckets
        counts = [0] * buckets
        for v in values:
            idx = min(int((v - lo) / width), buckets - 1)
            counts[idx] += 1
        histogram = [
            [f"{lo + i * width:g}-{lo + (i + 1) * width:g}", c] for i, c in enumerate(counts)
        ]
    return {
        "count": len(values),
        "min": lo,
        "mean": sum(values) / len(values),
        "median": statistics.median(values),
        "max": hi,
        "histogram": histogram,
    }


def corpus_stats(metrics: list[FileMetrics], censuses: list[PackageCensus]) -> dict:
    """Corpus-level distributions and the ranked library-frequency table.

    The library table counts, for each library, the number of packages
    whose R files reference it at least once. The lines-per-module figure
    divides a file's code lines by its function+class count and averages
    over files that define modules at all; it is an approximation, not a
    parsed function-body measurement.
    """
    by_package: dict[str, set[str]] = {c.package_id: set() for c in censuses}
    for fm in metrics:
        if fm.package_id is not None:
            by_package.setdefault(fm.package_id, set()).update(fm.dependencies)

    library_counts: dict[str, int] = {}
    for deps in by_package.values():
        for name in deps:
            library_counts[name] = library_counts.get(name, 0) + 1
    library_table = sorted(library_counts.items(), key=lambda kv: (-kv[1], kv[0]))

    ratios = [fm.code_to_comment_ratio for fm in metrics if fm.code_to_comment_ratio is not None]
    module_ratios = [
        fm.code_lines / (fm.function_count + fm.class_count)
        for fm in metrics
        if fm.function_count + fm.class_count > 0
    ]
    total_code = sum(fm.code_lines for fm in metrics)
    total_comment = sum(fm.comment_lines for fm in metrics)
    encoding_totals: dict[str, int] = {}
    for c in censuses:
        for enc, n in c.encoding_histogram.items():
            encoding_totals[enc] = encoding_totals.get(enc, 0) + n
    language_counts: dict[str, int] = {}
    for c in censuses:
        for lang in c.other_languages:
            language_counts[lang] = language_counts.get(lang, 0) + 1

    n_packages = len(censuses)
    return {
        "n_packages": n_packages,
        "n_r_files": len(metrics),
        "package_size_bytes": _distribution([c.total_size for c in censuses]),
        "package_file_count": _distribution([c.file_count for c in censuses]),
        "package_mean_filename_length": _distribution(
            [c.filename_length_stats["mean"] for c in censuses if c.filename_length_stats]
        ),
        "package_dependency_count": _distribution(
            [len(by_package.get(c.package_id, set())) for c in censuses]
        ),
        "file_code_lines": _distribution([fm.code_lines for fm in metrics]),
        "file_dependency_count": _distribution([len(fm.dependencies) for fm in metrics]),
        "file_comment_ratio": _distribution(ratios),
        "file_mean_variable_name_length": _distribution(
            [fm.mean_variable_name_length for fm in metrics if fm.mean_variable_name_length is not None]
        ),
        "files_with_short_variable_names": sum(
            1 for fm in metrics if any(len(v) <= 2 for v in fm.variable_names)
        ),
        "library_table": library_table,
        "documentation_share": (
            sum(1 for c in censuses if c.has_documentation) / n_packages if n_packages else None
        ),
        "rmd_share": (sum(1 for c in censuses if c.has_rmd) / n_packages if n_packages else None),
        "rnw_share": (sum(1 for c in censuses if c.has_rnw) / n_packages if n_packages else None),
        "packages_with_other_languages": sum(1 for c in censuses if c.other_languages),
        "other_language_package_counts": dict(sorted(language_counts.items())),
        "encoding_totals": dict(sorted(encoding_totals.items())),
        "overall_comment_share": (
            total_comment / (total_code + total_comment) if total_code + total_comment else None
        ),
        "approx_code_lines_per_module": (
            sum(module_ratios) / len(module_ratios) if module_ratios else None
        ),
        "files_with_modules": len(module_ratios),
    }
