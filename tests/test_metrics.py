from __future__ import annotations

import builtins
import re
import statistics
import tempfile
from collections import Counter
from dataclasses import asdict
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from reprorun import cli, metrics, results
from reprorun.cleaner import normalize_encoding
from reprorun.metrics import (
    PackageCensus,
    _statement_level_eq_targets,
    analyze_package,
    analyze_r_file,
    census,
    corpus_stats,
    scan_dependencies,
)
from reprorun import rsource

from conftest import R_FRAGMENT_LINES, make_package, traced_memory

# Hand-counted fixture: 10 physical lines, 2 comment-only, 0 blank, 8 code.
TEN_LINE_FIXTURE = (
    "# Load libraries\n"
    "library(ggplot2)\n"
    "library(MASS)\n"
    'x <- read.csv("data.csv")\n'
    "y <- x$value * 2\n"
    "# Fit the model\n"
    "fit <- lm(y ~ 1)\n"
    "print(summary(fit))\n"
    "z  <-  3\n"
    "plot(fit)\n"
)


def write_r(tmp_path: Path, name: str, content: str | bytes) -> Path:
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    return path


def test_hand_counted_line_partition_and_ratio(tmp_path: Path):
    fm = analyze_r_file(write_r(tmp_path, "fix.R", TEN_LINE_FIXTURE))
    assert (fm.code_lines, fm.comment_lines, fm.blank_lines) == (8, 2, 0)
    assert fm.code_lines + fm.comment_lines + fm.blank_lines == 10
    assert fm.code_to_comment_ratio == 4.0
    assert fm.dependencies == ["ggplot2", "MASS"]
    assert fm.variable_names == ["x", "y", "fit", "z"]
    assert fm.mean_variable_name_length == 1.5
    assert fm.function_count == 0
    assert fm.class_count == 0
    assert fm.is_ascii and fm.detected_encoding == "ascii"


def test_empty_file_all_zero(tmp_path: Path):
    fm = analyze_r_file(write_r(tmp_path, "empty.R", ""))
    assert (fm.code_lines, fm.comment_lines, fm.blank_lines) == (0, 0, 0)
    assert fm.code_to_comment_ratio is None
    assert fm.dependencies == []
    assert fm.mean_variable_name_length is None


def test_inline_comment_counts_as_code(tmp_path: Path):
    fm = analyze_r_file(write_r(tmp_path, "i.R", "x <- 1  # set x\n\n# only comment\n"))
    assert (fm.code_lines, fm.comment_lines, fm.blank_lines) == (1, 1, 1)


def test_functions_classes_and_field_assignments(tmp_path: Path):
    content = (
        "fit_model <- function(df) {\n"
        "  lm(y ~ x, data = df)\n"
        "}\n"
        "helper = function(a) a\n"
        'Person <- setRefClass("Person")\n'
        "df$col <- 1\n"
        "x[1] <- 2\n"
    )
    fm = analyze_r_file(write_r(tmp_path, "f.R", content))
    assert fm.function_count == 2
    assert fm.class_count == 1
    assert fm.variable_names == ["fit_model", "helper", "Person"]


def test_undecodable_bytes_best_effort(tmp_path: Path):
    fm = analyze_r_file(write_r(tmp_path, "l.R", b"# caf\xe9\nx <- 1\n"))
    assert not fm.is_ascii
    assert fm.detected_encoding == "iso-8859-1"
    assert (fm.code_lines, fm.comment_lines) == (1, 1)
    assert fm.variable_names == ["x"]


def oracle_detect_encoding(data: bytes) -> str:
    """The former detect_encoding, whose C1 check looped over every byte."""
    if b"\x00" in data:
        return "binary"
    for codec, label in (("ascii", "ascii"), ("utf-8", "utf-8")):
        try:
            data.decode(codec)
            return label
        except UnicodeDecodeError:
            pass
    if any(0x80 <= b <= 0x9F for b in data):
        return "windows-1252"
    return "iso-8859-1"


def oracle_decode_best_effort(raw: bytes) -> str:
    """The former rsource.decode_best_effort: UTF-8, else latin-1."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        return raw.decode("latin-1")


SOURCE_BYTES = st.one_of(
    st.binary(max_size=300),
    st.text(max_size=100).map(lambda t: t.encode("utf-8")),
    st.text(alphabet=st.characters(max_codepoint=255), max_size=100).map(lambda t: t.encode("latin-1")),
)


@given(SOURCE_BYTES)
def test_byte_builtins_match_per_byte_loops(raw):
    assert raw.isascii() == all(b < 128 for b in raw)  # FileMetrics.is_ascii
    assert rsource.decode(raw) == (oracle_decode_best_effort(raw), oracle_detect_encoding(raw))
    text, was_ascii = normalize_encoding(raw)
    assert was_ascii == all(b < 128 for b in raw)
    decoded = oracle_decode_best_effort(raw)
    assert text == "".join(ch if ord(ch) < 128 else "?" for ch in decoded)


def test_detect_encoding_ladder():
    assert rsource.decode(b"plain")[1] == "ascii"
    assert rsource.decode("caf\u00e9".encode("utf-8"))[1] == "utf-8"
    assert rsource.decode(b"caf\xe9")[1] == "iso-8859-1"
    assert rsource.decode(b"smart \x93quote\x94")[1] == "windows-1252"
    assert rsource.decode(b"\x00\x01binary")[1] == "binary"
    assert rsource.decode(b"caf\xe9\x00") == ("caf\u00e9\x00", "binary")


@given(SOURCE_BYTES, st.lists(st.integers(min_value=0, max_value=400), max_size=8))
@example("café".encode("utf-8"), [4])  # a cut inside the two bytes of é
@example(b"\xc3a\xa9", [1, 2])  # an ASCII block between a lead byte and a continuation byte
@example("café".encode("utf-8") + b" \x93", [4, 6])  # a C1 byte only in the last block
@example("café".encode("utf-8") + b" \x00", [4, 6])  # a NUL only in the last block
def test_block_fold_matches_one_block_and_oracle(raw: bytes, cuts: list[int]):
    bounds = sorted(min(cut, len(raw)) for cut in cuts)
    blocks = [raw[start:end] for start, end in zip([0, *bounds], [*bounds, len(raw)])]
    assert b"".join(blocks) == raw
    assert rsource._fold_encoding(blocks) == rsource.decode(raw)[1] == oracle_detect_encoding(raw)


def test_file_encoding_reads_one_block_of_a_file_with_a_nul_in_it(tmp_path: Path, monkeypatch):
    path = tmp_path / "data.dta"
    path.write_bytes(b"\x00" + b"\xe9" * (3 * rsource.BLOCK_SIZE))
    sizes: list[int] = []

    class CountedReads:
        def __init__(self, fh):
            self.fh = fh

        def read(self, size=-1):
            data = self.fh.read(size)
            sizes.append(len(data))
            return data

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    real_open = builtins.open
    monkeypatch.setattr(builtins, "open", lambda *args, **kwargs: CountedReads(real_open(*args, **kwargs)))
    assert rsource.file_encoding(path) == "binary"
    assert sizes == [rsource.BLOCK_SIZE]


def test_census_of_a_large_data_file_holds_one_block(tmp_path: Path):
    data = "café,1\n".encode("utf-8") * (16 * 2**20 // 8)  # 16 MiB of non-ASCII text
    manifest = make_package(tmp_path, "pkg", {"data.csv": data})
    del data
    pkg_census, _, peak = traced_memory(lambda: census(manifest))
    assert pkg_census.encoding_histogram == {"utf-8": 1}
    assert peak < 2**20


# --- dependency detection -----------------------------------------------------


def test_quoted_and_bare_forms():
    assert scan_dependencies('library("dplyr")')[0] == ["dplyr"]
    assert scan_dependencies("library(dplyr)")[0] == ["dplyr"]
    assert scan_dependencies("require('MASS')")[0] == ["MASS"]


def test_comment_occurrences_ignored():
    assert scan_dependencies("# library(fake)")[0] == []
    assert scan_dependencies("x <- 1 # install.packages('fake')")[0] == []


def test_string_occurrences_ignored():
    assert scan_dependencies('msg <- "library(fake)"')[0] == []


def test_dedup_preserves_first_seen_order():
    source = "library(b)\nlibrary(a)\nrequire(b)\n"
    assert scan_dependencies(source)[0] == ["b", "a"]


def test_unparseable_sites_counted():
    names, skipped = scan_dependencies('install.packages(c("a", "b"))\nlibrary(glue)\n')
    assert names == ["glue"]
    assert skipped == 1


def test_padded_quoted_name_is_a_scan_skip():
    # R fails on library(" ggplot2 "): the padded string names no package
    assert scan_dependencies('library(" ggplot2 ")\nrequire(\'MASS \')\nlibrary( "zoo" )\n') == (["zoo"], 2)


SIX_CALL_FIXTURE = (
    "library(ggplot2)\n"
    'require("data.table")\n'
    "install.packages('stargazer')\n"
    "library(MASS)  # modeling\n"
    "require(plyr)\n"
    'install.packages("xtable")\n'
)


def _reference_dependency_scan(source: str) -> list[str]:
    """Independent naive scanner: regex over non-comment lines."""
    pattern = re.compile(r"(?:library|require|install\.packages)\s*\(\s*['\"]?([A-Za-z0-9._]+)")
    seen: list[str] = []
    for line in source.split("\n"):
        if line.lstrip().startswith("#"):
            continue
        for name in pattern.findall(line):
            if name not in seen:
                seen.append(name)
    return seen


def test_six_calls_three_styles_cross_checked():
    expected = _reference_dependency_scan(SIX_CALL_FIXTURE)
    assert len(expected) == 6
    assert scan_dependencies(SIX_CALL_FIXTURE)[0] == expected


@given(st.text(alphabet="abcx()<-#\"'\n ;.", max_size=200), st.text(alphabet="abcx()<-\n ;.", max_size=80))
def test_dependency_monotonicity_under_append(source, suffix):
    # appended text holds no comment markers, so it cannot hide earlier lines
    base = scan_dependencies(source)[0]
    extended = scan_dependencies(source + suffix)[0]
    assert set(base) <= set(extended)


# --- line partition property ----------------------------------------------------


@given(st.text(max_size=500))
def test_line_classification_is_a_partition(text):
    lines = rsource.split_lines(text)
    kinds = [rsource.classify_line(line) for line in lines]
    assert len(kinds) == len(lines)
    assert all(kind in ("code", "comment", "blank") for kind in kinds)


def oracle_eq_targets(masked: str) -> list[str]:
    """The character loop ``_statement_level_eq_targets`` replaced, kept as its oracle."""
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


@settings(max_examples=400)
@given(st.text(alphabet=list("()[]{}=!<>$@;, \tax_.1"), max_size=60))
def test_eq_targets_match_character_loop_oracle(masked):
    assert _statement_level_eq_targets(masked) == oracle_eq_targets(masked)


def oracle_line_scans(text: str) -> dict:
    """The ``FileMetrics`` fields of ``analyze_r_file``'s line loop, every scan run on every code line: its oracle."""
    kinds, functions, classes, variables, packages = Counter(), 0, 0, [], []
    for _, line, code in rsource.code_lines(rsource.split_lines(text), kinds):
        functions += len(metrics._FUNCTION_DEF_RE.findall(code))
        classes += len(rsource.find_calls(code, metrics._CLASS_CALLS))
        variables.extend(metrics._ARROW_ASSIGN_RE.findall(code))
        variables.extend(_statement_level_eq_targets(code))
        packages.extend(metrics._load_call_packages(line, code))
    names = list(dict.fromkeys(variables))
    dependencies, skips = metrics._dependency_summary(packages)
    return {
        "code_lines": kinds[rsource.CODE], "comment_lines": kinds[rsource.COMMENT], "blank_lines": kinds[rsource.BLANK],
        "function_count": functions, "class_count": classes, "variable_names": names,
        "mean_variable_name_length": sum(map(len, names)) / len(names) if names else None,
        "dependencies": dependencies, "dependency_scan_skips": skips,
    }


@settings(max_examples=300)
@given(R_FRAGMENT_LINES)
def test_line_scan_filters_match_the_unfiltered_loop(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.R"
        path.write_text(text, encoding="utf-8")
        fm = asdict(analyze_r_file(path))
    expected = oracle_line_scans(text)
    assert {key: fm[key] for key in expected} == expected


def test_census_pure_function_of_directory(tmp_path: Path):
    manifest = make_package(tmp_path, "pkg", {"a.R": "x <- 1\n", "b.csv": "1,2\n"})
    first = census(manifest)
    second = census(manifest)
    assert first.to_dict() == second.to_dict()


# --- census -----------------------------------------------------------------------


def test_census_serialized_bytes(tmp_path: Path):
    c = PackageCensus(
        package_id="doi:10/x", total_size=30, file_count=3, other_languages={"stata", "python"},
        has_rmd=True, has_documentation=True, documentation_files=["README.md"],
        encoding_histogram={"utf-8": 1, "ascii": 2}, filenames_with_spaces=1,
        filename_length_stats={"min": 1, "mean": 2.5, "median": 2.5, "max": 4}, config_file_candidates=["install.R"],
    )
    assert results.render_json([c.to_dict()]) == (
        '[\n  {\n    "config_file_candidates": [\n      "install.R"\n    ],\n    "documentation_files": [\n'
        '      "README.md"\n    ],\n    "encoding_histogram": {\n      "ascii": 2,\n      "utf-8": 1\n    },\n'
        '    "file_count": 3,\n    "filename_length_stats": {\n      "max": 4,\n      "mean": 2.5,\n'
        '      "median": 2.5,\n      "min": 1\n    },\n    "filenames_with_spaces": 1,\n'
        '    "has_documentation": true,\n    "has_rmd": true,\n    "has_rnw": false,\n    "other_languages": [\n'
        '      "python",\n      "stata"\n    ],\n    "package_id": "doi:10/x",\n    "total_size": 30\n  }\n]\n'
    )
    cli._write_table([c.to_dict()], tmp_path / "package_census", "csv")
    assert (tmp_path / "package_census.csv").read_bytes() == (
        b"package_id,total_size,file_count,other_languages,has_rmd,has_rnw,has_documentation,documentation_files,"
        b"encoding_histogram,filenames_with_spaces,filename_length_stats,config_file_candidates\n"
        b'doi:10/x,30,3,python;stata,True,False,True,README.md,"{""ascii"": 2, ""utf-8"": 1}",1,'
        b'"{""max"": 4, ""mean"": 2.5, ""median"": 2.5, ""min"": 1}",install.R\n'
    )


def test_census_documentation_and_languages(tmp_path: Path):
    manifest = make_package(
        tmp_path,
        "pkg1",
        {"analysis.R": "x <- 1\n", "README.md": "docs\n", "data.csv": "a,b\n"},
    )
    c = census(manifest)
    assert c.has_documentation
    assert c.documentation_files == ["README.md"]
    assert c.other_languages == set()
    assert c.file_count == 3


def test_census_detects_stata(tmp_path: Path):
    manifest = make_package(tmp_path, "pkg2", {"model.do": "regress\n", "fig.R": "plot(1)\n"})
    c = census(manifest)
    assert c.other_languages == {"stata"}


def test_census_sizes_sum(tmp_path: Path):
    manifest = make_package(tmp_path, "pkg3", {"a.R": "x" * 2000, "b.R": "y" * 3000})
    c = census(manifest)
    assert c.total_size == 5000
    assert c.file_count == 2
    assert sum(c.encoding_histogram.values()) == c.file_count


def test_census_filename_stats_exclude_final_extension(tmp_path: Path):
    manifest = make_package(
        tmp_path,
        "pkg4",
        {"analysis.final.R": "x <- 1\n", "my data.csv": "1\n", "ab.R": "y <- 2\n"},
    )
    c = census(manifest)
    # lengths: "analysis.final"=14, "my data"=7, "ab"=2
    assert c.filename_length_stats == {"min": 2, "mean": (14 + 7 + 2) / 3, "median": 7, "max": 14}
    assert c.filenames_with_spaces == 1


def test_census_config_candidates_and_markup(tmp_path: Path):
    manifest = make_package(
        tmp_path,
        "pkg5",
        {
            "000install.R": "install.packages('a')\n",
            "postinstall": "#!/bin/sh\n",
            "notebook.Rmd": "# md\n",
            "paper.Rnw": "\\Sexpr{}\n",
            "installations.csv": "1\n",
        },
    )
    c = census(manifest)
    assert sorted(c.config_file_candidates) == ["000install.R", "postinstall"]
    assert c.has_rmd and c.has_rnw


def test_census_unreadable_file_counts_unknown(tmp_path: Path):
    manifest = make_package(tmp_path, "pkg6", {"a.R": "x <- 1\n"})
    (Path(manifest.root) / "a.R").unlink()
    c = census(manifest)
    assert c.encoding_histogram == {"unknown": 1}
    assert c.file_count == 1


# --- corpus stats -------------------------------------------------------------------


def test_library_table_counts_packages_not_files(tmp_path: Path):
    p1 = make_package(tmp_path, "c1", {"one.R": "library(a)\n", "two.R": "library(b)\nlibrary(a)\n"})
    p2 = make_package(tmp_path, "c2", {"main.R": "library(b)\n"})
    censuses, metrics_lists = [], []
    for manifest in (p1, p2):
        c, fms = analyze_package(manifest)
        censuses.append(c)
        metrics_lists.extend(fms)
    summary = corpus_stats(metrics_lists, censuses)
    assert summary["library_table"] == [["b", 2], ["a", 1]] or summary["library_table"] == [("b", 2), ("a", 1)]
    assert summary["package_dependency_count"]["count"] == 2


def test_corpus_medians_match_independent_recomputation(tmp_path: Path):
    contents = {
        "c1": {"a.R": "x <- 1\n" * 10, "d.csv": "zz\n"},
        "c2": {"b.R": "y <- 2\n" * 4},
        "c3": {"c.R": "z <- 3\n" * 7, "doc_readme.txt": "hi\n"},
    }
    censuses, fms = [], []
    for name, files in contents.items():
        manifest = make_package(tmp_path, name, files)
        c, m = analyze_package(manifest)
        censuses.append(c)
        fms.extend(m)
    summary = corpus_stats(fms, censuses)

    sizes = [c.total_size for c in censuses]
    assert summary["package_size_bytes"]["median"] == statistics.median(sizes)
    assert summary["package_file_count"]["median"] == statistics.median([2, 1, 2])
    assert summary["file_code_lines"]["median"] == statistics.median([10, 4, 7])
    assert summary["n_packages"] == 3
    assert summary["n_r_files"] == 3
    # comment share equals the hand count (21 code lines, 0 comments here)
    assert summary["overall_comment_share"] == 0.0


def test_overall_comment_share_matches_hand_count(tmp_path: Path):
    manifest = make_package(tmp_path, "shares", {"f.R": TEN_LINE_FIXTURE})
    c, fms = analyze_package(manifest)
    summary = corpus_stats(fms, [c])
    assert summary["overall_comment_share"] == 2 / 10  # 2 comment lines of 10 commented+code


def test_lines_per_module_averages_over_files_that_define_modules(tmp_path: Path):
    files = {
        "funs.R": "f <- function(x) {\n  x + 1\n}\ng <- function(y) y\nz <- 3\n",  # 5 code lines, 2 functions
        "cls.R": 'setClass("P", representation(x = "numeric"))\nq <- 1\n',  # 2 code lines, 1 class
        "plain.R": "# no module\nx <- 1\n",  # no module: left out
    }
    c, fms = analyze_package(make_package(tmp_path, "modules", files))
    summary = corpus_stats(fms, [c])
    assert summary["files_with_modules"] == 2
    assert summary["approx_code_lines_per_module"] == (5 / 2 + 2 / 1) / 2


def test_single_package_distributions_have_one_sample(tmp_path: Path):
    manifest = make_package(tmp_path, "solo", {"a.R": "library(zoo)\nx <- 1\n"})
    c, fms = analyze_package(manifest)
    summary = corpus_stats(fms, [c])
    assert summary["package_size_bytes"]["count"] == 1
    assert summary["file_code_lines"]["count"] == 1
    assert summary["package_dependency_count"]["median"] == 1


def test_empty_corpus_is_explicit_zeros():
    summary = corpus_stats([], [])
    assert summary["n_packages"] == 0
    assert summary["n_r_files"] == 0
    assert summary["package_size_bytes"] == {
        "count": 0,
        "min": None,
        "mean": None,
        "median": None,
        "max": None,
        "histogram": [],
    }
    assert summary["library_table"] == []
    assert summary["documentation_share"] is None
