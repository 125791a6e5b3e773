from __future__ import annotations

import re
from functools import partial
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from reprorun import cleaner, rsource
from reprorun.cleaner import (
    DEFAULT_CRAN_MIRROR,
    ENCODING_NORMALIZED,
    LIBRARY_GUARDED,
    MIRROR_INJECTED,
    PATH_BASENAMED,
    SETWD_REWRITTEN,
    clean_file,
    clean_text,
    normalize_encoding,
    rewrite_library_loads,
    rewrite_paths,
    rewrite_setwd,
)

from conftest import R_FRAGMENT_LINES

MIRROR = DEFAULT_CRAN_MIRROR


def line_count(text: str) -> int:
    return len(text.split("\n"))


# --- encoding normalization ----------------------------------------------------


def test_pure_ascii_is_fixed_point():
    raw = b'x <- 1\nprint("ok")\n'
    text, was_ascii = normalize_encoding(raw)
    assert was_ascii
    assert text == raw.decode("ascii")


def test_utf8_accent_becomes_question_mark():
    raw = "# r\u00e9sultats\nx <- 1\n".encode("utf-8")
    text, was_ascii = normalize_encoding(raw)
    assert not was_ascii
    assert all(ord(ch) < 128 for ch in text)
    assert text == "# r?sultats\nx <- 1\n"
    assert line_count(text) == raw.decode("utf-8").count("\n") + 1


def test_invalid_utf8_falls_back_per_byte():
    raw = b"x <- 1 # caf\xe9\ny <- 2\n"  # latin-1 e-acute, invalid utf-8
    text, was_ascii = normalize_encoding(raw)
    assert not was_ascii
    assert text == "x <- 1 # caf?\ny <- 2\n"


def test_empty_input():
    assert normalize_encoding(b"") == ("", True)


@given(st.binary(max_size=400))
def test_normalize_encoding_total_and_line_preserving(raw):
    text, was_ascii = normalize_encoding(raw)
    assert all(ord(ch) < 128 for ch in text)
    assert was_ascii == all(b < 128 for b in raw)
    # multi-byte utf-8 sequences never contain 0x0a, so '\n' structure survives
    assert text.count("\n") == raw.count(b"\n")
    if was_ascii:
        assert text.encode("ascii") == raw


# --- setwd ---------------------------------------------------------------------


def test_setwd_rewritten_to_current_directory():
    text, actions = rewrite_setwd('setwd("/Users/alice/proj")\n')
    assert text == 'setwd(".")\n'
    assert [a.kind for a in actions] == [SETWD_REWRITTEN]
    assert actions[0].before == 'setwd("/Users/alice/proj")'
    assert actions[0].after == 'setwd(".")'


def test_setwd_in_comment_untouched():
    original = '# setwd("/tmp")\n'
    text, actions = rewrite_setwd(original)
    assert text == original
    assert actions == []


def test_two_setwd_calls_two_actions():
    original = 'setwd("/a")\nx <- 1\nsetwd(file.path("/b", "c"))\n'
    text, actions = rewrite_setwd(original)
    assert text == 'setwd(".")\nx <- 1\nsetwd(".")\n'
    assert len(actions) == 2
    assert [a.line for a in actions] == [1, 3]


def test_setwd_inside_string_untouched():
    original = 'msg <- "call setwd(x) later"\n'
    assert rewrite_setwd(original) == (original, [])


def test_setwd_already_clean_is_noop():
    assert rewrite_setwd('setwd(".")\n') == ('setwd(".")\n', [])


# --- absolute paths --------------------------------------------------------------


def test_absolute_path_argument_gains_basename():
    text, actions = rewrite_paths('read.csv("/data/x.csv")\n')
    assert text == 'read.csv(basename("/data/x.csv"))\n'
    assert [a.kind for a in actions] == [PATH_BASENAMED]


def test_file_path_sole_argument_wraps_whole_call():
    # reproduces the documented cleaning example byte for byte
    text, actions = rewrite_paths('file.path("/Dropbox/my_datafile.csv")\n')
    assert text == 'basename(file.path("/Dropbox/my_datafile.csv"))\n'
    assert actions[0].after == 'basename(file.path("/Dropbox/my_datafile.csv"))'

    text, actions = rewrite_paths('d <- read.csv(file.path("/Dropbox/my_datafile.csv"))\n')
    assert text == 'd <- read.csv(basename(file.path("/Dropbox/my_datafile.csv")))\n'
    assert actions[0].after == 'basename(file.path("/Dropbox/my_datafile.csv"))'


def test_relative_path_untouched():
    original = 'read.csv("x.csv")\n'
    assert rewrite_paths(original) == (original, [])


def test_no_double_wrap():
    original = 'read.csv(basename("/data/x.csv"))\n'
    assert rewrite_paths(original) == (original, [])


def test_windows_and_home_and_unc_paths():
    text, _ = rewrite_paths('read.csv("C:\\\\data\\\\f.csv")\n')
    assert text == 'read.csv(basename("C:\\\\data\\\\f.csv"))\n'
    text, _ = rewrite_paths('load("~/results.RData")\n')
    assert text == 'load(basename("~/results.RData"))\n'
    text, _ = rewrite_paths('scan("\\\\\\\\server\\\\share\\\\f.txt")\n')
    assert text.startswith("scan(basename(")


def test_assignment_of_path_literal_untouched():
    original = 'p <- "/data/x.csv"\n'
    assert rewrite_paths(original) == (original, [])


def test_path_in_comment_untouched():
    original = '# read.csv("/data/x.csv")\n'
    assert rewrite_paths(original) == (original, [])


# --- library guards ---------------------------------------------------------------


def test_library_gains_guarded_install():
    text, actions = rewrite_library_loads("library(dplyr)\n")
    assert text == (
        'if (!require("dplyr")) install.packages("dplyr",'
        ' repos="http://cran.us.r-project.org"); library(dplyr)\n'
    )
    assert 'if (!require("dplyr")) install.packages("dplyr"' in text
    assert [a.kind for a in actions] == [LIBRARY_GUARDED]


def test_require_gains_same_guard_shape():
    text, actions = rewrite_library_loads("require(MASS)\n")
    assert text == (
        'if (!require("MASS")) install.packages("MASS",'
        ' repos="http://cran.us.r-project.org"); require(MASS)\n'
    )
    assert [a.kind for a in actions] == [LIBRARY_GUARDED]


def test_quoted_name_and_extra_arguments_preserved():
    text, _ = rewrite_library_loads('library("data.table", warn.conflicts = FALSE)\n')
    assert text == (
        'if (!require("data.table")) install.packages("data.table",'
        ' repos="http://cran.us.r-project.org");'
        ' library("data.table", warn.conflicts = FALSE)\n'
    )


def test_install_packages_gets_mirror_injected_exactly_once():
    text, actions = rewrite_library_loads('install.packages("xyz")\n')
    assert text == f'install.packages("xyz", repos="{MIRROR}")\n'
    assert [a.kind for a in actions] == [MIRROR_INJECTED]
    again, actions2 = rewrite_library_loads(text)
    assert again == text
    assert actions2 == []
    assert again.count("repos=") == 1


def test_install_packages_with_existing_mirror_untouched():
    original = 'install.packages("xyz", repos="https://cloud.r-project.org")\n'
    assert rewrite_library_loads(original) == (original, [])


def test_library_in_comment_or_expression_untouched():
    original = "# library(fake)\nresult <- summary(library(conflicted))\n"
    text, actions = rewrite_library_loads(original)
    assert text == original
    assert actions == []


def test_padded_quoted_name_untouched():
    original = 'library(" ggplot2 ")\nrequire(\' MASS\')\n'
    assert rewrite_library_loads(original) == (original, [])


def test_user_written_guard_not_reguarded_but_mirror_injected():
    original = 'if (!require(pacman)) install.packages("pacman")\n'
    text, actions = rewrite_library_loads(original)
    assert text == f'if (!require(pacman)) install.packages("pacman", repos="{MIRROR}")\n'
    assert [a.kind for a in actions] == [MIRROR_INJECTED]


def test_two_statements_on_one_line_both_guarded():
    text, actions = rewrite_library_loads("library(a); library(b)\n")
    assert text.count("install.packages") == 2
    assert len(actions) == 2
    again, actions2 = rewrite_library_loads(text)
    assert again == text and actions2 == []


# --- pipeline ----------------------------------------------------------------------

COMPOSITE = (
    b"# analysis script\n"
    b'setwd("/home/alice/project")\n'
    b'data <- read.csv("/data/survey.csv")\n'
    b"library(dplyr)\n"
    b"m\xc3\xa9an <- 1\n"  # utf-8 e-acute forces an encoding action
    b"print(data)\n"
)


def test_clean_text_composite_counts_all_rewrites():
    text, actions, was_ascii = clean_text(COMPOSITE)
    assert not was_ascii
    kinds = [a.kind for a in actions]
    assert kinds.count(ENCODING_NORMALIZED) == 1
    assert kinds.count(SETWD_REWRITTEN) == 1
    assert kinds.count(PATH_BASENAMED) == 1
    assert kinds.count(LIBRARY_GUARDED) == 1
    assert len(actions) >= 4
    assert line_count(text) == line_count(COMPOSITE.decode("utf-8"))


def test_already_clean_file_is_byte_identical(tmp_path: Path):
    content = 'x <- 1\nprint(x)\n# done\n'
    src = tmp_path / "ok.R"
    src.write_text(content, encoding="utf-8")
    report = clean_file(src, tmp_path / "cleaned")
    assert report.actions == []
    assert report.error is None
    assert (tmp_path / "cleaned" / "ok.R").read_bytes() == content.encode()


def test_non_ascii_only_file_has_single_action_class(tmp_path: Path):
    src = tmp_path / "enc.R"
    src.write_bytes(b"# caf\xc3\xa9\nx <- 1\n")
    report = clean_file(src, tmp_path / "cleaned")
    assert {a.kind for a in report.actions} == {ENCODING_NORMALIZED}
    assert not report.was_ascii


def test_clean_file_idempotent(tmp_path: Path):
    src = tmp_path / "messy.R"
    src.write_bytes(COMPOSITE)
    first = clean_file(src, tmp_path / "c1")
    second = clean_file(Path(first.output_path), tmp_path / "c2")
    assert second.actions == []
    assert (tmp_path / "c2" / "messy.R").read_bytes() == (tmp_path / "c1" / "messy.R").read_bytes()


def test_clean_file_write_failure_recorded(tmp_path: Path):
    src = tmp_path / "a.R"
    src.write_text("x <- 1\n", encoding="utf-8")
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory", encoding="utf-8")
    report = clean_file(src, blocker)
    assert report.error is not None


def test_clean_file_read_failure_recorded(tmp_path: Path):
    report = clean_file(tmp_path / "gone.R", tmp_path / "out")
    assert report.error.startswith("read failed:")
    assert not (tmp_path / "out").exists()


# --- properties ---------------------------------------------------------------------

_line = st.sampled_from(
    [
        "x <- 1",
        "  # a comment with setwd(\"/x\") inside",
        'setwd("/data/proj")',
        "library(ggplot2)",
        "require('MASS')",
        'install.packages("zoo")',
        'read.csv("/abs/path/file.csv")',
        'read.csv("relative.csv")',
        'msg <- "library(quoted) is not a call"',
        "",
        "   ",
        'if (!require("done")) install.packages("done")',
        'paste("/a", "b")',
    ]
)


@given(st.lists(_line, max_size=12))
def test_cleaning_preserves_line_count_and_is_idempotent(lines):
    raw = "\n".join(lines).encode()
    text, actions, _ = clean_text(raw)
    assert line_count(text) == line_count(raw.decode())
    for action in actions:
        assert action.line >= 1
        assert action.before != action.after
    text2, actions2, _ = clean_text(text.encode())
    assert text2 == text
    assert actions2 == []


@given(st.lists(_line, max_size=12))
def test_comment_lines_never_rewritten(lines):
    raw = "\n".join(lines).encode()
    original_lines = raw.decode().split("\n")
    cleaned_lines, actions, _ = clean_text(raw)
    for before, after in zip(original_lines, cleaned_lines.split("\n")):
        if before.lstrip().startswith("#"):
            assert before == after
    for action in actions:
        assert not original_lines[action.line - 1].lstrip().startswith("#")


# clean_text runs the three rewrites in one loop over the lines; it must equal running them one after the other.
# Fragments put ')', quotes and absolute paths behind a '#' as well as before it.
_fragment = st.sampled_from(
    [
        "setwd(", "library(", "require(", "install.packages(", "file.path(", "basename(", "read.csv(",
        "if (!require(", '"/abs/a.csv"', "'~/b'", '"C:/c"', '"rel"', "pkg", "x <- ", ")", "(", "#", ";",
        ", ", '"', "'", 'repos="m"', " ",
    ]
)
_fragment_line = st.lists(_fragment, max_size=10).map("".join)
_trailing_comment_line = st.sampled_from(
    [
        'read.csv(file.path("/abs/a.csv" # )',
        'x <- read.csv("/abs/a.csv") # it\'s "here" )',
        'setwd("/w"); library(zoo) # (")',
    ]
)


@given(st.lists(st.one_of(_line, _fragment_line, _trailing_comment_line), max_size=12))
def test_clean_text_equals_the_three_rewrites_in_sequence(lines):
    raw = "\n".join(lines).encode()
    text, setwd_actions = rewrite_setwd(normalize_encoding(raw)[0])
    text, path_actions = rewrite_paths(text)
    text, lib_actions = rewrite_library_loads(text, MIRROR)
    assert clean_text(raw, MIRROR)[:2] == (text, setwd_actions + path_actions + lib_actions)


def oracle_library_step(lineno, line, code, actions, mirror):
    """``_library_step`` before its word filter, kept as its oracle: the guard scan runs on every code line."""
    if not re.search(r"!\s*require\b", code):
        replacements = []
        for start, end in rsource.split_statements(code):
            m = cleaner._LOAD_CALL_RE.match(line, start, end)
            if not m:
                continue
            call_start = m.start(1)
            open_idx = m.end() - 1
            close = rsource.matching_paren(code, open_idx)
            if close is None or close >= end:
                continue
            if line[close + 1 : end].strip():
                continue
            arg_end = rsource.first_argument_end(code, open_idx + 1, close)
            pkg = rsource.package_name(line[open_idx + 1 : arg_end])
            if pkg is None:
                continue
            original = line[call_start : close + 1]
            guard = f'if (!require("{pkg}")) install.packages("{pkg}", repos="{mirror}"); {original}'
            replacements.append((call_start, close + 1, original, guard))
        for start, end, before, after in reversed(replacements):
            line = line[:start] + after + line[end:]
            actions.append(cleaner.CleanAction(LIBRARY_GUARDED, lineno, before, after))
        if replacements:
            code = rsource.masked_code(line)
    for _, name_start, open_idx in reversed(rsource.find_calls(code, ("install.packages",))):
        close = rsource.matching_paren(code, open_idx)
        if close is None:
            continue
        if cleaner._REPOS_ARG_RE.search(code, open_idx + 1, close):
            continue
        before = line[name_start : close + 1]
        injected = f', repos="{mirror}"' if line[open_idx + 1 : close].strip() else f'repos="{mirror}"'
        line = line[:close] + injected + line[close:]
        after = line[name_start : close + 1 + len(injected)]
        actions.append(cleaner.CleanAction(MIRROR_INJECTED, lineno, before, after))
    return line


@settings(max_examples=300)
@given(st.one_of(R_FRAGMENT_LINES, st.lists(_line, max_size=12).map("\n".join)))
def test_library_word_filter_matches_the_unfiltered_guard_scan(text):
    steps = cleaner._setwd_step, cleaner._paths_step, partial(oracle_library_step, mirror=MIRROR)
    assert clean_text(text.encode(), MIRROR)[:2] == cleaner._rewrite(text, *steps)
