"""The regex scanner in rsource against the character loop it replaced.

The loop-based ``string_spans``, ``comment_start`` and ``split_statements``
below are kept only as the oracle: on any line, the masked-line helpers
must give the same literal spans, mask, comment start and statement
offsets. The scan-count tests check that the cleaner and the metrics
scan each code line once, and the read-count tests that analyze and
clean read and decode each file once.
"""

from __future__ import annotations

import builtins

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collections import Counter
from pathlib import Path

from reprorun import rsource
from reprorun.cleaner import clean_file, clean_text
from reprorun.cli import main
from reprorun.metrics import analyze_package, analyze_r_file

from conftest import make_package


def oracle_string_spans(line: str) -> list[tuple[int, int]]:
    spans: list[tuple[int, int]] = []
    i = 0
    n = len(line)
    while i < n:
        ch = line[i]
        if ch in "'\"":
            start = i
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == ch:
                    i += 1
                    break
                i += 1
            spans.append((start, min(i, n)))
        else:
            i += 1
    return spans


def _in_spans(idx: int, spans: list[tuple[int, int]]) -> bool:
    return any(start <= idx < end for start, end in spans)


def oracle_comment_start(line: str) -> int | None:
    spans = oracle_string_spans(line)
    for i, ch in enumerate(line):
        if ch == "#" and not _in_spans(i, spans):
            return i
    return None


def oracle_split_statements(code: str) -> list[tuple[int, str]]:
    spans = oracle_string_spans(code)
    segments: list[tuple[int, str]] = []
    depth = 0
    seg_start = 0
    for i, ch in enumerate(code):
        if _in_spans(i, spans):
            continue
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == ";" and depth <= 0:
            segments.append((seg_start, code[seg_start:i]))
            seg_start = i + 1
    segments.append((seg_start, code[seg_start:]))
    return segments


LINES = st.text(alphabet=list("'\"\\#()[]{},; \t\rabxyzé"), max_size=60)


@settings(max_examples=400)
@given(LINES)
def test_scanner_matches_loop_oracle(line: str):
    spans = oracle_string_spans(line)
    assert rsource.string_spans(line) == spans

    masked = rsource.mask_strings(line)
    expected_mask = "".join(" " if _in_spans(i, spans) else ch for i, ch in enumerate(line))
    assert masked == expected_mask

    code = masked.partition("#")[0]
    start = oracle_comment_start(line)
    assert len(code) == (len(line) if start is None else start)

    expected = [(off, off + len(seg)) for off, seg in oracle_split_statements(line[: len(code)])]
    assert rsource.split_statements(code) == expected


def test_unterminated_and_trailing_backslash_literals_run_to_line_end():
    assert rsource.string_spans('x <- "a\\"b') == [(5, 10)]
    assert rsource.string_spans("f('a\\") == [(2, 5)]
    assert rsource.mask_strings('a("#") # c') == 'a(   ) # c'


# N code lines that no rewrite touches, with quotes, '#' and ')' in strings and comments.
UNTOUCHED_CODE_LINES = [
    'x <- read.csv("data/in.csv")  # not "/abs" )',
    "f <- function(a = 1, b = '#') a + b",
    'setwd(".")',
    'if (!require("zoo")) install.packages("zoo", repos="m"); library(zoo)',
    "y = c(1, 2)[x == 2]; print(y) # it's (",
    'msg <- paste("library(fake)", \'#\')',
]
UNTOUCHED_SOURCE = "# header\n\n" + "\n".join(UNTOUCHED_CODE_LINES) + "\n  # trailer \"q\n"
# The untouched code lines that hold a rewrite trigger: a quoted absolute path after '#', setwd, require, library.
UNTOUCHED_TRIGGER_LINES = [UNTOUCHED_CODE_LINES[i] for i in (0, 2, 3, 5)]


@pytest.fixture
def scans(monkeypatch) -> list[tuple[str, str]]:
    """The rsource string scans made while the test runs, as (name, line), one entry per call."""
    calls: list[tuple[str, str]] = []
    for name in ("mask_strings", "string_spans"):
        def counted(line, _real=getattr(rsource, name), _name=name):
            calls.append((_name, line))
            return _real(line)

        monkeypatch.setattr(rsource, name, counted)
    return calls


def test_analyze_scans_each_code_line_once(tmp_path, scans):
    path = tmp_path / "a.R"
    path.write_text(UNTOUCHED_SOURCE, encoding="utf-8")
    assert analyze_r_file(path).code_lines == len(UNTOUCHED_CODE_LINES)
    assert len(scans) == len(UNTOUCHED_CODE_LINES)


def test_clean_scans_only_the_untouched_code_lines_holding_a_trigger(scans):
    assert clean_text(UNTOUCHED_SOURCE.encode())[:2] == (UNTOUCHED_SOURCE, [])
    assert scans == [("mask_strings", line) for line in UNTOUCHED_TRIGGER_LINES]


@pytest.fixture
def reads(monkeypatch) -> Counter:
    """Files opened for reading, per path, and calls per rsource decoder made while the test runs.

    ``open`` and ``Path.open`` count the opens; ``Path.read_bytes`` and
    ``Path.read_text`` open through ``Path.open``, so they count once too.
    """
    calls: Counter = Counter()
    real_open, real_path_open = builtins.open, Path.open

    def counted_open(file, mode="r", *args, **kwargs):
        if "r" in mode:
            calls[str(file)] += 1
        return real_open(file, mode, *args, **kwargs)

    def path_open(self, mode="r", *args, **kwargs):
        if "r" in mode:
            calls[str(self)] += 1
        return real_path_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted_open)
    monkeypatch.setattr(Path, "open", path_open)
    for name in ("decode", "file_encoding"):
        def counted(arg, _real=getattr(rsource, name), _name=f"rsource.{name}"):
            calls[_name] += 1
            return _real(arg)

        monkeypatch.setattr(rsource, name, counted)
    return calls


LATIN1_SETWD = b'# caf\xe9\nsetwd("/home/me")\nx <- 1\n'
PACKAGE_FILES = {"a.R": LATIN1_SETWD, "sub/b.R": "library(zoo)\n", "data.csv": "x\n1\n", "README.md": "hi\n"}


def test_analyze_package_reads_each_file_once(tmp_path, reads):
    manifest = make_package(tmp_path, "pkg", PACKAGE_FILES)
    reads.clear()
    pkg_census, file_metrics = analyze_package(manifest)
    assert reads == Counter({
        **{str(tmp_path / "pkg" / name): 1 for name in PACKAGE_FILES},
        "rsource.decode": 2,  # the R files, for their metrics and encodings
        "rsource.file_encoding": 2,  # the other files, for their encodings
    })
    assert [Path(fm.path).name for fm in file_metrics] == ["a.R", "b.R"]
    assert pkg_census.encoding_histogram == {"ascii": 3, "iso-8859-1": 1}


def test_clean_file_reads_and_decodes_once(tmp_path, reads):
    src = tmp_path / "a.R"
    src.write_bytes(LATIN1_SETWD)
    report = clean_file(src, tmp_path / "out")
    assert [a.kind for a in report.actions] == ["encoding_normalized", "setwd_rewritten"]
    assert reads == Counter({str(src): 1, "rsource.decode": 1})


def test_clean_diff_reads_no_file_twice(tmp_path, reads):
    make_package(tmp_path / "corpus", "pkg", PACKAGE_FILES)
    assert main(["clean", "--corpus", str(tmp_path / "corpus"), "--diff"]) == 0
    assert (tmp_path / "corpus" / "cleaned" / "local_pkg" / "a.R.diff").is_file()
    assert reads.pop("rsource.decode") == 2
    assert sorted(reads.values()) == [1, 1]  # the two R files
