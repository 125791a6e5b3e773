"""The regex scanner in rsource against the character loop it replaced.

The loop-based ``string_spans``, ``comment_start`` and ``split_statements``
below are kept only as the oracle: on any line, the masked-line helpers
must give the same literal spans, mask, comment start and statement
offsets.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from reprorun import rsource


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
