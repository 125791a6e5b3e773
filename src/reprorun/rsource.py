"""Decoding and a minimal line-oriented scanner for R source text.

Shared by the metrics, cleaner and stub modules. ``decode`` and
``file_encoding`` are the one encoding decision in the package: nothing
else decodes source bytes or names their encoding, and both name it
through one ladder folded over byte blocks. ``file_encoding`` reads a
file in 64 KiB blocks and stops at the first NUL, so labelling a data
file holds one block, not the file.

Deliberately not a full R grammar: one compiled regex finds single- and
double-quoted string literals with backslash escapes on a single
physical line, and nothing else in the package knows about R quoting.

``code_lines`` is the one entry point for code lines: it scans each code
line once and yields it with its masked code, which every other helper
reads. The metrics and the stub hand it every line; the cleaner hands it
only the lines that hold a rewrite trigger and leaves the rest unscanned.
The masked line has each string literal, quotes included, blanked
to spaces and keeps every index, so any ``(``, ``)``, ``#``, ``,`` or
``;`` left in it is code: its first ``#`` starts the comment, and the
helpers return indices that callers use to slice the original line.
Limits: a literal never continues onto the next line, an unterminated
literal runs to the end of its line, and backticked names and R >= 4.0
raw strings (``r"(...)"``) are not tracked, so a quote or ``#`` inside
one misreads the rest of the line.
"""

from __future__ import annotations

import codecs
import functools
import re
from collections import Counter
from collections.abc import Iterable, Iterator
from pathlib import Path

CODE = "code"
COMMENT = "comment"
BLANK = "blank"

R_SUFFIXES = (".R", ".r")

BLOCK_SIZE = 64 * 1024  # bytes per read of file_encoding


def is_r_source(name: str) -> bool:
    """True for plain R script filenames (.R or .r; RMD and Rnw are not scripts)."""
    return name.endswith(R_SUFFIXES)

# R identifiers: letters, digits, dot, underscore; may start with a dot.
_IDENT_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._"
)

# A quote, then escaped or other characters up to the same quote; an
# unterminated literal (or one ending in a lone backslash) runs to the end.
_STRING_RE = re.compile(
    r""""[^"\\]*(?:\\.[^"\\]*)*(?:"|\\)?|'[^'\\]*(?:\\.[^'\\]*)*(?:'|\\)?""", re.DOTALL
)
_PAREN_RE = re.compile(r"[()]")
_C1_RE = re.compile(rb"[\x80-\x9f]")  # bytes that are C1 controls in latin-1 and text in windows-1252
_NESTING_RE = re.compile(r"[()\[\]{};,=]")


def _fold_encoding(blocks: Iterable[bytes], utf8: bool | None = None) -> str:
    """The encoding label of the bytes that ``blocks`` join to, read block by block.

    A NUL in any block gives binary, and no later block is read; all-ASCII
    blocks give ascii. Other bytes are utf-8 when they decode as UTF-8,
    checked by an incremental decoder unless ``utf8`` already tells,
    else windows-1252 when any block holds a C1 byte, else iso-8859-1.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    is_ascii, c1 = True, False
    for block in blocks:
        if b"\x00" in block:
            return "binary"
        if is_ascii and block.isascii():
            continue
        is_ascii = False
        c1 = c1 or _C1_RE.search(block) is not None
        if utf8 is None:
            try:
                decoder.decode(block)
            except UnicodeDecodeError:
                utf8 = False
    if is_ascii:
        return "ascii"
    if utf8 is None:
        try:
            decoder.decode(b"", final=True)
            utf8 = True
        except UnicodeDecodeError:
            utf8 = False
    return "utf-8" if utf8 else "windows-1252" if c1 else "iso-8859-1"


def file_encoding(path: Path | str) -> str:
    """The encoding label of a file's bytes, read in ``BLOCK_SIZE`` blocks up to the first NUL."""
    with open(path, "rb") as fh:
        return _fold_encoding(iter(functools.partial(fh.read, BLOCK_SIZE), b""))


def decode(raw: bytes) -> tuple[str, str]:
    """Source bytes as text (UTF-8, else latin-1: total), with their encoding label."""
    try:
        return raw.decode("utf-8"), _fold_encoding((raw,), utf8=True)
    except UnicodeDecodeError:
        return raw.decode("latin-1"), _fold_encoding((raw,), utf8=False)


def split_lines(text: str) -> list[str]:
    """Split text into physical lines without a phantom line for a trailing newline."""
    if not text:
        return []
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def string_spans(line: str) -> list[tuple[int, int]]:
    """Half-open [start, end) index spans of string literals, quotes included.

    An unterminated literal extends to the end of the line.
    """
    return [m.span() for m in _STRING_RE.finditer(line)]


def mask_strings(line: str) -> str:
    """Replace string literal contents (and quotes) with spaces, preserving indices."""
    return _STRING_RE.sub(lambda m: " " * (m.end() - m.start()), line)


def classify_line(line: str) -> str:
    """Partition a physical line into exactly one of code, comment, blank.

    A line is a comment iff its first non-whitespace character is '#',
    blank iff whitespace-only, otherwise code (a trailing inline comment
    keeps the line classified as code).
    """
    stripped = line.strip()
    if not stripped:
        return BLANK
    if stripped.startswith("#"):
        return COMMENT
    return CODE


def masked_code(line: str) -> str:
    """The string-masked text of a line before its comment, with the line's indices."""
    return mask_strings(line).partition("#")[0]


def code_lines(lines: Iterable[str], kinds: Counter | None = None) -> Iterator[tuple[int, str, str]]:
    """Yield (index, line, masked_code(line)) for each code line, scanning it once.

    ``kinds``, when given, counts every line's kind (code, comment, blank).
    """
    for i, line in enumerate(lines):
        kind = classify_line(line)
        if kinds is not None:
            kinds[kind] += 1
        if kind == CODE:
            yield i, line, masked_code(line)


def find_calls(masked: str, names: tuple[str, ...] | list[str]) -> list[tuple[str, int, int]]:
    """Occurrences of ``name(`` in a masked line, as (name, name_start, open_paren_idx).

    A match requires a word boundary before the name (the preceding
    character is not part of an R identifier) and an opening parenthesis
    as the next non-space character.
    """
    hits: list[tuple[str, int, int]] = []
    for name in names:
        start = 0
        while True:
            pos = masked.find(name, start)
            if pos < 0:
                break
            start = pos + 1
            if pos > 0 and masked[pos - 1] in _IDENT_CHARS:
                continue
            after = pos + len(name)
            while after < len(masked) and masked[after] in " \t":
                after += 1
            if after < len(masked) and masked[after] == "(":
                hits.append((name, pos, after))
    hits.sort(key=lambda h: h[1])
    return hits


def matching_paren(masked: str, open_idx: int) -> int | None:
    """Index of the ')' matching the '(' at open_idx, or None if not closed on this line."""
    depth = 0
    for m in _PAREN_RE.finditer(masked, open_idx):
        if m.group() == "(":
            depth += 1
        else:
            depth -= 1
            if depth == 0:
                return m.start()
    return None


def first_argument_end(masked: str, start: int, end: int) -> int:
    """Index of the first ',' outside brackets in masked[start:end], else end.

    Called with the span between a call's parentheses, it ends the call's
    first argument.
    """
    depth = 0
    for m in _NESTING_RE.finditer(masked, start, end):
        ch = m.group()
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and depth == 0:
            return m.start()
    return end


def split_statements(masked: str, sep: str = ";") -> list[tuple[int, int]]:
    """Split masked code at each top-level sep (``;``, ``,`` or ``=``) into [start, end) spans.

    Top-level means outside any brackets, so the ';' in a generated
    one-line guard separates statements while a ';' inside a call
    argument does not.
    """
    spans: list[tuple[int, int]] = []
    depth = 0
    seg_start = 0
    for m in _NESTING_RE.finditer(masked):
        ch = m.group()
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == sep and depth <= 0:
            spans.append((seg_start, m.start()))
            seg_start = m.end()
    spans.append((seg_start, len(masked)))
    return spans


def strip_quotes(token: str) -> str | None:
    """The inner text of a quoted token, or None if not a single quoted literal."""
    token = token.strip()
    if len(token) >= 2 and token[0] in "'\"" and token[-1] == token[0]:
        inner = token[1:-1]
        if token[0] not in inner.replace("\\" + token[0], ""):
            return inner
    return None


def is_bare_name(token: str) -> bool:
    """True for a bare R identifier usable as a package or variable name."""
    if not token or token[0] not in _IDENT_CHARS or token[0].isdigit():
        return False
    return all(ch in _IDENT_CHARS for ch in token)


def package_name(arg: str) -> str | None:
    """The package a ``library``-style first argument names, quoted or bare, else None.

    A quoted name padded with whitespace, as in ``library(" ggplot2 ")``,
    names no package (R fails on it), so it gives None.
    """
    quoted = strip_quotes(arg)
    name = arg.strip() if quoted is None else quoted
    return name if is_bare_name(name) else None
