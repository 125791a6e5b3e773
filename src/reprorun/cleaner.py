"""Automatic code cleaning for R scripts.

Four conservative, intra-line rewrites aimed at the most common
re-execution failures:

* non-ASCII bytes are normalized to ASCII (``?`` substitution),
* ``setwd(...)`` calls are redirected to the current directory,
* absolute-path string literals passed to calls are wrapped in
  ``basename(...)`` so the flat package directory resolves them,
* ``library``/``require`` statements gain an install-if-missing guard
  against a configured CRAN mirror, and bare ``install.packages`` calls
  get the mirror injected when they name no repository.

Every rewrite is recorded as a CleanAction so the full diff can be
reconstructed. No rewrite ever touches a comment line, and the cleaned
file always has the same number of physical lines as the input.
"""

from __future__ import annotations

import difflib
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import rsource

DEFAULT_CRAN_MIRROR = "http://cran.us.r-project.org"

ENCODING_NORMALIZED = "encoding_normalized"
SETWD_REWRITTEN = "setwd_rewritten"
PATH_BASENAMED = "path_basenamed"
LIBRARY_GUARDED = "library_guarded"
MIRROR_INJECTED = "mirror_injected"

_ABSOLUTE_PATH_RE = re.compile(r"^(/|~|[A-Za-z]:[/\\]|\\\\)")
_REPOS_ARG_RE = re.compile(r"\brepos\s*=")
_LOAD_CALL_RE = re.compile(r"\s*(library|require)\s*\(")


@dataclass(frozen=True)
class CleanAction:
    """One rewrite applied at one call site."""

    kind: str
    line: int  # 1-based line number in the original file
    before: str
    after: str

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class CleanReport:
    """Ordered action log for one cleaned file."""

    path: str
    actions: list[CleanAction] = field(default_factory=list)
    was_ascii: bool = True
    output_path: str = ""
    error: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


class CleanWriteError(OSError):
    """Raised when the cleaned output could not be written."""


_decode = rsource.decode_best_effort


def normalize_encoding(raw: bytes) -> tuple[str, bool]:
    """Force source bytes to ASCII text, preserving the physical line count.

    Decoding tries UTF-8 first and falls back to a single-byte decoding;
    every resulting non-ASCII character becomes ``?``. Total function:
    any byte sequence yields a result.
    """
    was_ascii = raw.isascii()
    text = _decode(raw)
    if not was_ascii:
        text = text.encode("ascii", "replace").decode("ascii")
    return text, was_ascii


def _enclosing_call(line: str, idx: int) -> tuple[str, int, int] | None:
    """Name and span of the call whose '(' immediately precedes index idx.

    Returns (name, name_start, open_paren_idx) when the text just before
    idx is ``name(`` modulo whitespace, else None.
    """
    i = idx - 1
    while i >= 0 and line[i] in " \t":
        i -= 1
    if i < 0 or line[i] != "(":
        return None
    open_idx = i
    i -= 1
    while i >= 0 and line[i] in " \t":
        i -= 1
    end = i
    while i >= 0 and line[i] in rsource._IDENT_CHARS:
        i -= 1
    if i == end:
        return None
    return line[i + 1 : end + 1], i + 1, open_idx


def rewrite_setwd(text: str) -> tuple[str, list[CleanAction]]:
    """Replace every non-comment ``setwd(<anything>)`` call with ``setwd(".")``.

    The executor launches interpreters with the package copy as working
    directory, so pointing setwd at the current directory keeps cleaned
    scripts location independent. Calls whose closing parenthesis is not
    on the same line are left alone.
    """
    lines = text.split("\n")
    actions: list[CleanAction] = []
    for lineno, line in enumerate(lines, start=1):
        if rsource.classify_line(line) != rsource.CODE:
            continue
        code = rsource.mask_strings(line).partition("#")[0]
        for _, name_start, open_idx in reversed(rsource.find_calls(code, ("setwd",))):
            close = rsource.matching_paren(code, open_idx)
            if close is None:
                continue
            before = line[name_start : close + 1]
            after = 'setwd(".")'
            if before == after:
                continue
            line = line[:name_start] + after + line[close + 1 :]
            actions.append(CleanAction(SETWD_REWRITTEN, lineno, before, after))
        lines[lineno - 1] = line
    return "\n".join(lines), actions


def _wrap_candidates(line: str) -> list[tuple[int, int, str]]:
    """(start, end, text) slices on one line to wrap in basename(...), rightmost first."""
    literals = [
        (start, end)
        for start, end in rsource.string_spans(line)
        if end - start >= 2 and line[end - 1] == line[start]  # terminated
        and _ABSOLUTE_PATH_RE.match(line[start + 1 : end - 1])
    ]
    if not literals:
        return []  # only lines holding an absolute-path literal pay for the mask
    masked = rsource.mask_strings(line)
    code_end = len(masked.partition("#")[0])
    out: list[tuple[int, int, str]] = []
    for start, end in reversed(literals):
        if start >= code_end:
            continue  # inside the comment
        if masked.count("(", 0, start) - masked.count(")", 0, start) < 1:
            continue  # only literals appearing as call arguments
        wrap_start, wrap_end = start, end
        enclosing = _enclosing_call(line, start)
        if enclosing is not None:
            enc_name, enc_start, enc_open = enclosing
            if enc_name == "basename":
                continue  # already wrapped
            if enc_name == "file.path":
                enc_close = rsource.matching_paren(masked, enc_open)
                sole_arg = (
                    enc_close is not None
                    and line[enc_open + 1 : enc_close].strip() == line[start:end]
                )
                if sole_arg:
                    outer = _enclosing_call(line, enc_start)
                    if outer is not None and outer[0] == "basename":
                        continue
                    wrap_start, wrap_end = enc_start, enc_close + 1
        out.append((wrap_start, wrap_end, line[wrap_start:wrap_end]))
    return out


def rewrite_paths(text: str) -> tuple[str, list[CleanAction]]:
    """Wrap absolute-path string literals used as call arguments in ``basename(...)``.

    Absolute means a leading ``/``, ``~``, drive letter (``X:\\`` or
    ``X:/``), or UNC prefix. When the literal is the sole argument of a
    ``file.path(...)`` call the whole call is wrapped, which is what the
    flat-directory layout needs in either form; basename of a relative
    name is itself, so false positives are harmless. Literals already
    inside ``basename(...)`` are left alone.
    """
    lines = text.split("\n")
    actions: list[CleanAction] = []
    for lineno, line in enumerate(lines, start=1):
        if rsource.classify_line(line) != rsource.CODE:
            continue
        for start, end, before in _wrap_candidates(line):
            after = f"basename({before})"
            line = line[:start] + after + line[end:]
            actions.append(CleanAction(PATH_BASENAMED, lineno, before, after))
        lines[lineno - 1] = line
    return "\n".join(lines), actions


def _guard_for(pkg: str, original_call: str, mirror: str) -> str:
    return (
        f'if (!require("{pkg}")) install.packages("{pkg}", repos="{mirror}"); {original_call}'
    )


def rewrite_library_loads(text: str, mirror: str = DEFAULT_CRAN_MIRROR) -> tuple[str, list[CleanAction]]:
    """Guard library loads with an install-if-missing test against the mirror.

    A statement-level ``library(pkg)`` or ``require(pkg)`` becomes, on one
    line, ``if (!require("pkg")) install.packages("pkg", repos="<mirror>");
    <original call>``; the trailing explicit load makes a freshly installed
    package usable. Lines that already contain a ``!require(`` guard are
    left alone. Independently, any ``install.packages(...)`` call that
    names no ``repos`` argument gets the mirror injected, exactly once.
    """
    lines = text.split("\n")
    actions: list[CleanAction] = []
    for lineno, line in enumerate(lines, start=1):
        if rsource.classify_line(line) != rsource.CODE:
            continue
        code = rsource.mask_strings(line).partition("#")[0]

        if not re.search(r"!\s*require\b", code):
            replacements: list[tuple[int, int, str, str]] = []
            for start, end in rsource.split_statements(code):
                m = _LOAD_CALL_RE.match(line, start, end)
                if not m:
                    continue
                call_start = m.start(1)
                open_idx = m.end() - 1
                close = rsource.matching_paren(code, open_idx)
                if close is None or close >= end:
                    continue
                if line[close + 1 : end].strip():
                    continue  # call is not the whole statement
                arg_end = rsource.first_argument_end(code, open_idx + 1, close)
                pkg = rsource.package_name(line[open_idx + 1 : arg_end])
                if pkg is None:
                    continue
                original = line[call_start : close + 1]
                replacements.append((call_start, close + 1, original, _guard_for(pkg, original, mirror)))
            for start, end, before, after in reversed(replacements):
                line = line[:start] + after + line[end:]
                actions.append(CleanAction(LIBRARY_GUARDED, lineno, before, after))
            if replacements:
                code = rsource.mask_strings(line).partition("#")[0]

        for _, name_start, open_idx in reversed(rsource.find_calls(code, ("install.packages",))):
            close = rsource.matching_paren(code, open_idx)
            if close is None:
                continue
            if _REPOS_ARG_RE.search(code, open_idx + 1, close):
                continue
            before = line[name_start : close + 1]
            injected = f', repos="{mirror}"' if line[open_idx + 1 : close].strip() else f'repos="{mirror}"'
            line = line[:close] + injected + line[close:]
            actions.append(CleanAction(MIRROR_INJECTED, lineno, before, line[name_start : close + 1 + len(injected)]))

        lines[lineno - 1] = line
    return "\n".join(lines), actions


def _encoding_actions(raw: bytes, normalized: str) -> list[CleanAction]:
    decoded_lines = _decode(raw).split("\n")
    normalized_lines = normalized.split("\n")
    return [
        CleanAction(ENCODING_NORMALIZED, i, before, after)
        for i, (before, after) in enumerate(zip(decoded_lines, normalized_lines), start=1)
        if before != after
    ]


def clean_text(raw: bytes, mirror: str = DEFAULT_CRAN_MIRROR) -> tuple[str, list[CleanAction], bool]:
    """Run the full cleaning pipeline on raw script bytes."""
    text, was_ascii = normalize_encoding(raw)
    actions = _encoding_actions(raw, text)
    text, setwd_actions = rewrite_setwd(text)
    text, path_actions = rewrite_paths(text)
    text, lib_actions = rewrite_library_loads(text, mirror)
    return text, actions + setwd_actions + path_actions + lib_actions, was_ascii


def clean_file(path: Path | str, out_dir: Path | str, mirror: str = DEFAULT_CRAN_MIRROR) -> CleanReport:
    """Clean one R file into out_dir (same filename) and return the action log.

    The original file is never modified. A write failure is fatal for
    this file and is recorded on the report.
    """
    path = Path(path)
    out_dir = Path(out_dir)
    report = CleanReport(path=str(path))
    raw = path.read_bytes()
    text, report.actions, report.was_ascii = clean_text(raw, mirror)
    out_path = out_dir / path.name
    report.output_path = str(out_path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text, encoding="utf-8")
    except OSError as exc:
        report.error = f"write failed: {exc}"
    return report


def clean_tree(pkg_dir: Path | str, out_dir: Path | str, mirror: str = DEFAULT_CRAN_MIRROR) -> list[CleanReport]:
    """Clean every R file under pkg_dir, mirroring its layout below out_dir."""
    pkg_dir = Path(pkg_dir)
    out_dir = Path(out_dir)
    reports = []
    for path in sorted(p for p in pkg_dir.rglob("*") if p.is_file() and rsource.is_r_source(p.name)):
        rel_parent = path.parent.relative_to(pkg_dir)
        reports.append(clean_file(path, out_dir / rel_parent, mirror))
    return reports


def unified_diff(original: bytes, cleaned_text: str, name: str) -> str:
    """Unified diff between the original bytes (decoded) and the cleaned text."""
    before = _decode(original).split("\n")
    after = cleaned_text.split("\n")
    return "\n".join(
        difflib.unified_diff(before, after, fromfile=f"{name} (original)", tofile=f"{name} (cleaned)", lineterm="")
    )
