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
from functools import partial
from pathlib import Path

from . import rsource
from .ingest import PackageManifest

DEFAULT_CRAN_MIRROR = "http://cran.us.r-project.org"

ENCODING_NORMALIZED = "encoding_normalized"
SETWD_REWRITTEN = "setwd_rewritten"
PATH_BASENAMED = "path_basenamed"
LIBRARY_GUARDED = "library_guarded"
MIRROR_INJECTED = "mirror_injected"

_ABSOLUTE_PATH = r"(/|~|[A-Za-z]:[/\\]|\\\\)"
_ABSOLUTE_PATH_RE = re.compile(_ABSOLUTE_PATH)
# a quote opening an absolute path: every line holding such a literal matches
_ABSOLUTE_LITERAL_HINT_RE = re.compile(r"[\"']" + _ABSOLUTE_PATH)
_REPOS_ARG_RE = re.compile(r"\brepos\s*=")
_LOAD_CALL_RE = re.compile(r"\s*(library|require)\s*\(")
_NON_ASCII_RE = re.compile(r"[^\x00-\x7f]")


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


def _to_ascii(decoded: str) -> tuple[str, bool]:
    """Decoded text with every non-ASCII character as ``?``, and whether it was ASCII already."""
    if decoded.isascii():
        return decoded, True
    return _NON_ASCII_RE.sub("?", decoded), False


def normalize_encoding(raw: bytes) -> tuple[str, bool]:
    """Force source bytes to ASCII text, preserving the physical line count.

    Decoding tries UTF-8 first and falls back to a single-byte decoding;
    every resulting non-ASCII character becomes ``?``. Total function:
    any byte sequence yields a result.
    """
    return _to_ascii(rsource.decode(raw)[0])


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


def _rewrite(text: str, *steps) -> tuple[str, list[CleanAction]]:
    """Run per-line rewrite steps, in order, over the code lines of text.

    A step takes (lineno, line, code, actions), where code is the line's
    masked code, appends what it rewrites to actions and returns the
    line. The lines are scanned once; a line is scanned again only after
    a step has changed it. The actions come step by step, each by line.
    """
    lines = text.split("\n")
    logs: list[list[CleanAction]] = [[] for _ in steps]
    for i, line, code in rsource.code_lines(lines):
        new = line
        for step, log in zip(steps, logs):
            if new != line:
                line, code = new, rsource.masked_code(new)
            new = step(i + 1, line, code, log)
        lines[i] = new
    return "\n".join(lines), [action for log in logs for action in log]


def _setwd_step(lineno: int, line: str, code: str, actions: list[CleanAction]) -> str:
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
    return line


def rewrite_setwd(text: str) -> tuple[str, list[CleanAction]]:
    """Replace every non-comment ``setwd(<anything>)`` call with ``setwd(".")``.

    The executor launches interpreters with the package copy as working
    directory, so pointing setwd at the current directory keeps cleaned
    scripts location independent. Calls whose closing parenthesis is not
    on the same line are left alone.
    """
    return _rewrite(text, _setwd_step)


def _paths_step(lineno: int, line: str, code: str, actions: list[CleanAction]) -> str:
    if not _ABSOLUTE_LITERAL_HINT_RE.search(line, 0, len(code)):
        return line  # only lines quoting an absolute path pay for the literal spans
    literals = [
        (start, end)
        for start, end in rsource.string_spans(line)
        if start < len(code) and end - start >= 2 and line[end - 1] == line[start]  # terminated, not in the comment
        and _ABSOLUTE_PATH_RE.match(line[start + 1 : end - 1])
    ]
    # rightmost first, so the indices of the literals still to come hold
    for start, end in reversed(literals):
        if code.count("(", 0, start) - code.count(")", 0, start) < 1:
            continue  # only literals appearing as call arguments
        wrap_start, wrap_end = start, end
        enclosing = _enclosing_call(line, start)
        if enclosing is not None:
            enc_name, enc_start, enc_open = enclosing
            if enc_name == "basename":
                continue  # already wrapped
            if enc_name == "file.path":
                enc_close = rsource.matching_paren(code, enc_open)
                sole_arg = (
                    enc_close is not None
                    and line[enc_open + 1 : enc_close].strip() == line[start:end]
                )
                if sole_arg:
                    outer = _enclosing_call(line, enc_start)
                    if outer is not None and outer[0] == "basename":
                        continue
                    wrap_start, wrap_end = enc_start, enc_close + 1
        before = line[wrap_start:wrap_end]
        after = f"basename({before})"
        line = line[:wrap_start] + after + line[wrap_end:]
        actions.append(CleanAction(PATH_BASENAMED, lineno, before, after))
    return line


def rewrite_paths(text: str) -> tuple[str, list[CleanAction]]:
    """Wrap absolute-path string literals used as call arguments in ``basename(...)``.

    Absolute means a leading ``/``, ``~``, drive letter (``X:\\`` or
    ``X:/``), or UNC prefix. When the literal is the sole argument of a
    ``file.path(...)`` call the whole call is wrapped, which is what the
    flat-directory layout needs in either form; basename of a relative
    name is itself, so false positives are harmless. Literals already
    inside ``basename(...)`` are left alone.
    """
    return _rewrite(text, _paths_step)


def _library_step(lineno: int, line: str, code: str, actions: list[CleanAction], mirror: str) -> str:
    # a load call starts a statement of the masked code, so a line naming neither word holds none
    if ("library" in code or "require" in code) and not re.search(r"!\s*require\b", code):
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
            guard = f'if (!require("{pkg}")) install.packages("{pkg}", repos="{mirror}"); {original}'
            replacements.append((call_start, close + 1, original, guard))
        for start, end, before, after in reversed(replacements):
            line = line[:start] + after + line[end:]
            actions.append(CleanAction(LIBRARY_GUARDED, lineno, before, after))
        if replacements:
            code = rsource.masked_code(line)

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
    return line


def rewrite_library_loads(text: str, mirror: str = DEFAULT_CRAN_MIRROR) -> tuple[str, list[CleanAction]]:
    """Guard library loads with an install-if-missing test against the mirror.

    A statement-level ``library(pkg)`` or ``require(pkg)`` becomes, on one
    line, ``if (!require("pkg")) install.packages("pkg", repos="<mirror>");
    <original call>``; the trailing explicit load makes a freshly installed
    package usable. Lines that already contain a ``!require(`` guard are
    left alone. Independently, any ``install.packages(...)`` call that
    names no ``repos`` argument gets the mirror injected, exactly once.
    """
    return _rewrite(text, partial(_library_step, mirror=mirror))


def _clean(decoded: str, mirror: str) -> tuple[str, list[CleanAction], bool]:
    """The cleaned text, action log and ASCII flag of decoded source text."""
    text, was_ascii = _to_ascii(decoded)
    actions = [] if was_ascii else [
        CleanAction(ENCODING_NORMALIZED, i, before, after)
        for i, (before, after) in enumerate(zip(decoded.split("\n"), text.split("\n")), start=1)
        if before != after
    ]
    text, rewrites = _rewrite(text, _setwd_step, _paths_step, partial(_library_step, mirror=mirror))
    return text, actions + rewrites, was_ascii


def clean_text(raw: bytes, mirror: str = DEFAULT_CRAN_MIRROR) -> tuple[str, list[CleanAction], bool]:
    """Run the full cleaning pipeline on raw script bytes."""
    return _clean(rsource.decode(raw)[0], mirror)


def clean_file(
    path: Path | str, out_dir: Path | str, mirror: str = DEFAULT_CRAN_MIRROR, diff: bool = False
) -> CleanReport:
    """Clean one R file into out_dir (same filename) and return the action log.

    The file is read and decoded once. With ``diff``, a file that any
    rewrite changed also gets ``<file>.diff`` beside its cleaned copy.
    The original file is never modified. A read or write failure is
    fatal for this file and is recorded on the report.
    """
    path = Path(path)
    out_dir = Path(out_dir)
    report = CleanReport(path=str(path))
    try:
        decoded, _ = rsource.decode(path.read_bytes())
    except OSError as exc:
        report.error = f"read failed: {exc}"
        return report
    text, report.actions, report.was_ascii = _clean(decoded, mirror)
    out_path = out_dir / path.name
    report.output_path = str(out_path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text, encoding="utf-8")
        if diff and report.actions:
            lines = difflib.unified_diff(
                decoded.split("\n"), text.split("\n"), f"{path.name} (original)", f"{path.name} (cleaned)", lineterm=""
            )
            Path(f"{out_path}.diff").write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        report.error = f"write failed: {exc}"
    return report


def clean_tree(
    manifest: PackageManifest, out_dir: Path | str, mirror: str = DEFAULT_CRAN_MIRROR, diff: bool = False
) -> list[CleanReport]:
    """Clean the manifest's fetched R files, each below out_dir at its relative path's parent."""
    root = Path(manifest.root)
    unfetched = manifest.unfetched()
    return [
        clean_file(root / entry.relative_path, Path(out_dir, entry.relative_path).parent, mirror, diff)
        for entry in manifest.r_files()
        if entry.relative_path not in unfetched
    ]
