"""Scripted stand-in for an R interpreter.

Runs as a child process (``python -m reprorun.stubr script.R``) so the
executor and the whole test suite work on machines without R. The stub
interprets a small, line-oriented subset of R-looking statements and
mirrors R's error text on stderr, which is what the error classifier
consumes:

* ``setwd("p")`` succeeds iff the directory exists (checked, not chdir'd)
* ``library(p)`` / ``require(p)`` consult a package registry; a missing
  package is a fatal error for library and a warning for require
* ``if (!require("p")) <stmt>`` runs the guard consequent when p is absent
* ``install.packages("p", ...)`` installs p when the network is allowed
  and p is in the repository set; installs persist in ``./.stubr-library``
* ``read.csv``/``read.table``/``readLines``/``readRDS``/``load``/``source``
  fail R-style when the named file is missing; ``basename(...)`` and
  ``file.path(...)`` argument wrappers are evaluated
* ``Sys.sleep(n)``, ``stop("msg")``, ``quit(status = n)``
* ``x <- value`` defines x; ``print(x)`` or a bare ``x`` statement fails
  with "object not found" when x was never assigned
* ``writeLines("text", "file")`` and ``file.copy("a", "b")`` write inside
  the working directory; anything unrecognized is a no-op

Registry environment variables (comma separated): ``STUBR_PREINSTALLED``
(packages present at startup), ``STUBR_REPO`` (packages installable from
the mirror), and ``STUBR_NO_NETWORK=1`` to make installs fail.
"""

from __future__ import annotations

import os
import re
import shutil
import sys
import time

from . import rsource

LIBRARY_STATE_FILE = ".stubr-library"

_BUILTIN_OBJECTS = {"TRUE", "FALSE", "NULL", "NA", "T", "F", "Inf", "NaN"}

_GUARD_RE = re.compile(r"^if\s*\(\s*!\s*require\s*\(\s*[\"']?([A-Za-z0-9._]+)[\"']?\s*\)\s*\)\s*(.+)$")
_SETWD_RE = re.compile(r"^setwd\s*\(\s*(.+?)\s*\)$")
_LOAD_RE = re.compile(r"^(library|require)\s*\(\s*[\"']?([A-Za-z0-9._]+)[\"']?\s*[,)]")
_INSTALL_RE = re.compile(r"^install\.packages\s*\(\s*[\"']?([A-Za-z0-9._]+)[\"']?")
_SLEEP_RE = re.compile(r"^Sys\.sleep\s*\(\s*([0-9]*\.?[0-9]+)\s*\)$")
_QUIT_RE = re.compile(r"^(?:quit|q)\s*\((.*)\)$")
_STOP_RE = re.compile(r"^stop\s*\(\s*[\"'](.*?)[\"']\s*\)")
_READ_RE = re.compile(
    r"^(?:([A-Za-z.][A-Za-z0-9._]*)\s*(?:<<-|<-|=)\s*)?"
    r"(?:read\.csv2?|read\.table|read\.delim|readLines|readRDS|load|source)\s*\((.+)\)$"
)
_WRITELINES_RE = re.compile(r"^writeLines\s*\(\s*\"(.*)\"\s*,\s*\"(.+?)\"\s*\)$")
_FILECOPY_RE = re.compile(r"^file\.copy\s*\(\s*\"(.+?)\"\s*,\s*\"(.+?)\"\s*\)$")
_ASSIGN_RE = re.compile(r"^([A-Za-z.][A-Za-z0-9._]*)\s*(?:<<-|<-|=)\s*\S")
_PRINT_RE = re.compile(r"^print\s*\(\s*([A-Za-z.][A-Za-z0-9._]*)\s*\)$")
_BARE_NAME_RE = re.compile(r"^([A-Za-z.][A-Za-z0-9._]*)$")
_WRAPPED_RE = re.compile(r"^(basename|file\.path)\s*\(\s*(.+)\s*\)$")


class Halt(Exception):
    def __init__(self, status: int):
        self.status = status


def _env_set(name: str) -> set[str]:
    raw = os.environ.get(name, "")
    return {part.strip() for part in raw.split(",") if part.strip()}


class StubSession:
    def __init__(self):
        self.installed = _env_set("STUBR_PREINSTALLED")
        if os.path.isfile(LIBRARY_STATE_FILE):
            with open(LIBRARY_STATE_FILE, encoding="utf-8") as fh:
                self.installed.update(line.strip() for line in fh if line.strip())
        self.repo = _env_set("STUBR_REPO")
        self.no_network = os.environ.get("STUBR_NO_NETWORK", "") == "1"
        self.objects: set[str] = set()

    def error(self, message: str) -> None:
        print(message, file=sys.stderr)
        print("Execution halted", file=sys.stderr)
        raise Halt(1)

    # --- statement handlers -------------------------------------------------

    def eval_path_arg(self, text: str) -> str | None:
        """Resolve "p", basename("p"), file.path("p") and their nesting."""
        text = text.strip()
        m = _WRAPPED_RE.match(text)
        if m:
            inner = self.eval_path_arg(m.group(2))
            if inner is None:
                return None
            return os.path.basename(inner) if m.group(1) == "basename" else inner
        quoted = rsource.strip_quotes(text)
        return quoted

    def do_require(self, pkg: str, fatal: bool) -> bool:
        if pkg in self.installed:
            return True
        if fatal:
            self.error(f"Error in library({pkg}) : there is no package called '{pkg}'")
        print(f"Loading required package: {pkg}", file=sys.stderr)
        print(
            f"Warning message:\nIn library(package, lib.loc = lib.loc) :"
            f" there is no package called '{pkg}'",
            file=sys.stderr,
        )
        return False

    def do_install(self, pkg: str) -> None:
        if self.no_network or pkg not in self.repo:
            print(
                f"Warning message:\npackage '{pkg}' is not available (for this R version)",
                file=sys.stderr,
            )
            return
        self.installed.add(pkg)
        with open(LIBRARY_STATE_FILE, "a", encoding="utf-8") as fh:
            fh.write(pkg + "\n")

    def execute(self, stmt: str, masked: str) -> None:
        """Run one statement; ``masked`` is its string-masked twin, same indices."""
        lead = len(stmt) - len(stmt.lstrip())
        stmt = stmt.strip()
        masked = masked[lead : lead + len(stmt)]
        if not stmt:
            return

        m = _GUARD_RE.match(stmt)
        if m:
            if not self.do_require(m.group(1), fatal=False):
                # the pattern may have matched across a quote, so mask the consequent anew
                self.execute(m.group(2), rsource.mask_strings(m.group(2)))
            return

        m = _SETWD_RE.match(stmt)
        if m:
            target = self.eval_path_arg(m.group(1))
            if target is None or not os.path.isdir(target):
                shown = target if target is not None else m.group(1)
                self.error(f'Error in setwd("{shown}") : cannot change working directory')
            return

        m = _LOAD_RE.match(stmt)
        if m:
            self.do_require(m.group(2), fatal=m.group(1) == "library")
            return

        m = _INSTALL_RE.match(stmt)
        if m:
            self.do_install(m.group(1))
            return

        m = _SLEEP_RE.match(stmt)
        if m:
            time.sleep(float(m.group(1)))
            return

        m = _QUIT_RE.match(stmt)
        if m:
            status = re.search(r"status\s*=\s*(\d+)", m.group(1))
            raise Halt(int(status.group(1)) if status else 0)

        m = _STOP_RE.match(stmt)
        if m:
            self.error(f"Error: {m.group(1)}")

        m = _READ_RE.match(stmt)
        if m:
            target = m.group(1)
            arg_end = rsource.first_argument_end(masked, m.start(2), m.end(2))
            path = self.eval_path_arg(stmt[m.start(2) : arg_end])
            if path is None:
                return  # non-literal argument, treat as a no-op
            if not os.path.isfile(path):
                self.error(
                    f"Error in file(file, \"rt\") : cannot open file '{path}':"
                    f" No such file or directory"
                )
            if target:
                self.objects.add(target)
            return

        m = _WRITELINES_RE.match(stmt)
        if m:
            with open(m.group(2), "w", encoding="utf-8") as fh:
                fh.write(m.group(1) + "\n")
            return

        m = _FILECOPY_RE.match(stmt)
        if m:
            if not os.path.isfile(m.group(1)):
                self.error(
                    f"Error in file(file, \"rt\") : cannot open file '{m.group(1)}':"
                    f" No such file or directory"
                )
            shutil.copyfile(m.group(1), m.group(2))
            return

        m = _ASSIGN_RE.match(stmt)
        if m:
            self.objects.add(m.group(1))
            return

        m = _PRINT_RE.match(stmt) or _BARE_NAME_RE.match(stmt)
        if m:
            name = m.group(1)
            if name not in self.objects and name not in _BUILTIN_OBJECTS:
                self.error(f"Error: object '{name}' not found")
            return
        # everything else is accepted silently

    def run(self, script_path: str) -> int:
        with open(script_path, "rb") as fh:
            text, _ = rsource.decode(fh.read())
        try:
            for _, line, code in rsource.code_lines(rsource.split_lines(text)):
                for start, end in rsource.split_statements(code):
                    self.execute(line[start:end], code[start:end])
        except Halt as halt:
            return halt.status
        return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m reprorun.stubr SCRIPT", file=sys.stderr)
        return 2
    if not os.path.isfile(argv[0]):
        print(f"stubr: no such script: {argv[0]}", file=sys.stderr)
        return 2
    return StubSession().run(argv[0])


if __name__ == "__main__":
    sys.exit(main())
