from __future__ import annotations

import tracemalloc
from pathlib import Path

import pytest
from hypothesis import strategies as st

from reprorun.config import stub_interpreters
from reprorun.executor import InterpreterSpec
from reprorun.ingest import PackageManifest, load_local_package


# Lines joined from R fragments that hold quotes, '#', ';', '=', '<-' and the words the
# per-line scans look for, so literals, comments and statements cut through every scan.
R_FRAGMENT_LINES = st.lists(
    st.lists(
        st.sampled_from([
            "library", "require", "function", "install.packages", "(", ")", "{", "}", '"', "'", '"pkg"', "#", ";",
            "=", "==", "<-", "<<-", "!", ",", "$", " ", "x", "f", "\t", "f <- function (", "g = function(x) ",
        ]),
        max_size=14,
    ).map("".join),
    max_size=8,
).map("\n".join)


def stub_spec(label: str = "stubR", preinstalled: str = "", repo: str = "") -> InterpreterSpec:
    return stub_interpreters((label,), preinstalled=preinstalled, repo=repo)[0]


def traced_memory(fn) -> tuple[object, int, int]:
    """fn()'s result, the traced memory still allocated after it, and the traced peak while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def make_package(root: Path, name: str, files: dict[str, str | bytes], metadata: dict | None = None) -> PackageManifest:
    """Write a package directory under root and catalog it."""
    pkg_dir = root / name
    pkg_dir.mkdir(parents=True)
    for rel_path, content in files.items():
        path = pkg_dir / rel_path
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
    return load_local_package(pkg_dir, metadata)


# The synthetic demo corpus: one package per behavior class. The stub
# registry that matches it: nothing preinstalled, "dplyr" installable.
DEMO_PACKAGES: dict[str, dict[str, str]] = {
    "pkg-success": {
        "success.R": "x <- 42\nprint(x)\n",
        "README.md": "runs as is\n",
    },
    "pkg-setwd": {
        "analysis.R": 'setwd("/home/original/author/project")\ny <- 1\nprint(y)\n',
    },
    "pkg-library": {
        "model.R": "library(dplyr)\nz <- 2\nprint(z)\n",
    },
    "pkg-object": {
        "broken.R": "print(results_table)\n",
    },
    "pkg-tle": {
        "slow.R": "Sys.sleep(30)\n",
    },
    "pkg-multilang": {
        "analysis.do": "use data.csv\nregress y x\n",
        "README.md": "stata project\n",
        "data.csv": "y,x\n1,2\n",
    },
}

DEMO_METADATA: dict[str, dict] = {
    "pkg-success": {"journal": "JournalA", "policy_class": "verified", "year": "2017", "subject": ["social science", "law"]},
    "pkg-setwd": {"journal": "JournalA", "policy_class": "verified", "year": "2018", "subject": ["economics"]},
    "pkg-library": {"journal": "JournalB", "policy_class": "encouraged", "year": "2018", "subject": ["social science"]},
    "pkg-object": {"journal": "JournalB", "policy_class": "encouraged", "year": "2019", "subject": ["law"]},
    "pkg-tle": {"journal": "JournalB", "policy_class": "encouraged", "year": "2019", "subject": ["economics"]},
    "pkg-multilang": {"journal": "JournalA", "policy_class": "verified", "year": "2017", "subject": ["social science"]},
}


def make_demo_corpus(root: Path) -> list[PackageManifest]:
    return [
        make_package(root, name, files, dict(DEMO_METADATA[name]))
        for name, files in DEMO_PACKAGES.items()
    ]


@pytest.fixture
def demo_corpus(tmp_path: Path) -> list[PackageManifest]:
    return make_demo_corpus(tmp_path / "corpus")
