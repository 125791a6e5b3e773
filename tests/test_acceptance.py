"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

from __future__ import annotations

import itertools
import shutil
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

from reprorun import rsource
from reprorun.cleaner import clean_text, rewrite_library_loads, rewrite_paths
from reprorun.executor import (
    Budget,
    ExecutionOutcome,
    InterpreterSpec,
    child_env,
    execute_file,
    execute_package,
    no_network_env,
    run_matrix,
)
from reprorun.metrics import analyze_package, analyze_r_file, corpus_stats
from reprorun.results import (
    aggregate_dataset,
    combine_outcomes,
    combined_results,
    compare_runs,
    success_rate,
)
from reprorun.store import RunStore

from conftest import make_demo_corpus, make_package, stub_spec

VERDICTS = ("success", "error", "tle")


@contextmanager
def criterion(name: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, f"{name} took {elapsed:.1f}s (budget {budget_seconds}s)"
    print(f"[acceptance] {name}: PASS ({elapsed:.2f}s)")


def test_c1_combination_rule_fidelity():
    with criterion("C1 combination-rule fidelity", budget_seconds=1.0):
        for triple in itertools.product(VERDICTS, repeat=3):
            if "success" in triple:
                expected = "success"
            elif "tle" in triple:
                expected = "tle"
            else:
                expected = "error"
            assert combine_outcomes(triple) == expected, triple


def test_c2_dataset_aggregation_fidelity():
    from reprorun.results import CombinedResult

    with criterion("C2 dataset-aggregation fidelity", budget_seconds=1.0):
        for size in range(1, 5):
            for verdicts in itertools.product(VERDICTS, repeat=size):
                rows = [
                    CombinedResult("p", f"f{i}.R", "cleaned", v, "other" if v == "error" else None)
                    for i, v in enumerate(verdicts)
                ]
                if "success" in verdicts:
                    expected = "success"
                elif "tle" in verdicts:
                    expected = "excluded_tle"
                else:
                    expected = "error"
                assert aggregate_dataset(rows).verdict == expected, verdicts
        assert aggregate_dataset([]).verdict == "excluded_no_results"


def _cleaner_fixture_set() -> list[bytes]:
    """20 deterministic R files covering every rewrite class."""
    fixtures = [
        b"library(dplyr)\n",
        b"require(MASS)\nx <- 1\n",
        b'setwd("/home/user/project")\nprint(1)\n',
        b'read.csv("/data/input.csv")\n',
        b'd <- read.csv(file.path("/Dropbox/my_datafile.csv"))\n',
        b'install.packages("zoo")\n',
        b"# library(commented)\nx <- 1\n",
        b'msg <- "setwd(/fake) inside a string"\n',
        b"library(a); library(b)\n",
        b'setwd("/a")\nsetwd("/b")\n',
        b"# caf\xc3\xa9 comment\ny <- 2\n",
        b"x <- 1 # caf\xe9 latin-1 tail\n",
        b'load("~/results.RData")\n',
        b'read.csv("C:\\\\data\\\\f.csv")\n',
        b'if (!require("pre")) install.packages("pre")\n',
        b"\n\n# only comments and blanks\n\n",
        b"",
        b'f <- function(p) {\n  read.csv("/abs/p.csv")\n}\n',
        b'library("quoted.pkg")\nrequire(other)\ninstall.packages("third")\n',
        b'cat("no rewrites here")\nx <- c(1, 2, 3)\n',
    ]
    assert len(fixtures) == 20
    return fixtures


def test_c3_cleaner_fidelity():
    with criterion("C3 cleaner fidelity", budget_seconds=1.0):
        guarded, _ = rewrite_library_loads("library(dplyr)\n")
        assert 'if (!require("dplyr")) install.packages("dplyr"' in guarded

        wrapped, _ = rewrite_paths('file.path("/Dropbox/my_datafile.csv")\n')
        assert wrapped == 'basename(file.path("/Dropbox/my_datafile.csv"))\n'
        literal, _ = rewrite_paths('read.csv("/data/x.csv")\n')
        assert literal == 'read.csv(basename("/data/x.csv"))\n'

        for raw in _cleaner_fixture_set():
            once, _, _ = clean_text(raw)
            assert len(once.split("\n")) == len(
                rsource.decode(raw)[0].split("\n")
            ), raw
            twice, second_actions, _ = clean_text(once.encode("utf-8"))
            assert twice == once, raw
            assert second_actions == [], raw


def test_c4_budget_enforcement(tmp_path: Path):
    with criterion("C4 budget enforcement", budget_seconds=30.0):
        workdir = tmp_path / "ws"
        workdir.mkdir()
        script = workdir / "sleep10.R"
        script.write_text("Sys.sleep(10)\n", encoding="utf-8")
        outcome = execute_file(script, stub_spec(), 2.0, workdir)
        assert outcome.verdict == "tle"
        assert outcome.wall_time <= 2.5

        manifest = make_package(
            tmp_path, "twofive",
            {"01_first.R": "Sys.sleep(5)\n", "02_second.R": "Sys.sleep(5)\n"},
        )
        outcomes = execute_package(
            manifest, [stub_spec()], Budget(3.0, 3.0), "raw", tmp_path / "scratch"
        )
        assert [o.verdict for o in outcomes] == ["tle", "unassigned"]
        assert outcomes[0].wall_time <= 3.5


def _run_demo(tmp_path: Path, jobs: int, modes: list[str], interpreters, tag: str):
    corpus = tmp_path / f"corpus-{tag}"
    manifests = make_demo_corpus(corpus)
    store = RunStore.open(tmp_path / f"store-{tag}.jsonl")
    outcomes = list(
        run_matrix(
            manifests, interpreters, Budget(1.0, 5.0), modes, store,
            tmp_path / f"scratch-{tag}", jobs=jobs,
        )
    )
    store.close()
    return outcomes, store


def test_c5_cleaning_effect_pipeline(tmp_path: Path):
    with criterion("C5 cleaning-effect pipeline", budget_seconds=60.0):
        interpreters = [stub_spec(label, repo="dplyr") for label in ("R3.2", "R3.6", "R4.0")]
        outcomes, _ = _run_demo(tmp_path, jobs=2, modes=["raw", "cleaned"],
                                interpreters=interpreters, tag="c5")
        raw = combined_results(outcomes, "raw")
        cleaned = combined_results(outcomes, "cleaned")

        raw_rate = success_rate(raw)
        cleaned_rate = success_rate(cleaned)
        assert (raw_rate.numerator, raw_rate.denominator) == (1, 4)
        assert (cleaned_rate.numerator, cleaned_rate.denominator) == (3, 4)

        effect = compare_runs(raw, cleaned)
        assert effect.fixed == 2
        assert effect.broken == 0
        assert cleaned_rate.rate > raw_rate.rate  # direction of the cleaning effect


HAND_COUNTED = (
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


def test_c6_metrics_fidelity(tmp_path: Path):
    with criterion("C6 metrics fidelity", budget_seconds=5.0):
        path = tmp_path / "hand.R"
        path.write_text(HAND_COUNTED, encoding="utf-8")
        fm = analyze_r_file(path)
        assert (fm.code_lines, fm.comment_lines, fm.blank_lines) == (8, 2, 0)
        assert fm.code_to_comment_ratio == 4.0
        assert fm.dependencies == ["ggplot2", "MASS"]
        assert fm.variable_names == ["x", "y", "fit", "z"]

        manifests = [
            make_package(tmp_path, "m1", {"one.R": "x <- 1\n" * 12, "README.txt": "doc\n",
                                          "guide notes.pdf": "%PDF\n"}),
            make_package(tmp_path, "m2", {"two.R": "library(zoo)\ny <- 2\n" * 3}),
            make_package(tmp_path, "m3", {"three.R": "z <- 3\n" * 7, "codebook.txt": "vars\n"}),
        ]
        censuses, metrics = [], []
        for manifest in manifests:
            c, fms = analyze_package(manifest)
            censuses.append(c)
            metrics.extend(fms)

        # documentation detection over the five keywords
        assert [c.has_documentation for c in censuses] == [True, False, True]
        assert censuses[0].filenames_with_spaces == 1
        # filename lengths (final extension excluded): m1 has one.R->3, README.txt->6, guide notes.pdf->11
        assert censuses[0].filename_length_stats == {
            "min": 3, "mean": (3 + 6 + 11) / 3, "median": 6, "max": 11,
        }

        summary = corpus_stats(metrics, censuses)
        assert summary["file_code_lines"]["median"] == statistics.median([12, 6, 7])
        assert summary["package_size_bytes"]["median"] == statistics.median(
            [c.total_size for c in censuses]
        )
        assert summary["package_file_count"]["median"] == statistics.median([3, 1, 2])
        assert summary["library_table"] == [("zoo", 1)] or summary["library_table"] == [["zoo", 1]]


def test_c7_orchestration_determinism(tmp_path: Path):
    with criterion("C7 orchestration determinism", budget_seconds=60.0):
        interpreters = [stub_spec(label, repo="dplyr") for label in ("R1", "R2")]
        serial, _ = _run_demo(tmp_path, jobs=1, modes=["raw"], interpreters=interpreters, tag="serial")
        parallel, _ = _run_demo(tmp_path, jobs=4, modes=["raw"], interpreters=interpreters, tag="par")
        key = lambda o: (o.package_id, o.file, o.interpreter_label, o.verdict, o.error_category)
        assert Counter(map(key, serial)) == Counter(map(key, parallel))

        # store round-trips 10^4 records losslessly
        store_path = tmp_path / "big.jsonl"
        store = RunStore.open(store_path)
        for i in range(10_000):
            store.append_outcome(
                ExecutionOutcome(
                    package_id=f"p{i % 97}", file=f"f{i}.R", interpreter_label="R1",
                    cleaning_mode="raw", verdict="success" if i % 3 else "error",
                    error_category=None if i % 3 else "other",
                    wall_time=i * 1e-4, exit_code=0 if i % 3 else 1,
                )
            )
        store.close()
        loaded = RunStore.load(store_path)
        assert len(loaded.outcomes()) == 10_000
        assert not loaded.truncated_tail

        # and survives a torn final record
        raw = store_path.read_text(encoding="utf-8")
        store_path.write_text(raw[: len(raw) - 40], encoding="utf-8")
        torn = RunStore.load(store_path)
        assert torn.truncated_tail
        assert len(torn.outcomes()) == 9_999


LIVE_R = shutil.which("Rscript")


@pytest.mark.skipif(LIVE_R is None, reason="no R interpreter installed")
def test_c8_live_r_checks(tmp_path: Path):
    with criterion("C8 live R classification", budget_seconds=120.0):
        spec = InterpreterSpec("Rlive", ("Rscript", "{script}"))
        workdir = tmp_path / "ws"
        workdir.mkdir()

        good = workdir / "good.R"
        good.write_text('cat("ok\\n")\n', encoding="utf-8")
        assert execute_file(good, spec, 60.0, workdir).verdict == "success"

        missing_lib = workdir / "lib.R"
        missing_lib.write_text("library(nonexistentpkg123)\n", encoding="utf-8")
        outcome = execute_file(missing_lib, spec, 60.0, workdir, env=child_env(spec, no_network_env()))
        assert outcome.verdict == "error"
        assert outcome.error_category == "library"

        bad_setwd = workdir / "wd.R"
        bad_setwd.write_text('setwd("/nonexistent")\n', encoding="utf-8")
        outcome = execute_file(bad_setwd, spec, 60.0, workdir)
        assert outcome.verdict == "error"
        assert outcome.error_category == "setwd"
