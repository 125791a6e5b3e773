"""Seeded corpus generator and oracle for the pipeline benchmark.

A workload name and a seed determine every byte of a corpus: the
datasets a mock Dataverse serves, the metadata overlay passed to
``ingest``, and the oracle that says what each R file must yield. The
shape of a workload (package count, files per package, behaviour-class
mix, line lengths, data sizes) and its layout are fixed per workload;
the seed varies the content, so that run cost barely depends on the seed.

Every R file belongs to one behaviour class. The class decides the
verdict under the stub interpreter in each cleaning mode; filler lines
are built to be neutral under the stub, so the class alone is the oracle.

Run as a script it writes a corpus to disk (and, for ``resume-large``,
seeds the prior interrupted run into a store template, and the same run
killed mid-unit into a second one)::

    PYTHONPATH=src python3 bench/corpus.py --workload corpus-typical --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

VERSIONS = ("R3.2", "R3.6", "R4.0")
MODES = ("raw", "cleaned")
STUB_REPO = "dplyr"
STUB_PREINSTALLED = "ggplot2,MASS,foreign"
JOURNALS = ("AJPS", "APSR", "JOP", "QJPS", "PSRM")
POLICIES = ("verified", "required", "encouraged")
SUBJECTS = ("Social Sciences", "Law", "Economics", "Political Science")

# (verdict, error category) per cleaning mode, for the stub interpreter
# with STUB_PREINSTALLED installed and STUB_REPO installable.
CLASSES: dict[str, dict[str, tuple[str, str | None]]] = {
    "success": {"raw": ("success", None), "cleaned": ("success", None)},
    "setwd": {"raw": ("error", "setwd"), "cleaned": ("success", None)},
    "library": {"raw": ("error", "library"), "cleaned": ("success", None)},
    "filepath": {"raw": ("error", "file_path_output"), "cleaned": ("success", None)},
    "object": {"raw": ("error", "object_not_found"), "cleaned": ("error", "object_not_found")},
    "tle": {"raw": ("tle", None), "cleaned": ("tle", None)},
}

# stderr the stub prints for each error category; used for seeded outcomes
STDERR_BY_CATEGORY = {
    "setwd": 'Error in setwd("/home/author/project") : cannot change working directory\nExecution halted\n',
    "library": "Error in library(dplyr) : there is no package called 'dplyr'\nExecution halted\n",
    "file_path_output": (
        "Error in file(file, \"rt\") : cannot open file '/Users/author/data.csv':"
        " No such file or directory\nExecution halted\n"
    ),
    "object_not_found": "Error: object 'results_table' not found\nExecution halted\n",
}


@dataclass
class Shape:
    """Fixed shape of a workload; the seed never changes it."""

    r_files_per_package: list[int]
    classes: dict[str, int]  # class -> number of R files
    filler_lines: tuple[int, int]  # inclusive range per R file
    data_bytes: int  # the small data file every package has
    budget_file: float
    budget_package: float
    twins: int = 1  # packages holding an L / 4L data-literal twin pair
    twin_chars: int = 2000  # L, in characters
    big_data_bytes: int = 0  # hostile-lines: one multi-MB file per package
    encoded_scripts: int = 0  # hostile-lines: latin-1 and windows-1252 scripts
    resume_mid_unit: int = 0  # resume-large: units a killed run stops mid-unit
    resume_not_started: int = 0  # resume-large: units the prior run never reached


# Figures from the source study (Trisovic et al., Sci. Data 2022): about
# 2,000 datasets with about 9,000 R files, so 4.5 R files per dataset on
# average; 74% of R files failed in the initial execution and 56% after
# code cleaning, so 26% succeed raw and another 18% succeed once cleaned.
# corpus-typical and resume-large follow these: files per package average
# 4.5 over a heavy tail, and the class mix gives 26-27% raw and 44-45%
# cleaned file success. The rest (the spread of the tail, the split of the
# cleaning-fixable errors over setwd, library and file paths, the TLE
# share, script and data sizes) is not taken from the study.
WORKLOADS: dict[str, Shape] = {
    # Study-shaped: heavy-tailed files per package, every behaviour class,
    # a small share of TLE. Child runs and the scheduling of unequal
    # packages decide `run`.
    "corpus-typical": Shape(
        r_files_per_package=[1, 2, 3, 5, 11],
        # with the two success twins: 6 success, 4 fixable, 11 object, 1 TLE of 22
        classes={"success": 4, "setwd": 2, "library": 1, "filepath": 1, "object": 11, "tle": 1},
        filler_lines=(150, 450),
        data_bytes=100_000,
        budget_file=0.8,
        budget_package=60.0,
        twins=1,
        twin_chars=2_000,
    ),
    # Long data-literal lines, non-UTF-8 scripts and multi-MB data files:
    # the lexer dominates clean, analyze and every stub child. A synthetic
    # stress shape, not a study one.
    "hostile-lines": Shape(
        r_files_per_package=[3, 3, 3, 3],
        classes={"success": 3, "setwd": 2, "library": 1, "filepath": 1, "object": 1},
        filler_lines=(20, 40),
        data_bytes=2_000,
        budget_file=20.0,
        budget_package=600.0,
        twins=2,
        twin_chars=10_000,
        big_data_bytes=6_000_000,
        encoded_scripts=8,
    ),
    # Many small packages (540 R files in 120, 6% of the study; the most
    # for which three repetitions fit a run) and a store seeded with a
    # prior interrupted run. The timed runs resume a run that stopped
    # between units; the traced run also resumes the same run killed
    # mid-unit, which the store mishandles (ROADMAP item 3).
    "resume-large": Shape(
        r_files_per_package=(
            [1] * 35 + [2] * 24 + [3] * 18 + [4] + [5] * 15 + [8] * 12 + [12] * 9 + [20] * 6
        ),
        # with the two success twins: 141 success, 97 fixable, 278 object, 24 TLE of 540
        classes={"success": 139, "setwd": 33, "library": 32, "filepath": 32, "object": 278, "tle": 24},
        filler_lines=(8, 20),
        data_bytes=300,
        budget_file=0.8,
        budget_package=60.0,
        twins=1,
        twin_chars=2_000,
        resume_mid_unit=3,
        resume_not_started=2,
    ),
}


@dataclass
class GenFile:
    name: str
    data: bytes
    klass: str | None = None  # behaviour class of an R file, None otherwise
    twin: str | None = None  # "L" or "4L" for the data-literal twin pair


@dataclass
class Dataset:
    pid: str
    title: str
    published_at: str
    subjects: list[str]
    journal: str
    policy: str
    year: str
    files: list[GenFile] = field(default_factory=list)

    def r_files(self) -> list[GenFile]:
        return sorted((f for f in self.files if f.klass is not None), key=lambda f: f.name)


@dataclass
class Corpus:
    workload: str
    seed: int
    shape: Shape
    datasets: list[Dataset]
    # resume-large: unit (pid, mode) -> number of its outcomes a prior run
    # killed mid-unit recorded; units absent here were completed
    resume_partial: dict[tuple[str, str], int] = field(default_factory=dict)


# --- content -----------------------------------------------------------------

_WORDS = (
    "estimate model panel survey wave turnout income treatment control region "
    "cohort effect robust cluster table figure appendix sample weight lag"
).split()
_SCRIPT_NAMES = (
    "clean_data", "merge_waves", "descriptives", "main_models", "robustness",
    "figures", "tables", "appendix", "simulation", "recode", "balance", "placebo",
)


class _Filler:
    """Lines that cannot change a verdict under the stub, raw or cleaned."""

    def __init__(self, rng: random.Random, data_file: str):
        self.rng = rng
        self.data_file = data_file
        self.defined: list[str] = []
        self.counter = 0

    def _name(self) -> str:
        self.counter += 1
        return f"{self.rng.choice(_WORDS)}_{self.counter}"

    def _words(self, n: int) -> str:
        return " ".join(self.rng.choice(_WORDS) for _ in range(n))

    def _nums(self, n: int) -> str:
        return ", ".join(f"{self.rng.uniform(-50, 50):.3f}" for _ in range(n))

    def block(self) -> list[str]:
        r = self.rng
        if not self.defined:
            v = self._name()
            self.defined.append(v)
            return [f"{v} <- c({self._nums(8)})"]
        u = r.choice(self.defined)
        kind = r.randrange(12)
        if kind == 0:
            return [f"# {self._words(r.randint(3, 10))}"]
        if kind == 1:
            return [""]
        if kind == 2:
            v = self._name()
            self.defined.append(v)
            return [f"{v} <- c({self._nums(r.randint(4, 16))})"]
        if kind == 3:
            v = self._name()
            self.defined.append(v)
            return [f"{v} <- mean({u}, na.rm = TRUE) * {r.uniform(0, 3):.2f}"]
        if kind == 4:
            return [f"print({u})"]
        if kind == 5:
            return [f"summary({u})"]
        if kind == 6:
            v = self._name()
            self.defined.append(v)
            return [f'{v} <- read.csv("{self.data_file}")']
        if kind == 7:
            return [f'plot({u}, main = "{self._words(3)} #{r.randint(1, 9)}")']
        if kind == 8:
            f = self._name()
            self.defined.append(f)
            return [
                f"{f} <- function(x, y = 1) {{",
                "  z <- x * y + 1",
                "  z / 2",
                "}",
            ]
        if kind == 9:
            return [
                f"for (i in seq_along({u})) {{",
                f"  {u}[i] <- {u}[i] + {r.randint(1, 9)}",
                "}",
            ]
        if kind == 10:
            v = self._name()
            self.defined.append(v)
            return [f"{v} <- lm(y ~ x + {self.rng.choice(_WORDS)}, data = {u})  # {self._words(2)}"]
        return [f"library({r.choice(STUB_PREINSTALLED.split(','))})"]

    def lines(self, n: int) -> list[str]:
        out: list[str] = []
        while len(out) < n:
            out.extend(self.block())
        return out


def _trigger(klass: str, data_file: str) -> str | None:
    if klass == "setwd":
        return 'setwd("/home/original/author/project")'
    if klass == "library":
        return "library(dplyr)"
    if klass == "filepath":
        return f'raw_input <- read.csv("/Users/jdoe/Dropbox/replication/{data_file}")'
    if klass == "object":
        return "print(results_table)"
    if klass == "tle":
        return "Sys.sleep(30)"
    return None


def _script(rng: random.Random, klass: str, n_lines: int, data_file: str) -> list[str]:
    filler = _Filler(rng, data_file)
    lines = [f"# {rng.choice(_SCRIPT_NAMES)}: {filler._words(6)}", ""] + filler.lines(n_lines)
    trigger = _trigger(klass, data_file)
    if trigger is not None:
        # setwd and library lines sit near the top, as in real scripts
        at = 2 if klass in ("setwd", "library") else rng.randint(2, len(lines))
        lines.insert(at, trigger)
    return lines


def data_literal_line(rng: random.Random, n_chars: int) -> str:
    """A dput-style data frame on one line, about n_chars long.

    String literals (factor levels) are spread at two per kB, so a line
    four times as long holds four times as many of them.
    """
    n_strings = max(1, n_chars * 2 // 1000)
    levels = ", ".join(f'"{rng.choice(_WORDS)}_{i}"' for i in range(n_strings))
    head = f"dat <- structure(list(g = c({levels}), v = c("
    tail = f'), n = {n_strings}L), class = "data.frame")'
    nums: list[str] = []
    size = len(head) + len(tail)
    while size < n_chars:
        num = f"{rng.uniform(0, 1000):.4f}"
        nums.append(num)
        size += len(num) + 2
    return head + ", ".join(nums) + tail


_LATIN1_TEXT = ("données", "résultats", "année", "échantillon", "café", "Müller", "Zürich")
_CP1252_TEXT = ("“quoted”", "‘naïve’", "cost €", "range – end")


def _encoded_script(rng: random.Random, klass: str, n_lines: int, data_file: str, codec: str) -> bytes:
    pool = _LATIN1_TEXT if codec == "latin-1" else _CP1252_TEXT
    lines = _script(rng, klass, n_lines, data_file)
    out = []
    for i, line in enumerate(lines):
        if line.startswith("#"):
            line = f"{line} {rng.choice(pool)}"
        elif i % 5 == 3 and line:
            out.append(f'label_{i} <- "{rng.choice(pool)} {rng.choice(pool)}"')
        out.append(line)
    return ("\n".join(out) + "\n").encode(codec)


def _csv(rng: random.Random, n_bytes: int) -> bytes:
    rows = ["id,x,y,group"]
    size = len(rows[0]) + 1
    i = 0
    while size < n_bytes:
        i += 1
        row = f"{i},{rng.uniform(0, 100):.5f},{rng.uniform(-1, 1):.5f},{rng.choice(_WORDS)}"
        rows.append(row)
        size += len(row) + 1
    return ("\n".join(rows) + "\n").encode()


# --- generation ----------------------------------------------------------------


def generate(workload: str, seed: int) -> Corpus:
    """The corpus of one workload and seed; identical inputs give identical corpora."""
    shape = WORKLOADS[workload]
    # The layout (package order and sizes, which file has which class and
    # length) comes from the workload alone, so that every seed costs the
    # same; the seed chooses the content.
    layout = random.Random(workload)
    rng = random.Random(f"{workload}:{seed}")
    counts = list(shape.r_files_per_package)
    classes = [k for k, n in sorted(shape.classes.items()) for _ in range(n)]
    total_scripts = sum(counts) - 2 * shape.twins
    if len(classes) != total_scripts:
        raise ValueError(f"{workload}: {len(classes)} classes for {total_scripts} scripts")
    layout.shuffle(classes)
    # twin pairs go to packages with room for two extra scripts
    twin_pkgs = set(layout.sample([i for i, c in enumerate(counts) if c >= 2], shape.twins))
    plans = []  # (twins, [(class, filler lines)]) per package
    for i, n_r in enumerate(counts):
        n_scripts = n_r - 2 * (i in twin_pkgs)
        plans.append((i in twin_pkgs, [(classes.pop(), layout.randint(*shape.filler_lines))
                                      for _ in range(n_scripts)]))
    # Packages are listed, and so submitted to the worker pool, in an order
    # fixed per workload but unrelated to their cost, as a crawl gives them.
    layout.shuffle(plans)

    encoded = shape.encoded_scripts
    datasets = []
    for i, (has_twins, scripts) in enumerate(plans):
        pid = f"doi:10.70122/FK2/{workload[:3].upper()}{seed % 100000:05d}{i:04d}"
        year = str(2012 + (i * 7 + seed) % 9)
        dataset = Dataset(
            pid=pid,
            title=f"Replication data for: {rng.choice(_WORDS)} {rng.choice(_WORDS)} ({i})",
            published_at=f"{year}-0{1 + i % 9}-15T00:00:00Z",
            subjects=sorted(rng.sample(SUBJECTS, 2)),
            journal=JOURNALS[i % len(JOURNALS)],
            policy=POLICIES[(i // len(JOURNALS)) % len(POLICIES)],
            year=year,
        )
        data_file = f"data_{i}.csv"
        dataset.files.append(GenFile(data_file, _csv(rng, shape.data_bytes)))
        dataset.files.append(GenFile("README.txt", f"Replication package {i}.\n".encode()))
        if shape.big_data_bytes:
            dataset.files.append(GenFile(f"panel_{i}.csv", _csv(rng, shape.big_data_bytes)))
        if has_twins:
            for tag, chars in (("L", shape.twin_chars), ("4L", 4 * shape.twin_chars)):
                twin_rng = random.Random(f"{workload}:{seed}:twin:{i}:{tag}")
                body = [
                    "# data frame captured with dput()",
                    data_literal_line(twin_rng, chars),
                    "print(dat)",
                ]
                dataset.files.append(
                    GenFile(f"00_dput_{tag}.R", ("\n".join(body) + "\n").encode(), "success", tag)
                )
        for j, (klass, n_lines) in enumerate(scripts):
            name = f"{j + 1:02d}_{rng.choice(_SCRIPT_NAMES)}.R"
            if encoded > 0:
                codec = "latin-1" if encoded % 2 else "cp1252"
                data = _encoded_script(rng, klass, n_lines, data_file, codec)
                encoded -= 1
            else:
                data = ("\n".join(_script(rng, klass, n_lines, data_file)) + "\n").encode()
            dataset.files.append(GenFile(name, data, klass))
        if shape.big_data_bytes:
            # one script reads the multi-MB file, so the stub opens it
            last = dataset.r_files()[-1]
            last.data += f'panel <- read.csv("panel_{i}.csv")\n'.encode()
        datasets.append(dataset)

    corpus = Corpus(workload, seed, shape, datasets)
    if shape.resume_mid_unit or shape.resume_not_started:
        _plan_resume(corpus, layout)
    return corpus


def _plan_resume(corpus: Corpus, layout: random.Random) -> None:
    """Pick the units (package x mode) the prior run left unfinished.

    Modes alternate starting with cleaned, so the ``--group-by version``
    report (cleaned mode) always covers a unit stopped mid-unit. Only
    packages of three R files without a TLE file are picked, so that the
    resumed work costs the same on every seed.
    """
    shape = corpus.shape
    eligible = [
        d for d in corpus.datasets
        if len(d.r_files()) == 3 and all(f.klass != "tle" for f in d.r_files())
    ]
    picked = layout.sample(eligible, shape.resume_mid_unit + shape.resume_not_started)
    for k, d in enumerate(picked):
        mode = MODES[(k + 1) % 2]
        # a killed run stops after the first interpreter's outcomes of the unit
        corpus.resume_partial[(d.pid, mode)] = len(d.r_files()) if k < shape.resume_mid_unit else 0


# --- oracle ------------------------------------------------------------------


def oracle(corpus: Corpus) -> dict:
    """Expected per-version verdicts of every R file, plus package metadata."""
    files = []
    packages = {}
    for d in corpus.datasets:
        packages[d.pid] = {"journal": d.journal, "policy_class": d.policy, "year": d.year}
        for f in d.r_files():
            files.append(
                {
                    "package_id": d.pid,
                    "file": f.name,
                    "class": f.klass,
                    "twin": f.twin,
                    "bytes": len(f.data),
                    **{mode: list(CLASSES[f.klass][mode]) for mode in MODES},
                }
            )
    return {
        "workload": corpus.workload,
        "seed": corpus.seed,
        "versions": list(VERSIONS),
        "modes": list(MODES),
        "packages": packages,
        "files": files,
        "total_bytes": sum(len(f.data) for d in corpus.datasets for f in d.files),
        "run": {
            "budget_file": corpus.shape.budget_file,
            "budget_package": corpus.shape.budget_package,
            "stub_repo": STUB_REPO,
            "stub_preinstalled": STUB_PREINSTALLED,
        },
        "resumed_units": sorted([pid, mode] for (pid, mode) in corpus.resume_partial),
    }


def write_corpus(corpus: Corpus, out: Path) -> None:
    """Write the served repository, the metadata overlay and the oracle under out."""
    remote = out / "remote"
    (remote / "files").mkdir(parents=True, exist_ok=True)
    index = []
    file_id = 0
    for d in corpus.datasets:
        entries = []
        for f in d.files:
            file_id += 1
            (remote / "files" / str(file_id)).write_bytes(f.data)
            entries.append(
                {"id": file_id, "name": f.name, "size": len(f.data), "md5": hashlib.md5(f.data).hexdigest()}
            )
        index.append(
            {
                "persistent_id": d.pid,
                "title": d.title,
                "published_at": d.published_at,
                "subjects": d.subjects,
                "dataverse_name": d.journal,
                "files": entries,
            }
        )
    (remote / "index.json").write_text(json.dumps(index), encoding="utf-8")
    overlay = {d.pid: {"policy_class": d.policy, "year": d.year} for d in corpus.datasets}
    (out / "metadata.json").write_text(json.dumps(overlay, sort_keys=True), encoding="utf-8")
    (out / "oracle.json").write_text(json.dumps(oracle(corpus), sort_keys=True), encoding="utf-8")


# --- prior interrupted run (resume-large) --------------------------------------


def seed_prior_run(corpus: Corpus, store_path: Path, mid_unit: bool = False) -> list[float]:
    """Write a prior run that was interrupted into a new store.

    Records go through ``RunStore.append_*`` exactly as ``run`` writes
    them. Every unit is complete except those in ``corpus.resume_partial``,
    which have no completed event. They hold no outcome, as when a run
    stops between units, unless ``mid_unit`` is set: then each stops after
    that many outcomes, as when a run is killed inside a unit.
    Returns the wall time of each ``append_outcome`` call, in seconds.
    """
    from reprorun.config import RunConfig, stub_interpreters
    from reprorun.executor import Budget, ExecutionOutcome
    from reprorun.ingest import FileEntry, PackageManifest, PackageRef
    from reprorun.store import RunStore

    shape = corpus.shape
    config = RunConfig(
        interpreters=stub_interpreters(preinstalled=STUB_PREINSTALLED, repo=STUB_REPO),
        budget=Budget(shape.budget_file, shape.budget_package),
        jobs=2,
        store_path=str(store_path),
    )
    rng = random.Random(f"{corpus.workload}:{corpus.seed}:prior")
    store = RunStore.open(store_path, config=config.snapshot(), run_id=f"prior{corpus.seed:07d}")
    append_s: list[float] = []
    try:
        for d in corpus.datasets:
            ref = PackageRef(
                persistent_id=d.pid,
                title=d.title,
                publication_date=d.published_at,
                metadata={
                    "journal": d.journal,
                    "subject": d.subjects,
                    "publisher": "Mock Dataverse",
                    "policy_class": d.policy,
                    "year": d.year,
                },
            )
            files = [FileEntry(f.name, len(f.data)) for f in d.files]
            store.append_package(PackageManifest(ref=ref, root="", files=files))
            for mode in MODES:
                limit = corpus.resume_partial.get((d.pid, mode))
                if limit is not None and not mid_unit:
                    limit = 0
                written = 0
                for version in VERSIONS:
                    for f in d.r_files():
                        if limit is not None and written >= limit:
                            break
                        verdict, category = CLASSES[f.klass][mode]
                        outcome = ExecutionOutcome(
                            package_id=d.pid,
                            file=f.name,
                            interpreter_label=version,
                            cleaning_mode=mode,
                            verdict=verdict,
                            error_category=category,
                            stderr_tail=STDERR_BY_CATEGORY.get(category, ""),
                            wall_time=shape.budget_file if verdict == "tle" else rng.uniform(0.07, 0.2),
                            exit_code={"success": 0, "error": 1}.get(verdict),
                        )
                        start = time.perf_counter()
                        store.append_outcome(outcome)
                        append_s.append(time.perf_counter() - start)
                        written += 1
                if limit is None:
                    store.append_event(d.pid, mode, "completed")
    finally:
        store.close()
    return append_s


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write the corpus into")
    parser.add_argument(
        "--prior-store", default=None,
        help="also seed a prior interrupted run into this store (needs reprorun importable)",
    )
    parser.add_argument(
        "--mid-unit-store", default=None,
        help="also seed the same prior run, killed mid-unit, into this store",
    )
    args = parser.parse_args(argv)
    corpus = generate(args.workload, args.seed)
    out = Path(args.out)
    write_corpus(corpus, out)
    if args.prior_store:
        append_s = seed_prior_run(corpus, Path(args.prior_store))
        (out / "append_s.json").write_text(json.dumps(append_s), encoding="utf-8")
    if args.mid_unit_store:
        seed_prior_run(corpus, Path(args.mid_unit_store), mid_unit=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
