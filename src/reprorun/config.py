"""Run configuration with built-in defaults mirroring the study setup.

Defaults: one hour per file and five hours per package, a three-version
R interpreter matrix, both cleaning modes, and the US CRAN mirror.
Precedence is CLI flag > config file > these defaults. The config file
is plain INI: a ``[run]`` section plus one ``[interpreter.<label>]``
section per interpreter.
"""

from __future__ import annotations

import configparser
import os
import shlex
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .cleaner import DEFAULT_CRAN_MIRROR
from .executor import MODE_CLEANED, MODE_RAW, Budget, InterpreterSpec, validate_interpreters

DEFAULT_API_BASE = "https://dataverse.harvard.edu"
DEFAULT_QUERY = 'fileContentType:"type/x-r-syntax"'

# Matrix labels and release dates of the study; point the commands at the
# actual installations (or containers) of each version in your config file.
DEFAULT_INTERPRETERS = [
    InterpreterSpec("R3.2", ("Rscript", "{script}"), release_date="2015-06"),
    InterpreterSpec("R3.6", ("Rscript", "{script}"), release_date="2019-04"),
    InterpreterSpec("R4.0", ("Rscript", "{script}"), release_date="2020-06"),
]


def stub_interpreters(
    labels: tuple[str, ...] = ("R3.2", "R3.6", "R4.0"),
    preinstalled: str = "",
    repo: str = "",
) -> list[InterpreterSpec]:
    """Interpreter matrix backed by the scripted stub (demo and test mode).

    The child runs with the workspace as its working directory, where a
    relative ``PYTHONPATH`` entry (such as ``src`` from a checkout) no
    longer resolves. So each spec's env overlay puts the absolute import
    root of ``reprorun`` first on ``PYTHONPATH``, followed by the caller's
    own entries; the stub then starts without an installed package.
    """
    command = (sys.executable, "-m", "reprorun.stubr", "{script}")
    import_root = str(Path(__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(p for p in (import_root, os.environ.get("PYTHONPATH")) if p)
    return [
        InterpreterSpec(
            label,
            command,
            env={"STUBR_PREINSTALLED": preinstalled, "STUBR_REPO": repo, "PYTHONPATH": pythonpath},
        )
        for label in labels
    ]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """The settings of one run; built once and checked once, here, whatever their source."""

    interpreters: list[InterpreterSpec] = field(default_factory=lambda: list(DEFAULT_INTERPRETERS))
    budget: Budget = field(default_factory=Budget)
    modes: list[str] = field(default_factory=lambda: [MODE_RAW, MODE_CLEANED])
    jobs: int = 1
    store_path: str = "runs/store.jsonl"
    scratch_root: str = "scratch"
    network_allowed: bool = True
    cran_mirror: str = DEFAULT_CRAN_MIRROR

    def __post_init__(self):
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if not self.modes:
            raise ConfigError("at least one cleaning mode is required")
        for i, mode in enumerate(self.modes):
            if mode not in (MODE_RAW, MODE_CLEANED):
                raise ConfigError(f"unknown cleaning mode {mode!r}")
            if mode in self.modes[:i]:
                raise ConfigError(f"cleaning mode {mode!r} listed twice")
        validate_interpreters(self.interpreters)

    def snapshot(self) -> dict:
        """JSON-ready view stored alongside the run's outcomes."""
        return {
            "interpreters": [
                {
                    "label": spec.label,
                    "launch_command": list(spec.launch_command),
                    "release_date": spec.release_date,
                }
                for spec in self.interpreters
            ],
            "per_file_seconds": self.budget.per_file,
            "per_package_seconds": self.budget.per_package,
            "modes": self.modes,
            "jobs": self.jobs,
            "network_allowed": self.network_allowed,
            "cran_mirror": self.cran_mirror,
        }


# [run] options and the ConfigParser getter that reads each; other options are ignored
_RUN_OPTIONS = {
    "jobs": "getint",
    "per_file_seconds": "getfloat",
    "per_package_seconds": "getfloat",
    "modes": "get",
    "network_allowed": "getboolean",
    "cran_mirror": "get",
    "store": "get",
    "scratch_root": "get",
}


def _read_ini(path: Path | str) -> dict:
    """Option values of the ``[run]`` and ``[interpreter.*]`` sections, keyed as ``load_config`` flags."""
    parser = configparser.ConfigParser(interpolation=None)  # a '%' in a path is literal
    parser.optionxform = str  # preserve case for env overlay keys
    try:
        read = parser.read(str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")

    values = {}
    if parser.has_section("run"):
        run = parser["run"]
        values = {option: getattr(run, getter)(option) for option, getter in _RUN_OPTIONS.items() if option in run}
        if "store" in values:
            values["store_path"] = values.pop("store")

    for section in parser.sections():
        if not section.startswith("interpreter."):
            continue
        label = section.removeprefix("interpreter.")
        options = parser[section]
        if "command" not in options:
            raise ConfigError(f"interpreter {label!r} has no command")
        env = {
            key.removeprefix("env."): value
            for key, value in options.items()
            if key.startswith("env.")
        }
        values.setdefault("interpreters", []).append(
            InterpreterSpec(
                label=label,
                launch_command=tuple(shlex.split(options["command"])),
                release_date=options.get("release_date"),
                env=env,
            )
        )
    return values


def load_config(path: Path | str | None = None, **flags) -> RunConfig:
    """Build the run configuration once: built-in defaults, then the INI file, then the flags.

    ``flags`` are keyed like the ``[run]`` options (``store_path`` for
    ``store``), plus ``interpreters``; a flag that is None or "" is not set.
    ``modes`` is a comma-separated string from either source.
    """
    try:
        values = _read_ini(path) if path else {}
        values.update((key, value) for key, value in flags.items() if value not in (None, ""))
        if "modes" in values:
            values["modes"] = [m.strip() for m in values["modes"].split(",") if m.strip()]
        budget = Budget(
            values.pop("per_file_seconds", Budget.per_file),
            values.pop("per_package_seconds", Budget.per_package),
        )
    except ConfigError:
        raise
    except ValueError as exc:  # an INI number or boolean that does not parse, or a budget Budget rejects
        raise ConfigError(str(exc)) from exc
    return RunConfig(budget=budget, **values)
