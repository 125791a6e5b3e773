from __future__ import annotations

import dataclasses
import os
from pathlib import Path

import pytest

import reprorun
from reprorun.config import ConfigError, RunConfig, load_config, stub_interpreters
from reprorun.executor import VERDICT_SUCCESS, Budget, execute_file

INI = """
[run]
api_base = http://repo.example.org
jobs = 3
per_file_seconds = 120
per_package_seconds = 600
modes = raw
network_allowed = false
cran_mirror = https://cloud.r-project.org
store = out/store.jsonl
scratch_root = tmp/scratch

[interpreter.R3.6]
command = /opt/R/3.6.0/bin/Rscript --vanilla {script}
release_date = 2019-04
env.R_LIBS_USER = /opt/libs/3.6

[interpreter.R4.0]
command = Rscript {script}
"""


def test_load_config_full(tmp_path: Path):
    path = tmp_path / "run.ini"
    path.write_text(INI, encoding="utf-8")
    config = load_config(path)
    assert config.jobs == 3
    assert config.budget == Budget(120, 600)
    assert config.modes == ["raw"]
    assert config.network_allowed is False
    assert config.cran_mirror == "https://cloud.r-project.org"
    assert config.store_path == "out/store.jsonl"
    assert [i.label for i in config.interpreters] == ["R3.6", "R4.0"]
    r36 = config.interpreters[0]
    assert r36.launch_command == ("/opt/R/3.6.0/bin/Rscript", "--vanilla", "{script}")
    assert r36.env == {"R_LIBS_USER": "/opt/libs/3.6"}
    assert r36.release_date == "2019-04"


def test_defaults_mirror_study_setup():
    config = RunConfig()
    assert config.budget == Budget(3600.0, 18000.0)
    assert [i.label for i in config.interpreters] == ["R3.2", "R3.6", "R4.0"]
    assert config.modes == ["raw", "cleaned"]
    assert config.cran_mirror == "http://cran.us.r-project.org"


def test_bad_mode_rejected(tmp_path: Path):
    path = tmp_path / "bad.ini"
    path.write_text("[run]\nmodes = raw, polished\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


def test_interpreter_without_command_rejected(tmp_path: Path):
    path = tmp_path / "bad.ini"
    path.write_text("[interpreter.RX]\nrelease_date = 2020-01\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


def test_invalid_budget_rejected(tmp_path: Path):
    path = tmp_path / "bad.ini"
    path.write_text("[run]\nper_file_seconds = 100\nper_package_seconds = 10\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


def test_percent_in_ini_value_is_literal(tmp_path: Path):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nstore = runs/100%/s.jsonl\n", encoding="utf-8")
    assert load_config(path).store_path == "runs/100%/s.jsonl"


def test_ini_without_section_header_is_config_error(tmp_path: Path):
    path = tmp_path / "bad.ini"
    path.write_text("jobs = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="no section headers"):
        load_config(path)


def test_missing_config_file(tmp_path: Path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.ini")


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(jobs=0)
    with pytest.raises(ValueError):
        RunConfig(modes=[])


def test_flags_lay_over_the_config_file(tmp_path: Path):
    path = tmp_path / "run.ini"
    path.write_text(INI, encoding="utf-8")
    config = load_config(path, jobs=5, per_package_seconds=900.0, store_path="elsewhere.jsonl", modes=None)
    assert (config.jobs, config.budget, config.store_path) == (5, Budget(120, 900), "elsewhere.jsonl")
    assert config.modes == ["raw"]  # a flag that is None sets nothing
    assert load_config(path, store_path="", scratch_root="").store_path == "out/store.jsonl"  # nor does an empty one
    assert load_config().snapshot() == RunConfig().snapshot()


def test_run_config_is_frozen():
    config = RunConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.jobs = 0


def test_stub_interpreters_share_registry():
    specs = stub_interpreters(preinstalled="base", repo="dplyr,zoo")
    assert [s.label for s in specs] == ["R3.2", "R3.6", "R4.0"]
    assert all("{script}" in s.launch_command for s in specs)
    assert all(s.env["STUBR_REPO"] == "dplyr,zoo" for s in specs)
    for spec in specs:
        first = Path(spec.env["PYTHONPATH"].split(os.pathsep)[0])
        assert first.is_absolute()
        assert (first / "reprorun" / "__init__.py").is_file()


def test_stub_starts_when_pythonpath_is_relative_to_caller_cwd(tmp_path: Path, monkeypatch):
    # as when the suite runs from a checkout with PYTHONPATH=src: the entry
    # resolves from the caller's cwd but not from the child's workspace
    import_root = Path(reprorun.__file__).resolve().parent.parent
    monkeypatch.chdir(import_root.parent)
    monkeypatch.setenv("PYTHONPATH", import_root.name)
    workdir = tmp_path / "workspace"
    workdir.mkdir()
    script = workdir / "trivial.R"
    script.write_text("x <- 1\nprint(x)\n", encoding="utf-8")
    outcome = execute_file(script, stub_interpreters(("R4.0",))[0], 30.0, workdir)
    assert outcome.verdict == VERDICT_SUCCESS, outcome.stderr_tail


def test_snapshot_is_json_ready():
    import json

    snapshot = RunConfig().snapshot()
    json.dumps(snapshot)
    assert snapshot["per_file_seconds"] == 3600.0
    assert len(snapshot["interpreters"]) == 3
    assert "api_base" not in snapshot and "query" not in snapshot  # run reads neither
