"""One repetition of the five reprorun stages, in this fresh process.

Reads a JSON spec with the stage argument vectors and calls
``reprorun.cli.main`` with each, in order, exactly as a user's shell
would. Writes per-stage wall times and exit codes, the process's own CPU
time (children excluded) and its peak RSS to the spec's ``result`` path.
With ``trace`` set, layer spans are recorded and written there too.
With ``setup_probe`` set, every ``execute_file`` call records its time and
raises instead of starting a child, so a ``run`` stage stops where its
set-up ends; the time of the first call is written as ``first_child_mono``::

    PYTHONPATH=src python3 bench/pipeline.py SPEC.json
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _call(cli, argv: list[str]) -> int:
    """Exit code of one CLI invocation, as the shell would see it."""
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects a malformed argument vector
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crashing stage exits 1 with a traceback; later stages still run
        traceback.print_exc()
        return 1


class SetupProbeStop(Exception):
    """Raised in place of every child of a set-up probe."""


def _stop_before_children(executor) -> list[float]:
    """Patch ``execute_file`` at the name ``execute_package`` calls; return its call times."""
    calls: list[float] = []

    def execute_file(*args, **kwargs):
        calls.append(time.monotonic())
        raise SetupProbeStop

    executor.execute_file = execute_file
    return calls


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    from reprorun import cli

    tracer = None
    if spec.get("trace"):
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    if spec.get("setup_probe"):
        from reprorun import executor

        probe_calls = _stop_before_children(executor)

    stages = []
    cpu_start = _cpu_s()
    for name, argvs in spec["stages"]:
        start_mono = time.monotonic()
        start = time.perf_counter()
        with tracer.span(f"stage.{name}") if tracer else contextlib.nullcontext():
            codes = [_call(cli, a) for a in argvs]
        stages.append(
            {"stage": name, "start_mono": start_mono, "seconds": time.perf_counter() - start, "exit_codes": codes}
        )
    sys.stdout.flush()
    result = {
        "stages": stages,
        "cpu_s": _cpu_s() - cpu_start,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if spec.get("setup_probe"):
        result["first_child_mono"] = min(probe_calls) if probe_calls else None
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    if tracer is not None:
        Path(spec["trace"]).write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
