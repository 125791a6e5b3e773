"""The benchmark's traced mode still records every span its per-layer metrics read.

``bench/spans.py`` wraps reprorun's functions at the names their callers
use, so renaming or moving a call in ``src/`` can leave a span unrecorded
and break traced benchmark runs. The tracer patches modules globally, so
the traced pipeline runs in a child process.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The span names spans.layer_metrics reads.
LAYER_SPANS = (
    "ingest.fetch_many", "ingest.fetch_package", "ingest.verify_checksums", "ingest.discover_corpus",
    "metrics.analyze_r_file", "cleaner.clean_file",
    "executor.run_matrix", "executor.execute_package", "executor.execute_file",
    "store.append_outcome", "store.load", "store.open", "store.outcomes", "store.completed_runs",
    "results.overview", "results.group_report",
)

TRACED_PIPELINE = r"""
import json, sys
root, work = sys.argv[1:]
sys.path[:0] = [f"{root}/bench", f"{root}/src", f"{root}/tests"]
import spans
from mock_dataverse import MockDataset, MockDataverse, MockFile
from reprorun import cli

tracer = spans.Tracer()
spans.install(tracer)
datasets = [
    MockDataset(f"doi:10.5072/FK2/T{i}", dataverse_name=f"J{i}",
                files=[MockFile("a.R", f"x <- {i}\nprint(x)\n".encode()), MockFile("d.csv", b"1\n")])
    for i in range(2)
]
corpus, store = f"{work}/corpus", f"{work}/store.jsonl"
with MockDataverse(datasets) as mock:
    codes = [cli.main(["ingest", "--dest", corpus, "--api-base", mock.base_url, "--limit", "2", "--jobs", "2"])]
codes += [cli.main(argv) for argv in (
    ["analyze", "--corpus", corpus, "--out", f"{work}/metrics"],
    ["clean", "--corpus", corpus],
    ["run", "--corpus", corpus, "--store", store, "--stub", "--jobs", "2", "--scratch", f"{work}/scratch"],
    ["report", "--store", store, "--out", f"{work}/report"],
    ["report", "--store", store, "--out", f"{work}/report", "--group-by", "journal"],
)]
trace = tracer.dump()
spans.layer_metrics(trace)
print(json.dumps({"codes": codes, "names": sorted({s["name"] for s in trace["spans"]})}))
"""


def test_every_listed_span_is_read_by_layer_metrics():
    source = (ROOT / "bench" / "spans.py").read_text(encoding="utf-8").split("def layer_metrics", 1)[1]
    assert all(f'"{name}"' in source for name in LAYER_SPANS)


def test_traced_pipeline_records_every_layer_span(tmp_path: Path):
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_PIPELINE, str(ROOT), str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 6, proc.stdout + proc.stderr
    assert set(LAYER_SPANS) <= set(result["names"])
