"""Mock Dataverse repository process for the pipeline benchmark.

Serves a corpus written by ``corpus.py`` with the test suite's
``tests/mock_dataverse.py`` (the endpoints ``ingest`` uses), over
HTTP/1.1 with keep-alive, and counts requests and connections.
``GET /_bench/stats`` answers those counts; it is not counted itself.
The bound port is written to ``--port-file`` once the server accepts
connections; SIGTERM stops it::

    python3 bench/mockrepo.py --root DIR/remote --port-file DIR/port
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from mock_dataverse import MockDataset, MockDataverse, MockFile  # noqa: E402


def load_datasets(root: Path) -> list[MockDataset]:
    """The datasets of ``index.json``, with the file bodies under ``files/``."""
    index = json.loads((root / "index.json").read_text(encoding="utf-8"))
    return [
        MockDataset(
            persistent_id=d["persistent_id"],
            title=d["title"],
            published_at=d["published_at"],
            subjects=d["subjects"],
            dataverse_name=d["dataverse_name"],
            files=[MockFile(f["name"], (root / "files" / str(f["id"])).read_bytes()) for f in d["files"]],
        )
        for d in index
    ]


def counting(handler_class):
    """The mock's handler over keep-alive connections, counting what it serves."""
    lock = threading.Lock()
    stats = {"requests": 0, "connections": 0}

    class Counting(handler_class):
        protocol_version = "HTTP/1.1"
        # headers and body go out in separate writes; with Nagle on, each
        # response would wait for the client's delayed ACK
        disable_nagle_algorithm = True

        def setup(self):
            super().setup()
            self.seen = False

        def do_GET(self):  # noqa: N802 (http.server API)
            if self.path == "/_bench/stats":
                with lock:
                    return self._send_json(dict(stats))
            with lock:
                stats["requests"] += 1
                stats["connections"] += not self.seen
            self.seen = True
            super().do_GET()

    return Counting


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", required=True, help="directory holding index.json and files/")
    parser.add_argument("--port-file", required=True, help="file to write the bound port into")
    args = parser.parse_args(argv)

    mock = MockDataverse(load_datasets(Path(args.root)))
    server = mock._server
    server.RequestHandlerClass = counting(server.RequestHandlerClass)
    server.daemon_threads = True
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    with mock:
        port_file = Path(args.port_file)
        tmp = port_file.with_suffix(".tmp")
        tmp.write_text(mock.base_url.rsplit(":", 1)[1], encoding="utf-8")
        os.replace(tmp, port_file)
        while not stop.wait(0.5):
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
