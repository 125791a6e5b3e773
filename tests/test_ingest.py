from __future__ import annotations

import hashlib
import json
import os
import re
import socket
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from reprorun.ingest import (
    CorpusError,
    DataverseClient,
    IngestError,
    PackageManifest,
    PackageRef,
    fetch_many,
    fetch_package,
    list_packages,
    load_local_package,
    load_manifest,
    package_slug,
    save_manifest,
    verify_checksums,
)
from mock_dataverse import MockDataset, MockDataverse, MockFile

from conftest import make_package


def fixture_corpus() -> list[MockDataset]:
    """12 datasets, 10 of which contain at least one .R file."""
    datasets = []
    for i in range(10):
        datasets.append(
            MockDataset(
                persistent_id=f"doi:10.5072/FK2/R{i:03d}",
                title=f"R study {i}",
                subjects=["Social Sciences"],
                dataverse_name="JournalA" if i % 2 else "JournalB",
                files=[
                    MockFile(f"analysis_{i}.R", f"x <- {i}\nprint(x)\n".encode()),
                    MockFile("data.csv", b"a,b\n1,2\n"),
                ],
            )
        )
    datasets.append(
        MockDataset(persistent_id="doi:10.5072/FK2/NORCODE1", title="stata only",
                    files=[MockFile("model.do", b"regress y x\n")])
    )
    datasets.append(
        MockDataset(persistent_id="doi:10.5072/FK2/NORCODE2", title="data only",
                    files=[MockFile("data.csv", b"1,2\n")])
    )
    return datasets


@pytest.fixture(scope="module")
def server():
    with MockDataverse(fixture_corpus()) as mock:
        yield mock


def test_list_packages_filters_r_code(server):
    refs = list_packages(server.base_url, "fileName:*.R", limit=10)
    assert len(refs) == 10
    assert all(ref.persistent_id.startswith("doi:") for ref in refs)
    assert all("R" in ref.persistent_id for ref in refs)


def test_list_packages_zero_limit(server):
    assert list_packages(server.base_url, "fileName:*.R", limit=0) == []


def test_list_packages_paginates_internally(server, monkeypatch):
    client = DataverseClient(server.base_url)
    calls = []
    original = client.search

    def spy(query, start, per_page):
        calls.append(start)
        return original(query, start=start, per_page=min(per_page, 3))

    monkeypatch.setattr(client, "search", spy)
    refs = list_packages(server.base_url, "fileName:*.R", limit=10, client=client)
    assert len(refs) == 10
    assert len(calls) > 1  # needed several pages


def test_list_packages_metadata_mapping(server):
    refs = list_packages(server.base_url, "*", limit=12)
    assert len(refs) == 12
    ref = refs[0]
    assert ref.metadata["journal"] in ("JournalA", "JournalB", "Root")
    assert ref.title


def test_list_packages_network_failure_is_retryable_error():
    from reprorun.ingest import NetworkError

    client = DataverseClient("http://127.0.0.1:1", retries=2, backoff=0.01, timeout=0.3)
    with pytest.raises(NetworkError):
        list_packages("http://127.0.0.1:1", "*", limit=3, client=client)


def test_fetch_package_all_files_verified(server, tmp_path: Path):
    client = DataverseClient(server.base_url)
    refs = list_packages(server.base_url, "fileName:*.R", limit=1, client=client)
    manifest = fetch_package(refs[0], tmp_path, client)
    assert manifest.fetch_status == "ok"
    assert len(manifest.files) == 2
    verify_checksums(manifest)
    assert all(e.verified == "ok" for e in manifest.files)
    # round trip through JSON keeps the stable field names
    save_manifest(manifest, tmp_path / "m.json")
    loaded = load_manifest(tmp_path / "m.json")
    assert loaded.to_dict() == manifest.to_dict()
    raw = (tmp_path / "m.json").read_text()
    for field in ("persistent_id", "relative_path", "checksum", "verified", "fetch_status"):
        assert field in raw


def test_fetch_then_local_catalog_identical_file_sets(server, tmp_path: Path):
    client = DataverseClient(server.base_url)
    refs = list_packages(server.base_url, "fileName:*.R", limit=2, client=client)
    manifest = fetch_package(refs[1], tmp_path, client)
    local = load_local_package(manifest.root)
    fetched_set = {(e.relative_path, e.size) for e in manifest.files}
    local_set = {(e.relative_path, e.size) for e in local.files}
    assert fetched_set == local_set


def test_restricted_file_fails_package_with_authorization(tmp_path: Path):
    datasets = [
        MockDataset(
            persistent_id="doi:10.5072/FK2/RESTR1",
            files=[
                MockFile("open.R", b"x <- 1\n"),
                MockFile("secret.csv", b"classified", restricted=True),
            ],
        )
    ]
    with MockDataverse(datasets) as mock:
        client = DataverseClient(mock.base_url)
        refs = list_packages(mock.base_url, "*", limit=5, client=client)
        assert len(refs) == 1  # restricted datasets still listed
        manifest = fetch_package(refs[0], tmp_path, client)
    assert manifest.fetch_status == "failed"
    assert manifest.failure_reason == "authorization"


def test_restricted_listing_fails_package(tmp_path: Path):
    datasets = [
        MockDataset(
            persistent_id="doi:10.5072/FK2/RESTR2",
            restricted=True,
            files=[MockFile("a.R", b"x\n")],
        )
    ]
    with MockDataverse(datasets) as mock:
        client = DataverseClient(mock.base_url)
        manifest = fetch_package(
            list_packages(mock.base_url, "*", limit=1, client=client)[0], tmp_path, client
        )
    assert manifest.fetch_status == "failed"
    assert manifest.failure_reason == "authorization"
    assert manifest.files == []


def test_failed_download_marks_partial(tmp_path: Path):
    datasets = [
        MockDataset(
            persistent_id="doi:10.5072/FK2/FLAKY",
            files=[
                MockFile("good.R", b"x <- 1\n"),
                MockFile("bad.bin", b"....", fail_download=True),
            ],
        )
    ]
    with MockDataverse(datasets) as mock:
        client = DataverseClient(mock.base_url, retries=2, backoff=0.01)
        manifest = fetch_package(
            list_packages(mock.base_url, "*", limit=1, client=client)[0], tmp_path, client
        )
    assert manifest.fetch_status == "partial"
    errors = [e for e in manifest.files if e.error]
    assert len(errors) == 1 and errors[0].relative_path == "bad.bin"


def test_zero_file_dataset_ok(tmp_path: Path):
    datasets = [MockDataset(persistent_id="doi:10.5072/FK2/EMPTY")]
    with MockDataverse(datasets) as mock:
        client = DataverseClient(mock.base_url)
        manifest = fetch_package(
            list_packages(mock.base_url, "*", limit=1, client=client)[0], tmp_path, client
        )
    assert manifest.fetch_status == "ok"
    assert manifest.files == []


def test_name_collision_suffixed_and_recorded(tmp_path: Path):
    datasets = [
        MockDataset(
            persistent_id="doi:10.5072/FK2/COLLIDE",
            files=[
                MockFile("run.R", b"x <- 1\n", directory_label="code"),
                MockFile("run.R", b"y <- 2\n", directory_label="replication"),
                MockFile("run.R", b"z <- 3\n"),
            ],
        )
    ]
    with MockDataverse(datasets) as mock:
        client = DataverseClient(mock.base_url)
        manifest = fetch_package(
            list_packages(mock.base_url, "*", limit=1, client=client)[0], tmp_path, client
        )
    assert [(e.relative_path, e.original_label) for e in manifest.files] == [
        ("run.R", "code/run.R"), ("run_1.R", "replication/run.R"), ("run_2.R", "run.R"),
    ]
    verify_checksums(manifest)
    assert all(e.verified == "ok" for e in manifest.files)


def test_file_labelled_as_a_directory_is_saved_under_its_id(tmp_path: Path):
    datasets = [
        MockDataset(
            persistent_id="doi:10.5072/FK2/DOTS",
            files=[MockFile(".", b"dot\n"), MockFile("..", b"dotdot\n"), MockFile("...", b"dots\n")],
        )
    ]
    with MockDataverse(datasets) as mock:
        client = DataverseClient(mock.base_url)
        manifest = fetch_package(list_packages(mock.base_url, "*", limit=1, client=client)[0], tmp_path, client)
    assert manifest.fetch_status == "ok"
    assert [(e.relative_path, e.original_label, e.verified) for e in manifest.files] == [
        ("file-1", ".", "ok"), ("file-2", "..", "ok"), ("...", None, "ok"),
    ]
    root = Path(manifest.root)
    assert [(root / e.relative_path).read_bytes() for e in manifest.files] == [b"dot\n", b"dotdot\n", b"dots\n"]
    save_manifest(manifest, tmp_path / "m.json")
    assert load_manifest(tmp_path / "m.json") == manifest  # a name of dots alone stays inside the package


class ListingClient:
    """A client that lists the given file items and downloads each file id as its own bytes."""

    def __init__(self, items: list[dict]):
        self.items = items

    def dataset_files(self, persistent_id: str) -> list[dict]:
        return self.items

    def download_file(self, file_id: int, dest: Path) -> None:
        dest.write_bytes(f"file {file_id}\n".encode())


def test_file_items_of_other_shapes(tmp_path: Path):
    md5 = hashlib.md5(b"file 1\n").hexdigest()
    items = [
        {"label": "old.R", "dataFile": {"id": 1, "md5": md5}},
        {"label": "new.R", "dataFile": {"id": 2, "checksum": {"type": "SHA-3", "value": "ab"}}},
        {"label": "lost.R", "dataFile": {"filename": "lost.R"}},
    ]
    ref = PackageRef("doi:10.5072/FK2/SHAPES")
    stale = tmp_path / package_slug(ref.persistent_id) / "lost.R"
    stale.parent.mkdir()
    stale.write_text("from an earlier fetch\n", encoding="utf-8")
    manifest = fetch_package(ref, tmp_path, ListingClient(items))
    old, new, lost = manifest.files
    assert (old.checksum, old.verified) == ({"algorithm": "MD5", "value": md5}, "ok")
    assert (new.verified, new.error) == ("mismatch", "unsupported checksum algorithm 'SHA-3'")
    assert (lost.verified, lost.error) == ("unchecked", "file item has no dataFile.id")
    assert not (Path(manifest.root) / "lost.R").exists()
    assert manifest.unfetched() == {"lost.R"}
    assert manifest.fetch_status == "partial"


def test_fetch_many_concurrent_produces_all_manifests(server, tmp_path: Path):
    refs = list_packages(server.base_url, "fileName:*.R", limit=6)
    manifests = fetch_many(refs, tmp_path, lambda: DataverseClient(server.base_url), jobs=3)
    assert len(manifests) == 6
    assert {m.ref.persistent_id for m in manifests} == {r.persistent_id for r in refs}
    assert all(m.fetch_status == "ok" for m in manifests)


def test_failed_file_listing_fails_that_package_only(tmp_path: Path):
    unknown = PackageRef("doi:10.5072/FK2/UNKNOWN", title="not served")
    with MockDataverse(fixture_corpus()[:3]) as mock:
        refs = list_packages(mock.base_url, "*", limit=3) + [unknown]
        manifests = fetch_many(
            refs, tmp_path, lambda: DataverseClient(mock.base_url, retries=2, backoff=0.01), jobs=2
        )
    assert len(manifests) == 4
    assert sorted(m.fetch_status for m in manifests) == ["failed", "ok", "ok", "ok"]
    (failed,) = [m for m in manifests if m.fetch_status == "failed"]
    assert failed.ref.persistent_id == unknown.persistent_id
    assert failed.failure_reason.startswith("file listing: ") and "404" in failed.failure_reason
    assert failed.files == []


def test_fetch_many_reuses_one_client_per_worker(server, tmp_path: Path):
    refs = list_packages(server.base_url, "fileName:*.R", limit=8)
    made: list[DataverseClient] = []
    closed: list[DataverseClient] = []

    class CountingClient(DataverseClient):
        def close(self) -> None:
            closed.append(self)
            super().close()

    def make_client() -> DataverseClient:
        made.append(CountingClient(server.base_url))
        return made[-1]

    manifests = fetch_many(refs, tmp_path / "many", make_client, jobs=3)
    assert 1 <= len(made) <= 3
    assert sorted(map(id, closed)) == sorted(map(id, made))

    def comparable(manifest) -> dict:
        data = manifest.to_dict()
        del data["root"], data["fetched_at"]
        return data

    # one fresh client per package, as fetch_many used to do
    expected = [fetch_package(ref, tmp_path / "one", DataverseClient(server.base_url)) for ref in refs]
    assert [comparable(m) for m in manifests] == [comparable(m) for m in expected]
    for got, want in zip(manifests, expected):
        for entry in got.files:
            assert (Path(got.root) / entry.relative_path).read_bytes() == (
                Path(want.root) / entry.relative_path
            ).read_bytes()


@pytest.fixture
def proxy_env(monkeypatch):
    for name in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY", "no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:9")  # nothing listens on the discard port
    return monkeypatch


def test_api_host_honours_environment_proxy(server, proxy_env):
    from reprorun.ingest import NetworkError

    client = DataverseClient(server.base_url, retries=1, backoff=0.0, timeout=2.0)
    with pytest.raises(NetworkError):
        list_packages(server.base_url, "*", limit=3, client=client)


def test_api_host_honours_environment_no_proxy(server, proxy_env):
    proxy_env.setenv("NO_PROXY", "127.0.0.1")
    client = DataverseClient(server.base_url, retries=1, backoff=0.0, timeout=2.0)
    assert len(list_packages(server.base_url, "*", limit=3, client=client)) == 3


def test_corrupt_byte_yields_checksum_mismatch(tmp_path: Path):
    datasets = [
        MockDataset(
            persistent_id="doi:10.5072/FK2/CKSUM",
            files=[MockFile("a.R", b"x <- 1\n", corrupt_checksum=True)],
        )
    ]
    with MockDataverse(datasets) as mock:
        client = DataverseClient(mock.base_url)
        manifest = fetch_package(
            list_packages(mock.base_url, "*", limit=1, client=client)[0], tmp_path, client
        )
    verify_checksums(manifest)
    assert manifest.files[0].verified == "mismatch"


def test_verify_checksums_idempotent(tmp_path: Path):
    datasets = [
        MockDataset(persistent_id="doi:10.5072/FK2/IDEM", files=[MockFile("a.R", b"x <- 1\n")])
    ]
    with MockDataverse(datasets) as mock:
        client = DataverseClient(mock.base_url)
        manifest = fetch_package(
            list_packages(mock.base_url, "*", limit=1, client=client)[0], tmp_path, client
        )
    once = verify_checksums(manifest).to_dict()
    twice = verify_checksums(manifest).to_dict()
    assert once == twice


def test_verify_unreadable_file_is_mismatch_with_reason(tmp_path: Path):
    datasets = [
        MockDataset(persistent_id="doi:10.5072/FK2/GONE", files=[MockFile("a.R", b"x <- 1\n")])
    ]
    with MockDataverse(datasets) as mock:
        client = DataverseClient(mock.base_url)
        manifest = fetch_package(
            list_packages(mock.base_url, "*", limit=1, client=client)[0], tmp_path, client
        )
    os.unlink(Path(manifest.root) / "a.R")
    verify_checksums(manifest)
    assert manifest.files[0].verified == "mismatch"
    assert "unreadable" in manifest.files[0].error


def test_verify_keeps_the_reason_a_download_failed(tmp_path: Path):
    datasets = [
        MockDataset(
            persistent_id="doi:10.5072/FK2/LOST",
            files=[
                MockFile("a.R", b"x <- 1\n"),
                MockFile("b.R", b"y <- 2\n", fail_download=True),
                MockFile("c.R", b"z <- 3\n", restricted=True),
            ],
        )
    ]
    with MockDataverse(datasets) as mock:
        client = DataverseClient(mock.base_url, retries=2, backoff=0.01)
        manifest = fetch_package(list_packages(mock.base_url, "*", limit=1, client=client)[0], tmp_path, client)
    reasons = {e.relative_path: e.error for e in manifest.files if e.error}
    assert set(reasons) == {"b.R", "c.R"}
    verify_checksums(manifest)
    entries = {e.relative_path: e for e in manifest.files}
    assert {path: entries[path].error for path in reasons} == reasons
    assert "unreadable" not in str(reasons)
    assert [entries[p].verified for p in ("a.R", "b.R", "c.R")] == ["ok", "unchecked", "unchecked"]


# --- local packages -------------------------------------------------------------


def test_local_package_three_entries(tmp_path: Path):
    manifest = make_package(
        tmp_path, "loc", {"a.R": "x\n", "b.R": "y\n", "README": "hi\n"}
    )
    assert len(manifest.files) == 3
    assert all(e.verified == "unchecked" for e in manifest.files)
    assert all(e.checksum is None for e in manifest.files)


def test_local_empty_directory(tmp_path: Path):
    (tmp_path / "empty").mkdir()
    manifest = load_local_package(tmp_path / "empty")
    assert manifest.files == []
    assert manifest.fetch_status == "ok"


def test_local_nested_structure_matches_walk(tmp_path: Path):
    manifest = make_package(
        tmp_path,
        "nested",
        {"top.R": "1\n", "code/deep.R": "2\n", "code/data/d.csv": "3\n"},
    )
    expected = set()
    for dirpath, _, filenames in os.walk(tmp_path / "nested"):
        for filename in filenames:
            full = Path(dirpath) / filename
            expected.add(str(full.relative_to(tmp_path / "nested")))
    assert {e.relative_path for e in manifest.files} == expected


def test_local_missing_directory_fatal(tmp_path: Path):
    with pytest.raises(IngestError):
        load_local_package(tmp_path / "missing")


def test_save_manifest_key_order_and_round_trip(tmp_path: Path):
    manifest = make_package(tmp_path, "keys", {"a.R": "1\n"}, {"journal": "J"})
    manifest.files[0].checksum = {"algorithm": "MD5", "value": "abc"}
    manifest.files[0].error = "HTTP 500"
    path = tmp_path / "m.json"
    save_manifest(manifest, path)
    data = json.loads(path.read_text(encoding="utf-8"))
    assert list(data) == [
        "persistent_id", "title", "publication_date", "metadata",
        "root", "fetched_at", "fetch_status", "failure_reason", "files",
    ]
    assert list(data["files"][0]) == [
        "relative_path", "size", "checksum", "verified", "error", "original_label",
    ]
    assert load_manifest(path) == manifest


def test_failed_manifest_write_keeps_the_previous_manifest(tmp_path: Path, monkeypatch):
    manifest = make_package(tmp_path, "pkg", {"a.R": "1\n"})
    path = tmp_path / "m.json"
    save_manifest(manifest, path)
    before = path.read_bytes()
    real_write_text = Path.write_text

    def write_half_then_fail(self, data, *args, **kwargs):
        real_write_text(self, data[: len(data) // 2], *args, **kwargs)
        raise OSError(28, "No space left on device")

    manifest.ref.title = "changed"
    monkeypatch.setattr(Path, "write_text", write_half_then_fail)
    with pytest.raises(OSError, match="No space"):
        save_manifest(manifest, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json", "pkg"]


def test_manifest_from_dict_defaults_and_required_keys():
    assert PackageManifest.from_dict({"persistent_id": "x", "root": "/r"}) == PackageManifest(
        ref=PackageRef("x"), root="/r"
    )
    with pytest.raises(KeyError):
        PackageManifest.from_dict({"persistent_id": "x"})
    with pytest.raises(KeyError):
        PackageManifest.from_dict({"persistent_id": "x", "root": "/r", "files": [{"size": 1}]})


@pytest.mark.parametrize("relative_path", ["", ".", "/abs/victim.R", "../escaped.R", "code/../../escaped.R"])
def test_manifest_path_that_leaves_its_package_is_refused(tmp_path: Path, relative_path: str):
    manifest = make_package(tmp_path, "pkg", {"a.R": "1\n"})
    data = manifest.to_dict()
    data["files"].append({"relative_path": relative_path})
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(CorpusError, match=f"manifest {re.escape(str(path))}: file path {re.escape(repr(relative_path))}"):
        load_manifest(path)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("persistent_id", 5, "persistent_id is not a string"),
        ("root", 5, "root is not a string"),
        ("fetch_status", None, "fetch_status is not a string"),
        ("size", "7", "file 'a.R' has a size that is not an integer"),
        ("publication_date", 2019, "publication_date is neither a string nor null"),
    ],
)
def test_manifest_field_a_stage_cannot_read_is_refused(tmp_path: Path, field: str, value, message: str):
    data = make_package(tmp_path, "pkg", {"a.R": "1\n"}).to_dict()
    if field == "size":
        data["files"][0]["size"] = value
    else:
        data[field] = value
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(CorpusError, match=f"manifest {re.escape(str(path))}: {re.escape(message)}"):
        load_manifest(path)


def test_package_slug():
    assert package_slug("doi:10.5072/FK2/ABC") == "10.5072_FK2_ABC"
    assert package_slug("local:my pkg") == "local_my_pkg"


def test_malformed_api_response_is_fatal_parse_error():
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
    import threading

    from reprorun.ingest import ApiFormatError

    class BadHandler(BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def do_GET(self):  # noqa: N802
            body = b"<html>surprise, not json</html>"
            self.send_response(200)
            self.send_header("Content-Type", "text/html")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    server = ThreadingHTTPServer(("127.0.0.1", 0), BadHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address
        with pytest.raises(ApiFormatError) as excinfo:
            list_packages(f"http://{host}:{port}", "*", limit=3)
        assert "surprise" in str(excinfo.value)  # offending payload excerpt included
    finally:
        server.shutdown()
        server.server_close()


def test_api_token_from_environment(monkeypatch):
    monkeypatch.setenv("DATAVERSE_API_TOKEN", "sekrit")
    client = DataverseClient("http://example.org")
    assert client._headers() == {"X-Dataverse-key": "sekrit"}
    monkeypatch.delenv("DATAVERSE_API_TOKEN")
    assert DataverseClient("http://example.org")._headers() == {}


# --- HTTP behaviour of the client ------------------------------------------------


@contextmanager
def http_server(respond):
    """A loopback HTTP/1.1 server that calls ``respond(handler)`` for every GET.

    Yields the base URL and a list that holds the client port of each
    request, so tests can count connections.
    """
    peers: list[int] = []

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, *args):
            pass

        def do_GET(self):  # noqa: N802 (http.server API)
            peers.append(self.client_address[1])
            respond(self)

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", peers
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def send(handler, status: int, body: bytes = b"", headers: dict | None = None, length: int | None = None):
    handler.send_response(status)
    for name, value in (headers or {}).items():
        handler.send_header(name, value)
    handler.send_header("Content-Length", str(len(body) if length is None else length))
    handler.end_headers()
    handler.wfile.write(body)


def listing(*names: str) -> bytes:
    items = [{"label": name, "dataFile": {"id": i + 1, "filename": name}} for i, name in enumerate(names)]
    return json.dumps({"status": "OK", "data": items}).encode()


def test_redirect_to_another_host_carries_no_credentials(tmp_path: Path, monkeypatch):
    # netrc credentials exist for the storage host too; only the API origin may get them
    (tmp_path / "netrc").write_text("machine 127.0.0.1 login user password pw\n", encoding="utf-8")
    monkeypatch.setenv("NETRC", str(tmp_path / "netrc"))
    seen = {}

    def storage(handler):
        seen["storage"] = handler.headers
        send(handler, 200, b"file bytes")

    with http_server(storage) as (storage_url, _):

        def api(handler):
            seen["api"] = handler.headers
            send(handler, 303, headers={"Location": f"{storage_url}/bucket/7?X-Amz-Signature=abc"})

        with http_server(api) as (api_url, _):
            client = DataverseClient(api_url, token="sekrit")
            client.download_file(7, tmp_path / "f.bin")
            client.close()
    assert (tmp_path / "f.bin").read_bytes() == b"file bytes"
    assert seen["api"]["X-Dataverse-key"] == "sekrit"
    assert seen["api"]["Authorization"].startswith("Basic ")
    assert "X-Dataverse-key" not in seen["storage"]
    assert "Authorization" not in seen["storage"]


def test_redirect_loop_is_an_ingest_error():
    def loop(handler):
        send(handler, 302, headers={"Location": "/again"})

    with http_server(loop) as (url, peers):
        client = DataverseClient(url, retries=1, backoff=0.0)
        with pytest.raises(IngestError, match="redirects"):
            client.dataset_files("doi:x")
        client.close()
    assert len(set(peers)) == 1  # each redirect body was read, so one connection served them all


def test_short_download_marks_entry_and_package_partial(tmp_path: Path):
    def respond(handler):
        if handler.path.startswith("/api/datasets/"):
            send(handler, 200, listing("good.R", "short.bin"))
        elif handler.path.endswith("/1"):
            send(handler, 200, b"x <- 1\n")
        else:
            send(handler, 200, b"0123456789", length=100)
            handler.close_connection = True

    with http_server(respond) as (url, _):
        (manifest,) = fetch_many(
            [PackageRef("doi:10.5072/FK2/SHORT")], tmp_path, lambda: DataverseClient(url, retries=1), jobs=1
        )
    assert manifest.fetch_status == "partial"
    good, short = manifest.files
    assert good.error is None and good.size == 7
    assert "90 more" in short.error
    assert not (Path(manifest.root) / "short.bin").exists()  # no truncated file passes for a fetched one
    assert manifest.unfetched() == {"short.bin"}


def test_stale_keep_alive_connection_is_reopened_without_a_retry():
    def respond(handler):
        # keep-alive by HTTP/1.1 default, then the server hangs up anyway
        send(handler, 200, listing("a.R"))
        handler.close_connection = True

    with http_server(respond) as (url, peers):
        client = DataverseClient(url, retries=1, backoff=30.0)
        started = time.monotonic()
        assert len(client.dataset_files("doi:a")) == 1
        assert len(client.dataset_files("doi:b")) == 1
        elapsed = time.monotonic() - started
        client.close()
    assert elapsed < 10  # no backoff sleep
    assert len(set(peers)) == 2


def test_error_status_keeps_the_connection(tmp_path: Path):
    def respond(handler):
        if "missing" in handler.path:
            send(handler, 404, b'{"status": "ERROR", "message": "no such dataset"}')
        else:
            send(handler, 200, listing("a.R"))

    with http_server(respond) as (url, peers):
        client = DataverseClient(url, retries=1)
        with pytest.raises(IngestError, match="HTTP 404"):
            client.dataset_files("doi:missing")
        assert len(client.dataset_files("doi:there")) == 1
        client.close()
    assert len(peers) == 2 and len(set(peers)) == 1


def test_https_api_base_is_tunnelled_through_environment_proxy(proxy_env):
    from reprorun.ingest import NetworkError

    lines: list[bytes] = []
    listener = socket.create_server(("127.0.0.1", 0))

    def proxy():
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as reader:
            lines.append(reader.readline())
            conn.sendall(b"HTTP/1.1 502 Bad Gateway\r\nContent-Length: 0\r\n\r\n")

    thread = threading.Thread(target=proxy, daemon=True)
    thread.start()
    for name in ("https_proxy", "HTTPS_PROXY"):
        proxy_env.delenv(name, raising=False)
    proxy_env.setenv("HTTPS_PROXY", f"http://127.0.0.1:{listener.getsockname()[1]}")
    try:
        client = DataverseClient("https://localhost", retries=1, backoff=0.0, timeout=5.0)
        with pytest.raises(NetworkError):
            client.search("*", start=0, per_page=1)
        thread.join(timeout=5)
    finally:
        listener.close()
    assert not thread.is_alive()
    assert lines and lines[0].startswith(b"CONNECT localhost:443 ")
