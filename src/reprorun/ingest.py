"""Discover, download, verify, and catalog replication packages.

Speaks the documented Dataverse API shapes (``/api/search``,
``/api/datasets/:persistentId/versions/:latest/files`` and
``/api/access/datafile/:id``) behind a thin client over the standard
library's ``http.client``, so tests can point it at a local mock server.
Local directories can be cataloged without any repository via
:func:`load_local_package`.

Files are stored flat per package (the cleaner's basename rewrite relies
on every file sitting in one directory); name collisions are resolved by
suffixing ``_1``, ``_2`` and recording the original label on the entry.

:func:`fetch_many` gives each worker thread one client, so each worker
fetches all of its packages over one keep-alive connection. A client
reads the environment (proxies, CA bundle, netrc) once, when it is made,
instead of on every request.
"""

from __future__ import annotations

import base64
import hashlib
import http.client
import json
import netrc
import os
import re
import ssl
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import MISSING, asdict, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from urllib.parse import SplitResult, unquote, urlencode, urljoin, urlsplit

from . import __version__, rsource

API_TOKEN_ENV = "DATAVERSE_API_TOKEN"

VERIFIED_OK = "ok"
VERIFIED_MISMATCH = "mismatch"
VERIFIED_UNCHECKED = "unchecked"

FETCH_OK = "ok"
FETCH_PARTIAL = "partial"
FETCH_FAILED = "failed"

USER_AGENT = f"reprorun/{__version__}"
DEFAULT_PORTS = {"http": 80, "https": 443}
REDIRECT_STATUSES = frozenset({301, 302, 303, 307, 308})
MAX_REDIRECTS = 30
DRAIN_BYTES = 65536  # an error or redirect body up to this size is read, keeping the connection


class IngestError(Exception):
    """Fatal ingest failure."""


class NetworkError(IngestError):
    """Transient network failure; the operation may be retried."""


class AuthorizationError(IngestError):
    """The repository denied access (HTTP 401/403)."""


class CorpusError(IngestError):
    """A corpus root, package directory or manifest on disk cannot be read."""


class ApiFormatError(IngestError):
    """The repository answered with a payload we cannot parse."""

    def __init__(self, message: str, payload: str = ""):
        excerpt = payload[:200]
        super().__init__(f"{message}: {excerpt!r}" if excerpt else message)
        self.payload_excerpt = excerpt


def from_fields(cls, data: dict, **values):
    """Build dataclass ``cls`` from the keys of ``data`` that name its fields.

    ``values`` are given as they are. A field with neither a key in
    ``data`` nor a default raises KeyError.
    """
    for f in fields(cls):
        if f.name not in values and (
            f.name in data or (f.default is MISSING and f.default_factory is MISSING)
        ):
            values[f.name] = data[f.name]
    return cls(**values)


@dataclass
class PackageRef:
    """Identity and grouping metadata of one replication package."""

    persistent_id: str
    title: str = ""
    publication_date: str | None = None
    metadata: dict = field(default_factory=dict)


@dataclass
class FileEntry:
    """One cataloged file; checksum and verification state as reported/derived."""

    relative_path: str
    size: int = 0
    checksum: dict | None = None  # {"algorithm": ..., "value": ...}
    verified: str = VERIFIED_UNCHECKED
    error: str | None = None
    original_label: str | None = None


@dataclass
class PackageManifest:
    """Catalog of one package's files on local disk, plus fetch provenance.

    Saved flat: the ``ref`` fields first, then the others, ``files`` last.
    """

    ref: PackageRef
    root: str
    fetched_at: str = ""
    fetch_status: str = FETCH_OK
    failure_reason: str | None = None
    files: list[FileEntry] = field(default_factory=list)

    def r_files(self) -> list[FileEntry]:
        return sorted(
            (e for e in self.files if rsource.is_r_source(e.relative_path)),
            key=lambda e: e.relative_path,
        )

    def unfetched(self) -> set[str]:
        """Relative paths of the files whose download failed and that are not on disk."""
        root = Path(self.root)
        return {e.relative_path for e in self.files if e.error and not (root / e.relative_path).is_file()}

    def to_dict(self) -> dict:
        data = asdict(self)
        return {**data.pop("ref"), **data}

    @classmethod
    def from_dict(cls, data: dict) -> "PackageManifest":
        return from_fields(
            cls,
            data,
            ref=from_fields(PackageRef, data),
            files=[from_fields(FileEntry, f) for f in data.get("files", [])],
        )


def package_slug(persistent_id: str) -> str:
    """Filesystem-safe directory name for a package id."""
    pid = persistent_id.removeprefix("doi:")
    return re.sub(r"[^A-Za-z0-9._-]", "_", pid)


def save_manifest(manifest: PackageManifest, path: Path | str) -> None:
    """Write the manifest whole or not at all: a temporary file beside it, then a rename."""
    tmp = Path(f"{path}.tmp")
    try:
        tmp.write_text(json.dumps(manifest.to_dict(), indent=2) + "\n", encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_manifest(path: Path | str) -> PackageManifest:
    """Read one saved manifest; a file that is not one raises CorpusError naming it.

    So does a field that a stage cannot read: a ``metadata`` that is
    neither an object nor null, a ``publication_date`` that is neither a
    string nor null, a ``persistent_id``, ``root`` or ``fetch_status``
    that is not a string, a file ``size`` that is not an integer, or a
    listed file path that is empty, absolute or has a ``..`` part, which
    would leave the package.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError("not a JSON object")
        manifest = PackageManifest.from_dict(data)
        if not isinstance(manifest.ref.metadata, (dict, type(None))):
            raise ValueError("metadata is neither an object nor null")
        for key in ("persistent_id", "root", "fetch_status"):  # the first two are required, so present here
            if not isinstance(data.get(key, ""), str):
                raise ValueError(f"{key} is not a string")
        if not isinstance(manifest.ref.publication_date, (str, type(None))):
            raise ValueError("publication_date is neither a string nor null")
        for entry in manifest.files:
            parts = os.fspath(entry.relative_path).split("/")  # split, not Path: one per file, at every load
            if parts[0] == "" or ".." in parts or {"", "."}.issuperset(parts):  # absolute, climbing or empty
                raise ValueError(f"file path {entry.relative_path!r} leaves the package")
            if not isinstance(entry.size, int):
                raise ValueError(f"file {entry.relative_path!r} has a size that is not an integer")
        return manifest
    except KeyError as exc:
        raise CorpusError(f"manifest {path} lacks required key {exc}") from None
    except (OSError, ValueError, TypeError) as exc:  # TypeError: a files entry that is not an object
        raise CorpusError(f"cannot read manifest {path}: {exc}") from None


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _origin(parts: SplitResult) -> tuple[str, str, int]:
    """(scheme, host, port) of an http or https URL."""
    try:
        if parts.hostname:
            return parts.scheme, parts.hostname, parts.port or DEFAULT_PORTS[parts.scheme]
    except (KeyError, ValueError):
        pass
    raise IngestError(f"not an http or https URL: {parts.geturl()!r}")


def _basic_auth(user: str, password: str) -> str:
    return "Basic " + base64.b64encode(f"{user}:{password}".encode()).decode("ascii")


def _netrc_headers(host: str) -> dict:
    """The Authorization header for ``host`` from ``$NETRC``, else ``~/.netrc`` or ``~/_netrc``."""
    names = [os.environ["NETRC"]] if "NETRC" in os.environ else ["~/.netrc", "~/_netrc"]
    paths = [p for p in map(os.path.expanduser, names) if os.path.exists(p)]
    if not paths:
        return {}
    try:
        found = netrc.netrc(paths[0]).authenticators(host)
    except (netrc.NetrcParseError, OSError):
        return {}
    if not found:
        return {}
    login, account, password = found
    return {"Authorization": _basic_auth(login or account, password)}


def _release(conn: http.client.HTTPConnection, resp: http.client.HTTPResponse) -> None:
    """Close ``conn`` unless ``resp`` was read to its end, so no request meets a stale body."""
    if not resp.isclosed() or resp.length:
        conn.close()


def _discard(conn: http.client.HTTPConnection, resp: http.client.HTTPResponse) -> None:
    """Read a small unwanted body, so its connection stays reusable."""
    try:
        resp.read(DRAIN_BYTES)
    except (OSError, http.client.HTTPException):
        pass
    _release(conn, resp)


class DataverseClient:
    """Thin HTTP client for a Dataverse-compatible repository, over ``http.client``.

    It keeps one keep-alive connection per origin (scheme, host, port),
    so use one client per thread. The environment is read once, here:
    the proxy (``http_proxy``, ``https_proxy``, ``all_proxy``, as chosen
    for the API host under ``no_proxy``; an https origin is reached
    through a CONNECT tunnel), the CA bundle (``REQUESTS_CA_BUNDLE`` or
    ``CURL_CA_BUNDLE``, else the system trust store; the TLS context is
    made when the first https origin connects) and the ``.netrc``
    credentials of the API host. Redirects are followed; a redirect to
    another origin keeps the API host's proxy choice, and the API token
    and netrc credentials go to the API origin only.
    """

    def __init__(
        self,
        api_base: str,
        token: str | None = None,
        retries: int = 3,
        backoff: float = 0.2,
        timeout: float = 30.0,
    ):
        self.api_base = api_base.rstrip("/")
        self.token = token if token is not None else os.environ.get(API_TOKEN_ENV)
        self.retries = retries
        self.backoff = backoff
        self.timeout = timeout
        base = urlsplit(self.api_base)
        self._api_origin = _origin(base)
        self._api_path = base.path
        host = self._api_origin[1]
        self._proxies = {} if urllib.request.proxy_bypass(host) else urllib.request.getproxies()
        self._ca_bundle = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
        self._tls: ssl.SSLContext | None = None
        self._api_headers = {**_netrc_headers(host), **self._headers()}
        # origin -> (connection, prefix of the request target, headers)
        self._connections: dict[tuple, tuple[http.client.HTTPConnection, str, dict]] = {}

    def close(self) -> None:
        for conn, _, _ in self._connections.values():
            conn.close()
        self._connections.clear()

    def _headers(self) -> dict:
        return {"X-Dataverse-key": self.token} if self.token else {}

    def _tls_context(self) -> ssl.SSLContext:
        if self._tls is None:
            bundle = self._ca_bundle
            if bundle and os.path.isdir(bundle):
                self._tls = ssl.create_default_context(capath=bundle)
            else:
                self._tls = ssl.create_default_context(cafile=bundle)
        return self._tls

    def _connection(self, origin: tuple) -> tuple[http.client.HTTPConnection, str, dict]:
        known = self._connections.get(origin)
        if known:
            return known
        scheme, host, port = origin
        headers = {"User-Agent": USER_AGENT, **(self._api_headers if origin == self._api_origin else {})}
        prefix = ""
        address = (host, port)
        proxy = self._proxies.get(scheme) or self._proxies.get("all")
        if proxy:
            parts = urlsplit(proxy if "://" in proxy else "http://" + proxy)
            proxy_scheme, proxy_host, proxy_port = _origin(parts)
            if proxy_scheme != "http":
                raise IngestError(f"unsupported proxy {proxy!r}: only http:// proxies are supported")
            address = (proxy_host, proxy_port)
            proxy_headers = (
                {"Proxy-Authorization": _basic_auth(unquote(parts.username), unquote(parts.password or ""))}
                if parts.username
                else {}
            )
        if scheme == "https":
            conn = http.client.HTTPSConnection(*address, timeout=self.timeout, context=self._tls_context())
            if proxy:
                conn.set_tunnel(host, port, proxy_headers)
        else:
            conn = http.client.HTTPConnection(*address, timeout=self.timeout)
            if proxy:
                prefix = f"http://[{host}]:{port}" if ":" in host else f"http://{host}:{port}"
                headers.update(proxy_headers)
        self._connections[origin] = entry = (conn, prefix, headers)
        return entry

    @staticmethod
    def _exchange(conn: http.client.HTTPConnection, target: str, headers: dict) -> http.client.HTTPResponse:
        try:
            conn.request("GET", target, headers=headers)
            return conn.getresponse()
        except BaseException:
            conn.close()
            raise

    def _request(self, origin: tuple, target: str) -> tuple[http.client.HTTPConnection, http.client.HTTPResponse]:
        """One GET; a kept-alive connection the server has since closed is reopened once, at once."""
        conn, prefix, headers = self._connection(origin)
        reused = conn.sock is not None
        try:
            return conn, self._exchange(conn, prefix + target, headers)
        except (ConnectionResetError, BrokenPipeError):  # RemoteDisconnected is a ConnectionResetError
            if not reused:
                raise
        return conn, self._exchange(conn, prefix + target, headers)

    def _follow(self, url: str, origin: tuple, target: str):
        """GET ``url`` (``target`` at ``origin``), following redirects."""
        for _ in range(MAX_REDIRECTS + 1):
            conn, resp = self._request(origin, target)
            location = resp.getheader("Location")
            if resp.status not in REDIRECT_STATUSES or location is None:
                return conn, resp
            _discard(conn, resp)
            url = urljoin(url, location)
            parts = urlsplit(url)
            origin = _origin(parts)
            target = (parts.path or "/") + ("?" + parts.query if parts.query else "")
        raise IngestError(f"more than {MAX_REDIRECTS} redirects, the last to {url}")

    def _get(self, path: str, params: dict | None = None):
        """GET ``path`` under the API base: the connection and a response below HTTP 400.

        The caller reads the body and then hands both to ``_release``.
        """
        url = self.api_base + path
        query = "?" + urlencode(params) if params else ""
        last: Exception | None = None
        for attempt in range(self.retries):
            try:
                conn, resp = self._follow(url + query, self._api_origin, self._api_path + path + query)
            except (OSError, http.client.HTTPException) as exc:
                last = exc
                time.sleep(self.backoff * (attempt + 1))
                continue
            if resp.status < 400:
                return conn, resp
            _discard(conn, resp)
            if resp.status in (401, 403):
                raise AuthorizationError(f"access denied for {url} (HTTP {resp.status})")
            if 500 <= resp.status < 600:
                last = NetworkError(f"HTTP {resp.status} from {url}")
                time.sleep(self.backoff * (attempt + 1))
                continue
            raise IngestError(f"HTTP {resp.status} from {url}")
        raise NetworkError(f"giving up on {url} after {self.retries} attempts: {last}")

    def _get_json(self, path: str, params: dict | None = None) -> dict:
        conn, resp = self._get(path, params)
        try:
            body = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            raise NetworkError(f"reading the response from {self.api_base + path} failed: {exc!r}") from None
        finally:
            _release(conn, resp)
        try:
            payload = json.loads(body)
        except ValueError:
            raise ApiFormatError("response is not JSON", body.decode("utf-8", "replace")) from None
        if not isinstance(payload, dict) or payload.get("status") != "OK" or "data" not in payload:
            raise ApiFormatError("unexpected API envelope", body.decode("utf-8", "replace"))
        return payload["data"]

    def search(self, query: str, start: int, per_page: int) -> dict:
        data = self._get_json(
            "/api/search",
            {"q": query, "type": "dataset", "start": start, "per_page": per_page},
        )
        if "items" not in data or "total_count" not in data:
            raise ApiFormatError("search payload missing items/total_count", json.dumps(data))
        return data

    def dataset_files(self, persistent_id: str) -> list[dict]:
        data = self._get_json(
            "/api/datasets/:persistentId/versions/:latest/files",
            {"persistentId": persistent_id},
        )
        if not isinstance(data, list):
            raise ApiFormatError("file listing is not a list", json.dumps(data))
        return data

    def download_file(self, file_id: int, dest: Path) -> None:
        """Stream one datafile to ``dest``; a body cut short is a NetworkError.

        A download that raises leaves no file at ``dest``.
        """
        path = f"/api/access/datafile/{file_id}"
        try:
            conn, resp = self._get(path)
            try:
                with open(dest, "wb") as fh:
                    while chunk := resp.read(65536):
                        fh.write(chunk)
            except http.client.HTTPException as exc:
                raise NetworkError(f"download from {self.api_base + path} broke off: {exc!r}") from None
            finally:
                _release(conn, resp)
            if resp.length:
                raise NetworkError(
                    f"download from {self.api_base + path} broke off: {resp.length} more bytes expected"
                )
        except BaseException:
            dest.unlink(missing_ok=True)
            raise


def _ref_from_search_item(item: dict) -> PackageRef | None:
    pid = item.get("global_id")
    if not pid:
        return None
    metadata: dict = {}
    if item.get("name_of_dataverse"):
        metadata["journal"] = item["name_of_dataverse"]
    if item.get("subjects"):
        metadata["subject"] = item["subjects"]
    if item.get("publisher"):
        metadata["publisher"] = item["publisher"]
    return PackageRef(
        persistent_id=pid,
        title=item.get("name", ""),
        publication_date=item.get("published_at"),
        metadata=metadata,
    )


def list_packages(
    api_base: str, query: str, limit: int, client: DataverseClient | None = None
) -> list[PackageRef]:
    """Search the repository, paginating internally, for up to ``limit`` packages.

    The query string is passed through verbatim, so callers may select R
    code by file extension or by content type, whichever their repository
    indexes.
    """
    if limit <= 0:
        return []
    own_client = client is None
    client = client or DataverseClient(api_base)
    refs: list[PackageRef] = []
    start = 0
    per_page = min(50, limit)
    try:
        while len(refs) < limit:
            data = client.search(query, start=start, per_page=per_page)
            items = data["items"]
            for item in items:
                ref = _ref_from_search_item(item)
                if ref is not None:
                    refs.append(ref)
                    if len(refs) >= limit:
                        break
            start += len(items)
            if not items or start >= data["total_count"]:
                break
    finally:
        if own_client:
            client.close()
    return refs


def _allocate_name(label: str, taken: set[str]) -> str:
    if label not in taken:
        return label
    stem, ext = os.path.splitext(label)
    i = 1
    while f"{stem}_{i}{ext}" in taken:
        i += 1
    return f"{stem}_{i}{ext}"


def _entry_from_file_item(item: dict, relative_path: str) -> FileEntry:
    data_file = item.get("dataFile", {})
    checksum = None
    if isinstance(data_file.get("checksum"), dict) and data_file["checksum"].get("value"):
        checksum = {
            "algorithm": data_file["checksum"].get("type", "MD5"),
            "value": data_file["checksum"]["value"],
        }
    elif data_file.get("md5"):
        checksum = {"algorithm": "MD5", "value": data_file["md5"]}
    label = item.get("label") or data_file.get("filename") or relative_path
    if item.get("directoryLabel"):
        label = f"{item['directoryLabel']}/{label}"
    return FileEntry(
        relative_path=relative_path,
        size=int(data_file.get("filesize", 0)),
        checksum=checksum,
        original_label=label if label != relative_path else None,
    )


def fetch_package(
    ref: PackageRef, dest: Path | str, client: DataverseClient
) -> PackageManifest:
    """Download every file of a package flat into ``dest/<slug>/``.

    An authorization error anywhere marks the whole package
    ``failed`` (reason "authorization", mirroring repository-restricted
    packages); so does any other failure to list its files (the reason
    names the error), and that failure stays with this package. Any other
    per-file failure marks that entry and degrades the package to
    ``partial``. The manifest lists every attempted file, each fetched
    one checked against its reported checksum (:func:`verify_checksums`).
    """
    pkg_dir = Path(dest) / package_slug(ref.persistent_id)
    pkg_dir.mkdir(parents=True, exist_ok=True)
    manifest = PackageManifest(ref=ref, root=str(pkg_dir), fetched_at=_utc_now())

    try:
        items = client.dataset_files(ref.persistent_id)
    except AuthorizationError:
        manifest.fetch_status = FETCH_FAILED
        manifest.failure_reason = "authorization"
        return manifest
    except IngestError as exc:
        manifest.fetch_status = FETCH_FAILED
        manifest.failure_reason = f"file listing: {exc}"
        return manifest

    taken: set[str] = set()
    for item in items:
        data_file = item.get("dataFile", {})
        name = os.path.basename(item.get("label") or data_file.get("filename") or "")
        if name in ("", ".", ".."):  # no label, or one that names a directory
            name = f"file-{data_file.get('id')}"
        name = _allocate_name(name, taken)
        taken.add(name)
        entry = _entry_from_file_item(item, name)
        manifest.files.append(entry)
        file_id = data_file.get("id")
        try:
            if file_id is None:
                raise IngestError("file item has no dataFile.id")
            client.download_file(file_id, pkg_dir / name)
            entry.size = (pkg_dir / name).stat().st_size
        except AuthorizationError:
            entry.error = "authorization"
            manifest.fetch_status = FETCH_FAILED
            manifest.failure_reason = "authorization"
        except (IngestError, OSError) as exc:
            entry.error = str(exc)
            if manifest.fetch_status == FETCH_OK:
                manifest.fetch_status = FETCH_PARTIAL
        if entry.error:  # a file an earlier fetch left under this name must not count as fetched
            (pkg_dir / name).unlink(missing_ok=True)
    return verify_checksums(manifest)


def fetch_many(
    refs: list[PackageRef],
    dest: Path | str,
    make_client,
    jobs: int = 4,
    save=None,
) -> list[PackageManifest]:
    """Fetch packages concurrently; one worker produces, verifies and saves each manifest.

    Each worker thread calls ``make_client`` once and reuses that client,
    and so its keep-alive connection, for every package it fetches. It
    passes each manifest to ``save``, when one is given, as soon as the
    manifest is made. A package that raises leaves the others to finish;
    its error is raised once they have. Manifests come back in the order
    of ``refs``. All clients are closed on return.
    """
    if not refs:
        return []
    local = threading.local()
    clients: list[DataverseClient] = []

    def fetch(ref: PackageRef) -> PackageManifest:
        if not hasattr(local, "client"):
            local.client = make_client()
            clients.append(local.client)
        manifest = fetch_package(ref, dest, local.client)
        if save is not None:
            save(manifest)
        return manifest

    try:
        with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
            futures = [pool.submit(fetch, ref) for ref in refs]
            try:
                wait(futures)
            finally:  # an interrupt leaves the packages not yet started unfetched
                pool.shutdown(cancel_futures=True)
            return [future.result() for future in futures]
    finally:
        for client in clients:
            client.close()


_ALGORITHMS = {"md5": "md5", "sha-1": "sha1", "sha1": "sha1", "sha-256": "sha256", "sha256": "sha256", "sha-512": "sha512", "sha512": "sha512"}


def verify_checksums(manifest: PackageManifest) -> PackageManifest:
    """Recompute digests against repository-reported checksums; idempotent.

    Entries without a reported checksum become (or stay) unchecked; an
    unreadable file is a mismatch with the reason recorded. A file whose
    download failed (``unfetched``) keeps its state and the reason why.
    """
    root = Path(manifest.root)
    unfetched = manifest.unfetched()
    for entry in manifest.files:
        if entry.relative_path in unfetched:
            continue
        if not entry.checksum:
            entry.verified = VERIFIED_UNCHECKED
            continue
        algorithm = _ALGORITHMS.get(entry.checksum.get("algorithm", "MD5").lower())
        if algorithm is None:
            entry.verified = VERIFIED_MISMATCH
            entry.error = f"unsupported checksum algorithm {entry.checksum.get('algorithm')!r}"
            continue
        try:
            digest = hashlib.new(algorithm)
            with open(root / entry.relative_path, "rb") as fh:
                for chunk in iter(lambda: fh.read(65536), b""):
                    digest.update(chunk)
        except OSError as exc:
            entry.verified = VERIFIED_MISMATCH
            entry.error = f"unreadable: {exc}"
            continue
        if digest.hexdigest().lower() == entry.checksum["value"].lower():
            entry.verified = VERIFIED_OK
        else:
            entry.verified = VERIFIED_MISMATCH
    return manifest


def discover_corpus(root: Path | str) -> list[PackageManifest]:
    """Manifests for a corpus directory.

    An ingested corpus has a ``manifests/`` directory of JSON manifests;
    a bare corpus is just a directory whose immediate subdirectories are
    packages, cataloged on the fly.
    """
    root = Path(root)
    if not root.is_dir():
        raise CorpusError(f"corpus root is not a directory: {root}")
    manifests_dir = root / "manifests"
    if manifests_dir.is_dir():
        return [load_manifest(p) for p in sorted(manifests_dir.glob("*.json"))]
    return [
        load_local_package(d)
        for d in sorted(root.iterdir())
        if d.is_dir() and d.name not in ("manifests", "packages", "cleaned")
    ]


def load_local_package(directory: Path | str, metadata: dict | None = None) -> PackageManifest:
    """Catalog a local directory as a package; checksums stay unchecked.

    Regular files are enumerated recursively and relative paths preserve
    the subdirectory structure.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise CorpusError(f"not a directory: {directory}")
    metadata = dict(metadata or {})
    ref = PackageRef(
        persistent_id=metadata.pop("persistent_id", f"local:{directory.name}"),
        title=metadata.pop("title", directory.name),
        publication_date=metadata.pop("publication_date", None),
        metadata=metadata,
    )
    files = [
        FileEntry(relative_path=str(p.relative_to(directory)), size=p.stat().st_size)
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    ]
    return PackageManifest(ref=ref, root=str(directory), files=files, fetched_at=_utc_now())
