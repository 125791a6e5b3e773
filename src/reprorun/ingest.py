"""Discover, download, verify, and catalog replication packages.

Speaks the documented Dataverse API shapes (``/api/search``,
``/api/datasets/:persistentId/versions/:latest/files`` and
``/api/access/datafile/:id``) behind a thin client, so tests can point it
at a local mock server. Local directories can be cataloged without any
repository via :func:`load_local_package`.

Files are stored flat per package (the cleaner's basename rewrite relies
on every file sitting in one directory); name collisions are resolved by
suffixing ``_1``, ``_2`` and recording the original label on the entry.

:func:`fetch_many` gives each worker thread one client, so each worker
fetches all of its packages over one keep-alive connection. A client
reads the environment (proxies, CA bundle, netrc) once, for its API
host, instead of on every request.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import requests

from . import rsource

API_TOKEN_ENV = "DATAVERSE_API_TOKEN"

VERIFIED_OK = "ok"
VERIFIED_MISMATCH = "mismatch"
VERIFIED_UNCHECKED = "unchecked"

FETCH_OK = "ok"
FETCH_PARTIAL = "partial"
FETCH_FAILED = "failed"


class IngestError(Exception):
    """Fatal ingest failure."""


class NetworkError(IngestError):
    """Transient network failure; the operation may be retried."""


class AuthorizationError(IngestError):
    """The repository denied access (HTTP 401/403)."""


class ApiFormatError(IngestError):
    """The repository answered with a payload we cannot parse."""

    def __init__(self, message: str, payload: str = ""):
        excerpt = payload[:200]
        super().__init__(f"{message}: {excerpt!r}" if excerpt else message)
        self.payload_excerpt = excerpt


@dataclass
class PackageRef:
    """Identity and grouping metadata of one replication package."""

    persistent_id: str
    title: str = ""
    publication_date: str | None = None
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "persistent_id": self.persistent_id,
            "title": self.title,
            "publication_date": self.publication_date,
            "metadata": self.metadata,
        }


@dataclass
class FileEntry:
    """One cataloged file; checksum and verification state as reported/derived."""

    relative_path: str
    size: int = 0
    checksum: dict | None = None  # {"algorithm": ..., "value": ...}
    verified: str = VERIFIED_UNCHECKED
    error: str | None = None
    original_label: str | None = None

    def to_dict(self) -> dict:
        return {
            "relative_path": self.relative_path,
            "size": self.size,
            "checksum": self.checksum,
            "verified": self.verified,
            "error": self.error,
            "original_label": self.original_label,
        }


@dataclass
class PackageManifest:
    """Catalog of one package's files on local disk, plus fetch provenance."""

    ref: PackageRef
    root: str
    files: list[FileEntry] = field(default_factory=list)
    fetched_at: str = ""
    fetch_status: str = FETCH_OK
    failure_reason: str | None = None

    def r_files(self) -> list[FileEntry]:
        return sorted(
            (e for e in self.files if rsource.is_r_source(e.relative_path)),
            key=lambda e: e.relative_path,
        )

    def to_dict(self) -> dict:
        return {
            "persistent_id": self.ref.persistent_id,
            "title": self.ref.title,
            "publication_date": self.ref.publication_date,
            "metadata": self.ref.metadata,
            "root": self.root,
            "fetched_at": self.fetched_at,
            "fetch_status": self.fetch_status,
            "failure_reason": self.failure_reason,
            "files": [e.to_dict() for e in self.files],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PackageManifest":
        ref = PackageRef(
            persistent_id=data["persistent_id"],
            title=data.get("title", ""),
            publication_date=data.get("publication_date"),
            metadata=data.get("metadata", {}),
        )
        files = [
            FileEntry(
                relative_path=f["relative_path"],
                size=f.get("size", 0),
                checksum=f.get("checksum"),
                verified=f.get("verified", VERIFIED_UNCHECKED),
                error=f.get("error"),
                original_label=f.get("original_label"),
            )
            for f in data.get("files", [])
        ]
        return cls(
            ref=ref,
            root=data["root"],
            files=files,
            fetched_at=data.get("fetched_at", ""),
            fetch_status=data.get("fetch_status", FETCH_OK),
            failure_reason=data.get("failure_reason"),
        )


def package_slug(persistent_id: str) -> str:
    """Filesystem-safe directory name for a package id."""
    pid = persistent_id.removeprefix("doi:")
    return re.sub(r"[^A-Za-z0-9._-]", "_", pid)


def save_manifest(manifest: PackageManifest, path: Path | str) -> None:
    Path(path).write_text(json.dumps(manifest.to_dict(), indent=2) + "\n", encoding="utf-8")


def load_manifest(path: Path | str) -> PackageManifest:
    return PackageManifest.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


class DataverseClient:
    """Thin HTTP client for a Dataverse-compatible repository.

    The proxies, CA bundle and netrc credentials that requests would pick
    from the environment for ``api_base`` are read once, here, and kept on
    the session, which then stops consulting the environment per request.
    Requests to the API host behave as with per-request lookup; a redirect
    to another host keeps the API host's proxy choice and gets no netrc
    lookup for that host.
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
        self.session = requests.Session()
        settings = self.session.merge_environment_settings(self.api_base, {}, None, None, None)
        self.session.proxies = settings["proxies"]
        self.session.verify = settings["verify"]
        self.session.auth = requests.utils.get_netrc_auth(self.api_base)
        self.session.trust_env = False

    def close(self) -> None:
        self.session.close()

    def _headers(self) -> dict:
        return {"X-Dataverse-key": self.token} if self.token else {}

    def _get(self, path: str, params: dict | None = None, stream: bool = False) -> requests.Response:
        url = self.api_base + path
        last: Exception | None = None
        for attempt in range(self.retries):
            try:
                resp = self.session.get(
                    url, params=params, headers=self._headers(), stream=stream, timeout=self.timeout
                )
            except (requests.ConnectionError, requests.Timeout) as exc:
                last = exc
                time.sleep(self.backoff * (attempt + 1))
                continue
            if resp.status_code < 400:
                return resp
            resp.close()  # an unread streamed body would keep its connection out of the pool
            if resp.status_code in (401, 403):
                raise AuthorizationError(f"access denied for {url} (HTTP {resp.status_code})")
            if 500 <= resp.status_code < 600:
                last = NetworkError(f"HTTP {resp.status_code} from {url}")
                time.sleep(self.backoff * (attempt + 1))
                continue
            raise IngestError(f"HTTP {resp.status_code} from {url}")
        raise NetworkError(f"giving up on {url} after {self.retries} attempts: {last}")

    def _get_json(self, path: str, params: dict | None = None) -> dict:
        resp = self._get(path, params)
        try:
            payload = resp.json()
        except ValueError:
            raise ApiFormatError("response is not JSON", resp.text) from None
        if not isinstance(payload, dict) or payload.get("status") != "OK" or "data" not in payload:
            raise ApiFormatError("unexpected API envelope", resp.text)
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
        resp = self._get(f"/api/access/datafile/{file_id}", stream=True)
        with open(dest, "wb") as fh:
            for chunk in resp.iter_content(chunk_size=65536):
                fh.write(chunk)


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
    packages); any other per-file failure marks that entry and degrades
    the package to ``partial``. The manifest lists every attempted file.
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

    taken: set[str] = set()
    for item in items:
        data_file = item.get("dataFile", {})
        label = item.get("label") or data_file.get("filename") or f"file-{data_file.get('id')}"
        name = _allocate_name(os.path.basename(label), taken)
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
    return manifest


def fetch_many(
    refs: list[PackageRef],
    dest: Path | str,
    make_client,
    jobs: int = 4,
) -> list[PackageManifest]:
    """Fetch packages concurrently; one worker produces each manifest.

    Each worker thread calls ``make_client`` once and reuses that client,
    and so its keep-alive connection, for every package it fetches. All
    clients are closed on return.
    """
    if not refs:
        return []
    local = threading.local()
    clients: list[DataverseClient] = []

    def fetch(ref: PackageRef) -> PackageManifest:
        if not hasattr(local, "client"):
            local.client = make_client()
            clients.append(local.client)
        return fetch_package(ref, dest, local.client)

    try:
        with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
            return list(pool.map(fetch, refs))
    finally:
        for client in clients:
            client.close()


_ALGORITHMS = {"md5": "md5", "sha-1": "sha1", "sha1": "sha1", "sha-256": "sha256", "sha256": "sha256", "sha-512": "sha512", "sha512": "sha512"}


def verify_checksums(manifest: PackageManifest) -> PackageManifest:
    """Recompute digests against repository-reported checksums; idempotent.

    Entries without a reported checksum become (or stay) unchecked; an
    unreadable file is a mismatch with the reason recorded.
    """
    root = Path(manifest.root)
    for entry in manifest.files:
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
        raise IngestError(f"corpus root is not a directory: {root}")
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
        raise IngestError(f"not a directory: {directory}")
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
