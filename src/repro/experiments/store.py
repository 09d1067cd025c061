"""Sharded, content-addressed result store: the one durable result format.

Every simulated run — from a sweep, a ``Session``, the autotuner or the
sweep service — lands here.  Two planes:

* the **object plane** — one JSON payload per *content digest* (sha256
  over the counter body, see :func:`payload_digest`), sharded by the
  first :data:`SHARD_WIDTH` hex characters so a million objects never
  melt one directory.  Identical counters from any number of configs or
  tenants are one object: content addressing *is* the dedup.
* the **link plane** — one tiny index entry per link name mapping it to
  a digest.  The executor names a config's link
  ``v<MODEL_VERSION>-<RunConfig.key()>``, so a model bump orphans every
  stale result instead of serving it.

Both planes share one durability contract (:func:`_write_atomic`: tmp +
fsync + ``os.replace`` + directory fsync) and digest-verified reads.  A
torn or bit-rotted object fails its digest check on
:meth:`ResultStore.get`, is discarded and counted; a torn link is
discarded and counted the same way.  The caller re-simulates.

Only the standard library is imported here, so every importer — down to
the sweep workers — pays nothing for the store.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

#: hex characters of the digest used as the shard directory name; 2
#: gives 256 shards, plenty for any plausible object count here.
SHARD_WIDTH = 2

#: ``__*`` metadata kept in a stored object next to its digest stamp:
#: the solver convergence record and a traced job's trace id.  Any other
#: reserved key (e.g. a verdict annotation) is dropped on put.
KEPT_METADATA = ("__solve__", "__trace__")


def payload_digest(payload: dict) -> str:
    """Content digest over the counter data (reserved ``__*`` metadata
    keys excluded, so annotations never perturb it)."""
    body = {k: v for k, v in payload.items() if not k.startswith("__")}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode()).hexdigest()


@dataclass
class StoreStats:
    """One store instance's accounting (in-memory tallies)."""

    #: payloads stored by this instance (a fresh object was written).
    puts: int = 0
    #: put() calls that found the object already present (the same
    #: counters were stored before, by any config or tenant).
    dedup_hits: int = 0
    #: lookups served from the store.
    hits: int = 0
    #: corrupt objects (digest mismatch / torn JSON) discarded on read.
    corrupt_discarded: int = 0
    #: corrupt link entries discarded on read.
    corrupt_links: int = 0

    def to_dict(self) -> dict:
        return {"puts": self.puts, "dedup_hits": self.dedup_hits,
                "hits": self.hits,
                "corrupt_discarded": self.corrupt_discarded,
                "corrupt_links": self.corrupt_links}


def _write_atomic(target: Path, text: str) -> None:
    """Atomic durable write: a crash at any instant leaves either the
    old file or the complete new one under *target*, never a torn one."""
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name,
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
        try:
            dir_fd = os.open(target.parent, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError:  # pragma: no cover - platform without dir fsync
            pass
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultStore:
    """Content-addressed payload store under ``root``.

    Layout::

        root/objects/<aa>/<digest>.json    one counter payload per digest
        root/links/<name>.json             {"key": name, "digest": ...}
    """

    def __init__(self, root: str | os.PathLike, metrics=None):
        self.root = Path(root)
        # reads join plain strings: a warm sweep does one lookup per
        # config, and pathlib parsing would be a visible share of it.
        self._root = os.fspath(root)
        self.stats = StoreStats()
        #: optional MetricsRegistry mirroring ``stats`` into the
        #: telemetry plane (``store_*_total`` counters).
        self.metrics = metrics

    @property
    def objects(self) -> Path:
        return self.root / "objects"

    @property
    def links(self) -> Path:
        return self.root / "links"

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    # -- object plane ------------------------------------------------------

    def _object_file(self, digest: str) -> str:
        return os.path.join(self._root, "objects", digest[:SHARD_WIDTH],
                            digest + ".json")

    def object_path(self, digest: str) -> Path:
        return Path(self._object_file(digest))

    def put(self, payload: dict) -> str:
        """Store one counter payload; returns its content digest.

        The digest is computed over the counter body (``__*`` metadata
        keys excluded), so the same simulation result always lands on
        the same object regardless of annotations.  An existing object
        is left untouched (``dedup_hits``).  The :data:`KEPT_METADATA`
        keys ride along into a fresh object.
        """
        digest = payload_digest(payload)
        path = self.object_path(digest)
        if path.exists():
            self.stats.dedup_hits += 1
            self._count("store_dedup_hits_total")
            return digest
        body = {k: v for k, v in payload.items()
                if not k.startswith("__") or k in KEPT_METADATA}
        body["__digest__"] = digest
        _write_atomic(path, json.dumps(body, sort_keys=True))
        self.stats.puts += 1
        self._count("store_puts_total")
        return digest

    def get(self, digest: str) -> Optional[dict]:
        """Fetch one payload by digest; a torn / bit-rotted object fails
        verification, is deleted, and returns ``None``."""
        path = self._object_file(digest)
        try:
            with open(path, "rb") as fh:
                text = fh.read()
        except OSError:
            return None
        try:
            data = json.loads(text)
            if not isinstance(data, dict):
                raise TypeError("store object must be a JSON object")
            if data.get("__digest__") != digest:
                raise ValueError("store object digest mismatch")
            if payload_digest(data) != digest:
                raise ValueError("store object content drifted")
        except (TypeError, ValueError):  # incl. JSONDecodeError
            self.stats.corrupt_discarded += 1
            self._count("store_corrupt_objects_total")
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            return None
        return data

    # -- link plane --------------------------------------------------------

    def _link_file(self, name: str) -> str:
        return os.path.join(self._root, "links", name + ".json")

    def link_path(self, name: str) -> Path:
        return Path(self._link_file(name))

    def link(self, name: str, digest: str) -> None:
        """Bind a link name to a result digest (atomic, durable)."""
        _write_atomic(self.link_path(name),
                      json.dumps({"key": name, "digest": digest},
                                 sort_keys=True))

    def digest_for(self, name: str) -> Optional[str]:
        """The digest a link name resolves to, if linked."""
        path = self._link_file(name)
        try:
            with open(path, "rb") as fh:
                text = fh.read()
        except OSError:
            return None
        try:
            digest = json.loads(text)["digest"]
            if not isinstance(digest, str) or not digest:
                raise ValueError("empty digest")
        except (TypeError, KeyError, ValueError):
            self.stats.corrupt_links += 1
            self._count("store_corrupt_links_total")
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            return None
        return digest

    def lookup(self, name: str) -> Optional[dict]:
        """Resolve a link name to its payload; ``None`` when unlinked or
        when the link or the object failed verification."""
        digest = self.digest_for(name)
        if digest is None:
            return None
        payload = self.get(digest)
        if payload is not None:
            self.stats.hits += 1
            self._count("store_hits_total")
        return payload

    # -- accounting --------------------------------------------------------

    def object_count(self) -> int:
        return sum(1 for _ in self.objects.glob("*/*.json"))

    def link_count(self) -> int:
        return sum(1 for _ in self.links.glob("*.json"))

    def health(self) -> dict:
        return {"objects": self.object_count(), "links": self.link_count(),
                **self.stats.to_dict()}
