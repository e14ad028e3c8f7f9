"""Content-addressed artifact store for the tuning service.

Artifacts (execution profiles, hint sets, scheme-run summaries, and
per-injection-site timeliness rollups under the ``sites`` kind) are
keyed by a stable SHA-256 digest of the :class:`CacheKey` — (artifact
kind, workload name, scale, machine-config fingerprint, extra params,
schema version) — and stored as schema-versioned JSON files:

    <root>/v<schema>/<kind>/<digest[:2]>/<digest>.json
    <root>/quarantine/            # corrupt entries, kept for debugging
    <root>/metrics.json           # cumulative service counters

Writes are atomic (write to a temp file in the destination directory,
then ``os.replace``), so a concurrent reader never observes a partial
entry.  Reads are corruption-tolerant: an entry that fails to parse, or
whose recorded key/schema does not match the request, is *quarantined*
(moved aside) and treated as a miss — a bad byte on disk degrades to a
recompute, never a crash.

:class:`MemoryStore` provides the same interface backed by an
in-process dict of serialized payloads keyed by the :class:`CacheKey`
itself; it is the default when no cache directory is configured and
gives the same fresh-objects-per-read guarantee (payloads are
re-decoded on every ``get``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.service.metrics import MetricsRegistry

#: Bump when the payload layout of any artifact kind changes; old
#: entries then miss (and are quarantined on read) instead of being
#: misinterpreted.
SCHEMA_VERSION = 1


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


#: Entries kept by :func:`config_fingerprint`'s memo before it is
#: emptied; a process holds a handful of live configs.
_FINGERPRINT_MEMO_SIZE = 256

#: ``id(config) -> (config, digest)``.  Keyed by identity, not equality:
#: configs that compare equal can still serialize differently
#: (``200 == 200.0``, ``True == 1``), and each must keep its own digest.
#: Holding the config keeps its id from being reused while the entry
#: lives.  Races between threads at most compute one digest twice.
_fingerprint_memo: dict[int, tuple[object, str]] = {}


def config_fingerprint(config) -> str:
    """Stable short digest of a (frozen, nested) dataclass config.

    Top-level fields the config names in a ``_NONSEMANTIC_FIELDS``
    class attribute (e.g. ``MachineConfig.code_cache``, a filesystem
    location) are dropped before hashing: they change where artifacts
    live, never what is computed, so identical work must share keys
    across cache locations.

    The digest is computed once per config object and memoized: configs
    are frozen, and callers that key many artifacts reuse the same
    objects.
    """
    entry = _fingerprint_memo.get(id(config))
    if entry is not None and entry[0] is config:
        return entry[1]
    digest = _digest_config(config)
    if len(_fingerprint_memo) >= _FINGERPRINT_MEMO_SIZE:
        _fingerprint_memo.clear()
    _fingerprint_memo[id(config)] = (config, digest)
    return digest


def _digest_config(config) -> str:
    data = dataclasses.asdict(config)
    for name in getattr(config, "_NONSEMANTIC_FIELDS", ()):
        data.pop(name, None)
    raw = canonical_json(data)
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class CacheKey:
    """Identity of one cached artifact."""

    kind: str  # "profile", "run", "sites", ...
    workload: str
    scale: str
    config: str  # machine-config fingerprint
    params: tuple[tuple[str, str], ...] = ()
    schema: int = SCHEMA_VERSION

    @classmethod
    def make(
        cls,
        kind: str,
        workload: str,
        scale: str,
        config: str,
        **params,
    ) -> "CacheKey":
        items = tuple(sorted((k, str(v)) for k, v in params.items()))
        return cls(
            kind=kind,
            workload=workload,
            scale=scale,
            config=config,
            params=items,
        )

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "workload": self.workload,
            "scale": self.scale,
            "config": self.config,
            "params": [list(pair) for pair in self.params],
            "schema": self.schema,
        }

    def digest(self) -> str:
        return hashlib.sha256(
            canonical_json(self.as_dict()).encode("utf-8")
        ).hexdigest()


def _encode_entry(key: CacheKey, payload: dict) -> str:
    return json.dumps(
        {"schema": key.schema, "key": key.as_dict(), "payload": payload},
        sort_keys=True,
    )


def _decode_entry(text: str, key: CacheKey) -> Optional[dict]:
    """Parse + validate an entry; None means corrupt/mismatched."""
    try:
        raw = json.loads(text)
    except (ValueError, TypeError):
        return None
    if not isinstance(raw, dict) or "payload" not in raw:
        return None
    if raw.get("schema") != key.schema or raw.get("key") != key.as_dict():
        return None
    return raw["payload"]


class ArtifactStore:
    """Disk-backed store; see module docstring for the on-disk layout."""

    def __init__(
        self,
        root: str | os.PathLike,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.root = Path(root)
        self.metrics = metrics or MetricsRegistry()
        self.version_dir = self.root / f"v{SCHEMA_VERSION}"
        self.quarantine_dir = self.root / "quarantine"

    # ------------------------------------------------------------------
    def _entry_path(self, key: CacheKey) -> Path:
        digest = key.digest()
        return self.version_dir / key.kind / digest[:2] / f"{digest}.json"

    def get(self, key: CacheKey) -> Optional[dict]:
        path = self._entry_path(key)
        try:
            text = path.read_text()
        except OSError:
            return None
        payload = _decode_entry(text, key)
        if payload is None:
            self._quarantine(path)
        return payload

    def put(self, key: CacheKey, payload: dict) -> None:
        path = self._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=".tmp-", suffix=".json", dir=path.parent
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(_encode_entry(key, payload))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside instead of failing or re-reading it."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        target = self.quarantine_dir / path.name
        suffix = 0
        while target.exists():
            suffix += 1
            target = self.quarantine_dir / f"{path.name}.{suffix}"
        try:
            os.replace(path, target)
        except OSError:
            pass
        self.metrics.inc("cache.quarantined")
        self.metrics.event("cache.quarantine", path=str(path))

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Entry counts per kind + total size + quarantine count."""
        by_kind: dict[str, int] = {}
        size = 0
        if self.version_dir.is_dir():
            for kind_dir in sorted(self.version_dir.iterdir()):
                if not kind_dir.is_dir():
                    continue
                count = 0
                for entry in kind_dir.glob("*/*.json"):
                    if entry.name.startswith("."):
                        # A concurrent writer's not-yet-renamed temp
                        # file (or a crashed writer's leftover) is not
                        # an entry; pathlib's glob matches dotfiles.
                        continue
                    count += 1
                    try:
                        size += entry.stat().st_size
                    except OSError:
                        pass
                by_kind[kind_dir.name] = count
        quarantined = (
            sum(1 for _ in self.quarantine_dir.iterdir())
            if self.quarantine_dir.is_dir()
            else 0
        )
        return {
            "root": str(self.root),
            "schema": SCHEMA_VERSION,
            "entries": sum(by_kind.values()),
            "by_kind": by_kind,
            "size_bytes": size,
            "quarantined": quarantined,
        }

    def clear(self) -> int:
        """Delete every entry (and quarantined file); returns count removed."""
        removed = 0
        for directory in (self.version_dir, self.quarantine_dir):
            if not directory.is_dir():
                continue
            for path in sorted(
                directory.rglob("*"), key=lambda p: len(p.parts), reverse=True
            ):
                try:
                    if path.is_dir():
                        path.rmdir()
                    else:
                        path.unlink()
                        removed += 1
                except OSError:
                    pass
            try:
                directory.rmdir()
            except OSError:
                pass
        return removed

    # ------------------------------------------------------------------
    # Cumulative metrics persistence (shared by `cache stats` across
    # processes: each service flushes its counter deltas here).
    # ------------------------------------------------------------------
    @property
    def metrics_path(self) -> Path:
        return self.root / "metrics.json"

    def read_metrics(self) -> dict[str, int]:
        try:
            raw = json.loads(self.metrics_path.read_text())
        except (OSError, ValueError):
            return {}
        counters = raw.get("counters", {})
        if not isinstance(counters, dict):
            return {}
        return {
            str(k): int(v)
            for k, v in counters.items()
            if isinstance(v, (int, float))
        }

    def merge_metrics(self, deltas: dict[str, int]) -> None:
        """Atomically add counter deltas into ``metrics.json``.

        The read-modify-write cycle is guarded by a best-effort lock
        file so two processes flushing at once cannot clobber each
        other's deltas (multi-*process* agents should still prefer the
        per-pid snapshot protocol in :mod:`repro.service.metrics`, which
        needs no cross-process coordination at all).
        """
        if not any(deltas.values()):
            return
        self.root.mkdir(parents=True, exist_ok=True)
        with self._metrics_lock():
            counters = self.read_metrics()
            for name, delta in deltas.items():
                counters[name] = counters.get(name, 0) + delta
            fd, tmp_name = tempfile.mkstemp(
                prefix=".tmp-metrics-", suffix=".json", dir=self.root
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(
                        json.dumps({"counters": counters}, sort_keys=True)
                    )
                os.replace(tmp_name, self.metrics_path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise

    @contextmanager
    def _metrics_lock(self, timeout: float = 5.0, stale: float = 30.0):
        """O_EXCL spin lock around the metrics read-modify-write.

        Best-effort by design: a lock older than ``stale`` seconds is
        presumed orphaned (its holder crashed) and broken; failing to
        acquire within ``timeout`` proceeds unlocked rather than
        wedging the caller — a rare double-count beats a deadlock.
        """
        lock_path = self.root / "metrics.lock"
        deadline = time.monotonic() + timeout
        fd = None
        while True:
            try:
                fd = os.open(
                    lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
                break
            except FileExistsError:
                try:
                    age = time.time() - lock_path.stat().st_mtime
                    if age > stale:
                        lock_path.unlink()
                        continue
                except OSError:
                    pass
                if time.monotonic() >= deadline:
                    break
                time.sleep(0.005)
        try:
            yield
        finally:
            if fd is not None:
                os.close(fd)
                try:
                    lock_path.unlink()
                except OSError:
                    pass


class MemoryStore:
    """Dict-backed store with the same interface as :class:`ArtifactStore`.

    Entries are keyed by the :class:`CacheKey` itself (two keys made by
    :meth:`CacheKey.make` are equal exactly when their digests are), so
    a lookup computes no digest.
    Payloads are held *serialized* and re-decoded on every ``get``, so a
    cache hit always returns fresh objects — callers mutating a returned
    artifact can never poison the cache (the aliasing hazard the old
    ``lru_cache`` layer had).
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics or MetricsRegistry()
        self._entries: dict[CacheKey, str] = {}

    def get(self, key: CacheKey) -> Optional[dict]:
        text = self._entries.get(key)
        if text is None:
            return None
        return json.loads(text)

    def put(self, key: CacheKey, payload: dict) -> None:
        self._entries[key] = json.dumps(payload, sort_keys=True)

    def stats(self) -> dict:
        by_kind: dict[str, int] = {}
        for key in self._entries:
            by_kind[key.kind] = by_kind.get(key.kind, 0) + 1
        return {
            "root": None,
            "schema": SCHEMA_VERSION,
            "entries": len(self._entries),
            "by_kind": dict(sorted(by_kind.items())),
            "size_bytes": sum(len(t) for t in self._entries.values()),
            "quarantined": 0,
        }

    def clear(self) -> int:
        removed = len(self._entries)
        self._entries.clear()
        return removed

    def read_metrics(self) -> dict[str, int]:
        return {}

    def merge_metrics(self, deltas: dict[str, int]) -> None:
        pass
