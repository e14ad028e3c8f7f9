"""Persistent ahead-of-time code cache for the compiled engines.

Compilation is redone in every process: the ``turbo`` tier regenerates
and ``compile()``s its fused steppers (plain and profiled, one cell,
from :mod:`repro.machine.batchturbo`), the translating engine its
whole-function module, on every worker spawn — BENCH_engines.json puts
the cold build at 0.1–0.4 s per workload.  This module makes both
compiled forms first-class content-addressed artifacts.  The ``fast``
engine name runs the turbo compiled form, so it is keyed as ``turbo``
(see :func:`repro.machine.config.compiled_identity`) and the two names
share one entry per function:

* **What is stored.**  Per compiled function, the generated sources
  plus their compiled code objects as base64 ``marshal`` blobs — the
  expensive step on a warm load is ``compile()`` of the generated
  source (tens of milliseconds per workload), so the cache stores the
  post-``compile`` code object and warm load is ``marshal.loads`` +
  ``exec`` (sub-millisecond).  Marshal payloads are only meaningful to
  the interpreter that wrote them, so ``sys.implementation.cache_tag``
  is part of the key: a different interpreter misses and recompiles.
* **Where.**  The content-addressed service store
  (:class:`repro.service.store.ArtifactStore`), under its own
  ``codecache`` kind, keyed by (IR fingerprint, engine, machine- and
  memory-config fingerprints, interpreter cache tag, codecache schema
  version).  The fingerprint of :class:`MachineConfig` excludes the
  ``code_cache`` path itself (see
  :func:`repro.service.store.config_fingerprint`), so identical work
  shares keys across cache locations.
* **Safety.**  Loads are validate-or-recompile: a payload that fails
  *any* check — schema or cache-tag mismatch, an embedded IR
  fingerprint that no longer matches the function (the staleness the
  mutation self-test plants), structural drift against the freshly
  built base, un-unmarshalable blobs — is counted as
  ``codecache.invalidated`` and falls back to fresh compilation, which
  re-puts the entry.  A corrupt on-disk entry is quarantined by the
  store layer before this module ever sees it.  Bit-identity is
  enforced by qa oracle axis #6: a cached-load run must be
  byte-identical to a fresh-compile run.

Construction goes through :func:`resolve`, a per-path registry shared
by every :class:`~repro.machine.machine.Machine` in the process, so one
warm service process unmarshals each function once
(``Machine._compiled`` caches per machine; the store serves every
machine after the first).  :class:`~repro.service.api.TuningService`
auto-enables the cache alongside its artifact cache directory and
attaches its metrics registry, so ``codecache.hits`` /
``codecache.misses`` / ``codecache.invalidated`` flow into
``metrics.json`` and ``repro.cli cache stats``.  The
``engine.codegen`` / ``engine.load`` telemetry spans make the
cold-vs-warm split visible per job.
"""

from __future__ import annotations

import base64
import hashlib
import marshal
import sys
import types
from typing import Optional

from repro.ir.printer import format_function
from repro.machine.batchturbo import FUSED_ENTRY, Superblock, compile_fused
from repro.machine.blockengine import BlockCompiledFunction, compile_blocks
from repro.machine.config import MachineConfig, compiled_identity
from repro.machine.interpreter import ExecutionLimitExceeded
from repro.machine.sampler import NEVER
from repro.machine.translator import CompiledFunction, compile_function
from repro.obs import telemetry as obs_telemetry

#: Bump when the generated stepper code changes (or the payload
#: layout does): it is the only codegen version in the key, so old
#: entries then miss and are rewritten instead of being served.
#: Schema 5: one-cell steppers take the ``(R, st, cd, PT)`` signature
#: the N-cell ones have.
CODECACHE_SCHEMA = 5

#: Engines whose compiled form is cacheable; ``reference`` interprets.
CACHEABLE_ENGINES = ("turbo", "fast", "translate")

#: ``code_cache`` / ``REPRO_CODE_CACHE`` spellings that mean "off".
DISABLED_VALUES = frozenset({"", "0", "off", "none", "disabled"})


def ir_fingerprint(function) -> str:
    """Stable digest of one finalized IR function (its printed form,
    which includes pcs, so any IR or layout change shifts it)."""
    text = format_function(function)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class CodeCacheInvalid(Exception):
    """A cached payload failed validation (stale, torn, or foreign)."""


# ----------------------------------------------------------------------
# Marshal-blob helpers
# ----------------------------------------------------------------------
def _encode_code(source: str, filename: str) -> str:
    """Compile generated source and return the code object as a base64
    marshal blob (ASCII, JSON-safe)."""
    code = compile(source, filename, "exec")
    return base64.b64encode(marshal.dumps(code)).decode("ascii")


def _exec_blob(blob, namespace: dict, entry: str):
    """Unmarshal + exec one cached code blob; returns ``entry`` from the
    namespace.  Raises :class:`CodeCacheInvalid` on anything suspect."""
    if not isinstance(blob, str):
        raise CodeCacheInvalid("code blob is not a string")
    try:
        code = marshal.loads(base64.b64decode(blob.encode("ascii")))
    except (ValueError, EOFError, TypeError) as exc:
        raise CodeCacheInvalid(f"unmarshalable code blob: {exc}") from exc
    if not isinstance(code, types.CodeType):
        raise CodeCacheInvalid("blob did not decode to a code object")
    exec(code, namespace)  # noqa: S102 - our own serialized codegen
    fn = namespace.pop(entry, None)  # no function <-> globals cycle
    if not callable(fn):
        raise CodeCacheInvalid(f"cached module defines no {entry}()")
    return fn


# ----------------------------------------------------------------------
# Per-engine pack/load
# ----------------------------------------------------------------------
def _pack_turbo(compiled: BlockCompiledFunction) -> dict:
    name = compiled.function.name
    superblocks = []
    for sb in compiled._superblocks:
        if sb is None:
            superblocks.append(None)
            continue
        tag = f"{name}:{sb.header}"
        superblocks.append(
            {
                "header": sb.header,
                "path": list(sb.path),
                "depth": sb.depth,
                "bound_cycles": sb.bound_cycles,
                "bound_retired": sb.bound_retired,
                "source": sb.source,
                "source_profiled": sb.source_profiled,
                "code": _encode_code(sb.source, f"<fused:{tag}:cached>"),
                "code_profiled": _encode_code(
                    sb.source_profiled, f"<fused:{tag}:profiled:cached>"
                ),
            }
        )
    return {"superblocks": superblocks}


def _load_turbo(
    payload: dict, function, config: MachineConfig
) -> BlockCompiledFunction:
    base = compile_blocks(function, config)
    entries = payload.get("superblocks")
    if not isinstance(entries, list) or len(entries) != len(base._blocks):
        raise CodeCacheInvalid("superblock table shape drifted")
    superblocks: list = [None] * len(entries)
    for index, entry in enumerate(entries):
        if entry is None:
            continue
        if not isinstance(entry, dict):
            raise CodeCacheInvalid("superblock entry is not a mapping")
        header = entry.get("header")
        if base.block_index.get(header) != index:
            raise CodeCacheInvalid(f"header {header!r} drifted")
        bound_retired = entry.get("bound_retired")
        bound_cycles = entry.get("bound_cycles")
        # bound_retired is a divisor in the dispatch loop; bound_cycles
        # paces the bulk guard.  Either <1 would wedge or crash a run.
        if (
            not isinstance(bound_retired, int)
            or bound_retired < 1
            or not isinstance(bound_cycles, int)
            or bound_cycles < 1
        ):
            raise CodeCacheInvalid("implausible superblock bounds")
        source = entry.get("source")
        source_profiled = entry.get("source_profiled")
        if not isinstance(source, str) or not isinstance(source_profiled, str):
            raise CodeCacheInvalid("superblock sources missing")
        superblocks[index] = Superblock(
            header=header,
            path=tuple(entry.get("path", ())),
            depth=int(entry.get("depth", 1)),
            run=_exec_blob(entry.get("code"), {}, FUSED_ENTRY),
            source=source,
            run_profiled=_exec_blob(
                entry.get("code_profiled"), {}, FUSED_ENTRY
            ),
            source_profiled=source_profiled,
            bound_cycles=bound_cycles,
            bound_retired=bound_retired,
        )
    base.fuse(tuple(superblocks))
    return base


def _pack_translate(compiled: CompiledFunction) -> dict:
    return {
        "source": compiled.source,
        "code": _encode_code(
            compiled.source, f"<translated:{compiled.function.name}:cached>"
        ),
    }


def _load_translate(
    payload: dict, function, config: MachineConfig
) -> CompiledFunction:
    source = payload.get("source")
    if not isinstance(source, str):
        raise CodeCacheInvalid("translated source missing")
    namespace = {
        "NEVER": NEVER,
        "ExecutionLimitExceeded": ExecutionLimitExceeded,
    }
    fn = _exec_blob(payload.get("code"), namespace, "__translated")
    return CompiledFunction(function, source, fn)


# ----------------------------------------------------------------------
# The cache proper
# ----------------------------------------------------------------------
class CodeCache:
    """Content-addressed persistence for one cache directory.

    Thin stateful wrapper over an :class:`ArtifactStore`: builds keys,
    validates payloads, counts hits/misses/invalidations (mirrored into
    every attached :class:`MetricsRegistry` as ``codecache.*``), and
    falls back to fresh compilation on any load failure.
    """

    KIND = "codecache"

    def __init__(self, root, metrics=None) -> None:
        # Imported lazily: repro.service imports the machine layer at
        # module scope, so a module-level import here would be circular.
        from repro.service.store import ArtifactStore

        self.root = str(root)
        self.store = ArtifactStore(root)
        self.hits = 0
        self.misses = 0
        self.invalidated = 0
        self.put_errors = 0
        self._metrics: list = []
        if metrics is not None:
            self.attach_metrics(metrics)

    # ------------------------------------------------------------------
    def attach_metrics(self, registry) -> None:
        """Mirror this cache's counters into ``registry`` from now on."""
        if registry is not None and all(
            registry is not attached for attached in self._metrics
        ):
            self._metrics.append(registry)

    def _count(self, name: str) -> None:
        setattr(self, name, getattr(self, name) + 1)
        for registry in self._metrics:
            registry.inc(f"codecache.{name}")

    def stats(self) -> dict:
        return {
            "root": self.root,
            "hits": self.hits,
            "misses": self.misses,
            "invalidated": self.invalidated,
            "put_errors": self.put_errors,
        }

    # ------------------------------------------------------------------
    def key(self, function, config: MachineConfig, engine: str):
        from repro.service.store import CacheKey, config_fingerprint

        config, engine = compiled_identity(config, engine)
        return CacheKey.make(
            self.KIND,
            function.name,
            "-",  # codegen does not depend on workload scale
            config_fingerprint(config),
            engine=engine,
            mem=config_fingerprint(config.memory),
            ir=ir_fingerprint(function),
            cache_tag=sys.implementation.cache_tag,
            codecache_schema=CODECACHE_SCHEMA,
        )

    # ------------------------------------------------------------------
    def load_or_compile(self, function, config: MachineConfig, engine: str):
        """The Machine-facing entry point: cached load when possible,
        fresh compile (recorded, re-put) otherwise."""
        config, engine = compiled_identity(config, engine)
        if engine == "turbo":
            build, pack, load = compile_fused, _pack_turbo, _load_turbo
        else:
            build, pack, load = compile_function, _pack_translate, _load_translate

        key = self.key(function, config, engine)
        fingerprint = dict(key.params)["ir"]
        payload = self.store.get(key)
        if payload is not None:
            try:
                compiled = self._validate_and_load(
                    payload, function, config, engine, fingerprint, load
                )
            except Exception:
                # Any failure shape — stale module, torn blob, drifted
                # structure — degrades to a recompile, never a crash.
                self._count("invalidated")
            else:
                self._count("hits")
                return compiled
        else:
            self._count("misses")

        with obs_telemetry.phase(
            "engine.codegen", workload=function.name, engine=engine
        ):
            compiled = build(function, config)
        try:
            body = pack(compiled)
            body.update(
                schema=CODECACHE_SCHEMA,
                engine=engine,
                function=function.name,
                ir=fingerprint,
                cache_tag=sys.implementation.cache_tag,
            )
            self.store.put(key, body)
        except Exception:
            # A read-only or full cache directory must not break runs.
            self._count("put_errors")
        return compiled

    def _validate_and_load(
        self, payload, function, config, engine, fingerprint, load
    ):
        with obs_telemetry.phase(
            "engine.load", workload=function.name, engine=engine
        ):
            if payload.get("schema") != CODECACHE_SCHEMA:
                raise CodeCacheInvalid("codecache schema mismatch")
            if payload.get("engine") != engine:
                raise CodeCacheInvalid("engine mismatch")
            if payload.get("function") != function.name:
                raise CodeCacheInvalid("function name mismatch")
            if payload.get("cache_tag") != sys.implementation.cache_tag:
                raise CodeCacheInvalid("interpreter cache tag mismatch")
            # The embedded fingerprint is the staleness detector: a
            # payload planted (or left) under this key for different IR
            # must be rejected before any of its code runs.
            if payload.get("ir") != fingerprint:
                raise CodeCacheInvalid("stale IR fingerprint")
            return load(payload, function, config)


# ----------------------------------------------------------------------
# Process-wide registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, CodeCache] = {}


def resolve(path, metrics=None) -> Optional[CodeCache]:
    """The process-wide :class:`CodeCache` for ``path`` (shared by every
    Machine and service pointing at the same directory), or ``None``
    when ``path`` is unset or a disabled spelling ("off", "0", "none").
    """
    if path is None:
        return None
    text = str(path)
    if text.strip().lower() in DISABLED_VALUES:
        return None
    import os

    resolved = os.path.abspath(text)
    cache = _REGISTRY.get(resolved)
    if cache is None:
        cache = CodeCache(resolved)
        _REGISTRY[resolved] = cache
    if metrics is not None:
        cache.attach_metrics(metrics)
    return cache


def forget(path) -> None:
    """Drop one path's registered cache (for temp-dir lifetimes: the
    registry must not keep handing out a cache whose directory is gone).
    """
    if path is None:
        return
    import os

    _REGISTRY.pop(os.path.abspath(str(path)), None)


def reset_registry() -> None:
    """Drop every registered cache (test isolation hook)."""
    _REGISTRY.clear()
