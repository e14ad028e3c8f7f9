"""Machine configuration: core cost model + memory hierarchy + profiling.

All costs are integer cycles so both execution engines (reference
interpreter and translating engine) produce bit-identical timing.

The core is a blocking in-order pipeline: ALU work costs
``alu_cost``/instruction, demand loads pay the full latency of the level
that serves them, software prefetches are non-blocking.  This is the
minimal machine on which prefetch *timeliness* — the paper's subject — is
observable.  It under-models out-of-order memory-level parallelism, so
absolute speedups exceed the paper's; shapes and orderings are preserved
(see EXPERIMENTS.md).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import ClassVar, Optional

from repro.mem.config import CacheConfig, MemoryConfig

#: Canonical engine names, fastest first.
#:
#: * ``turbo`` — closure-chain blocks (repro.machine.blockengine) plus
#:   fused hot-loop superblocks with steady-state bulk stepping, from
#:   the one fused-nest generator (repro.machine.batchturbo).
#: * ``fast`` — the default name; runs exactly turbo's compiled form.
#:   It is not an alias: v1 results report it and request/dedup keys
#:   keep it apart from ``turbo``; what a run computes (code-cache,
#:   ``sim``, ``profile`` and ``lbr`` entries) is keyed by
#:   :func:`compiled_identity` and shared with ``turbo``.
#: * ``translate`` — source-codegen engine (repro.machine.translator).
#: * ``reference`` — the obviously-correct interpreter the others are
#:   differentially tested against (repro.machine.interpreter).
ENGINES = ("turbo", "fast", "translate", "reference")

#: Legacy spellings still accepted (Machine warns on explicit use).
ENGINE_ALIASES = {"interpret": "reference"}


def normalize_engine(engine: str) -> str:
    """Map aliases to canonical names; reject unknown engines."""
    canonical = ENGINE_ALIASES.get(engine, engine)
    if canonical not in ENGINES:
        known = ENGINES + tuple(ENGINE_ALIASES)
        raise ValueError(f"engine must be one of {known}, got {engine!r}")
    return canonical


def compiled_identity(
    config: "MachineConfig", engine: str
) -> tuple["MachineConfig", str]:
    """The (config, engine) whose compiled code a run of ``engine``
    under ``config`` executes.  ``fast`` runs turbo's compiled form, so
    it maps to ``turbo``; whenever the engine is one of the two, the
    config maps to one whose ``engine`` is ``turbo`` too: keys built
    from the result are shared by the two names whichever the config
    names, and a turbo config's own keys are unchanged.  Every other
    engine maps to itself.  The mapped config is built once per config
    object (so its fingerprint memo holds)."""
    if engine not in ("turbo", "fast"):
        return config, engine
    if config.engine == "turbo":
        return config, "turbo"
    entry = _compiled_memo.get(id(config))
    if entry is None or entry[0] is not config:
        if len(_compiled_memo) >= _COMPILED_MEMO_SIZE:
            _compiled_memo.clear()
        entry = (config, replace(config, engine="turbo"))
        _compiled_memo[id(config)] = entry
    return entry[1], "turbo"


#: id(config) -> (config, its turbo-engine twin); emptied when full.
_compiled_memo: dict[int, tuple["MachineConfig", "MachineConfig"]] = {}
_COMPILED_MEMO_SIZE = 256


def _default_engine() -> str:
    """Session default: the REPRO_ENGINE env var, else ``fast``."""
    return normalize_engine(os.environ.get("REPRO_ENGINE", "fast"))


def _default_code_cache() -> Optional[str]:
    """Session default: the REPRO_CODE_CACHE env var (a cache directory,
    or a disabled spelling like ``off``), else None (no persistent code
    cache; :class:`~repro.service.api.TuningService` still auto-enables
    one alongside its artifact cache directory)."""
    return os.environ.get("REPRO_CODE_CACHE") or None


def paper_like_memory() -> MemoryConfig:
    """Memory hierarchy loosely mirroring Table 2's Xeon Gold 5218,
    capacities scaled ~1/16 to 1/40 (so scaled-down workload footprints
    keep the paper's working-set : LLC ratio), with effective (pipelined)
    L1 latency and level-latency ratios preserved."""
    return MemoryConfig(
        l1=CacheConfig("L1D", 8 * 1024, 8, 2),
        l2=CacheConfig("L2", 64 * 1024, 8, 12),
        llc=CacheConfig("LLC", 512 * 1024, 16, 40),
        dram_latency=360,
        mshr_entries=48,
    )


@dataclass(frozen=True)
class MachineConfig:
    """Everything the execution engines need to know."""

    memory: MemoryConfig = field(default_factory=paper_like_memory)

    #: Which execution engine Machine uses by default.  All engines are
    #: bit-identical in timing and counters; this knob only trades
    #: startup cost vs steady-state speed (and selects the reference
    #: interpreter for differential testing).  Defaults to the
    #: ``REPRO_ENGINE`` environment variable, else ``fast``.
    engine: str = field(default_factory=_default_engine)

    #: Persistent AOT code cache directory for the pure-codegen engines
    #: (turbo superblocks, the translating engine) — see
    #: :mod:`repro.machine.codecache`.  None disables; so do the
    #: spellings in ``codecache.DISABLED_VALUES`` ("off", "0", "none"),
    #: which is how a caller overrides a service's auto-enable.
    #: Defaults to the ``REPRO_CODE_CACHE`` environment variable.
    #:
    #: Non-semantic: the knob changes where compiled artifacts live,
    #: never what any engine computes, so it is excluded from
    #: :func:`repro.service.store.config_fingerprint` (artifact keys
    #: stay identical across cache locations).
    code_cache: Optional[str] = field(default_factory=_default_code_cache)

    # Core cost model (integer cycles).
    alu_cost: int = 1
    branch_cost: int = 1
    prefetch_cost: int = 1
    work_cpi: int = 1

    # Profiling hardware.
    lbr_entries: int = 32  # Intel LBR depth on the paper's machine
    lbr_sample_period: int = 20_000  # cycles between LBR snapshots
    #: Loads with latency >= this are PEBS-sampled (perf mem ldlat style);
    #: 0 means "derive from the LLC latency" (LLC hit latency + 1).
    pebs_latency_threshold: int = 0

    # Safety net against runaway programs.
    max_instructions: int = 2_000_000_000

    #: Fields dropped from config_fingerprint (see ``code_cache`` above).
    _NONSEMANTIC_FIELDS: ClassVar[tuple[str, ...]] = ("code_cache",)

    def __post_init__(self) -> None:
        object.__setattr__(self, "engine", normalize_engine(self.engine))

    def effective_pebs_threshold(self) -> int:
        if self.pebs_latency_threshold > 0:
            return self.pebs_latency_threshold
        return self.memory.llc.latency + 1

    def with_memory(self, memory: MemoryConfig) -> "MachineConfig":
        return replace(self, memory=memory)


DEFAULT_CONFIG = MachineConfig()
