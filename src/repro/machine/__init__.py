"""Execution machinery: cost model, PMU, LBR, samplers, and engines."""

from repro.machine.batch import (
    BatchCell,
    BatchDivergence,
    BatchMachine,
    BatchOutcome,
    run_batch,
)
from repro.machine.batchturbo import compile_fused
from repro.machine.blockengine import BlockCompiledFunction, compile_blocks
from repro.machine.config import (
    DEFAULT_CONFIG,
    ENGINE_ALIASES,
    ENGINES,
    MachineConfig,
    normalize_engine,
    paper_like_memory,
)
from repro.machine.context import ExecutionContext
from repro.machine.interpreter import ExecutionLimitExceeded, run_function
from repro.machine.lbr import LastBranchRecord, LBREntry, NullLBR
from repro.machine.machine import Machine, RunResult
from repro.machine.pmu import Counters, PerfStat
from repro.machine.sampler import ProfileSampler
from repro.machine.translator import CompiledFunction, compile_function

__all__ = [
    "BatchCell",
    "BatchDivergence",
    "BatchMachine",
    "BatchOutcome",
    "BlockCompiledFunction",
    "CompiledFunction",
    "Counters",
    "DEFAULT_CONFIG",
    "ENGINE_ALIASES",
    "ENGINES",
    "ExecutionContext",
    "ExecutionLimitExceeded",
    "LBREntry",
    "LastBranchRecord",
    "Machine",
    "MachineConfig",
    "NullLBR",
    "PerfStat",
    "ProfileSampler",
    "RunResult",
    "compile_blocks",
    "compile_function",
    "compile_fused",
    "normalize_engine",
    "paper_like_memory",
    "run_batch",
    "run_function",
]
