"""Deliberately broken scratch engine copies (oracle self-tests).

A fuzzer that never fails proves nothing — these mutants prove the
differential oracle and the shrinker actually catch and minimize engine
bugs.  Each mutant is built by taking the *source* of a real engine
module, applying a tiny seeded defect (an off-by-one in the cycle
accounting, or a cycle charged per profiling sample), and executing
the mutated source into a scratch module —
the real engine module is never touched, so mutants are safe to build
inside a running test session.

A sequential mutant plugs into the oracle as an extra engine via the
``runners`` parameter: the returned factory builds a normal fast-engine
:class:`Machine` whose compiled-form cache is pre-populated from the
mutated block compiler (no fused loops, so every block runs through the
shared dispatch loop's per-block path), so every other layer (memory,
PMU, tracing, sampling) is the production code — exactly the situation
a real engine regression would create.  The N-cell mutant is a
``run_batch`` for :func:`repro.qa.oracle.check_batch`'s ``runner``.
"""

from __future__ import annotations

import inspect
import sys
import types

from repro.machine import batch, batchturbo, blockengine
from repro.machine.machine import Machine
from repro.qa.oracle import OracleConfig

#: Off-by-one target: the one block compiler's RET cost accounting
#: (shared by every cell count; the mutant runs it at one cell).  Every
#: program retires at least one RET, so any generated program exposes
#: the defect (cycles drift by +1 per function return).
_RET_NEEDLE = (
    "            elif op is Opcode.RET:\n"
    "                pending += cfg.branch_cost\n"
)
_RET_MUTATION = (
    "            elif op is Opcode.RET:\n"
    "                pending += cfg.branch_cost + 1\n"
)

#: The name the mutant engine appears under in the oracle matrix.
MUTANT_ENGINE = "fast-offbyone"


def _scratch_copy(
    real: types.ModuleType, needle: str, mutation: str, label: str,
    what: str,
) -> types.ModuleType:
    """Execute ``real``'s source with ``needle`` replaced by ``mutation``
    into a new module; ``real`` itself is never touched."""
    source = inspect.getsource(real)
    if needle not in source:
        raise RuntimeError(
            f"mutation anchor not found in {real.__name__} source; "
            f"update repro.qa.mutants after refactoring {what}"
        )
    mutated = source.replace(needle, mutation, 1)
    module = types.ModuleType(f"repro.machine._qa_{label}")
    filename = f"<qa-mutant:{label}>"
    module.__file__ = filename
    # Registered only while it executes: ``@dataclass`` looks its class's
    # module up in ``sys.modules``.
    sys.modules[module.__name__] = module
    try:
        exec(compile(mutated, filename, "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def offbyone_blockengine() -> types.ModuleType:
    """A scratch copy of :mod:`repro.machine.blockengine` with a seeded
    off-by-one in the RET cycle cost."""
    return _scratch_copy(
        blockengine, _RET_NEEDLE, _RET_MUTATION, "offbyone_blockengine",
        "the RET handling",
    )


def _block_runner(mutant: types.ModuleType, config: OracleConfig):
    """Machine factory running ``mutant``'s block compiler as ``fast``."""

    def make(module, space) -> Machine:
        machine = Machine(
            module, space, config=config.machine_config(), engine="fast"
        )
        for name, function in module.functions.items():
            machine._compiled[("fast", name)] = mutant.compile_blocks(
                function, machine.config
            )
        return machine

    return make


def offbyone_runner(config: OracleConfig):
    """Machine factory for the off-by-one mutant (pass to the oracle as
    ``runners={MUTANT_ENGINE: offbyone_runner(config)}``)."""
    return _block_runner(offbyone_blockengine(), config)


#: Off-by-one target for the turbo tier: the fused stepper's
#: iteration-count math.  The one fused-nest generator folds one
#: completed iteration's retired count into the running accumulator at
#: every back edge; adding one there makes every bulk-stepped loop
#: over-report ``instructions`` by its trip count — invisible to the
#: values/cycles checks, caught only by a counter-exact differential.
_TURBO_NEEDLE = '        self.emit(f"_rt += {rt}")\n'
_TURBO_MUTATION = '        self.emit(f"_rt += {rt} + 1")\n'

#: The name the turbo mutant engine appears under in the oracle matrix.
TURBO_MUTANT_ENGINE = "turbo-offbyone"


def offbyone_batchturbo() -> types.ModuleType:
    """A scratch copy of :mod:`repro.machine.batchturbo` with a seeded
    off-by-one in the back-edge retired-count accumulation."""
    return _scratch_copy(
        batchturbo, _TURBO_NEEDLE, _TURBO_MUTATION, "offbyone_batchturbo",
        "the back-edge accumulation",
    )


def turbo_offbyone_runner(config: OracleConfig):
    """Machine factory for the turbo off-by-one mutant (pass to the
    oracle as ``runners={TURBO_MUTANT_ENGINE: turbo_offbyone_runner(config)}``)."""
    mutant = offbyone_batchturbo()

    def make(module, space) -> Machine:
        machine = Machine(
            module, space, config=config.machine_config(), engine="turbo"
        )
        for name, function in module.functions.items():
            machine._compiled[("turbo", name)] = mutant.compile_fused(
                function, machine.config
            )
        return machine

    return make


#: Profiling-leak target: the shared dispatch loop's sample point
#: (profiled runs only).  Charging a cycle whenever a sample is taken
#: makes sampling perturb timing, the one defect the engine differential
#: cannot see when every engine shares it; only the oracle's
#: profiled-vs-unprofiled axis catches it.
_SAMPLE_NEEDLE = (
    "                if profiled and st.cycle >= st.next_sample:\n"
    "                    st.next_sample = st.take(st.cycle)\n"
)
_SAMPLE_MUTATION = (
    "                if profiled and st.cycle >= st.next_sample:\n"
    "                    st.cycle += 1\n"
    "                    st.next_sample = st.take(st.cycle)\n"
)

#: The name the profiling-leak mutant engine appears under.
PROFILING_MUTANT_ENGINE = "fast-sampleleak"


def sampleleak_blockengine() -> types.ModuleType:
    """A scratch copy of :mod:`repro.machine.blockengine` whose
    ``ProfileSampler.take`` call charges one cycle per sample."""
    return _scratch_copy(
        blockengine, _SAMPLE_NEEDLE, _SAMPLE_MUTATION,
        "sampleleak_blockengine", "the sample point",
    )


#: Off-by-one target for N cells: the per-cell JMP terminator, an op
#: only batched runs execute.  Every cell's clock drifts by +1 per JMP
#: dispatched outside a fused loop (an entry block's jump to its loop,
#: a fused loop's exit path), which only the batch axis can see.
_BATCH_NEEDLE = (
    "        R, st, ti=target_index, copies=copies, k=pending, rt=retired,\n"
    "        nl=nloads, ns=nstores,\n"
    "    ):\n"
    "        cycles = st.cycles\n"
    "        for i in range(len(cycles)):\n"
    "            cycles[i] += k\n"
)
_BATCH_MUTATION = _BATCH_NEEDLE.replace(
    "cycles[i] += k\n", "cycles[i] += k + 1\n"
)


def offbyone_batch() -> types.ModuleType:
    """A scratch copy of :mod:`repro.machine.batch` whose N-cell JMP
    terminator charges one cycle too many."""
    mutant = _scratch_copy(
        batch, _BATCH_NEEDLE, _BATCH_MUTATION, "offbyone_batch",
        "the N-cell JMP terminator",
    )
    # The generated steppers raise the real ShadowMismatch; the copy's
    # run_shadowed must catch that class, not its own.
    mutant.ShadowMismatch = batch.ShadowMismatch
    return mutant


def batch_offbyone_runner():
    """The off-by-one N-cell mutant's ``run_batch`` (pass to
    :func:`repro.qa.oracle.check_batch` as ``runner``)."""
    return offbyone_batch().run_batch


def profiling_mutant_oracle_setup(base: OracleConfig = None):
    """The (config, runners) pair for the profiling-leak mutant: the
    broken engine alone (no second engine to differ from), untraced
    'none' scheme, so only the profiling axis can catch it."""
    base = base or OracleConfig()
    from dataclasses import replace

    config = replace(
        base,
        engines=(PROFILING_MUTANT_ENGINE,),
        schemes=("none",),
        traced_modes=(False,),
    )
    return config, {
        PROFILING_MUTANT_ENGINE: _block_runner(
            sampleleak_blockengine(), config
        )
    }


def turbo_mutant_oracle_setup(base: OracleConfig = None):
    """The (config, runners) pair for a turbo-mutant differential run:
    the reference interpreter vs the broken bulk stepper, untraced
    'none' scheme only (tracing armed would bypass bulk stepping and
    hide the defect)."""
    base = base or OracleConfig()
    from dataclasses import replace

    config = replace(
        base,
        engines=("reference", TURBO_MUTANT_ENGINE),
        schemes=("none",),
        traced_modes=(False,),
    )
    return config, {TURBO_MUTANT_ENGINE: turbo_offbyone_runner(config)}


def mutant_oracle_setup(base: OracleConfig = None):
    """The (config, runners) pair for a mutant differential run: the
    reference interpreter vs the broken fast-engine copy, untraced
    'none' scheme only — the minimal matrix that still catches the bug."""
    base = base or OracleConfig()
    from dataclasses import replace

    config = replace(
        base,
        engines=("reference", MUTANT_ENGINE),
        schemes=("none",),
        traced_modes=(False,),
    )
    return config, {MUTANT_ENGINE: offbyone_runner(config)}
