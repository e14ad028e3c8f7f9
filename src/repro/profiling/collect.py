"""The ``perf record`` analog: run a program once with LBR + PEBS sampling
enabled and package the result as an :class:`ExecutionProfile` (§3.4 step
1-2: detect cache-miss-inducing loads, capture LBR profiles).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.machine.machine import Machine
from repro.profiling.profile import ExecutionProfile


def collect_profile(
    machine: Machine,
    function: str = "main",
    args: Sequence[int] = (),
    period: Optional[int] = None,
) -> ExecutionProfile:
    """Profile one run of ``function`` on ``machine``.

    Enables the machine's LBR/PEBS sampling for the duration of the run
    and restores the previous profiling state afterwards.  Sampling only
    observes, so the profile's ``value`` and ``counters`` are those of
    an unprofiled run of the same program.
    """
    previous_sampler = machine.sampler
    previous_lbr = machine.lbr
    sampler = machine.enable_profiling(period=period)
    try:
        result = machine.run(function, args)
    finally:
        machine.lbr = previous_lbr
        machine.sampler = previous_sampler
    profile = ExecutionProfile.from_sampler(
        sampler, counters=result.counters, function=function
    )
    profile.value = result.value
    return profile
