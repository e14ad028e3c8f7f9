"""The default ``fast`` engine name runs turbo's superblock code.

``fast`` stays a canonical engine name — it is the ``MachineConfig``
default, every v1 result reports it, and it is part of every request
and dedup key — but it compiles to the same fused
:class:`~repro.machine.blockengine.BlockCompiledFunction` the ``turbo``
name does (:func:`~repro.machine.batchturbo.compile_fused`), shares
its code-cache and simulation entries, and produces the same
observations bit for bit.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.api as api
from repro.machine import codecache
from repro.machine.blockengine import BlockCompiledFunction
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.service.api import TuningService
from repro.workloads.registry import TINY_SUITE, make_workload

from tests.conftest import build_sum_loop


def test_fast_engine_compiles_the_turbo_form():
    module, space, expected = build_sum_loop()
    machine = Machine(module, space, engine="fast")
    assert machine.run("main").value == expected
    compiled = machine._compiled[("fast", "main")]
    assert isinstance(compiled, BlockCompiledFunction)
    assert compiled.superblocks()


def _observe(name: str, engine: str, traced: bool):
    workload = make_workload(name, "tiny")
    module, space = workload.build()
    machine = Machine(module, space, config=MachineConfig(), engine=engine)
    machine.enable_profiling()
    if traced:
        machine.enable_tracing()
    result = machine.run(workload.entry)
    sampler = machine.sampler
    observation = (
        result.value,
        result.counters.as_dict(),
        [tuple(snapshot) for snapshot in sampler.samples],  # LBR
        dict(sampler.load_miss_counts),  # PEBS
        dict(sampler.load_miss_latency),
    )
    return observation, machine.engine_run_stats()


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(TINY_SUITE))
def test_fast_and_turbo_names_are_bit_identical(name, traced):
    fast, fast_stats = _observe(name, "fast", traced)
    turbo, turbo_stats = _observe(name, "turbo", traced)
    assert fast == turbo
    assert fast[2] and fast[3]  # the run did sample LBR and PEBS
    if traced:
        # A trace arms observation points everywhere: per-block path.
        assert fast_stats["bulk_calls"] == turbo_stats["bulk_calls"] == 0
    else:
        assert fast_stats["bulk_calls"] > 0
        assert fast_stats["bulk_calls"] == turbo_stats["bulk_calls"]


def test_default_engine_keeps_its_name_and_key(tmp_path, monkeypatch):
    """Requests without an engine still resolve to ``fast`` and keep a
    dedup key of their own, while the compiled code is turbo's: the
    ``turbo`` twin is answered from the default request's simulation
    (it compiles nothing), and a direct ``turbo`` Machine run loads the
    code-cache entry the default request wrote."""
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    service = TuningService(cache_dir=tmp_path)
    try:
        default = api.RunRequest(workload="micro-tiny", scale="tiny")
        turbo = api.RunRequest(
            workload="micro-tiny", scale="tiny", engine="turbo"
        )
        assert service.request_key(default) != service.request_key(turbo)
        first = service.execute(default)
        assert first.engine == "fast"
        misses = service.code_cache.misses
        assert misses > 0
        second = service.execute(turbo)
        assert second.engine == "turbo"
        assert second.counters == first.counters
        assert service.code_cache.misses == misses

        hits = service.code_cache.hits
        workload = make_workload("micro-tiny", "tiny")
        module, space = workload.build()
        machine = Machine(
            module, space, config=replace(service.config, engine="turbo")
        )
        assert machine.run(workload.entry).counters.as_dict() == (
            first.counters
        )
        assert service.code_cache.misses == misses
        assert service.code_cache.hits > hits
    finally:
        codecache.forget(tmp_path)
