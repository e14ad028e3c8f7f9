"""The persistent AOT code cache: round-trips, keying, invalidation,
fallback, and the service/CLI integration."""

from __future__ import annotations

import re
from dataclasses import replace

import pytest

from repro.machine import codecache
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.service.api import TuningService
from repro.service.store import config_fingerprint

from tests.conftest import build_indirect_loop, build_nested_indirect, tiny_memory


@pytest.fixture()
def cache_dir(tmp_path):
    path = str(tmp_path / "codecache")
    yield path
    codecache.forget(path)


def _config(cache: str | None) -> MachineConfig:
    return MachineConfig(memory=tiny_memory(), code_cache=cache)


def _observe(module, space, config, engine):
    machine = Machine(module, space, config=config, engine=engine)
    machine.enable_profiling(period=251)
    result = machine.run("main")
    return (
        result.value,
        result.counters.as_dict(),
        [tuple(s) for s in machine.sampler.samples],
        dict(machine.sampler.load_miss_counts),
    )


@pytest.mark.parametrize("engine", ["turbo", "translate"])
def test_roundtrip_bit_identical(cache_dir, engine):
    module, space, expected = build_nested_indirect()
    fresh = _observe(module, space, _config(None), engine)
    cold = _observe(module, space, _config(cache_dir), engine)
    warm = _observe(module, space, _config(cache_dir), engine)
    assert fresh[0] == expected
    assert cold == fresh
    assert warm == fresh
    cache = codecache.resolve(cache_dir)
    assert cache.misses == 1
    assert cache.hits == 1
    assert cache.invalidated == 0
    assert cache.store.stats()["by_kind"] == {"codecache": 1}


def test_turbo_warm_load_rebuilds_superblocks(cache_dir):
    module, space, _ = build_nested_indirect()
    config = _config(cache_dir)
    cold = Machine(module, space, config=config, engine="turbo")
    cold.run("main")
    warm = Machine(module, space, config=config, engine="turbo")
    warm.run("main")
    fused_cold = cold._compiled[("turbo", "main")].superblocks()
    fused_warm = warm._compiled[("turbo", "main")].superblocks()
    assert len(fused_warm) == len(fused_cold) > 0
    for a, b in zip(fused_cold, fused_warm):
        assert (a.header, a.path, a.depth) == (b.header, b.path, b.depth)
        assert (a.bound_cycles, a.bound_retired) == (
            b.bound_cycles, b.bound_retired
        )
        assert a.source == b.source
        assert a.source_profiled == b.source_profiled


def test_fast_engine_shares_the_turbo_entry(cache_dir):
    """``fast`` runs turbo's compiled form and is keyed as ``turbo``: a
    fast run after a turbo run on one cache dir is a hit on its entry."""
    config = _config(cache_dir)
    module, space, expected = build_indirect_loop()
    Machine(module, space, config=replace(config, engine="turbo")).run("main")
    module, space, expected = build_indirect_loop()
    fast = Machine(module, space, config=replace(config, engine="fast"))
    assert fast.run("main").value == expected
    cache = codecache.resolve(cache_dir)
    assert (cache.misses, cache.hits, cache.invalidated) == (1, 1, 0)
    assert cache.store.stats()["entries"] == 1


def test_turbo_engine_under_a_fast_config_shares_the_turbo_entry(cache_dir):
    """An explicit ``engine="turbo"`` over a config whose engine is
    ``fast`` runs the code a turbo-config run compiled: a hit on its
    entry, not a duplicate entry."""
    config = _config(cache_dir)
    module, space, expected = build_indirect_loop()
    Machine(module, space, config=replace(config, engine="turbo")).run("main")
    module, space, expected = build_indirect_loop()
    turbo = Machine(
        module, space, config=replace(config, engine="fast"), engine="turbo"
    )
    assert turbo.run("main").value == expected
    cache = codecache.resolve(cache_dir)
    assert (cache.misses, cache.hits, cache.invalidated) == (1, 1, 0)
    assert cache.store.stats()["entries"] == 1


def test_code_cache_is_nonsemantic_for_fingerprints(cache_dir):
    assert config_fingerprint(_config(None)) == config_fingerprint(
        _config(cache_dir)
    )


def test_resolve_disabled_spellings(tmp_path):
    for spelling in (None, "", "off", "OFF", "0", "none", "disabled"):
        assert codecache.resolve(spelling) is None
    path = str(tmp_path / "cc")
    try:
        cache = codecache.resolve(path)
        assert cache is not None
        assert codecache.resolve(path) is cache  # one cache per path
    finally:
        codecache.forget(path)


def test_env_default(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_CODE_CACHE", raising=False)
    assert MachineConfig(memory=tiny_memory()).code_cache is None
    monkeypatch.setenv("REPRO_CODE_CACHE", str(tmp_path))
    assert MachineConfig(memory=tiny_memory()).code_cache == str(tmp_path)
    monkeypatch.setenv("REPRO_CODE_CACHE", "off")
    config = MachineConfig(memory=tiny_memory())
    assert config.code_cache == "off"
    assert codecache.resolve(config.code_cache) is None


def test_stale_ir_is_detected_not_executed(cache_dir):
    """An entry whose embedded IR fingerprint does not match the
    function must be invalidated before any of its code runs."""
    # n is a literal in the loop bound, so the two modules have
    # different IR fingerprints while sharing block/value names.
    module_a, space_a, expected_a = build_indirect_loop(n=200)
    module_b, space_b, _ = build_indirect_loop(n=150)
    config = _config(cache_dir)
    cache = codecache.resolve(cache_dir)

    Machine(module_b, space_b, config=config, engine="turbo").run("main")
    key_b = cache.key(module_b.function("main"), config, "turbo")
    key_a = cache.key(module_a.function("main"), config, "turbo")
    assert key_a.digest() != key_b.digest()
    stale = cache.store.get(key_b)
    assert stale is not None
    cache.store.put(key_a, stale)  # plant B's module under A's key

    result = Machine(module_a, space_a, config=config, engine="turbo").run(
        "main"
    )
    assert result.value == expected_a
    assert cache.invalidated == 1
    # The fallback recompile re-put a valid entry: next load hits.
    hits = cache.hits
    Machine(module_a, space_a, config=config, engine="turbo").run("main")
    assert cache.hits == hits + 1
    assert cache.invalidated == 1


def test_schema_one_entries_are_not_served(cache_dir, monkeypatch):
    """Entries written before the inline software-prefetch arm (schema
    1, whose steppers call the prefetch port for every prefetch) must
    not be served: the schema is the only codegen version in the key."""
    from repro.machine import batchturbo
    from tests.test_machine_batch import build_kernel

    assert codecache.CODECACHE_SCHEMA == 5
    config = _config(cache_dir)
    cache = codecache.resolve(cache_dir)
    with monkeypatch.context() as old:
        old.setattr(codecache, "CODECACHE_SCHEMA", 1)
        old.setattr(
            batchturbo,
            "prefetch_arm",
            lambda seg, addr, line, now, l1, mshr, mem, c, port, pc: [
                f"{port}({addr}, {now}, {pc})"
            ],
        )
        module, space = build_kernel(distance=4)
        machine = Machine(module, space, config=config, engine="turbo")
        expected = machine.run("main")
        (stale,) = machine._compiled[("turbo", "main")].superblocks()
        assert "sw_prefetch_redundant" not in stale.source
        old_key = cache.key(module.function("main"), config, "turbo")
    assert (cache.misses, cache.hits) == (1, 0)

    module, space = build_kernel(distance=4)
    key = cache.key(module.function("main"), config, "turbo")
    assert key.digest() != old_key.digest()
    machine = Machine(module, space, config=config, engine="turbo")
    result = machine.run("main")
    assert (cache.misses, cache.hits) == (2, 0)
    (fresh,) = machine._compiled[("turbo", "main")].superblocks()
    assert "sw_prefetch_redundant" in fresh.source
    assert result.value == expected.value
    assert result.counters.as_dict() == expected.counters.as_dict()

    # Planted under the current key, the old payload is rejected too.
    cache.store.put(key, cache.store.get(old_key))
    module, space = build_kernel(distance=4)
    machine = Machine(module, space, config=config, engine="turbo")
    machine.run("main")
    assert cache.invalidated == 1
    (fresh,) = machine._compiled[("turbo", "main")].superblocks()
    assert "sw_prefetch_redundant" in fresh.source


#: A call of the ``min``/``max`` builtins in generated code.
_MINMAX_CALL = re.compile(r"\b(?:min|max)\(")


def test_schema_two_entries_are_not_served(cache_dir, monkeypatch):
    """Entries written before MIN/MAX became conditional expressions
    (schema 2, whose steppers call the ``min``/``max`` builtins) must
    not be served: the schema is the only codegen version in the key."""
    from repro.ir.opcodes import BINOP_EXPR, Opcode
    from tests.test_machine_batch import build_kernel

    assert codecache.CODECACHE_SCHEMA == 5
    config = _config(cache_dir)
    cache = codecache.resolve(cache_dir)
    with monkeypatch.context() as old:
        old.setattr(codecache, "CODECACHE_SCHEMA", 2)
        old.setitem(BINOP_EXPR, Opcode.MIN, "min(({a}), ({b}))")
        module, space = build_kernel(distance=4)
        machine = Machine(module, space, config=config, engine="turbo")
        expected = machine.run("main")
        (stale,) = machine._compiled[("turbo", "main")].superblocks()
        assert _MINMAX_CALL.search(stale.source)
        old_key = cache.key(module.function("main"), config, "turbo")
    assert (cache.misses, cache.hits) == (1, 0)

    module, space = build_kernel(distance=4)
    key = cache.key(module.function("main"), config, "turbo")
    assert key.digest() != old_key.digest()
    machine = Machine(module, space, config=config, engine="turbo")
    result = machine.run("main")
    assert (cache.misses, cache.hits) == (2, 0)
    (fresh,) = machine._compiled[("turbo", "main")].superblocks()
    assert not _MINMAX_CALL.search(fresh.source)
    assert result.value == expected.value
    assert result.counters.as_dict() == expected.counters.as_dict()

    # Planted under the current key, the old payload is rejected too.
    cache.store.put(key, cache.store.get(old_key))
    module, space = build_kernel(distance=4)
    machine = Machine(module, space, config=config, engine="turbo")
    machine.run("main")
    assert cache.invalidated == 1
    (fresh,) = machine._compiled[("turbo", "main")].superblocks()
    assert not _MINMAX_CALL.search(fresh.source)


def test_hj8_aj_turbo_steppers_call_no_min_max():
    """The A&J index clamp (a MIN per prefetch) compiles to a
    conditional expression in HJ8-tiny's turbo steppers, not a call."""
    from repro.ir.opcodes import Opcode
    from repro.machine.batchturbo import compile_fused
    from repro.passes.ainsworth_jones import (
        AinsworthJonesConfig,
        AinsworthJonesPass,
    )
    from repro.workloads.registry import make_workload

    workload = make_workload("HJ8-tiny")
    module, _ = workload.build()
    AinsworthJonesPass(AinsworthJonesConfig(distance=32)).run(module)
    function = module.function(workload.entry)
    assert any(
        inst.op in (Opcode.MIN, Opcode.MAX)
        for block in function.blocks
        for inst in block.instructions
    )
    steppers = compile_fused(function, MachineConfig()).superblocks()
    assert steppers
    for stepper in steppers:
        for source in (stepper.source, stepper.source_profiled):
            assert not _MINMAX_CALL.search(source), source


@pytest.mark.parametrize(
    "tamper",
    [
        lambda p: p.update(cache_tag="cpython-00"),
        lambda p: p.update(schema=-1),
        lambda p: p.update(engine="translate"),
        lambda p: p["superblocks"][1].update(code="!!not-base64!!"),
        lambda p: p["superblocks"][1].update(bound_retired=0),
        lambda p: p["superblocks"][1].update(header="no_such_block"),
        lambda p: p.update(superblocks=[]),
    ],
)
def test_tampered_payloads_fall_back(cache_dir, tamper):
    module, space, expected = build_indirect_loop()
    config = _config(cache_dir)
    cache = codecache.resolve(cache_dir)
    Machine(module, space, config=config, engine="turbo").run("main")
    key = cache.key(module.function("main"), config, "turbo")
    payload = cache.store.get(key)
    assert payload is not None
    assert payload["superblocks"][1] is not None  # the fused loop header
    tamper(payload)
    cache.store.put(key, payload)
    result = Machine(module, space, config=config, engine="turbo").run("main")
    assert result.value == expected
    assert cache.invalidated == 1


def test_put_failure_does_not_break_runs(cache_dir, monkeypatch):
    module, space, expected = build_indirect_loop()
    config = _config(cache_dir)
    cache = codecache.resolve(cache_dir)

    def broken_put(key, payload):
        raise OSError("disk full")

    monkeypatch.setattr(cache.store, "put", broken_put)
    result = Machine(module, space, config=config, engine="turbo").run("main")
    assert result.value == expected
    assert cache.put_errors == 1
    assert cache.store.stats()["entries"] == 0


def test_corrupt_disk_entry_quarantines_then_recompiles(cache_dir):
    module, space, expected = build_indirect_loop()
    config = _config(cache_dir)
    cache = codecache.resolve(cache_dir)
    Machine(module, space, config=config, engine="turbo").run("main")
    key = cache.key(module.function("main"), config, "turbo")
    path = cache.store._entry_path(key)
    path.write_text("{torn json")
    result = Machine(module, space, config=config, engine="turbo").run("main")
    assert result.value == expected
    # The store layer quarantined it before the codecache saw a payload:
    # a miss, not an invalidation.
    assert cache.invalidated == 0
    assert cache.misses == 2
    assert cache.store.stats()["quarantined"] == 1


def test_service_auto_enables_and_flushes_metrics(tmp_path):
    cache_dir = tmp_path / "svc-cache"
    try:
        service = TuningService(cache_dir=cache_dir)
        assert service.config.code_cache == str(cache_dir)
        assert service.code_cache is not None
        service.run("micro-tiny", "tiny", scheme="baseline", engine="turbo")
        service.flush_metrics()
        flushed = service.store.read_metrics()
        assert flushed.get("codecache.misses", 0) >= 1
        stats = service.cache_stats()
        assert stats["by_kind"].get("codecache", 0) >= 1
        assert stats["codecache"]["misses"] >= 1

        # A second service over the same directory is warm.
        warm = TuningService(cache_dir=cache_dir)
        warm.clear_cache()  # drop run artifacts; codecache entries share
        # the store root, so re-populate below is a true cold/warm probe
        Machine_runs = warm.run(
            "micro-tiny", "tiny", scheme="baseline", engine="turbo"
        )
        assert Machine_runs is not None
    finally:
        codecache.forget(cache_dir)


def test_service_explicit_off_wins(tmp_path):
    service = TuningService(
        cache_dir=tmp_path / "c",
        machine_config=MachineConfig(memory=tiny_memory(), code_cache="off"),
    )
    assert service.code_cache is None


def test_in_memory_service_has_no_code_cache():
    service = TuningService()
    assert service.code_cache is None
    assert service.config.code_cache is None


def test_cli_cache_stats_has_codecache_row(tmp_path, capsys):
    from repro.cli import main as cli_main

    cache_dir = tmp_path / "cli-cache"
    try:
        service = TuningService(cache_dir=cache_dir)
        service.run("micro-tiny", "tiny", scheme="baseline", engine="turbo")
        service.flush_metrics()
        assert cli_main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "code cache:" in out
        assert "codecache=1" in out
        assert "codecache.misses: 1" in out
    finally:
        codecache.forget(cache_dir)


def test_oracle_axis_smoke():
    from repro.qa.generate import GeneratorConfig, generate_spec
    from repro.qa.oracle import OracleConfig, check_codecache

    spec = generate_spec(7, GeneratorConfig())
    config = OracleConfig(schemes=("none",), traced_modes=(False,))
    report = check_codecache(spec, config)
    assert report["cells"] == 2  # turbo + translate
    assert report["hits"] >= 2


def test_oracle_selftest_smoke():
    from repro.qa.generate import GeneratorConfig, generate_spec
    from repro.qa.oracle import OracleConfig, check_codecache_selftest

    spec = generate_spec(7, GeneratorConfig())
    config = OracleConfig(traced_modes=(False,))
    assert check_codecache_selftest(spec, config) >= 2
