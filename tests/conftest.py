"""Shared fixtures and program builders for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.ir.builder import IRBuilder
from repro.ir.nodes import Module
from repro.machine.config import MachineConfig
from repro.mem.address import AddressSpace
from repro.mem.config import CacheConfig, MemoryConfig


# ----------------------------------------------------------------------
# Shared hypothesis settings profiles
# ----------------------------------------------------------------------
# Every property test in the suite runs under one of these named
# profiles instead of ad-hoc per-test settings:
#
# * ``default`` — local development: a modest example budget and a
#   fixed derandomization seed so failures reproduce across runs;
# * ``ci``      — fully derandomized (no shrink-database randomness,
#   no deadline flakes on loaded runners) with a larger budget.
#
# CI selects the ``ci`` profile via the ``CI`` environment variable set
# on the pytest job; anything else gets ``default``.
import os

from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=25,
    derandomize=True,
    deadline=None,
)
settings.register_profile(
    "ci",
    max_examples=50,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci" if os.environ.get("CI") else "default")


# ----------------------------------------------------------------------
# Small machine configurations for fast tests
# ----------------------------------------------------------------------
def tiny_memory(**overrides) -> MemoryConfig:
    """A very small hierarchy so tiny arrays already miss."""
    defaults = dict(
        l1=CacheConfig("L1D", 1024, 4, 2),
        l2=CacheConfig("L2", 4096, 4, 12),
        llc=CacheConfig("LLC", 16 * 1024, 8, 40),
        dram_latency=360,
        mshr_entries=16,
    )
    defaults.update(overrides)
    return MemoryConfig(**defaults)


@pytest.fixture()
def tiny_config() -> MachineConfig:
    return MachineConfig(memory=tiny_memory())


# ----------------------------------------------------------------------
# Canonical test programs
# ----------------------------------------------------------------------
def build_sum_loop(n: int = 100, stride: int = 1) -> tuple[Module, AddressSpace, int]:
    """``for i in range(n): acc += data[i*stride]`` -> (module, space, expected)."""
    rng = random.Random(5)
    values = [rng.randrange(1000) for _ in range(n * stride + 1)]
    space = AddressSpace()
    data = space.allocate("data", values, elem_size=8)
    expected = sum(values[i * stride] for i in range(n))

    module = Module("sum_loop")
    b = IRBuilder(module)
    b.function("main")
    entry, loop, done = b.blocks("entry", "loop", "done")
    b.at(entry)
    b.jmp(loop)
    b.at(loop)
    i = b.phi([(entry, 0)], name="i")
    acc = b.phi([(entry, 0)], name="acc")
    scaled = b.mul(i, stride, name="scaled")
    addr = b.gep(data.base, scaled, 8, name="addr")
    value = b.load(addr, name="value")
    acc2 = b.add(acc, value, name="acc2")
    i2 = b.add(i, 1, name="i2")
    b.add_incoming(i, loop, i2)
    b.add_incoming(acc, loop, acc2)
    cond = b.lt(i2, n, name="cond")
    b.br(cond, loop, done)
    b.at(done)
    b.ret(acc2)
    module.finalize()
    return module, space, expected


def build_indirect_loop(
    n: int = 200, target_elems: int = 4096, seed: int = 9
) -> tuple[Module, AddressSpace, int]:
    """``for i: acc += T[B[i]]`` — the canonical indirect pattern."""
    rng = random.Random(seed)
    space = AddressSpace()
    index_values = [rng.randrange(target_elems) for _ in range(n + 600)]
    b_seg = space.allocate("B", index_values, elem_size=8)
    target_values = [rng.randrange(1 << 16) for _ in range(target_elems)]
    t_seg = space.allocate("T", target_values, elem_size=8)
    expected = sum(target_values[index_values[i]] for i in range(n))

    module = Module("indirect_loop")
    b = IRBuilder(module)
    b.function("main")
    entry, loop, done = b.blocks("entry", "loop", "done")
    b.at(entry)
    b.jmp(loop)
    b.at(loop)
    i = b.phi([(entry, 0)], name="i")
    acc = b.phi([(entry, 0)], name="acc")
    ba = b.gep(b_seg.base, i, 8, name="ba")
    idx = b.load(ba, name="idx")
    ta = b.gep(t_seg.base, idx, 8, name="ta")
    value = b.load(ta, name="value")
    acc2 = b.add(acc, value, name="acc2")
    i2 = b.add(i, 1, name="i2")
    b.add_incoming(i, loop, i2)
    b.add_incoming(acc, loop, acc2)
    cond = b.lt(i2, n, name="cond")
    b.br(cond, loop, done)
    b.at(done)
    b.ret(acc2)
    module.finalize()
    return module, space, expected


def build_nested_indirect(
    outer: int = 20, inner: int = 8, target_elems: int = 4096, seed: int = 9
) -> tuple[Module, AddressSpace, int]:
    """A miniature Listing-1 nest: ``T[BO[i] + BI[j]]``."""
    rng = random.Random(seed)
    half = target_elems // 2
    space = AddressSpace()
    bo_values = [rng.randrange(half) for _ in range(outer + 600)]
    bi_values = [rng.randrange(half) for _ in range(inner + 600)]
    bo = space.allocate("BO", bo_values, elem_size=8)
    bi = space.allocate("BI", bi_values, elem_size=8)
    t_values = [rng.randrange(1 << 12) for _ in range(target_elems)]
    t = space.allocate("T", t_values, elem_size=8)
    expected = sum(
        t_values[bo_values[i] + bi_values[j]]
        for i in range(outer)
        for j in range(inner)
    )

    module = Module("nested_indirect")
    b = IRBuilder(module)
    b.function("main")
    entry, outer_h, inner_h, outer_latch, done = b.blocks(
        "entry", "outer_h", "inner_h", "outer_latch", "done"
    )
    b.at(entry)
    b.jmp(outer_h)
    b.at(outer_h)
    i = b.phi([(entry, 0)], name="iv1")
    acc_o = b.phi([(entry, 0)], name="acc.o")
    p_bo = b.gep(bo.base, i, 8, name="p.bo")
    b.jmp(inner_h)
    b.at(inner_h)
    j = b.phi([(outer_h, 0)], name="iv2")
    acc = b.phi([(outer_h, acc_o)], name="acc.i")
    bo_v = b.load(p_bo, name="bo.v")
    p_bi = b.gep(bi.base, j, 8, name="p.bi")
    bi_v = b.load(p_bi, name="bi.v")
    idx = b.add(bo_v, bi_v, name="idx")
    p_t = b.gep(t.base, idx, 8, name="p.t")
    value = b.load(p_t, name="t.v")
    acc2 = b.add(acc, value, name="acc2")
    j2 = b.add(j, 1, name="j2")
    b.add_incoming(j, inner_h, j2)
    b.add_incoming(acc, inner_h, acc2)
    cont = b.lt(j2, inner, name="cont")
    b.br(cont, inner_h, outer_latch)
    b.at(outer_latch)
    i2 = b.add(i, 1, name="i2")
    b.add_incoming(i, outer_latch, i2)
    b.add_incoming(acc_o, outer_latch, acc2)
    cont2 = b.lt(i2, outer, name="cont2")
    b.br(cont2, outer_h, done)
    b.at(done)
    b.ret(acc2)
    module.finalize()
    return module, space, expected


@pytest.fixture()
def machine_runs(monkeypatch):
    """Every ``Machine.run`` call made while the test runs."""
    from repro.machine.machine import Machine

    calls = []
    original = Machine.run

    def counting(machine, *args, **kwargs):
        calls.append(machine)
        return original(machine, *args, **kwargs)

    monkeypatch.setattr(Machine, "run", counting)
    return calls


@pytest.fixture()
def sum_loop():
    return build_sum_loop()


@pytest.fixture()
def indirect_loop():
    return build_indirect_loop()


@pytest.fixture()
def nested_indirect():
    return build_nested_indirect()
