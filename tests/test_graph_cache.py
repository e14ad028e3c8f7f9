"""Graph-generation memoization in the in-process graph store.

Suite runs used to regenerate identical graphs once per job; Dataset
.build() now keys each generated graph by (workload, size, seed, and
the generator parameters) and holds the immutable graph itself.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.workloads.graph500 import _RMATDataset
from repro.workloads.graphs import (
    clear_graph_cache,
    dataset,
    graph_store,
    synthetic_dataset,
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_graph_cache()
    yield
    clear_graph_cache()


def test_second_build_hits_cache_and_is_equal():
    ds = synthetic_dataset(2_000, 4.0, seed=7)
    first = ds.build()
    assert graph_store().metrics.get("graph_cache.misses") == 1
    second = ds.build()
    assert graph_store().metrics.get("graph_cache.hits") == 1
    assert second is first  # a hit shares the one immutable graph
    assert (second.name, second.n, second.row, second.col) == (
        first.name,
        first.n,
        first.row,
        first.col,
    )


def test_cached_graph_matches_direct_generation():
    ds = dataset("p2p-Gnutella31")
    ds.build()  # prime
    cached = ds.build()
    direct = ds._generate()
    assert (cached.n, cached.row, cached.col) == (
        direct.n,
        direct.row,
        direct.col,
    )


def test_different_seed_misses():
    a = synthetic_dataset(1_000, 2.0, seed=1)
    b = synthetic_dataset(1_000, 2.0, seed=2)
    ga = a.build()
    gb = b.build()
    assert graph_store().metrics.get("graph_cache.misses") == 2
    assert graph_store().metrics.get("graph_cache.hits") == 0
    assert (ga.row, ga.col) != (gb.row, gb.col)


def test_rmat_dataset_keys_on_scale_and_edgefactor():
    small = _RMATDataset(6, 4, seed=3)
    bigger = _RMATDataset(7, 4, seed=3)
    g_small = small.build()
    g_bigger = bigger.build()
    assert graph_store().metrics.get("graph_cache.misses") == 2
    assert g_small.n == 1 << 6 and g_bigger.n == 1 << 7
    replay = small.build()
    assert graph_store().metrics.get("graph_cache.hits") == 1
    assert (replay.row, replay.col) == (g_small.row, g_small.col)


def test_mutating_a_hit_does_not_poison_the_cache():
    # Graphs are immutable: a hit cannot be mutated at all.
    ds = synthetic_dataset(500, 2.0, seed=9)
    ds.build()
    victim = ds.build()
    for values in (victim.row, victim.col):
        with pytest.raises(TypeError):
            values[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        victim.col = ()
    assert ds.build().col == ds._generate().col
