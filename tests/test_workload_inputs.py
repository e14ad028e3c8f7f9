"""Workload inputs are bit-identical to the committed digests.

``tests/data/workload_inputs.json`` records, per workload and segment,
``[name, base, elem_size, length, sha256]`` (the SHA-256 of ``repr`` of
the segment's values).  It covers the tiny suite, the micro variants,
the fig1/fig2 microbenchmark instances and fig12's train/test pairs;
the small suite is recorded as layout only (``[name, base, elem_size,
length]``), which needs no input generation at all.

Regenerate (only when a workload's inputs are meant to change)::

    PYTHONPATH=src python tests/test_workload_inputs.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import partial
from pathlib import Path

import pytest

from repro.experiments import fig12
from repro.workloads.micro import IndirectMicrobenchmark
from repro.workloads.micro_variants import (
    BreakConditionMicrobenchmark,
    CallWorkMicrobenchmark,
    NonCanonicalMicrobenchmark,
)
from repro.workloads.registry import SUITE, TINY_SUITE

DIGESTS = Path(__file__).parent / "data" / "workload_inputs.json"


def value_cases() -> dict:
    """Label -> workload factory for every input checked value by value."""
    cases = {f"tiny/{name}": factory for name, factory in TINY_SUITE.items()}
    for variant in (
        NonCanonicalMicrobenchmark,
        BreakConditionMicrobenchmark,
        CallWorkMicrobenchmark,
    ):
        cases[f"variant/{variant.__name__}"] = variant
    # fig1 sweeps INNER=256 over three complexities, fig2 three trip
    # counts at low complexity; complexity changes only the IR.
    for inner in (256, 4, 16, 64):
        for iterations in (8_000, 40_000):
            cases[f"micro/inner={inner}/iterations={iterations}"] = partial(
                IndirectMicrobenchmark,
                inner=inner,
                total_iterations=iterations,
            )
    for prefix, pairs in (("fig12-tiny", fig12.TINY_PAIRS), ("fig12", fig12.PAIRS)):
        for label, make_train, make_test in pairs:
            cases[f"{prefix}/{label}/train"] = make_train
            cases[f"{prefix}/{label}/test"] = make_test
    return cases


def layout_cases() -> dict:
    """Label -> workload factory for every input checked by layout only."""
    return {f"suite/{name}": factory for name, factory in SUITE.items()}


def layout(space) -> list:
    return [
        [seg.name, seg.base, seg.elem_size, len(seg)] for seg in space._segments
    ]


def digest(space) -> list:
    return [
        [
            seg.name,
            seg.base,
            seg.elem_size,
            len(seg),
            hashlib.sha256(repr(seg.values).encode()).hexdigest(),
        ]
        for seg in space.segments()
    ]


def capture() -> dict:
    recorded = {}
    for label, factory in value_cases().items():
        _, space = factory().build()
        recorded[label] = digest(space)
    for label, factory in layout_cases().items():
        _, space = factory().build()
        recorded[label] = layout(space)
    return recorded


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(DIGESTS.read_text())


def test_every_case_is_recorded(recorded):
    assert sorted(recorded) == sorted({**value_cases(), **layout_cases()})


@pytest.mark.parametrize("label", sorted(value_cases()))
def test_inputs_are_bit_identical(recorded, label):
    _, space = value_cases()[label]().build()
    assert digest(space) == recorded[label]


@pytest.mark.parametrize("label", sorted(layout_cases()))
def test_suite_layout_is_unchanged(recorded, label):
    _, space = layout_cases()[label]().build()
    assert layout(space) == recorded[label]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
