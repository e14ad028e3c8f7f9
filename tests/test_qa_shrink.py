"""The delta-debugging shrinker: minimized failures stay failures and
engine defects shrink to a handful of basic blocks."""

from __future__ import annotations

import pytest

from repro.qa.generate import build_program, generate_spec
from repro.qa.mutants import (
    mutant_oracle_setup,
    profiling_mutant_oracle_setup,
    turbo_mutant_oracle_setup,
)
from repro.qa.oracle import oracle_failure
from repro.qa.shrink import count_blocks, shrink_spec


def test_shrink_requires_a_failing_input():
    with pytest.raises(ValueError, match="does not fail"):
        shrink_spec(generate_spec(0), lambda spec: False)


def test_mutant_failure_shrinks_to_three_blocks_or_fewer():
    """The acceptance bound: a seeded engine off-by-one (mis-costed RET)
    minimizes to <= 3 basic blocks, and the minimized spec still fails."""
    config, runners = mutant_oracle_setup()
    spec = generate_spec(0)

    def still_fails(candidate):
        return oracle_failure(candidate, config, runners) is not None

    assert still_fails(spec)
    shrunk = shrink_spec(spec, still_fails)
    assert still_fails(shrunk)
    assert count_blocks(shrunk) <= 3
    assert count_blocks(shrunk) < count_blocks(spec)


def test_profiling_mutant_failure_shrinks():
    """A sample point that charges a cycle minimizes to <= 3 basic
    blocks and the minimized spec still fails the profiling axis."""
    config, runners = profiling_mutant_oracle_setup()
    spec = generate_spec(0)

    def still_fails(candidate):
        failure = oracle_failure(candidate, config, runners)
        return failure is not None and failure.check == "profiling"

    assert still_fails(spec)
    shrunk = shrink_spec(spec, still_fails)
    assert still_fails(shrunk)
    assert count_blocks(shrunk) <= 3
    assert count_blocks(shrunk) < count_blocks(spec)


def test_turbo_mutant_failure_shrinks():
    """An off-by-one in the fused stepper's back-edge retired count
    minimizes to <= 3 basic blocks (a fused loop needs no more) and the
    minimized spec still fails the differential."""
    config, runners = turbo_mutant_oracle_setup()
    spec = generate_spec(0)

    def still_fails(candidate):
        failure = oracle_failure(candidate, config, runners)
        return failure is not None and failure.check == "differential"

    assert still_fails(spec)
    shrunk = shrink_spec(spec, still_fails)
    assert still_fails(shrunk)
    assert count_blocks(shrunk) <= 3
    assert count_blocks(shrunk) < count_blocks(spec)


def test_structural_predicate_shrinks_to_minimal_witness():
    """Shrinking against a pure structural predicate ('spec still
    contains an indirect load') must strip everything else."""
    spec = generate_spec(1)

    def has_indirect(statements):
        for stmt in statements:
            if stmt["kind"] == "indirect":
                return True
            if stmt["kind"] == "loop" and has_indirect(stmt["body"]):
                return True
        return False

    def predicate(candidate):
        return any(has_indirect(f["body"]) for f in candidate["functions"])

    if not predicate(spec):  # pick a seed that contains one
        pytest.skip("seed 1 generated no indirect load")
    shrunk = shrink_spec(spec, predicate)
    assert predicate(shrunk)
    # Minimal witness: main holding exactly one statement, no loops.
    assert [f["name"] for f in shrunk["functions"]] == ["main"]
    assert shrunk["functions"][0]["body"] == [{"kind": "indirect"}]
    assert shrunk["data_elems"] == 64
    assert shrunk["target_elems"] == 64
    assert count_blocks(shrunk) == 1


def test_shrink_does_not_mutate_the_input():
    spec = generate_spec(2)
    import copy

    snapshot = copy.deepcopy(spec)
    shrink_spec(spec, lambda candidate: True)
    assert spec == snapshot


def test_shrunk_specs_still_build_verifier_clean():
    config, runners = mutant_oracle_setup()
    spec = generate_spec(4)
    shrunk = shrink_spec(
        spec,
        lambda candidate: oracle_failure(candidate, config, runners)
        is not None,
    )
    build_program(shrunk)  # verify_module(strict=True) inside
