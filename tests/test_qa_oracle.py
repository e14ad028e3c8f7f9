"""The differential oracle: clean programs pass the full matrix, a
seeded engine defect is caught, and the analytic Eq-1/Eq-2 model
oracles hold."""

from __future__ import annotations

import pytest

from repro.qa.fuzz import run_fuzz
from repro.qa.generate import generate_spec
from repro.qa.mutants import (
    MUTANT_ENGINE,
    PROFILING_MUTANT_ENGINE,
    TURBO_MUTANT_ENGINE,
    mutant_oracle_setup,
    offbyone_blockengine,
    offbyone_batchturbo,
    profiling_mutant_oracle_setup,
    turbo_mutant_oracle_setup,
)
from repro.qa.oracle import (
    OracleConfig,
    OracleFailure,
    batch_failure,
    check_batch,
    check_models,
    check_program,
    focused_config,
    oracle_failure,
)


def test_generated_programs_pass_full_matrix():
    # Four engines x tracing on/off x three schemes, bit-identical; each
    # (scheme, engine) also unprofiled, equal to its profiled run.
    config = OracleConfig()
    for seed in (0, 1, 2):
        checked = check_program(generate_spec(seed), config)
        assert checked == len(config.schemes) * len(config.engines)


def test_every_generated_program_takes_an_lbr_sample():
    # The differential compares LBR sample streams; an empty stream on
    # every engine would hide any sampling defect.
    from repro.machine.machine import Machine
    from repro.qa.generate import build_program

    config = OracleConfig()
    empty = []
    for seed in range(50):
        module, space = build_program(generate_spec(seed))
        machine = Machine(
            module, space, config=config.machine_config(), engine="reference"
        )
        machine.enable_profiling(period=config.sample_period)
        machine.run(config.function)
        if not machine.sampler.samples:
            empty.append(seed)
    assert empty == []


#: Generated programs whose every fused loop nest holds a load.
LOAD_NEST_SEEDS = (8, 9, 13)
#: Above every such nest's ``bound_cycles`` (a load costs up to 400
#: cycles under qa_memory; these nests' bounds reach 2026), so the
#: profiled steppers run between samples instead of declining at entry.
LOAD_NEST_PERIOD = 4001


def test_profiled_load_steppers_run_and_match_reference():
    # OracleConfig's period (17) lies below every load-holding nest's
    # bound, so the profiled steppers' PEBS arms never run there.
    from repro.machine.machine import Machine

    config = OracleConfig(sample_period=LOAD_NEST_PERIOD)
    machines = []

    def turbo(module, space):
        machine = Machine(
            module, space, config=config.machine_config("turbo"),
            engine="turbo",
        )
        machines.append(machine)
        return machine

    stepped = 0
    for seed in LOAD_NEST_SEEDS:
        del machines[:]
        # Results, LBR samples and PEBS records equal reference's.
        check_program(generate_spec(seed), config, runners={"turbo": turbo})
        for machine in machines:
            compiled = list(machine._compiled.values())
            nests = [sb for fn in compiled for sb in fn.superblocks()]
            assert nests and all(
                "record_load" in sb.source_profiled for sb in nests
            )
            if machine.sampler is not None:
                stepped += machine.engine_run_stats()["bulk_calls"]
    assert stepped > 0


def test_batch_axis_is_bit_identical():
    # Uniform cache-scale batch + divergent A&J-distance batch, each
    # cell identical to a fresh sequential Machine run.
    for seed in (0, 1, 2):
        report = check_batch(generate_spec(seed))
        assert set(report["axes"]) == {"batch-uniform", "batch-aj"}


def test_batch_failure_predicate_matches_check():
    spec = generate_spec(3)
    assert batch_failure(spec) is None
    check_batch(spec)  # must not raise either


def test_oracle_failure_predicate_matches_check():
    spec = generate_spec(3)
    assert oracle_failure(spec) is None
    check_program(spec)  # must not raise either


def test_mutant_engine_is_caught():
    config, runners = mutant_oracle_setup()
    spec = generate_spec(0)
    failure = oracle_failure(spec, config, runners)
    assert failure is not None
    assert failure.engine == MUTANT_ENGINE
    assert failure.check == "differential"
    assert "cycles" in failure.detail


def test_profiling_mutant_is_caught_by_the_profiling_axis():
    # Every engine would share a sampling leak, so no differential sees
    # it: the mutant runs alone and only profiled-vs-unprofiled can.
    config, runners = profiling_mutant_oracle_setup()
    assert config.engines == (PROFILING_MUTANT_ENGINE,)
    failure = oracle_failure(generate_spec(0), config, runners)
    assert failure is not None
    assert failure.engine == PROFILING_MUTANT_ENGINE
    assert failure.check == "profiling"
    assert "cycles" in failure.detail


def test_turbo_mutant_engine_is_caught():
    # The seeded off-by-one in the bulk stepper's iteration-count math
    # only perturbs the instructions counter — values and cycles stay
    # clean — so catching it proves the oracle is counter-exact across
    # bulk-stepped iterations, not just end-state-exact.
    config, runners = turbo_mutant_oracle_setup()
    spec = generate_spec(0)
    failure = oracle_failure(spec, config, runners)
    assert failure is not None
    assert failure.engine == TURBO_MUTANT_ENGINE
    assert failure.check == "differential"
    assert "instructions" in failure.detail


def test_turbo_mutant_module_is_scratch_copy():
    import repro.machine.batchturbo as real

    mutant = offbyone_batchturbo()
    assert mutant is not real
    assert mutant.compile_fused is not real.compile_fused
    assert "offbyone" not in (real.__file__ or "")


def test_mutant_module_is_scratch_copy():
    import repro.machine.blockengine as real

    mutant = offbyone_blockengine()
    assert mutant is not real
    assert mutant.compile_blocks is not real.compile_blocks
    # Building the mutant must not have touched the real module.
    assert "offbyone" not in (real.__file__ or "")


def test_focused_config_narrows_matrix():
    failure = OracleFailure(
        "differential", "cycles differ", scheme="aj", engine="fast", traced=True
    )
    narrowed = focused_config(failure, OracleConfig())
    assert narrowed.schemes == ("aj",)
    assert set(narrowed.engines) == {"reference", "fast"}
    # Tracing modes stay un-narrowed: traced runs are compared against
    # the untraced baseline, so the focused matrix still needs both.
    assert narrowed.traced_modes == (False, True)


def test_check_models_sweeps_cases():
    checked = check_models(seed=0, cases=40)
    assert checked >= 40


def test_run_fuzz_clean_budget():
    stats = run_fuzz(budget=3, seed=100, model_cases=10)
    assert stats.ok
    assert stats.programs == 3
    assert stats.model_cases > 0
    assert "0 failure(s)" in stats.summary()


def test_run_fuzz_catches_and_records_mutant(tmp_path):
    config, runners = mutant_oracle_setup()
    stats = run_fuzz(
        budget=2,
        seed=0,
        oracle_config=config,
        runners=runners,
        corpus_dir=tmp_path,
        model_cases=0,
        max_findings=1,
    )
    assert not stats.ok
    finding = stats.findings[0]
    assert finding.failure.engine == MUTANT_ENGINE
    assert finding.shrunk_spec is not None
    assert finding.corpus_path is not None
    saved = list(tmp_path.glob("*.json"))
    assert len(saved) == 1


@pytest.mark.parametrize("scheme", ["none", "aj", "apt-get"])
def test_single_scheme_slices_run(scheme):
    config = OracleConfig(
        schemes=(scheme,), engines=("reference", "fast"), traced_modes=(True,)
    )
    check_program(generate_spec(5), config)
