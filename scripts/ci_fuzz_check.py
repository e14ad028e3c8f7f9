#!/usr/bin/env python3
"""CI guard for the generative differential-fuzzing subsystem.

Six gates, all with fixed seeds so the job is deterministic:

1. **Import sanity** — every core runtime module imports cleanly on
   its own, so a broken lazy import cannot hide behind whichever
   engine the fuzz run happens to exercise first.
2. **Clean fuzz** — ``--budget`` generated programs (plus an Eq-1/Eq-2
   analytic-model sweep) must pass the full differential oracle: three
   execution tiers x tracing on/off x every prefetch scheme,
   bit-identical, plus the profiling axis (each scheme and tier run
   unprofiled must equal its profiled run; the gate prints how many
   cells it checked and fails on zero).
3. **Corpus replay** — every case under ``tests/corpus/`` must pass
   the same oracle (they are shrunk former failures or seeded
   construct-coverage programs).
4. **Mutation self-test** — a scratch engine copy with a seeded
   off-by-one in its cycle accounting, one with an off-by-one in the
   fused stepper's back-edge retired count, and one whose sample point
   charges a cycle, must each be *caught* by the oracle (the engine
   differential, twice, and the profiling axis) and *shrunk* to
   at most ``--max-mutant-blocks`` basic blocks, proving the finder
   and the minimizer both work.
5. **Batch axis** — every corpus case plus ``--batch-budget`` generated
   programs must be bit-identical between the batched multi-config
   runner (:func:`repro.machine.batch.run_batch`) and fresh sequential
   ``Machine`` runs of the same cells, over both a uniform cache-scale
   batch and a divergent A&J-distance batch.  The axis has its own
   mutation self-test: a scratch copy of ``repro.machine.batch`` whose
   N-cell JMP terminator charges one cycle too many must be *caught*
   as a batch differential.
6. **Code-cache axis** — every corpus case plus ``--codecache-budget``
   generated programs must be bit-identical between a fresh compile and
   a persistent-code-cache load (every cacheable engine x scheme x
   tracing mode; the warm cell must be a real cache hit), and the
   cache's validate-or-recompile guard must *detect* deliberately stale
   and booby-trapped cached modules (``check_codecache_selftest``).

``--stateful`` additionally drives the memory-hierarchy and
store/code-cache hypothesis state machines (``tests/test_mem_stateful``,
``tests/test_store_stateful``) at ``--stateful-examples`` examples each
— the nightly-depth budget, far above the bounded in-suite profiles.

Usage:
    python scripts/ci_fuzz_check.py [--budget 50] [--seed 20260805]
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from pathlib import Path

from repro.qa.corpus import default_corpus_dir, iter_cases
from repro.qa.fuzz import run_fuzz
from repro.qa.generate import GeneratorConfig, generate_spec
from repro.qa.mutants import (
    batch_offbyone_runner,
    mutant_oracle_setup,
    profiling_mutant_oracle_setup,
    turbo_mutant_oracle_setup,
)
from repro.qa.oracle import (
    OracleFailure,
    batch_failure,
    check_batch,
    check_codecache_selftest,
    codecache_failure,
    oracle_failure,
)

# Every module an engine or the oracle reaches lazily.  Each must
# import standalone: a typo in one of these surfaces as a hard failure
# here instead of as a mysteriously-skipped engine in the fuzz gate.
SANITY_MODULES = (
    "repro.api",
    "repro.machine.batch",
    "repro.machine.batchturbo",
    "repro.machine.blockengine",
    "repro.machine.codecache",
    "repro.machine.fusion",
    "repro.machine.interpreter",
    "repro.machine.machine",
    "repro.machine.translator",
    "repro.mem.batch",
    "repro.mem.fastpath",
    "repro.mem.hierarchy",
    "repro.qa.fuzz",
    "repro.qa.oracle",
    "repro.service.api",
)


def check_import_sanity() -> bool:
    failures = []
    for name in SANITY_MODULES:
        try:
            importlib.import_module(name)
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
    if failures:
        for line in failures:
            print(f"FAIL: import {line}")
        return False
    print(f"OK: {len(SANITY_MODULES)} core module(s) import standalone")
    return True


def check_clean_fuzz(budget: int, seed: int, model_cases: int) -> bool:
    start = time.perf_counter()
    stats = run_fuzz(
        budget=budget, seed=seed, model_cases=model_cases, shrink=True
    )
    elapsed = time.perf_counter() - start
    if not stats.ok:
        print(f"FAIL: clean fuzz found failures\n{stats.summary()}")
        return False
    if not stats.profiling_cells:
        print("FAIL: the profiling axis checked zero cells")
        return False
    print(
        f"OK: {stats.programs} program(s) and {stats.model_cases} model "
        f"case(s) passed the differential oracle in {elapsed:.1f}s; "
        f"profiling axis: {stats.profiling_cells} unprofiled cell(s) "
        "equal to their profiled runs"
    )
    return True


def check_corpus_replay() -> bool:
    corpus_dir = default_corpus_dir()
    total = failures = 0
    for name, case in iter_cases(corpus_dir):
        total += 1
        failure = oracle_failure(case["spec"])
        if failure is not None:
            failures += 1
            print(f"FAIL: corpus {name}: {failure.summary()}")
    if failures:
        return False
    if not total:
        print(f"FAIL: no corpus cases under {corpus_dir}")
        return False
    print(f"OK: replayed {total} corpus case(s)")
    return True


#: Mutation self-tests: (name, oracle setup, the check that must fire).
MUTANTS = (
    ("off-by-one engine", mutant_oracle_setup, "differential"),
    ("off-by-one fused stepper", turbo_mutant_oracle_setup, "differential"),
    ("sample-leak engine", profiling_mutant_oracle_setup, "profiling"),
)


def check_mutation_selftest(seed: int, max_blocks: int) -> bool:
    ok = True
    for name, setup, check in MUTANTS:
        config, runners = setup()
        stats = run_fuzz(
            budget=3,
            seed=seed,
            oracle_config=config,
            runners=runners,
            shrink=True,
            model_cases=0,
            max_findings=1,
        )
        if stats.ok:
            print(
                f"FAIL: the {name} mutant passed the oracle "
                f"(the {check} check is blind)"
            )
            ok = False
            continue
        finding = stats.findings[0]
        if finding.failure.check != check:
            print(
                f"FAIL: the {name} mutant was caught by "
                f"{finding.failure.check!r}, not {check!r}"
            )
            ok = False
        elif finding.shrunk_blocks is None:
            print(f"FAIL: {name} mutant failure was not shrunk")
            ok = False
        elif finding.shrunk_blocks > max_blocks:
            print(
                f"FAIL: {name} mutant failure shrank to "
                f"{finding.shrunk_blocks} block(s), above the "
                f"{max_blocks}-block bound"
            )
            ok = False
        else:
            print(
                f"OK: {name} mutant caught ({finding.failure.summary()}) "
                f"and shrunk to {finding.shrunk_blocks} block(s)"
            )
    return ok


def check_batch_axis(budget: int, seed: int) -> bool:
    """Batch-vs-sequential differential: corpus + generated programs.

    Also counts how the same-config (``batch-aj``) cells ended: shadow
    cells that completed on their leader's timing, and batches whose
    shadows diverged and re-ran plain.  Both outcomes must occur, or
    one of the two paths went untested.
    """
    start = time.perf_counter()
    total = failures = shadowed = aborts = 0
    cases = [
        (f"corpus {name}", case["spec"])
        for name, case in iter_cases(default_corpus_dir())
    ]
    gen_config = GeneratorConfig()
    cases += [
        (f"seed {seed + i}", generate_spec(seed + i, gen_config))
        for i in range(budget)
    ]
    for label, spec in cases:
        total += 1
        try:
            report = check_batch(spec)
        except OracleFailure as failure:
            failures += 1
            print(f"FAIL: batch axis {label}: {failure.summary()}")
            continue
        shadowed += report["shadowed"]
        aborts += report["shadow_aborts"]
    if failures:
        return False
    if not total:
        print("FAIL: batch axis ran zero cases")
        return False
    if not shadowed or not aborts:
        print(
            f"FAIL: batch axis shadowed {shadowed} cell(s) and aborted "
            f"{aborts} shadowed batch(es); both must be nonzero"
        )
        return False
    elapsed = time.perf_counter() - start
    print(
        f"OK: {total} case(s) bit-identical between batched and "
        f"sequential execution in {elapsed:.1f}s ({shadowed} shadowed "
        f"cell(s), {aborts} shadow abort(s))"
    )
    return True


def check_batch_mutant(seed: int, budget: int = 3) -> bool:
    """The batch axis's mutation self-test: the off-by-one N-cell
    mutant must fail ``check_batch`` as a batch differential on one of
    ``budget`` generated programs."""
    runner = batch_offbyone_runner()
    gen_config = GeneratorConfig()
    for i in range(budget):
        failure = batch_failure(
            generate_spec(seed + i, gen_config), runner=runner
        )
        if failure is None:
            continue
        if failure.check != "batch-differential":
            print(
                f"FAIL: the off-by-one N-cell mutant was caught by "
                f"{failure.check!r}, not 'batch-differential'"
            )
            return False
        print(f"OK: off-by-one N-cell mutant caught ({failure.summary()})")
        return True
    print(
        f"FAIL: the off-by-one N-cell mutant passed the batch axis on "
        f"{budget} program(s) (the batch check is blind)"
    )
    return False


def check_codecache_axis(budget: int, seed: int) -> bool:
    """Fresh-vs-cached-load differential plus the cache's own mutation
    self-test: corpus + generated programs."""
    start = time.perf_counter()
    total = failures = 0
    for name, case in iter_cases(default_corpus_dir()):
        total += 1
        failure = codecache_failure(case["spec"])
        if failure is not None:
            failures += 1
            print(f"FAIL: codecache axis corpus {name}: {failure.summary()}")
    gen_config = GeneratorConfig()
    for i in range(budget):
        total += 1
        spec = generate_spec(seed + i, gen_config)
        failure = codecache_failure(spec)
        if failure is not None:
            failures += 1
            print(
                f"FAIL: codecache axis seed {seed + i}: {failure.summary()}"
            )
    if failures:
        return False
    if not total:
        print("FAIL: codecache axis ran zero cases")
        return False
    try:
        detected = check_codecache_selftest(generate_spec(seed, gen_config))
    except Exception as exc:  # noqa: BLE001 - an undetected mutant
        print(f"FAIL: codecache self-test: {exc}")
        return False
    elapsed = time.perf_counter() - start
    print(
        f"OK: {total} case(s) bit-identical between fresh compile and "
        f"code-cache load; {detected} planted stale/booby-trapped "
        f"module(s) detected, in {elapsed:.1f}s"
    )
    return True


def check_stateful_machines(examples: int, seed: int) -> bool:
    """Nightly-depth run of the hypothesis state machines: the memory
    hierarchy's fast path and the store/code-cache poisoning model."""
    import os

    root = Path(__file__).resolve().parents[1]
    # The machines live in the test suite; make both the repo root (for
    # the ``tests.conftest`` helpers they build programs with) and the
    # tests directory (for the modules themselves) importable.
    for path in (str(root), str(root / "tests")):
        if path not in sys.path:
            sys.path.insert(0, path)
    os.environ.setdefault("CI", "true")  # load the derandomized profile
    from hypothesis import settings
    from hypothesis.stateful import run_state_machine_as_test

    import test_mem_stateful
    import test_store_stateful

    machines = (
        test_mem_stateful.MemModelMachine,
        test_mem_stateful.MemDifferentialMachine,
        test_store_stateful.StoreRaceMachine,
        test_store_stateful.CodeCacheMachine,
    )
    deep = settings(
        max_examples=examples,
        stateful_step_count=50,
        derandomize=True,
        deadline=None,
    )
    start = time.perf_counter()
    for machine in machines:
        try:
            run_state_machine_as_test(machine, settings=deep)
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            print(f"FAIL: {machine.__name__}: {exc}")
            return False
    elapsed = time.perf_counter() - start
    print(
        f"OK: {len(machines)} state machine(s) x {examples} example(s) "
        f"x 50 steps held all invariants in {elapsed:.1f}s"
    )
    return True


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--budget", type=int, default=50)
    parser.add_argument("--seed", type=int, default=20260805)
    parser.add_argument("--model-cases", type=int, default=200)
    parser.add_argument("--max-mutant-blocks", type=int, default=3)
    parser.add_argument("--batch-budget", type=int, default=50)
    # Each codecache-axis case runs the program ~36 times (scheme x
    # engine x traced x fresh/populate/warm), so the smoke default is
    # small; nightly passes a bigger budget alongside --stateful.
    parser.add_argument("--codecache-budget", type=int, default=5)
    parser.add_argument(
        "--stateful",
        action="store_true",
        help="also run the stateful property machines at nightly depth",
    )
    parser.add_argument("--stateful-examples", type=int, default=100)
    args = parser.parse_args()

    ok = check_import_sanity()
    ok = check_clean_fuzz(args.budget, args.seed, args.model_cases) and ok
    ok = check_corpus_replay() and ok
    ok = check_mutation_selftest(args.seed, args.max_mutant_blocks) and ok
    ok = check_batch_axis(args.batch_budget, args.seed) and ok
    ok = check_batch_mutant(args.seed) and ok
    ok = check_codecache_axis(args.codecache_budget, args.seed) and ok
    if args.stateful:
        ok = check_stateful_machines(args.stateful_examples, args.seed) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
