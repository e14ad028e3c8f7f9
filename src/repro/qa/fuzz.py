"""The fuzzing driver: generate -> oracle -> shrink -> corpus.

One call to :func:`run_fuzz` checks ``budget`` programs derived from a
base seed (program ``i`` uses seed ``base + i``, so any failure names
the exact seed to replay).  Failures are shrunk against a focused
oracle slice and, when a corpus directory is given, saved as replayable
regression cases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.qa.corpus import save_case
from repro.qa.generate import GeneratorConfig, generate_spec, spec_digest
from repro.qa.oracle import (
    OracleConfig,
    OracleFailure,
    check_models,
    check_program,
    focused_config,
    oracle_failure,
)
from repro.qa.shrink import count_blocks, shrink_spec


@dataclass
class FuzzFinding:
    """One failing program: where it came from and what it shrank to."""

    seed: int
    digest: str
    failure: OracleFailure
    shrunk_spec: Optional[dict] = None
    shrunk_blocks: Optional[int] = None
    corpus_path: Optional[str] = None

    def summary(self) -> str:
        parts = [f"seed={self.seed}", self.failure.summary()]
        if self.shrunk_blocks is not None:
            parts.append(f"shrunk to {self.shrunk_blocks} block(s)")
        if self.corpus_path:
            parts.append(f"saved {self.corpus_path}")
        return " | ".join(parts)


@dataclass
class FuzzStats:
    """Outcome of one fuzzing session."""

    programs: int = 0
    model_cases: int = 0
    #: (scheme, engine) cells of passing programs the profiling axis
    #: checked (an unprofiled run equal to the profiled one).
    profiling_cells: int = 0
    findings: list[FuzzFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        lines = [
            f"fuzz: {self.programs} program(s) through the differential "
            f"oracle ({self.profiling_cells} profiling-axis cell(s)), "
            f"{self.model_cases} analytic model case(s), "
            f"{len(self.findings)} failure(s)"
        ]
        lines.extend(f"  FAIL {finding.summary()}" for finding in self.findings)
        return "\n".join(lines)


def run_fuzz(
    budget: int = 50,
    seed: int = 0,
    gen_config: Optional[GeneratorConfig] = None,
    oracle_config: Optional[OracleConfig] = None,
    corpus_dir: Optional[Path] = None,
    runners: Optional[dict] = None,
    shrink: bool = True,
    model_cases: int = 100,
    max_findings: int = 5,
    progress: Optional[Callable[[str], None]] = None,
) -> FuzzStats:
    """Fuzz ``budget`` generated programs plus ``model_cases`` analytic
    model cases; shrink and (optionally) persist every failure.

    Stops early after ``max_findings`` failures — a broken engine fails
    on nearly every program, and shrinking each one costs oracle runs.
    """
    oracle_config = oracle_config or OracleConfig()
    stats = FuzzStats()
    say = progress or (lambda _line: None)

    if model_cases:
        try:
            stats.model_cases = check_models(seed=seed, cases=model_cases)
        except OracleFailure as failure:
            stats.findings.append(
                FuzzFinding(seed=seed, digest="-", failure=failure)
            )
            say(f"model oracle failed: {failure.summary()}")

    for index in range(budget):
        case_seed = seed + index
        spec = generate_spec(case_seed, gen_config)
        stats.programs += 1
        try:
            stats.profiling_cells += check_program(
                spec, oracle_config, runners
            )
            continue
        except OracleFailure as error:
            failure = error
        say(f"seed {case_seed}: {failure.summary()}")
        finding = FuzzFinding(
            seed=case_seed, digest=spec_digest(spec), failure=failure
        )
        if shrink:
            shrink_oracle = focused_config(failure, oracle_config)
            predicate = lambda s: (  # noqa: E731 - tight closure
                oracle_failure(s, shrink_oracle, runners) is not None
            )
            finding.shrunk_spec = shrink_spec(spec, predicate)
            finding.shrunk_blocks = count_blocks(finding.shrunk_spec)
            say(
                f"seed {case_seed}: shrunk to "
                f"{finding.shrunk_blocks} block(s)"
            )
        if corpus_dir is not None:
            to_save = finding.shrunk_spec or spec
            path = save_case(
                to_save,
                corpus_dir=corpus_dir,
                failure=failure.to_dict(),
                note=f"fuzz seed {case_seed} ({finding.digest})",
            )
            finding.corpus_path = str(path)
        stats.findings.append(finding)
        if len(stats.findings) >= max_findings:
            say(f"stopping after {max_findings} finding(s)")
            break
    return stats
