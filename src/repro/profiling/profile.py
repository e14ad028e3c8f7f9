"""Profile containers: what a profiling run produces.

An :class:`ExecutionProfile` is the reproduction's analog of the paper's
``perf record`` output: a set of LBR snapshots plus PEBS-style records of
long-latency loads, together with the run's PMU counters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.machine.lbr import LBREntry
from repro.machine.pmu import Counters
from repro.machine.sampler import ProfileSampler


@dataclass
class ExecutionProfile:
    """All dynamic information APT-GET extracts from one profiling run."""

    #: LBR snapshots: each is a tuple of (from_pc, to_pc, cycle) entries,
    #: oldest to newest, at most 32 long.
    lbr_samples: list[tuple] = field(default_factory=list)
    #: PEBS-style: load PC -> number of long-latency (LLC-miss-class) hits.
    load_miss_counts: dict[int, int] = field(default_factory=dict)
    #: load PC -> summed latency of those hits (for ranking).
    load_miss_latency: dict[int, int] = field(default_factory=dict)
    #: PMU counters of the profiled run.
    counters: Counters = field(default_factory=Counters)
    #: Name of the profiled entry function.
    function: str = "main"
    #: Return value of the profiled run (not serialized: a profile file
    #: carries what the analysis reads, the service keeps the run).
    value: Optional[int] = None

    @classmethod
    def from_sampler(
        cls,
        sampler: ProfileSampler,
        counters: Optional[Counters] = None,
        function: str = "main",
    ) -> "ExecutionProfile":
        return cls(
            lbr_samples=list(sampler.samples),
            load_miss_counts=dict(sampler.load_miss_counts),
            load_miss_latency=dict(sampler.load_miss_latency),
            counters=counters.copy() if counters is not None else Counters(),
            function=function,
        )

    # ------------------------------------------------------------------
    def delinquent_loads(self, top: int = 10, min_count: int = 8) -> list[int]:
        """Load PCs ranked by total sampled miss latency (paper §3.2 step 1)."""
        ranked = sorted(
            (
                pc
                for pc, count in self.load_miss_counts.items()
                if count >= min_count
            ),
            key=lambda pc: self.load_miss_latency.get(pc, 0),
            reverse=True,
        )
        return ranked[:top]

    def samples_containing(self, from_pc: int) -> list[tuple]:
        """LBR snapshots containing at least one entry with ``from_pc``."""
        return [
            sample
            for sample in self.lbr_samples
            if any(entry[0] == from_pc for entry in sample)
        ]

    # ------------------------------------------------------------------
    # (De)serialization: hint files travel between profile and compile
    # steps, so profiles should too (perf.data analog).
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The sample body as plain JSON-able data (no counters: those
        travel with the run)."""
        return {
            "function": self.function,
            "lbr_samples": [
                [list(entry) for entry in sample]
                for sample in self.lbr_samples
            ],
            "load_miss_counts": {
                str(pc): count for pc, count in self.load_miss_counts.items()
            },
            "load_miss_latency": {
                str(pc): lat for pc, lat in self.load_miss_latency.items()
            },
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ExecutionProfile":
        return cls(
            lbr_samples=[
                tuple(LBREntry(*entry) for entry in sample)
                for sample in raw["lbr_samples"]
            ],
            load_miss_counts={
                int(pc): count for pc, count in raw["load_miss_counts"].items()
            },
            load_miss_latency={
                int(pc): lat for pc, lat in raw["load_miss_latency"].items()
            },
            function=raw.get("function", "main"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ExecutionProfile":
        return cls.from_dict(json.loads(text))

    def merge(self, other: "ExecutionProfile") -> "ExecutionProfile":
        """Combine two profiles of the same binary (multi-run profiling)."""
        merged = ExecutionProfile(
            lbr_samples=self.lbr_samples + other.lbr_samples,
            load_miss_counts=dict(self.load_miss_counts),
            load_miss_latency=dict(self.load_miss_latency),
            counters=self.counters,
            function=self.function,
        )
        for pc, count in other.load_miss_counts.items():
            merged.load_miss_counts[pc] = merged.load_miss_counts.get(pc, 0) + count
        for pc, lat in other.load_miss_latency.items():
            merged.load_miss_latency[pc] = (
                merged.load_miss_latency.get(pc, 0) + lat
            )
        return merged
