"""Prefetch hints: the artifact flowing from profile analysis to the
compiler pass (the paper's 'list of delinquent load PCs with their
corresponding prefetch-distance and prefetch injection site', §3.4).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Iterable, Optional

from repro.core.site import InjectionSite


@dataclass
class PrefetchHint:
    """One delinquent load's prescription."""

    load_pc: int
    function: str
    distance: int
    site: InjectionSite = InjectionSite.INNER
    #: Eq-1 distance computed on the *outer* loop's latency distribution,
    #: used when site == OUTER (§3.3).
    outer_distance: Optional[int] = None
    #: Average inner-loop trip count from LBR samples.
    trip_count: Optional[float] = None
    #: Diagnostics from the distribution analysis.
    ic_latency: int = 0
    mc_latency: int = 0
    lbr_iterations_measured: int = 0
    #: How many inner-iteration prefetches to emit for outer-site
    #: injection (sweep of %iv2, §3.5); 1 = first element only.
    sweep: int = 1

    @property
    def effective_distance(self) -> int:
        if self.site is InjectionSite.OUTER and self.outer_distance:
            return self.outer_distance
        return self.distance

    def to_dict(self) -> dict:
        raw = asdict(self)
        raw["site"] = self.site.value
        return raw

    @classmethod
    def from_dict(cls, raw: dict) -> "PrefetchHint":
        raw = dict(raw)
        raw["site"] = InjectionSite(raw["site"])
        return cls(**raw)


@dataclass
class HintSet:
    """All hints for one module, serializable to a hint file."""

    hints: list[PrefetchHint] = field(default_factory=list)

    def __iter__(self):
        return iter(self.hints)

    def __len__(self) -> int:
        return len(self.hints)

    def append(self, hint: PrefetchHint) -> None:
        self.hints.append(hint)

    def for_function(self, function: str) -> list[PrefetchHint]:
        return [hint for hint in self.hints if hint.function == function]

    def by_pc(self) -> dict[int, PrefetchHint]:
        return {hint.load_pc: hint for hint in self.hints}

    def to_dict(self) -> dict:
        return {"hints": [hint.to_dict() for hint in self.hints]}

    @classmethod
    def from_dict(cls, raw: dict) -> "HintSet":
        return cls(hints=[PrefetchHint.from_dict(h) for h in raw["hints"]])

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "HintSet":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_hints(cls, hints: Iterable[PrefetchHint]) -> "HintSet":
        return cls(hints=list(hints))
