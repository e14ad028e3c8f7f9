"""Workload protocol: deterministic builders of (module, address space).

A workload is the reproduction's analog of one benchmark binary + its
input: calling :meth:`build` is 'recompiling' — it must be deterministic
so that PCs are stable between the profiling build and the optimized
build (the property AutoFDO relies on).
"""

from __future__ import annotations

from typing import Callable

from repro.ir.nodes import Module
from repro.ir.verifier import verify_module
from repro.mem.address import AddressSpace

#: Guard slack (in elements) appended to arrays that prefetch slices may
#: over-index when a loop bound is not statically clampable: slices never
#: fault on real hardware because the arrays they run past are mapped;
#: we reproduce that with explicit slack (see DESIGN.md).
GUARD_ELEMS = 1024


class Workload:
    """Base class; subclasses configure themselves in ``__init__`` and
    implement :meth:`_build`.

    The suite's workloads build their space as
    ``AddressSpace(fill=self._inputs)`` and allocate segments by length,
    so a build generates no input value; ``_inputs`` draws them all, in
    one fixed RNG order, when the space is first observed.
    """

    #: Registry/reporting name (e.g. "BFS").
    name: str = "workload"
    #: Entry function to run.
    entry: str = "main"
    #: Whether the hot loop nest is nested (Fig 10 membership).
    nested: bool = False

    def _build(self) -> tuple[Module, AddressSpace]:
        raise NotImplementedError

    def build(self) -> tuple[Module, AddressSpace]:
        """Deterministically build a fresh, verified, finalized module."""
        module, space = self._build()
        if not module.finalized:
            module.finalize()
        verify_module(module)
        return module, space

    @property
    def builder(self) -> Callable[[], tuple[Module, AddressSpace]]:
        """The builder callable the optimization pipeline consumes."""
        return self.build

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Workload {self.name}>"
