"""Shared CSR allocation for graph workloads.

Vertex-state arrays use ``elem_size=64`` — one cache line per vertex —
modelling CRONO's multi-field per-vertex records; this keeps vertex-state
footprints at ``n x 64B`` so scaled graphs still exceed the scaled LLC.

Guard slack on ``row``/``col``/queues absorbs the unclamped over-indexing
of outer-loop prefetch slices (see workloads.base.GUARD_ELEMS).

The ``allocate_*`` helpers declare segments by length in a space built
with a fill; the fill supplies the values (:func:`csr_values`,
:func:`vertex_values`, :func:`worklist_values`), so a graph is generated
only when a run needs it.
"""

from __future__ import annotations

from repro.mem.address import AddressSpace, Segment
from repro.workloads.base import GUARD_ELEMS
from repro.workloads.graphs import CSRGraph

#: One cache line per vertex-state element.
VERTEX_ELEM = 64


def allocate_csr(space: AddressSpace, n: int, m: int) -> tuple[Segment, Segment]:
    """Allocate row/col (``n`` vertices, ``m`` edges) with guard slack."""
    row = space.allocate("row", n + 1 + GUARD_ELEMS, elem_size=8)
    col = space.allocate("col", m + GUARD_ELEMS, elem_size=8)
    return row, col


def csr_values(graph: CSRGraph) -> dict[str, list]:
    """row/col fill values; guard row entries point at the (guarded) end
    of col so stale prefetch slices stay in bounds."""
    return {
        "row": graph.row + [graph.m] * GUARD_ELEMS,
        "col": graph.col + [0] * GUARD_ELEMS,
    }


def allocate_vertex_state(space: AddressSpace, name: str, n: int) -> Segment:
    """One 64B line per vertex (+ guard)."""
    return space.allocate(name, n + GUARD_ELEMS, elem_size=VERTEX_ELEM)


def vertex_values(n: int, init: int) -> list:
    """Fill values of a vertex-state segment, every vertex at ``init``."""
    return [init] * (n + GUARD_ELEMS)


def allocate_worklist(space: AddressSpace, name: str, n: int) -> Segment:
    """Queue/stack sized n + guard (every vertex enters at most once)."""
    return space.allocate(name, n + GUARD_ELEMS, elem_size=8)


def worklist_values(n: int, start: int) -> list:
    """Fill values of a worklist holding only ``start``."""
    values = [0] * (n + GUARD_ELEMS)
    values[0] = start
    return values
