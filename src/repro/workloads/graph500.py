"""Graph500 BFS on a Kronecker (R-MAT) graph.

Same traversal kernel as the CRONO BFS workload, run on the Graph500
generator's skewed-degree graph (average degree ~= edgefactor).  The
paper used scale 22, edgefactor 10; we use a scaled-down instance with
the same edgefactor (DESIGN.md scaling rule).
"""

from __future__ import annotations

from repro.ir.nodes import Module
from repro.mem.address import AddressSpace
from repro.workloads.base import Workload
from repro.workloads.bfs import BFSWorkload
from repro.workloads.graphs import CSRGraph, Dataset, rmat_graph, rmat_shape


class _RMATDataset(Dataset):
    """Dataset shim: builds an R-MAT graph instead of a catalog graph."""

    def __init__(self, scale: int, edgefactor: int, seed: int) -> None:
        n = 1 << scale
        super().__init__(
            name=f"rmat-s{scale}-e{edgefactor}",
            vertices=n,
            avg_degree=float(edgefactor),
            kind="rmat",
            seed=seed,
            original_vertices=1 << 22,
            original_edges=(1 << 22) * 10,
        )
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "edgefactor", edgefactor)

    def _cache_params(self) -> dict:
        params = super()._cache_params()
        params["rmat_scale"] = self.scale  # type: ignore[attr-defined]
        params["edgefactor"] = self.edgefactor  # type: ignore[attr-defined]
        return params

    def shape(self) -> tuple[int, int]:
        return rmat_shape(self.scale, self.edgefactor)  # type: ignore[attr-defined]

    def _generate(self) -> CSRGraph:
        return rmat_graph(
            self.scale,  # type: ignore[attr-defined]
            self.edgefactor,  # type: ignore[attr-defined]
            self.seed,
            name=self.name,
        )


class Graph500Workload(BFSWorkload):
    """Graph500 BFS (paper Table 3: Graph500, scale 22 / edgefactor 10)."""

    name = "Graph500"
    nested = True

    def __init__(self, scale: int = 14, edgefactor: int = 10, seed: int = 901) -> None:
        dataset = _RMATDataset(scale, edgefactor, seed)
        super().__init__(dataset, source=0)
        self.name = f"Graph500-s{scale}"

    def _build(self) -> tuple[Module, AddressSpace]:
        module, space = super()._build()
        module.name = self.name
        return module, space
