"""Graph substrate: CSR graphs, synthetic generators, and the dataset
catalog standing in for SNAP (paper Table 4).

SNAP downloads are unavailable offline, so every catalog entry is a
synthetic graph *matched by category*: web graphs get power-law degrees,
road networks get a high-locality low-degree grid, p2p/social get their
characteristic degree shapes.  Sizes are the originals scaled down so
edge counts stay simulable (~<= 130k), preserving average degree — the
quantity that drives inner-loop trip counts and hence the paper's
injection-site results.  The simulated LLC is scaled correspondingly
(see MachineConfig), keeping the working-set : LLC ratio.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import Callable, Sequence


@dataclass(frozen=True)
class CSRGraph:
    """Compressed-sparse-row directed graph, immutable (row/col are
    read-only views, see :func:`frozen_ints`), so the memoized graph is
    shared by every caller."""

    name: str
    n: int
    row: Sequence[int]  # n+1 offsets
    col: Sequence[int]  # m destinations

    @property
    def m(self) -> int:
        return len(self.col)

    @property
    def avg_degree(self) -> float:
        return self.m / self.n if self.n else 0.0

    def out_degree(self, u: int) -> int:
        return self.row[u + 1] - self.row[u]


def frozen_ints(values: list[int]) -> memoryview:
    """``values`` as an immutable sequence of 8-byte ints: a tuple of
    Python ints would hold several times the memory."""
    return memoryview(array("q", values)).toreadonly()


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
# The uniform and power-law generators run in two phases on one RNG: the
# degree phase fixes the shape (n, m), then the destination phase draws
# ``col``.  Dataset.shape() runs only the first.
def uniform_degrees(n: int, avg_degree: float) -> list[int]:
    """Out-degrees spreading ``int(n * avg_degree)`` edges evenly (no RNG)."""
    target_m = int(n * avg_degree)
    degrees = []
    placed = 0
    for u in range(n):
        degree = max(0, round((target_m - placed) / (n - u)))
        degrees.append(degree)
        placed += degree
    return degrees


def power_law_degrees(
    n: int, avg_degree: float, rng: random.Random, alpha: float = 2.2
) -> list[int]:
    """Pareto out-degrees rescaled to the average (``n`` RNG draws)."""
    raw = [rng.paretovariate(alpha - 1.0) for _ in range(n)]
    scale = avg_degree * n / sum(raw)
    return [max(1, min(n - 1, round(d * scale))) for d in raw]


def random_destinations(
    name: str, n: int, degrees: list[int], rng: random.Random
) -> CSRGraph:
    """The destination phase: uniformly random neighbours, vertex by vertex."""
    row = [0]
    col: list[int] = []
    for degree in degrees:
        for _ in range(degree):
            col.append(rng.randrange(n))
        row.append(len(col))
    return CSRGraph(
        name=name, n=n, row=frozen_ints(row), col=frozen_ints(col)
    )


def uniform_graph(n: int, avg_degree: float, seed: int, name: str = "uniform") -> CSRGraph:
    """Each vertex gets ~avg_degree uniformly random out-neighbours."""
    degrees = uniform_degrees(n, avg_degree)
    return random_destinations(name, n, degrees, random.Random(seed))


def power_law_graph(
    n: int, avg_degree: float, seed: int, name: str = "power", alpha: float = 2.2
) -> CSRGraph:
    """Power-law out-degrees (web/social shape), random destinations."""
    rng = random.Random(seed)
    degrees = power_law_degrees(n, avg_degree, rng, alpha)
    return random_destinations(name, n, degrees, rng)


def road_graph(
    n: int,
    seed: int,
    name: str = "road",
    avg_degree: float = 1.4,
    shortcut_fraction: float = 0.02,
) -> CSRGraph:
    """Grid-like road network: low degree, high vertex-id locality.

    Right-edges are always kept (so the graph stays connected from
    vertex 0); down-edges are thinned to hit the requested average
    degree, matching SNAP roadNet degree statistics.
    """
    rng = random.Random(seed)
    width = max(2, int(n**0.5))
    down_probability = min(1.0, max(0.0, avg_degree - 1.0 - shortcut_fraction))
    row = [0]
    col: list[int] = []
    for u in range(n):
        neighbours = []
        if (u + 1) % width and u + 1 < n:
            neighbours.append(u + 1)
        if u + width < n and rng.random() < down_probability:
            neighbours.append(u + width)
        if rng.random() < shortcut_fraction:
            neighbours.append(rng.randrange(n))
        col.extend(neighbours)
        row.append(len(col))
    return CSRGraph(
        name=name, n=n, row=frozen_ints(row), col=frozen_ints(col)
    )


def rmat_shape(scale: int, edgefactor: int) -> tuple[int, int]:
    """(n, m) of an R-MAT graph: every one of the m draws makes an edge."""
    n = 1 << scale
    return n, n * edgefactor


def rmat_graph(
    scale: int,
    edgefactor: int,
    seed: int,
    name: str = "rmat",
    probabilities: tuple = (0.57, 0.19, 0.19, 0.05),
) -> CSRGraph:
    """Graph500-style Kronecker/R-MAT generator."""
    rng = random.Random(seed)
    n, m = rmat_shape(scale, edgefactor)
    a, b, c, _ = probabilities
    buckets: list[list[int]] = [[] for _ in range(n)]
    for _ in range(m):
        u = v = 0
        half = n >> 1
        while half:
            r = rng.random()
            if r < a:
                pass
            elif r < a + b:
                v += half
            elif r < a + b + c:
                u += half
            else:
                u += half
                v += half
            half >>= 1
        buckets[u].append(v)
    row = [0]
    col: list[int] = []
    for u in range(n):
        col.extend(buckets[u])
        row.append(len(col))
    return CSRGraph(
        name=name, n=n, row=frozen_ints(row), col=frozen_ints(col)
    )


# ----------------------------------------------------------------------
# Memoization of graph generation
# ----------------------------------------------------------------------
class GraphStore:
    """Process-wide memo of generated graphs: immutable
    :class:`CSRGraph` objects by generator identity, plus the
    ``graph_cache.hits`` / ``graph_cache.misses`` counters."""

    def __init__(self) -> None:
        # Imported here: repro.service imports the workload registry,
        # so a top-level import would be circular.
        from repro.service.metrics import MetricsRegistry

        self.metrics = MetricsRegistry()
        self.graphs: dict = {}


#: Lazily constructed.  Suite runs build the same (workload, scale,
#: seed) graph once per job otherwise — the R-MAT generator alone is a
#: measurable fraction of a cold suite pass.
_GRAPH_STORE = None


def graph_store() -> GraphStore:
    """The shared in-process graph store."""
    global _GRAPH_STORE
    if _GRAPH_STORE is None:
        _GRAPH_STORE = GraphStore()
    return _GRAPH_STORE


def clear_graph_cache() -> None:
    """Drop every memoized graph (test isolation aid)."""
    global _GRAPH_STORE
    _GRAPH_STORE = None


# ----------------------------------------------------------------------
# Dataset catalog (Table 4 analog)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Dataset:
    """One named input: a scaled synthetic stand-in for a SNAP graph."""

    name: str
    vertices: int
    avg_degree: float
    kind: str  # "power" | "uniform" | "road"
    seed: int
    original_vertices: int = 0
    original_edges: int = 0

    def _cache_params(self) -> dict:
        """The generator-identity parameters folded into the cache key.
        Subclasses adding generator knobs must extend this."""
        return {
            "generator": self.kind,
            "seed": self.seed,
            "avg_degree": f"{self.avg_degree:g}",
        }

    def shape(self) -> tuple[int, int]:
        """``(n, m)`` of the graph :meth:`build` returns, drawing no
        destinations: uniform degrees take no RNG draws, power-law
        degrees ``n`` draws; a road graph's shape is its full
        (memoized) generation."""
        if self.kind == "uniform":
            degrees = uniform_degrees(self.vertices, self.avg_degree)
        elif self.kind == "power":
            degrees = power_law_degrees(
                self.vertices, self.avg_degree, random.Random(self.seed)
            )
        else:
            graph = self.build()
            return graph.n, graph.m
        return self.vertices, sum(degrees)

    def _generate(self) -> CSRGraph:
        """Run the actual generator (subclass hook; no caching)."""
        if self.kind == "power":
            return power_law_graph(
                self.vertices, self.avg_degree, self.seed, name=self.name
            )
        if self.kind == "uniform":
            return uniform_graph(
                self.vertices, self.avg_degree, self.seed, name=self.name
            )
        if self.kind == "road":
            return road_graph(
                self.vertices,
                self.seed,
                name=self.name,
                avg_degree=self.avg_degree,
            )
        raise ValueError(f"unknown dataset kind {self.kind!r}")

    def build(self) -> CSRGraph:
        """The dataset's graph, memoized in :func:`graph_store` by
        (workload name, size, seed and the other generator parameters).
        Graphs are immutable, so every hit returns the one object."""
        store = graph_store()
        key = (
            self.name,
            self.vertices,
            tuple(sorted(self._cache_params().items())),
        )
        graph = store.graphs.get(key)
        if graph is not None:
            store.metrics.inc("graph_cache.hits")
            return graph
        graph = self._generate()
        store.graphs[key] = graph
        store.metrics.inc("graph_cache.misses")
        return graph


#: Table 4 of the paper, scaled (original sizes retained as metadata).
CATALOG: dict[str, Dataset] = {
    "web-Google": Dataset("web-Google", 20_000, 5.8, "power", 101, 875_713, 5_105_039),
    "p2p-Gnutella31": Dataset(
        "p2p-Gnutella31", 20_000, 2.4, "uniform", 102, 62_586, 147_892
    ),
    "roadNet-CA": Dataset("roadNet-CA", 60_000, 1.4, "road", 103, 1_965_206, 2_766_607),
    "roadNet-PA": Dataset("roadNet-PA", 42_000, 1.4, "road", 104, 1_088_092, 1_541_898),
    "loc-Brightkite": Dataset(
        "loc-Brightkite", 16_000, 3.7, "power", 105, 58_228, 214_078
    ),
    "web-BerkStan": Dataset(
        "web-BerkStan", 10_000, 11.1, "power", 106, 685_230, 7_600_595
    ),
    "web-NotreDame": Dataset(
        "web-NotreDame", 22_000, 4.6, "power", 107, 325_729, 1_497_134
    ),
    "web-Stanford": Dataset(
        "web-Stanford", 13_000, 8.2, "power", 108, 281_903, 2_312_497
    ),
}


def synthetic_dataset(vertices: int, degree: float, seed: int = 42) -> Dataset:
    """The paper's synthetic inputs ('80K nodes, degree 8' etc.)."""
    return Dataset(
        name=f"synth-{vertices // 1000}K-d{degree:g}",
        vertices=vertices,
        avg_degree=degree,
        kind="uniform",
        seed=seed,
    )


def dataset(name: str) -> Dataset:
    try:
        return CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; available: {sorted(CATALOG)}"
        ) from None
