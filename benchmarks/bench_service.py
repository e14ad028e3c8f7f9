"""Tuning-service artifact cache: cold vs warm suite reproduction.

The warm number is the service's reason to exist — a whole-suite
comparison served from the content-addressed store should be orders of
magnitude faster than recomputing it, and the gap is the trajectory
later scaling PRs (sharding, remote workers) build on.
"""

import shutil
import tempfile

from repro.service.api import TuningService


def test_suite_comparison_cold_cache(benchmark, scale):
    """Every artifact computed from scratch into a fresh store."""

    def setup():
        cache_dir = tempfile.mkdtemp(prefix="repro-bench-cold-")
        return (TuningService(cache_dir=cache_dir),), {}

    def run(service):
        result = service.compare_suite(scale)
        shutil.rmtree(str(service.store.root), ignore_errors=True)
        return result

    comparisons = benchmark.pedantic(run, setup=setup, iterations=1, rounds=1)
    assert comparisons and all(c.error is None for c in comparisons.values())


def test_suite_comparison_warm_cache(benchmark, scale, tmp_path):
    """Every artifact served from the store (fresh service per round,
    so in-process memoization cannot help — this measures the store)."""
    cache_dir = str(tmp_path / "warm-cache")
    TuningService(cache_dir=cache_dir).compare_suite(scale)  # populate

    def run():
        return TuningService(cache_dir=cache_dir).compare_suite(scale)

    comparisons = benchmark.pedantic(run, iterations=1, rounds=3)
    assert comparisons and all(c.error is None for c in comparisons.values())


def test_cached_sweep_hit(benchmark):
    """A 16-cell sweep answered entirely from the in-memory store: the
    per-request cost of keying cells and decoding their payloads, with
    no config derived, no digest computed and no workload built."""
    import repro.api as api

    service = TuningService()
    request = api.SweepRequest(
        workload="HJ8-tiny", scale="tiny",
        schemes=("baseline", "aj", "apt-get"),
        distances=(4, 8, 16, 32, 64, 128), cache_scales=(1, 2),
    )
    first = api.execute(request, service=service)  # populate
    assert len(first.cells) == 16

    result = benchmark.pedantic(
        lambda: api.execute(request, service=service),
        iterations=10, rounds=20,
    )
    assert result.execution["cached_cells"] == 16
