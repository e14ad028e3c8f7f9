"""Loop-latency distribution analysis from LBR samples (paper §3.1-3.2).

Given LBR snapshots, two instances of the same loop-latch branch PC
delimit one loop iteration; subtracting their cycle counts yields one
iteration-latency measurement.  The latency distribution of a loop whose
body contains a delinquent load is multi-modal (Fig 4): one peak per
memory-hierarchy level serving the load.  Peaks are detected with the
continuous-wavelet-transform peak finder the paper names (§3.4,
``scipy.signal.find_peaks_cwt``), through the exact numpy port in
:mod:`repro.core.cwt` (scipy is a test-only oracle), with a robust
clustering fallback for degenerate histograms.

Degraded inputs (the documented fallback contract, relied on by
``repro.core.distance.optimal_distance`` and checked by the QA model
oracle):

* **empty input** — no peaks, every latency component 0; downstream
  distance estimation falls back to ``MIN_DISTANCE`` and flags the
  estimate unreliable rather than raising;
* **single-peak input** (the load always hits, so no memory mode) —
  one peak, hence ``ic_latency == miss_latency`` and ``mc_latency``
  clamps to 0; again distance ``MIN_DISTANCE``, unreliable.

Prefetch injection is an optimization, so "not enough signal" must
degrade to "don't prefetch", never to an exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.core.cwt import find_peaks_cwt

#: Histogram bin width in cycles.
BIN_WIDTH = 4
#: Peaks whose mass is below this fraction of the dominant peak are noise.
PEAK_MASS_THRESHOLD = 0.02


def iteration_latencies(
    samples: Iterable[tuple], latch_pcs: Sequence[int]
) -> list[int]:
    """Extract loop-iteration latencies for a loop from LBR snapshots.

    ``latch_pcs``: the PCs of the loop's back-edge branches.  Within each
    snapshot, the cycle delta between consecutive occurrences of a latch
    PC is one iteration latency.
    """
    latch_set = set(latch_pcs)
    deltas: list[int] = []
    for sample in samples:
        previous_cycle = None
        for entry in sample:
            if entry[0] in latch_set:
                cycle = entry[2]
                if previous_cycle is not None:
                    delta = cycle - previous_cycle
                    if delta > 0:
                        deltas.append(delta)
                previous_cycle = cycle
    return deltas


def trip_counts(
    samples: Iterable[tuple],
    inner_latch_pcs: Sequence[int],
    outer_latch_pcs: Sequence[int],
) -> list[int]:
    """Inner-loop trip counts: number of inner back-edges between two
    consecutive outer back-edges in a snapshot (paper §3.1, Fig 3).

    The count of inner latch hits is the number of inner back-edges, i.e.
    iterations minus one; we therefore report hits + 1.
    """
    inner = set(inner_latch_pcs)
    outer = set(outer_latch_pcs)
    counts: list[int] = []
    for sample in samples:
        in_window = False
        inner_hits = 0
        for entry in sample:
            pc = entry[0]
            if pc in outer:
                if in_window:
                    counts.append(inner_hits + 1)
                inner_hits = 0
                in_window = True
            elif pc in inner:
                inner_hits += 1
        # A trailing window without a closing outer branch is discarded:
        # it may be truncated by the 32-entry LBR depth.
    return counts


@dataclass
class LatencyDistribution:
    """Histogram of loop-iteration latencies with detected peaks."""

    latencies: list[int]
    bin_width: int = BIN_WIDTH
    peaks: list[int] = field(default_factory=list)  # cycle positions
    peak_masses: list[int] = field(default_factory=list)  # sample counts

    @property
    def count(self) -> int:
        return len(self.latencies)

    @property
    def ic_latency(self) -> int:
        """Instruction-component latency: the lowest significant peak —
        the loop's execution time when the load hits in near caches."""
        return self.peaks[0] if self.peaks else 0

    @property
    def miss_latency(self) -> int:
        """Iteration latency when the load is served by memory: the
        highest significant peak."""
        return self.peaks[-1] if self.peaks else 0

    @property
    def mc_latency(self) -> int:
        """Memory component: the hideable part (highest - lowest peak)."""
        return max(self.miss_latency - self.ic_latency, 0)


def analyze_latency_distribution(
    latencies: Sequence[int],
    bin_width: int = BIN_WIDTH,
    max_peaks: int = 6,
) -> LatencyDistribution:
    """Histogram the latencies and locate the per-level peaks.

    Primary detector: continuous-wavelet-transform peak finding
    (:func:`repro.core.cwt.find_peaks_cwt`), as named in paper §3.4.
    Fallback: greedy mode clustering, used when CWT finds nothing (tiny or spiky
    histograms).
    """
    distribution = LatencyDistribution(list(latencies), bin_width=bin_width)
    if not latencies:
        return distribution
    values = np.asarray(latencies, dtype=np.int64)
    top = int(values.max())
    bins = top // bin_width + 1
    histogram = np.bincount(values // bin_width, minlength=bins)

    peak_bins: list[int] = []
    if bins >= 8:
        widths = np.arange(1, max(3, min(12, bins // 4)))
        # The CWT peak finder divides by zero on flat noise windows
        # (x/0 and 0/0 SNRs are part of its contract); keep numpy quiet
        # here rather than in the process-global warning filters.
        with np.errstate(divide="ignore", invalid="ignore"):
            peak_bins = find_peaks_cwt(histogram.astype(float), widths)
    # CWT can miss narrow modes on spiky histograms; union with local
    # maxima of the smoothed histogram (the mass filter below prunes any
    # noise maxima this adds).
    peak_bins = sorted(set(peak_bins) | set(_cluster_modes(histogram)))
    if not peak_bins:
        return distribution

    # Snap each CWT peak to the local histogram maximum and score by the
    # mass in a +-2-bin neighbourhood; drop negligible peaks.
    scored: dict[int, int] = {}
    for b in peak_bins:
        lo, hi = max(0, b - 2), min(bins, b + 3)
        local = int(lo + np.argmax(histogram[lo:hi]))
        mass = int(histogram[max(0, local - 2): local + 3].sum())
        scored[local] = max(scored.get(local, 0), mass)
    if not scored:
        return distribution
    dominant = max(scored.values())
    keep = sorted(
        (b, m)
        for b, m in scored.items()
        if m >= max(2, PEAK_MASS_THRESHOLD * dominant)
    )
    keep = _merge_adjacent(keep)
    keep = keep[:max_peaks]
    distribution.peaks = [b * bin_width + bin_width // 2 for b, _ in keep]
    distribution.peak_masses = [m for _, m in keep]
    return distribution


def _cluster_modes(histogram: np.ndarray) -> list[int]:
    """Fallback peak detector: local maxima over a smoothed histogram."""
    if histogram.sum() == 0:
        return []
    kernel = np.array([1.0, 2.0, 3.0, 2.0, 1.0])
    smooth = np.convolve(histogram.astype(float), kernel / kernel.sum(), "same")
    peaks = []
    for i in range(len(smooth)):
        left = smooth[i - 1] if i > 0 else -1.0
        right = smooth[i + 1] if i < len(smooth) - 1 else -1.0
        if smooth[i] > 0 and smooth[i] >= left and smooth[i] > right:
            peaks.append(i)
    return peaks


def _merge_adjacent(
    peaks: list[tuple[int, int]], min_gap: int = 3
) -> list[tuple[int, int]]:
    """Merge peaks closer than ``min_gap`` bins, keeping the heavier."""
    merged: list[tuple[int, int]] = []
    for b, m in peaks:
        if merged and b - merged[-1][0] < min_gap:
            if m > merged[-1][1]:
                merged[-1] = (b, m)
        else:
            merged.append((b, m))
    return merged
